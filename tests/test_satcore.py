import functools
import itertools
import random
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypercause import boolexpr
from hypercause.causality import actual_cause
from hypercause.counterfactual import (
    InterventionTable,
    contingency_flag,
    controllable_outputs,
    intervene,
)
from hypercause.events import Counterexample, Event, satisfied_events, satisfies_events
from hypercause.lasso import Lasso
from hypercause.machine import MooreMachine, orbit
from hypercause.oracle import brute_force_causes
from hypercause.parser import parse_hyperltl
from hypercause.satcore import candidate_cause, candidate_set
from hypercause.semantics import eval_hyper

from conftest import leaky_cex
from genrand import random_violated_instance

OD = parse_hyperltl('Forall (Forall (G (Eq (AP "lo" 0) (AP "lo" 1))))')


def test_candidate_cause_running_example(machine):
    cand = candidate_cause(machine, OD, leaky_cex())
    assert Event("t1", 0, "hi", False) in cand.events
    assert Event("t2", 0, "hi", True) in cand.events
    # the second low branch also guards on the high input
    assert Event("t1", 1, "hi", False) in cand.events
    # no events on input-insensitive steps, no formula-support inputs
    assert ("t2", 1) not in dict(cand.per_step)
    assert ("t2", 2) not in dict(cand.per_step)
    assert cand.formula_support == ()
    assert satisfies_events(leaky_cex(), cand.events)


def test_candidate_events_sorted_and_satisfied(machine, cex):
    cand = candidate_cause(machine, OD, cex)
    assert list(cand.events) == sorted(cand.events, key=Event.sort_key)
    assert satisfies_events(cex, cand.events)


def test_per_step_sets_are_cores(machine, cex):
    # every per-step event set fixes the transition: each input set that
    # agrees with its literals moves the run to the state it took there
    per_step = dict(candidate_cause(machine, OD, cex).per_step)
    checked = 0
    for name, trace in cex.traces.items():
        states = machine.state_sequence(trace)
        for n in range(len(trace)):
            step = per_step.get((name, n), ())
            if not step:
                continue
            for inputs in boolexpr.assignments(machine.inputs):
                if all((e.prop in inputs) == e.positive for e in step):
                    assert machine.successor(states[n], inputs) == states[n + 1]
                    checked += 1
    assert checked


def test_formula_support_collects_input_atoms():
    from hypercause.machine import MooreMachine, orbit

    m = MooreMachine.from_guards(
        inputs=["a"],
        outputs=["o"],
        labels={"q0": [], "q1": ["o"]},
        initial="q0",
        transitions=[("q0", "true", "q1"), ("q1", "true", "q0")],
    )
    h = parse_hyperltl('Forall (G (Eq (AP "a" 0) (AP "o" 0)))')
    from hypercause.events import Counterexample
    from hypercause.lasso import Lasso

    trace = m.run(Lasso([], [frozenset({"a"}), frozenset()]))
    cex = Counterexample({"t": trace})
    cand = candidate_cause(m, h, cex)
    # transitions ignore the input entirely; the formula reads it
    assert cand.per_step == ()
    assert len(cand.formula_support) == len(trace)
    assert all(e.prop == "a" for e in cand.formula_support)
    assert cand.events == cand.formula_support


def test_candidate_cause_adds_rerouted_inputs_running_example(machine, cex):
    cand = candidate_cause(machine, OD, cex)
    # flipping <hi,0,t2> moves t2 into s2, which branches on the high input
    # at step 1; output resets can move either trace into s0 or s2 at step 2
    assert set(cand.rerouted) == {
        Event("t1", 2, "hi", False),
        Event("t2", 1, "hi", True),
        Event("t2", 2, "hi", False),
    }
    assert [key for key, _ in cand.per_step] == [("t1", 0), ("t1", 1), ("t2", 0)]
    assert set(cand.events) == set(satisfied_events(cex, machine.inputs))
    assert not set(cand.rerouted) & {e for _, step in cand.per_step for e in step}


def test_candidate_cause_reports_no_degraded_warning():
    from hypercause.counterfactual import controllable_outputs
    from hypercause.events import Counterexample
    from hypercause.lasso import Lasso
    from hypercause.machine import MooreMachine, orbit

    # two states share the empty label, so no output is controllable
    m = MooreMachine.from_guards(
        inputs=["a"],
        outputs=["o"],
        labels={"p": [], "p2": [], "q": ["o"]},
        initial="p",
        transitions=[
            ("p", "a", "q"), ("p", "!a", "p2"),
            ("p2", "a", "q"), ("p2", "!a", "p"),
            ("q", "true", "q"),
        ],
    )
    h = parse_hyperltl('Forall (G (Not (AP "o" 0)))')
    cex = Counterexample({"t": m.run(Lasso([frozenset({"a"})], [frozenset()]))})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cand = candidate_cause(m, h, cex)
    assert not caught
    assert controllable_outputs(m) == ((), ("o",))
    assert Event("t", 0, "a", True) in cand.events


def _two_state_machine(outputs_of_q1=("o",), duplicate=False):
    """q0 (no output) goes to q1 on input a and stays on !a; q1 moves on to
    q2, which carries the same label when `duplicate`, else back to q0."""
    labels = {"q0": [], "q1": list(outputs_of_q1)}
    transitions = [("q0", "a", "q1"), ("q0", "!a", "q0")]
    if duplicate:
        labels["q2"] = list(outputs_of_q1)
        transitions += [("q1", "true", "q2"), ("q2", "true", "q2")]
    else:
        transitions.append(("q1", "true", "q0"))
    return MooreMachine.from_guards(["a"], sorted(outputs_of_q1), labels, "q0", transitions)


def _decided(machine, text, trace):
    formula = parse_hyperltl(text)
    cex = Counterexample({"t": trace})
    report = actual_cause(machine, formula, cex)
    repairable = InterventionTable(machine, formula, cex).repairable(0, None)
    assert repairable == (report.stats["decided_by"] == "search")
    oracle_causes = tuple(c for c, _ in brute_force_causes(machine, formula, cex))
    assert tuple(entry.cause for entry in report.causes) == oracle_causes[:1]
    return report


def test_precheck_reads_missing_propositions_as_false():
    m = _two_state_machine()
    idle = Lasso([frozenset()], [frozenset()])
    # zz is no proposition of the machine, so !zz holds on every world, and
    # the body needs o at position 0, which the initial state fixes
    report = _decided(m, "forall t. !zz[t] -> o[t]", idle)
    assert report.status == "no-actual-cause"
    assert report.stats["decided_by"] == "precheck"
    assert report.stats["subsets_checked"] == 0
    # read as possibly true, zz would have left the disjunction open
    assert _decided(m, "forall t. zz[t] | o[t]", idle).stats["decided_by"] == "precheck"


def test_precheck_on_an_output_at_position_zero():
    m = _two_state_machine()
    # with a prefix, copy 0 holds only the initial state, so o[t] at
    # position 0 is surely false
    report = _decided(m, "forall t. o[t]", Lasso([frozenset()], [frozenset()]))
    assert (report.status, report.stats["decided_by"]) == ("no-actual-cause", "precheck")
    # with loop start 0, copy 0 is re-entered from the loop, where a flip
    # may have led to q1, but step 0 is still the initial state: the
    # pre-check reads it from there and rules o out
    report = _decided(m, "forall t. o[t]", Lasso([], [frozenset()]))
    assert (report.status, report.stats["decided_by"]) == ("no-actual-cause", "precheck")
    assert report.stats["subsets_checked"] == 0


def test_precheck_keeps_uncontrollable_outputs_a_flip_reaches():
    # q1 and q2 share a label, so no reset can force u: it is excluded from
    # contingencies, yet flipping a still reaches it
    m = _two_state_machine(("u",), duplicate=True)
    assert controllable_outputs(m) == ((), ("u",))
    report = _decided(m, "forall t. F u[t]", Lasso([frozenset()], [frozenset()]))
    assert report.stats["decided_by"] == "search"
    assert report.status == "found"
    assert report.causes[0].cause == (Event("t", 0, "a", False),)


# acceptance-corpus draws (tests/genrand.py) whose candidate set is empty;
# the pre-check decides each of them
EMPTY_CANDIDATE_DRAWS = (15, 143, 233, 238, 294, 373, 427, 486, 614, 768, 828, 831)
# acceptance-corpus draws the pre-check decides
PRECHECKED_DRAWS = (7, 12, 22, 26, 27, 28, 39, 74, 77, 80, 83, 87, 97, 114, 115, 166, 784,
                    *EMPTY_CANDIDATE_DRAWS)


@functools.cache
def _draw(seed):
    return random_violated_instance(seed)


def _examples(cases):
    """Run each case as an explicit example of a `given` test: a
    derandomized draw from a long list reaches few of its entries."""

    def wrap(test):
        for case in cases:
            test = example(*case)(test)
        return test

    return wrap


@_examples((seed, random.Random(seed)) for seed in EMPTY_CANDIDATE_DRAWS)
@settings(max_examples=150)
@given(st.one_of(st.sampled_from(PRECHECKED_DRAWS), st.integers(1, 120)), st.randoms())
def test_precheck_rules_out_every_world(seed, rng):
    instance = _draw(seed)
    if instance is None:
        return
    machine, formula, cex = instance
    if InterventionTable(machine, formula, cex).repairable(0, None):
        assert seed not in PRECHECKED_DRAWS
        return
    inputs = satisfied_events(cex, machine.inputs)
    outputs = satisfied_events(cex, controllable_outputs(machine)[0])
    for _ in range(20):
        flips = rng.sample(inputs, rng.randint(0, len(inputs)))
        resets = rng.sample(outputs, rng.randint(0, len(outputs)))
        assert not eval_hyper(intervene(machine, cex, flips, resets), formula)
    if len(inputs) + len(outputs) <= 10:  # keeps the unbounded oracle small
        assert brute_force_causes(machine, formula, cex) == ()
    else:
        assert brute_force_causes(machine, formula, cex, 3, 2) == ()


def _old_feasible(formula, automata):
    """The pre-check as a walk of each trace's automaton letter by letter:
    from each (state set, copy), every input letter with every set of
    auxiliary inputs; a step surely carries the outputs of every state of
    its set and possibly any input and the outputs of some state."""
    must, may = [], []
    for aut in automata.values():
        m = aut.machine
        flags = [contingency_flag(o) for o in aut.controllable]
        alphabet = [a.union(f) for a in m.input_sets
                    for k in range(len(flags) + 1) for f in itertools.combinations(flags, k)]

        def step(pair):
            states, k = pair
            succ = {aut.step((s, k), a) for s in states for a in alphabet}
            return frozenset(s for s, _ in succ), succ.pop()[1]

        pairs, loop = orbit((frozenset([m.initial]), 0), step)
        labels = [[m.labels[s] for s in states] for states, _ in pairs]
        sure = [frozenset.intersection(*ls) for ls in labels]
        possible = [frozenset(m.inputs).union(*ls) for ls in labels]
        must.append(Lasso(sure[:loop], sure[loop:]))
        may.append(Lasso(possible[:loop], possible[loop:]))
    return formula.program.bounds(must, may)[1]


@settings(max_examples=150)
@given(st.one_of(st.sampled_from(PRECHECKED_DRAWS), st.integers(1, 300)))
def test_set_check_on_every_input_event_is_the_old_precheck(seed):
    instance = _draw(seed)
    if instance is None:
        return
    machine, formula, cex = instance
    table = InterventionTable(machine, formula, cex)
    old = _old_feasible(formula, table.automata)
    assert not old or seed not in PRECHECKED_DRAWS
    every = table.bits(satisfied_events(cex, machine.inputs))
    assert table.repairable(0, every) == table.repairable(0, None) == old
    # in the search's order: the pre-check after the candidate analysis,
    # whose walk with every input free it reuses
    fresh = InterventionTable(machine, formula, cex)
    candidate_set(fresh)
    assert fresh.repairable(0, None) == old


def test_candidate_analysis_leaves_the_precheck_to_the_search(machine, cex):
    # the running example, where the search decides, and draw 143, whose
    # candidate set is empty and which the pre-check decides
    cases = [(machine, OD, cex, "search"), (*_draw(143), "precheck")]
    for m, formula, trace, decided_by in cases:
        table = InterventionTable(m, formula, trace)
        table.require_violation()
        evaluations, runs = table.evaluations, table.runs
        candidate = candidate_set(table)
        assert (table.set_checks, table.evaluations, table.runs) == (0, evaluations, runs)
        assert (candidate.events == ()) == (decided_by == "precheck")
        report = actual_cause(m, formula, trace)
        assert report.stats["set_checks"] >= 1
        assert report.stats["decided_by"] == decided_by
