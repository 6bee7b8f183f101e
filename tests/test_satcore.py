import functools
import warnings

from hypothesis import given, settings
from hypothesis import strategies as st

from hypercause import boolexpr
from hypercause.causality import actual_cause
from hypercause.counterfactual import controllable_outputs, intervene
from hypercause.events import Counterexample, Event, satisfied_events, satisfies_events
from hypercause.lasso import Lasso
from hypercause.machine import MooreMachine
from hypercause.oracle import brute_force_causes
from hypercause.parser import parse_hyperltl
from hypercause.satcore import candidate_cause
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
    assert cand.step_events("t2", 1) == ()
    assert cand.step_events("t2", 2) == ()
    assert cand.formula_support == ()
    assert satisfies_events(leaky_cex(), cand.events)


def test_candidate_events_sorted_and_satisfied(machine, cex):
    cand = candidate_cause(machine, OD, cex)
    assert list(cand.events) == sorted(cand.events, key=Event.sort_key)
    assert satisfies_events(cex, cand.events)


def test_per_step_sets_are_cores(machine, cex):
    # every per-step event set fixes the transition: each input set that
    # agrees with its literals moves the run to the state it took there
    cand = candidate_cause(machine, OD, cex)
    checked = 0
    for name, trace in cex.traces.items():
        states = machine.state_sequence(trace)
        for n in range(len(trace)):
            step = cand.step_events(name, n)
            if not step:
                continue
            for inputs in boolexpr.assignments(machine.inputs):
                if all((e.prop in inputs) == e.positive for e in step):
                    assert machine.successor(states[n], inputs) == states[n + 1]
                    checked += 1
    assert checked


def test_formula_support_collects_input_atoms():
    from hypercause.machine import MooreMachine

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
    from hypercause.machine import MooreMachine

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
    assert report.candidate.feasible == (report.stats["decided_by"] == "search")
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
    assert report.candidate.feasible
    assert report.status == "found"
    assert report.causes[0].cause == (Event("t", 0, "a", False),)


# acceptance-corpus draws (tests/genrand.py) the pre-check decides
PRECHECKED_DRAWS = (7, 12, 15, 26, 27, 28, 39, 74, 77, 80, 83, 87, 97, 114, 115, 166)


@functools.cache
def _draw(seed):
    return random_violated_instance(seed)


@settings(max_examples=150)
@given(st.one_of(st.sampled_from(PRECHECKED_DRAWS), st.integers(1, 120)), st.randoms())
def test_precheck_rules_out_every_world(seed, rng):
    instance = _draw(seed)
    if instance is None:
        return
    machine, formula, cex = instance
    if candidate_cause(machine, formula, cex).feasible:
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
