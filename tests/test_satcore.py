import warnings

from hypercause import boolexpr
from hypercause.events import Event, satisfies_events
from hypercause.parser import parse_hyperltl
from hypercause.semantics import satisfied_input_events
from hypercause.satcore import candidate_cause

from conftest import leaky_cex

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
    assert set(cand.events) == set(satisfied_input_events(machine, cex))
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
