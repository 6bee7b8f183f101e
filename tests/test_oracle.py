import pytest

from hypercause.errors import SizeGuardError
from hypercause.events import Counterexample, Event, satisfies_events
from hypercause.lasso import Lasso
from hypercause.machine import MooreMachine
from hypercause.oracle import brute_force_causes
from hypercause.parser import parse_hyperltl
from hypercause.causality import check_contingency_valid

from conftest import leaky_cex

OD = parse_hyperltl('Forall (Forall (G (Eq (AP "lo" 0) (AP "lo" 1))))')


def test_oracle_running_example(machine, cex):
    pairs = brute_force_causes(machine, OD, cex)
    causes = {cause for cause, _ in pairs}
    assert causes == {
        (Event("t1", 0, "hi", False),),
        (Event("t2", 0, "hi", True),),
    }
    by_cause = dict(pairs)
    assert by_cause[(Event("t1", 0, "hi", False),)] == ()
    witness = by_cause[(Event("t2", 0, "hi", True),)]
    assert witness != ()
    assert check_contingency_valid(machine, OD, cex, [Event("t2", 0, "hi", True)], witness)


def test_oracle_witnesses_are_valid(machine, cex):
    for cause, witness in brute_force_causes(machine, OD, cex):
        assert satisfies_events(cex, cause)
        assert satisfies_events(cex, witness)
        assert check_contingency_valid(machine, OD, cex, cause, witness)


def test_oracle_causes_incomparable(machine, cex):
    pairs = brute_force_causes(machine, OD, cex)
    for a, _ in pairs:
        for b, _ in pairs:
            if a != b:
                assert not set(a) <= set(b)


def test_oracle_empty_when_effect_universal():
    machine = MooreMachine.from_guards(
        inputs=["a"],
        outputs=["bad"],
        labels={"q0": [], "q1": ["bad"]},
        initial="q0",
        transitions=[("q0", "true", "q1"), ("q1", "true", "q1")],
    )
    formula = parse_hyperltl('Forall (G (Not (AP "bad" 0)))')
    trace = machine.run(Lasso([], [frozenset()]))
    cex = Counterexample({"t1": trace})
    assert brute_force_causes(machine, formula, cex) == ()


def test_oracle_size_guard():
    machine = MooreMachine.from_guards(
        inputs=[f"i{k}" for k in range(6)],
        outputs=["o"],
        labels={"q0": [], "q1": ["o"]},
        initial="q0",
        transitions=[
            ("q0", "i0", "q1"), ("q0", "!i0", "q0"),
            ("q1", "true", "q1"),
        ],
    )
    formula = parse_hyperltl('Forall (G (Not (AP "o" 0)))')
    trace = machine.run(
        Lasso([frozenset({"i0"}), frozenset(), frozenset()], [frozenset()])
    )
    assert len(trace) * 6 > 20
    cex = Counterexample({"t1": trace})
    with pytest.raises(SizeGuardError):
        brute_force_causes(machine, formula, cex)


def test_oracle_independent_of_enumeration_order(machine):
    # feeding the same assignment under different trace insertion orders
    # yields the same causes modulo the trace names
    cex = leaky_cex()
    pairs = brute_force_causes(machine, OD, cex)
    assert tuple(sorted(c for c, _ in pairs)) == tuple(c for c, _ in pairs)


def test_each_distinct_world_evaluated_once(machine, cex, monkeypatch):
    from hypercause import counterfactual, oracle

    worlds = []
    evaluate = counterfactual.eval_hyper

    def recording(world, formula):
        worlds.append(world)
        return evaluate(world, formula)

    tables = []
    table = oracle.InterventionTable
    monkeypatch.setattr(counterfactual, "eval_hyper", recording)
    monkeypatch.setattr(
        oracle, "InterventionTable", lambda *args: tables.append(table(*args)) or tables[-1]
    )
    pairs = brute_force_causes(machine, OD, cex)
    assert pairs
    assert worlds
    assert len(worlds) == len(set(worlds)) == tables[0].evaluations
