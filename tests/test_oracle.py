import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from hypercause.causality import all_minimal_causes
from hypercause.counterfactual import InterventionTable, intervene
from hypercause.errors import NothingToExplain, SizeGuardError, ValidationError
from hypercause.events import (
    Counterexample, Event, events_of_trace, satisfied_events, satisfies_events, sort_events,
)
from hypercause.lasso import Lasso
from hypercause.machine import MooreMachine
from hypercause.oracle import MAX_INPUT_EVENTS, MAX_OUTPUT_EVENTS, brute_force_causes
from hypercause.parser import parse_hyperltl
from hypercause.semantics import eval_hyper

from conftest import leaky_cex
from genrand import random_draw, random_lasso, random_violated_instance

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
    assert eval_hyper(intervene(machine, cex, [Event("t2", 0, "hi", True)], witness), OD)


def test_oracle_witnesses_are_valid(machine, cex):
    for cause, witness in brute_force_causes(machine, OD, cex):
        assert satisfies_events(cex, cause)
        assert satisfies_events(cex, witness)
        assert eval_hyper(intervene(machine, cex, cause, witness), OD)


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


HL = frozenset({"ho", "lo"})


@pytest.mark.parametrize("traces, error", [
    # two traces that are not runs of the machine, with 26 input events
    ({"t1": Lasso([frozenset({"ho"})] + [HL] * 11, [HL]),
      "t2": Lasso([frozenset({"lo"})] + [HL] * 11, [HL])}, ValidationError),
    # a run and itself, which satisfies the formula, with 24 input events
    ({"t1": Lasso([frozenset(), frozenset({"lo"})] + [HL] * 9, [HL]),
      "t2": Lasso([frozenset(), frozenset({"lo"})] + [HL] * 9, [HL])}, NothingToExplain),
])
def test_oracle_checks_the_instance_before_its_size_guards(machine, traces, error):
    # the oracle refuses an instance as the search does, before it counts
    # events against its guards
    cex = Counterexample(traces)
    assert len(satisfied_events(cex, machine.inputs)) > MAX_INPUT_EVENTS
    with pytest.raises(error) as searched:
        all_minimal_causes(machine, OD, cex)
    with pytest.raises(error) as brute:
        brute_force_causes(machine, OD, cex)
    assert str(brute.value) == str(searched.value)


def test_oracle_table_counters_on_the_running_example(machine, cex, monkeypatch):
    # the oracle's queries, in its (size, event order) enumeration, on the
    # running example at bounds 3/2; any change of that order or of what it
    # asks moves these counts.  A reset set made only of resets that leave
    # the flip-only world as it is (`InterventionTable.inert`) gets the
    # flip's own verdict, False, without a query: 90 queries, against 770
    # when every reset set is asked.  Those sets needed no run and no new
    # evaluation, so the other two counts are what they were
    tables = []
    queries = []
    init, holds = InterventionTable.__init__, InterventionTable.holds

    def recording_init(self, *args, **kwargs):
        tables.append(self)
        init(self, *args, **kwargs)

    def counting_holds(self, cause_bits, reset_bits):
        queries.append((cause_bits, reset_bits))
        return holds(self, cause_bits, reset_bits)

    monkeypatch.setattr(InterventionTable, "__init__", recording_init)
    monkeypatch.setattr(InterventionTable, "holds", counting_holds)
    pairs = brute_force_causes(machine, OD, cex, max_cause_size=3, max_contingency_size=2)
    assert len(pairs) == 2
    [table] = tables
    assert len(queries) == 90
    # distinct pairs of `lo` words, the only proposition the body reads
    assert table.evaluations == 5
    assert table.runs == 11


def _reference_causes(machine, formula, cex, max_cause_size=None, max_contingency_size=None):
    """The oracle on event sets: every query goes through `satisfies_after`
    with tuples of events, and a superset of a cause is found by a set
    test.  The instance is checked before the size guards."""
    table = InterventionTable(machine, formula, cex)
    table.require_violation()
    input_events = satisfied_events(cex, machine.inputs)
    if len(input_events) > MAX_INPUT_EVENTS:
        raise SizeGuardError(
            f"{len(input_events)} input events exceed the oracle guard ({MAX_INPUT_EVENTS})"
        )
    resettable = sort_events(
        e for name, trace in cex.traces.items()
        for e in events_of_trace(name, trace, table.automata[name].controllable)
    )
    if len(resettable) > MAX_OUTPUT_EVENTS:
        raise SizeGuardError(
            f"{len(resettable)} output events exceed the oracle guard ({MAX_OUTPUT_EVENTS})"
        )

    def witness(cause):
        if table.satisfies_after(cause, ()):
            return ()
        touched = {e.trace for e in cause}
        pool = [e for e in resettable if e.trace in touched]
        limit = len(pool) if max_contingency_size is None else min(max_contingency_size, len(pool))
        for size in range(1, limit + 1):
            for combo in itertools.combinations(pool, size):
                if table.satisfies_after(cause, combo):
                    return sort_events(combo)
        return None

    causes = []
    limit = (
        len(input_events)
        if max_cause_size is None
        else min(max_cause_size, len(input_events))
    )
    for size in range(1, limit + 1):
        for combo in itertools.combinations(input_events, size):
            if any(set(c) <= set(combo) for c, _ in causes):
                continue
            found = witness(combo)
            if found is not None:
                causes.append((sort_events(combo), found))
    return tuple(causes)


def _outcome(search, *args):
    try:
        return search(*args)
    except (NothingToExplain, SizeGuardError) as exc:
        return type(exc), str(exc)


def _assert_equals_reference(machine, formula, cex, unbounded_up_to=10):
    """Both oracles agree at four pairs of bounds; without bounds only when
    there are at most `unbounded_up_to` input and resettable events each."""
    table = InterventionTable(machine, formula, cex)
    resettable = sum(len(t) * len(table.automata[n].controllable) for n, t in cex.traces.items())
    small = max(len(satisfied_events(cex, machine.inputs)), resettable) <= unbounded_up_to
    for bounds in [(None, None), (3, 2), (2, 0), (1, 1)]:
        if bounds == (None, None) and not small:
            continue  # the unbounded enumeration is exponential
        expected = _outcome(_reference_causes, machine, formula, cex, *bounds)
        assert _outcome(brute_force_causes, machine, formula, cex, *bounds) == expected, bounds


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**6))
def test_oracle_equals_the_event_set_reference(seed):
    # random machines, formulas of one or two quantifiers, and runs; a few
    # assignments are drawn per seed, so that most of them violate
    rng = random.Random(seed)
    machine, formula = random_draw(seed)
    for _ in range(5):
        cex = Counterexample({
            f"t{k}": machine.run(random_lasso(rng, machine.inputs, max_prefix=2, max_period=2))
            for k in range(len(formula.variables))
        })
        if not InterventionTable(machine, formula, cex).holds(0, 0):
            break
    _assert_equals_reference(machine, formula, cex, unbounded_up_to=8)


@pytest.mark.parametrize("seed", [217, 224, 350, 491, 500, 658, 789])
def test_oracle_equals_the_event_set_reference_on_witnessed_draws(seed):
    # random draws rarely need a reset; these corpus draws have causes whose
    # witnesses are not empty
    _assert_equals_reference(*random_violated_instance(seed))


def test_oracle_equals_the_event_set_reference_on_the_running_example(machine, cex):
    _assert_equals_reference(machine, OD, cex)
