import itertools

import pytest

from hypercause.checker import (
    MAX_ASSIGNMENTS, _input_words, _surely_holds, find_counterexample,
)
from hypercause.errors import SizeGuardError
from hypercause.events import Counterexample
from hypercause.lasso import Lasso
from hypercause.machine import MooreMachine
from hypercause.parser import parse_hyperltl
from hypercause.semantics import eval_hyper, falsifies

from genrand import random_draw

OD = parse_hyperltl('Forall (Forall (G (Eq (AP "lo" 0) (AP "lo" 1))))')


def eager_find_counterexample(machine, formula, prefix_bound, period_bound):
    """Reference search: build every word, run and deduplicate them all, then
    try the assignments in product order."""
    k = len(formula.variables)
    words = list(_input_words(machine, prefix_bound, period_bound))
    if len(words) ** k > MAX_ASSIGNMENTS:
        raise SizeGuardError(
            f"{len(words) ** k} candidate assignments exceed the search guard"
        )
    traces = [machine.run(w) for w in words]
    seen: set = set()
    unique: list[Lasso] = []
    for t in traces:
        if t not in seen:
            seen.add(t)
            unique.append(t)
    for combo in itertools.product(unique, repeat=k):
        assignment = Counterexample(
            {f"t{i + 1}": trace for i, trace in enumerate(combo)}
        )
        if not eval_hyper(assignment, formula):
            return assignment
    return None


def outcome(search, *args):
    try:
        found = search(*args)
    except SizeGuardError as exc:
        return "guard", str(exc)
    return "found", None if found is None else found.traces


def test_find_counterexample_running_example(machine):
    found = find_counterexample(machine, OD, prefix_bound=3, period_bound=2)
    assert found is not None
    assert falsifies(found, OD)
    t_a, t_b = found.lassos()
    for t in (t_a, t_b):
        assert machine.validate_trace(t)
    assert ("lo" in t_a.at(1)) != ("lo" in t_b.at(1))


def test_find_counterexample_none_for_single_state():
    m = MooreMachine.from_guards(
        inputs=["a"], outputs=["lo"], labels={"q": ["lo"]}, initial="q",
        transitions=[("q", "true", "q")],
    )
    assert find_counterexample(m, OD, 2, 2) is None


def test_find_counterexample_exhaustive_at_tiny_bounds(machine):
    # when the search reports none, brute enumeration agrees
    formula = parse_hyperltl('Forall (Forall (G (Eq (AP "ho" 0) (AP "ho" 1))))')
    found = find_counterexample(machine, formula, 1, 1)
    words = [
        Lasso(p, [l])
        for p in ([], [frozenset()], [frozenset({"hi"})])
        for l in (frozenset(), frozenset({"hi"}))
    ]
    traces = {machine.run(w) for w in words}
    any_violation = any(
        not eval_hyper(Counterexample({"t1": a, "t2": b}), formula)
        for a in traces
        for b in traces
    )
    assert (found is not None) == any_violation
    if found is not None:
        assert falsifies(found, formula)


@pytest.mark.parametrize("bounds", [(1, 1), (2, 2)])
def test_lazy_search_equals_eager_reference(bounds):
    for seed in range(1, 61):
        machine, formula = random_draw(seed)
        lazy = outcome(find_counterexample, machine, formula, *bounds)
        eager = outcome(eager_find_counterexample, machine, formula, *bounds)
        assert lazy == eager, f"seed {seed}"


def _no_runs(machine, monkeypatch):
    def run(word):
        raise AssertionError("no word may be run")

    monkeypatch.setattr(machine, "run", run)


def test_size_guard_raises_before_any_run(monkeypatch):
    machine, formula = next(
        (m, f) for m, f in map(random_draw, range(1, 100))
        if len(m.inputs) == 3 and len(f.variables) == 2
    )
    expected = outcome(eager_find_counterexample, machine, formula, 2, 2)
    assert expected[0] == "guard"
    _no_runs(machine, monkeypatch)
    assert outcome(find_counterexample, machine, formula, 2, 2) == expected


@pytest.mark.parametrize("bounds", [(1, 1), (2, 2)])
def test_surely_holds_only_without_a_violation(bounds):
    decided = 0
    for seed in range(1, 61):
        machine, formula = random_draw(seed)
        if _surely_holds(machine, formula):
            decided += 1
            found = outcome(eager_find_counterexample, machine, formula, *bounds)
            assert found[0] == "guard" or found[1] is None, f"seed {seed}"
    assert decided >= 10


def test_decided_draw_runs_no_word(monkeypatch):
    machine, formula = random_draw(16)  # forall 0 1. o0[0] <-> o0[1]
    _no_runs(machine, monkeypatch)
    assert find_counterexample(machine, formula, 2, 2) is None


def test_size_guard_refuses_before_the_check(monkeypatch):
    # the check would decide this draw, but the guard refuses it as before
    machine, formula = random_draw(30)
    assert _surely_holds(machine, formula)
    expected = outcome(eager_find_counterexample, machine, formula, 2, 2)
    assert expected == ("guard", "27625536 candidate assignments exceed the search guard")
    _no_runs(machine, monkeypatch)
    assert outcome(find_counterexample, machine, formula, 2, 2) == expected
