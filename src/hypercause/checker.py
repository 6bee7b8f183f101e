"""Bounded counterexample search, so violations can be produced in-house.

The search enumerates lasso-shaped input words per quantified trace within
the given prefix/period bounds, in a fixed deterministic order (smallest
shapes first), runs each on the machine, and returns the first assignment
of traces, in the product order over the distinct traces, whose traces
falsify the body.  It is lazy: the size guard counts the words
arithmetically, words are run one at a time only when the product needs a
trace not yet seen, and the search stops at the first falsifying
assignment.

Most of the cost is in instances with no violation, where every assignment
is evaluated.  So after the size guard, and before any word is run, the
search asks whether the body surely holds: every trace of the machine lies
between two words over the states reachable in exactly ``i`` steps (the
outputs all of them carry, and every input plus the outputs some carry),
whose sets `machine.orbit` steps until one repeats, and when the
three-valued evaluation (`semantics.Program.bounds`) of the body on k
copies of those words is surely true, no assignment falsifies it at any
bound.  The check is sound, not complete: otherwise the enumeration decides.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator

from . import formulas as F
from .errors import SizeGuardError
from .events import Counterexample
from .lasso import Lasso
from .machine import MooreMachine, orbit
from .semantics import eval_hyper

MAX_ASSIGNMENTS = 2_000_000


def _shapes(prefix_bound: int, period_bound: int) -> Iterator[tuple[int, int]]:
    """(prefix length, period length) of the input words, smallest total first."""
    for total in range(1, prefix_bound + period_bound + 1):
        for period_len in range(1, min(period_bound, total) + 1):
            prefix_len = total - period_len
            if prefix_len <= prefix_bound:
                yield prefix_len, period_len


def _input_words(machine: MooreMachine, prefix_bound: int, period_bound: int) -> Iterator[Lasso]:
    """All input lassos within the bounds, smallest shapes first."""
    letters = sorted(machine.input_sets, key=lambda s: (len(s), sorted(s)))
    for prefix_len, period_len in _shapes(prefix_bound, period_bound):
        for combo in itertools.product(letters, repeat=prefix_len + period_len):
            yield Lasso(combo[:prefix_len], combo[prefix_len:])


def _distinct_runs(machine: MooreMachine, words: Iterator[Lasso]) -> Iterator[Lasso]:
    """Traces of `words`, each distinct trace once, in first-appearance order."""
    seen: set[Lasso] = set()
    for word in words:
        trace = machine.run(word)
        if trace not in seen:
            seen.add(trace)
            yield trace


def _lazy_product(items: Iterator[Lasso], k: int) -> Iterator[tuple[Lasso, ...]]:
    """``itertools.product(list(items), repeat=k)``, drawing `items` on demand.

    The first ``len(items)`` tuples repeat the first item and vary only the
    last place, so they are yielded while `items` is drawn; the rest need
    every item.
    """
    drawn: list[Lasso] = []
    for item in items:
        drawn.append(item)
        yield (drawn[0],) * (k - 1) + (item,)
    yield from itertools.islice(itertools.product(drawn, repeat=k), len(drawn), None)


def _surely_holds(machine: MooreMachine, formula: F.HyperFormula) -> bool:
    """Does the body hold on every k-tuple of the machine's traces?  True is
    sure (see the module docstring); False decides nothing."""
    delta, input_sets = machine.delta, machine.input_sets
    sets, loop = orbit(
        frozenset([machine.initial]),
        lambda current: frozenset([delta[(s, a)] for s in current for a in input_sets]),
    )
    must, may = machine.label_bounds(sets, loop)
    k = len(formula.variables)
    return formula.program.bounds([must] * k, [may] * k)[0]


def find_counterexample(
    machine: MooreMachine,
    formula: F.HyperFormula,
    prefix_bound: int = 4,
    period_bound: int = 3,
) -> Counterexample | None:
    """First trace assignment falsifying the body, or None within bounds.

    The size guard refuses first; then the answer is None, without a run,
    when the body surely holds (`_surely_holds`).  Assignments follow
    ``itertools.product(traces, repeat=k)`` over the distinct traces in
    first-appearance order.
    """
    k = len(formula.variables)
    letters = 2 ** len(machine.inputs)
    words = sum(letters ** (p + q) for p, q in _shapes(prefix_bound, period_bound))
    if words ** k > MAX_ASSIGNMENTS:
        raise SizeGuardError(
            f"{words ** k} candidate assignments exceed the search guard"
        )
    if _surely_holds(machine, formula):
        return None
    traces = _distinct_runs(machine, _input_words(machine, prefix_bound, period_bound))
    names = [f"t{i + 1}" for i in range(k)]
    for combo in _lazy_product(traces, k):
        assignment = Counterexample(dict(zip(names, combo)))
        if not eval_hyper(assignment, formula):
            return assignment
    return None
