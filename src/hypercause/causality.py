"""Actual-cause search, contingency search, and first-principles checks.

A set of input events C satisfied by the counterexample is an actual cause
when flipping it (possibly under a contingency W of output events reset to
their counterexample values) satisfies the property, and no proper subset
already does.

There is one search.  It enumerates minimal causes (`_minimal_causes`)
within the candidate set, which holds every minimal cause (see `satcore`):
subsets in ascending size, ties broken by the global event order, up to the
cause bound, skipping supersets of causes already found, each decided by one
contingency search (`least_contingency`).  That search returns the
order-least contingency: the empty one if the flip alone repairs the
property, else the first set of resettable output events on the flipped
traces, again by size and then event order.  `actual_cause` stops at the
first cause, `all_minimal_causes` takes every cause; both report
`bounded-out` when the cause bound cut the search before it could decide.
All tests of one search share a `counterfactual.InterventionTable`, the
instance's search context: the candidate analysis reads its automata, and
it holds the contingency bound.  The contingency search works on the
table's bit footprints: a cause's bits are computed once, the resettable
events' bits once per set of flipped traces, and each contingency is the
sum of a combination of those bits, so only a witness is turned back into
events.  A report's `stats` give the subsets decided, the worlds
evaluated, the counterfactual runs made, and what decided the status
(`decided_by`).

`no-actual-cause` is decided in one of two ways.  When the candidate
analysis's pre-check finds that no flip and no reset can satisfy the body
(`CandidateSet.feasible` is False, see `satcore`), the search reports it at
once, whatever the bounds, with `decided_by` "precheck" and no subset
tried.  Otherwise it takes a search that covered every subset of the
candidate set.  The pre-check is sound but not complete: a world it cannot
rule out sends the instance to the search.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from . import formulas as F
from .counterfactual import InterventionTable
from .events import Counterexample, Event, satisfies_events, sort_events
from .machine import MooreMachine
from .satcore import CandidateSet, candidate_set


@dataclass(frozen=True)
class CauseEntry:
    cause: tuple[Event, ...]
    contingency: tuple[Event, ...]
    verified: bool


@dataclass(frozen=True)
class CauseReport:
    candidate: CandidateSet
    causes: tuple[CauseEntry, ...]
    status: str  # "found" | "no-actual-cause" | "bounded-out"
    stats: dict = field(default_factory=dict, compare=False)


def least_contingency(
    table: InterventionTable, cause: tuple[Event, ...]
) -> tuple[Event, ...] | None:
    """Order-least valid contingency for a cause that passes the check.

    Canonical across implementations: ascending by size, then by event
    order, over all resettable output events on the flipped traces, up to
    `table.max_contingency_size` events.  The sets are tried as bit
    footprints (`InterventionTable.holds`); only the witness is turned back
    into events.
    """
    cause_bits = table.bits(cause)
    if table.holds(cause_bits, 0):
        return ()
    universe, bits = table.resettable(tuple(sorted({e.trace for e in cause})))
    limit = len(bits) if table.max_contingency_size is None else table.max_contingency_size
    for size in range(1, limit + 1):
        for combo in itertools.combinations(bits, size):
            reset = sum(combo)
            if table.holds(cause_bits, reset):
                return tuple(e for e, bit in zip(universe, bits) if bit & reset)
    return None


def _minimal_causes(
    table: InterventionTable, events: Sequence[Event], limit: int
) -> Iterator[tuple[tuple[Event, ...], tuple[Event, ...] | None]]:
    """(subset, witness) for each subset of `events` of at most `limit`
    events that the search decides, in (size, event order).

    Subsets that contain a cause already found are skipped; every other
    subset is decided by `least_contingency`, whose witness is None when
    the subset is no cause.
    """
    found: list[tuple[Event, ...]] = []
    for size in range(1, limit + 1):
        for combo in itertools.combinations(events, size):
            if any(set(c) <= set(combo) for c in found):
                continue
            contingency = least_contingency(table, combo)
            if contingency is not None:
                found.append(combo)
            yield combo, contingency


def actual_cause(
    machine: MooreMachine,
    formula: F.HyperFormula,
    cex: Counterexample,
    candidate: CandidateSet | None = None,
    bound: int | None = None,
    max_contingency_size: int | None = None,
) -> CauseReport:
    """The first subset-minimal actual cause of `_minimal_causes`: the
    `all_minimal_causes` search, stopped at its first cause."""
    return _search(machine, formula, cex, candidate, bound, max_contingency_size, True)


def all_minimal_causes(
    machine: MooreMachine,
    formula: F.HyperFormula,
    cex: Counterexample,
    candidate: CandidateSet | None = None,
    bound: int | None = None,
    max_contingency_size: int | None = None,
) -> CauseReport:
    """Every subset-minimal actual cause within the candidate set, up to
    `bound` events.

    Without a `candidate` the search computes one from its own table's
    automata (`satcore.candidate_set`, as `candidate_cause` does).
    The status is `bounded-out` when a cause above the bound may exist.
    """
    return _search(machine, formula, cex, candidate, bound, max_contingency_size, False)


def _search(
    machine: MooreMachine,
    formula: F.HyperFormula,
    cex: Counterexample,
    candidate: CandidateSet | None,
    bound: int | None,
    max_contingency_size: int | None,
    first: bool,
) -> CauseReport:
    """The one cause search; `first` stops it at its first cause."""
    started = time.monotonic()
    # the table validates the traces first, so that its errors name the trace
    table = InterventionTable(machine, formula, cex, max_contingency_size)
    if candidate is None:
        candidate = candidate_set(formula, table.automata)
    events = candidate.events
    limit = len(events) if bound is None else min(bound, len(events))
    found = []
    subsets_checked = 0
    if not candidate.feasible:
        status = "no-actual-cause"
    else:
        for combo, contingency in _minimal_causes(table, events, limit):
            subsets_checked += 1
            if contingency is not None:
                found.append((sort_events(combo), contingency))
                if first:
                    break
        if first and found:
            status = "found"
        elif not _covers_all_larger_subsets(events, [c for c, _ in found], limit):
            status = "bounded-out"
        else:
            status = "found" if found else "no-actual-cause"
    entries = tuple(
        CauseEntry(c, w, verify_actual_cause(machine, formula, cex, c, table=table))
        for c, w in found
    )
    stats = {
        "subsets_checked": subsets_checked,
        "time_ms": round((time.monotonic() - started) * 1000, 3),
        "evaluations": table.evaluations,
        "runs": table.runs,
        "decided_by": "search" if candidate.feasible else "precheck",
    }
    return CauseReport(candidate, entries, status, stats)


def _covers_all_larger_subsets(
    universe: Sequence[Event], causes: Sequence[tuple[Event, ...]], bound: int
) -> bool:
    """True when no subset above the bound could be a new minimal cause."""
    if bound >= len(universe):
        return True
    if not causes:
        return False
    # a larger subset is ruled out iff it contains a found cause, so a
    # cause-free subset above the bound is the complement of a hitting set
    # of the causes with fewer than len(universe) - bound events
    pool = sorted({e for c in causes for e in c}, key=Event.sort_key)
    for k in range(min(len(pool), len(universe) - bound - 1) + 1):
        for hitting in itertools.combinations(pool, k):
            if all(any(h in c for h in hitting) for c in causes):
                return False
    return True


def verify_actual_cause(
    machine: MooreMachine,
    formula: F.HyperFormula,
    cex: Counterexample,
    cause: Iterable[Event],
    table: InterventionTable | None = None,
) -> bool:
    """First-principles check of the three cause conditions.

    Satisfaction is checked directly.  The counterfactual condition asks
    that flipping some non-empty part of the cause, under some contingency,
    satisfy the property, and minimality that no proper subset meet that
    condition.  Together they hold exactly when the cause itself passes the
    contingency search and none of its non-empty proper subsets does, so
    each of those sets is decided once.  A given `table` brings its own
    contingency bound.
    """
    cause = sort_events(cause)
    if not cause or not satisfies_events(cex, cause):
        return False
    table = table or InterventionTable(machine, formula, cex)
    if least_contingency(table, cause) is None:
        return False
    return all(
        least_contingency(table, proper) is None
        for size in range(1, len(cause))
        for proper in itertools.combinations(cause, size)
    )


def check_contingency_valid(
    machine: MooreMachine,
    formula: F.HyperFormula,
    cex: Counterexample,
    cause: Iterable[Event],
    contingency: Iterable[Event],
) -> bool:
    """Does this specific (cause, contingency) pair repair the property?"""
    cause = sort_events(cause)
    contingency = sort_events(contingency)
    if not satisfies_events(cex, cause) or not satisfies_events(cex, contingency):
        return False
    return InterventionTable(machine, formula, cex).satisfies_after(cause, contingency)
