"""Actual-cause search, contingency search, and first-principles checks.

A set of input events C satisfied by the counterexample is an actual cause
when flipping it (possibly under a contingency W of output events reset to
their counterexample values) satisfies the property, and no proper subset
already does.

There is one search (`_minimal_causes`) within the candidate set, which
holds every minimal cause (see `satcore`): subsets in ascending size, ties
broken by the global event order, up to the cause bound, skipping
supersets of causes found, each decided by one contingency search
(`least_contingency`).  That search returns the order-least contingency:
the empty one if the flip alone repairs the property, else the first set
of resettable output events on the flipped traces, again by size and then
event order.  It asks only about sets that hold a reset the flip-only
runs do not already show at its source value (`InterventionTable.inert`):
any other set makes the flip-only world.  `actual_cause` stops at the
first cause, `all_minimal_causes` takes every cause.  All tests of one
search share a `counterfactual.InterventionTable`, the instance's search
context, and work on its one numbering of the events (an int footprint
with one bit per event, the bits in event order): the search, the
contingency search and `verify_actual_cause` walk combinations of bits,
each set is the sum of its bits, and only causes and witnesses are turned
back into events (`InterventionTable.events`).

One three-valued check, `InterventionTable.repairable`, bounds every world
a set of interventions can make: in the paper a contingency is a choice of
the counterfactual automaton's auxiliary inputs, so whether any contingency
repairs the property is an existential query over them.  It leaves every
reset on a touched trace free and each input fixed or free.  It is sound,
so it changes no answer, only the work, in three places:

* the pre-check, the search's first question, with every input free: the
  step sets bound every world any flips and resets make of a trace, so
  when the body cannot hold between their must and may words, nothing is
  a cause: `no-actual-cause` at once, whatever the bounds, with
  `decided_by` "precheck";
* per subset whose flip alone does not repair the property, with the flip
  fixed: when the body cannot hold, no reset is tried;
* the set check, which closes `all_minimal_causes`: a cause not yet found
  lies in a maximal cause-free set, the complement of a minimal hitting
  set of the causes found.  After each cause, and past the cause bound,
  the search checks each such set no smaller than the subsets left, with
  its inputs free.  When the check rules out all of them, no cause is
  left, even past the bound, and `decided_by` is "closure".  Otherwise it
  checks the live set's part on each trace.  Subsets of a set or part it
  rules out are skipped.

The status is `bounded-out` only while a cause may lie above the bound.  A
report's `stats` give the subsets decided, the worlds evaluated
(`evaluations`, which counts distinct views: each trace restricted to the
propositions the body reads on it), the counterfactual runs made (`runs`;
a trace whose outputs the body never reads needs none), the subsets the
per-subset check ruled out (`ruled_out`), the sets the check decided with
inputs free (`set_checks`, the pre-check included), and what decided the
status (`decided_by`: "precheck", "search" or "closure").
"""

from __future__ import annotations

import itertools
import time
from collections.abc import Iterable, Iterator, Sequence

from . import formulas as F
from .counterfactual import InterventionTable
from .events import Counterexample, Event, satisfies_events
from .machine import MooreMachine
from .satcore import CandidateSet, candidate_set
from .values import Value


class CauseEntry(Value):
    __slots__ = ("cause", "contingency", "verified")

    def __init__(self, cause: tuple[Event, ...], contingency: tuple[Event, ...], verified: bool):
        object.__setattr__(self, "cause", cause)
        object.__setattr__(self, "contingency", contingency)
        object.__setattr__(self, "verified", verified)


class CauseReport(Value):
    """A search's answer; `stats` is in the repr but not compared."""

    __slots__ = ("candidate", "causes", "status", "stats")

    def __init__(
        self,
        candidate: CandidateSet,
        causes: tuple[CauseEntry, ...],
        status: str,  # "found" | "no-actual-cause" | "bounded-out"
        stats: dict | None = None,
    ):
        object.__setattr__(self, "candidate", candidate)
        object.__setattr__(self, "causes", causes)
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "stats", {} if stats is None else stats)

    def _key(self) -> tuple:
        return self.candidate, self.causes, self.status


def least_contingency(table: InterventionTable, cause_bits: int) -> int | None:
    """Footprint of the order-least valid contingency for a cause
    footprint, 0 when the flip alone repairs the property, or None.

    Canonical across implementations: ascending by size, then by event
    order, over all resettable output events on the flipped traces
    (`InterventionTable.resets`), up to `table.max_contingency_size` events.
    The flip alone is tried first; if it fails, the per-subset check
    (`InterventionTable.repairable`) may show that no reset of any size
    repairs the property, and then no set is tried.  Otherwise a set made
    only of resets that leave the flip-only world as it is
    (`InterventionTable.inert`) gets the flip's verdict, False, without a
    query; the order of the sets, and so the witness, stays the same.
    """
    if table.holds(cause_bits, 0):
        return 0
    if not table.repairable(cause_bits):
        return None
    pool = table.resets(cause_bits)
    bits = _singles(pool)
    limit = len(bits) if table.max_contingency_size is None else table.max_contingency_size
    if not limit:
        return None
    live = pool & ~table.inert(cause_bits, pool)
    for size in range(1, limit + 1):
        for combo in itertools.combinations(bits, size):
            reset = sum(combo)
            if reset & live and table.holds(cause_bits, reset):
                return reset
    return None


def _singles(footprint: int) -> list[int]:
    """The bits of `footprint`, lowest first: its events in event order."""
    return [1 << i for i in range(footprint.bit_length()) if footprint >> i & 1]


def _minimal_causes(
    table: InterventionTable, candidates: int, limit: int, first: bool
) -> tuple[list[tuple[tuple[Event, ...], tuple[Event, ...]]], int, bool | None]:
    """The causes of at most `limit` of the events of footprint
    `candidates` with their witnesses, in (size, event order); the number of
    subsets decided; and whether the set check closed the search (True),
    the enumeration decided it (None), or a cause may lie above the bound
    (False).  `first` stops at the first cause; otherwise `_closed` is asked
    after each cause and past the bound.
    """
    found = []
    causes: list[int] = []  # footprints of the causes found
    dead: list[int] = []  # footprints of sets the set check ruled out
    universe = 0 if first else candidates  # the events `_closed` may free
    singles = _singles(candidates)
    checked = 0
    for size in range(1, limit + 1):
        for combo in itertools.combinations(singles, size):
            bits = sum(combo)
            if any(f & bits == f for f in causes) or dead and any(bits | d == d for d in dead):
                continue
            checked += 1
            witness = least_contingency(table, bits)
            if witness is None:
                continue
            found.append((table.events(bits), table.events(witness)))
            if first:
                return found, checked, None
            causes.append(bits)
            closed = _closed(table, universe, causes, size, dead)
            if closed is not False:
                return found, checked, closed
    if first:  # with no cause found, every subset is cause-free
        return found, checked, None if limit >= len(singles) else False
    return found, checked, _closed(table, universe, causes, limit + 1, dead)


def _closed(
    table: InterventionTable, universe: int, causes: Sequence[int], size: int, dead: list[int]
) -> bool | None:
    """Can no cause of at least `size` events be found beyond `causes`?

    A new cause contains no cause found, so it lies inside a maximal
    cause-free set (`_cause_free_sets`).  None when there is no such set of
    at least `size` events; True when the set check rules out each one
    (`InterventionTable.repairable` with every event of the set free);
    False at the first it cannot rule out, once the check has tried that
    set's part on each trace.  The sets and parts ruled out join `dead`.
    """
    closed = None
    for free in _cause_free_sets(universe, causes, size):
        if not any(free | d == d for d in dead):
            if table.repairable(0, free):
                for part in table.split(free):  # a set on one trace is its own part
                    if not any(part | d == d for d in dead) and not table.repairable(0, part):
                        dead.append(part)
                return False
            dead.append(free)
        closed = True
    return closed


def _cause_free_sets(universe: int, causes: Sequence[int], size: int) -> Iterator[int]:
    """The maximal subsets of `universe` (a footprint) with at least `size`
    events that contain none of `causes`: the complements of the minimal
    hitting sets of the causes.  A hitting set grows by one event of the
    first cause it misses, never past the events `size` leaves it.
    """
    room = universe.bit_count() - size  # the most events a hitting set may take
    seen = set()
    stack = [0] if room >= 0 else []
    while stack:
        hit = stack.pop()
        missed = next((c for c in causes if not c & hit), None)
        if missed is not None:
            if hit.bit_count() < room:
                stack.extend(hit | 1 << i for i in range(missed.bit_length()) if missed >> i & 1)
        elif hit not in seen:
            seen.add(hit)
            # minimal: each of its events is the only one some cause holds
            if all(any(c & hit == 1 << i for c in causes)
                   for i in range(hit.bit_length()) if hit >> i & 1):
                yield universe & ~hit


def actual_cause(
    machine: MooreMachine,
    formula: F.HyperFormula,
    cex: Counterexample,
    bound: int | None = None,
    max_contingency_size: int | None = None,
) -> CauseReport:
    """The first subset-minimal actual cause of `_minimal_causes`: the
    `all_minimal_causes` search, stopped at its first cause."""
    return _search(machine, formula, cex, bound, max_contingency_size, True)


def all_minimal_causes(
    machine: MooreMachine,
    formula: F.HyperFormula,
    cex: Counterexample,
    bound: int | None = None,
    max_contingency_size: int | None = None,
) -> CauseReport:
    """Every subset-minimal actual cause within the candidate set, up to
    `bound` events.

    The search computes the candidate set from its own table's automata
    (`satcore.candidate_set`, as `candidate_cause` does).  The status is
    `bounded-out` when a cause above the bound may exist.
    """
    return _search(machine, formula, cex, bound, max_contingency_size, False)


def _search(
    machine: MooreMachine,
    formula: F.HyperFormula,
    cex: Counterexample,
    bound: int | None,
    max_contingency_size: int | None,
    first: bool,
) -> CauseReport:
    """The one cause search; `first` stops it at its first cause."""
    started = time.monotonic()
    # the table checks the instance first: its errors name the trace, and
    # only a violation has a cause
    table = InterventionTable(machine, formula, cex, max_contingency_size)
    table.require_violation()
    # after the candidate analysis, so that the pre-check reuses its walk
    # with every input free
    candidate = candidate_set(table)
    size = len(candidate.events)
    limit = size if bound is None else min(bound, size)
    if table.repairable(0, None):
        found, subsets_checked, closed = _minimal_causes(
            table, table.bits(candidate.events), limit, first
        )
        decided_by = "closure" if closed else "search"
    else:
        found, subsets_checked, closed, decided_by = [], 0, None, "precheck"
    status = "bounded-out" if closed is False else "found" if found else "no-actual-cause"
    entries = tuple(
        CauseEntry(c, w, verify_actual_cause(machine, formula, cex, c, table=table))
        for c, w in found
    )
    stats = {
        "subsets_checked": subsets_checked,
        "time_ms": round((time.monotonic() - started) * 1000, 3),
        "evaluations": table.evaluations,
        "runs": table.runs,
        "ruled_out": table.ruled_out,
        "set_checks": table.set_checks,
        "decided_by": decided_by,
    }
    return CauseReport(candidate, entries, status, stats)


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
    each of those sets is decided once, as a combination of the cause's
    bits.  A given `table` brings its own contingency bound.  On an
    assignment that satisfies the formula no set is a cause.
    """
    cause = tuple(cause)
    if not cause or not satisfies_events(cex, cause):
        return False
    table = table or InterventionTable(machine, formula, cex)
    cause_bits = table.bits(cause)
    if table.holds(0, 0) or least_contingency(table, cause_bits) is None:
        return False
    singles = _singles(cause_bits)
    return all(
        least_contingency(table, sum(proper)) is None
        for size in range(1, len(singles))
        for proper in itertools.combinations(singles, size)
    )
