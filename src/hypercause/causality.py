"""Actual-cause search, contingency computation, and first-principles checks.

A set of input events C satisfied by the counterexample is an actual cause
when flipping it (possibly under a contingency W of output events reset to
their counterexample values) satisfies the property, and no proper subset
already does.  The search tests one counterfactual per candidate set (the
full flip); subset flips are covered by the outer minimality loop.

Every search decides a subset with the order-least contingency test
(`least_contingency`) and reports the contingency it finds; all tests of one
search share a `counterfactual.InterventionTable`.  Only `compute_contingency`
orders its sets by the annotate-then-widen strategy: output events that the
violation's accepting run read and that differ between counterexample and
counterfactual come first, then all differing output events, then every
resettable output event up to the same bound (a reset can only matter after
an earlier reset changed the path), so `check_cf` passes the same subsets.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from . import formulas as F
from .alternating import accepts_lasso, ltl_to_alternating, union_annotations
from .counterfactual import InterventionTable
from .errors import ValidationError
from .events import Counterexample, Event, satisfies_events, sort_events
from .machine import MooreMachine
from .satcore import CandidateSet
from .semantics import satisfied_input_events, zip_hyper


@dataclass(frozen=True)
class CheckOutcome:
    kind: str  # "counterfactual" | "contingency" | "fail"
    contingency: tuple[Event, ...] = ()


@dataclass(frozen=True)
class CauseEntry:
    cause: tuple[Event, ...]
    contingency: tuple[Event, ...]
    verified: bool


@dataclass(frozen=True)
class CauseReport:
    candidate: CandidateSet | None
    causes: tuple[CauseEntry, ...]
    status: str  # "found" | "no-actual-cause" | "bounded-out"
    stats: dict = field(default_factory=dict, compare=False)


class CauseSearch:
    """Shared state for one (machine, formula, counterexample) instance."""

    def __init__(
        self,
        machine: MooreMachine,
        formula: F.HyperFormula,
        cex: Counterexample,
        max_contingency_size: int | None = None,
    ):
        self.machine = machine
        self.formula = formula
        self.cex = cex
        self.max_contingency_size = max_contingency_size
        self.table = InterventionTable(machine, formula, cex)
        self.automata = self.table.automata
        self.intervened = self.table.intervened
        self.satisfies_after = self.table.satisfies_after
        self._violation_automaton = None
        self._resettable: dict[tuple[str, ...], tuple[Event, ...]] = {}

    def violation_automaton(self):
        if self._violation_automaton is None:
            violation = F.negate_to_nnf(self.formula.body)
            self._violation_automaton = ltl_to_alternating(violation)
        return self._violation_automaton

    def resettable_events(self, traces: Iterable[str]) -> tuple[Event, ...]:
        """Satisfied output events the counterfactual automata can enact."""
        traces = tuple(traces)
        if traces not in self._resettable:
            out = []
            for name in traces:
                trace = self.cex[name]
                for pos in range(len(trace)):
                    for prop in self.automata[name].controllable:
                        out.append(Event(name, pos, prop, prop in trace.at(pos)))
            self._resettable[traces] = sort_events(out)
        return self._resettable[traces]

    def differing_output_events(self, counterfactual: Counterexample) -> tuple[Event, ...]:
        """Output events of the counterexample whose value changed, as
        events over the original finite representations."""
        outputs = frozenset(self.machine.outputs)
        diff: list[Event] = []
        for name, orig in self.cex.traces.items():
            new = counterfactual[name]
            window = max(orig.loop_start, new.loop_start)
            period = 1
            for v in (len(orig.period), len(new.period)):
                period = period * v // math.gcd(period, v)
            for pos in range(window + period):
                a = orig.at(pos) & outputs
                b = new.at(pos) & outputs
                if a == b:
                    continue
                canon = (
                    pos
                    if pos < orig.loop_start
                    else orig.loop_start + (pos - orig.loop_start) % len(orig.period)
                )
                for prop in a ^ b:
                    diff.append(Event(name, canon, prop, prop in orig.at(canon)))
        return sort_events(diff)

    def annotation_events(
        self, counterfactual: Counterexample, union: bool = False
    ) -> tuple[Event, ...]:
        """Events read by the canonical accepting run of the violation on
        the zipped counterfactual, mapped to original-trace positions.

        With `union` the annotations cover every accepting run, trading
        reproducibility for recall."""
        body, zipped = zip_hyper(self.formula, counterfactual)
        if union:
            annotations = union_annotations(self.violation_automaton(), zipped.lasso)
        else:
            accepted, tree = accepts_lasso(self.violation_automaton(), zipped.lasso)
            if not accepted:
                return ()
            annotations = tree.annotations
        mapped = []
        binding = dict(zipped.binding)
        for key, _positive, pos in annotations:
            if "@" not in key:
                continue
            prop, var = key.rsplit("@", 1)
            name = binding[var]
            orig = self.cex[name]
            canon = (
                pos
                if pos < orig.loop_start
                else orig.loop_start + (pos - orig.loop_start) % len(orig.period)
            )
            mapped.append(Event(name, canon, prop, prop in orig.at(canon)))
        return sort_events(mapped)


def _subsets(events: Sequence[Event], max_size: int | None):
    limit = len(events) if max_size is None else min(max_size, len(events))
    for size in range(limit + 1):
        yield from itertools.combinations(events, size)


def compute_contingency(
    machine: MooreMachine,
    formula: F.HyperFormula,
    cex: Counterexample,
    cause: Iterable[Event],
    max_size: int | None = None,
    search: CauseSearch | None = None,
    union_annotations: bool = False,
) -> tuple[Event, ...]:
    """First output-event set that repairs the property alongside the flip.

    Empty result means no contingency was found (or none was needed; the
    caller is expected to have ruled that out).  `union_annotations` widens
    the priority ring to literals of every accepting run.
    """
    search = search or CauseSearch(machine, formula, cex, max_size)
    cause = sort_events(cause)
    if max_size is None:
        max_size = search.max_contingency_size
    flipped = search.intervened(cause, ())
    touched = sorted({e.trace for e in cause})
    annotated = set(search.annotation_events(flipped, union=union_annotations))
    differing = search.differing_output_events(flipped)
    controllable = set(search.resettable_events(touched))
    differing = tuple(e for e in differing if e in controllable)
    first = [e for e in differing if (e.trace, e.position, e.prop) in
             {(a.trace, a.position, a.prop) for a in annotated}]
    tried: set[frozenset[Event]] = set()
    rings = (
        tuple(first),
        differing,
        tuple(e for e in search.resettable_events(touched)),
    )
    for ring in rings:
        for combo in _subsets(ring, max_size):
            key = frozenset(combo)
            if key in tried:
                continue
            tried.add(key)
            if search.satisfies_after(cause, combo):
                return sort_events(combo)
    return ()


def check_cf(
    machine: MooreMachine,
    formula: F.HyperFormula,
    cex: Counterexample,
    cause: Iterable[Event],
    max_contingency_size: int | None = None,
    search: CauseSearch | None = None,
) -> CheckOutcome:
    """Counterfactual condition: does flipping `cause` (under some
    contingency) satisfy the property?  Only the full flip is tested."""
    search = search or CauseSearch(machine, formula, cex, max_contingency_size)
    cause = sort_events(cause)
    if not satisfies_events(cex, cause):
        raise ValidationError("cause events are not satisfied by the counterexample")
    if not cause:
        return CheckOutcome("fail")
    if search.satisfies_after(cause, ()):
        return CheckOutcome("counterfactual")
    contingency = compute_contingency(
        machine, formula, cex, cause, max_contingency_size, search
    )
    if contingency:
        return CheckOutcome("contingency", contingency)
    return CheckOutcome("fail")


def least_contingency(
    search: CauseSearch, cause: tuple[Event, ...], max_size: int | None
) -> tuple[Event, ...] | None:
    """Order-least valid contingency for a cause that passes the check.

    Canonical across implementations: ascending by size, then by event
    order, over all resettable output events on the flipped traces.
    """
    if search.satisfies_after(cause, ()):
        return ()
    touched = sorted({e.trace for e in cause})
    universe = search.resettable_events(touched)
    for combo in _subsets(universe, max_size):
        if combo and search.satisfies_after(cause, combo):
            return sort_events(combo)
    return None


def actual_cause(
    machine: MooreMachine,
    formula: F.HyperFormula,
    cex: Counterexample,
    candidate: CandidateSet,
    max_contingency_size: int | None = None,
) -> CauseReport:
    """First subset-minimal actual cause within the candidate set.

    Sizes are tried in ascending order, ties broken by the global event
    order, up to the whole candidate set.  Each subset is decided by
    `least_contingency`, whose witness is the one reported.
    """
    started = time.monotonic()
    search = CauseSearch(machine, formula, cex, max_contingency_size)
    events = candidate.events
    checked = 0
    found: CauseEntry | None = None
    for size in range(1, len(events) + 1):
        for combo in itertools.combinations(events, size):
            checked += 1
            contingency = least_contingency(search, combo, max_contingency_size)
            if contingency is not None:
                found = _entry(search, sort_events(combo), contingency, max_contingency_size)
                break
        if found:
            break
    stats = {
        "subsets_checked": checked,
        "time_ms": round((time.monotonic() - started) * 1000, 3),
        "evaluations": search.table.evaluations,
    }
    if found is None:
        return CauseReport(candidate, (), "no-actual-cause", stats)
    return CauseReport(candidate, (found,), "found", stats)


def _entry(
    search: CauseSearch, cause: tuple[Event, ...], contingency: tuple[Event, ...], max_size
) -> CauseEntry:
    verified = verify_actual_cause(
        search.machine, search.formula, search.cex, cause, max_size, search
    )
    return CauseEntry(cause, contingency, verified)


def all_minimal_causes(
    machine: MooreMachine,
    formula: F.HyperFormula,
    cex: Counterexample,
    candidate: CandidateSet | None = None,
    bound: int | None = None,
    max_contingency_size: int | None = None,
) -> CauseReport:
    """Every subset-minimal actual cause up to `bound` events.

    The search runs over all input events satisfied by the counterexample
    (the candidate set is reported alongside and orders nothing here: a
    cause can reach outside the transition analysis when an earlier flip
    reroutes the run).  Each subset is decided by `least_contingency`, whose
    witness is the one reported.
    """
    started = time.monotonic()
    search = CauseSearch(machine, formula, cex, max_contingency_size)
    universe = satisfied_input_events(machine, cex)
    limit = len(universe) if bound is None else min(bound, len(universe))
    found: list[tuple[tuple[Event, ...], tuple[Event, ...]]] = []
    checked = 0
    for size in range(1, limit + 1):
        for combo in itertools.combinations(universe, size):
            if any(set(c) <= set(combo) for c, _ in found):
                continue
            checked += 1
            contingency = least_contingency(search, combo, max_contingency_size)
            if contingency is not None:
                found.append((sort_events(combo), contingency))
    complete = _covers_all_larger_subsets(universe, [c for c, _ in found], limit)
    entries = tuple(_entry(search, c, w, max_contingency_size) for c, w in found)
    stats = {
        "subsets_checked": checked,
        "time_ms": round((time.monotonic() - started) * 1000, 3),
        "evaluations": search.table.evaluations,
    }
    if not complete:
        status = "bounded-out"
    elif found:
        status = "found"
    else:
        status = "no-actual-cause"
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
    max_contingency_size: int | None = None,
    search: CauseSearch | None = None,
) -> bool:
    """First-principles check of the three cause conditions.

    Satisfaction is checked directly; the counterfactual condition tries
    every non-empty subset of the cause against every contingency subset;
    minimality requires every proper subset to fail the counterfactual
    condition.
    """
    cause = sort_events(cause)
    if not cause:
        return False
    if not satisfies_events(cex, cause):
        return False
    search = search or CauseSearch(machine, formula, cex, max_contingency_size)
    if max_contingency_size is None:
        max_contingency_size = search.max_contingency_size

    def cf(events: tuple[Event, ...]) -> bool:
        return any(
            least_contingency(search, sub, max_contingency_size) is not None
            for size in range(1, len(events) + 1)
            for sub in itertools.combinations(events, size)
        )

    if not cf(cause):
        return False
    for size in range(1, len(cause)):
        for proper in itertools.combinations(cause, size):
            if cf(proper):
                return False
    return True


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
    search = CauseSearch(machine, formula, cex)
    return search.satisfies_after(cause, contingency)
