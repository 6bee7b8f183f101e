"""Brute-force ground truth for actual causes.

Independent of the candidate analysis, the alternating automata, and the
cause-search heuristics: it shares only the intervention table
(`counterfactual.InterventionTable`: counterfactual runs and the evaluator
memoized on per-trace views) with the cause search, through its footprint
interface (`bits`, `reset_bits`, `holds` and `inert`), which looks each
event's bit up in the table's one numbering of the instance's events.
`brute_force_causes` builds and checks the table; `enumerate_causes` takes
a checked one, so that the CLI's `oracle` builds one table for the
report's candidate analysis and the enumeration.  Its event universe, its
enumeration and its contingency pools are its own.  Every subset of
satisfied input events is tried in ascending (size, event-order); a set
counts as a cause when flipping some part of it under some output-event
reset satisfies the property and no smaller set already qualified.
Witness contingencies are reported as the order-least valid reset,
searched over every resettable output event on the flipped traces.

The enumeration runs on bit footprints: each satisfied input event and
each resettable output event takes its bit from the table once, a subset
is the sum of a combination of those bits, a superset of a cause found is
skipped by a footprint test, and each set of flipped traces gets its
contingency pool once.  Only causes and witnesses are turned back into
events.  Once per cause whose flip alone fails, the table names the resets
of the pool that leave the flip-only world as it is (`inert`); a reset set
made only of those gets the flip's verdict without a query, and the order
of the sets stays the same.
"""

from __future__ import annotations

import itertools

from . import formulas as F
from .counterfactual import InterventionTable
from .errors import SizeGuardError
from .events import Counterexample, Event, events_of_trace, satisfied_events, sort_events
from .machine import MooreMachine

MAX_INPUT_EVENTS = 20
MAX_OUTPUT_EVENTS = 20


def brute_force_causes(
    machine: MooreMachine,
    formula: F.HyperFormula,
    cex: Counterexample,
    max_cause_size: int | None = None,
    max_contingency_size: int | None = None,
) -> tuple[tuple[tuple[Event, ...], tuple[Event, ...]], ...]:
    """All subset-minimal causes with their least witnessing contingency."""
    # the table checks the instance before the size guards: its errors name
    # the trace, and only a violation has a cause
    table = InterventionTable(machine, formula, cex)
    table.require_violation()
    return enumerate_causes(table, machine, cex, max_cause_size, max_contingency_size)


def enumerate_causes(
    table: InterventionTable,
    machine: MooreMachine,
    cex: Counterexample,
    max_cause_size: int | None = None,
    max_contingency_size: int | None = None,
) -> tuple[tuple[tuple[Event, ...], tuple[Event, ...]], ...]:
    """`brute_force_causes` on a table built for (machine, `cex`) and
    checked by `require_violation`; the table's counters then include the
    enumeration's work."""
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
    input_bits = [table.bits([e]) for e in input_events]
    reset_bits = [table.reset_bits([e]) for e in resettable]
    input_masks: dict[str, int] = {}  # trace -> footprint of its input events
    for e, bit in zip(input_events, input_bits):
        input_masks[e.trace] = input_masks.get(e.trace, 0) | bit
    pools: dict[tuple[str, ...], list[int]] = {}

    def witness(cause_bits: int) -> int | None:
        """Footprint of the order-least contingency for a cause, or None."""
        if table.holds(cause_bits, 0):
            return 0
        touched = tuple(name for name, mask in input_masks.items() if mask & cause_bits)
        pool = pools.get(touched)
        if pool is None:
            pool = pools[touched] = [
                bit for e, bit in zip(resettable, reset_bits) if e.trace in touched
            ]
        limit = len(pool) if max_contingency_size is None else min(max_contingency_size, len(pool))
        if not limit:
            return None
        every = sum(pool)
        live = every & ~table.inert(cause_bits, every)
        for size in range(1, limit + 1):
            for combo in itertools.combinations(pool, size):
                reset = sum(combo)
                if reset & live and table.holds(cause_bits, reset):
                    return reset
        return None

    causes: list[tuple[tuple[Event, ...], tuple[Event, ...]]] = []
    found: list[int] = []  # footprints of the causes found
    limit = (
        len(input_events)
        if max_cause_size is None
        else min(max_cause_size, len(input_events))
    )
    for size in range(1, limit + 1):
        for combo in itertools.combinations(input_bits, size):
            cause_bits = sum(combo)
            if any(f & cause_bits == f for f in found):
                continue
            reset = witness(cause_bits)
            if reset is not None:
                found.append(cause_bits)
                causes.append(
                    (_decode(input_events, input_bits, cause_bits),
                     _decode(resettable, reset_bits, reset))
                )
    return tuple(causes)


def _decode(events: tuple[Event, ...], bits: list[int], footprint: int) -> tuple[Event, ...]:
    """The events of `events` whose bits are in `footprint`, in their order."""
    return tuple(e for e, bit in zip(events, bits) if bit & footprint)
