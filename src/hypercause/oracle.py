"""Brute-force ground truth for actual causes.

Independent of the candidate analysis, the alternating automata, and the
cause-search heuristics: it shares only the intervention table
(`counterfactual.InterventionTable`: counterfactual runs and the memoized
evaluator) with the cause search.  Every subset of satisfied input events
is tried in ascending (size, event-order); a set counts as a cause when
flipping some part of it under some output-event reset satisfies the
property and no smaller set already qualified.  Witness contingencies are
reported as the order-least valid reset, searched over every resettable
output event.
"""

from __future__ import annotations

import itertools

from . import formulas as F
from .counterfactual import InterventionTable
from .errors import SizeGuardError
from .events import Counterexample, Event, sort_events
from .machine import MooreMachine
from .semantics import satisfied_input_events

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
    input_events = satisfied_input_events(machine, cex)
    if len(input_events) > MAX_INPUT_EVENTS:
        raise SizeGuardError(
            f"{len(input_events)} input events exceed the oracle guard ({MAX_INPUT_EVENTS})"
        )
    table = InterventionTable(machine, formula, cex)

    resettable: list[Event] = []
    for name, trace in cex.traces.items():
        for pos in range(len(trace)):
            for prop in table.automata[name].controllable:
                resettable.append(Event(name, pos, prop, prop in trace.at(pos)))
    resettable = list(sort_events(resettable))
    if len(resettable) > MAX_OUTPUT_EVENTS:
        raise SizeGuardError(
            f"{len(resettable)} output events exceed the oracle guard ({MAX_OUTPUT_EVENTS})"
        )

    def witness(cause) -> tuple[Event, ...] | None:
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

    causes: list[tuple[tuple[Event, ...], tuple[Event, ...]]] = []
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
