"""Brute-force ground truth for actual causes.

Independent of the candidate analysis, the alternating automata, and the
cause-search heuristics: only the intervention semantics and the direct
evaluator are shared.  Every subset of satisfied input events is tried in
ascending (size, event-order); a set counts as a cause when flipping some
part of it under some output-event reset satisfies the property and no
smaller set already qualified.  Witness contingencies are reported as the
order-least valid reset, searched over every resettable output event.
"""

from __future__ import annotations

import itertools
import warnings

from . import formulas as F
from .counterfactual import CounterfactualAutomaton, DegradedContingencyWarning, intervention_word
from .errors import SizeGuardError
from .events import Counterexample, Event, sort_events
from .machine import MooreMachine
from .semantics import eval_hyper, satisfied_input_events

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
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegradedContingencyWarning)
        automata = {
            name: CounterfactualAutomaton(machine, trace)
            for name, trace in cex.traces.items()
        }

    resettable: list[Event] = []
    for name, trace in cex.traces.items():
        for pos in range(len(trace)):
            for prop in automata[name].controllable:
                resettable.append(Event(name, pos, prop, prop in trace.at(pos)))
    resettable = list(sort_events(resettable))
    if len(resettable) > MAX_OUTPUT_EVENTS:
        raise SizeGuardError(
            f"{len(resettable)} output events exceed the oracle guard ({MAX_OUTPUT_EVENTS})"
        )

    trace_memo: dict[tuple, object] = {}
    eval_memo: dict[tuple, bool] = {}

    def trace_after(name, cause, resets):
        key = (
            name,
            frozenset(e for e in cause if e.trace == name),
            frozenset(e for e in resets if e.trace == name),
        )
        if key not in trace_memo:
            if not key[1] and not key[2]:
                trace_memo[key] = cex[name]
            else:
                aut = automata[name]
                trace_memo[key] = aut.run(intervention_word(aut, key[1], key[2]))
        return trace_memo[key]

    def world_satisfies(cause, resets) -> bool:
        # keyed on trace values, as in CauseSearch.satisfies_after: different
        # interventions often produce the same world
        traces = tuple(trace_after(name, cause, resets) for name in cex.names())
        if traces not in eval_memo:
            world = Counterexample(dict(zip(cex.names(), traces)))
            eval_memo[traces] = eval_hyper(world, formula)
        return eval_memo[traces]

    def witness(cause) -> tuple[Event, ...] | None:
        if world_satisfies(cause, ()):
            return ()
        touched = {e.trace for e in cause}
        pool = [e for e in resettable if e.trace in touched]
        limit = len(pool) if max_contingency_size is None else min(max_contingency_size, len(pool))
        for size in range(1, limit + 1):
            for combo in itertools.combinations(pool, size):
                if world_satisfies(cause, combo):
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
