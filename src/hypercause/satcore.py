"""Candidate causes: an over-approximation of the inputs a cause can flip.

The analysis has three parts, reported separately and united in
``CandidateSet.events``:

* Per step: for each trace and each step of its finite representation, the
  input literals that are locally relevant for the transition taken there,
  i.e. all inputs the successor function of the current state depends on,
  read with their polarity on the trace.  Every such per-step set is
  jointly unsatisfiable with the negated transition constraint: every input
  set that agrees with it takes the same transition.  It is an
  unsatisfiable core, though not necessarily an irredundant one.
* Formula support: inputs can also steer the property directly without
  ever being necessary for a transition, so every satisfied input event
  whose proposition the formula reads on that trace is a candidate.
* Rerouting: a flip or a contingency reset can move a trace off its
  original run, after which an input that was inert on the original run
  decides a transition.  For each trace the analysis collects the machine
  states its counterfactual automaton can occupy at each copy, under any
  input word and any non-identity override of controllable outputs toward
  the source label (``counterfactual.copy_states``), and adds the inputs
  those states' successors depend on, with their polarity on the trace.

Soundness: an event outside all three parts changes, when flipped, only its
own input letter, whatever else is flipped or reset, because no state the
run can be in at that copy branches on it.  The formula does not read that
letter, so flipping it never changes the verdict: a set containing it is
either no cause or not a minimal one.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import formulas as F
from .counterfactual import controllable_outputs, copy_states
from .errors import ValidationError
from .events import Counterexample, Event, sort_events
from .machine import MooreMachine
from .semantics import formula_input_events


@dataclass(frozen=True)
class CandidateSet:
    events: tuple[Event, ...]
    per_step: tuple[tuple[tuple[str, int], tuple[Event, ...]], ...]  # ((trace, step), events)
    formula_support: tuple[Event, ...]
    # inputs relevant only on runs rerouted by flips or resets
    rerouted: tuple[Event, ...] = ()

    def step_events(self, trace: str, step: int) -> tuple[Event, ...]:
        for key, events in self.per_step:
            if key == (trace, step):
                return events
        return ()


def candidate_cause(
    machine: MooreMachine, formula: F.HyperFormula, cex: Counterexample
) -> CandidateSet:
    """Over-approximate the inputs that can be part of an actual cause.

    Per-step analysis runs on each original trace separately; a step at a
    state whose successor ignores the inputs contributes nothing there.
    The rerouting part adds the inputs that matter only once an earlier
    flip or reset has moved the run to another state (see the module
    docstring for why the union is sound).
    """
    controllable = controllable_outputs(machine)[0]
    relevant = functools.cache(machine.input_support)

    per_step: list[tuple[tuple[str, int], tuple[Event, ...]]] = []
    events: list[Event] = []
    rerouted: list[Event] = []
    for name, trace in cex.traces.items():
        states = machine.state_sequence(trace)
        if states[len(trace)] != states[trace.loop_start]:
            raise ValidationError(
                f"trace {name!r}: period does not close on machine states; "
                "use a representation aligned with the state recurrence"
            )
        reach = copy_states(machine, trace, controllable)
        for n in range(len(trace)):
            here = trace.at(n)
            step_events = sort_events(
                Event(name, n, prop, prop in here) for prop in relevant(states[n])
            )
            if step_events:
                per_step.append(((name, n), step_events))
                events.extend(step_events)
            local = {prop for s in reach[n] for prop in relevant(s)} - relevant(states[n])
            rerouted.extend(Event(name, n, prop, prop in here) for prop in local)
    support_events = formula_input_events(machine, formula, cex)
    events.extend(support_events)
    events.extend(rerouted)
    return CandidateSet(
        sort_events(events), tuple(per_step), support_events, sort_events(rerouted)
    )
