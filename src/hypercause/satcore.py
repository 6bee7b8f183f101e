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
  the source label (the union of the sets of the steps in that copy, from
  ``CounterfactualAutomaton.step_sets``), and adds the inputs those
  states' successors depend on, with their polarity on the trace.

Soundness: an event outside all three parts changes, when flipped, only its
own input letter, whatever else is flipped or reset, because no state the
run can be in at that copy branches on it.  The formula does not read that
letter, so flipping it never changes the verdict: a set containing it is
either no cause or not a minimal one.

Pre-check: the same step sets also bound every counterfactual world.
Step ``i`` of any run the intervention function can make of a trace, under
any flips and resets, is in a state of step set ``i`` (`machine.orbit`
order: wrapped around the loop the sets close).  So at each step an output
is surely present when every such state carries it and possibly present
when some state does; inputs may take either value, and a proposition the
machine lacks is absent (`MooreMachine.label_bounds`, which the checker
also uses on the machine's own step sets).  Every world's word lies
between these must and may words, literal by literal, and LTL is monotone
in its literals, so when the three-valued evaluation of the body
(`semantics.Program.bounds`) says the body cannot hold, no world satisfies
it and nothing is a cause: ``CandidateSet.feasible`` is False and the
cause search reports ``no-actual-cause`` without trying a subset.  The
check is sound but not complete: a "may" answer leaves it to the search.
It is the table's set check (`InterventionTable.repairable`) on every
input event, so it walks the step sets the rerouting part walked; the
cause search asks the same check with fewer inputs free or fixed.
"""

from __future__ import annotations

import functools

from . import formulas as F
from .counterfactual import InterventionTable
from .events import Counterexample, Event, events_of_trace, sort_events
from .machine import MooreMachine
from .values import Value


class CandidateSet(Value):
    __slots__ = ("events", "per_step", "formula_support", "rerouted", "feasible")

    def __init__(
        self,
        events: tuple[Event, ...],
        per_step: tuple[tuple[tuple[str, int], tuple[Event, ...]], ...],  # ((trace, step), events)
        formula_support: tuple[Event, ...],
        # inputs relevant only on runs rerouted by flips or resets
        rerouted: tuple[Event, ...] = (),
        # False when no flip and no reset can satisfy the body (module docstring)
        feasible: bool = True,
    ):
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "per_step", per_step)
        object.__setattr__(self, "formula_support", formula_support)
        object.__setattr__(self, "rerouted", rerouted)
        object.__setattr__(self, "feasible", feasible)

    def step_events(self, trace: str, step: int) -> tuple[Event, ...]:
        return dict(self.per_step).get((trace, step), ())


def candidate_cause(
    machine: MooreMachine, formula: F.HyperFormula, cex: Counterexample
) -> CandidateSet:
    """Over-approximate the inputs that can be part of an actual cause."""
    table = InterventionTable(machine, formula, cex)
    table.require_violation()
    return candidate_set(table)


def candidate_set(table: InterventionTable) -> CandidateSet:
    """The candidate analysis on each trace's counterfactual automaton.

    The per-step part reads the automaton's original run (`states`); a step
    at a state whose successor ignores the inputs contributes nothing.  The
    formula support reads what the body reads on each trace (`table.read`).
    The rerouting part reads the union of its `step_sets` per copy, and the
    pre-check's `feasible` flag is the table's set check on every input
    event, which walks the same step sets (see the module docstring for why
    both are sound).
    """
    automata = table.automata
    relevant = functools.cache(MooreMachine.input_support)
    per_step: list[tuple[tuple[str, int], tuple[Event, ...]]] = []
    events: list[Event] = []
    rerouted: list[Event] = []
    support: list[Event] = []
    for name, aut in automata.items():
        machine, trace, states = aut.machine, aut.source, aut.states
        pairs = aut.step_sets()[0]
        for n in range(len(trace)):
            here = trace.at(n)
            step_events = sort_events(
                Event(name, n, prop, prop in here) for prop in relevant(machine, states[n])
            )
            if step_events:
                per_step.append(((name, n), step_events))
                events.extend(step_events)
        rerouted.extend(  # repeats go in `sort_events`
            Event(name, k, prop, prop in trace.at(k))
            for held, k in pairs for s in held
            for prop in relevant(machine, s) - relevant(machine, states[k])
        )
        support.extend(events_of_trace(name, trace, table.read[name] & set(machine.inputs)))
    support_events = sort_events(support)
    events.extend(support_events)
    events.extend(rerouted)
    return CandidateSet(
        sort_events(events), tuple(per_step), support_events, sort_events(rerouted),
        table.repairable(0, None),
    )
