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
  the source label (``CounterfactualAutomaton.copy_states``), and adds the
  inputs those states' successors depend on, with their polarity on the
  trace.

Soundness: an event outside all three parts changes, when flipped, only its
own input letter, whatever else is flipped or reset, because no state the
run can be in at that copy branches on it.  The formula does not read that
letter, so flipping it never changes the verdict: a set containing it is
either no cause or not a minimal one.

Pre-check: the same per-copy states also bound every counterfactual world.
Step ``i`` of any run the intervention function can make of a trace, under
any flips and resets, is in copy ``c(i)`` (``i`` before the loop start,
then ``loop_start + (i - loop_start) mod |period|``) and in a state of
``copy_states[c(i)]``; step 0 is in the initial state, which is all copy 0
holds unless the loop starts at 0 and copy 0 is also re-entered from the
loop, so the words read step 0 from the initial state and, with loop start
0, begin their period at step 1.  So at each step an output is surely
present when every such state carries it and possibly present when some
state does; inputs may take either value, and a proposition the machine
lacks is absent (`MooreMachine.label_bounds`, which the checker also uses
to decide that a property holds).  Every world's word lies between these
must and may words, literal by literal, and LTL is monotone in its
literals, so when the three-valued evaluation of the body
(`semantics.Program.bounds`) says the body cannot hold, no world
satisfies it and nothing is a cause:
``CandidateSet.feasible`` is False and the cause search reports
``no-actual-cause`` without trying a subset.  The check is sound but not
complete: a "may" answer leaves the question to the search.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from . import formulas as F
from .counterfactual import CounterfactualAutomaton, InterventionTable
from .events import Counterexample, Event, events_of_trace, sort_events
from .lasso import Lasso
from .machine import MooreMachine


@dataclass(frozen=True)
class CandidateSet:
    events: tuple[Event, ...]
    per_step: tuple[tuple[tuple[str, int], tuple[Event, ...]], ...]  # ((trace, step), events)
    formula_support: tuple[Event, ...]
    # inputs relevant only on runs rerouted by flips or resets
    rerouted: tuple[Event, ...] = ()
    # False when no flip and no reset can satisfy the body (module docstring)
    feasible: bool = True

    def step_events(self, trace: str, step: int) -> tuple[Event, ...]:
        return dict(self.per_step).get((trace, step), ())


def candidate_cause(
    machine: MooreMachine, formula: F.HyperFormula, cex: Counterexample
) -> CandidateSet:
    """Over-approximate the inputs that can be part of an actual cause."""
    table = InterventionTable(machine, formula, cex)
    table.require_violation()
    return candidate_set(formula, table.automata)


def candidate_set(
    formula: F.HyperFormula, automata: dict[str, CounterfactualAutomaton]
) -> CandidateSet:
    """The candidate analysis on each trace's counterfactual automaton.

    The per-step part reads the automaton's original run (`states`); a step
    at a state whose successor ignores the inputs contributes nothing.  The
    rerouting part and the pre-check's `feasible` flag read its
    `copy_states` (see the module docstring for why the union is sound).
    """
    relevant = functools.cache(MooreMachine.input_support)
    must: list[Lasso] = []
    may: list[Lasso] = []
    per_step: list[tuple[tuple[str, int], tuple[Event, ...]]] = []
    events: list[Event] = []
    rerouted: list[Event] = []
    for name, aut in automata.items():
        machine, trace, states = aut.machine, aut.source, aut.states
        reach = aut.copy_states()
        # rows of the initial state, then of each copy
        low, high = machine.label_bounds([{machine.initial}, *reach])
        must.append(_bounds(low[1:], trace, low[0]))
        may.append(_bounds(high[1:], trace, high[0]))
        for n in range(len(trace)):
            here = trace.at(n)
            step_events = sort_events(
                Event(name, n, prop, prop in here) for prop in relevant(machine, states[n])
            )
            if step_events:
                per_step.append(((name, n), step_events))
                events.extend(step_events)
            local = {prop for s in reach[n] for prop in relevant(machine, s)}
            local -= relevant(machine, states[n])
            rerouted.extend(Event(name, n, prop, prop in here) for prop in local)
    support_events = formula_input_events(formula, automata)
    events.extend(support_events)
    events.extend(rerouted)
    return CandidateSet(
        sort_events(events), tuple(per_step), support_events, sort_events(rerouted),
        formula.program.bounds(must, may)[1],
    )


def _bounds(rows: list[frozenset[str]], trace: Lasso, row0: frozenset[str]) -> Lasso:
    """Per-copy `rows` as a word of `trace`'s steps, with step 0 read from
    `row0`: only step 0 is in copy 0 without having looped, so with loop
    start 0 the word starts one step into its period."""
    loop = trace.loop_start
    if loop:  # copy 0 holds only the initial state
        return Lasso(rows[:loop], rows[loop:])
    return Lasso([row0], rows[1:] + rows[:1])


def formula_input_events(
    formula: F.HyperFormula, automata: dict[str, CounterfactualAutomaton]
) -> tuple[Event, ...]:
    """Satisfied input events whose proposition the body reads on their trace.

    These complement the transition analysis: an input can steer the truth
    of the property directly without ever being necessary for a transition.
    """
    binding = dict(zip(formula.variables, automata))
    read: dict[str, set[str]] = {name: set() for name in automata}
    for atom in F.atoms(formula.body):
        read[binding[atom.var]].add(atom.prop)
    return sort_events(
        e for name, aut in automata.items()
        for e in events_of_trace(name, aut.source, read[name].intersection(aut.machine.inputs))
    )
