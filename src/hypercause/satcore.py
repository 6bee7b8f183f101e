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
either no cause or not a minimal one.  Whether any intervention repairs the
violation at all is the cause search's first question (`causality`).
"""

from __future__ import annotations

import functools

from . import formulas as F
from .counterfactual import InterventionTable
from .events import Counterexample, Event
from .machine import MooreMachine
from .values import Value


class CandidateSet(Value):
    __slots__ = ("events", "per_step", "formula_support", "rerouted")

    def __init__(
        self,
        events: tuple[Event, ...],
        per_step: tuple[tuple[tuple[str, int], tuple[Event, ...]], ...],  # ((trace, step), events)
        formula_support: tuple[Event, ...],
        # inputs relevant only on runs rerouted by flips or resets
        rerouted: tuple[Event, ...] = (),
    ):
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "per_step", per_step)
        object.__setattr__(self, "formula_support", formula_support)
        object.__setattr__(self, "rerouted", rerouted)


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
    The rerouting part reads the union of its `step_sets` per copy (see the
    module docstring for why the three parts are sound).  Each part is a
    footprint of the table's input bits per position (`table.input_bits`),
    turned into events by `table.events`.  The walk with every input free
    stays on the automaton, for the cause search's pre-check
    (`InterventionTable.repairable`).
    """
    relevant = functools.cache(MooreMachine.input_support)
    per_step: list[tuple[tuple[str, int], tuple[Event, ...]]] = []
    steps = support = rerouted = 0
    for name, aut in table.automata.items():
        machine, states = aut.machine, aut.states
        bits = table.input_bits[name]
        for n, here in enumerate(bits):
            step = sum(here[prop] for prop in relevant(machine, states[n]))
            if step:
                per_step.append(((name, n), table.events(step)))
                steps |= step
        for held, k in aut.step_sets()[0]:
            for s in held:
                for prop in relevant(machine, s) - relevant(machine, states[k]):
                    rerouted |= bits[k][prop]
        read = table.read[name]
        support |= sum(bit for here in bits for prop, bit in here.items() if prop in read)
    return CandidateSet(
        table.events(steps | support | rerouted), tuple(per_step),
        table.events(support), table.events(rerouted),
    )
