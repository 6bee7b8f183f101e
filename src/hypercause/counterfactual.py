"""Counterfactual automata and the intervention function.

A counterfactual automaton for a lasso trace is a chain of copies of the
base machine, one per position of the finite representation, with the last
copy looping back to the loop start.  Auxiliary inputs ``o^C`` (one per
controllable output) force output ``o`` in the successor position back to
its value on the source trace, overriding the machine's dynamics.

Interventions flip cause events in the input word and raise the auxiliary
inputs for contingency events.  Because outputs at a position are fixed by
the state entered one step earlier, the auxiliary input for an event at
position ``p`` is consumed on the transition into ``p`` (step ``p - 1``);
events in the loop recur at every iteration of their offset.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from typing import Iterable, Mapping

from . import formulas as F
from .boolexpr import assignments as boolexpr_assignments
from .errors import ValidationError
from .events import Counterexample, Event, check_event
from .lasso import Lasso
from .machine import MooreMachine
from .semantics import eval_hyper


def contingency_flag(output: str) -> str:
    return f"{output}^C"


def _override(label: frozenset[str], controlled: Iterable[str], values: frozenset[str]):
    controlled = frozenset(controlled)
    return (label - controlled) | (values & controlled)


#: controllable_outputs result per machine; machines are not changed after
#: construction, and the search is exponential in the number of outputs
_CONTROLLABLE: "weakref.WeakKeyDictionary[MooreMachine, tuple]" = weakref.WeakKeyDictionary()


def controllable_outputs(machine: MooreMachine) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Largest output set usable for contingencies, plus the excluded rest.

    A set O_c qualifies when, closing the reachable states under both the
    transition function and O_c-overrides of successor labels, every
    non-identity override names exactly one state.  Identity overrides
    follow the ordinary transition function, so duplicated labels do not by
    themselves rule a set out.  Among maximal qualifying sets the
    lexicographically least (by sorted names) is chosen, deterministically.

    The set is computed once per machine.
    """
    result = _CONTROLLABLE.get(machine)
    if result is None:
        result = _CONTROLLABLE.setdefault(machine, _largest_controllable(machine))
    return result


def _largest_controllable(machine: MooreMachine) -> tuple[tuple[str, ...], tuple[str, ...]]:
    outputs = sorted(machine.outputs)
    by_label = _states_by_label(machine)
    input_sets = tuple(boolexpr_assignments(machine.inputs))

    def valid(candidate: tuple[str, ...]) -> bool:
        overrides = [frozenset(c) for k in range(len(candidate) + 1)
                     for c in itertools.combinations(candidate, k)]
        seen = set(machine.reachable_states())
        frontier = list(seen)
        while frontier:
            s = frontier.pop()
            for a in input_sets:
                succ = machine.delta[(s, a)]
                label = machine.label(succ)
                targets = [succ]
                for chosen in overrides:
                    forced = _override(label, candidate, chosen)
                    if forced == label:
                        continue
                    named = by_label.get(forced, ())
                    if len(named) != 1:
                        return False
                    targets.append(named[0])
                for t in targets:
                    if t not in seen:
                        seen.add(t)
                        frontier.append(t)
        return True

    maximal: list[tuple[str, ...]] = []
    for size in range(len(outputs), -1, -1):
        for combo in itertools.combinations(outputs, size):
            if any(set(combo) <= set(m) for m in maximal):
                continue
            if valid(combo):
                maximal.append(combo)
    chosen = min(maximal) if maximal else ()
    return chosen, tuple(o for o in outputs if o not in chosen)


def _states_by_label(machine: MooreMachine) -> dict[frozenset[str], list[str]]:
    by_label: dict[frozenset[str], list[str]] = {}
    for s in machine.states():
        by_label.setdefault(machine.label(s), []).append(s)
    return by_label


def _forced_state(
    machine: MooreMachine,
    by_label: Mapping[frozenset[str], list[str]],
    succ: str,
    flagged: frozenset[str],
    source_outputs: frozenset[str],
) -> str:
    """State entered when the outputs in `flagged` are forced to their source
    values on the way into `succ` (the unique state with the forced label)."""
    label = machine.label(succ)
    forced = _override(label, flagged, source_outputs)
    if forced == label:
        return succ
    candidates = by_label.get(forced, ())
    if len(candidates) != 1:
        raise ValidationError(
            f"no unique state labelled {sorted(forced)} for contingency override"
        )
    return candidates[0]


def copy_states(
    machine: MooreMachine, source: Lasso, controllable: Iterable[str]
) -> tuple[frozenset[str], ...]:
    """Machine states the counterfactual automaton of `source` can occupy at
    each copy, under any input word and any auxiliary inputs.

    Equal to the copies of `CounterfactualAutomaton.reachable`, computed on
    the base machine: a step from a state takes every successor under some
    input set and forces it with every set of controllable outputs, so the
    automaton's alphabet is never enumerated letter by letter.  Forcing an
    output that already has its source value changes nothing, so only sets
    of differing outputs are tried.
    """
    outputs = frozenset(machine.outputs)
    controllable = frozenset(controllable)
    by_label = _states_by_label(machine)
    input_sets = tuple(boolexpr_assignments(machine.inputs))

    @functools.cache
    def targets(state: str, source_outputs: frozenset[str]) -> frozenset[str]:
        found = set()
        for succ in {machine.delta[(state, a)] for a in input_sets}:
            found.add(succ)
            differing = sorted((machine.label(succ) ^ source_outputs) & controllable)
            for k in range(1, len(differing) + 1):
                for flagged in itertools.combinations(differing, k):
                    found.add(_forced_state(
                        machine, by_label, succ, frozenset(flagged), source_outputs
                    ))
        return frozenset(found)

    following = list(range(1, len(source))) + [source.loop_start]
    reach: list[set[str]] = [set() for _ in range(len(source))]
    reach[0].add(machine.initial)
    frontier = [(machine.initial, 0)]
    while frontier:
        s, k = frontier.pop()
        k_next = following[k]
        for t in targets(s, source.at(k_next) & outputs) - reach[k_next]:
            reach[k_next].add(t)
            frontier.append((t, k_next))
    return tuple(frozenset(states) for states in reach)


class CounterfactualAutomaton:
    """Chain-of-copies machine for one source trace (states are (state, copy))."""

    def __init__(self, machine: MooreMachine, source: Lasso):
        diag = machine.validate_trace(source)
        if not diag:
            raise ValidationError(
                f"source is not a trace of the machine: {diag.message} @ {diag.position}"
            )
        self.machine = machine
        self.source = source
        self.last_copy = len(source) - 1
        self.loop_to = source.loop_start
        controllable, excluded = controllable_outputs(machine)
        self.controllable = controllable
        self.excluded_outputs = excluded
        self._flags = {contingency_flag(o): o for o in controllable}
        self._by_label = _states_by_label(machine)

    @property
    def initial(self) -> tuple[str, int]:
        return (self.machine.initial, 0)

    def input_alphabet(self) -> tuple[str, ...]:
        return tuple(self.machine.inputs) + tuple(sorted(self._flags))

    def step(self, state: tuple[str, int], input_set: Iterable[str]) -> tuple[str, int]:
        s, k = state
        input_set = frozenset(input_set)
        k_next = self.loop_to if k == self.last_copy else k + 1
        base_succ = self.machine.successor(s, input_set)
        flagged = frozenset(self._flags[f] for f in input_set if f in self._flags)
        if not flagged:
            return (base_succ, k_next)
        source_outputs = self.source.at(k_next) & frozenset(self.machine.outputs)
        forced = _forced_state(self.machine, self._by_label, base_succ, flagged, source_outputs)
        return (forced, k_next)

    def label(self, state: tuple[str, int]) -> frozenset[str]:
        return self.machine.label(state[0])

    def run(self, input_word: Lasso) -> Lasso:
        """Trace over the base alphabet, normalized at state+input recurrence."""
        allowed = set(self.machine.inputs) | set(self._flags)
        extra = input_word.alphabet() - allowed
        if extra:
            raise ValidationError(f"input word uses unknown propositions {sorted(extra)}")
        letters: list[frozenset[str]] = []
        state = self.initial
        seen: dict[tuple[tuple[str, int], int], int] = {}
        step = 0
        while True:
            phase = step - input_word.loop_start
            if phase >= 0:
                key = (state, phase % len(input_word.period))
                if key in seen:
                    start = seen[key]
                    return Lasso(letters[:start], letters[start:])
                seen[key] = step
            ins = input_word.at(step)
            letters.append((ins & frozenset(self.machine.inputs)) | self.label(state))
            state = self.step(state, ins)
            step += 1

    def reachable(self) -> tuple[tuple[str, int], ...]:
        per_copy = copy_states(self.machine, self.source, self.controllable)
        return tuple((s, k) for k, states in enumerate(per_copy) for s in sorted(states))


def build_counterfactual_automaton(machine: MooreMachine, trace: Lasso) -> CounterfactualAutomaton:
    return CounterfactualAutomaton(machine, trace)


def intervention_word(
    automaton: CounterfactualAutomaton,
    cause: Iterable[Event],
    contingency: Iterable[Event],
) -> Lasso:
    """Input word for the counterfactual automaton realizing an intervention.

    Cause literals are flipped at their positions (recurring for loop
    positions); each contingency event raises the auxiliary input on every
    step that enters its position, so a loop event is re-applied on each
    iteration, including the loop-back step.
    """
    machine = automaton.machine
    source = automaton.source
    cause = tuple(cause)
    contingency = tuple(contingency)
    n_pos = len(source)
    loop_start = source.loop_start
    word = [set(source.at(k) & frozenset(machine.inputs)) for k in range(n_pos)]

    for e in cause + contingency:
        if not 0 <= e.position < n_pos:
            raise ValidationError(f"event {e} position out of range (trace has {n_pos} positions)")

    for e in cause:
        if e.prop not in machine.inputs:
            raise ValidationError(f"cause event {e} is not over an input")
        if (e.prop in source.at(e.position)) != e.positive:
            raise ValidationError(f"cause event {e} is not satisfied by the trace")
        if e.positive:
            word[e.position].discard(e.prop)
        else:
            word[e.position].add(e.prop)

    for e in contingency:
        if e.prop not in machine.outputs:
            raise ValidationError(f"contingency event {e} is not over an output")
        if (e.prop in source.at(e.position)) != e.positive:
            raise ValidationError(f"contingency event {e} is not satisfied by the trace")
        if e.prop not in automaton.controllable:
            raise ValidationError(
                f"output {e.prop!r} is not contingency-controllable on this machine"
            )
        flag = contingency_flag(e.prop)
        p = e.position
        if p == 0 and loop_start > 0:
            continue  # position 0 outputs are fixed by the initial state
        if p < loop_start:
            word[p - 1].add(flag)
        else:
            # the unique period step whose successor has p's loop offset
            offset = (p - 1 - loop_start) % len(source.period)
            word[loop_start + offset].add(flag)
            if p == loop_start and loop_start > 0:
                word[loop_start - 1].add(flag)

    return Lasso(word[:loop_start], word[loop_start:])


class InterventionTable:
    """Memoized counterfactual tests for one (machine, formula, counterexample).

    `satisfies_after(cause, contingency)` answers whether the property holds
    once `cause` is flipped and `contingency` reset.  The table builds one
    counterfactual automaton per trace, which validates the trace, and gives
    each event a bit the first time it sees it.  Per trace, the (cause bits,
    reset bits) on that trace map to an interned trace id, equal runs sharing
    one id.  A new footprint is run through `intervention_word`, which
    rejects an invalid event; since a footprint that raised is never stored,
    an invalid event raises on every call.  Verdicts are memoized on the
    tuple of trace ids, and `evaluations` counts the calls to `eval_hyper`.
    """

    def __init__(self, machine: MooreMachine, formula: F.HyperFormula, cex: Counterexample):
        self.formula = formula
        self.names = cex.names()
        self.automata: dict[str, CounterfactualAutomaton] = {}
        for name, trace in cex.traces.items():
            try:
                self.automata[name] = CounterfactualAutomaton(machine, trace)
            except ValidationError as exc:
                raise ValidationError(f"trace {name!r}: {exc}") from None
        self._bits: dict[Event, int] = {}
        self._masks = dict.fromkeys(self.names, 0)
        self._lassos: list[Lasso] = []
        self._ids: dict[Lasso, int] = {}
        self._runs = {name: {(0, 0): self._intern(cex[name])} for name in self.names}
        self._verdicts: dict[tuple[int, ...], bool] = {}
        self.evaluations = 0

    def _intern(self, lasso: Lasso) -> int:
        tid = self._ids.get(lasso)
        if tid is None:
            tid = self._ids[lasso] = len(self._lassos)
            self._lassos.append(lasso)
        return tid

    def _new_bit(self, event: Event) -> int:
        if event.trace not in self._masks:
            raise ValidationError(f"event {event} references unknown trace {event.trace!r}")
        bit = self._bits[event] = 1 << len(self._bits)
        self._masks[event.trace] |= bit
        return bit

    def _trace_ids(self, cause: Iterable[Event], contingency: Iterable[Event]) -> tuple[int, ...]:
        cause = tuple(cause)
        contingency = tuple(contingency)
        cause_bits = reset_bits = 0
        for e in cause:
            cause_bits |= self._bits.get(e) or self._new_bit(e)
        for e in contingency:
            reset_bits |= self._bits.get(e) or self._new_bit(e)
        ids = []
        for name in self.names:
            mask = self._masks[name]
            key = (cause_bits & mask, reset_bits & mask)
            runs = self._runs[name]
            tid = runs.get(key)
            if tid is None:
                aut = self.automata[name]
                word = intervention_word(
                    aut,
                    [e for e in cause if e.trace == name],
                    [e for e in contingency if e.trace == name],
                )
                tid = runs[key] = self._intern(aut.run(word))
            ids.append(tid)
        return tuple(ids)

    def _world(self, ids: tuple[int, ...]) -> Counterexample:
        return Counterexample({name: self._lassos[i] for name, i in zip(self.names, ids)})

    def intervened(self, cause: Iterable[Event], contingency: Iterable[Event]) -> Counterexample:
        return self._world(self._trace_ids(cause, contingency))

    def satisfies_after(self, cause: Iterable[Event], contingency: Iterable[Event]) -> bool:
        ids = self._trace_ids(cause, contingency)
        verdict = self._verdicts.get(ids)
        if verdict is None:
            verdict = self._verdicts[ids] = eval_hyper(self._world(ids), self.formula)
            self.evaluations += 1
        return verdict


def intervene(
    machine: MooreMachine,
    cex: Counterexample,
    cause: Iterable[Event],
    contingency: Iterable[Event],
) -> Counterexample:
    """Counterfactual counterexample after flipping `cause` under `contingency`."""
    cause = tuple(cause)
    contingency = tuple(contingency)
    for e in cause + contingency:
        check_event(cex, e)
    result: dict[str, Lasso] = {}
    for name, trace in cex.traces.items():
        mine_cause = [e for e in cause if e.trace == name]
        mine_cont = [e for e in contingency if e.trace == name]
        if not mine_cause and not mine_cont:
            result[name] = trace
            continue
        aut = CounterfactualAutomaton(machine, trace)
        result[name] = aut.run(intervention_word(aut, mine_cause, mine_cont))
    return Counterexample(result)
