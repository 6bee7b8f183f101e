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

`InterventionTable` is the search context of one instance: its automata,
its contingency bound, and the counterfactual tests.  It works on bit
footprints (an int with one bit per event) and runs an automaton only for
a footprint it has not met.  Adding a reset of output ``o`` at position
``p`` to a known footprint reuses that footprint's run when the run
already shows ``o`` at its source value on every step into copy ``p``:
forcing an output to the value it has enters the state the run enters
anyway, so the run is the same.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from typing import Iterable

from . import formulas as F
from .errors import ValidationError
from .events import Counterexample, Event, events_of_trace, sort_events
from .lasso import Lasso
from .machine import MooreMachine, walk
from .semantics import eval_hyper


def contingency_flag(output: str) -> str:
    return f"{output}^C"


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

    def valid(candidate: tuple[str, ...]) -> bool:
        flagged = frozenset(candidate)
        overrides = [frozenset(c) for k in range(len(candidate) + 1)
                     for c in itertools.combinations(candidate, k)]
        seen = set(machine.reachable_states())
        frontier = list(seen)
        while frontier:
            s = frontier.pop()
            for a in machine.input_sets:
                succ = machine.delta[(s, a)]
                try:
                    targets = {_forced_state(machine, succ, flagged, o) for o in overrides}
                except ValidationError:
                    return False
                for t in targets - seen:
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


def _forced_state(
    machine: MooreMachine, succ: str, flagged: frozenset[str], source_outputs: frozenset[str]
) -> str:
    """State entered when the outputs in `flagged` are forced to their source
    values on the way into `succ` (the unique state with the forced label)."""
    label = machine.labels[succ]
    forced = (label - flagged) | (source_outputs & flagged)
    if forced == label:
        return succ
    state = machine.state_labelled(forced)
    if state is None:
        raise ValidationError(
            f"no unique state labelled {sorted(forced)} for contingency override"
        )
    return state


class CounterfactualAutomaton:
    """Chain-of-copies machine for one source trace (states are (state, copy)).

    `states` is the source's own run (`MooreMachine.state_sequence`, which
    rejects a source that is not a run of the machine)."""

    def __init__(self, machine: MooreMachine, source: Lasso):
        self.states = machine.state_sequence(source)
        self.machine = machine
        self.source = source
        self.last_copy = len(source) - 1
        self.loop_to = source.loop_start
        controllable, excluded = controllable_outputs(machine)
        self.controllable = controllable
        self.excluded_outputs = excluded
        self._flags = {contingency_flag(o): o for o in controllable}
        self._successors = source.successors()
        self.initial = (machine.initial, 0)

    def input_alphabet(self) -> tuple[str, ...]:
        return tuple(self.machine.inputs) + tuple(sorted(self._flags))

    def step(self, state: tuple[str, int], input_set: Iterable[str]) -> tuple[str, int]:
        s, k = state
        input_set = frozenset(input_set)
        k_next = self._successors[k]
        base_succ = self.machine.successor(s, input_set)
        flagged = frozenset(self._flags[f] for f in input_set if f in self._flags)
        if not flagged:
            return (base_succ, k_next)
        source_outputs = self.source.at(k_next) & frozenset(self.machine.outputs)
        return (_forced_state(self.machine, base_succ, flagged, source_outputs), k_next)

    def run(self, input_word: Lasso) -> Lasso:
        """Trace over the base alphabet, normalized at state+input recurrence."""
        inputs = frozenset(self.machine.inputs)
        extra = input_word.alphabet() - inputs - set(self._flags)
        if extra:
            raise ValidationError(f"input word uses unknown propositions {sorted(extra)}")
        labels = self.machine.labels
        return walk(input_word, self.initial, self.step, lambda s: labels[s[0]], inputs)[1]

    def copy_states(self) -> tuple[frozenset[str], ...]:
        """Machine states the automaton can occupy at each copy, under any
        input word and any auxiliary inputs.

        The copies of `reachable`, computed on the base machine: a step from
        a state takes every successor under some input set and forces it
        with every set of controllable outputs, so the automaton's alphabet
        is never enumerated letter by letter.  Forcing an output that
        already has its source value changes nothing, so only sets of
        differing outputs are tried.
        """
        machine, source = self.machine, self.source
        outputs = frozenset(machine.outputs)
        controllable = frozenset(self.controllable)

        @functools.cache
        def targets(state: str, source_outputs: frozenset[str]) -> frozenset[str]:
            found = set()
            for succ in {machine.delta[(state, a)] for a in machine.input_sets}:
                found.add(succ)
                differing = sorted((machine.label(succ) ^ source_outputs) & controllable)
                for k in range(1, len(differing) + 1):
                    for flagged in itertools.combinations(differing, k):
                        flagged = frozenset(flagged)
                        found.add(_forced_state(machine, succ, flagged, source_outputs))
            return frozenset(found)

        reach: list[set[str]] = [set() for _ in range(len(source))]
        reach[0].add(machine.initial)
        frontier = [(machine.initial, 0)]
        while frontier:
            s, k = frontier.pop()
            k_next = self._successors[k]
            for t in targets(s, source.at(k_next) & outputs) - reach[k_next]:
                reach[k_next].add(t)
                frontier.append((t, k_next))
        return tuple(frozenset(states) for states in reach)

    def reachable(self) -> tuple[tuple[str, int], ...]:
        return tuple((s, k) for k, states in enumerate(self.copy_states()) for s in sorted(states))


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
    word = [set(source.at(k) & frozenset(machine.inputs)) for k in range(len(source))]

    for e in cause + contingency:
        _check_position(source, e)

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
        _check_reset(automaton, e)
        for k, entered in enumerate(automaton._successors):
            if entered == e.position:
                word[k].add(contingency_flag(e.prop))

    return Lasso(word[:source.loop_start], word[source.loop_start:])


def _check_position(source: Lasso, e: Event) -> None:
    if not 0 <= e.position < len(source):
        raise ValidationError(
            f"event {e} position out of range (trace has {len(source)} positions)"
        )


def _check_reset(automaton: CounterfactualAutomaton, e: Event) -> None:
    """Raise unless `e` is a contingency event that `automaton` can reset."""
    _check_position(automaton.source, e)
    if e.prop not in automaton.machine.outputs:
        raise ValidationError(f"contingency event {e} is not over an output")
    if (e.prop in automaton.source.at(e.position)) != e.positive:
        raise ValidationError(f"contingency event {e} is not satisfied by the trace")
    if e.prop not in automaton.controllable:
        raise ValidationError(
            f"output {e.prop!r} is not contingency-controllable on this machine"
        )


class InterventionTable:
    """Search context for one (machine, formula, counterexample).

    The table builds one counterfactual automaton per trace, which validates
    the trace and which the candidate analysis reads too.  The search tries
    contingencies of at most `max_contingency_size` events of `resettable`.

    `satisfies_after(cause, contingency)` answers whether the property holds
    once `cause` is flipped and `contingency` reset.  Events
    are handled as bit footprints: `bits(events)` gives each event a bit the
    first time it sees it, and `holds(cause_bits, reset_bits)` is the test
    on ints, so a search that tries many contingencies for one cause pays
    for event handling once.  Per trace, the (cause bits, reset bits) on
    that trace map to an interned trace id, equal runs sharing one id;
    verdicts are memoized on the tuple of trace ids, and `evaluations`
    counts the calls to `eval_hyper`.

    A new footprint is normally run through `intervention_word`, which
    rejects an invalid event; since a footprint that raised is never
    stored, an invalid event raises on every call.  `runs` counts these
    runs.  One is skipped when the footprint is a stored one plus a reset
    of output `o` at position `p` to its source value `v` that passes
    `_check_reset` (which raises otherwise), and the
    stored run shows `o` at `v` on every step whose copy is `p`: the stored
    run's id is reused.  That is sound because the forced state is chosen
    by the label of the state the run enters anyway (`_forced_state`), so
    forcing `o` to the value it already has enters the same state, and the
    letters and the point of recurrence stay the same.  The check reads the
    stored footprint's own run, not the interned lasso, whose unrolling may
    come from another footprint.
    """

    def __init__(
        self,
        machine: MooreMachine,
        formula: F.HyperFormula,
        cex: Counterexample,
        max_contingency_size: int | None = None,
    ):
        self.formula = formula
        self.max_contingency_size = max_contingency_size
        self.names = cex.names()
        self.automata: dict[str, CounterfactualAutomaton] = {}
        for name, trace in cex.traces.items():
            try:
                self.automata[name] = CounterfactualAutomaton(machine, trace)
            except ValidationError as exc:
                raise ValidationError(f"trace {name!r}: {exc}") from None
        self._bits: dict[Event, int] = {}
        self._events: list[Event] = []
        self._masks = dict.fromkeys(self.names, 0)
        self._lassos: list[Lasso] = []
        self._ids: dict[Lasso, int] = {}
        # per trace: footprint -> (interned trace id, the footprint's own run)
        self._runs = {
            name: {(0, 0): (self._intern(cex[name]), cex[name])} for name in self.names
        }
        self._verdicts: dict[tuple[int, ...], bool] = {}
        self._resettable: dict[tuple[str, ...], tuple[tuple[Event, ...], tuple[int, ...]]] = {}
        self.evaluations = 0
        self.runs = 0

    def _intern(self, lasso: Lasso) -> int:
        tid = self._ids.get(lasso)
        if tid is None:
            tid = self._ids[lasso] = len(self._lassos)
            self._lassos.append(lasso)
        return tid

    def bits(self, events: Iterable[Event]) -> int:
        """Footprint of `events`: the union of their bits."""
        footprint = 0
        for e in events:
            bit = self._bits.get(e)
            if bit is None:
                if e.trace not in self._masks:
                    raise ValidationError(f"event {e} references unknown trace {e.trace!r}")
                bit = self._bits[e] = 1 << len(self._events)
                self._events.append(e)
                self._masks[e.trace] |= bit
            footprint |= bit
        return footprint

    def resettable(self, traces: tuple[str, ...]) -> tuple[tuple[Event, ...], tuple[int, ...]]:
        """Satisfied output events on `traces` the counterfactual automata
        can enact, in event order, and each event's bit."""
        if traces not in self._resettable:
            events = sort_events(
                e for name in traces
                for e in events_of_trace(name, self.automata[name].source,
                                         self.automata[name].controllable)
            )
            self._resettable[traces] = (events, tuple(self.bits([e]) for e in events))
        return self._resettable[traces]

    def _decode(self, footprint: int) -> list[Event]:
        return [self._events[i] for i in range(footprint.bit_length()) if footprint >> i & 1]

    def _run(self, name: str, cause_bits: int, reset_bits: int) -> tuple[int, Lasso]:
        """(trace id, run) of trace `name` under one footprint on it."""
        runs = self._runs[name]
        aut = self.automata[name]
        source = aut.source
        rest = reset_bits
        while rest:
            bit = rest & -rest
            rest ^= bit
            known = runs.get((cause_bits, reset_bits ^ bit))
            if known is None:
                continue
            e = self._events[bit.bit_length() - 1]
            _check_reset(aut, e)
            p = e.position
            run = known[1]
            steps = (p,) if p < source.loop_start else range(p, len(run), len(source.period))
            if all((e.prop in run.at(i)) == e.positive for i in steps):
                return known
        word = intervention_word(aut, self._decode(cause_bits), self._decode(reset_bits))
        run = aut.run(word)
        self.runs += 1
        return self._intern(run), run

    def _trace_ids(self, cause_bits: int, reset_bits: int) -> tuple[int, ...]:
        ids = []
        for name in self.names:
            mask = self._masks[name]
            key = (cause_bits & mask, reset_bits & mask)
            runs = self._runs[name]
            known = runs.get(key)
            if known is None:
                known = runs[key] = self._run(name, *key)
            ids.append(known[0])
        return tuple(ids)

    def _world(self, ids: tuple[int, ...]) -> Counterexample:
        return Counterexample({name: self._lassos[i] for name, i in zip(self.names, ids)})

    def intervened(self, cause: Iterable[Event], contingency: Iterable[Event]) -> Counterexample:
        return self._world(self._trace_ids(self.bits(cause), self.bits(contingency)))

    def holds(self, cause_bits: int, reset_bits: int) -> bool:
        """`satisfies_after` on footprints made by `bits`."""
        ids = self._trace_ids(cause_bits, reset_bits)
        verdict = self._verdicts.get(ids)
        if verdict is None:
            verdict = self._verdicts[ids] = eval_hyper(self._world(ids), self.formula)
            self.evaluations += 1
        return verdict

    def satisfies_after(self, cause: Iterable[Event], contingency: Iterable[Event]) -> bool:
        return self.holds(self.bits(cause), self.bits(contingency))


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
        if e.trace not in cex:
            raise ValidationError(f"event {e} references unknown trace {e.trace!r}")
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
