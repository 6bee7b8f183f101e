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
a footprint it has not met, and only on a trace whose outputs the body
reads: it decides verdicts on per-trace views, what the body reads of
each trace.  It numbers the instance's events once, in event order: each
satisfied input event gets a cause bit and each satisfied event over a
controllable output a reset bit, so the bits of a footprint are its
events in event order.  A reset of output ``o`` at position ``p``
is a no-op on a run that already shows ``o`` at its source value on every
step into copy ``p`` (`_no_op`): forcing an output to the value it has
enters the state the run enters anyway, so the run is the same.  The table
reuses a known footprint's run for that footprint plus such a reset, and
`InterventionTable.inert` names the resets that are no-ops on a flip's
own runs, which the contingency searches then skip.
`InterventionTable.repairable` bounds many worlds at once: it walks each
touched trace's `step_sets`, each copy allowing a set of input letters and
every reset free, and asks whether the body can hold between the resulting
must and may words (see `causality` for its three uses).
"""

from __future__ import annotations

import itertools
import weakref
from collections.abc import Iterable, Sequence

from . import formulas as F
from .errors import NothingToExplain, ValidationError
from .events import Counterexample, Event
from .lasso import Lasso
from .machine import MooreMachine, orbit, walk
from .semantics import eval_hyper


def contingency_flag(output: str) -> str:
    return f"{output}^C"


#: controllable_outputs result per machine; machines are not changed after
#: construction, and the search is exponential in the number of outputs
_CONTROLLABLE: "weakref.WeakKeyDictionary[MooreMachine, tuple]" = weakref.WeakKeyDictionary()


def controllable_outputs(machine: MooreMachine) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Largest output set usable for contingencies, plus the excluded rest.

    A set O_c qualifies when, closing the initial state under both the
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
        seen = [machine.initial]
        for s in seen:  # a worklist: `seen` grows while it is read
            for a in machine.input_sets:
                succ = machine.delta[(s, a)]
                try:
                    targets = {_forced_state(machine, succ, flagged, o) for o in overrides}
                except ValidationError:
                    return False
                seen.extend(targets.difference(seen))
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
        self.loop_to = source.loop_start
        controllable, excluded = controllable_outputs(machine)
        self.controllable = controllable
        self.excluded_outputs = excluded
        self._flags = {contingency_flag(o): o for o in controllable}
        self._successors = source.successors()
        self.initial = (machine.initial, 0)
        self._controllable = frozenset(controllable)
        outputs = frozenset(machine.outputs)
        self._source_outputs = [source.at(k) & outputs for k in range(len(source))]
        # ((states, copy), allowed input letters) -> the next `step_sets` pair
        self._steps: dict[tuple, tuple[frozenset[str], int]] = {}
        self._free_walk: tuple[list[tuple[frozenset[str], int]], int] | None = None

    def step(self, state: tuple[str, int], input_set: Iterable[str]) -> tuple[str, int]:
        s, k = state
        input_set = frozenset(input_set)
        k_next = self._successors[k]
        base_succ = self.machine.successor(s, input_set)
        flagged = frozenset(self._flags[f] for f in input_set if f in self._flags)
        if not flagged:
            return (base_succ, k_next)
        return (_forced_state(self.machine, base_succ, flagged, self._source_outputs[k_next]),
                k_next)

    def run(self, input_word: Lasso) -> Lasso:
        """Trace over the base alphabet, normalized at state+input recurrence."""
        inputs = frozenset(self.machine.inputs)
        extra = input_word.alphabet() - inputs - set(self._flags)
        if extra:
            raise ValidationError(f"input word uses unknown propositions {sorted(extra)}")
        labels = self.machine.labels
        return walk(input_word, self.initial, self.step, lambda s: labels[s[0]], inputs)[1]

    def step_sets(
        self, letters: Sequence[frozenset[frozenset[str]]] | None = None
    ) -> tuple[list[tuple[frozenset[str], int]], int]:
        """(machine states, copy) the automaton can occupy at each step,
        under any auxiliary inputs, as an `orbit`: the steps up to the first
        repeated pair, and the index it loops back to.

        `letters` holds one entry per copy: the set of input letters the
        step out of that copy may read (by default `machine.input_sets`,
        which bounds every flip).  A step from a state takes its successor
        under each allowed letter on the base machine and forces it with
        every set of controllable outputs that differ from their source
        values (forcing the others changes nothing), so the automaton's
        alphabet is never enumerated letter by letter.  Each step from a
        (states, copy) pair under a letter set is kept on the automaton, and
        the walk with every letter is kept whole.
        """
        if letters is None:
            if self._free_walk is None:
                every = frozenset(self.machine.input_sets)
                self._free_walk = self.step_sets([every] * len(self.source))
            return self._free_walk
        steps = self._steps

        def step(pair: tuple[frozenset[str], int]) -> tuple[frozenset[str], int]:
            allowed = letters[pair[1]]
            known = steps.get((pair, allowed))
            if known is None:
                known = steps[(pair, allowed)] = self._set_step(pair, allowed)
            return known

        return orbit((frozenset([self.machine.initial]), 0), step)

    def _set_step(
        self, pair: tuple[frozenset[str], int], allowed: frozenset[frozenset[str]]
    ) -> tuple[frozenset[str], int]:
        machine = self.machine
        states, k = pair
        k_next = self._successors[k]
        source_outputs = self._source_outputs[k_next]
        found = set()
        for succ in {machine.delta[(s, a)] for s in states for a in allowed}:
            differing = sorted((machine.labels[succ] ^ source_outputs) & self._controllable)
            for n in range(len(differing) + 1):  # forcing none of them gives `succ`
                for flagged in itertools.combinations(differing, n):
                    found.add(_forced_state(machine, succ, frozenset(flagged), source_outputs))
        return frozenset(found), k_next


def trace_automata(
    machine: MooreMachine, cex: Counterexample
) -> dict[str, CounterfactualAutomaton]:
    """One counterfactual automaton per trace of `cex`.  Building one checks
    that its trace is a run of `machine`, and the error names the trace.
    Then each trace's period must close on machine states (the run re-enters
    its loop start's state), since the copies stand for the positions of the
    representation."""
    automata = {}
    for name, trace in cex.traces.items():
        try:
            automata[name] = CounterfactualAutomaton(machine, trace)
        except ValidationError as exc:
            raise ValidationError(f"trace {name!r}: {exc}") from None
    for name, aut in automata.items():
        if aut.states[len(aut.source)] != aut.states[aut.loop_to]:
            raise ValidationError(
                f"trace {name!r}: period does not close on machine states; "
                "use a representation aligned with the state recurrence"
            )
    return automata


def intervention_word(
    automaton: CounterfactualAutomaton,
    cause: Iterable[Event],
    contingency: Iterable[Event],
) -> Lasso:
    """Input word for the counterfactual automaton realizing an intervention.

    Cause literals are flipped at their positions (recurring for loop
    positions); each contingency event raises the auxiliary input on every
    step that enters its position, so a loop event is re-applied on each
    iteration, including the loop-back step.  Each event passes
    `_check_event` in its role first.
    """
    cause, contingency = tuple(cause), tuple(contingency)
    for e in cause:
        _check_event(automaton, e, reset=False)
    for e in contingency:
        _check_event(automaton, e, reset=True)
    return _word(automaton, cause, contingency)


def _word(
    automaton: CounterfactualAutomaton, cause: Iterable[Event], contingency: Iterable[Event]
) -> Lasso:
    """`intervention_word` on events that have passed `_check_event`."""
    source = automaton.source
    inputs = frozenset(automaton.machine.inputs)
    word = [set(source.at(k) & inputs) for k in range(len(source))]
    for e in cause:
        if e.positive:
            word[e.position].discard(e.prop)
        else:
            word[e.position].add(e.prop)
    for e in contingency:
        for k, entered in enumerate(automaton._successors):
            if entered == e.position:
                word[k].add(contingency_flag(e.prop))
    return Lasso(word[:source.loop_start], word[source.loop_start:])


def _check_event(automaton: CounterfactualAutomaton, e: Event, reset: bool) -> None:
    """Raise unless `e` is a cause event of `automaton`'s trace (a satisfied
    input event) or, with `reset`, a contingency event it can reset (a
    satisfied event over a controllable output)."""
    source = automaton.source
    if not 0 <= e.position < len(source):
        raise ValidationError(
            f"event {e} position out of range (trace has {len(source)} positions)"
        )
    role, kind, props = (
        ("contingency", "output", automaton.machine.outputs) if reset
        else ("cause", "input", automaton.machine.inputs)
    )
    if e.prop not in props:
        raise ValidationError(f"{role} event {e} is not over an {kind}")
    if (e.prop in source.at(e.position)) != e.positive:
        raise ValidationError(f"{role} event {e} is not satisfied by the trace")
    if reset and e.prop not in automaton.controllable:
        raise ValidationError(
            f"output {e.prop!r} is not contingency-controllable on this machine"
        )


def _no_op(run: Lasso, source: Lasso, e: Event) -> bool:
    """Does `run` show reset event `e`'s output at its source value on every
    step into copy ``e.position``?  Then the reset leaves the run as it is:
    the forced state is chosen by the label of the state the run enters
    anyway (`_forced_state`), so forcing an output to the value it already
    has enters the same state, and the letters and the point of recurrence
    stay the same.  `run` is a run of `source`'s automaton (or `source`
    itself), whose positions follow the copies."""
    p = e.position
    steps = (p,) if p < source.loop_start else range(p, len(run), len(source.period))
    return all((e.prop in run.at(i)) == e.positive for i in steps)


class InterventionTable:
    """Search context for one (machine, formula, counterexample).

    The table builds one counterfactual automaton per trace, which validates
    the trace and which the candidate analysis reads too.  The searches call
    `require_violation`, which the constructor leaves out, so that a table
    can test any assignment.  The search tries contingencies of at most
    `max_contingency_size` events of `resets`.

    `satisfies_after(cause, contingency)` answers whether the property holds
    once `cause` is flipped and `contingency` reset.  Events are handled
    as bit footprints.  The constructor numbers every event a footprint
    can hold, once, in event order (trace name, position, proposition): each
    satisfied input event gets a cause bit and each satisfied event over a
    controllable output a reset bit, exactly the events `_check_event`
    passes in those roles.  `bits` and `reset_bits` look events up; an
    event with no bit of the role gets that role's `_check_event` error, on
    every call.  `events` turns a footprint back into its events, in event
    order; `resets` gives the reset bits on the traces a cause touches, and
    `input_bits` each input's bit per trace and position.  `holds(cause_bits,
    reset_bits)` is the test on ints, so a search that tries many
    contingencies for one cause pays for event handling once.  `holds`,
    `repairable` and `inert` take cause bits in the cause role and reset
    bits in the reset role (one int test per call, which raises
    `ValidationError` otherwise).

    The verdict depends only on what the body reads (the atoms of
    ``formula.program``), so each trace under a footprint is kept as a
    *view*: its run restricted to the propositions the body reads on that
    trace.  Views are interned, equal views sharing one id; verdicts are
    memoized on the tuple of view ids and evaluated on the views, and
    `evaluations` counts the distinct view tuples evaluated.  On a trace
    where the body reads no output, the view is the flipped input word
    restricted to the inputs it reads: no run is made there, and resets
    cannot change the view, so it is looked up by the cause bits alone.
    `intervened` returns each footprint's own run, making the run of such
    a trace when it is asked for.

    `runs` counts the runs the verdicts need.  One rule spares runs and
    queries: a reset of output `o` at position `p` to its source value `v`
    is a no-op on a run that shows `o` at `v` on every step whose copy is
    `p` (`_no_op`, which says why).  The table uses it at two points.  A
    lookup of a stored footprint plus such a reset reuses the stored run
    and its view (the check reads the stored footprint's own run, not a
    run of another footprint with the same view).  And `inert`, once per
    cause, names the resets that are no-ops on the flip-only runs, and
    every reset on a trace whose view needs no run: a set of them gives
    the flip-only world, so the contingency searches skip it without a
    query, and its lookups would only have reached stored entries.

    `repairable` keeps the bound words of each trace per footprint on it,
    and its answer per footprint.
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
        self.automata = trace_automata(machine, cex)
        inputs = frozenset(machine.inputs)
        props = sorted(inputs.union(controllable_outputs(machine)[0]))
        bits: dict[Event, int] = {}
        self._masks = dict.fromkeys(self.names, 0)  # per trace: the bits of its events
        # per trace and position: each input's bit
        self.input_bits: dict[str, list[dict[str, int]]] = {name: [] for name in self.names}
        causes = 0
        for name in sorted(self.names):
            trace, first = cex[name], len(bits)
            for n in range(len(trace)):
                here, inputs_here = trace.at(n), {}
                for prop in props:
                    bit = bits[Event(name, n, prop, prop in here)] = 1 << len(bits)
                    if prop in inputs:
                        inputs_here[prop] = bit
                        causes |= bit
                self.input_bits[name].append(inputs_here)
            self._masks[name] = (1 << len(bits)) - (1 << first)
        self._bits, self._events = bits, list(bits)  # the events in bit order
        # the bits of the cause events, of the reset events
        self._roles = [causes, ((1 << len(bits)) - 1) ^ causes]
        # per trace: the propositions the body reads on it; an atom whose
        # variable has no trace is left to the evaluator's arity error
        read: list[set[str]] = [set() for _ in self.names]
        for index, prop in formula.program.atoms:
            if index < len(read):
                read[index].add(prop)
        self.read = {name: frozenset(props) for name, props in zip(self.names, read)}
        outputs = frozenset(machine.outputs)
        self._word_only = {name for name, props in self.read.items() if not props & outputs}
        # per trace: the bits of the reset events that can change its view
        # (none where the view is the flipped input word)
        self._reset_masks = {
            name: 0 if name in self._word_only else mask for name, mask in self._masks.items()
        }
        self._views: list[Lasso] = []
        self._view_ids: dict[Lasso, int] = {}
        # per trace: footprint -> (view id, the footprint's own run, or None
        # on a trace whose view needs no run)
        self._runs = {
            name: {(0, 0): (self._view(name, cex[name]), cex[name])} for name in self.names
        }
        self._verdicts: dict[tuple[int, ...], bool] = {}
        # per trace: (cause, free) footprints on it -> its must and may words
        self._word_bounds = {name: {(0, 0): (cex[name], cex[name])} for name in self.names}
        self._repairable: dict[tuple[int, int | None], bool] = {}
        # per trace: (cause, reset) footprints on it -> the inert part of the resets
        self._inert: dict[str, dict[tuple[int, int], int]] = {name: {} for name in self.names}
        self.evaluations = 0
        self.runs = 0
        self.ruled_out = 0
        self.set_checks = 0

    def _view(self, name: str, word: Lasso) -> int:
        """Interned id of `word` restricted to what the body reads on `name`."""
        read = self.read[name]
        view = Lasso([a & read for a in word.prefix], [a & read for a in word.period])
        vid = self._view_ids.get(view)
        if vid is None:
            vid = self._view_ids[view] = len(self._views)
            self._views.append(view)
        return vid

    def bits(self, events: Iterable[Event]) -> int:
        """Footprint of the cause events `events`: the union of their bits."""
        return self._footprint(events, False)

    def reset_bits(self, events: Iterable[Event]) -> int:
        """Footprint of the contingency events `events`."""
        return self._footprint(events, True)

    def _footprint(self, events: Iterable[Event], reset: bool) -> int:
        footprint = 0
        role = self._roles[reset]
        for e in events:
            bit = self._bits.get(e, 0) & role
            if not bit:  # no event of the role: raise its error
                if e.trace not in self._masks:
                    raise ValidationError(f"event {e} references unknown trace {e.trace!r}")
                _check_event(self.automata[e.trace], e, reset)
            footprint |= bit
        return footprint

    def resets(self, cause_bits: int) -> int:
        """Footprint of every reset event on the traces `cause_bits` touches."""
        return self._roles[1] & sum(mask for mask in self._masks.values() if cause_bits & mask)

    def split(self, footprint: int) -> list[int]:
        """The parts of `footprint` on each trace it touches, in trace order."""
        return [footprint & mask for mask in self._masks.values() if footprint & mask]

    def events(self, footprint: int) -> tuple[Event, ...]:
        """The events of `footprint`, in event order."""
        return tuple(self._events[i] for i in range(footprint.bit_length()) if footprint >> i & 1)

    def _event(self, bit: int) -> Event:
        return self._events[bit.bit_length() - 1]

    def _refuse(self, footprint: int, reset: bool) -> None:
        """Raise for the bits of `footprint` outside its role (a cause
        footprint for `reset` False, a reset footprint otherwise): the
        role's `_check_event` error for the first such event."""
        stray = footprint & ~self._roles[reset]
        if not stray:
            return
        bit = stray & -stray
        if bit.bit_length() <= len(self._events):
            e = self._event(bit)
            _check_event(self.automata[e.trace], e, reset)
        role = "contingency" if reset else "cause"
        raise ValidationError(f"{role} footprint {footprint:#x} holds bits of no event")

    def _run(self, name: str, cause_bits: int, reset_bits: int) -> tuple[int, Lasso | None]:
        """(view id, run) of trace `name` under one footprint on it."""
        aut = self.automata[name]
        if name in self._word_only:
            word = _word(aut, self.events(cause_bits), ())
            return self._view(name, word), None
        runs = self._runs[name]
        rest = reset_bits
        while rest:
            bit = rest & -rest
            rest ^= bit
            known = runs.get((cause_bits, reset_bits ^ bit))
            if known is not None and _no_op(known[1], aut.source, self._event(bit)):
                return known
        run = aut.run(_word(aut, self.events(cause_bits), self.events(reset_bits)))
        self.runs += 1
        return self._view(name, run), run

    def _view_key(self, cause_bits: int, reset_bits: int) -> tuple[int, ...]:
        """The view id of each trace under a footprint, in trace order."""
        ids = []
        for name in self.names:
            key = (cause_bits & self._masks[name], reset_bits & self._reset_masks[name])
            runs = self._runs[name]
            known = runs.get(key)
            if known is None:
                known = runs[key] = self._run(name, *key)
            ids.append(known[0])
        return tuple(ids)

    def intervened(self, cause: Iterable[Event], contingency: Iterable[Event]) -> Counterexample:
        """The world after flipping `cause` under `contingency`: each
        trace's own run under its footprint."""
        cause_bits, reset_bits = self.bits(cause), self.reset_bits(contingency)
        self._view_key(cause_bits, reset_bits)  # stores each footprint's run
        world = {}
        for name in self.names:
            mask = self._masks[name]
            key = (cause_bits & mask, reset_bits & mask)
            run = self._runs[name].get(key, (None, None))[1]
            if run is None:  # a trace whose view needed no run
                aut = self.automata[name]
                run = aut.run(_word(aut, *map(self.events, key)))
            world[name] = run
        return Counterexample(world)

    def holds(self, cause_bits: int, reset_bits: int) -> bool:
        """`satisfies_after` on footprints made by `bits` and `reset_bits`."""
        if cause_bits & ~self._roles[0] or reset_bits & ~self._roles[1]:
            self._refuse(cause_bits, False)
            self._refuse(reset_bits, True)
        ids = self._view_key(cause_bits, reset_bits)
        verdict = self._verdicts.get(ids)
        if verdict is None:
            views = Counterexample({name: self._views[i] for name, i in zip(self.names, ids)})
            verdict = self._verdicts[ids] = eval_hyper(views, self.formula)
            self.evaluations += 1
        return verdict

    def _bounds(self, name: str, cause_bits: int, free_bits: int | None) -> tuple[Lasso, Lasso]:
        """Must and may words of trace `name` flipped by `cause_bits`, with
        each input event of `free_bits` flipped or not (their footprints on
        that trace; None frees every input), under any resets."""
        known = self._word_bounds[name].get((cause_bits, free_bits))
        if known is None:
            aut = self.automata[name]
            letters = None
            if free_bits is not None:
                word = _word(aut, self.events(cause_bits), ())
                free = [frozenset()] * len(aut.source)  # per copy, the free inputs
                for e in self.events(free_bits):
                    free[e.position] |= {e.prop}
                letters = [
                    frozenset(a for a in aut.machine.input_sets if a ^ letter <= props)
                    if props else frozenset((letter,))
                    for letter, props in zip(word.prefix + word.period, free)
                ]
            pairs, loop = aut.step_sets(letters)
            known = self._word_bounds[name][(cause_bits, free_bits)] = aut.machine.label_bounds(
                [held for held, _ in pairs], loop, letters and [letters[k] for _, k in pairs]
            )
        return known

    def repairable(self, cause_bits: int, free_bits: int | None = 0) -> bool:
        """Can flipping `cause_bits`, with each input event of `free_bits`
        flipped or not, under some contingency of any size, satisfy the
        property?  False is sure; True decides nothing.

        Each trace the footprints touch is bounded by its `step_sets`, each
        copy allowing the flipped letter with the free inputs in every
        combination, and every reset free; the other traces are exact
        (contingencies reset events on flipped traces only).  The body is
        evaluated three-valued on those words (`semantics.Program.bounds`).
        Step ``i`` of any run such flips and resets make of a trace is in a
        state of step set ``i``, so an output is surely present where every
        state of the set carries it and possibly present where some state
        does, and a proposition the machine lacks is absent
        (`MooreMachine.label_bounds`).  Every world's word lies between these
        must and may words, literal by literal, and LTL is monotone in its
        literals, so a body that cannot hold on them holds on no world.
        `ruled_out` counts the flip sets (`free_bits` empty) it rules out,
        `set_checks` the free sets it decides; `free_bits` None frees every
        input event on every trace (the cause search's pre-check), on the
        automata's kept walk with every input free.
        """
        self._refuse(cause_bits, False)
        self._refuse(free_bits or 0, False)
        verdict = self._repairable.get((cause_bits, free_bits))
        if verdict is None:
            must, may = zip(*(
                self._bounds(name, cause_bits & mask, free_bits and free_bits & mask)
                for name, mask in self._masks.items()
            ))
            verdict = self.formula.program.bounds(must, may)[1]
            self._repairable[(cause_bits, free_bits)] = verdict
            if free_bits == 0:
                self.ruled_out += not verdict
            else:
                self.set_checks += 1
        return verdict

    def inert(self, cause_bits: int, reset_bits: int) -> int:
        """The resets of `reset_bits` that leave the flip-only world of
        `cause_bits` as it is: each one on a trace whose view needs no run,
        and each one that the trace's flip-only run (its footprint
        ``(cause part, 0)``, which `holds(cause_bits, 0)` stores) already
        shows at its source value (`_no_op`).  By induction on the size of a
        set, a set of such resets gives the flip-only run on every trace, so
        its verdict is the flip's own.  Kept per trace and (cause part,
        reset part), which repeat across the oracle's cause subsets."""
        self._refuse(cause_bits, False)
        self._refuse(reset_bits, True)
        self._view_key(cause_bits, 0)  # stores each trace's flip-only run
        inert = 0
        for name, mask in self._masks.items():
            part = reset_bits & mask
            if not part:
                continue
            key = (cause_bits & mask, part)
            found = self._inert[name].get(key)
            if found is None:
                found = part & ~self._reset_masks[name]
                rest = part ^ found
                run = self._runs[name][(key[0], 0)][1]
                source = self.automata[name].source
                while rest:
                    bit = rest & -rest
                    rest ^= bit
                    if _no_op(run, source, self._event(bit)):
                        found |= bit
                self._inert[name][key] = found
            inert |= found
        return inert

    def satisfies_after(self, cause: Iterable[Event], contingency: Iterable[Event]) -> bool:
        return self.holds(self.bits(cause), self.reset_bits(contingency))

    def require_violation(self) -> None:
        """Raise `NothingToExplain` when the counterexample itself satisfies
        the formula: only a violation that occurred has a cause."""
        if self.holds(0, 0):
            raise NothingToExplain("the counterexample satisfies the formula")


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
