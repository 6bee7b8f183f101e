"""Explicit-state Moore machines with input-guarded transitions.

File format (JSON, version 1):

    {
      "format": 1,
      "inputs": ["hi"],
      "outputs": ["ho", "lo"],
      "states": [{"id": "s0", "label": []}, ...],
      "initial": "s0",
      "transitions": [{"from": "s0", "guard": "hi", "to": "s1"}, ...]
    }

Guards are Boolean expressions over input names with ``& | ! ( ) true
false``.  Loading evaluates each distinct guard text once to its truth
table over the subsets of the inputs (`boolexpr.evaluate`) and checks that
every state has exactly one true guard for every subset (deterministic and
total); `to_json` writes each state's guards back in DNF
(`boolexpr.guard_text`).  Files are read as bytes and decoded once
(`read_text`).
"""

from __future__ import annotations

import functools
import json
import os
import re
from collections.abc import Callable, Iterable, Mapping, Sequence

from . import boolexpr
from .errors import SizeGuardError, ValidationError
from .lasso import Lasso

MAX_INPUTS = 12

# a guard name (`boolexpr`), which may also contain '@': zipped traces split
# their keys at the last '@', so such names stay unambiguous, and guard
# syntax cannot produce it
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_'@]*")


def _check_name(name: str, what: str) -> None:
    if not _NAME.fullmatch(name):
        raise ValidationError(f"invalid {what} name {name!r}")
    if what == "input" and name in boolexpr.CONSTANTS:
        raise ValidationError(f"input name {name!r} is a guard constant")


@functools.cache
def _input_sets(inputs: tuple[str, ...]) -> tuple[frozenset[str], ...]:
    """`boolexpr.assignments(inputs)`, enumerated once per input tuple."""
    return tuple(boolexpr.assignments(inputs))


def walk(
    word: Lasso, initial, step: Callable, label: Callable, inputs: frozenset[str]
) -> tuple[list, Lasso]:
    """Run a deterministic stepper from `initial` along `word`.

    `step(state, letter)` is the successor and `label(state)` the outputs of
    a state.  Letter ``i`` of the output trace is the `inputs` of word
    letter ``i`` plus the label of the state at ``i``.  The walk stops at
    the first position whose pair (state, offset into the word's period)
    already occurred from the word's loop start on; the earlier occurrence
    is the trace's loop start.  Returns the states at positions ``0..n``,
    where ``n`` is the trace's length (the last state is the one the
    loop-back step enters), and the trace.
    """
    states = [initial]
    letters: list[frozenset[str]] = []
    seen: dict = {}
    state = initial
    while True:
        i = len(letters)
        phase = i - word.loop_start
        if phase >= 0:
            key = (state, phase % len(word.period))
            if key in seen:
                start = seen[key]
                return states, Lasso(letters[:start], letters[start:])
            seen[key] = i
        ins = word.at(i)
        letters.append((ins & inputs) | label(state))
        state = step(state, ins)
        states.append(state)


def orbit(initial, step: Callable) -> tuple[list, int]:
    """Values ``initial, step(initial), ...`` up to the first repeat, and the
    index of the value the repeat returns to: value ``i`` of the infinite
    sequence is entry ``i`` before that index, and wraps around from it on."""
    seen: dict = {}  # value -> index of its first visit
    value = initial
    while value not in seen:
        seen[value] = len(seen)
        value = step(value)
    return list(seen), seen[value]


class MooreMachine:
    """Finite-state transducer: outputs depend on the current state only."""

    def __init__(
        self,
        inputs: Iterable[str],
        outputs: Iterable[str],
        labels: Mapping[str, Iterable[str]],
        initial: str,
        delta: Mapping[tuple[str, frozenset[str]], str],
    ):
        self.inputs = tuple(inputs)
        self._input_set = frozenset(self.inputs)
        self.outputs = tuple(outputs)
        for n in self.inputs:
            _check_name(n, "input")
        for n in self.outputs:
            _check_name(n, "output")
        self._output_set = frozenset(self.outputs)
        if self._input_set & self._output_set:
            raise ValidationError("inputs and outputs must be disjoint")
        if len(self._input_set) != len(self.inputs) or len(self._output_set) != len(self.outputs):
            raise ValidationError("duplicate proposition names")
        if len(self.inputs) > MAX_INPUTS:
            raise SizeGuardError(f"more than {MAX_INPUTS} inputs")
        self.labels = {s: frozenset(l) for s, l in labels.items()}
        for s, l in self.labels.items():
            if not l <= self._output_set:
                raise ValidationError(f"state {s!r} label {sorted(l)} not a subset of outputs")
        if initial not in self.labels:
            raise ValidationError(f"initial state {initial!r} is not a state")
        # the state carrying each label, or None when several states carry it
        self._by_label: dict[frozenset[str], str | None] = {}
        for s, l in self.labels.items():
            self._by_label[l] = None if l in self._by_label else s
        self.initial = initial
        self.delta = dict(delta)
        # every input set, in the order of the bits of a guard's truth table
        self.input_sets = _input_sets(self.inputs)
        self._validate_delta()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_guards(
        cls,
        inputs: Iterable[str],
        outputs: Iterable[str],
        labels: Mapping[str, Iterable[str]],
        initial: str,
        transitions: Iterable[tuple[str, str, str]],
    ) -> "MooreMachine":
        """Build from (from_state, guard_text, to_state) triples.

        Each distinct guard text is evaluated once to its truth table over
        the input sets, and an error in it names the first transition that
        carries it.  Per state, one mask holds the input sets some guard
        covers and another those covered twice, so gaps and overlaps show
        without evaluating a guard per input set.
        """
        inputs = tuple(inputs)
        if len(inputs) > MAX_INPUTS:
            raise SizeGuardError(f"more than {MAX_INPUTS} inputs")
        for n in inputs:  # before the guards, which read `true` and `false` as constants
            _check_name(n, "input")
        input_sets = _input_sets(inputs)
        covered = dict.fromkeys(labels, 0)
        twice = dict.fromkeys(labels, 0)
        parsed = []
        rows = boolexpr.guard_rows(inputs)
        tables: dict[str, int] = {}  # guard text -> truth table
        for src, guard, dst in transitions:
            table = tables.get(guard)
            if table is None:
                table, bad = boolexpr.evaluate(guard, rows)
                if bad:
                    raise ValidationError(
                        f"guard {guard!r} on {src!r} uses non-input names {sorted(bad)}"
                    )
                tables[guard] = table
            if src not in covered:
                raise ValidationError(f"transition from unknown state {src!r}")
            if dst not in covered:
                raise ValidationError(f"transition from {src!r} targets unknown state {dst!r}")
            twice[src] |= covered[src] & table
            covered[src] |= table
            parsed.append((src, table, dst))
        full = (1 << len(input_sets)) - 1
        first = None  # the first failing (input set index, state), input-set-major
        for src, mask in covered.items():
            failing = (mask ^ full) | twice[src]
            if failing:
                i = (failing & -failing).bit_length() - 1  # lowest set bit
                if first is None or i < first[0]:
                    first = (i, src)
        if first is not None:
            i, src = first
            kind = "no" if not covered[src] >> i & 1 else "more than one"
            raise ValidationError(
                f"{kind} guard true in state {src!r} for input set "
                f"{{{', '.join(sorted(input_sets[i]))}}}"
            )
        delta = {
            (src, input_set): dst
            for src, table, dst in parsed
            for i, input_set in enumerate(input_sets)
            if table >> i & 1
        }
        return cls(inputs, outputs, labels, initial, delta)

    def _validate_delta(self) -> None:
        for assignment in self.input_sets:
            for s in self.labels:
                key = (s, assignment)
                if key not in self.delta:
                    raise ValidationError(
                        f"no transition from state {s!r} for input set "
                        f"{{{', '.join(sorted(assignment))}}}"
                    )
                if self.delta[key] not in self.labels:
                    raise ValidationError(
                        f"transition from {s!r} targets unknown state {self.delta[key]!r}"
                    )

    # -- basic queries -----------------------------------------------------

    def states(self) -> tuple[str, ...]:
        return tuple(self.labels)

    def state_labelled(self, label: frozenset[str]) -> str | None:
        """The only state labelled `label`; None when no state or several do."""
        return self._by_label.get(label)

    def successor(self, state: str, input_set: Iterable[str]) -> str:
        key = (state, frozenset(input_set) & self._input_set)
        try:
            return self.delta[key]
        except KeyError:
            raise ValidationError(
                f"no transition from state {state!r} for input set "
                f"{{{', '.join(sorted(key[1]))}}}"
            ) from None

    def input_support(self, state: str) -> frozenset[str]:
        """Inputs on which the successor of `state` depends."""
        relevant = set()
        for name in self.inputs:
            for assignment in self.input_sets:
                if self.delta[(state, assignment)] != self.delta[(state, assignment ^ {name})]:
                    relevant.add(name)
                    break
        return frozenset(relevant)

    def label_bounds(
        self,
        sets: Iterable[Iterable[str]],
        loop: int,
        letters: Sequence[frozenset[frozenset[str]]] | None = None,
    ) -> tuple[Lasso, Lasso]:
        """Must and may words of runs whose step ``i`` lies in state set ``i``
        (`orbit` order, looping back to `loop`): a step surely carries the
        outputs every state of its set carries, and possibly the outputs some
        state carries; likewise the inputs of every and of some letter step
        ``i`` allows (``letters[i]``, by default `input_sets`)."""
        must, may = [], []
        for i, states in enumerate(sets):
            labels = [self.labels[s] for s in states]
            if letters is None:  # every input letter: none surely, each possibly
                must.append(frozenset.intersection(*labels))
                may.append(self._input_set.union(*labels))
            else:
                allowed = letters[i]
                must.append(frozenset.intersection(*allowed) | frozenset.intersection(*labels))
                may.append(frozenset.union(*allowed, *labels))
        return Lasso(must[:loop], must[loop:]), Lasso(may[:loop], may[loop:])

    # -- semantics ---------------------------------------------------------

    def run(self, input_word: Lasso) -> Lasso:
        """Trace produced by feeding `input_word`; least lasso at state+input recurrence."""
        inputs = self._input_set
        extra = input_word.alphabet() - inputs
        if extra:
            raise ValidationError(f"input word uses non-input propositions {sorted(extra)}")
        return walk(input_word, self.initial, self.successor, self.labels.__getitem__, inputs)[1]

    def _check_trace(self, trace: Lasso) -> tuple[list[str], str | None]:
        """States of the run on the inputs of `trace`, and why and at which
        position the trace first leaves the run (None when it never does)."""
        inputs, outputs = self._input_set, self._output_set
        word = Lasso([a & inputs for a in trace.prefix], [a & inputs for a in trace.period])
        states, _ = walk(word, self.initial, self.successor, self.labels.__getitem__, inputs)
        for i, state in enumerate(states[:-1]):
            here = trace.at(i)
            if not here <= inputs | outputs:
                return states, f"unknown propositions {sorted(here - inputs - outputs)} @ {i}"
            if here & outputs != self.labels[state]:
                return states, (
                    f"outputs {sorted(here & outputs)} do not match state "
                    f"{state!r} label {sorted(self.labels[state])} @ {i}"
                )
        return states, None

    def validate_trace(self, trace: Lasso) -> bool:
        """Is `trace` a trace of this machine?  `state_sequence` says why not."""
        return self._check_trace(trace)[1] is None

    def state_sequence(self, trace: Lasso) -> tuple[str, ...]:
        """States at positions 0..|u|+|v| of a valid trace.

        The last entry is the state after the loop-back step; callers that
        analyse per-step transitions need it to coincide with the state at
        the loop start (state-recurrent representation).  The run reaches
        that position, since no (state, period offset) pair can repeat
        before it.  A trace that leaves the run raises `ValidationError`.
        """
        states, error = self._check_trace(trace)
        if error is not None:
            raise ValidationError(f"not a trace of the machine: {error}")
        return tuple(states[: len(trace) + 1])

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        transitions = []
        for src in self.labels:
            by_target: dict[str, list[frozenset[str]]] = {}
            for assignment in self.input_sets:
                by_target.setdefault(self.delta[(src, assignment)], []).append(assignment)
            for dst, sets in sorted(by_target.items()):
                transitions.append(
                    {"from": src, "guard": boolexpr.guard_text(self.inputs, sets), "to": dst}
                )
        return {
            "format": 1,
            "inputs": list(self.inputs),
            "outputs": list(self.outputs),
            "states": [{"id": s, "label": sorted(l)} for s, l in self.labels.items()],
            "initial": self.initial,
            "transitions": transitions,
        }


def read_text(path) -> str:
    """The text of the UTF-8 file at `path`, line ends read as text mode
    reads them (``\\r\\n`` and ``\\r`` as ``\\n``), so error offsets are the
    same; the bytes are read in one go and decoded once."""
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text


def _read_json(source):
    """The parsed JSON of a file path or file object; any other value as is."""
    if isinstance(source, (str, os.PathLike)):
        return json.loads(read_text(source))
    if hasattr(source, "read"):
        return json.load(source)
    return source


def _of(kind: type, value, *path):
    """`value`, which must have the JSON type `kind`.  The error names the
    field at `path` (keys and indices, as in ``states[1].label``)."""
    if not isinstance(value, kind):
        field = "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:]
        expected = {str: "a string", list: "an array", dict: "an object"}[kind]
        raise ValidationError(f"{field} must be {expected}")
    return value


def _entries(value, kind: type, *path) -> list:
    """`value`, which must be a JSON array of entries of JSON type `kind`."""
    if not (isinstance(value, list) and all(isinstance(x, kind) for x in value)):
        for i, x in enumerate(_of(list, value, *path)):
            _of(kind, x, *path, i)
    return value


def _check_format(data: dict, kind: str) -> None:
    """Refuse a file whose ``format`` is given and is not the integer 1
    (``true`` and ``1.0`` equal 1 in Python, but are no format number)."""
    value = data.get("format", 1)
    if type(value) is not int or value != 1:
        raise ValidationError(f"unsupported {kind} format {value!r}")


def load_machine(source) -> MooreMachine:
    """Load a machine from a JSON file path, file object, or parsed dict.
    A value of the wrong JSON type raises a `ValidationError` naming it."""
    data = _read_json(source)
    if not isinstance(data, dict):
        raise ValidationError("machine file must contain a JSON object")
    _check_format(data, "machine")
    try:
        states: dict[str, list] = {}
        for i, s in enumerate(_entries(data["states"], dict, "states")):
            state = _of(str, s["id"], "states", i, "id")
            if state in states:
                raise ValidationError(f"duplicate state id {state!r} at states[{i}]")
            states[state] = _entries(s.get("label", []), str, "states", i, "label")
        transitions = [
            (_of(str, t["from"], "transitions", i, "from"),
             _of(str, t["guard"], "transitions", i, "guard"),
             _of(str, t["to"], "transitions", i, "to"))
            for i, t in enumerate(_entries(data["transitions"], dict, "transitions"))
        ]
        return MooreMachine.from_guards(
            _entries(data["inputs"], str, "inputs"), _entries(data["outputs"], str, "outputs"),
            states, _of(str, data["initial"], "initial"), transitions,
        )
    except KeyError as exc:
        raise ValidationError(f"machine file missing field {exc}") from None


def load_traces(source) -> dict[str, Lasso]:
    """Load named lassos from a JSON trace file; a letter is an array of strings."""
    data = _read_json(source)
    if not isinstance(data, dict) or "traces" not in data:
        raise ValidationError("trace file must be a JSON object with a 'traces' field")
    _check_format(data, "trace")
    out: dict[str, Lasso] = {}
    for name, body in _of(dict, data["traces"], "traces").items():
        body = _of(dict, body, "traces", name)
        try:
            out[name] = Lasso(*(
                [_entries(x, str, "traces", name, part, i)
                 for i, x in enumerate(_entries(body[part], list, "traces", name, part))]
                for part in ("prefix", "period")
            ))
        except KeyError as exc:
            raise ValidationError(f"trace {name!r} malformed: {exc}") from None
    return out


def traces_to_json(traces: Mapping[str, Lasso]) -> dict:
    return {
        "format": 1,
        "traces": {
            name: {
                "prefix": [sorted(s) for s in t.prefix],
                "period": [sorted(s) for s in t.period],
            }
            for name, t in traces.items()
        },
    }
