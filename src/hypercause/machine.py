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
false``.  Loading parses each guard to its truth table over the subsets of
the inputs (`boolexpr.guard_table`) and checks that every state has exactly
one true guard for every subset (deterministic and total); `to_json` writes
each state's guards back in DNF (`boolexpr.guard_text`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from . import boolexpr
from .errors import SizeGuardError, ValidationError
from .lasso import Lasso

MAX_INPUTS = 12

_IDENT_OK = boolexpr._IDENT_START
_IDENT_CONT_OK = boolexpr._IDENT_CONT


def _check_name(name: str, what: str) -> None:
    # names may contain '@' (zipped traces split their keys at the last
    # '@', so such names stay unambiguous); guard syntax cannot produce it
    allowed = _IDENT_CONT_OK | {"@"}
    if not name or name[0] not in _IDENT_OK or any(c not in allowed for c in name[1:]):
        raise ValidationError(f"invalid {what} name {name!r}")


@dataclass(frozen=True)
class TraceDiagnostic:
    ok: bool
    position: int | None = None
    message: str = ""

    def __bool__(self):
        return self.ok


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
        self.outputs = tuple(outputs)
        for n in self.inputs:
            _check_name(n, "input")
        for n in self.outputs:
            _check_name(n, "output")
        if set(self.inputs) & set(self.outputs):
            raise ValidationError("inputs and outputs must be disjoint")
        if len(set(self.inputs)) != len(self.inputs) or len(set(self.outputs)) != len(self.outputs):
            raise ValidationError("duplicate proposition names")
        if len(self.inputs) > MAX_INPUTS:
            raise SizeGuardError(f"more than {MAX_INPUTS} inputs")
        self.labels = {s: frozenset(l) for s, l in labels.items()}
        for s, l in self.labels.items():
            if not l <= set(self.outputs):
                raise ValidationError(f"state {s!r} label {sorted(l)} not a subset of outputs")
        if initial not in self.labels:
            raise ValidationError(f"initial state {initial!r} is not a state")
        self.initial = initial
        self.delta = dict(delta)
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

        Each guard is parsed to its truth table over the input sets.  Per
        state, one mask holds the input sets some guard covers and another
        those covered twice, so gaps and overlaps show without evaluating a
        guard per input set.
        """
        inputs = tuple(inputs)
        if len(inputs) > MAX_INPUTS:
            raise SizeGuardError(f"more than {MAX_INPUTS} inputs")
        input_sets = tuple(boolexpr.assignments(inputs))
        covered = dict.fromkeys(labels, 0)
        twice = dict.fromkeys(labels, 0)
        parsed = []
        for src, guard, dst in transitions:
            table, bad = boolexpr.guard_table(guard, inputs)
            if bad:
                raise ValidationError(
                    f"guard {guard!r} on {src!r} uses non-input names {sorted(bad)}"
                )
            if src not in covered:
                raise ValidationError(f"transition from unknown state {src!r}")
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
        for assignment in boolexpr.assignments(self.inputs):
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

    def label(self, state: str) -> frozenset[str]:
        return self.labels[state]

    def successor(self, state: str, input_set: Iterable[str]) -> str:
        key = (state, frozenset(input_set) & frozenset(self.inputs))
        try:
            return self.delta[key]
        except KeyError:
            raise ValidationError(
                f"no transition from state {state!r} for input set "
                f"{{{', '.join(sorted(key[1]))}}}"
            ) from None

    def reachable_states(self) -> tuple[str, ...]:
        seen = [self.initial]
        frontier = [self.initial]
        while frontier:
            s = frontier.pop()
            for assignment in boolexpr.assignments(self.inputs):
                t = self.delta[(s, assignment)]
                if t not in seen:
                    seen.append(t)
                    frontier.append(t)
        return tuple(seen)

    def input_support(self, state: str) -> frozenset[str]:
        """Inputs on which the successor of `state` depends."""
        relevant = set()
        for name in self.inputs:
            for assignment in boolexpr.assignments(self.inputs):
                if self.delta[(state, assignment)] != self.delta[(state, assignment ^ {name})]:
                    relevant.add(name)
                    break
        return frozenset(relevant)

    # -- semantics ---------------------------------------------------------

    def run(self, input_word: Lasso) -> Lasso:
        """Trace produced by feeding `input_word`; least lasso at state+input recurrence."""
        extra = input_word.alphabet() - set(self.inputs)
        if extra:
            raise ValidationError(f"input word uses non-input propositions {sorted(extra)}")
        letters: list[frozenset[str]] = []
        state = self.initial
        seen: dict[tuple[str, int], int] = {}
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
            letters.append(ins | self.labels[state])
            state = self.successor(state, ins)
            step += 1

    def validate_trace(self, trace: Lasso) -> TraceDiagnostic:
        """Accepts iff `trace` is a trace of this machine; reports first bad position."""
        ap = set(self.inputs) | set(self.outputs)
        state = self.initial
        seen: set[tuple[str, int]] = set()
        step = 0
        while True:
            here = trace.at(step)
            if not here <= ap:
                return TraceDiagnostic(False, step, f"unknown propositions {sorted(here - ap)}")
            if here & set(self.outputs) != self.labels[state]:
                return TraceDiagnostic(
                    False,
                    step,
                    f"outputs {sorted(here & set(self.outputs))} do not match state "
                    f"{state!r} label {sorted(self.labels[state])}",
                )
            phase = step - trace.loop_start
            if phase >= 0:
                key = (state, phase % len(trace.period))
                if key in seen:
                    return TraceDiagnostic(True)
                seen.add(key)
            state = self.successor(state, here & set(self.inputs))
            step += 1

    def state_sequence(self, trace: Lasso) -> tuple[str, ...]:
        """States at positions 0..|u|+|v| of a valid trace.

        The last entry is the state after the loop-back step; callers that
        analyse per-step transitions need it to coincide with the state at
        the loop start (state-recurrent representation).
        """
        diag = self.validate_trace(trace)
        if not diag:
            raise ValidationError(f"not a trace of the machine: {diag.message} @ {diag.position}")
        states = [self.initial]
        for n in range(len(trace)):
            states.append(self.successor(states[-1], trace.at(n) & set(self.inputs)))
        return tuple(states)

    def is_state_recurrent(self, trace: Lasso) -> bool:
        states = self.state_sequence(trace)
        return states[len(trace)] == states[trace.loop_start]

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        transitions = []
        for src in self.labels:
            by_target: dict[str, list[frozenset[str]]] = {}
            for assignment in boolexpr.assignments(self.inputs):
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


def load_machine(source) -> MooreMachine:
    """Load a machine from a JSON file path, file object, or parsed dict."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    elif hasattr(source, "read"):
        data = json.load(source)
    else:
        data = source
    if not isinstance(data, dict):
        raise ValidationError("machine file must contain a JSON object")
    if data.get("format", 1) != 1:
        raise ValidationError(f"unsupported machine format {data.get('format')!r}")
    try:
        states = {s["id"]: s.get("label", []) for s in data["states"]}
        transitions = [(t["from"], t["guard"], t["to"]) for t in data["transitions"]]
        return MooreMachine.from_guards(
            data["inputs"], data["outputs"], states, data["initial"], transitions
        )
    except KeyError as exc:
        raise ValidationError(f"machine file missing field {exc}") from None


def load_traces(source) -> dict[str, Lasso]:
    """Load named lassos from a JSON trace file."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    elif hasattr(source, "read"):
        data = json.load(source)
    else:
        data = source
    if not isinstance(data, dict) or "traces" not in data:
        raise ValidationError("trace file must be a JSON object with a 'traces' field")
    if data.get("format", 1) != 1:
        raise ValidationError(f"unsupported trace format {data.get('format')!r}")
    out: dict[str, Lasso] = {}
    for name, body in data["traces"].items():
        try:
            out[name] = Lasso(
                [frozenset(x) for x in body["prefix"]],
                [frozenset(x) for x in body["period"]],
            )
        except (KeyError, TypeError) as exc:
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
