"""Events and counterexamples.

An event is one proposition literal at one position of one named trace of a
counterexample; causes are sets of input events, contingencies sets of
output events.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping

from .errors import ValidationError
from .lasso import Lasso
from .values import Value


class Event(Value):
    __slots__ = ("trace", "position", "prop", "positive", "_hash")

    def __init__(self, trace: str, position: int, prop: str, positive: bool):
        object.__setattr__(self, "trace", trace)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "prop", prop)
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "_hash", hash((trace, position, prop, positive)))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._hash == other._hash and (
                self.trace == other.trace and self.position == other.position
                and self.prop == other.prop and self.positive == other.positive
            )
        return NotImplemented

    def __hash__(self):
        return self._hash

    def sort_key(self):
        # negative literals sort before positive ones at the same spot
        return (self.trace, self.position, self.prop, 1 if self.positive else 0)

    def __lt__(self, other: "Event"):
        return self.sort_key() < other.sort_key()

    def __str__(self):
        sign = "" if self.positive else "!"
        return f"<{sign}{self.prop},{self.position},{self.trace}>"


def sort_events(events: Iterable[Event]) -> tuple[Event, ...]:
    return tuple(sorted(set(events), key=Event.sort_key))


class Counterexample(Value):
    """Ordered assignment of named lasso traces to trace variables."""

    __slots__ = ("traces",)

    def __init__(self, traces: Mapping[str, Lasso]):
        if not traces:
            raise ValidationError("counterexample must assign at least one trace")
        object.__setattr__(self, "traces", dict(traces))

    def names(self) -> tuple[str, ...]:
        return tuple(self.traces)

    def lassos(self) -> tuple[Lasso, ...]:
        return tuple(self.traces.values())

    def __getitem__(self, name: str) -> Lasso:
        return self.traces[name]

    def __contains__(self, name: str) -> bool:
        return name in self.traces

    def _key(self) -> tuple:
        # the order binds traces to quantifiers
        return tuple(self.traces.items())

    def __repr__(self):
        inner = ", ".join(f"{k}: {v}" for k, v in self.traces.items())
        return f"<Counterexample {inner}>"


def satisfies_events(cex: Counterexample, events: Iterable[Event]) -> bool:
    """True iff every event names a trace of `cex` and its literal holds there."""
    for e in events:
        if e.trace not in cex:
            return False
        if (e.prop in cex[e.trace].at(e.position)) != e.positive:
            return False
    return True


def events_of_trace(name: str, trace: Lasso, props: Iterable[str]) -> Iterator[Event]:
    """Every satisfied literal over `props` in the finite representation."""
    props = sorted(props)
    for n in range(len(trace)):
        here = trace.at(n)
        for p in props:
            yield Event(name, n, p, p in here)


def satisfied_events(cex: Counterexample, props: Iterable[str]) -> tuple[Event, ...]:
    out: list[Event] = []
    for name, trace in cex.traces.items():
        out.extend(events_of_trace(name, trace, props))
    return sort_events(out)
