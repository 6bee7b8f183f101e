"""Ultimately periodic words in finite lasso form u . v^omega."""

from __future__ import annotations

from math import gcd

from .errors import ValidationError


class Lasso:
    """A word ``u . v^omega`` over letters that are sets of proposition names.

    The stored representation is preserved as constructed (event positions
    refer to it); equality and hashing go through the canonical form, which
    has the shortest period and then the shortest prefix.
    """

    __slots__ = ("prefix", "period", "_ckey")

    def __init__(self, prefix, period):
        prefix = tuple(frozenset(p) for p in prefix)
        period = tuple(frozenset(p) for p in period)
        if not period:
            raise ValidationError("lasso period must be non-empty")
        object.__setattr__(self, "prefix", prefix)
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "_ckey", None)

    def __setattr__(self, *a):
        raise AttributeError("Lasso is immutable")

    @property
    def loop_start(self) -> int:
        return len(self.prefix)

    def __len__(self) -> int:
        """Length of the finite representation |u| + |v|."""
        return len(self.prefix) + len(self.period)

    def at(self, n: int) -> frozenset[str]:
        if n < 0:
            raise IndexError(n)
        if n < len(self.prefix):
            return self.prefix[n]
        return self.period[(n - len(self.prefix)) % len(self.period)]

    __getitem__ = at

    def successors(self) -> tuple[int, ...]:
        """Position after each position of the finite representation: the
        next one, and the loop start after the last."""
        return (*range(1, len(self)), self.loop_start)

    def alphabet(self) -> frozenset[str]:
        out: set[str] = set()
        for s in self.prefix + self.period:
            out |= s
        return frozenset(out)

    def canonical(self) -> "Lasso":
        period = list(self.period)
        # shortest repeating block of the period
        for d in range(1, len(period) + 1):
            if len(period) % d == 0 and all(period[i] == period[i % d] for i in range(len(period))):
                period = period[:d]
                break
        prefix = list(self.prefix)
        # fold prefix letters that merely repeat the tail of the loop
        while prefix and prefix[-1] == period[-1]:
            prefix.pop()
            period = [period[-1]] + period[:-1]
        return Lasso(prefix, period)

    def _key(self):
        if self._ckey is None:
            c = self.canonical()
            object.__setattr__(self, "_ckey", (c.prefix, c.period))
        return self._ckey

    def __eq__(self, other):
        if not isinstance(other, Lasso):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Lasso({list(map(set, self.prefix))!r}, {list(map(set, self.period))!r})"

    def __str__(self):
        def fmt(s):
            return "{" + ",".join(sorted(s)) + "}"

        head = " ".join(fmt(s) for s in self.prefix)
        loop = " ".join(fmt(s) for s in self.period)
        return (head + " " if head else "") + f"({loop})^w"


def lcm(a: int, b: int) -> int:
    return a // gcd(a, b) * b


def joint_shape(lassos) -> tuple[int, int]:
    """(prefix, period) lengths of the joint unrolling of `lassos`: the
    longest prefix, then the least common multiple of the periods."""
    loop, period = 0, 1
    for t in lassos:
        loop = max(loop, t.loop_start)
        period = lcm(period, len(t.period))
    return loop, period
