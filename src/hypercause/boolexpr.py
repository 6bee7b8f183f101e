"""Transition guards of Moore machines, as truth tables.

A guard is a propositional formula over input names.  `guard_table`
evaluates it while parsing: the value of every subformula is its truth
table, an int with bit ``i`` set when the ``i``-th input set of
`assignments(inputs)` satisfies it.  So ``!`` is XOR with the full row,
``&`` and ``|`` are AND and OR, and ``true``/``false`` are the full row and
0.  `guard_text` prints a set of input sets back as a guard in DNF.  Desk
scale only: a table has one bit per subset of the inputs.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator

from .errors import ParseError


def assignments(variables: Iterable[str]) -> Iterator[frozenset[str]]:
    """All assignments over `variables`, as frozensets of true variables."""
    names = sorted(set(variables))
    for bits in itertools.product((False, True), repeat=len(names)):
        yield frozenset(n for n, b in zip(names, bits) if b)


# -- guard syntax: identifiers, !, &, |, parentheses, true/false ------------

_IDENT_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | frozenset("0123456789'")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()!&|":
            tokens.append((c, c, i))
            i += 1
            continue
        if c in _IDENT_START:
            j = i + 1
            while j < len(text) and text[j] in _IDENT_CONT:
                j += 1
            word = text[i:j]
            kind = "const" if word in ("true", "false") else "ident"
            tokens.append((kind, word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r} in guard", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _GuardParser:
    def __init__(self, text: str, rows: dict[str, int], full: int):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.rows = rows
        self.full = full
        self.unknown: set[str] = set()

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind: str):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> int:
        table = self.disjunction()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return table

    def disjunction(self) -> int:
        table = self.conjunction()
        while self.peek()[0] == "|":
            self.take("|")
            table |= self.conjunction()
        return table

    def conjunction(self) -> int:
        table = self.unary()
        while self.peek()[0] == "&":
            self.take("&")
            table &= self.unary()
        return table

    def unary(self) -> int:
        kind, value, pos = self.peek()
        if kind == "!":
            self.take("!")
            return self.unary() ^ self.full
        if kind == "(":
            self.take("(")
            inner = self.disjunction()
            self.take(")")
            return inner
        if kind == "const":
            self.take("const")
            return self.full if value == "true" else 0
        if kind == "ident":
            self.take("ident")
            if value not in self.rows:
                self.unknown.add(value)
                return 0
            return self.rows[value]
        raise ParseError(f"unexpected token {value!r} in guard", pos)


def guard_table(text: str, inputs: Iterable[str]) -> tuple[int, frozenset[str]]:
    """Truth table of guard `text` over `inputs`, and the names it uses that
    are not inputs (read as false)."""
    rows: dict[str, int] = {}
    size = 1
    # each name becomes the slowest-varying one so far (`assignments` varies
    # the last name fastest): the input sets without it, then with it
    for name in sorted(set(inputs), reverse=True):
        for other in rows:
            rows[other] |= rows[other] << size
        rows[name] = ((1 << size) - 1) << size
        size *= 2
    parser = _GuardParser(text, rows, (1 << size) - 1)
    table = parser.parse()
    return table, frozenset(parser.unknown)


def guard_text(inputs: Iterable[str], input_sets: Iterable[frozenset[str]]) -> str:
    """A guard true exactly on `input_sets`: one conjunction of literals per
    set, over `inputs` in their given order, or ``true`` when the sets are
    all the input sets."""
    inputs = tuple(inputs)
    input_sets = tuple(input_sets)
    if len(input_sets) == 1 << len(set(inputs)):
        return "true"
    terms = (" & ".join(n if n in s else f"!{n}" for n in inputs) for s in input_sets)
    return " | ".join(terms) or "false"
