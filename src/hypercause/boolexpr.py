"""Propositional expressions over named variables.

Used for transition guards of Moore machines (variables are input
proposition names).  Desk scale only: machines enumerate every assignment
of their inputs (`assignments`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ParseError


class BoolExpr:
    def evaluate(self, true_vars: frozenset[str]) -> bool:
        raise NotImplementedError

    def variables(self) -> frozenset[str]:
        raise NotImplementedError

    def __str__(self) -> str:
        return to_infix(self)


@dataclass(frozen=True)
class Const(BoolExpr):
    value: bool

    def evaluate(self, true_vars):
        return self.value

    def variables(self):
        return frozenset()


@dataclass(frozen=True)
class Var(BoolExpr):
    name: str

    def evaluate(self, true_vars):
        return self.name in true_vars

    def variables(self):
        return frozenset((self.name,))


@dataclass(frozen=True)
class Not(BoolExpr):
    arg: BoolExpr

    def evaluate(self, true_vars):
        return not self.arg.evaluate(true_vars)

    def variables(self):
        return self.arg.variables()


@dataclass(frozen=True)
class And(BoolExpr):
    args: tuple[BoolExpr, ...]

    def evaluate(self, true_vars):
        return all(a.evaluate(true_vars) for a in self.args)

    def variables(self):
        return frozenset().union(*(a.variables() for a in self.args)) if self.args else frozenset()


@dataclass(frozen=True)
class Or(BoolExpr):
    args: tuple[BoolExpr, ...]

    def evaluate(self, true_vars):
        return any(a.evaluate(true_vars) for a in self.args)

    def variables(self):
        return frozenset().union(*(a.variables() for a in self.args)) if self.args else frozenset()


TRUE = Const(True)
FALSE = Const(False)


def conj(args: Iterable[BoolExpr]) -> BoolExpr:
    args = tuple(args)
    if not args:
        return TRUE
    if len(args) == 1:
        return args[0]
    return And(args)


def disj(args: Iterable[BoolExpr]) -> BoolExpr:
    args = tuple(args)
    if not args:
        return FALSE
    if len(args) == 1:
        return args[0]
    return Or(args)


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
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind: str):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self) -> BoolExpr:
        expr = self.disjunction()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return expr

    def disjunction(self) -> BoolExpr:
        parts = [self.conjunction()]
        while self.peek()[0] == "|":
            self.take("|")
            parts.append(self.conjunction())
        return disj(parts)

    def conjunction(self) -> BoolExpr:
        parts = [self.unary()]
        while self.peek()[0] == "&":
            self.take("&")
            parts.append(self.unary())
        return conj(parts)

    def unary(self) -> BoolExpr:
        kind, value, pos = self.peek()
        if kind == "!":
            self.take("!")
            return Not(self.unary())
        if kind == "(":
            self.take("(")
            inner = self.disjunction()
            self.take(")")
            return inner
        if kind == "const":
            self.take("const")
            return TRUE if value == "true" else FALSE
        if kind == "ident":
            self.take("ident")
            return Var(value)
        raise ParseError(f"unexpected token {value!r} in guard", pos)


def parse_guard(text: str) -> BoolExpr:
    return _GuardParser(text).parse()


def to_infix(expr: BoolExpr) -> str:
    if isinstance(expr, Const):
        return "true" if expr.value else "false"
    if isinstance(expr, Var):
        return expr.name
    if isinstance(expr, Not):
        inner = to_infix(expr.arg)
        if isinstance(expr.arg, (And, Or)):
            return f"!({inner})"
        return f"!{inner}"
    if isinstance(expr, And):
        return " & ".join(
            f"({to_infix(a)})" if isinstance(a, Or) else to_infix(a) for a in expr.args
        )
    if isinstance(expr, Or):
        return " | ".join(to_infix(a) for a in expr.args)
    raise TypeError(f"not a BoolExpr: {expr!r}")
