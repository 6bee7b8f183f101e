"""Temporal formula ASTs.

The same node types serve the quantified hyper formulas (atoms indexed by a
trace variable) and the plain linear-time formulas obtained by zipping; a
zipped atom over variable ``v`` reads proposition key ``prop@v`` on the
combined trace.  Derived operators (implication, equivalence, F, G) stay in
the AST for readable output and are only expanded when negating into
negation normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import UnsupportedFragmentError, ValidationError


class Formula:
    def __str__(self) -> str:
        from .printer import infix

        return infix(self)


@dataclass(frozen=True)
class Atom(Formula):
    prop: str
    var: str

    def key(self) -> str:
        return f"{self.prop}@{self.var}" if self.var else self.prop


@dataclass(frozen=True)
class Const(Formula):
    value: bool


@dataclass(frozen=True)
class Not(Formula):
    arg: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Next(Formula):
    arg: Formula


@dataclass(frozen=True)
class Eventually(Formula):
    arg: Formula


@dataclass(frozen=True)
class Always(Formula):
    arg: Formula


@dataclass(frozen=True)
class Until(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Release(Formula):
    left: Formula
    right: Formula


TRUE = Const(True)
FALSE = Const(False)

UNARY = (Not, Next, Eventually, Always)
BINARY = (And, Or, Implies, Iff, Until, Release)

# Infix syntax.  Binary operators: symbol, precedence (higher binds tighter)
# and whether the operator groups to the right; unary operators bind tighter
# than every binary one.
INFIX_BINARY = {
    Iff: ("<->", 1, False),
    Implies: ("->", 2, True),
    Or: ("|", 3, False),
    And: ("&", 4, False),
    Until: ("U", 5, True),
    Release: ("R", 5, True),
}
INFIX_UNARY = {Not: "!", Next: "X", Eventually: "F", Always: "G"}

# Canonical s-expression heads; ``(Neq a b)`` stands for ``Not(Iff(a, b))``.
SEXPR_HEADS = {
    Not: "Not", And: "And", Or: "Or", Implies: "Implies", Iff: "Eq",
    Next: "X", Eventually: "F", Always: "G", Until: "Until", Release: "Release",
}


@dataclass(frozen=True)
class HyperFormula:
    """Universally quantified formula: prefix of trace variables plus a body."""

    variables: tuple[str, ...]
    body: Formula

    def __post_init__(self):
        if not self.variables:
            raise UnsupportedFragmentError("quantifier prefix must not be empty")
        if len(set(self.variables)) != len(self.variables):
            raise ValidationError("duplicate trace variables in prefix")
        unbound = {a.var for a in atoms(self.body)} - set(self.variables)
        if unbound:
            raise ValidationError(f"atoms reference unbound trace variables {sorted(unbound)}")

    def __str__(self) -> str:
        from .printer import infix

        return f"forall {' '.join(self.variables)}. {infix(self.body)}"

    @cached_property
    def program(self):
        """The body compiled for `semantics.eval_hyper`, built on first use."""
        from .semantics import compile_body

        return compile_body(self)


def children(f: Formula) -> tuple[Formula, ...]:
    """Direct subformulas of `f`, left to right."""
    if isinstance(f, UNARY):
        return (f.arg,)
    if isinstance(f, BINARY):
        return (f.left, f.right)
    if isinstance(f, (Atom, Const)):
        return ()
    raise TypeError(f"not a formula node: {f!r}")


def atoms(f: Formula) -> list[Atom]:
    """Distinct atoms of `f`, left to right."""
    out: dict[Atom, None] = {}
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            out[node] = None
        else:
            stack.extend(reversed(children(node)))
    return list(out)


def subformulas(f: Formula) -> list[Formula]:
    """Postorder list of distinct subformulas."""
    seen: dict[Formula, None] = {}

    def walk(node: Formula):
        if node in seen:
            return
        for child in children(node):
            walk(child)
        seen[node] = None

    walk(f)
    return list(seen)


# what each operator becomes under a negation pushed through it
_DUAL = {And: Or, Or: And, Eventually: Always, Always: Eventually,
         Until: Release, Release: Until, Next: Next}


def _nnf(f: Formula, positive: bool) -> Formula:
    """Negation normal form of `f`, or of its negation when not `positive`."""
    if isinstance(f, Atom):
        return f if positive else Not(f)
    if isinstance(f, Const):
        return f if positive else Const(not f.value)
    if isinstance(f, Not):
        return _nnf(f.arg, not positive)
    if isinstance(f, Implies):
        f = Or(Not(f.left), f.right)  # a -> b is !a | b
    elif isinstance(f, Iff):
        return Or(
            And(_nnf(f.left, True), _nnf(f.right, positive)),
            And(_nnf(f.left, False), _nnf(f.right, not positive)),
        )
    args = [_nnf(child, positive) for child in children(f)]
    return (type(f) if positive else _DUAL[type(f)])(*args)


def nnf(f: Formula) -> Formula:
    """Equivalent formula with negation on atoms only and no derived Booleans."""
    return _nnf(f, True)


def negate_to_nnf(f: Formula) -> Formula:
    """Negation normal form of the negation, via the U/R and F/G dualities."""
    return _nnf(f, False)


def is_nnf(f: Formula) -> bool:
    if isinstance(f, Not):
        return isinstance(f.arg, Atom)
    if isinstance(f, (Implies, Iff)):
        return False
    return all(is_nnf(child) for child in children(f))
