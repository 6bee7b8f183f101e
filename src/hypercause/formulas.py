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


def atoms(f: Formula) -> set[Atom]:
    out: set[Atom] = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            out.add(node)
        elif isinstance(node, Const):
            pass
        elif isinstance(node, (Not, Next, Eventually, Always)):
            stack.append(node.arg)
        elif isinstance(node, (And, Or, Implies, Iff, Until, Release)):
            stack.append(node.left)
            stack.append(node.right)
        else:
            raise TypeError(f"not a formula node: {node!r}")
    return out


def subformulas(f: Formula) -> list[Formula]:
    """Postorder list of distinct subformulas."""
    seen: dict[Formula, None] = {}

    def walk(node: Formula):
        if node in seen:
            return
        if isinstance(node, (Not, Next, Eventually, Always)):
            walk(node.arg)
        elif isinstance(node, (And, Or, Implies, Iff, Until, Release)):
            walk(node.left)
            walk(node.right)
        seen[node] = None

    walk(f)
    return list(seen)


def size(f: Formula) -> int:
    return len(subformulas(f))


def nnf(f: Formula) -> Formula:
    """Equivalent formula with negation on atoms only and no derived Booleans."""
    if isinstance(f, Atom) or isinstance(f, Const):
        return f
    if isinstance(f, Not):
        return negate_to_nnf(f.arg)
    if isinstance(f, And):
        return And(nnf(f.left), nnf(f.right))
    if isinstance(f, Or):
        return Or(nnf(f.left), nnf(f.right))
    if isinstance(f, Implies):
        return Or(negate_to_nnf(f.left), nnf(f.right))
    if isinstance(f, Iff):
        return Or(
            And(nnf(f.left), nnf(f.right)),
            And(negate_to_nnf(f.left), negate_to_nnf(f.right)),
        )
    if isinstance(f, Next):
        return Next(nnf(f.arg))
    if isinstance(f, Eventually):
        return Eventually(nnf(f.arg))
    if isinstance(f, Always):
        return Always(nnf(f.arg))
    if isinstance(f, Until):
        return Until(nnf(f.left), nnf(f.right))
    if isinstance(f, Release):
        return Release(nnf(f.left), nnf(f.right))
    raise TypeError(f"not a formula node: {f!r}")


def negate_to_nnf(f: Formula) -> Formula:
    """Negation normal form of the negation, via the U/R and F/G dualities."""
    if isinstance(f, Atom):
        return Not(f)
    if isinstance(f, Const):
        return Const(not f.value)
    if isinstance(f, Not):
        return nnf(f.arg)
    if isinstance(f, And):
        return Or(negate_to_nnf(f.left), negate_to_nnf(f.right))
    if isinstance(f, Or):
        return And(negate_to_nnf(f.left), negate_to_nnf(f.right))
    if isinstance(f, Implies):
        return And(nnf(f.left), negate_to_nnf(f.right))
    if isinstance(f, Iff):
        return Or(
            And(nnf(f.left), negate_to_nnf(f.right)),
            And(negate_to_nnf(f.left), nnf(f.right)),
        )
    if isinstance(f, Next):
        return Next(negate_to_nnf(f.arg))
    if isinstance(f, Eventually):
        return Always(negate_to_nnf(f.arg))
    if isinstance(f, Always):
        return Eventually(negate_to_nnf(f.arg))
    if isinstance(f, Until):
        return Release(negate_to_nnf(f.left), negate_to_nnf(f.right))
    if isinstance(f, Release):
        return Until(negate_to_nnf(f.left), negate_to_nnf(f.right))
    raise TypeError(f"not a formula node: {f!r}")


def is_nnf(f: Formula) -> bool:
    if isinstance(f, (Atom, Const)):
        return True
    if isinstance(f, Not):
        return isinstance(f.arg, Atom)
    if isinstance(f, (Next, Eventually, Always)):
        return is_nnf(f.arg)
    if isinstance(f, (And, Or, Until, Release)):
        return is_nnf(f.left) and is_nnf(f.right)
    if isinstance(f, (Implies, Iff)):
        return False
    raise TypeError(f"not a formula node: {f!r}")
