"""Temporal formula ASTs.

The same node types serve the quantified hyper formulas (atoms indexed by a
trace variable) and the plain linear-time formulas obtained by zipping; a
zipped atom over variable ``v`` reads proposition key ``prop@v`` on the
combined trace.  Derived operators (implication, equivalence, F, G) stay in
the AST for readable output and are only expanded when negating into
negation normal form.
"""

from __future__ import annotations

from .errors import UnsupportedFragmentError, ValidationError
from .values import Value


class Formula(Value):
    __slots__ = ()

    def __str__(self) -> str:
        return infix(self)


class Atom(Formula):
    __slots__ = ("prop", "var")

    def __init__(self, prop: str, var: str):
        object.__setattr__(self, "prop", prop)
        object.__setattr__(self, "var", var)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.prop == other.prop and self.var == other.var
        return NotImplemented

    def __hash__(self):
        return hash((self.prop, self.var))

    def key(self) -> str:
        return f"{self.prop}@{self.var}" if self.var else self.prop


class Const(Formula):
    __slots__ = ("value",)

    def __init__(self, value: bool):
        object.__setattr__(self, "value", value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.value == other.value
        return NotImplemented

    def __hash__(self):
        return hash((self.value,))


class _Unary(Formula):
    """Methods of the one-operand nodes.  Each node declares its slot `arg`
    itself, so that `Value` finds the fields in the node's `__slots__`."""

    __slots__ = ()

    def __init__(self, arg: Formula):
        object.__setattr__(self, "arg", arg)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.arg is other.arg or self.arg == other.arg
        return NotImplemented

    def __hash__(self):
        return hash((self.arg,))


class _Binary(Formula):
    """Methods of the two-operand nodes, whose slots are `left` and `right`."""

    __slots__ = ()

    def __init__(self, left: Formula, right: Formula):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.left is other.left or self.left == other.left) and (
                self.right is other.right or self.right == other.right
            )
        return NotImplemented

    def __hash__(self):
        return hash((self.left, self.right))


class Not(_Unary):
    __slots__ = ("arg",)


class And(_Binary):
    __slots__ = ("left", "right")


class Or(_Binary):
    __slots__ = ("left", "right")


class Implies(_Binary):
    __slots__ = ("left", "right")


class Iff(_Binary):
    __slots__ = ("left", "right")


class Next(_Unary):
    __slots__ = ("arg",)


class Eventually(_Unary):
    __slots__ = ("arg",)


class Always(_Unary):
    __slots__ = ("arg",)


class Until(_Binary):
    __slots__ = ("left", "right")


class Release(_Binary):
    __slots__ = ("left", "right")


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
_UNARY_PREC = 1 + max(prec for _, prec, _ in INFIX_BINARY.values())

# Canonical s-expression heads; ``(Neq a b)`` stands for ``Not(Iff(a, b))``.
SEXPR_HEADS = {
    Not: "Not", And: "And", Or: "Or", Implies: "Implies", Iff: "Eq",
    Next: "X", Eventually: "F", Always: "G", Until: "Until", Release: "Release",
}


class HyperFormula(Value):
    """Universally quantified formula: prefix of trace variables plus a body."""

    __slots__ = ("variables", "body", "_program")

    def __init__(self, variables: tuple[str, ...], body: Formula):
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "body", body)
        object.__setattr__(self, "_program", None)
        if not variables:
            raise UnsupportedFragmentError("quantifier prefix must not be empty")
        if len(set(variables)) != len(variables):
            raise ValidationError("duplicate trace variables in prefix")
        unbound = {a.var for a in atoms(body)} - set(variables)
        if unbound:
            raise ValidationError(f"atoms reference unbound trace variables {sorted(unbound)}")

    def __str__(self) -> str:
        return f"forall {' '.join(self.variables)}. {infix(self.body)}"

    @property
    def program(self):
        """The body compiled for `semantics.eval_hyper`, built on first use."""
        if self._program is None:
            from .semantics import compile_body

            object.__setattr__(self, "_program", compile_body(self))
        return self._program


def infix(f: Formula) -> str:
    """`f` in infix syntax, with the parentheses its precedences need."""

    def render(node, parent_prec):
        if isinstance(node, Atom):
            return f"{node.prop}[{node.var}]" if node.var else node.prop
        if isinstance(node, Const):
            return "true" if node.value else "false"
        if isinstance(node, UNARY):
            sym, prec = INFIX_UNARY[type(node)], _UNARY_PREC
            sep = " " if sym.isalpha() else ""
            # the operand one level lower, so that a unary chain stays bare
            text = f"{sym}{sep}{render(node.arg, prec - 1)}"
        else:
            sym, prec, right_assoc = INFIX_BINARY[type(node)]
            lp = prec if right_assoc else prec - 1
            rp = prec - 1 if right_assoc else prec
            text = f"{render(node.left, lp)} {sym} {render(node.right, rp)}"
        if prec <= parent_prec:
            return f"({text})"
        return text

    return render(f, 0)


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
