"""Pretty printers for formulas: infix and s-expression forms."""

from __future__ import annotations

from . import formulas as F

# precedence: higher binds tighter
_PREC = {
    F.Iff: 1,
    F.Implies: 2,
    F.Or: 3,
    F.And: 4,
    F.Until: 5,
    F.Release: 5,
    F.Not: 6,
    F.Next: 6,
    F.Eventually: 6,
    F.Always: 6,
    F.Atom: 7,
    F.Const: 7,
}

_BIN_SYMBOL = {F.Iff: "<->", F.Implies: "->", F.Or: "|", F.And: "&", F.Until: "U", F.Release: "R"}
_UN_SYMBOL = {F.Not: "!", F.Next: "X", F.Eventually: "F", F.Always: "G"}


def infix(f: F.Formula) -> str:
    def render(node, parent_prec, right_side=False):
        prec = _PREC[type(node)]
        if isinstance(node, F.Atom):
            text = f"{node.prop}[{node.var}]" if node.var else node.prop
        elif isinstance(node, F.Const):
            text = "true" if node.value else "false"
        elif isinstance(node, (F.Not, F.Next, F.Eventually, F.Always)):
            sym = _UN_SYMBOL[type(node)]
            sep = " " if sym != "!" else ""
            text = f"{sym}{sep}{render(node.arg, prec)}"
        else:
            sym = _BIN_SYMBOL[type(node)]
            # ->, U, R associate to the right; & | <-> to the left
            right_assoc = isinstance(node, (F.Implies, F.Until, F.Release))
            lp = prec if right_assoc else prec - 1
            rp = prec - 1 if right_assoc else prec
            text = f"{render(node.left, lp)} {sym} {render(node.right, rp, True)}"
        if prec <= parent_prec:
            return f"({text})"
        return text

    return render(f, 0)


def sexpr(f: F.Formula, var_index: dict[str, int]) -> str:
    if isinstance(f, F.Atom):
        return f'(AP "{f.prop}" {var_index[f.var]})'
    if isinstance(f, F.Const):
        return "True" if f.value else "False"
    if isinstance(f, F.Not):
        # render !(a <-> b) with the dedicated head
        if isinstance(f.arg, F.Iff):
            return f"(Neq {sexpr(f.arg.left, var_index)} {sexpr(f.arg.right, var_index)})"
        return f"(Not {sexpr(f.arg, var_index)})"
    if isinstance(f, F.And):
        return f"(And {sexpr(f.left, var_index)} {sexpr(f.right, var_index)})"
    if isinstance(f, F.Or):
        return f"(Or {sexpr(f.left, var_index)} {sexpr(f.right, var_index)})"
    if isinstance(f, F.Implies):
        return f"(Implies {sexpr(f.left, var_index)} {sexpr(f.right, var_index)})"
    if isinstance(f, F.Iff):
        return f"(Eq {sexpr(f.left, var_index)} {sexpr(f.right, var_index)})"
    if isinstance(f, F.Next):
        return f"(X {sexpr(f.arg, var_index)})"
    if isinstance(f, F.Eventually):
        return f"(F {sexpr(f.arg, var_index)})"
    if isinstance(f, F.Always):
        return f"(G {sexpr(f.arg, var_index)})"
    if isinstance(f, F.Until):
        return f"(Until {sexpr(f.left, var_index)} {sexpr(f.right, var_index)})"
    if isinstance(f, F.Release):
        return f"(Release {sexpr(f.left, var_index)} {sexpr(f.right, var_index)})"
    raise TypeError(f"not a formula node: {f!r}")


def sexpr_hyper(h: F.HyperFormula) -> str:
    var_index = {v: i for i, v in enumerate(h.variables)}
    text = sexpr(h.body, var_index)
    for _ in h.variables:
        text = f"(Forall {text})"
    return text[1:-1] if text.startswith("(") else text
