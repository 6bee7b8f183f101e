"""Pretty printers for formulas: infix and s-expression forms."""

from __future__ import annotations

from . import formulas as F

_UNARY_PREC = 1 + max(prec for _, prec, _ in F.INFIX_BINARY.values())


def infix(f: F.Formula) -> str:
    def render(node, parent_prec):
        if isinstance(node, F.Atom):
            return f"{node.prop}[{node.var}]" if node.var else node.prop
        if isinstance(node, F.Const):
            return "true" if node.value else "false"
        if isinstance(node, F.UNARY):
            sym, prec = F.INFIX_UNARY[type(node)], _UNARY_PREC
            sep = " " if sym.isalpha() else ""
            # the operand one level lower, so that a unary chain stays bare
            text = f"{sym}{sep}{render(node.arg, prec - 1)}"
        else:
            sym, prec, right_assoc = F.INFIX_BINARY[type(node)]
            lp = prec if right_assoc else prec - 1
            rp = prec - 1 if right_assoc else prec
            text = f"{render(node.left, lp)} {sym} {render(node.right, rp)}"
        if prec <= parent_prec:
            return f"({text})"
        return text

    return render(f, 0)


def sexpr(f: F.Formula, var_index: dict[str, int]) -> str:
    if isinstance(f, F.Atom):
        return f'(AP "{f.prop}" {var_index[f.var]})'
    if isinstance(f, F.Const):
        return "True" if f.value else "False"
    if isinstance(f, F.Not) and isinstance(f.arg, F.Iff):
        head, args = "Neq", F.children(f.arg)
    else:
        args = F.children(f)
        head = F.SEXPR_HEADS[type(f)]
    return f"({head} {' '.join(sexpr(arg, var_index) for arg in args)})"


def sexpr_hyper(h: F.HyperFormula) -> str:
    var_index = {v: i for i, v in enumerate(h.variables)}
    text = sexpr(h.body, var_index)
    for _ in h.variables:
        text = f"(Forall {text})"
    return text[1:-1] if text.startswith("(") else text
