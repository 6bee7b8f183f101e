import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercause import formulas as F
from hypercause.errors import ParseError, UnsupportedFragmentError, ValidationError
from hypercause.parser import Token, _Tokens, detect_syntax, parse_hyperltl, tokenize
from hypercause.semantics import eval_ltl

from genrand import random_lasso, random_ltl

RUNNING_EXAMPLE_SEXPR = 'Forall (Forall (G (Eq (AP "lo" 0) (AP "lo" 1))))'

ARBITER_SEXPR = (
    'Forall (Forall (Implies (G (And (Eq (AP "req_0" 0) (AP "req_0" 1)) '
    '(Eq (AP "req_1" 0) (AP "req_1" 1)))) (G (And (Eq (AP "grant_0" 0) '
    '(AP "grant_0" 1)) (Eq (AP "grant_1" 0) (AP "grant_1" 1))))))'
)


def test_parse_running_example_sexpr():
    h = parse_hyperltl(RUNNING_EXAMPLE_SEXPR)
    assert h.variables == ("0", "1")
    assert h.body == F.Always(F.Iff(F.Atom("lo", "0"), F.Atom("lo", "1")))


def test_parse_single_quantifier_infix():
    h = parse_hyperltl("forall p. G (x[p] -> X x[p])")
    assert h.variables == ("p",)
    assert h.body == F.Always(F.Implies(F.Atom("x", "p"), F.Next(F.Atom("x", "p"))))


def test_parse_arbiter_sexpr_shape():
    h = parse_hyperltl(ARBITER_SEXPR)
    assert isinstance(h.body, F.Implies)
    assert isinstance(h.body.left, F.Always)
    assert isinstance(h.body.right, F.Always)
    assert isinstance(h.body.left.arg, F.And)


def test_parse_infix_grouped_quantifiers():
    a = parse_hyperltl("forall p1 p2. G (lo[p1] <-> lo[p2])")
    b = parse_hyperltl("forall p1. forall p2. G (lo[p1] <-> lo[p2])")
    assert a.variables == b.variables == ("p1", "p2")
    assert a.body == b.body


def test_existential_rejected_both_syntaxes():
    with pytest.raises(UnsupportedFragmentError):
        parse_hyperltl("exists p. G x[p]")
    with pytest.raises(UnsupportedFragmentError):
        parse_hyperltl('Exists (G (AP "x" 0))')
    with pytest.raises(UnsupportedFragmentError):
        parse_hyperltl('Forall (Exists (G (Eq (AP "x" 0) (AP "x" 1))))')


def test_syntax_errors_carry_positions():
    with pytest.raises(ParseError) as err:
        parse_hyperltl("forall p. G (x[p] &")
    assert err.value.position >= 0
    with pytest.raises(ParseError):
        parse_hyperltl('Forall (Glob (AP "x" 0))')


def test_unbound_atom_index_rejected():
    with pytest.raises((ParseError, ValidationError)):
        parse_hyperltl('Forall (G (Eq (AP "x" 0) (AP "x" 1)))')


def test_missing_quantifier_rejected():
    with pytest.raises(UnsupportedFragmentError):
        parse_hyperltl("G (x[p] | y[p])")


def test_detect_syntax():
    assert detect_syntax(RUNNING_EXAMPLE_SEXPR) == "sexpr"
    assert detect_syntax("forall p. G x[p]") == "infix"


def test_neq_is_negated_iff():
    h = parse_hyperltl('Forall (Forall (Neq (AP "up" 0) (AP "up" 1)))')
    assert h.body == F.Not(F.Iff(F.Atom("up", "0"), F.Atom("up", "1")))


def test_print_parse_roundtrip_fixture():
    h = parse_hyperltl(RUNNING_EXAMPLE_SEXPR)
    again = parse_hyperltl(str(h))
    # infix re-parse binds fresh names; bodies agree up to variable renaming
    assert len(again.variables) == 2
    assert str(again) == str(h)


def test_sexpr_print_roundtrip():
    for text in (RUNNING_EXAMPLE_SEXPR, ARBITER_SEXPR):
        h = parse_hyperltl(text)
        assert parse_hyperltl(_ref_sexpr_hyper(h)) == h


def test_print_parse_roundtrip_random():
    rng = random.Random(5)
    for _ in range(300):
        f = random_ltl(rng, ["p", "q", "r"], rng.randint(1, 4))
        h = F.HyperFormula(("0",), _index_atoms(f))
        assert parse_hyperltl(str(h)) == _rename_to(h, "0")


def _index_atoms(f, var=lambda: "0"):
    """`f` with each atom indexed by the trace variable `var()` returns."""
    if isinstance(f, F.Atom):
        return F.Atom(f.prop, var())
    if isinstance(f, F.Const):
        return f
    return type(f)(*(_index_atoms(child, var) for child in F.children(f)))


def _rename_to(h, name):
    return h


def test_negate_to_nnf_expands_iff_as_documented():
    f = F.Always(F.Iff(F.Atom("lo", "0"), F.Atom("lo", "1")))
    negated = F.negate_to_nnf(f)
    a0, a1 = F.Atom("lo", "0"), F.Atom("lo", "1")
    assert negated == F.Eventually(
        F.Or(F.And(a0, F.Not(a1)), F.And(F.Not(a0), a1))
    )
    assert F.is_nnf(negated)


def test_negate_atom():
    assert F.negate_to_nnf(F.Atom("a", "")) == F.Not(F.Atom("a", ""))


def test_nnf_semantics_random():
    rng = random.Random(11)
    for _ in range(1000):
        f = random_ltl(rng, ["p", "q"], rng.randint(1, 4))
        t = random_lasso(rng, ["p", "q"])
        negated = F.negate_to_nnf(f)
        assert F.is_nnf(negated)
        assert eval_ltl(t, negated) == (not eval_ltl(t, f))


def test_infix_printer_precedence():
    f = F.Or(F.And(F.Atom("a", "p"), F.Atom("b", "p")), F.Atom("c", "p"))
    assert F.infix(f) == "a[p] & b[p] | c[p]"
    g = F.And(F.Or(F.Atom("a", "p"), F.Atom("b", "p")), F.Atom("c", "p"))
    assert F.infix(g) == "(a[p] | b[p]) & c[p]"


def test_unary_chain_prints_without_parentheses():
    text = "forall p. !X F G !a[p] U b[p]"
    h = parse_hyperltl(text)
    assert isinstance(h.body, F.Until)
    assert str(h) == text
    # a binary operand of a unary operator keeps its parentheses
    assert F.infix(F.Not(F.And(F.Atom("a", "p"), F.Atom("b", "p")))) == "!(a[p] & b[p])"


def test_all_bundled_formula_fixtures_parse():
    from pathlib import Path

    bench = Path(__file__).resolve().parent.parent / "benchmarks" / "formulas"
    files = sorted(bench.glob("*.hltl"))
    assert len(files) >= 6
    for path in files:
        h = parse_hyperltl(path.read_text())
        assert len(h.variables) in (1, 2)
        assert parse_hyperltl(_ref_sexpr_hyper(h)) == h


def test_atom_index_error_names_the_first_atom_under_any_hash_seed():
    code = (
        "from hypercause.parser import parse_hyperltl\n"
        "try:\n"
        "    parse_hyperltl('Forall (And (AP \"a\" 3) (AP \"b\" 5))')\n"
        "except Exception as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=60)
        assert "atom index 3 exceeds the 1 quantifier(s)" in done.stdout, done.stderr
    with pytest.raises(UnsupportedFragmentError):
        parse_hyperltl('(And (AP "a" 3) (AP "b" 5))')


def test_atoms_are_distinct_and_in_text_order():
    a, b, c = F.Atom("a", "0"), F.Atom("b", "1"), F.Atom("c", "0")
    f = F.Until(F.And(b, F.Not(a)), F.Or(c, F.Next(b)))
    assert F.atoms(f) == [b, a, c]


# -- reference formula layer ------------------------------------------------
# NNF, the node walks, the infix printer and both parsers as separate case
# lists, as they were before the operator tables of `formulas` replaced them,
# and an s-expression printer, which the round trips print with.  The
# reference s-expression parser reads atoms as a set, so which out-of-range
# index its error names depends on the hash seed; the edge inputs below have
# at most one such index.


def _ref_atoms(f):
    out = set()
    stack = [f]
    while stack:
        node = stack.pop()
        if isinstance(node, F.Atom):
            out.add(node)
        elif isinstance(node, F.Const):
            pass
        elif isinstance(node, (F.Not, F.Next, F.Eventually, F.Always)):
            stack.append(node.arg)
        elif isinstance(node, (F.And, F.Or, F.Implies, F.Iff, F.Until, F.Release)):
            stack.append(node.left)
            stack.append(node.right)
        else:
            raise TypeError(f"not a formula node: {node!r}")
    return out


def _ref_subformulas(f):
    seen = {}

    def walk(node):
        if node in seen:
            return
        if isinstance(node, (F.Not, F.Next, F.Eventually, F.Always)):
            walk(node.arg)
        elif isinstance(node, (F.And, F.Or, F.Implies, F.Iff, F.Until, F.Release)):
            walk(node.left)
            walk(node.right)
        seen[node] = None

    walk(f)
    return list(seen)


def _ref_nnf(f):
    if isinstance(f, (F.Atom, F.Const)):
        return f
    if isinstance(f, F.Not):
        return _ref_negate_to_nnf(f.arg)
    if isinstance(f, F.And):
        return F.And(_ref_nnf(f.left), _ref_nnf(f.right))
    if isinstance(f, F.Or):
        return F.Or(_ref_nnf(f.left), _ref_nnf(f.right))
    if isinstance(f, F.Implies):
        return F.Or(_ref_negate_to_nnf(f.left), _ref_nnf(f.right))
    if isinstance(f, F.Iff):
        return F.Or(
            F.And(_ref_nnf(f.left), _ref_nnf(f.right)),
            F.And(_ref_negate_to_nnf(f.left), _ref_negate_to_nnf(f.right)),
        )
    if isinstance(f, F.Next):
        return F.Next(_ref_nnf(f.arg))
    if isinstance(f, F.Eventually):
        return F.Eventually(_ref_nnf(f.arg))
    if isinstance(f, F.Always):
        return F.Always(_ref_nnf(f.arg))
    if isinstance(f, F.Until):
        return F.Until(_ref_nnf(f.left), _ref_nnf(f.right))
    if isinstance(f, F.Release):
        return F.Release(_ref_nnf(f.left), _ref_nnf(f.right))
    raise TypeError(f"not a formula node: {f!r}")


def _ref_negate_to_nnf(f):
    if isinstance(f, F.Atom):
        return F.Not(f)
    if isinstance(f, F.Const):
        return F.Const(not f.value)
    if isinstance(f, F.Not):
        return _ref_nnf(f.arg)
    if isinstance(f, F.And):
        return F.Or(_ref_negate_to_nnf(f.left), _ref_negate_to_nnf(f.right))
    if isinstance(f, F.Or):
        return F.And(_ref_negate_to_nnf(f.left), _ref_negate_to_nnf(f.right))
    if isinstance(f, F.Implies):
        return F.And(_ref_nnf(f.left), _ref_negate_to_nnf(f.right))
    if isinstance(f, F.Iff):
        return F.Or(
            F.And(_ref_nnf(f.left), _ref_negate_to_nnf(f.right)),
            F.And(_ref_negate_to_nnf(f.left), _ref_nnf(f.right)),
        )
    if isinstance(f, F.Next):
        return F.Next(_ref_negate_to_nnf(f.arg))
    if isinstance(f, F.Eventually):
        return F.Always(_ref_negate_to_nnf(f.arg))
    if isinstance(f, F.Always):
        return F.Eventually(_ref_negate_to_nnf(f.arg))
    if isinstance(f, F.Until):
        return F.Release(_ref_negate_to_nnf(f.left), _ref_negate_to_nnf(f.right))
    if isinstance(f, F.Release):
        return F.Until(_ref_negate_to_nnf(f.left), _ref_negate_to_nnf(f.right))
    raise TypeError(f"not a formula node: {f!r}")


def _ref_is_nnf(f):
    if isinstance(f, (F.Atom, F.Const)):
        return True
    if isinstance(f, F.Not):
        return isinstance(f.arg, F.Atom)
    if isinstance(f, (F.Next, F.Eventually, F.Always)):
        return _ref_is_nnf(f.arg)
    if isinstance(f, (F.And, F.Or, F.Until, F.Release)):
        return _ref_is_nnf(f.left) and _ref_is_nnf(f.right)
    if isinstance(f, (F.Implies, F.Iff)):
        return False
    raise TypeError(f"not a formula node: {f!r}")


_REF_PREC = {
    F.Iff: 1, F.Implies: 2, F.Or: 3, F.And: 4, F.Until: 5, F.Release: 5,
    F.Not: 6, F.Next: 6, F.Eventually: 6, F.Always: 6, F.Atom: 7, F.Const: 7,
}
_REF_BIN_SYMBOL = {F.Iff: "<->", F.Implies: "->", F.Or: "|", F.And: "&", F.Until: "U",
                   F.Release: "R"}
_REF_UN_SYMBOL = {F.Not: "!", F.Next: "X", F.Eventually: "F", F.Always: "G"}


def _ref_infix(f):
    def render(node, parent_prec):
        prec = _REF_PREC[type(node)]
        if isinstance(node, F.Atom):
            text = f"{node.prop}[{node.var}]" if node.var else node.prop
        elif isinstance(node, F.Const):
            text = "true" if node.value else "false"
        elif isinstance(node, (F.Not, F.Next, F.Eventually, F.Always)):
            sym = _REF_UN_SYMBOL[type(node)]
            sep = " " if sym != "!" else ""
            # the operand one level lower, so that a unary chain stays bare
            text = f"{sym}{sep}{render(node.arg, prec - 1)}"
        else:
            sym = _REF_BIN_SYMBOL[type(node)]
            right_assoc = isinstance(node, (F.Implies, F.Until, F.Release))
            lp = prec if right_assoc else prec - 1
            rp = prec - 1 if right_assoc else prec
            text = f"{render(node.left, lp)} {sym} {render(node.right, rp)}"
        if prec <= parent_prec:
            return f"({text})"
        return text

    return render(f, 0)


def _ref_sexpr(f, var_index):
    def s(g):
        return _ref_sexpr(g, var_index)

    if isinstance(f, F.Atom):
        return f'(AP "{f.prop}" {var_index[f.var]})'
    if isinstance(f, F.Const):
        return "True" if f.value else "False"
    if isinstance(f, F.Not):
        if isinstance(f.arg, F.Iff):
            return f"(Neq {s(f.arg.left)} {s(f.arg.right)})"
        return f"(Not {s(f.arg)})"
    if isinstance(f, F.And):
        return f"(And {s(f.left)} {s(f.right)})"
    if isinstance(f, F.Or):
        return f"(Or {s(f.left)} {s(f.right)})"
    if isinstance(f, F.Implies):
        return f"(Implies {s(f.left)} {s(f.right)})"
    if isinstance(f, F.Iff):
        return f"(Eq {s(f.left)} {s(f.right)})"
    if isinstance(f, F.Next):
        return f"(X {s(f.arg)})"
    if isinstance(f, F.Eventually):
        return f"(F {s(f.arg)})"
    if isinstance(f, F.Always):
        return f"(G {s(f.arg)})"
    if isinstance(f, F.Until):
        return f"(Until {s(f.left)} {s(f.right)})"
    if isinstance(f, F.Release):
        return f"(Release {s(f.left)} {s(f.right)})"
    raise TypeError(f"not a formula node: {f!r}")


def _ref_sexpr_hyper(h):
    text = _ref_sexpr(h.body, {v: i for i, v in enumerate(h.variables)})
    for _ in h.variables:
        text = f"(Forall {text})"
    return text[1:-1] if text.startswith("(") else text


_REF_UNARY_WORDS = {"X": F.Next, "F": F.Eventually, "G": F.Always}
_REF_RESERVED = {"forall", "exists", "true", "false", "X", "F", "G", "U", "R"}


def _ref_parse_infix(text):
    toks = _Tokens(text)
    variables = []
    while toks.peek().kind == "word" and toks.peek().text in ("forall", "exists"):
        head = toks.next()
        if head.text == "exists":
            raise UnsupportedFragmentError(
                "existential quantifiers are not supported (universal fragment only)"
            )
        group = []
        while (toks.peek().kind == "number"
               or (toks.peek().kind == "word" and toks.peek().text not in _REF_RESERVED)):
            group.append(toks.next().text)
        if not group:
            raise ParseError("expected at least one trace variable after 'forall'", toks.peek().pos)
        toks.expect("dot", "'.' after quantified variables")
        variables.extend(group)
    if not variables:
        raise UnsupportedFragmentError("formula must start with a universal quantifier prefix")
    body = _ref_iff(toks)
    toks.expect("end", "end of formula")
    return F.HyperFormula(tuple(variables), body)


def _ref_iff(toks):
    left = _ref_implies(toks)
    while toks.peek().kind == "iff":
        toks.next()
        left = F.Iff(left, _ref_implies(toks))
    return left


def _ref_implies(toks):
    left = _ref_or(toks)
    if toks.peek().kind == "implies":
        toks.next()
        return F.Implies(left, _ref_implies(toks))
    return left


def _ref_or(toks):
    left = _ref_and(toks)
    while toks.peek().kind == "or":
        toks.next()
        left = F.Or(left, _ref_and(toks))
    return left


def _ref_and(toks):
    left = _ref_until(toks)
    while toks.peek().kind == "and":
        toks.next()
        left = F.And(left, _ref_until(toks))
    return left


def _ref_until(toks):
    left = _ref_unary(toks)
    tok = toks.peek()
    if tok.kind == "word" and tok.text in ("U", "R"):
        toks.next()
        right = _ref_until(toks)
        return F.Until(left, right) if tok.text == "U" else F.Release(left, right)
    return left


def _ref_unary(toks):
    tok = toks.peek()
    if tok.kind == "not":
        toks.next()
        return F.Not(_ref_unary(toks))
    if tok.kind == "word" and tok.text in _REF_UNARY_WORDS:
        toks.next()
        return _REF_UNARY_WORDS[tok.text](_ref_unary(toks))
    return _ref_primary(toks)


def _ref_primary(toks):
    tok = toks.peek()
    if tok.kind == "lpar":
        toks.next()
        inner = _ref_iff(toks)
        toks.expect("rpar", "')'")
        return inner
    if tok.kind == "word":
        if tok.text == "true":
            toks.next()
            return F.TRUE
        if tok.text == "false":
            toks.next()
            return F.FALSE
        if tok.text in ("forall", "exists"):
            raise ParseError("quantifiers are only allowed as the formula prefix", tok.pos)
        name = toks.next().text
        toks.expect("lbrack", "'[' after proposition name")
        var_tok = toks.peek()
        if var_tok.kind not in ("word", "number"):
            raise ParseError("expected trace variable", var_tok.pos)
        toks.next()
        toks.expect("rbrack", "']'")
        return F.Atom(name, var_tok.text)
    raise ParseError(f"unexpected token {tok.text or 'end of input'!r}", tok.pos)


_REF_SEXPR_UNARY = {"Not": F.Not, "Neg": F.Not, "X": F.Next, "Next": F.Next,
                    "F": F.Eventually, "Finally": F.Eventually, "Eventually": F.Eventually,
                    "G": F.Always, "Globally": F.Always}
_REF_SEXPR_BINARY = {"And": F.And, "Or": F.Or, "Implies": F.Implies, "Eq": F.Iff,
                     "U": F.Until, "Until": F.Until, "R": F.Release, "Release": F.Release}


def _ref_parse_sexpr(text):
    toks = _Tokens(text)
    quantifiers = 0

    def parse_quantified():
        nonlocal quantifiers
        tok = toks.peek()
        wrapped = tok.kind == "lpar"
        if wrapped:
            toks.next()
            tok = toks.peek()
        if tok.kind == "word" and tok.text in ("Forall", "Exists"):
            toks.next()
            if tok.text == "Exists":
                raise UnsupportedFragmentError(
                    "existential quantifiers are not supported (universal fragment only)"
                )
            quantifiers += 1
            inner = parse_quantified()
            if wrapped:
                toks.expect("rpar", "')'")
            return inner
        if wrapped:
            return parse_body_after_lpar()
        return parse_body()

    def parse_body():
        tok = toks.peek()
        if tok.kind == "lpar":
            toks.next()
            return parse_body_after_lpar()
        if tok.kind == "word" and tok.text in ("True", "true"):
            toks.next()
            return F.TRUE
        if tok.kind == "word" and tok.text in ("False", "false"):
            toks.next()
            return F.FALSE
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}", tok.pos)

    def parse_body_after_lpar():
        tok = toks.expect("word", "operator name")
        name = tok.text
        if name == "AP":
            prop = toks.expect("string", "quoted proposition name").text[1:-1]
            idx = int(toks.expect("number", "trace index").text)
            toks.expect("rpar", "')'")
            return F.Atom(prop, str(idx))
        if name in _REF_SEXPR_UNARY:
            arg = parse_body()
            toks.expect("rpar", "')'")
            return _REF_SEXPR_UNARY[name](arg)
        if name in _REF_SEXPR_BINARY:
            left = parse_body()
            right = parse_body()
            toks.expect("rpar", "')'")
            return _REF_SEXPR_BINARY[name](left, right)
        if name == "Neq":
            left = parse_body()
            right = parse_body()
            toks.expect("rpar", "')'")
            return F.Not(F.Iff(left, right))
        if name in ("Forall", "Exists"):
            raise ParseError("quantifiers are only allowed as the formula prefix", tok.pos)
        raise ParseError(f"unknown operator {name!r}", tok.pos)

    body = parse_quantified()
    toks.expect("end", "end of formula")
    if quantifiers == 0:
        raise UnsupportedFragmentError("formula must start with a universal quantifier prefix")
    variables = tuple(str(i) for i in range(quantifiers))
    bad = [a for a in _ref_atoms(body) if a.var not in variables]
    if bad:
        raise ParseError(f"atom index {bad[0].var} exceeds the {quantifiers} quantifier(s)", 0)
    return F.HyperFormula(variables, body)


def _parse_outcome(parse, text):
    """The formula `parse(text)` gives, or the type, text and offset of its error."""
    try:
        return parse(text)
    except ValidationError as exc:
        return (type(exc), str(exc), getattr(exc, "position", None))


@settings(max_examples=300)
@given(st.randoms(use_true_random=False), st.integers(0, 6))
def test_formula_layer_agrees_with_reference(rng, depth):
    body = _index_atoms(random_ltl(rng, ["p", "q", "U", "R"], depth), lambda: rng.choice("01"))
    for f in (body, F.nnf(body), F.negate_to_nnf(body)):
        assert F.nnf(f) == _ref_nnf(f)
        assert F.negate_to_nnf(f) == _ref_negate_to_nnf(f)
        assert F.is_nnf(f) == _ref_is_nnf(f)
        assert F.subformulas(f) == _ref_subformulas(f)
        assert set(F.atoms(f)) == _ref_atoms(f)
        assert F.infix(f) == _ref_infix(f)
        h = F.HyperFormula(("0", "1"), f)
        assert parse_hyperltl(str(h)) == _ref_parse_infix(str(h)) == h
        assert parse_hyperltl(_ref_sexpr_hyper(h)) == _ref_parse_sexpr(_ref_sexpr_hyper(h)) == h


INFIX_EDGE_INPUTS = [
    "forall p. a[p] & b[p] & c[p]",
    "forall p. a[p] | b[p] | c[p]",
    "forall p. a[p] -> b[p] -> c[p]",
    "forall p. a[p] <-> b[p] <-> c[p]",
    "forall p. a[p] U b[p] U c[p]",
    "forall p. a[p] R b[p] R c[p]",
    "forall p. a[p] U b[p] R c[p] U d[p]",
    "forall p. a[p] | b[p] -> c[p] <-> d[p] & e[p] U f[p]",
    "forall p. a[p] -> b[p] <-> c[p] -> d[p]",
    "forall p. a[p] && b[p] || c[p] && d[p]",
    "forall p. a[p] || b[p] & c[p]",
    "forall p. U[p] U R[p]",
    "forall p. R[p] R U[p] & U[p]",
    "forall p. !X F G !a[p] U b[p]",
    "forall p q. G (a[p] <-> a[q]) -> (true U false)",
    "forall p. forall 1. a[p] & b[1]",
    "forall p. a[p] &",
    "forall p. (a[p]",
    "forall p. a[p] b[p]",
    "forall p. a[p] & & b[p]",
    "forall U. a[U]",
    "forall p. a[p] & forall q. b[q]",
    "forall p. a",
    "forall p. a[)",
    "forall p. a[p] $",
    "forall p. a[q]",
    "exists p. a[p]",
    "G a[p]",
]

SEXPR_EDGE_INPUTS = [
    'Forall (Forall (G (Eq (AP "lo" 0) (AP "lo" 1))))',
    '(Forall (Forall (Neq (AP "up" 0) (AP "up" 1))))',
    *(f'Forall ({head} (AP "a" 0))'
      for head in ("Not", "Neg", "X", "Next", "F", "Finally", "Eventually", "G", "Globally")),
    *(f'Forall ({head} (AP "a" 0) (AP "b" 0))'
      for head in ("And", "Or", "Implies", "Eq", "Neq", "U", "Until", "R", "Release")),
    'Forall (Forall (U (AP "U" 0) (R (AP "R" 1) True)))',
    "Forall True",
    "Forall (Not False)",
    'Forall (Not (AP "a" 0) (AP "b" 0))',
    'Forall (And (AP "a" 0))',
    'Forall (Neq (AP "a" 0))',
    'Forall (Glob (AP "a" 0))',
    'Forall (and (AP "a" 0) (AP "b" 0))',
    'Forall ((AP "a" 0))',
    'Forall (And (Forall (AP "a" 0)) (AP "b" 0))',
    'Forall (G (Exists (AP "a" 0)))',
    'Forall (And (AP "a" 3) (AP "b" 3))',
    'Forall (AP a 0)',
    'Forall (AP "a" x)',
    'Forall (G (AP "a" 0)) (AP "b" 0)',
    'Forall (G (AP "a" 0)',
    'Forall',
    '(G (AP "a" 0))',
    'Exists (AP "a" 0)',
    'Forall (Exists (AP "a" 0))',
]


def test_edge_inputs_agree_with_reference():
    for inputs, reference in ((INFIX_EDGE_INPUTS, _ref_parse_infix),
                              (SEXPR_EDGE_INPUTS, _ref_parse_sexpr)):
        for text in inputs:
            assert _parse_outcome(parse_hyperltl, text) == _parse_outcome(reference, text), text


_REF_TOKEN = re.compile(
    r"""\s*(?:
        (?P<lpar>\()
      | (?P<rpar>\))
      | (?P<dot>\.)
      | (?P<lbrack>\[)
      | (?P<rbrack>\])
      | (?P<iff><->)
      | (?P<implies>->)
      | (?P<and>&&?)
      | (?P<or>\|\|?)
      | (?P<not>!)
      | (?P<string>"[^"]*")
      | (?P<number>\d+)
      | (?P<word>[A-Za-z_][A-Za-z_0-9'@]*)
    )""",
    re.VERBOSE,
)


def _ref_tokenize(text):
    """`tokenize` as it was: skip whitespace a character at a time, match a
    token there, strip it."""
    tokens = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        m = _REF_TOKEN.match(text, i)
        if not m:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        tokens.append(Token(m.lastgroup, m.group().strip(), m.start()))
        i = m.end()
    tokens.append(Token("end", "", len(text)))
    return tokens


def test_tokens_agree_with_reference():
    rng = random.Random(7)
    texts = [*INFIX_EDGE_INPUTS, *SEXPR_EDGE_INPUTS, "", "  ", " $", "a\u00a0b", '"a b" "c']
    texts += [str(F.HyperFormula(("0", "1"), _index_atoms(
        random_ltl(rng, KEYWORD_NAMES, 4), lambda: rng.choice("01")))) for _ in range(100)]
    for text in list(texts):
        for _ in range(5):  # single-character edits
            i = rng.randrange(len(text) + 1)
            texts.append(text[:i] + rng.choice(' \t()[]."$~<->&|!1a@') + text[i + 1:])
    for text in texts:
        assert _parse_outcome(tokenize, text) == _parse_outcome(_ref_tokenize, text), text


def test_word_before_bracket_names_a_proposition():
    # the reference reads X as an operator here and fails at '['
    assert parse_hyperltl("forall p. X[p]") == F.HyperFormula(("p",), F.Atom("X", "p"))
    with pytest.raises(ParseError, match="expected at least one trace variable"):
        parse_hyperltl("forall a@b. x[a@b]")


# every name a machine may give an output, operators and keywords included
KEYWORD_NAMES = ["F", "G", "X", "U", "R", "true", "false", "forall", "exists", "a@b", "a'"]


@settings(max_examples=300)
@given(st.randoms(use_true_random=False), st.integers(0, 6))
def test_printed_formula_parses_back_whatever_the_names(rng, depth):
    body = _index_atoms(random_ltl(rng, KEYWORD_NAMES, depth), lambda: rng.choice("01"))
    h = F.HyperFormula(("0", "1"), body)
    assert parse_hyperltl(str(h)) == h
    assert parse_hyperltl(_ref_sexpr_hyper(h)) == h
