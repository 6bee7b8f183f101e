import random

import pytest

from hypercause import formulas as F
from hypercause.errors import ParseError, UnsupportedFragmentError, ValidationError
from hypercause.parser import detect_syntax, parse_hyperltl
from hypercause.printer import infix, sexpr_hyper
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
        assert parse_hyperltl(sexpr_hyper(h)) == h


def test_print_parse_roundtrip_random():
    rng = random.Random(5)
    for _ in range(300):
        f = random_ltl(rng, ["p", "q", "r"], rng.randint(1, 4))
        h = F.HyperFormula(("0",), _index_atoms(f))
        assert parse_hyperltl(str(h)) == _rename_to(h, "0")


def _index_atoms(f):
    if isinstance(f, F.Atom):
        return F.Atom(f.prop, "0")
    if isinstance(f, F.Const):
        return f
    if isinstance(f, (F.Not, F.Next, F.Eventually, F.Always)):
        return type(f)(_index_atoms(f.arg))
    return type(f)(_index_atoms(f.left), _index_atoms(f.right))


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
    assert infix(f) == "a[p] & b[p] | c[p]"
    g = F.And(F.Or(F.Atom("a", "p"), F.Atom("b", "p")), F.Atom("c", "p"))
    assert infix(g) == "(a[p] | b[p]) & c[p]"


def test_all_bundled_formula_fixtures_parse():
    from pathlib import Path

    bench = Path(__file__).resolve().parent.parent / "benchmarks" / "formulas"
    files = sorted(bench.glob("*.hltl"))
    assert len(files) >= 6
    for path in files:
        h = parse_hyperltl(path.read_text())
        assert len(h.variables) in (1, 2)
        assert parse_hyperltl(sexpr_hyper(h)) == h
