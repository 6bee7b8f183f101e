import math
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercause import formulas as F
from hypercause import semantics
from hypercause.errors import ValidationError
from hypercause.events import Counterexample
from hypercause.lasso import Lasso
from hypercause.parser import parse_hyperltl
from hypercause.semantics import eval_hyper, eval_ltl, falsifies, truth_table, zip_hyper

from conftest import leaky_cex, leaky_machine
from genrand import random_hyper_body, random_lasso

OD = parse_hyperltl('Forall (Forall (G (Eq (AP "lo" 0) (AP "lo" 1))))')


def direct_eval(hyper: F.HyperFormula, cex: Counterexample) -> bool:
    """Independent recursive evaluator (no zipping), the cross-check oracle.

    Temporal operators are resolved by scanning one full cycle of the joint
    unrolling from the current position; positions past the window wrap
    into the loop.
    """
    names = cex.names()
    binding = dict(zip(hyper.variables, names))
    lassos = [cex[n] for n in names]
    prefix = max(l.loop_start for l in lassos)
    period = 1
    for l in lassos:
        period = period * len(l.period) // math.gcd(period, len(l.period))
    window = prefix + period

    def norm(i: int) -> int:
        return i if i < window else prefix + (i - prefix) % period

    @lru_cache(maxsize=None)
    def val(node: F.Formula, i: int) -> bool:
        i = norm(i)
        if isinstance(node, F.Atom):
            return node.prop in cex[binding[node.var]].at(i)
        if isinstance(node, F.Const):
            return node.value
        if isinstance(node, F.Not):
            return not val(node.arg, i)
        if isinstance(node, F.And):
            return val(node.left, i) and val(node.right, i)
        if isinstance(node, F.Or):
            return val(node.left, i) or val(node.right, i)
        if isinstance(node, F.Implies):
            return (not val(node.left, i)) or val(node.right, i)
        if isinstance(node, F.Iff):
            return val(node.left, i) == val(node.right, i)
        if isinstance(node, F.Next):
            return val(node.arg, i + 1)
        if isinstance(node, F.Eventually):
            return any(val(node.arg, j) for j in range(i, i + window))
        if isinstance(node, F.Always):
            return all(val(node.arg, j) for j in range(i, i + window))
        if isinstance(node, F.Until):
            for j in range(i, i + window):
                if val(node.right, j):
                    if all(val(node.left, k) for k in range(i, j)):
                        return True
            return False
        if isinstance(node, F.Release):
            for j in range(i, i + window):
                if not val(node.right, j):
                    if not any(val(node.left, k) for k in range(i, j)):
                        return False
            return True
        raise TypeError(node)

    return val(hyper.body, 0)


def test_zip_running_example_shape():
    body, zipped = zip_hyper(OD, leaky_cex())
    assert zipped.lasso.loop_start == 2
    assert len(zipped.lasso.period) == 1
    assert zipped.lasso.at(0) == {"hi@1"}
    assert zipped.lasso.at(1) == {"lo@0", "hi@1", "ho@1"}
    assert zipped.lasso.at(2) == {"ho@0", "lo@0", "ho@1", "lo@1"}


def test_zip_period_lcm():
    a = Lasso([], [frozenset(), frozenset({"x"})])
    b = Lasso([], [frozenset({"y"}), frozenset(), frozenset()])
    cex = Counterexample({"a": a, "b": b})
    h = parse_hyperltl('Forall (Forall (G (Eq (AP "x" 0) (AP "y" 1))))')
    _, zipped = zip_hyper(h, cex)
    assert len(zipped.lasso.period) == 6
    assert zipped.lasso.loop_start == 0


def test_zip_provenance_positions():
    _, zipped = zip_hyper(OD, leaky_cex())
    assert zipped.original_position("0", 0) == 0
    assert zipped.original_position("0", 2) == 2
    ev = zipped.event_for("1", 2, "lo", True)
    assert (ev.trace, ev.position, ev.prop, ev.positive) == ("t2", 2, "lo", True)


def test_zip_provenance_wraps_short_periods():
    a = Lasso([], [frozenset({"x"}), frozenset()])  # |v| = 2
    b = Lasso([], [frozenset({"y"})])  # |v| = 1
    cex = Counterexample({"a": a, "b": b})
    h = parse_hyperltl('Forall (Forall (G (Eq (AP "x" 0) (AP "y" 1))))')
    _, zipped = zip_hyper(h, cex)
    assert zipped.original_position("1", 1) == 0
    assert zipped.original_position("0", 1) == 1


def test_running_example_violates_od():
    assert falsifies(leaky_cex(), OD)
    body, zipped = zip_hyper(OD, leaky_cex())
    assert not eval_ltl(zipped.lasso, body)
    assert eval_ltl(zipped.lasso, F.negate_to_nnf(body))


def test_eval_true_const():
    t = Lasso([], [frozenset()])
    assert eval_ltl(t, F.TRUE)
    assert not eval_ltl(t, F.FALSE)


def test_eval_until_release_basics():
    t = Lasso([frozenset({"p"}), frozenset({"p"})], [frozenset({"q"})])
    p, q = F.Atom("p", ""), F.Atom("q", "")
    assert eval_ltl(t, F.Until(p, q))
    assert eval_ltl(t, F.Release(q, F.Or(p, q)))
    assert not eval_ltl(t, F.Always(p))
    assert eval_ltl(t, F.Eventually(F.Always(q)))


def test_zip_correctness_against_direct_evaluator():
    rng = random.Random(23)
    props = ["x", "y"]
    for _ in range(400):
        k = rng.randint(1, 2)
        variables = tuple(str(i) for i in range(k))
        body = random_hyper_body(rng, props, variables, rng.randint(1, 3))
        hyper = F.HyperFormula(variables, body)
        cex = Counterexample({f"t{i+1}": random_lasso(rng, props, 2, 3) for i in range(k)})
        assert eval_hyper(cex, hyper) == direct_eval(hyper, cex)


def test_eval_hyper_on_intervened_pair():
    # flipping the first high input of t2 under the documented contingency
    # restores observational determinism
    from hypercause.counterfactual import intervene
    from hypercause.events import Event

    machine = leaky_machine()
    cex = leaky_cex()
    fixed = intervene(
        machine, cex, [Event("t2", 0, "hi", True)], [Event("t2", 2, "lo", True)]
    )
    assert eval_hyper(fixed, OD)
    broken = intervene(machine, cex, [Event("t2", 0, "hi", True)], [])
    assert not eval_hyper(broken, OD)


PROPS = ("x", "y")
LETTERS = st.frozensets(st.sampled_from(PROPS))
LASSOS = st.builds(
    Lasso, st.lists(LETTERS, max_size=4), st.lists(LETTERS, min_size=1, max_size=4)
)
UNARY = (F.Not, F.Next, F.Eventually, F.Always)
BINARY = (F.And, F.Or, F.Implies, F.Iff, F.Until, F.Release)


def bodies(variables):
    leaves = st.one_of(
        st.builds(F.Atom, st.sampled_from(PROPS), st.sampled_from(variables)),
        st.builds(F.Const, st.booleans()),
    )
    return st.recursive(
        leaves,
        lambda sub: st.one_of(
            *(st.builds(op, sub) for op in UNARY),
            *(st.builds(op, sub, sub) for op in BINARY),
        ),
        max_leaves=10,
    )


VARIABLES = {k: tuple(str(i) for i in range(k)) for k in (1, 2, 3)}
BODIES = {k: bodies(variables) for k, variables in VARIABLES.items()}


@st.composite
def assigned_formulas(draw):
    k = draw(st.sampled_from(sorted(VARIABLES)))
    formula = F.HyperFormula(VARIABLES[k], draw(BODIES[k]))
    cex = Counterexample({f"t{i + 1}": draw(LASSOS) for i in range(k)})
    return formula, cex


@settings(max_examples=300)
@given(assigned_formulas())
def test_compiled_evaluator_equals_zipped_reference(case):
    # the body's truth at position i is its truth on the i-th suffixes, so
    # every position of the reference's row is compared
    formula, cex = case
    body, zipped = zip_hyper(formula, cex)
    row = truth_table(zipped.lasso, body)[body]
    for i, expected in enumerate(row):
        shifted = Counterexample({name: suffix(t, i) for name, t in cex.traces.items()})
        assert eval_hyper(shifted, formula) == expected, f"position {i}"


def suffix(trace: Lasso, i: int) -> Lasso:
    if i < trace.loop_start:
        return Lasso(trace.prefix[i:], trace.period)
    j = (i - trace.loop_start) % len(trace.period)
    return Lasso([], trace.period[j:] + trace.period[:j])


def test_program_compiled_once_per_formula(monkeypatch):
    compiled = []
    compile_body = semantics.compile_body

    def counting(formula):
        compiled.append(formula)
        return compile_body(formula)

    monkeypatch.setattr(semantics, "compile_body", counting)
    formula = parse_hyperltl('Forall (Forall (G (Eq (AP "lo" 0) (AP "lo" 1))))')
    for _ in range(3):
        assert not eval_hyper(leaky_cex(), formula)
    assert compiled == [formula]
    # the program lives on the formula instance, not in a shared table
    assert formula.program is formula.program
    assert parse_hyperltl(str(formula)).program is not formula.program


def test_eval_hyper_rejects_wrong_trace_count():
    with pytest.raises(ValidationError, match="quantifies 2 traces"):
        eval_hyper(Counterexample({"t1": leaky_cex()["t1"]}), OD)


def _reshaped(trace: Lasso, letters) -> Lasso:
    letters = list(letters)
    return Lasso(letters[: trace.loop_start], letters[trace.loop_start :])


@settings(max_examples=300)
@given(assigned_formulas(), st.data())
def test_three_valued_evaluation_bounds_every_word_between(case, data):
    # on exact words, passed as one sequence or as two equal ones, both
    # three-valued verdicts are the reference's two-valued one; a word that
    # satisfies the body keeps every widening of it possible, and one that
    # falsifies it keeps every widening from surely holding
    formula, cex = case
    program = formula.program
    words = cex.lassos()
    body, zipped = zip_hyper(formula, cex)
    holds = eval_ltl(zipped.lasso, body)
    equal = tuple(Lasso(w.prefix, w.period) for w in words)
    assert program.bounds(words, words) == program.bounds(words, equal) == (holds, holds)
    must, may = [], []
    for word in words:
        letters = word.prefix + word.period
        dropped = data.draw(st.lists(LETTERS, min_size=len(letters), max_size=len(letters)))
        added = data.draw(st.lists(LETTERS, min_size=len(letters), max_size=len(letters)))
        must.append(_reshaped(word, (a - d for a, d in zip(letters, dropped))))
        may.append(_reshaped(word, (a | d for a, d in zip(letters, added))))
    surely, possibly = program.bounds(must, may)
    assert possibly if holds else not surely

