"""Value classes: dataclass semantics without `dataclasses`, and a lean start-up.

Every value class is checked against a frozen dataclass twin built here:
equality, hash and repr must be the twin's, so set orders and reports are
what they were when the classes were dataclasses.
"""

import copy
import dataclasses
import importlib
import itertools
import os
import pickle
import pkgutil
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

import hypercause
from conftest import leaky_cex, leaky_machine
from genrand import random_hyper_body, random_ltl
from hypercause import formulas as F
from hypercause.alternating import RunNode, RunTree, accepts_lasso, ltl_to_alternating
from hypercause.causality import CauseEntry, CauseReport, all_minimal_causes
from hypercause.counterfactual import InterventionTable
from hypercause.errors import UnsupportedFragmentError, ValidationError
from hypercause.events import Counterexample, Event
from hypercause.lasso import Lasso
from hypercause.parser import Token, parse_hyperltl, tokenize
from hypercause.satcore import CandidateSet
from hypercause.semantics import ZippedTrace, eval_hyper, eval_ltl, zip_hyper

SRC = os.path.dirname(os.path.dirname(os.path.abspath(hypercause.__file__)))

OD = parse_hyperltl('Forall (Forall (G (Eq (AP "lo" 0) (AP "lo" 1))))')

FIELDS = {
    F.Atom: ("prop", "var"), F.Const: ("value",), F.HyperFormula: ("variables", "body"),
    **{cls: ("arg",) for cls in F.UNARY}, **{cls: ("left", "right") for cls in F.BINARY},
    Event: ("trace", "position", "prop", "positive"), Token: ("kind", "text", "pos"),
    CauseEntry: ("cause", "contingency", "verified"),
    CandidateSet: ("events", "per_step", "formula_support", "rerouted"),
    ZippedTrace: ("lasso", "variables", "binding", "shapes"),
    RunNode: ("kind", "element_id", "position", "label", "children"),
    RunTree: ("root", "annotations"),
}
TWINS = {cls: dataclasses.make_dataclass(cls.__name__, names, frozen=True)
         for cls, names in FIELDS.items()}
TWINS[CauseReport] = dataclasses.make_dataclass(
    "CauseReport",
    ["candidate", "causes", "status",
     ("stats", dict, dataclasses.field(default_factory=dict, compare=False))],
    frozen=True,
)
FIELDS[CauseReport] = ("candidate", "causes", "status", "stats")


def twin(value):
    """`value` rebuilt from frozen dataclasses, all the way down."""
    if isinstance(value, tuple):
        return tuple(twin(v) for v in value)
    if type(value) in TWINS:
        return TWINS[type(value)](*(twin(getattr(value, f)) for f in FIELDS[type(value)]))
    return value


def assert_like_twins(values):
    twins = [twin(v) for v in values]
    for v, t in zip(values, twins):
        assert hash(v) == hash(t)
        assert repr(v) == repr(t)
    for (a, ta), (b, tb) in itertools.product(zip(values, twins), repeat=2):
        assert (a == b) == (ta == tb)
        assert (a != b) == (ta != tb)


def assert_immutable(value):
    slots = [name for cls in type(value).__mro__ for name in getattr(cls, "__slots__", ())]
    for name in slots + ["extra"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.deepcopy(value) == value


@settings(max_examples=60)
@given(st.randoms(use_true_random=False), st.integers(0, 4))
def test_formulas_behave_like_dataclasses(rng, depth):
    plain = random_ltl(rng, ["p", "q"], depth)
    body = random_hyper_body(rng, ["a", "b"], ("0", "1"), depth)
    nodes = F.subformulas(plain) + F.subformulas(body) + F.subformulas(F.nnf(body))
    hyper = F.HyperFormula(("0", "1"), body)
    assert_like_twins(nodes + [hyper, F.HyperFormula(("1", "0"), body)])
    for node in nodes + [hyper]:
        assert_immutable(node)


def test_values_of_different_classes_with_equal_fields_differ():
    a, b = F.Atom("a", "0"), F.Atom("b", "0")
    assert F.Not(a) != F.Next(a) and F.And(a, b) != F.Or(a, b)
    assert len({F.Not(a), F.Next(a), F.Not(F.Atom("a", "0"))}) == 2
    args = {1: (a,), 2: (("0",), a), 3: (1, 2, 3), 4: ((), (), "found", None)}
    for n, fields in args.items():
        values = [cls(*fields) for cls in FIELDS if len(FIELDS[cls]) == n]
        assert len({type(v) for v in values}) > 1
        for x, y in itertools.permutations(values, 2):
            assert x != y and not x == y


def test_events_and_tokens_behave_like_dataclasses():
    events = [Event(*e) for e in itertools.product(("t1", "t2"), (0, 1), ("a", "b"), (True, False))]
    tokens = tokenize("forall p q. G (a[p] <-> !b[q]) -> X true") + [Token("word", "G", 0)]
    assert_like_twins(events + tokens)
    for value in events + tokens:
        assert_immutable(value)
    with pytest.raises(AttributeError):
        object.__getattribute__(events[0], "__dict__")


def test_reports_and_run_trees_behave_like_dataclasses():
    report = all_minimal_causes(leaky_machine(), OD, leaky_cex(), 2, 1)
    assert report.causes and report.stats
    body, zipped = zip_hyper(OD, leaky_cex())
    accepted, tree = accepts_lasso(ltl_to_alternating(F.negate_to_nnf(body)), zipped.lasso)
    assert accepted
    candidate = report.candidate
    values = [
        report,
        CauseReport(candidate, report.causes, report.status),
        CauseReport(candidate, (), "no-actual-cause", {"subsets_checked": 0}),
        *report.causes,
        CauseEntry((), (), False),
        candidate,
        CandidateSet(candidate.events, candidate.per_step, candidate.formula_support),
        zipped,
        ZippedTrace(zipped.lasso, zipped.variables, zipped.binding[::-1], zipped.shapes),
        tree,
        tree.root,
        RunTree(tree.root, ()),
        RunNode("step", 0, 0, "eps"),
    ]
    assert_like_twins(values)
    for value in values:
        assert_immutable(value)


def test_traces_are_immutable_values():
    cex = leaky_cex()
    for value in [cex, *cex.lassos()]:
        assert_immutable(value)


def test_counterexamples_with_the_traces_in_another_order_differ():
    # the order binds traces to quantifiers, so it can change the verdict
    a, b = Lasso([], [frozenset({"x"})]), Lasso([], [frozenset()])
    ab, ba = Counterexample({"t1": a, "t2": b}), Counterexample({"t2": b, "t1": a})
    formula = parse_hyperltl("forall p q. x[p]")
    assert eval_hyper(ab, formula) != eval_hyper(ba, formula)
    assert ab != ba
    same = Counterexample({"t1": a, "t2": b})
    assert ab == same and hash(ab) == hash(same)
    assert len({ab, ba, same}) == 2


def test_compiled_programs_are_immutable():
    # a formula caches its program, so an assignment that went through
    # would change every later verdict on that formula
    formula = parse_hyperltl('Forall (Forall (G (Eq (AP "lo" 0) (AP "lo" 1))))')
    program = formula.program
    assert_immutable(program)
    with pytest.raises(AttributeError):
        program.result = 99
    cex = leaky_cex()
    table = InterventionTable(leaky_machine(), formula, cex)
    assert formula.program is program
    assert not eval_hyper(cex, formula)
    # on exact words, one sequence or two equal ones, the verdicts are the
    # zipped reference's
    body, zipped = zip_hyper(formula, cex)
    assert not eval_ltl(zipped.lasso, body)
    words = cex.lassos()
    assert program.bounds(words, words) == program.bounds(words, leaky_cex().lassos()) == (
        False, False
    )
    assert not table.holds(0, 0)


def test_cause_report_equality_ignores_stats():
    report = all_minimal_causes(leaky_machine(), OD, leaky_cex(), 2, 1)
    other = CauseReport(report.candidate, report.causes, report.status, {"evaluations": -1})
    assert report == other and hash(report) == hash(other)
    assert repr(report) != repr(other)
    assert CauseReport(report.candidate, (), report.status) != report
    assert CauseReport(report.candidate, (), "found").stats == {}


def test_hyper_formula_validates_and_caches_its_program():
    a = F.Atom("a", "p")
    with pytest.raises(UnsupportedFragmentError, match="quantifier prefix must not be empty"):
        F.HyperFormula((), a)
    with pytest.raises(ValidationError, match="duplicate trace variables"):
        F.HyperFormula(("p", "p"), a)
    with pytest.raises(ValidationError, match=r"unbound trace variables \['q'\]"):
        F.HyperFormula(("p",), F.And(a, F.Atom("a", "q")))

    # compiled once: `test_program_compiled_once_per_formula`; the cache is no field
    formula = F.HyperFormula(("p",), F.Always(a))
    assert formula.program is formula.program
    assert formula == F.HyperFormula(("p",), F.Always(a))
    assert repr(formula) == repr(twin(formula))


def test_no_value_class_is_a_dataclass():
    for info in pkgutil.iter_modules(hypercause.__path__):
        module = importlib.import_module(f"hypercause.{info.name}")
        for name, obj in vars(module).items():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                assert not hasattr(obj, "__dataclass_fields__"), f"{module.__name__}.{name}"


def test_cli_import_leaves_heavy_modules_unloaded():
    heavy = ("dataclasses", "inspect", "typing", "pathlib")
    code = f"import hypercause.cli, sys; print([m for m in {heavy!r} if m in sys.modules])"
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
