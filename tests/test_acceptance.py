"""End-to-end acceptance gates, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Criterion 1 pins a published two-event candidate set
for the bundled running example.  On this state graph the transition
analysis provably must also report the second low-branch guard event
(flipping the high input at step 1 of t1 changes the transition taken),
and the rerouting analysis adds the three events that matter once a flip
or an output reset moves a run into s0 or s2, so the candidate set is all
six input events.  The pinned set is not attainable and the criterion is
expected to fail.  Criterion 5a asserts that every brute-force cause lies
inside the candidate over-approximation, including rerouting causes (see
test_causality.rerouting_instance) whose events are inert on the original
run.
"""

import random
import time
from pathlib import Path

import pytest

from hypercause import formulas as F
from hypercause.alternating import accepts_lasso, annotated_events, ltl_to_alternating
from hypercause.causality import all_minimal_causes, check_contingency_valid, verify_actual_cause
from hypercause.counterfactual import build_counterfactual_automaton, intervene
from hypercause.events import Counterexample, Event, satisfies_events
from hypercause.lasso import Lasso
from hypercause.machine import load_machine, load_traces
from hypercause.oracle import brute_force_causes
from hypercause.parser import parse_hyperltl
from hypercause.satcore import candidate_cause
from hypercause.semantics import eval_hyper, eval_ltl, zip_hyper

from genrand import random_lasso, random_ltl, random_violated_instance

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"

SUITE_SIZE = 500
PAIR_COUNT = 1000
CAUSE_BOUND = 3
CONTINGENCY_BOUND = 2
# building the corpus took 57 s on a 2-vCPU host; the budget leaves about
# 5x headroom for machine load and host speed
SUITE_BUDGET_S = 300


def _verdict(name: str):
    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            print(f"\nACCEPTANCE {name}: {'FAIL' if exc_type else 'PASS'}")
            return False

    return _Reporter()


@pytest.fixture(scope="module")
def running_example():
    machine = load_machine(BENCH / "running_example.machine.json")
    cex = Counterexample(load_traces(BENCH / "running_example.traces.json"))
    formula = parse_hyperltl((BENCH / "formulas" / "running_example.hltl").read_text())
    return machine, formula, cex


@pytest.fixture(scope="module")
def timed_suite():
    """Shared corpus: random violated instances with algorithm and oracle
    runs, and the wall time building it took."""
    started = time.monotonic()
    results = []
    seed = 0
    while len(results) < SUITE_SIZE:
        seed += 1
        instance = random_violated_instance(seed)
        if instance is None:
            continue
        machine, formula, cex = instance
        candidate = candidate_cause(machine, formula, cex)
        report = all_minimal_causes(
            machine, formula, cex, candidate,
            bound=CAUSE_BOUND, max_contingency_size=CONTINGENCY_BOUND,
        )
        pairs = brute_force_causes(
            machine, formula, cex,
            max_cause_size=CAUSE_BOUND, max_contingency_size=CONTINGENCY_BOUND,
        )
        results.append((seed, machine, formula, cex, candidate, report, pairs))
    return results, time.monotonic() - started


@pytest.fixture(scope="module")
def suite_results(timed_suite):
    return timed_suite[0]


def test_criterion_1_candidate_set_exact(running_example):
    with _verdict("criterion 1 (candidate set, exact published value)"):
        machine, formula, cex = running_example
        started = time.monotonic()
        candidate = candidate_cause(machine, formula, cex)
        elapsed = time.monotonic() - started
        assert elapsed < 1.0
        expected = {Event("t1", 0, "hi", False), Event("t2", 0, "hi", True)}
        assert set(candidate.events) == expected


def test_criterion_2_minimal_causes(running_example):
    with _verdict("criterion 2 (two minimal causes with documented contingency)"):
        machine, formula, cex = running_example
        started = time.monotonic()
        candidate = candidate_cause(machine, formula, cex)
        report = all_minimal_causes(machine, formula, cex, candidate)
        elapsed = time.monotonic() - started
        assert elapsed < 5.0
        assert report.status == "found"
        by_cause = {entry.cause: entry for entry in report.causes}
        assert set(by_cause) == {
            (Event("t1", 0, "hi", False),),
            (Event("t2", 0, "hi", True),),
        }
        low_flip = by_cause[(Event("t1", 0, "hi", False),)]
        assert low_flip.contingency == () and low_flip.verified
        high_flip = by_cause[(Event("t2", 0, "hi", True),)]
        assert high_flip.contingency != () and high_flip.verified
        assert verify_actual_cause(machine, formula, cex, high_flip.cause)
        assert check_contingency_valid(
            machine, formula, cex, high_flip.cause, [Event("t2", 2, "lo", True)]
        )


def test_criterion_3_intervention_traces(running_example):
    with _verdict("criterion 3 (documented intervention traces, bit-exact)"):
        machine, formula, cex = running_example
        flip = [Event("t2", 0, "hi", True)]
        plain = intervene(machine, cex, flip, [])
        assert plain["t1"] == cex["t1"]
        assert plain["t2"] == Lasso(
            [frozenset(), frozenset({"hi", "lo"}), frozenset({"ho"})],
            [frozenset({"ho", "lo"})],
        )
        reset = intervene(machine, cex, flip, [Event("t2", 2, "lo", True)])
        assert reset["t1"] == cex["t1"]
        assert reset["t2"] == Lasso(
            [frozenset(), frozenset({"hi", "lo"}), frozenset({"ho", "lo"})],
            [frozenset({"ho", "lo"})],
        )


def test_criterion_4_counterfactual_automaton(running_example):
    with _verdict("criterion 4 (counterfactual automaton fragment)"):
        machine, _, cex = running_example
        automaton = build_counterfactual_automaton(machine, cex["t2"])
        assert automaton.step(("s0", 0), {"hi"}) == ("s1", 1)
        assert automaton.step(("s0", 0), {"lo^C"}) == ("s0", 1)
        assert automaton.step(("s0", 0), {"ho^C"}) == ("s3", 1)


def test_criterion_5a_overapproximation(suite_results):
    with _verdict("criterion 5a (oracle causes inside candidate set)"):
        violations = []
        for seed, machine, formula, cex, candidate, report, pairs in suite_results:
            for cause, _ in pairs:
                if not set(cause) <= set(candidate.events):
                    violations.append((seed, tuple(map(str, cause))))
        assert not violations, (
            f"{len(violations)} instance(s) have causes outside the candidate set "
            f"(rerouted flips are invisible to the per-step analysis): {violations[:5]}"
        )


def test_criterion_5b_algorithm_equals_oracle(suite_results):
    with _verdict("criterion 5b (all minimal causes equal brute force)"):
        for seed, machine, formula, cex, candidate, report, pairs in suite_results:
            algorithm = {(entry.cause, entry.contingency) for entry in report.causes}
            oracle = set(pairs)
            assert algorithm == oracle, f"seed {seed}: {algorithm} != {oracle}"


def test_criterion_5c_automaton_equals_evaluator():
    with _verdict("criterion 5c (alternating acceptance matches evaluation)"):
        rng = random.Random(97)
        for _ in range(PAIR_COUNT):
            f = random_ltl(rng, ["a", "b", "c"], rng.randint(1, 4))
            t = random_lasso(rng, ["a", "b", "c"], 4, 4)
            accepted, _ = accepts_lasso(ltl_to_alternating(F.nnf(f)), t)
            assert accepted == eval_ltl(t, f)


def test_criterion_5d_returned_pairs_valid(suite_results):
    with _verdict("criterion 5d (returned causes and contingencies valid)"):
        for seed, machine, formula, cex, candidate, report, pairs in suite_results:
            for entry in report.causes:
                assert satisfies_events(cex, entry.cause), f"seed {seed}"
                assert satisfies_events(cex, entry.contingency), f"seed {seed}"
                world = intervene(machine, cex, entry.cause, entry.contingency)
                assert eval_hyper(world, formula), f"seed {seed}"


def test_criterion_5_runtime(timed_suite):
    with _verdict("criterion 5 (suite size and wall-clock budget)"):
        results, seconds = timed_suite
        assert len(results) >= SUITE_SIZE
        assert seconds < SUITE_BUDGET_S, f"corpus took {seconds:.0f} s"


def test_criterion_6_formula_support_contrast(running_example):
    with _verdict("criterion 6 (formula highlighting vs full pipeline)"):
        machine, formula, cex = running_example
        body, zipped = zip_hyper(formula, cex)
        automaton = ltl_to_alternating(F.negate_to_nnf(body))
        accepted, tree = accepts_lasso(automaton, zipped.lasso)
        assert accepted
        support = annotated_events(tree, zipped)
        assert set(support) == {Event("t1", 1, "lo", True), Event("t2", 1, "lo", False)}
        assert all(e.prop in machine.outputs and e.position == 1 for e in support)
        candidate = candidate_cause(machine, formula, cex)
        report = all_minimal_causes(machine, formula, cex, candidate)
        surfaced = {e for entry in report.causes for e in entry.cause}
        assert Event("t1", 0, "hi", False) in surfaced
        assert Event("t2", 0, "hi", True) in surfaced
        assert all(e.prop in machine.inputs for e in surfaced)
