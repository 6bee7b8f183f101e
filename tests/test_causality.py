import itertools
import json
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypercause.causality import (
    _covers_all_larger_subsets,
    actual_cause,
    all_minimal_causes,
    check_contingency_valid,
    least_contingency,
    verify_actual_cause,
)
from hypercause.cli import main
from hypercause.counterfactual import InterventionTable
from hypercause.errors import ValidationError
from hypercause.events import (
    Counterexample,
    Event,
    satisfied_events,
    satisfies_events,
    sort_events,
)
from hypercause.lasso import Lasso
from hypercause.machine import MooreMachine, traces_to_json
from hypercause.oracle import brute_force_causes
from hypercause.parser import parse_hyperltl
from hypercause.satcore import candidate_cause

from genrand import random_violated_instance

OD = parse_hyperltl('Forall (Forall (G (Eq (AP "lo" 0) (AP "lo" 1))))')

LOW_T1 = Event("t1", 0, "hi", False)
HIGH_T2 = Event("t2", 0, "hi", True)
LOW_CONTINGENCY = Event("t2", 2, "lo", True)


def test_actual_cause_running_example(machine, cex):
    candidate = candidate_cause(machine, OD, cex)
    report = actual_cause(machine, OD, cex, candidate)
    assert report.status == "found"
    (entry,) = report.causes
    assert entry.cause == (LOW_T1,)
    assert entry.contingency == ()
    assert entry.verified


def test_actual_cause_singleton_candidate_returned_unchanged(machine, cex):
    from hypercause.satcore import CandidateSet

    candidate = CandidateSet((LOW_T1,), (), ())
    report = actual_cause(machine, OD, cex, candidate)
    assert report.status == "found"
    assert report.causes[0].cause == (LOW_T1,)


def test_all_minimal_causes_running_example(machine, cex):
    candidate = candidate_cause(machine, OD, cex)
    report = all_minimal_causes(machine, OD, cex, candidate)
    assert report.status == "found"
    causes = {entry.cause for entry in report.causes}
    assert causes == {(LOW_T1,), (HIGH_T2,)}
    for entry in report.causes:
        assert entry.verified
        if entry.cause == (HIGH_T2,):
            assert entry.contingency != ()
        else:
            assert entry.contingency == ()
    # pairwise incomparable
    for a in causes:
        for b in causes:
            if a != b:
                assert not set(a) <= set(b)


def test_documented_contingency_is_valid(machine, cex):
    assert check_contingency_valid(machine, OD, cex, [HIGH_T2], [LOW_CONTINGENCY])


def test_verify_actual_cause_accepts_both_causes(machine, cex):
    assert verify_actual_cause(machine, OD, cex, [HIGH_T2])
    assert verify_actual_cause(machine, OD, cex, [LOW_T1])


def test_verify_rejects_superset(machine, cex):
    assert not verify_actual_cause(machine, OD, cex, [HIGH_T2, LOW_T1])


def test_verify_rejects_second_high_input(machine, cex):
    assert not verify_actual_cause(machine, OD, cex, [Event("t2", 1, "hi", True)])


def test_verify_rejects_unsatisfied_or_empty(machine, cex):
    assert not verify_actual_cause(machine, OD, cex, [])
    assert not verify_actual_cause(machine, OD, cex, [Event("t2", 0, "hi", False)])


def no_cause_instance():
    """The violation occurs on every trace: nothing to flip, nothing to reset."""
    machine = MooreMachine.from_guards(
        inputs=["a"],
        outputs=["bad"],
        labels={"q0": [], "q1": ["bad"]},
        initial="q0",
        transitions=[("q0", "true", "q1"), ("q1", "true", "q1")],
    )
    formula = parse_hyperltl('Forall (G (Not (AP "bad" 0)))')
    trace = machine.run(Lasso([], [frozenset()]))
    return machine, formula, Counterexample({"t1": trace})


def test_no_actual_cause_when_effect_is_universal():
    machine, formula, cex = no_cause_instance()
    candidate = candidate_cause(machine, formula, cex)
    assert candidate.events == ()
    report = actual_cause(machine, formula, cex, candidate)
    assert report.status == "no-actual-cause"
    report = all_minimal_causes(machine, formula, cex, candidate)
    assert report.status == "no-actual-cause"
    assert report.causes == ()
    # bad is surely present from position 1 on, whatever is flipped or reset
    assert not candidate.feasible
    assert report.stats["decided_by"] == "precheck"
    assert report.stats["subsets_checked"] == 0


def test_draw_701_decided_without_a_cause_bound():
    # forall 0. o0[0] U o0[0] reads o0 at position 0, which the initial
    # state fixes; an unbounded subset search over its 12 input events
    # and 18 resettable output events does not finish
    machine, formula, cex = random_violated_instance(701)
    assert str(formula.body) == "o0[0] U o0[0]"
    started = time.monotonic()
    report = actual_cause(machine, formula, cex)
    assert time.monotonic() - started < 1.0
    assert report.status == "no-actual-cause"
    assert report.stats["decided_by"] == "precheck"


def rerouting_instance():
    """A two-event cause whose second event is inert on the original run.

    Flipping b reroutes the first step; only then does the a input at the
    next step matter.  The per-step analysis of the original run cannot see
    the second event; the rerouting part of the candidate analysis does.
    """
    machine = MooreMachine.from_guards(
        inputs=["a", "b"],
        outputs=["bad"],
        labels={"s0": [], "sB": [], "sGood": [], "sBad": ["bad"]},
        initial="s0",
        transitions=[
            ("s0", "b", "sB"),
            ("s0", "!b", "sBad"),
            ("sB", "a", "sGood"),
            ("sB", "!a", "sBad"),
            ("sGood", "true", "sGood"),
            ("sBad", "true", "sBad"),
        ],
    )
    formula = parse_hyperltl('Forall (G (Not (AP "bad" 0)))')
    trace = machine.run(Lasso([frozenset(), frozenset()], [frozenset()]))
    assert trace == Lasso([frozenset(), frozenset({"bad"})], [frozenset({"bad"})])
    return machine, formula, Counterexample({"t1": trace})


def test_rerouting_cause_found_by_full_search():
    machine, formula, cex = rerouting_instance()
    candidate = candidate_cause(machine, formula, cex)
    report = all_minimal_causes(machine, formula, cex, candidate)
    causes = {entry.cause for entry in report.causes}
    assert (Event("t1", 0, "b", False), Event("t1", 1, "a", False)) in causes
    for entry in report.causes:
        assert verify_actual_cause(machine, formula, cex, entry.cause)


def test_rerouting_cause_found_by_default_search():
    machine, formula, cex = rerouting_instance()
    candidate = candidate_cause(machine, formula, cex)
    rerouted_a = Event("t1", 1, "a", False)
    assert rerouted_a in candidate.events
    assert candidate.rerouted == (rerouted_a,)
    report = actual_cause(machine, formula, cex, candidate)
    assert report.status == "found"
    (entry,) = report.causes
    assert entry.cause == (Event("t1", 0, "b", False), rerouted_a)
    assert entry.verified


@pytest.mark.parametrize("draw", [38, 777])
def test_default_search_finds_rerouted_cause_on_corpus_draw(draw):
    # acceptance-corpus draws whose only cause needs an input that matters
    # only after an earlier flip reroutes the run
    machine, formula, cex = random_violated_instance(draw)
    candidate = candidate_cause(machine, formula, cex)
    report = actual_cause(machine, formula, cex, candidate, max_contingency_size=2)
    assert report.status == "found"
    oracle_causes = {
        cause
        for cause, _ in brute_force_causes(
            machine, formula, cex, max_cause_size=3, max_contingency_size=2
        )
    }
    assert report.causes[0].cause in oracle_causes
    assert report.causes[0].verified


def test_each_distinct_world_evaluated_once(machine, cex, monkeypatch):
    from hypercause import counterfactual

    worlds = []
    evaluate = counterfactual.eval_hyper

    def recording(world, formula):
        worlds.append(world)
        return evaluate(world, formula)

    monkeypatch.setattr(counterfactual, "eval_hyper", recording)
    report = all_minimal_causes(machine, OD, cex)
    assert report.status == "found"
    assert worlds
    assert len(worlds) == len(set(worlds)) == report.stats["evaluations"]


def test_running_example_search_counters(machine, cex):
    # a run is reused when an added reset leaves the trace unchanged;
    # without that, the same search makes 137 counterfactual runs
    report = all_minimal_causes(machine, OD, cex, bound=3, max_contingency_size=2)
    assert report.stats["subsets_checked"] == 16
    assert report.stats["evaluations"] == 24
    assert report.stats["runs"] == 11


def test_bounded_out_status():
    machine, formula, cex = rerouting_instance()
    report = all_minimal_causes(machine, formula, cex, None, bound=1)
    assert report.status == "bounded-out"
    assert report.causes == ()
    # the pre-check cannot rule out the two-event cause, so the search ran
    assert report.candidate.feasible
    assert report.stats["decided_by"] == "search"


def test_first_cause_search_honours_the_cause_bound():
    # the only cause has two events, so a bound of one cuts the search
    machine, formula, cex = rerouting_instance()
    report = actual_cause(machine, formula, cex, bound=1)
    assert report.status == "bounded-out"
    assert report.causes == ()
    assert actual_cause(machine, formula, cex, bound=2).status == "found"


def test_explain_exits_3_when_the_cause_bound_cuts_the_search(tmp_path, capsys):
    machine, formula, cex = rerouting_instance()
    system = tmp_path / "m.json"
    system.write_text(json.dumps(machine.to_json()))
    traces = tmp_path / "t.json"
    traces.write_text(json.dumps(traces_to_json(cex.traces)))
    spec = tmp_path / "f.hltl"
    spec.write_text(str(formula))
    argv = ["explain", "--system", str(system), "--formula", str(spec),
            "--counterexample", str(traces)]
    assert main(argv + ["--max-cause-size", "1"]) == 3
    assert json.loads(capsys.readouterr().out)["status"] == "bounded-out"
    assert main(argv) == 0
    assert len(json.loads(capsys.readouterr().out)["causes"]) == 1


def _violated_draws(count):
    seed = 0
    while count:
        seed += 1
        instance = random_violated_instance(seed)
        if instance is not None:
            count -= 1
            yield instance


def test_first_cause_is_the_first_of_all_causes():
    for machine, formula, cex in _violated_draws(40):
        bounds = {"bound": 3, "max_contingency_size": 2}
        first = actual_cause(machine, formula, cex, **bounds)
        every = all_minimal_causes(machine, formula, cex, **bounds)
        assert (first.status == "found") == bool(every.causes)
        assert first.causes == every.causes[:1]


def reference_verify_actual_cause(machine, formula, cex, cause, table):
    """`verify_actual_cause` with the nested counterfactual condition: `cf`
    of a set asks whether some non-empty subset of it passes the contingency
    search, so every subset of every proper subset is decided again."""
    cause = sort_events(cause)
    if not cause:
        return False
    if not satisfies_events(cex, cause):
        return False

    def cf(events):
        return any(
            least_contingency(table, sub) is not None
            for size in range(1, len(events) + 1)
            for sub in itertools.combinations(events, size)
        )

    if not cf(cause):
        return False
    for size in range(1, len(cause)):
        for proper in itertools.combinations(cause, size):
            if cf(proper):
                return False
    return True


def test_verification_agrees_with_nested_reference():
    rng = random.Random(5)
    verdicts = []
    for machine, formula, cex in _violated_draws(40):
        table = InterventionTable(machine, formula, cex, max_contingency_size=2)
        report = all_minimal_causes(machine, formula, cex, bound=3, max_contingency_size=2)
        inputs = satisfied_events(cex, machine.inputs)
        sets = [entry.cause for entry in report.causes]
        # supersets of causes, and sets drawn from every input event, most
        # of which contain a non-cause
        sets += [c + (rng.choice(inputs),) for c in sets]
        sets += [rng.sample(inputs, rng.randint(1, min(3, len(inputs)))) for _ in range(4)]
        for events in sets:
            verdict = verify_actual_cause(machine, formula, cex, events, table=table)
            assert verdict == reference_verify_actual_cause(machine, formula, cex, events, table)
            verdicts.append(verdict)
    assert True in verdicts and False in verdicts


def test_max_contingency_size_zero_disables_contingencies(machine, cex):
    table = InterventionTable(machine, OD, cex, max_contingency_size=0)
    assert least_contingency(table, (HIGH_T2,)) is None
    assert least_contingency(table, (LOW_T1,)) == ()
    report = all_minimal_causes(machine, OD, cex, max_contingency_size=0)
    entries = {entry.cause: entry.contingency for entry in report.causes}
    assert entries[(LOW_T1,)] == ()
    assert (HIGH_T2,) not in entries


def _covers_unbounded(universe, causes, bound):
    """`_covers_all_larger_subsets` before its enumeration was bounded."""
    if bound >= len(universe):
        return True
    if not causes:
        return False
    pool = sorted({e for c in causes for e in c}, key=Event.sort_key)
    for k in range(len(pool) + 1):
        for hitting in itertools.combinations(pool, k):
            if all(any(h in c for h in hitting) for c in causes):
                return len(universe) - k <= bound
    return False


@given(st.integers(min_value=0, max_value=10**6))
def test_bounded_cover_check_agrees_with_unbounded(seed):
    rng = random.Random(seed)
    universe = [Event("t", pos, "i", True) for pos in range(rng.randint(1, 8))]
    causes = [
        tuple(rng.sample(universe, rng.randint(1, min(3, len(universe)))))
        for _ in range(rng.randint(0, 4))
    ]
    bound = rng.randint(0, len(universe))
    assert _covers_all_larger_subsets(universe, causes, bound) == _covers_unbounded(
        universe, causes, bound
    )


def test_bounded_cover_check_stops_early():
    # 20 disjoint pairs: the least hitting set has 20 events, so the
    # unbounded loop would try every set of fewer than 20 of the 40 events
    # (over 10^11) before answering; with bound 36 only sets of at most 3
    # events can matter.  Each set tried asks at least one cause whether it
    # holds an event, so the count of those questions bounds the sets tried.
    class Cause(tuple):
        asked = 0

        def __contains__(self, event):
            Cause.asked += 1
            if Cause.asked > 10**6:
                raise AssertionError("more than 10^6 membership tests")
            return tuple.__contains__(self, event)

    universe = [Event("t", pos, "i", True) for pos in range(40)]
    causes = [Cause((universe[2 * k], universe[2 * k + 1])) for k in range(20)]
    assert _covers_all_larger_subsets(universe, causes, 36)
    assert 0 < Cause.asked


def test_search_names_the_trace_that_is_not_a_run(machine):
    from conftest import t1

    bad = Counterexample({"t1": t1(), "t2": Lasso([frozenset({"ho"})], [frozenset({"ho", "lo"})])})
    with pytest.raises(ValidationError, match="'t2'"):
        all_minimal_causes(machine, OD, bad)


@pytest.mark.parametrize("search", [actual_cause, all_minimal_causes])
def test_search_walks_each_trace_once(machine, cex, monkeypatch, search):
    # the candidate analysis reads the runs the search's automata walked
    walked = []
    check = MooreMachine._check_trace
    monkeypatch.setattr(
        MooreMachine, "_check_trace", lambda m, trace: walked.append(trace) or check(m, trace)
    )
    report = search(machine, OD, cex)
    assert report.causes
    assert walked == list(cex.lassos())
