import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercause import formulas as F
from hypercause.causality import (
    _cause_free_sets,
    _closed,
    actual_cause,
    all_minimal_causes,
    least_contingency,
    verify_actual_cause,
)
from hypercause.cli import main
from hypercause.counterfactual import InterventionTable, intervene
from hypercause.errors import NothingToExplain, ValidationError
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
from hypercause.semantics import eval_hyper

from genrand import random_hyper_body, random_lasso, random_machine, random_violated_instance

OD = parse_hyperltl('Forall (Forall (G (Eq (AP "lo" 0) (AP "lo" 1))))')

LOW_T1 = Event("t1", 0, "hi", False)
HIGH_T2 = Event("t2", 0, "hi", True)
LOW_CONTINGENCY = Event("t2", 2, "lo", True)


def test_actual_cause_running_example(machine, cex):
    report = actual_cause(machine, OD, cex)
    assert report.status == "found"
    (entry,) = report.causes
    assert entry.cause == (LOW_T1,)
    assert entry.contingency == ()
    assert entry.verified


def test_all_minimal_causes_running_example(machine, cex):
    report = all_minimal_causes(machine, OD, cex)
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
    assert eval_hyper(intervene(machine, cex, [HIGH_T2], [LOW_CONTINGENCY]), OD)


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
    report = actual_cause(machine, formula, cex)
    assert report.status == "no-actual-cause"
    report = all_minimal_causes(machine, formula, cex)
    assert report.status == "no-actual-cause"
    assert report.causes == ()
    # bad is surely present from position 1 on, whatever is flipped or reset
    assert not InterventionTable(machine, formula, cex).repairable(0, None)
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
    report = all_minimal_causes(machine, formula, cex)
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
    report = actual_cause(machine, formula, cex)
    assert report.status == "found"
    (entry,) = report.causes
    assert entry.cause == (Event("t1", 0, "b", False), rerouted_a)
    assert entry.verified


@pytest.mark.parametrize("draw", [38, 777])
def test_default_search_finds_rerouted_cause_on_corpus_draw(draw):
    # acceptance-corpus draws whose only cause needs an input that matters
    # only after an earlier flip reroutes the run
    machine, formula, cex = random_violated_instance(draw)
    report = actual_cause(machine, formula, cex, max_contingency_size=2)
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
    report = all_minimal_causes(machine, OD, cex, bound=3, max_contingency_size=2)
    assert report.status == "found"
    assert report.stats["decided_by"] == "closure"
    # the first cause leaves five candidates, which the set check cannot
    # rule out; their part on t1 it can, so the search skips both t1
    # events and decides the second cause next; the four events besides
    # both causes it rules out, so no larger subset is tried
    assert report.stats["subsets_checked"] == 2
    # the pre-check, the five events, their parts on t1 and t2, and the four
    assert report.stats["set_checks"] == 5
    # the body reads `lo` on both traces: the worlds tried make 4 distinct
    # pairs of `lo` words
    assert report.stats["evaluations"] == 4
    # a run is reused when an added reset leaves the trace unchanged
    assert report.stats["runs"] == 3
    # both subsets decided are causes, so the per-subset check rules out none
    assert report.stats["ruled_out"] == 0


def test_draw_217_search_asks_only_live_reset_sets(monkeypatch):
    # acceptance draw 217 at bounds 3/2: a reset set made only of resets
    # that leave the flip-only world as it is (`InterventionTable.inert`)
    # gets the flip's verdict without a query, so the search asks 197
    # queries, against 401 when it asks every reset set; the report and
    # its counters are the same
    machine, formula, cex = random_violated_instance(217)
    queries = []
    holds = InterventionTable.holds

    def counting(self, cause_bits, reset_bits):
        queries.append((cause_bits, reset_bits))
        return holds(self, cause_bits, reset_bits)

    monkeypatch.setattr(InterventionTable, "holds", counting)
    report = all_minimal_causes(machine, formula, cex, 3, 2)
    assert len(queries) == 197
    queries.clear()
    monkeypatch.setattr(InterventionTable, "inert", lambda self, cause_bits, reset_bits: 0)
    asked = all_minimal_causes(machine, formula, cex, 3, 2)
    assert len(queries) == 401
    assert asked == report and len(report.causes) == 4
    assert {**asked.stats, "time_ms": 0} == {**report.stats, "time_ms": 0}


def _rejected_subsets(machine, formula, cex, max_size=2, max_pool=8):
    """(subsets, checked): every flip set of at most `max_size` satisfied
    input events that the per-subset check rejects, and how many of them
    were confirmed: an unbounded `least_contingency` with the check and
    the skip of inert resets disabled, which tries every reset of the
    flipped traces, finds none.  Sets with more than `max_pool` resettable
    events are not confirmed."""
    table = InterventionTable(machine, formula, cex)
    events = satisfied_events(cex, machine.inputs)
    rejected = [
        combo for size in range(1, max_size + 1)
        for combo in itertools.combinations(events, size)
        if not table.repairable(table.bits(combo))
    ]
    assert table.ruled_out == len(rejected)
    checked = 0
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(InterventionTable, "repairable", lambda self, cause_bits: True)
        mp.setattr(InterventionTable, "inert", lambda self, cause_bits, reset_bits: 0)
        exact = InterventionTable(machine, formula, cex)
        for combo in rejected:
            cause_bits = exact.bits(combo)
            if exact.resets(cause_bits).bit_count() <= max_pool:
                assert least_contingency(exact, cause_bits) is None, combo
                checked += 1
    return rejected, checked


def test_rejected_subsets_of_the_rerouting_instance_have_no_contingency():
    machine, formula, cex = rerouting_instance()
    rejected, checked = _rejected_subsets(machine, formula, cex)
    # the cause passes the check; flipping b alone reroutes the run into a
    # state whose successor on the trace's a input is bad, which the check
    # sees, since it reads the flipped letter of every copy
    assert (Event("t1", 0, "b", False), Event("t1", 1, "a", False)) not in rejected
    assert (Event("t1", 0, "b", False),) in rejected
    assert checked == len(rejected) > 0


@given(st.integers(min_value=0, max_value=10**6))
def test_rejected_subsets_have_no_contingency(seed):
    # random machines, bodies and traces; the assignment need not violate
    # the body, since the check's answer does not depend on it
    rng = random.Random(seed)
    machine = random_machine(
        rng, rng.randint(1, 2), rng.randint(1, 2), unique_labels=rng.random() < 0.5
    )
    variables = tuple(str(i) for i in range(rng.randint(1, 2)))
    body = random_hyper_body(rng, machine.inputs + machine.outputs, variables, rng.randint(1, 3))
    cex = Counterexample({
        f"t{i + 1}": machine.run(random_lasso(rng, machine.inputs, 2, 2))
        for i in range(len(variables))
    })
    _rejected_subsets(machine, F.HyperFormula(variables, body), cex)


# corpus draws where the per-subset check rejects 39 to 78 flip sets of at
# most two events; the random machines above do not reach such instances
REJECTING_DRAWS = (27, 80, 186, 248, 340)


@pytest.mark.parametrize("seed", REJECTING_DRAWS)
def test_rejected_subsets_of_corpus_draws_have_no_contingency(seed):
    rejected, checked = _rejected_subsets(*random_violated_instance(seed))
    assert checked == len(rejected) >= 39


@pytest.mark.parametrize("seed", [None, 80, 217, 350, 500])
def test_inert_resets_keep_the_flip_only_verdict(seed, machine, cex):
    # the resets `inert` names, in sets of at most two, leave the world of
    # every flip set of at most two events as the flip alone makes it; the
    # worlds come from `intervene`, which builds each run anew, outside the
    # table.  The seed None is the running example; each corpus draw here
    # has controllable outputs and inert resets (314 to 1,458 sets tried)
    formula = OD
    if seed is not None:
        machine, formula, cex = random_violated_instance(seed)
    table = InterventionTable(machine, formula, cex)
    tried = 0
    events = satisfied_events(cex, machine.inputs)
    for cause in (c for k in (1, 2) for c in itertools.combinations(events, k)):
        cause_bits = table.bits(cause)
        inert_resets = table.events(table.inert(cause_bits, table.resets(cause_bits)))
        flipped = eval_hyper(intervene(machine, cex, cause, ()), formula)
        for reset in (w for k in (1, 2) for w in itertools.combinations(inert_resets, k)):
            assert eval_hyper(intervene(machine, cex, cause, reset), formula) == flipped
            tried += 1
    assert tried > 0


def _without_set_check(mp):
    """Patch the set check out, so that a search enumerates every subset
    and the candidate analysis's pre-check rules nothing out."""
    check = InterventionTable.repairable
    mp.setattr(InterventionTable, "repairable",
               lambda self, cause_bits, free_bits=0: free_bits != 0 or check(self, cause_bits))


# corpus draws where the closure needs its edge cases: a cause-free set as
# small as the subsets left that holds a cause, or a subset that overlaps a
# ruled-out set without lying inside it
CLOSURE_DRAWS = (40, 49, 71, 118, 121, 340)


@settings(max_examples=80)
@given(st.one_of(st.sampled_from(CLOSURE_DRAWS), st.integers(min_value=1, max_value=300)),
       st.integers(min_value=1, max_value=3))
def test_a_closed_report_has_no_cause_above_its_bound(seed, bound):
    # against an unbounded search that enumerates every subset, and the
    # unbounded oracle: a report holds exactly the causes within its bound,
    # and every cause unless it is `bounded-out`
    instance = random_violated_instance(seed)
    if instance is None:
        return
    machine, formula, cex = instance
    report = all_minimal_causes(machine, formula, cex, bound, 2)
    found = tuple((e.cause, e.contingency) for e in report.causes)
    with pytest.MonkeyPatch.context() as mp:
        _without_set_check(mp)
        every = all_minimal_causes(machine, formula, cex, None, 2)
    assert every.stats["decided_by"] == "search"
    references = [tuple((e.cause, e.contingency) for e in every.causes)]
    if len(satisfied_events(cex, machine.inputs)) <= 12:  # keeps the oracle small
        references.append(brute_force_causes(machine, formula, cex, None, 2))
    for causes in references:
        assert found == tuple(c for c in causes if len(c[0]) <= bound)
        if report.status != "bounded-out":
            assert found == causes


class _SetChecks:
    """A table whose set check answers from `live`, recording each set it
    is asked about once (the table keeps its answers); events 0 and 1 lie
    on one trace, 2 and 3 on another."""

    def __init__(self, live):
        self.live, self.asked = live, []

    def repairable(self, cause_bits, free_bits=0):
        if free_bits not in self.asked:
            self.asked.append(free_bits)
        return free_bits in self.live

    def split(self, footprint):
        return [footprint & mask for mask in (0b0011, 0b1100) if footprint & mask]


def test_closure_needs_every_cause_free_set_ruled_out():
    # causes {0} and {1, 2} over events 0-3: the maximal cause-free sets
    # are {1, 3} and {2, 3}
    causes = [0b0001, 0b0110]
    assert sorted(_cause_free_sets(0b1111, causes, 2)) == [0b1010, 0b1100]
    assert _closed(_SetChecks(live=set()), 0b1111, causes, 2, []) is True
    dead = []
    assert _closed(_SetChecks(live={0b1100}), 0b1111, causes, 2, dead) is False
    assert 0b1100 not in dead
    # a set inside one ruled out is not asked about, one that overlaps it is
    table = _SetChecks(live=set())
    assert _closed(table, 0b1111, causes, 2, [0b1110]) is True
    assert table.asked == []
    table = _SetChecks(live={0b1100})
    assert _closed(table, 0b1111, causes, 2, [0b1011]) is False
    assert table.asked == [0b1100]
    # none left of three or more events: decided without a check
    assert _closed(_SetChecks(set()), 0b1111, causes, 3, []) is None


def test_a_live_set_leaves_its_dead_parts_on_each_trace():
    # {1, 3} spans both traces: it stays live, its part {3} too, and its
    # part {1} is ruled out, so the search skips it
    table = _SetChecks(live={0b1010, 0b1000, 0b1100})
    dead = []
    assert _closed(table, 0b1111, [0b0001, 0b0110], 2, dead) is False
    assert table.asked == [0b1010, 0b0010, 0b1000]
    assert dead == [0b0010]


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=300), st.randoms(use_true_random=False))
def test_every_subset_of_a_dead_set_has_no_contingency(seed, rng):
    # the sets the closure rules out, and sets drawn from every input event
    instance = random_violated_instance(seed)
    if instance is None:
        return
    machine, formula, cex = instance
    dead = []
    check = InterventionTable.repairable

    def recording(self, cause_bits, free_bits=0):
        verdict = check(self, cause_bits, free_bits)
        if free_bits and not verdict:
            dead.append(self.events(free_bits))
        return verdict

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(InterventionTable, "repairable", recording)
        all_minimal_causes(machine, formula, cex, 3, 2)
        table = InterventionTable(machine, formula, cex)
        inputs = satisfied_events(cex, machine.inputs)
        for _ in range(4):
            drawn = rng.sample(inputs, rng.randint(1, len(inputs)))
            table.repairable(0, table.bits(drawn))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(InterventionTable, "repairable", lambda self, cause_bits: True)
        mp.setattr(InterventionTable, "inert", lambda self, cause_bits, reset_bits: 0)
        exact = InterventionTable(machine, formula, cex)
        for events in dead:
            subsets = [c for k in range(1, len(events) + 1)
                       for c in itertools.combinations(events, k)]
            for sub in subsets if len(subsets) <= 31 else rng.sample(subsets, 31):
                assert least_contingency(exact, exact.bits(sub)) is None, (events, sub)


def test_bounded_out_status():
    machine, formula, cex = rerouting_instance()
    report = all_minimal_causes(machine, formula, cex, bound=1)
    assert report.status == "bounded-out"
    assert report.causes == ()
    # the pre-check cannot rule out the two-event cause, so the search ran
    assert InterventionTable(machine, formula, cex).repairable(0, None)
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
            least_contingency(table, table.bits(sub)) is not None
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
    assert least_contingency(table, table.bits([HIGH_T2])) is None
    assert least_contingency(table, table.bits([LOW_T1])) == 0
    report = all_minimal_causes(machine, OD, cex, max_contingency_size=0)
    entries = {entry.cause: entry.contingency for entry in report.causes}
    assert entries[(LOW_T1,)] == ()
    assert (HIGH_T2,) not in entries


def _covers_unbounded(universe, causes, bound):
    """Whether no subset above the bound can be a new minimal cause, by the
    least hitting set of the causes, with no limit on its size."""
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
    # `_cause_free_sets` gives exactly the maximal cause-free subsets of at
    # least the given size, and none exactly when every larger subset holds
    # a cause
    rng = random.Random(seed)
    universe = [Event("t", pos, "i", True) for pos in range(rng.randint(1, 8))]
    causes = [
        tuple(rng.sample(universe, rng.randint(1, min(3, len(universe)))))
        for _ in range(rng.randint(0, 4))
    ]
    bound = rng.randint(0, len(universe))
    bit = {e: 1 << i for i, e in enumerate(universe)}
    footprints = [sum(bit[e] for e in c) for c in causes]
    full = (1 << len(universe)) - 1
    free = [m for m in range(full + 1) if not any(f & m == f for f in footprints)]
    maximal = {m for m in free if not any(m != n and m | n == n for n in free)}
    sets = list(_cause_free_sets(full, footprints, bound + 1))
    assert len(sets) == len(set(sets))
    assert set(sets) == {m for m in maximal if m.bit_count() > bound}
    assert (not sets) == _covers_unbounded(universe, causes, bound)


def test_bounded_cover_check_stops_early():
    # 20 disjoint pairs: the least hitting set has 20 events, so an
    # unbounded enumeration would meet 2^20 of them; with bound 36 only
    # hitting sets of at most 3 events can matter.  Each set grown scans the
    # causes, so the count of those scans bounds the sets tried.
    class Causes(list):
        scans = 0

        def __iter__(self):
            Causes.scans += 1
            if Causes.scans > 10**4:
                raise AssertionError("more than 10^4 scans of the causes")
            return list.__iter__(self)

    causes = Causes(0b11 << 2 * k for k in range(20))
    assert list(_cause_free_sets((1 << 40) - 1, causes, 37)) == []
    assert 0 < Causes.scans


def test_search_names_the_trace_that_is_not_a_run(machine):
    from conftest import t1

    bad = Counterexample({"t1": t1(), "t2": Lasso([frozenset({"ho"})], [frozenset({"ho", "lo"})])})
    with pytest.raises(ValidationError, match="'t2'"):
        all_minimal_causes(machine, OD, bad)


def _record_walks(monkeypatch) -> list:
    walked = []
    check = MooreMachine._check_trace
    monkeypatch.setattr(
        MooreMachine, "_check_trace", lambda m, trace: walked.append(trace) or check(m, trace)
    )
    return walked


@pytest.mark.parametrize("search", [actual_cause, all_minimal_causes])
def test_search_walks_each_trace_once(machine, cex, monkeypatch, search):
    # the candidate analysis reads the runs the search's automata walked
    walked = _record_walks(monkeypatch)
    report = search(machine, OD, cex)
    assert report.causes
    assert walked == list(cex.lassos())


@pytest.mark.parametrize("argv, walks", [
    (["explain"], 2),
    (["explain", "--all"], 2),
    (["candidates"], 2),
    (["oracle"], 2),  # one table serves the candidate analysis and the oracle
], ids=["explain", "explain --all", "candidates", "oracle"])
def test_cli_walks_each_trace_once_per_table(monkeypatch, capsys, argv, walks):
    from test_cli import FORMULA, SYSTEM, TRACES

    walked = _record_walks(monkeypatch)
    assert main(argv + ["--system", SYSTEM, "--formula", FORMULA,
                        "--counterexample", TRACES]) == 0
    capsys.readouterr()
    assert len(walked) == walks


def satisfied_assignment():
    """t1 twice: the body holds, so there is no violation to explain."""
    from conftest import t1

    return Counterexample({"t1": t1(), "t2": t1()})


@pytest.mark.parametrize("search", [
    actual_cause,
    all_minimal_causes,
    candidate_cause,
    brute_force_causes,
])
def test_search_requires_a_violation(machine, search):
    with pytest.raises(NothingToExplain):
        search(machine, OD, satisfied_assignment())


def test_no_cause_and_no_repair_without_a_violation(machine):
    # the flip keeps the body holding, which repairs nothing
    sat = satisfied_assignment()
    assert not verify_actual_cause(machine, OD, sat, [Event("t1", 2, "hi", False)])
