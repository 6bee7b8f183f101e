import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercause import counterfactual
from hypercause import formulas as F
from hypercause.causality import actual_cause, all_minimal_causes
from hypercause.counterfactual import (
    CounterfactualAutomaton,
    InterventionTable,
    contingency_flag,
    controllable_outputs,
    intervene,
    intervention_word,
)
from hypercause.errors import ValidationError
from hypercause.events import (
    Counterexample, Event, satisfied_events, satisfies_events, sort_events,
)
from hypercause.lasso import Lasso, joint_shape
from hypercause.machine import MooreMachine, walk
from hypercause.oracle import brute_force_causes, enumerate_causes
from hypercause.parser import parse_hyperltl
from hypercause.semantics import eval_hyper

from conftest import t1, t2
from test_machine import random_input_word, random_machine


def test_controllable_outputs_full_for_complete_labelling(machine):
    chosen, excluded = controllable_outputs(machine)
    assert chosen == ("ho", "lo")
    assert excluded == ()


def test_chain_structure(machine):
    aut = CounterfactualAutomaton(machine, t2())
    assert aut.initial == ("s0", 0)
    assert len(aut.source) - 1 == 2
    assert aut.loop_to == 2
    assert set(_alphabet(aut)) == {"hi", "ho^C", "lo^C"}


def test_reachable_fragment_transitions(machine):
    # the three documented edges out of the initial copy
    aut = CounterfactualAutomaton(machine, t2())
    assert aut.step(("s0", 0), {"hi"}) == ("s1", 1)
    assert aut.step(("s0", 0), {"lo^C"}) == ("s0", 1)
    assert aut.step(("s0", 0), {"ho^C"}) == ("s3", 1)
    assert aut.step(("s0", 0), set()) == ("s2", 1)
    # prefix copies cannot be revisited: loop stays in the last copy
    assert aut.step(("s3", 2), set()) == ("s3", 2)
    reachable = _step_pairs(aut)
    assert ("s0", 0) in reachable
    assert all(k > 0 for (s, k) in reachable if (s, k) != ("s0", 0))
    assert reachable == _letter_closure(aut)


def test_no_contingency_projection_matches_base_run(machine):
    aut = CounterfactualAutomaton(machine, t2())
    word = intervention_word(aut, [], [])
    assert aut.run(word) == t2()


def test_flip_first_high_input_reproduces_documented_counterfactual(machine, cex):
    flipped = intervene(machine, cex, [Event("t2", 0, "hi", True)], [])
    assert flipped["t1"] == t1()
    assert flipped["t2"] == Lasso(
        [frozenset(), frozenset({"hi", "lo"}), frozenset({"ho"})],
        [frozenset({"ho", "lo"})],
    )


def test_flip_with_low_output_contingency(machine, cex):
    flipped = intervene(
        machine,
        cex,
        [Event("t2", 0, "hi", True)],
        [Event("t2", 2, "lo", True)],
    )
    assert flipped["t1"] == t1()
    assert flipped["t2"] == Lasso(
        [frozenset(), frozenset({"hi", "lo"}), frozenset({"ho", "lo"})],
        [frozenset({"ho", "lo"})],
    )


def test_empty_intervention_is_identity(machine, cex):
    assert intervene(machine, cex, [], []) == cex


def test_intervene_rejects_unknown_trace(machine, cex):
    with pytest.raises(ValidationError, match="unknown trace"):
        intervene(machine, cex, [Event("t9", 0, "hi", True)], [])


def test_intervene_rejects_out_of_range_position(machine, cex):
    with pytest.raises(ValidationError, match="out of range"):
        intervene(machine, cex, [Event("t2", 9, "hi", True)], [])


def test_intervene_rejects_unsatisfied_cause(machine, cex):
    with pytest.raises(ValidationError, match="not satisfied"):
        intervene(machine, cex, [Event("t2", 0, "hi", False)], [])


def test_intervention_word_flip_is_involutive(machine):
    aut = CounterfactualAutomaton(machine, t2())
    cause = [Event("t2", 0, "hi", True), Event("t2", 2, "hi", False)]
    once = intervention_word(aut, cause, [])
    # flipping the same literals on the flipped word restores the original
    word_props = [set(once.at(k)) for k in range(len(once))]
    for e in cause:
        if e.prop in word_props[e.position]:
            word_props[e.position].discard(e.prop)
        else:
            word_props[e.position].add(e.prop)
    restored = Lasso(word_props[: once.loop_start], word_props[once.loop_start :])
    inputs = frozenset(machine.inputs)
    original = t2()
    assert restored == Lasso(
        [s & inputs for s in original.prefix], [s & inputs for s in original.period]
    )


def test_loop_contingency_applies_every_iteration():
    # two-position loop; forcing the output back at one loop offset only
    m = MooreMachine.from_guards(
        inputs=["a"],
        outputs=["o"],
        labels={"p": [], "q": ["o"]},
        initial="p",
        transitions=[
            ("p", "a", "q"),
            ("p", "!a", "p"),
            ("q", "true", "p"),
        ],
    )
    source = m.run(Lasso([], [frozenset({"a"}), frozenset()]))
    assert source == Lasso([], [frozenset({"a"}), frozenset({"o"})])
    cex = Counterexample({"t": source})
    # flip the 'a' at loop offset 0, then force o back at loop offset 1
    flipped = intervene(m, cex, [Event("t", 0, "a", True)], [Event("t", 1, "o", True)])
    got = flipped["t"]
    for n in range(1, 9, 2):
        assert "o" in got.at(n)
    for n in range(0, 9, 2):
        assert "o" not in got.at(n) and "a" not in got.at(n)


def test_position_zero_contingency_is_noop(machine, cex):
    before = intervene(machine, cex, [Event("t2", 0, "hi", True)], [])
    after = intervene(
        machine, cex, [Event("t2", 0, "hi", True)], [Event("t2", 0, "ho", False)]
    )
    assert before == after


def test_degraded_contingencies_on_incomplete_labelling():
    m = MooreMachine.from_guards(
        inputs=["a"],
        outputs=["x", "y"],
        labels={"p": [], "q": ["x"]},
        initial="p",
        transitions=[("p", "a", "q"), ("p", "!a", "p"), ("q", "true", "p")],
    )
    chosen, excluded = controllable_outputs(m)
    assert chosen == ("x",)
    assert excluded == ("y",)
    aut = CounterfactualAutomaton(m, m.run(Lasso([], [frozenset({"a"})])))
    assert "y" not in aut.controllable
    assert aut.excluded_outputs == ("y",)


def test_contingency_on_uncontrollable_output_rejected():
    m = MooreMachine.from_guards(
        inputs=["a"],
        outputs=["x", "y"],
        labels={"p": [], "q": ["x"]},
        initial="p",
        transitions=[("p", "a", "q"), ("p", "!a", "p"), ("q", "true", "p")],
    )
    trace = m.run(Lasso([frozenset({"a"})], [frozenset()]))
    cex = Counterexample({"t": trace})
    assert controllable_outputs(m)[1] == ("y",)
    with pytest.raises(ValidationError, match="not contingency-controllable"):
        intervene(m, cex, [], [Event("t", 1, "y", False)])


def test_duplicate_labels_still_allow_plain_runs():
    # two states share a label: no contingencies, but projection still works
    m = MooreMachine.from_guards(
        inputs=["a"],
        outputs=["o"],
        labels={"p": [], "p2": [], "q": ["o"]},
        initial="p",
        transitions=[
            ("p", "a", "q"), ("p", "!a", "p2"),
            ("p2", "a", "q"), ("p2", "!a", "p"),
            ("q", "true", "q"),
        ],
    )
    aut = CounterfactualAutomaton(m, m.run(Lasso([], [frozenset()])))
    assert aut.controllable == ()
    assert aut.excluded_outputs == ("o",)
    word = intervention_word(aut, [], [])
    assert aut.run(word) == m.run(Lasso([], [frozenset()]))


def test_random_no_contingency_conservativity():
    rng = random.Random(13)
    checked = 0
    while checked < 40:
        m = random_machine(rng, n_inputs=rng.randint(1, 2), n_states=rng.randint(2, 4))
        labels = list(m.labels.values())
        if len(set(labels)) != len(labels):
            continue  # injective labelling only
        w = random_input_word(rng, m.inputs)
        trace = m.run(w)
        cex = Counterexample({"t": trace})
        aut = CounterfactualAutomaton(m, trace)
        projected = aut.run(intervention_word(aut, [], []))
        assert projected == trace
        checked += 1


def _alphabet(aut):
    # the automaton's inputs: the machine's plus one auxiliary contingency
    # input per controllable output
    return (*aut.machine.inputs, *(contingency_flag(o) for o in aut.controllable))


def _step_pairs(aut):
    # every (state, copy) some step of `step_sets` holds
    return {(s, k) for states, k in aut.step_sets()[0] for s in states}


def _letter_closure(aut):
    # every (state, copy) reached by stepping with every letter of the
    # automaton's alphabet: inputs plus auxiliary contingency inputs
    alphabet = _alphabet(aut)
    seen = {aut.initial}
    frontier = [aut.initial]
    while frontier:
        st = frontier.pop()
        for k in range(len(alphabet) + 1):
            for letter in itertools.combinations(alphabet, k):
                nxt = aut.step(st, letter)
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return seen


def test_random_reachable_equals_letter_by_letter_closure():
    rng = random.Random(29)
    for _ in range(60):
        m = random_machine(rng, n_inputs=rng.randint(1, 2), n_states=rng.randint(2, 4))
        trace = m.run(random_input_word(rng, m.inputs))
        aut = CounterfactualAutomaton(m, trace)
        pairs, loop = aut.step_sets()
        assert len(set(pairs)) == len(pairs) and 0 <= loop < len(pairs)
        assert _step_pairs(aut) == _letter_closure(aut)


def test_events_satisfied_by_construction(machine, cex):
    cause = [Event("t2", 0, "hi", True), Event("t1", 0, "hi", False)]
    assert satisfies_events(cex, cause)
    assert not satisfies_events(cex, [Event("t2", 0, "hi", False)])
    assert satisfies_events(cex, [])


def test_controllable_outputs_computed_once_per_machine(monkeypatch):
    from hypercause import counterfactual
    from hypercause.parser import parse_hyperltl
    from hypercause.satcore import candidate_cause

    from conftest import leaky_cex, leaky_machine

    computed = []
    largest = counterfactual._largest_controllable
    monkeypatch.setattr(
        counterfactual, "_largest_controllable", lambda m: computed.append(m) or largest(m)
    )
    machine, cex = leaky_machine(), leaky_cex()
    formula = parse_hyperltl('Forall (Forall (G (Eq (AP "lo" 0) (AP "lo" 1))))')
    candidate_cause(machine, formula, cex)
    table = counterfactual.InterventionTable(machine, formula, cex)
    assert computed == [machine]
    assert all(aut.controllable == ("ho", "lo") for aut in table.automata.values())


def _table_case(seed: int):
    """A draw's machine and formula with one trace per variable, each the run
    of a random input word (no violation needed: the table's semantics does
    not depend on one)."""
    from genrand import random_draw, random_lasso

    rng = random.Random(seed)
    machine, formula = random_draw(seed)
    cex = Counterexample({
        f"t{k}": machine.run(random_lasso(rng, machine.inputs))
        for k in range(len(formula.variables))
    })
    return rng, machine, formula, cex


def _read_props(formula, cex) -> dict[str, frozenset[str]]:
    """Per trace, the propositions the body reads on it (variables bind
    positionally)."""
    read = {name: set() for name in cex.names()}
    binding = dict(zip(formula.variables, cex.names()))
    for atom in F.atoms(formula.body):
        read[binding[atom.var]].add(atom.prop)
    return {name: frozenset(props) for name, props in read.items()}


def _restricted(world: Counterexample, read: dict[str, frozenset[str]]) -> tuple[Lasso, ...]:
    return tuple(
        Lasso([a & read[name] for a in t.prefix], [a & read[name] for a in t.period])
        for name, t in world.traces.items()
    )


def test_interned_evaluation_agrees_with_uninterned():
    # how many draws have a body that reads a strict subset of some trace's
    # propositions, and a trace on which it reads no output
    seen = {"strict subset": 0, "no output read": 0}

    @settings(max_examples=60)
    @given(st.integers(min_value=0, max_value=10**6))
    def check(seed):
        strict, word_only = _check_interned_evaluation(seed)
        seen["strict subset"] += strict
        seen["no output read"] += word_only

    check()
    assert seen["strict subset"] >= 40 and seen["no output read"] >= 20, seen


def _check_interned_evaluation(seed: int) -> tuple[bool, bool]:
    rng, machine, formula, cex = _table_case(seed)
    table = InterventionTable(machine, formula, cex)
    read = _read_props(formula, cex)
    alphabet = frozenset(machine.inputs) | frozenset(machine.outputs)
    word_only = {name for name, props in read.items() if not props & set(machine.outputs)}
    inputs = satisfied_events(cex, machine.inputs)
    resets = [
        Event(name, pos, prop, prop in cex[name].at(pos))
        for name in cex.names()
        for pos in range(len(cex[name]))
        for prop in table.automata[name].controllable
    ]

    def draw(pool):
        return rng.sample(pool, rng.randint(0, min(3, len(pool))))

    pairs = []
    for _ in range(6):
        cause, reset = draw(inputs), draw(resets)
        pairs.append((cause, reset))
        # the same footprint on the first trace, a new one on the others
        first = cex.names()[0]
        pairs.append((
            [e for e in cause if e.trace == first] + [e for e in draw(inputs) if e.trace != first],
            [e for e in reset if e.trace == first] + [e for e in draw(resets) if e.trace != first],
        ))
    # footprints that grow one reset at a time, as `least_contingency` tries
    # them, so that runs are reused; the empty cause reuses every run
    for cause in ([], draw(inputs), draw(inputs)):
        chain = rng.sample(resets, min(4, len(resets)))
        pairs += [(cause, chain[:k]) for k in range(len(chain) + 1)]
    for cause, reset in pairs + pairs[::-1]:
        world = intervene(machine, cex, cause, reset)
        assert table.intervened(cause, reset) == world
        assert table.satisfies_after(cause, reset) == eval_hyper(world, formula)
    # one evaluation per distinct tuple of views: each world restricted, per
    # trace, to what the body reads there
    assert table.evaluations == len(
        {_restricted(intervene(machine, cex, c, r), read) for c, r in pairs}
    )
    footprints = {
        (name, frozenset(e for e in c if e.trace == name), frozenset(e for e in r if e.trace == name))
        for c, r in pairs
        for name in cex.names()
    }
    changed = len({f for f in footprints if f[1] or f[2]})
    assert table.runs < changed if resets else table.runs <= changed
    # no run on a trace whose outputs the body never reads
    assert table.runs <= len({f for f in footprints if (f[1] or f[2]) and f[0] not in word_only})

    name = cex.names()[-1]
    some = inputs[-1]
    bad_causes = [
        Event(some.trace, some.position, some.prop, not some.positive),
        Event(name, len(cex[name]) + rng.randint(0, 3), machine.inputs[0], True),
        Event("nowhere", 0, machine.inputs[0], True),
    ] + resets[:1]
    # each bad reset is added to a memoized footprint, where a run could be
    # reused if the reset were not checked first
    bad_resets = [Event(e.trace, e.position, e.prop, not e.positive) for e in resets[:1]]
    bad_resets += [
        Event(name, len(cex[name]) + rng.randint(0, 3), prop, True)
        for prop in table.automata[name].controllable[:1]
    ]
    bad_resets += [
        Event(name, 0, prop, prop in cex[name].at(0))
        for prop in machine.outputs
        if prop not in table.automata[name].controllable
    ]
    cause, reset = pairs[0]
    bad_resets += inputs[:1]  # an input event, valid only as a cause
    for bad in bad_causes:
        for _ in range(2):  # before and after the valid footprint is memoized
            with pytest.raises(ValidationError):
                table.satisfies_after(cause + [bad], reset)
            table.satisfies_after(cause, reset)
    for bad in bad_resets:
        for _ in range(2):
            with pytest.raises(ValidationError):
                table.satisfies_after(cause, reset + [bad])
            table.satisfies_after(cause, reset)
    return any(props < alphabet for props in read.values()), bool(word_only)


def test_invalid_reset_raises_though_the_rest_is_memoized():
    # y is not controllable; every bad reset below is added to a footprint
    # whose run the table holds and already shows the reset's value
    m = MooreMachine.from_guards(
        inputs=["a"],
        outputs=["x", "y"],
        labels={"p": [], "q": ["x"]},
        initial="p",
        transitions=[("p", "a", "q"), ("p", "!a", "p"), ("q", "true", "p")],
    )
    trace = m.run(Lasso([frozenset({"a"})], [frozenset()]))
    cex = Counterexample({"t": trace})
    table = InterventionTable(m, parse_hyperltl('Forall (G (AP "x" 0))'), cex)
    valid = Event("t", 2, "x", "x" in trace.at(2))
    table.satisfies_after([], [valid])
    bad_resets = [
        Event("t", len(trace), "x", True),  # out of range
        Event("t", 1, "y", False),  # satisfied, but y is not controllable
        Event("t", 1, "x", "x" not in trace.at(1)),  # flipped polarity
    ]
    for bad in bad_resets:
        for base in ([], [valid]):
            for _ in range(2):
                with pytest.raises(ValidationError):
                    table.satisfies_after([], base + [bad])
    assert table.runs == 0  # the valid reset changes nothing: its run was reused


def test_reset_valid_on_one_trace_does_not_pass_on_another(machine):
    # <lo,1,t1> holds on t1 and is checked once; <lo,1,t2> sits at the same
    # position on t2, where it does not hold.  Flipping <hi,0,t2> gives a run
    # with lo at position 1, so the reset would reuse that run unchecked.
    cex = Counterexample({"t1": t1(), "t2": t2()})
    formula = parse_hyperltl('Forall (Forall (G (Eq (AP "lo" 0) (AP "lo" 1))))')
    table = InterventionTable(machine, formula, cex)
    valid, bad = Event("t1", 1, "lo", True), Event("t2", 1, "lo", True)
    flip = [Event("t2", 0, "hi", True)]
    assert "lo" in table.intervened(flip, [])["t2"].at(1)
    table.satisfies_after(flip, [valid])
    for _ in range(2):
        for cause, base in (([], []), (flip, []), (flip, [valid])):
            with pytest.raises(ValidationError, match="not satisfied by the trace"):
                table.satisfies_after(cause, base + [bad])
            table.satisfies_after(cause, base + [valid])


def test_a_search_that_raises_nothing_never_calls_check_event(machine, cex, monkeypatch):
    # the table numbers every event of a role when it is built, so a search
    # looks bits up and checks no event
    calls = []
    check = counterfactual._check_event

    def counting(automaton, e, reset):
        calls.append((e, reset))
        check(automaton, e, reset)

    monkeypatch.setattr(counterfactual, "_check_event", counting)
    formula = parse_hyperltl('Forall (Forall (G (Eq (AP "lo" 0) (AP "lo" 1))))')
    for search in (actual_cause, all_minimal_causes, brute_force_causes):
        assert search(machine, formula, cex, 3, 2)
    assert calls == []


def test_footprints_decode_to_their_events_in_event_order(machine, cex):
    formula = parse_hyperltl('Forall (Forall (G (Eq (AP "lo" 0) (AP "lo" 1))))')
    table = InterventionTable(machine, formula, cex)
    inputs = satisfied_events(cex, machine.inputs)[::-1]
    sets = [s for k in range(4) for s in itertools.combinations(inputs, k)]
    assert len(sets) == 42
    for s in sets:
        assert table.events(table.bits(s)) == sort_events(s)


def test_each_kind_of_bad_event_raises_on_every_call():
    # y is never on, so no reset can force it: it is not controllable
    m = MooreMachine.from_guards(
        inputs=["a"],
        outputs=["x", "y"],
        labels={"p": [], "q": ["x"]},
        initial="p",
        transitions=[("p", "a", "q"), ("p", "!a", "p"), ("q", "true", "p")],
    )
    trace = m.run(Lasso([frozenset({"a"})], [frozenset()]))
    cex = Counterexample({"t": trace})
    table = InterventionTable(m, parse_hyperltl("forall p. G !x[p]"), cex)
    flip, reset = Event("t", 0, "a", True), Event("t", 1, "x", True)
    bad = [  # (event, as a reset, the error)
        (Event("u", 0, "a", True), False, "references unknown trace 'u'"),
        (Event("u", 1, "x", True), True, "references unknown trace 'u'"),
        (Event("t", len(trace), "a", False), False, "position out of range"),
        (Event("t", len(trace), "x", False), True, "position out of range"),
        (Event("t", 0, "a", False), False, "not satisfied by the trace"),
        (Event("t", 1, "x", False), True, "not satisfied by the trace"),
        (flip, True, "is not over an output"),
        (reset, False, "is not over an input"),
        (Event("t", 1, "y", False), True, "is not contingency-controllable"),
        (Event("t", 1, "y", False), False, "is not over an input"),
    ]
    flip_bits, reset_bits = table.bits([flip]), table.reset_bits([reset])
    # the bits of the two events a role refuses, as the other role's ints
    calls = [
        (lambda: table.holds(0, flip_bits), "is not over an output"),
        (lambda: table.inert(0, flip_bits), "is not over an output"),
        (lambda: table.holds(reset_bits, 0), "is not over an input"),
        (lambda: table.inert(reset_bits, 0), "is not over an input"),
        (lambda: table.repairable(reset_bits), "is not over an input"),
        (lambda: table.repairable(0, reset_bits), "is not over an input"),
    ]
    for e, as_reset, error in bad:  # each after a valid event of its role
        calls.append((lambda e=e, r=as_reset: (
            table.reset_bits([reset, e]) if r else table.bits([flip, e])
        ), error))
    for _ in range(2):  # before and after a search on the table
        for call, error in calls:
            for _ in range(2):
                with pytest.raises(ValidationError, match=error):
                    call()
        assert enumerate_causes(table, m, cex) == (((flip,), ()),)


def test_footprint_entry_points_refuse_bits_outside_their_role(machine, cex):
    # `holds`, `repairable` and `inert` take cause bits in the cause role
    # and reset bits in the reset role, and raise otherwise
    formula = parse_hyperltl('Forall (Forall (G (Eq (AP "lo" 0) (AP "lo" 1))))')
    table = InterventionTable(machine, formula, cex)
    flip = table.bits([Event("t1", 0, "hi", False)])
    reset = table.reset_bits([Event("t1", 1, "lo", True)])
    for _ in range(2):
        for call in (table.holds, table.inert):
            with pytest.raises(ValidationError, match="is not over an output"):
                call(0, flip)
            with pytest.raises(ValidationError, match="is not over an input"):
                call(reset, 0)
            with pytest.raises(ValidationError, match="holds bits of no event"):
                call(1 << 40, 0)
        with pytest.raises(ValidationError, match="is not over an input"):
            table.repairable(reset)
        with pytest.raises(ValidationError, match="is not over an input"):
            table.repairable(0, reset)
    # in their roles the same bits are answered; flipping `hi` at 0 takes
    # t1 through s1, which does not carry `lo` at 1, but s3 carries it at 2
    assert table.holds(flip, 0)
    assert not table.holds(0, reset)
    loop = table.reset_bits([Event("t1", 2, "lo", True)])
    assert table.inert(flip, reset | loop) == loop
    assert table.repairable(flip) and table.repairable(0, flip)


#: reads only the input on both traces, so the table makes no run
INPUTS_ONLY = 'Forall (Forall (G (Eq (AP "hi" 0) (AP "hi" 1))))'
#: reads an output on t1 and only the input on t2
MIXED = 'Forall (Forall (G (Eq (AP "lo" 0) (AP "hi" 1))))'


def test_invalid_reset_on_a_trace_without_runs_raises_on_every_call(machine, cex):
    # no run is made, so only the reset check itself can reject these
    table = InterventionTable(machine, parse_hyperltl(INPUTS_ONLY), cex)
    valid = Event("t1", 1, "lo", True)
    bad_resets = [
        Event("t1", 1, "lo", False),  # flipped polarity
        Event("t1", len(cex["t1"]), "lo", True),  # out of range
        Event("t1", 0, "hi", False),  # an input, valid only as a cause
    ]
    table.satisfies_after([], [valid])
    for bad in bad_resets:
        for cause in ([], [Event("t1", 0, "hi", False)]):
            for base in ([], [valid]):
                for _ in range(2):
                    with pytest.raises(ValidationError):
                        table.satisfies_after(cause, base + [bad])
                    table.satisfies_after(cause, base)
    assert table.runs == 0


@pytest.mark.parametrize("formula", [INPUTS_ONLY, MIXED], ids=["inputs only", "mixed"])
def test_intervened_runs_the_traces_whose_views_need_no_run(machine, cex, formula):
    body = parse_hyperltl(formula)
    table = InterventionTable(machine, body, cex)
    flips = [[], [Event("t1", 0, "hi", False)], [Event("t2", 0, "hi", True)],
             [Event("t1", 1, "hi", False), Event("t2", 1, "hi", True)]]
    resets = [[], [Event("t1", 1, "lo", True)], [Event("t2", 2, "lo", True)],
              [Event("t1", 2, "ho", True), Event("t2", 1, "ho", True)]]
    for cause in flips:
        for reset in resets:
            world = intervene(machine, cex, cause, reset)
            assert table.satisfies_after(cause, reset) == eval_hyper(world, body)
            assert table.intervened(cause, reset) == world
    # t2's view is its flipped input word, so only t1 is ever run, and only
    # when the body reads its output
    if formula == INPUTS_ONLY:
        assert table.runs == 0
    else:
        changed_on_t1 = {
            (frozenset(e for e in c if e.trace == "t1"), frozenset(e for e in r if e.trace == "t1"))
            for c in flips for r in resets
        } - {(frozenset(), frozenset())}
        assert 0 < table.runs <= len(changed_on_t1)


@pytest.mark.parametrize("traces", [{"t1": t1()}, {"t1": t1(), "t2": t2(), "t3": t1()}],
                         ids=["one trace", "three traces"])
def test_arity_mismatch_raises_the_evaluators_error(machine, traces):
    # views group atoms by trace; a variable without a trace, or a trace
    # without a variable, is left to the evaluator's own error
    formula = parse_hyperltl('Forall (Forall (G (Eq (AP "lo" 0) (AP "lo" 1))))')
    assignment = Counterexample(traces)
    with pytest.raises(ValidationError) as direct:
        eval_hyper(assignment, formula)
    with pytest.raises(ValidationError) as tabled:
        InterventionTable(machine, formula, assignment).require_violation()
    assert str(tabled.value) == str(direct.value) == (
        f"formula quantifies 2 traces but the counterexample assigns {len(traces)}"
    )


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**6))
def test_empty_intervention_is_identity_on_random_draws(seed):
    # the table interns each source trace as the run of the empty footprint
    _, machine, formula, cex = _table_case(seed)
    table = InterventionTable(machine, formula, cex)
    for name, aut in table.automata.items():
        assert aut.run(intervention_word(aut, [], [])) == cex[name]
    assert table.intervened([], []) == cex
    assert intervene(machine, cex, [], []) == cex


# The functions below are the former implementations, kept as references:
# flag placement by cases on the position, and the override lookup through
# a label index rebuilt per call.


def _ref_intervention_word(automaton, cause, contingency):
    machine = automaton.machine
    source = automaton.source
    cause = tuple(cause)
    contingency = tuple(contingency)
    n_pos = len(source)
    loop_start = source.loop_start
    word = [set(source.at(k) & frozenset(machine.inputs)) for k in range(n_pos)]
    for e in cause + contingency:
        if not 0 <= e.position < n_pos:
            raise ValidationError(f"event {e} position out of range (trace has {n_pos} positions)")
    for e in cause:
        if e.prop not in machine.inputs:
            raise ValidationError(f"cause event {e} is not over an input")
        if (e.prop in source.at(e.position)) != e.positive:
            raise ValidationError(f"cause event {e} is not satisfied by the trace")
        if e.positive:
            word[e.position].discard(e.prop)
        else:
            word[e.position].add(e.prop)
    for e in contingency:
        if e.prop not in machine.outputs:
            raise ValidationError(f"contingency event {e} is not over an output")
        if (e.prop in source.at(e.position)) != e.positive:
            raise ValidationError(f"contingency event {e} is not satisfied by the trace")
        if e.prop not in automaton.controllable:
            raise ValidationError(
                f"output {e.prop!r} is not contingency-controllable on this machine"
            )
        flag = f"{e.prop}^C"
        p = e.position
        if p == 0 and loop_start > 0:
            continue
        if p < loop_start:
            word[p - 1].add(flag)
        else:
            offset = (p - 1 - loop_start) % len(source.period)
            word[loop_start + offset].add(flag)
            if p == loop_start and loop_start > 0:
                word[loop_start - 1].add(flag)
    return Lasso(word[:loop_start], word[loop_start:])


def _ref_override(label, controlled, values):
    controlled = frozenset(controlled)
    return (label - controlled) | (values & controlled)


def _ref_states_by_label(machine):
    by_label = {}
    for s in machine.states():
        by_label.setdefault(machine.labels[s], []).append(s)
    return by_label


def _ref_largest_controllable(machine):
    outputs = sorted(machine.outputs)
    by_label = _ref_states_by_label(machine)

    def valid(candidate):
        overrides = [frozenset(c) for k in range(len(candidate) + 1)
                     for c in itertools.combinations(candidate, k)]
        reachable = [machine.initial]
        for s in reachable:
            for a in machine.input_sets:
                if machine.delta[(s, a)] not in reachable:
                    reachable.append(machine.delta[(s, a)])
        seen = set(reachable)
        frontier = list(seen)
        while frontier:
            s = frontier.pop()
            for a in machine.input_sets:
                succ = machine.delta[(s, a)]
                label = machine.labels[succ]
                targets = [succ]
                for chosen in overrides:
                    forced = _ref_override(label, candidate, chosen)
                    if forced == label:
                        continue
                    named = by_label.get(forced, ())
                    if len(named) != 1:
                        return False
                    targets.append(named[0])
                for t in targets:
                    if t not in seen:
                        seen.add(t)
                        frontier.append(t)
        return True

    maximal = []
    for size in range(len(outputs), -1, -1):
        for combo in itertools.combinations(outputs, size):
            if any(set(combo) <= set(m) for m in maximal):
                continue
            if valid(combo):
                maximal.append(combo)
    chosen = min(maximal) if maximal else ()
    return chosen, tuple(o for o in outputs if o not in chosen)


def _machine_case(seed: int):
    """A random machine (labels shared by several states in about half the
    draws) and the run of a random input word on it."""
    from genrand import random_lasso, random_machine as random_labelled_machine

    rng = random.Random(seed)
    machine = random_labelled_machine(
        rng, rng.randint(1, 2), rng.randint(1, 3), unique_labels=rng.random() < 0.5
    )
    return rng, machine, machine.run(random_lasso(rng, machine.inputs))


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=10**6))
def test_controllable_outputs_agree_with_reference(seed):
    _, machine, _ = _machine_case(seed)
    assert controllable_outputs(machine) == _ref_largest_controllable(machine)


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=10**6))
def test_intervention_word_agrees_with_reference(seed):
    from test_machine import _outcome

    rng, machine, trace = _machine_case(seed)
    # the same period entered from the loop state: a trace with loop start 0
    loop_state = machine.state_sequence(trace)[trace.loop_start]
    from_loop = MooreMachine(machine.inputs, machine.outputs, machine.labels, loop_state,
                             machine.delta)
    for m, t in ((machine, trace), (from_loop, Lasso([], trace.period))):
        aut = CounterfactualAutomaton(m, t)
        props = m.inputs + m.outputs
        # every single event, at every position and one past the end, with
        # the trace's polarity and against it
        singles = [Event("t", p, prop, positive)
                   for p in range(len(t) + 1) for prop in props for positive in (True, False)]
        for e in singles:
            for cause, reset in (([e], []), ([], [e])):
                assert _outcome(intervention_word, aut, cause, reset) == _outcome(
                    _ref_intervention_word, aut, cause, reset
                ), (e, cause)
        valid = [e for e in singles
                 if e.position < len(t) and (e.prop in t.at(e.position)) == e.positive]
        for _ in range(10):
            events = rng.sample(valid, rng.randint(0, min(4, len(valid))))
            cause = [e for e in events if e.prop in m.inputs]
            reset = [e for e in events if e.prop in m.outputs]
            assert _outcome(intervention_word, aut, cause, reset) == _outcome(
                _ref_intervention_word, aut, cause, reset
            )


def _automaton_cases(seed):
    """A random trace's automaton, and the automaton of the same period
    entered from the loop state (a trace with loop start 0), each with its
    satisfied input events and resettable output events."""
    rng, machine, trace = _machine_case(seed)
    loop_state = machine.state_sequence(trace)[trace.loop_start]
    from_loop = MooreMachine(machine.inputs, machine.outputs, machine.labels, loop_state,
                             machine.delta)
    for m, t in ((machine, trace), (from_loop, Lasso([], trace.period))):
        aut = CounterfactualAutomaton(m, t)
        cex = Counterexample({"t": t})
        yield rng, aut, satisfied_events(cex, m.inputs), satisfied_events(cex, aut.controllable)


def _assert_run_in_step_sets(aut, pairs, loop, word):
    # step i of the run on `word` is in the (states, copy) pair `pairs`
    # gives for step i, wrapped around its loop
    states, _ = walk(word, aut.initial, aut.step, lambda s: aut.machine.labels[s[0]],
                     frozenset(aut.machine.inputs))
    for i, (state, copy) in enumerate(states):
        held, held_copy = pairs[i if i < loop else loop + (i - loop) % (len(pairs) - loop)]
        assert state in held and copy == held_copy, (i, word)


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=10**6))
def test_every_intervened_run_stays_in_the_step_sets(seed):
    # under any flips and resets
    for rng, aut, inputs, outputs in _automaton_cases(seed):
        pairs, loop = aut.step_sets()
        for _ in range(10):
            cause = rng.sample(inputs, rng.randint(0, len(inputs)))
            resets = rng.sample(outputs, rng.randint(0, len(outputs)))
            _assert_run_in_step_sets(aut, pairs, loop, intervention_word(aut, cause, resets))


@settings(max_examples=150)
@given(st.integers(min_value=0, max_value=10**6))
def test_every_reset_run_of_a_flip_set_stays_in_its_step_sets(seed):
    # with each copy's letter fixed to the flipped word's, or left free,
    # the step sets still hold every run under any resets, and the run's
    # trace lies between the must and may words `label_bounds` reads from
    # them
    for rng, aut, inputs, outputs in _automaton_cases(seed):
        every = frozenset(aut.machine.input_sets)
        for _ in range(4):
            cause = rng.sample(inputs, rng.randint(0, len(inputs)))
            flipped = intervention_word(aut, cause, [])
            letters = [frozenset([a]) if rng.random() < 0.75 else every
                       for a in flipped.prefix + flipped.period]
            pairs, loop = aut.step_sets(letters)
            must, may = aut.machine.label_bounds(
                [held for held, _ in pairs], loop, [letters[k] for _, k in pairs]
            )
            for _ in range(4):
                resets = rng.sample(outputs, rng.randint(0, len(outputs)))
                word = intervention_word(aut, cause, resets)
                _assert_run_in_step_sets(aut, pairs, loop, word)
                trace = aut.run(word)
                for i in range(sum(joint_shape([must, trace]))):
                    assert must.at(i) <= trace.at(i) <= may.at(i), (i, cause, resets)
