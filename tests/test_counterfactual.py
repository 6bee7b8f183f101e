import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercause.counterfactual import (
    CounterfactualAutomaton,
    InterventionTable,
    build_counterfactual_automaton,
    controllable_outputs,
    intervene,
    intervention_word,
)
from hypercause.errors import ValidationError
from hypercause.events import Counterexample, Event, satisfied_events, satisfies_events
from hypercause.lasso import Lasso
from hypercause.machine import MooreMachine
from hypercause.parser import parse_hyperltl
from hypercause.semantics import eval_hyper

from conftest import t1, t2
from test_machine import random_input_word, random_machine


def test_controllable_outputs_full_for_complete_labelling(machine):
    chosen, excluded = controllable_outputs(machine)
    assert chosen == ("ho", "lo")
    assert excluded == ()


def test_chain_structure(machine):
    aut = build_counterfactual_automaton(machine, t2())
    assert aut.initial == ("s0", 0)
    assert aut.last_copy == 2
    assert aut.loop_to == 2
    assert set(aut.input_alphabet()) == {"hi", "ho^C", "lo^C"}


def test_reachable_fragment_transitions(machine):
    # the three documented edges out of the initial copy
    aut = build_counterfactual_automaton(machine, t2())
    assert aut.step(("s0", 0), {"hi"}) == ("s1", 1)
    assert aut.step(("s0", 0), {"lo^C"}) == ("s0", 1)
    assert aut.step(("s0", 0), {"ho^C"}) == ("s3", 1)
    assert aut.step(("s0", 0), set()) == ("s2", 1)
    # prefix copies cannot be revisited: loop stays in the last copy
    assert aut.step(("s3", 2), set()) == ("s3", 2)
    reachable = aut.reachable()
    assert ("s0", 0) in reachable
    assert all(k > 0 for (s, k) in reachable if (s, k) != ("s0", 0))
    assert set(reachable) == _letter_closure(aut)


def test_no_contingency_projection_matches_base_run(machine):
    aut = build_counterfactual_automaton(machine, t2())
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
    aut = build_counterfactual_automaton(machine, t2())
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


def _letter_closure(aut):
    # every (state, copy) reached by stepping with every letter of the
    # automaton's alphabet: inputs plus auxiliary contingency inputs
    alphabet = aut.input_alphabet()
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
        reachable = aut.reachable()
        assert len(set(reachable)) == len(reachable)
        assert set(reachable) == _letter_closure(aut)


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


@settings(max_examples=60)
@given(st.integers(min_value=0, max_value=10**6))
def test_interned_evaluation_agrees_with_uninterned(seed):
    rng, machine, formula, cex = _table_case(seed)
    table = InterventionTable(machine, formula, cex)
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
    assert table.evaluations == len({intervene(machine, cex, c, r) for c, r in pairs})
    footprints = {
        (name, frozenset(e for e in c if e.trace == name), frozenset(e for e in r if e.trace == name))
        for c, r in pairs
        for name in cex.names()
    }
    changed = len({f for f in footprints if f[1] or f[2]})
    assert table.runs < changed if resets else table.runs <= changed

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
        by_label.setdefault(machine.label(s), []).append(s)
    return by_label


def _ref_largest_controllable(machine):
    outputs = sorted(machine.outputs)
    by_label = _ref_states_by_label(machine)

    def valid(candidate):
        overrides = [frozenset(c) for k in range(len(candidate) + 1)
                     for c in itertools.combinations(candidate, k)]
        seen = set(machine.reachable_states())
        frontier = list(seen)
        while frontier:
            s = frontier.pop()
            for a in machine.input_sets:
                succ = machine.delta[(s, a)]
                label = machine.label(succ)
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
