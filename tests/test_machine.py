import random

import pytest

from hypercause.boolexpr import assignments
from hypercause.errors import ParseError, ValidationError
from hypercause.lasso import Lasso
from hypercause.machine import MooreMachine, load_machine, load_traces, traces_to_json

from conftest import leaky_machine, t1, t2
from genrand import random_draw


def inputs(*sets):
    """Input lasso whose period is the last set, prefix the rest."""
    *pre, last = sets
    return Lasso([frozenset(s) for s in pre], [frozenset(last)])


def test_run_produces_low_leak_trace(machine):
    out = machine.run(inputs(set(), set(), set()))
    assert out == t1()
    assert out.prefix == (frozenset(), frozenset({"lo"}))
    assert out.period == (frozenset({"ho", "lo"}),)


def test_run_with_high_inputs(machine):
    out = machine.run(inputs({"hi"}, {"hi"}, set()))
    assert out == t2()


def test_run_constant_machine():
    m = MooreMachine.from_guards(
        inputs=["a"], outputs=["o"], labels={"q": ["o"]}, initial="q",
        transitions=[("q", "true", "q")],
    )
    out = m.run(inputs({"a"}, set()))
    assert out.at(0) == {"a", "o"}
    assert out.at(1) == {"o"}
    assert out.at(7) == {"o"}


def test_run_rejects_unknown_inputs(machine):
    with pytest.raises(ValidationError):
        machine.run(inputs({"zz"}))


def test_nondeterministic_guards_rejected():
    with pytest.raises(ValidationError, match="more than one guard"):
        MooreMachine.from_guards(
            inputs=["a"], outputs=[], labels={"q": []}, initial="q",
            transitions=[("q", "a", "q"), ("q", "true", "q")],
        )


def test_transition_from_unknown_state_rejected():
    with pytest.raises(ValidationError, match="unknown state 'typo'"):
        MooreMachine.from_guards(
            ["a"], ["o"], {"p": [], "q": ["o"]}, "p",
            [("p", "true", "q"), ("q", "true", "p"), ("typo", "a", "p")],
        )


def test_transition_to_unknown_state_rejected_even_if_never_taken():
    with pytest.raises(ValidationError, match="targets unknown state 'nowhere'"):
        MooreMachine.from_guards(
            ["a"], [], {"p": []}, "p", [("p", "true", "p"), ("p", "false", "nowhere")]
        )


@pytest.mark.parametrize("name", ["true", "false"])
def test_input_named_like_a_guard_constant_rejected(name):
    # a guard reads the word as the constant, so no guard could test the input
    with pytest.raises(ValidationError, match=f"input name '{name}'"):
        MooreMachine.from_guards(
            [name], [], {"p": [], "q": []}, "p",
            [("p", "true", "q"), ("p", "!true", "p"), ("q", "true", "q")],
        )
    with pytest.raises(ValidationError, match=f"input name '{name}'"):
        MooreMachine(
            [name], [], {"p": []}, "p",
            {("p", frozenset()): "p", ("p", frozenset({name})): "p"},
        )


def _accepted(guard, inputs=("a", "b", "c")):
    """Input sets on which `guard` holds, each written as its sorted names."""
    m = MooreMachine.from_guards(
        inputs, [], {"p": [], "y": []}, "p",
        [("p", guard, "y"), ("p", f"!({guard})", "p"), ("y", "true", "y")],
    )
    return {"".join(sorted(a)) for a in assignments(inputs) if m.delta[("p", a)] == "y"}


ALL = {"", "a", "b", "c", "ab", "ac", "bc", "abc"}

GUARD_TABLE = [
    ("a", {"a", "ab", "ac", "abc"}),
    ("a | b & c", {"a", "ab", "ac", "abc", "bc"}),  # & binds tighter than |
    ("b & c | a", {"a", "ab", "ac", "abc", "bc"}),
    ("(a | b) & c", {"ac", "bc", "abc"}),
    ("!a & b", {"b", "bc"}),  # ! binds tighter than &
    ("!a | b", {"", "b", "c", "bc", "ab", "abc"}),  # ... and than |
    ("!(a | b)", {"", "c"}),
    ("!!a", {"a", "ab", "ac", "abc"}),
    ("a&!b|!a&b", {"a", "ac", "b", "bc"}),
    ("  ( ( c ) ) ", {"c", "ac", "bc", "abc"}),
    ("true", ALL),
    ("false", set()),
    ("!true | false", set()),
    ("a & true", {"a", "ab", "ac", "abc"}),
    ("a & (b | !b)", {"a", "ab", "ac", "abc"}),
]


@pytest.mark.parametrize("guard, accepted", GUARD_TABLE)
def test_guard_grammar(guard, accepted):
    assert _accepted(guard) == accepted


def test_guard_primed_names():
    assert _accepted("a' & !a", ("a", "a'")) == {"a'"}
    assert _accepted("a'", ("a", "a'")) == {"a'", "aa'"}


@pytest.mark.parametrize("guard, message, offset", [
    ("a &", "unexpected token ''", 3),
    ("(a", "expected ), found ''", 2),
    ("a $", "unexpected character '$'", 2),
])
def test_guard_syntax_errors_carry_offsets(guard, message, offset):
    with pytest.raises(ParseError) as info:
        _accepted(guard)
    assert info.value.position == offset
    assert str(info.value).startswith(message)


def test_guard_non_input_names_rejected():
    with pytest.raises(ValidationError) as info:
        MooreMachine.from_guards(
            ["a"], [], {"p": []}, "p", [("p", "a | zz & b", "p"), ("p", "!a", "p")]
        )
    assert str(info.value) == "guard 'a | zz & b' on 'p' uses non-input names ['b', 'zz']"


def test_partial_guards_rejected():
    with pytest.raises(ValidationError, match="no guard"):
        MooreMachine.from_guards(
            inputs=["a"], outputs=[], labels={"q": []}, initial="q",
            transitions=[("q", "a", "q")],
        )


def test_validate_trace_accepts_counterexample_traces(machine):
    assert machine.validate_trace(t1())
    assert machine.validate_trace(t2())


def test_validate_trace_rejects_label_mismatch(machine):
    broken = Lasso([frozenset(), frozenset()], [frozenset({"ho", "lo"})])
    diag = machine.validate_trace(broken)
    assert not diag
    assert diag.position == 1


def test_validate_trace_rejects_unknown_props(machine):
    bad = Lasso([frozenset({"zz"})], [frozenset({"ho", "lo"})])
    diag = machine.validate_trace(bad)
    assert not diag and diag.position == 0


def random_machine(rng, n_inputs=2, n_states=4):
    ins = [f"i{k}" for k in range(n_inputs)]
    outs = ["o0", "o1"]
    labels = {f"q{k}": rng.sample(outs, rng.randint(0, 2)) for k in range(n_states)}
    delta = {}
    for s in labels:
        for a in assignments(ins):
            delta[(s, a)] = f"q{rng.randrange(n_states)}"
    return MooreMachine(ins, outs, labels, "q0", delta)


def random_input_word(rng, ins, max_prefix=3, max_period=3):
    p = rng.randint(0, max_prefix)
    v = rng.randint(1, max_period)
    mk = lambda: frozenset(x for x in ins if rng.random() < 0.5)
    return Lasso([mk() for _ in range(p)], [mk() for _ in range(v)])


def test_run_total_reproducible_and_validates():
    rng = random.Random(7)
    for _ in range(60):
        m = random_machine(rng)
        w = random_input_word(rng, m.inputs)
        a = m.run(w)
        b = m.run(w)
        assert a == b
        assert m.validate_trace(a)


def test_state_sequence_and_recurrence(machine):
    states = machine.state_sequence(t1())
    assert states == ("s0", "s2", "s3", "s3")
    assert machine.is_state_recurrent(t1())
    assert machine.is_state_recurrent(t2())


def test_input_support(machine):
    assert machine.input_support("s0") == {"hi"}
    assert machine.input_support("s2") == {"hi"}
    assert machine.input_support("s1") == frozenset()
    assert machine.input_support("s3") == frozenset()


def test_json_roundtrip(machine, tmp_path):
    path = tmp_path / "m.json"
    path.write_text(__import__("json").dumps(machine.to_json()))
    again = load_machine(path)
    assert again.inputs == machine.inputs
    assert again.labels == machine.labels
    assert again.delta == machine.delta
    for seed in range(1, 51):
        m, _ = random_draw(seed)
        assert load_machine(m.to_json()).delta == m.delta, seed


def test_traces_roundtrip(tmp_path):
    data = traces_to_json({"t1": t1(), "t2": t2()})
    path = tmp_path / "t.json"
    path.write_text(__import__("json").dumps(data))
    back = load_traces(path)
    assert back["t1"] == t1()
    assert back["t2"] == t2()


def test_load_machine_reports_bad_guard(tmp_path):
    doc = leaky_machine().to_json()
    doc["transitions"][0]["guard"] = "hi &"
    path = tmp_path / "m.json"
    path.write_text(__import__("json").dumps(doc))
    with pytest.raises(ValidationError):
        load_machine(path)
