import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercause import boolexpr
from hypercause.boolexpr import assignments
from hypercause.counterfactual import CounterfactualAutomaton, contingency_flag, intervention_word
from hypercause.errors import ParseError, ValidationError
from hypercause.events import Counterexample, satisfied_events
from hypercause.lasso import Lasso
from hypercause.machine import (
    MooreMachine,
    load_machine,
    load_traces,
    read_text,
    traces_to_json,
)

from conftest import leaky_machine, t1, t2
from genrand import random_draw, random_lasso


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


# -- reference: the recursive-descent guard parser `boolexpr.evaluate` replaced


def _ref_tokenize(text):
    ident_start = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
    ident_cont = ident_start | set("0123456789'")
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c in "()!&|":
            tokens.append((c, c, i))
            i += 1
            continue
        if c in ident_start:
            j = i + 1
            while j < len(text) and text[j] in ident_cont:
                j += 1
            word = text[i:j]
            tokens.append(("const" if word in ("true", "false") else "ident", word, i))
            i = j
            continue
        raise ParseError(f"unexpected character {c!r} in guard", i)
    tokens.append(("end", "", len(text)))
    return tokens


class _RefGuardParser:
    def __init__(self, text, rows, full):
        self.tokens = _ref_tokenize(text)
        self.pos = 0
        self.rows = rows
        self.full = full
        self.unknown = set()

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind):
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise ParseError(f"expected {kind}, found {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def parse(self):
        table = self.disjunction()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])
        return table

    def disjunction(self):
        table = self.conjunction()
        while self.peek()[0] == "|":
            self.take("|")
            table |= self.conjunction()
        return table

    def conjunction(self):
        table = self.unary()
        while self.peek()[0] == "&":
            self.take("&")
            table &= self.unary()
        return table

    def unary(self):
        kind, value, pos = self.peek()
        if kind == "!":
            self.take("!")
            return self.unary() ^ self.full
        if kind == "(":
            self.take("(")
            inner = self.disjunction()
            self.take(")")
            return inner
        if kind == "const":
            self.take("const")
            return self.full if value == "true" else 0
        if kind == "ident":
            self.take("ident")
            if value not in self.rows:
                self.unknown.add(value)
                return 0
            return self.rows[value]
        raise ParseError(f"unexpected token {value!r} in guard", pos)


def _ref_guard_table(text, inputs):
    """Truth table and unknown names of `text` by recursive descent, with
    rows read off `assignments(inputs)` bit by bit."""
    sets = list(assignments(inputs))
    rows = {n: sum(1 << i for i, s in enumerate(sets) if n in s) for n in inputs}
    parser = _RefGuardParser(text, rows, (1 << len(sets)) - 1)
    return parser.parse(), frozenset(parser.unknown)


def _guard_table(text, inputs):
    return boolexpr.evaluate(text, boolexpr.guard_rows(inputs))


def _guard_outcome(table_of, text, inputs):
    """`(table, unknown)`, or the text and position of the `ParseError`."""
    try:
        return table_of(text, inputs)
    except ParseError as exc:
        return str(exc), exc.position


def _random_guard(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(names)
    shape = rng.randrange(4)
    if shape == 0:
        return "!" + _random_guard(rng, names, depth - 1)
    if shape == 1:
        return f"({_random_guard(rng, names, depth - 1)})"
    op = rng.choice([" & ", "&", " | ", "|"])
    return _random_guard(rng, names, depth - 1) + op + _random_guard(rng, names, depth - 1)


GUARD_NAMES = ["a", "b", "c", "zz", "b'", "true", "false", "a1"]
MUTATION_CHARS = "ab()!&| \t$1'_~\u00a0"


def _mutations(rng, text, count):
    """`count` single-character edits of `text`: insertions, deletions and
    replacements of characters of `MUTATION_CHARS`."""
    for _ in range(count):
        i = rng.randrange(len(text) + 1)
        c = rng.choice(MUTATION_CHARS)
        kind = rng.randrange(3)
        if kind == 0 or i == len(text):
            yield text[:i] + c + text[i:]
        elif kind == 1:
            yield text[:i] + text[i + 1:]
        else:
            yield text[:i] + c + text[i + 1:]


def test_guard_tables_match_the_recursive_descent_reference():
    rng = random.Random(2024)
    inputs = ("a", "b", "c")
    guards = [_random_guard(rng, GUARD_NAMES, 4) for _ in range(400)]
    texts = guards + [m for g in guards for m in _mutations(rng, g, 8)]
    texts += ["", " ", "()", "!", "a)", "(a))", "((a)", "a b", "a ! b", "a $ (", "( $"]
    errors = 0
    for text in texts:
        expected = _guard_outcome(_ref_guard_table, text, inputs)
        assert _guard_outcome(_guard_table, text, inputs) == expected, text
        errors += isinstance(expected[0], str)
    # the sample reaches both valid guards and every kind of error
    assert 0.2 < errors / len(texts) < 0.8


def test_from_guards_evaluates_each_guard_text_once(monkeypatch):
    texts = []
    evaluate = boolexpr.evaluate

    def counted(text, rows):
        texts.append(text)
        return evaluate(text, rows)

    monkeypatch.setattr(boolexpr, "evaluate", counted)
    m = MooreMachine.from_guards(
        ["a"], [], {"p": [], "q": []}, "p",
        [("p", "a", "q"), ("p", "!a", "p"), ("q", "a", "p"), ("q", "!a", "q")],
    )
    assert sorted(texts) == ["!a", "a"]
    assert m.delta[("q", frozenset({"a"}))] == "p"


def test_repeated_guard_with_non_input_names_names_its_first_state():
    with pytest.raises(ValidationError) as info:
        MooreMachine.from_guards(
            ["a"], [], {"p": [], "q": []}, "p",
            [("q", "a | zz", "p"), ("q", "!a", "q"), ("p", "a | zz", "p")],
        )
    assert str(info.value) == "guard 'a | zz' on 'q' uses non-input names ['zz']"


def test_partial_guards_rejected():
    with pytest.raises(ValidationError, match="no guard"):
        MooreMachine.from_guards(
            inputs=["a"], outputs=[], labels={"q": []}, initial="q",
            transitions=[("q", "a", "q")],
        )


def test_validate_trace_accepts_counterexample_traces(machine):
    assert machine.validate_trace(t1())
    assert machine.validate_trace(t2())


def _error_text(m, trace):
    with pytest.raises(ValidationError) as exc:
        m.state_sequence(trace)
    return str(exc.value)


def test_validate_trace_rejects_label_mismatch(machine):
    broken = Lasso([frozenset(), frozenset()], [frozenset({"ho", "lo"})])
    assert not machine.validate_trace(broken)
    assert _error_text(machine, broken) == (
        "not a trace of the machine: outputs [] do not match state 's2' label ['lo'] @ 1"
    )


def test_validate_trace_rejects_unknown_props(machine):
    bad = Lasso([frozenset({"zz"})], [frozenset({"ho", "lo"})])
    assert not machine.validate_trace(bad)
    assert _error_text(machine, bad) == (
        "not a trace of the machine: unknown propositions ['zz'] @ 0"
    )


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
    for trace in (t1(), t2()):
        states = machine.state_sequence(trace)
        assert states[len(trace)] == states[trace.loop_start]


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


@pytest.mark.parametrize("data", [b"a\r\nb\rc\n\r\n", "\u00e9\r\r\n\u00a0".encode(), b"", b"\r"])
def test_files_are_read_as_text_mode_reads_them(tmp_path, data):
    # error offsets in formulas and JSON count the characters text mode reads
    path = tmp_path / "f.txt"
    path.write_bytes(data)
    with open(path, encoding="utf-8") as fh:
        assert read_text(path) == fh.read()


def test_load_machine_refuses_duplicate_state_ids():
    # the second entry would otherwise replace the first, labelling p {o}
    doc = {
        "format": 1, "inputs": [], "outputs": ["o"],
        "states": [{"id": "p", "label": []}, {"id": "p", "label": ["o"]}],
        "initial": "p", "transitions": [{"from": "p", "guard": "true", "to": "p"}],
    }
    with pytest.raises(ValidationError) as info:
        load_machine(doc)
    assert str(info.value) == "duplicate state id 'p' at states[1]"


@pytest.mark.parametrize("value", [True, 1.0, "1", 2, None])
def test_loaders_require_the_integer_format_1(value):
    machine = dict(leaky_machine().to_json(), format=value)
    traces = dict(traces_to_json({"t1": t1()}), format=value)
    with pytest.raises(ValidationError, match=f"^unsupported machine format {value!r}$"):
        load_machine(machine)
    with pytest.raises(ValidationError, match=f"^unsupported trace format {value!r}$"):
        load_traces(traces)


def test_loaders_accept_format_1_or_none():
    machine = leaky_machine().to_json()
    traces = traces_to_json({"t1": t1()})
    assert load_machine(machine).labels == leaky_machine().labels
    assert load_traces(traces)["t1"] == t1()
    del machine["format"], traces["format"]
    assert load_machine(machine).labels == leaky_machine().labels
    assert load_traces(traces)["t1"] == t1()


# -- reference walks ----------------------------------------------------------
# The four lasso walks as separate loops, one per job, as they were before
# `machine.walk` replaced them.


def reference_run(m, input_word):
    extra = input_word.alphabet() - set(m.inputs)
    if extra:
        raise ValidationError(f"input word uses non-input propositions {sorted(extra)}")
    letters = []
    state = m.initial
    seen = {}
    step = 0
    while True:
        phase = step - input_word.loop_start
        if phase >= 0:
            key = (state, phase % len(input_word.period))
            if key in seen:
                start = seen[key]
                return Lasso(letters[:start], letters[start:])
            seen[key] = step
        ins = input_word.at(step)
        letters.append(ins | m.labels[state])
        state = m.successor(state, ins)
        step += 1


def reference_validate_trace(m, trace):
    """Why and where `trace` first leaves the machine's run, or None."""
    ap = set(m.inputs) | set(m.outputs)
    state = m.initial
    seen = set()
    step = 0
    while True:
        here = trace.at(step)
        if not here <= ap:
            return f"unknown propositions {sorted(here - ap)} @ {step}"
        if here & set(m.outputs) != m.labels[state]:
            return (
                f"outputs {sorted(here & set(m.outputs))} do not match state "
                f"{state!r} label {sorted(m.labels[state])} @ {step}"
            )
        phase = step - trace.loop_start
        if phase >= 0:
            key = (state, phase % len(trace.period))
            if key in seen:
                return None
            seen.add(key)
        state = m.successor(state, here & set(m.inputs))
        step += 1


def reference_state_sequence(m, trace):
    error = reference_validate_trace(m, trace)
    if error is not None:
        raise ValidationError(f"not a trace of the machine: {error}")
    states = [m.initial]
    for n in range(len(trace)):
        states.append(m.successor(states[-1], trace.at(n) & set(m.inputs)))
    return tuple(states)


def reference_counterfactual_run(aut, input_word):
    alphabet = {*aut.machine.inputs, *(contingency_flag(o) for o in aut.controllable)}
    extra = input_word.alphabet() - alphabet
    if extra:
        raise ValidationError(f"input word uses unknown propositions {sorted(extra)}")
    letters = []
    state = (aut.machine.initial, 0)
    seen = {}
    step = 0
    while True:
        phase = step - input_word.loop_start
        if phase >= 0:
            key = (state, phase % len(input_word.period))
            if key in seen:
                start = seen[key]
                return Lasso(letters[:start], letters[start:])
            seen[key] = step
        ins = input_word.at(step)
        letters.append((ins & frozenset(aut.machine.inputs)) | aut.machine.labels[state[0]])
        state = aut.step(state, ins)
        step += 1


def _outcome(f, *args):
    """What `f(*args)` gives: its value (a lasso as its representation), or
    the type and text of what it raises."""
    try:
        value = f(*args)
    except ValidationError as exc:
        return ("raises", str(exc))
    if isinstance(value, Lasso):
        return (value.prefix, value.period)
    return value


def _variants(rng, m, trace):
    """`trace`, other representations of it, and traces that leave the run
    at one position."""
    u, v = list(trace.prefix), list(trace.period)
    j = rng.randrange(len(v))
    yield trace
    yield trace.canonical()  # may not close on machine states
    yield Lasso(u + v[:j], v[j:] + v[:j])
    yield Lasso(u, v + v)
    letters = u + v
    for flip in (rng.choice(m.outputs), rng.choice(m.inputs), "zz"):
        changed = list(letters)
        i = rng.randrange(len(changed))
        changed[i] = changed[i] ^ {flip}
        yield Lasso(changed[: len(u)], changed[len(u):])


@settings(max_examples=150)
@given(st.integers(min_value=1, max_value=10**6))
def test_walk_agrees_with_reference_loops(seed):
    rng = random.Random(seed)
    m, _ = random_draw(seed)
    word = random_lasso(rng, m.inputs)
    assert _outcome(m.run, word) == _outcome(reference_run, m, word)
    bad_word = Lasso(word.prefix, word.period[:-1] + (word.period[-1] | {"zz"},))
    assert _outcome(m.run, bad_word) == _outcome(reference_run, m, bad_word)
    trace = m.run(word)
    for variant in _variants(rng, m, trace):
        assert m.validate_trace(variant) == (reference_validate_trace(m, variant) is None)
        assert _outcome(m.state_sequence, variant) == _outcome(
            reference_state_sequence, m, variant
        )
    aut = CounterfactualAutomaton(m, trace)
    cex = Counterexample({"t": trace})
    inputs = satisfied_events(cex, m.inputs)
    outputs = satisfied_events(cex, aut.controllable)
    for _ in range(5):
        cause = [e for e in inputs if rng.random() < 0.3]
        resets = [e for e in outputs if rng.random() < 0.3]
        iw = intervention_word(aut, cause, resets)
        assert _outcome(aut.run, iw) == _outcome(reference_counterfactual_run, aut, iw)


def test_walk_on_a_representation_that_does_not_close():
    # two states with one label: the trace ({})^w runs p q p q ..., so its
    # one-letter period does not close on machine states
    m = MooreMachine(["a"], ["o"], {"p": [], "q": []}, "p",
                     {(s, x): {"p": "q", "q": "p"}[s] for s in "pq" for x in assignments(["a"])})
    trace = Lasso([], [frozenset()])
    assert m.validate_trace(trace) and reference_validate_trace(m, trace) is None
    states = m.state_sequence(trace)
    assert states == reference_state_sequence(m, trace) == ("p", "q")
    assert states[len(trace)] != states[trace.loop_start]
    assert _outcome(m.run, trace) == _outcome(reference_run, m, trace)
