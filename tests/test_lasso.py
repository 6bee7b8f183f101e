import pytest
from hypothesis import given
from hypothesis import strategies as st

from hypercause.errors import ValidationError
from hypercause.lasso import Lasso


def L(prefix, period):
    return Lasso([frozenset(x) for x in prefix], [frozenset(x) for x in period])


def test_empty_period_rejected():
    with pytest.raises(ValidationError):
        Lasso([frozenset()], [])


def test_modular_indexing_is_total():
    t = L([["a"]], [["b"], []])
    assert t.at(0) == {"a"}
    assert t.at(1) == {"b"}
    assert t.at(2) == set()
    assert t.at(3) == {"b"}
    assert t.at(101) == {"b"}


def test_canonical_shrinks_repeated_period():
    t = L([], [["a"], ["b"], ["a"], ["b"]])
    c = t.canonical()
    assert c.period == (frozenset({"a"}), frozenset({"b"}))
    assert c.prefix == ()


def test_canonical_folds_prefix_into_loop():
    a = L([[], ["x"], ["y"]], [["y"]])
    b = L([[], ["x"]], [["y"]])
    assert a == b
    assert hash(a) == hash(b)


def test_distinct_words_differ():
    assert L([], [["a"]]) != L([], [["b"]])
    assert L([["a"]], [["b"]]) != L([], [["b"]])


def test_rotation_equality():
    # x (y x)^w == x y (x y)^w
    a = L([["x"]], [["y"], ["x"]])
    b = L([["x"], ["y"]], [["x"], ["y"]])
    assert a == b


def test_str_roundtrippable_shape():
    t = L([[], ["lo"]], [["ho", "lo"]])
    assert str(t) == "{} {lo} ({ho,lo})^w"


def test_successors_step_forward_and_loop_back():
    assert L([[], ["a"]], [["b"], []]).successors() == (1, 2, 3, 2)
    assert L([["a"]], [[]]).successors() == (1, 1)
    assert L([], [["a"]]).successors() == (0,)
    assert L([], [["a"], []]).successors() == (1, 0)


letters = st.frozensets(st.sampled_from("abc"))
lassos = st.builds(Lasso, st.lists(letters, max_size=4), st.lists(letters, min_size=1, max_size=4))


@given(lassos)
def test_canonical_is_idempotent(t):
    c = t.canonical()
    again = c.canonical()
    assert (again.prefix, again.period) == (c.prefix, c.period)


@given(lassos, st.integers(0, 5), st.integers(1, 3))
def test_equal_words_hash_equal_across_rotations_and_unrollings(t, shift, times):
    # move the loop start `shift` letters on, which rotates the period, and
    # repeat the period `times` times: the same word in another form
    start = t.loop_start + shift
    u = Lasso([t.at(i) for i in range(start)],
              [t.at(start + i) for i in range(len(t.period) * times)])
    assert all(u.at(i) == t.at(i) for i in range(2 * (len(t) + len(u))))
    assert u == t
    assert hash(u) == hash(t)
