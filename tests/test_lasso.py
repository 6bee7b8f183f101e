import pytest

from hypercause.errors import ValidationError
from hypercause.lasso import Lasso, lcm


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


def test_lcm():
    assert lcm(2, 3) == 6
    assert lcm(4, 6) == 12
