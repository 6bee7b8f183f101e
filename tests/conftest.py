import pytest
from hypothesis import settings

from hypercause.events import Counterexample
from hypercause.lasso import Lasso
from hypercause.machine import MooreMachine

# property tests draw the same examples on every run, so a tier-1 result
# never depends on the luck of the draw
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")


def leaky_machine() -> MooreMachine:
    """Four-state system that leaks its high input through the low output.

    From the start, a high input leads to a high-output-only state, no high
    input enables the low output; from the low state another branch on the
    high input is possible before both outputs lock on.
    """
    return MooreMachine.from_guards(
        inputs=["hi"],
        outputs=["ho", "lo"],
        labels={"s0": [], "s1": ["ho"], "s2": ["lo"], "s3": ["ho", "lo"]},
        initial="s0",
        transitions=[
            ("s0", "hi", "s1"),
            ("s0", "!hi", "s2"),
            ("s2", "hi", "s1"),
            ("s2", "!hi", "s3"),
            ("s1", "true", "s3"),
            ("s3", "true", "s3"),
        ],
    )


def t1() -> Lasso:
    return Lasso([frozenset(), frozenset({"lo"})], [frozenset({"ho", "lo"})])


def t2() -> Lasso:
    return Lasso([frozenset({"hi"}), frozenset({"hi", "ho"})], [frozenset({"ho", "lo"})])


def leaky_cex() -> Counterexample:
    return Counterexample({"t1": t1(), "t2": t2()})


@pytest.fixture
def machine():
    return leaky_machine()


@pytest.fixture
def cex():
    return leaky_cex()
