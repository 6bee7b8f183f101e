"""Actual-cause explanations for HyperLTL counterexamples.

Given an explicit-state Moore machine, a universally quantified HyperLTL
formula, and a violating set of lasso traces, this package computes the
input events (with output-event contingencies where needed) that actually
caused the violation, in the counterfactual sense.
"""

from .causality import (
    CauseEntry,
    CauseReport,
    actual_cause,
    all_minimal_causes,
    verify_actual_cause,
)
from .checker import find_counterexample
from .counterfactual import CounterfactualAutomaton, intervene
from .events import Counterexample, Event, satisfies_events
from .formulas import HyperFormula, negate_to_nnf, nnf
from .lasso import Lasso
from .machine import MooreMachine, load_machine, load_traces
from .oracle import brute_force_causes
from .parser import parse_hyperltl
from .satcore import CandidateSet, candidate_cause
from .semantics import eval_hyper, eval_ltl, zip_hyper

__all__ = [
    "CandidateSet",
    "CauseEntry",
    "CauseReport",
    "Counterexample",
    "CounterfactualAutomaton",
    "Event",
    "HyperFormula",
    "Lasso",
    "MooreMachine",
    "actual_cause",
    "all_minimal_causes",
    "brute_force_causes",
    "candidate_cause",
    "eval_hyper",
    "eval_ltl",
    "find_counterexample",
    "intervene",
    "load_machine",
    "load_traces",
    "negate_to_nnf",
    "nnf",
    "parse_hyperltl",
    "satisfies_events",
    "verify_actual_cause",
    "zip_hyper",
]

__version__ = "0.1.0"
