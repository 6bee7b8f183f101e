"""Seeded random generators shared by the property and acceptance suites."""

from __future__ import annotations

import random

from hypercause import formulas as F
from hypercause.boolexpr import assignments
from hypercause.lasso import Lasso
from hypercause.machine import MooreMachine


def random_lasso(rng: random.Random, props, max_prefix=3, max_period=3) -> Lasso:
    props = list(props)
    p = rng.randint(0, max_prefix)
    v = rng.randint(1, max_period)
    mk = lambda: frozenset(x for x in props if rng.random() < 0.5)
    return Lasso([mk() for _ in range(p)], [mk() for _ in range(v)])


def random_ltl(rng: random.Random, atom_keys, depth: int) -> F.Formula:
    """Random formula over plain atoms (no trace variables)."""
    if depth <= 0 or rng.random() < 0.25:
        r = rng.random()
        if r < 0.9:
            return F.Atom(rng.choice(atom_keys), "")
        return F.TRUE if r < 0.95 else F.FALSE
    op = rng.choice(
        ["not", "and", "or", "implies", "iff", "next", "finally", "globally", "until", "release"]
    )
    sub = lambda: random_ltl(rng, atom_keys, depth - 1)
    if op == "not":
        return F.Not(sub())
    if op == "and":
        return F.And(sub(), sub())
    if op == "or":
        return F.Or(sub(), sub())
    if op == "implies":
        return F.Implies(sub(), sub())
    if op == "iff":
        return F.Iff(sub(), sub())
    if op == "next":
        return F.Next(sub())
    if op == "finally":
        return F.Eventually(sub())
    if op == "globally":
        return F.Always(sub())
    if op == "until":
        return F.Until(sub(), sub())
    return F.Release(sub(), sub())


def random_hyper_body(rng: random.Random, props, variables, depth: int) -> F.Formula:
    """Random body over indexed atoms, biased toward relational shapes."""
    atoms = [F.Atom(p, v) for p in props for v in variables]

    def leaf():
        if len(variables) >= 2 and rng.random() < 0.6:
            p = rng.choice(list(props))
            return F.Iff(F.Atom(p, variables[0]), F.Atom(p, variables[1]))
        return rng.choice(atoms)

    def go(d):
        if d <= 0 or rng.random() < 0.3:
            return leaf()
        op = rng.choice(["not", "and", "or", "implies", "next", "finally", "globally", "until"])
        if op == "not":
            return F.Not(go(d - 1))
        if op == "next":
            return F.Next(go(d - 1))
        if op == "finally":
            return F.Eventually(go(d - 1))
        if op == "globally":
            return F.Always(go(d - 1))
        if op == "until":
            return F.Until(go(d - 1), go(d - 1))
        cls = {"and": F.And, "or": F.Or, "implies": F.Implies}[op]
        return cls(go(d - 1), go(d - 1))

    return go(depth)


def random_machine(
    rng: random.Random,
    n_inputs: int,
    n_outputs: int,
    max_states: int | None = None,
    unique_labels: bool = True,
) -> MooreMachine:
    ins = [f"i{k}" for k in range(n_inputs)]
    outs = [f"o{k}" for k in range(n_outputs)]
    all_labels = [frozenset(l) for l in assignments(outs)]
    if unique_labels:
        count = rng.randint(2, len(all_labels)) if len(all_labels) > 1 else 1
        labels_list = rng.sample(all_labels, count)
    else:
        count = rng.randint(2, min(max_states or 6, 6))
        labels_list = [rng.choice(all_labels) for _ in range(count)]
    labels = {f"q{k}": labels_list[k] for k in range(len(labels_list))}
    delta = {}
    names = list(labels)
    for s in names:
        for a in assignments(ins):
            delta[(s, a)] = rng.choice(names)
    return MooreMachine(ins, outs, labels, names[0], delta)


def random_draw(seed: int) -> tuple[MooreMachine, F.HyperFormula]:
    """Machine and formula of one corpus draw, before any search."""
    rng = random.Random(seed)
    n_inputs = rng.choice([1, 1, 2, 2, 3])
    n_outputs = rng.choice([1, 2, 2, 3])
    unique = rng.random() < 0.8
    machine = random_machine(rng, n_inputs, n_outputs, unique_labels=unique)
    k = rng.choice([1, 2, 2])
    variables = tuple(str(i) for i in range(k))
    props = list(machine.inputs) + list(machine.outputs)
    body = random_hyper_body(rng, props, variables, rng.randint(1, 3))
    return machine, F.HyperFormula(variables, body)


def random_violated_instance(seed: int):
    """One (machine, formula, counterexample) with a confirmed violation.

    Returns None when the draw yields no violation within bounds or the
    traces outgrow the desk-scale caps.
    """
    from hypercause.checker import find_counterexample
    from hypercause.errors import SizeGuardError

    machine, formula = random_draw(seed)
    n_inputs, n_outputs = len(machine.inputs), len(machine.outputs)
    try:
        cex = find_counterexample(machine, formula, prefix_bound=2, period_bound=2)
    except SizeGuardError:
        return None
    if cex is None:
        return None
    if any(len(t) > 6 for t in cex.lassos()):
        return None
    positions = sum(len(t) for t in cex.lassos())
    if positions * n_inputs > 16 or positions * n_outputs > 20:
        return None
    return machine, formula, cex
