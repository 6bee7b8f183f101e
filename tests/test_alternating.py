import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercause import formulas as F
from hypercause.alternating import (
    EMPTY,
    AutConj,
    AutDisj,
    AutExpr,
    AutNode,
    RunNode,
    RunTree,
    _holds,
    _sccs,
    _successors,
    accepts_lasso,
    annotated_events,
    dump_automaton,
    ltl_to_alternating,
)
from hypercause.errors import ValidationError
from hypercause.events import Event
from hypercause.lasso import Lasso
from hypercause.parser import parse_hyperltl
from hypercause.semantics import eval_ltl, zip_hyper

from conftest import leaky_cex
from genrand import random_lasso, random_ltl


def elements(aut: AutExpr) -> list[AutExpr]:
    """Every element reachable from `aut`, once each (by identity)."""
    seen: dict[int, AutExpr] = {}
    stack = [aut]
    while stack:
        e = stack.pop()
        if id(e) in seen:
            continue
        seen[id(e)] = e
        if isinstance(e, AutNode) and e.next is not None:
            stack.append(e.next)
        elif isinstance(e, (AutConj, AutDisj)):
            stack.append(e.left)
            stack.append(e.right)
    return list(seen.values())


def replay(tree: RunTree, aut, trace: Lasso) -> bool:
    """Re-derive acceptance by walking the stored branch choices.

    Checks that the tree starts at `aut` itself at position 0, that each
    node's children are the successors of its element (a step's target at
    the next position, both conjuncts, or one disjunct) at the positions a
    run reads them, that every literal read holds on the trace, and that
    every back-edge closes a cycle through this branch that contains an
    accepting node (the Büchi condition on the finite unrolling).
    """
    if tree.root.element_id != id(aut) or tree.root.position != 0:
        return False
    succ = trace.successors()
    by_id = {id(e): e for e in elements(aut)}

    def walk(node: RunNode, path: tuple) -> bool:
        e = by_id[node.element_id]  # the root is `aut`, and children are checked below
        key = (node.element_id, node.position)
        if node.kind == "loop":
            for idx, (k, elem) in enumerate(path):
                if k == key:
                    closed = [x for _, x in path[idx:]] + [e]
                    return any(isinstance(x, AutNode) and x.accepting for x in closed)
            return False
        path = path + ((key, e),)
        p = node.position
        # the (element id, position) lists that may follow `e` in a run
        if isinstance(e, AutNode):
            if not _holds(e.state_formula, trace.at(p)):
                return False
            allowed = [[]] if e.next is EMPTY else [[(id(e.next), succ[p])]]
        elif isinstance(e, AutConj):
            allowed = [[(id(e.left), p), (id(e.right), p)]]
        elif isinstance(e, AutDisj):
            allowed = [[(id(e.left), p)], [(id(e.right), p)]]
        else:
            allowed = [[]]
        children = [(c.element_id, c.position) for c in node.children]
        return children in allowed and all(walk(c, path) for c in node.children)

    return walk(tree.root, ())


A = F.Atom("a", "")
B = F.Atom("b", "")


def test_literal_translation():
    aut = ltl_to_alternating(A)
    assert isinstance(aut, AutNode)
    assert aut.state_formula == A
    assert aut.next is EMPTY
    assert aut.accepting

    neg = ltl_to_alternating(F.Not(A))
    assert isinstance(neg, AutNode) and neg.state_formula == F.Not(A) and neg.accepting


def test_conjunction_disjunction_translation():
    aut = ltl_to_alternating(F.And(A, B))
    assert isinstance(aut, AutConj)
    aut = ltl_to_alternating(F.Or(A, B))
    assert isinstance(aut, AutDisj)


def test_next_translation():
    aut = ltl_to_alternating(F.Next(A))
    assert isinstance(aut, AutNode)
    assert aut.state_formula == F.TRUE and not aut.accepting
    assert isinstance(aut.next, AutNode) and aut.next.state_formula == A


def test_globally_translation_loops_to_itself():
    aut = ltl_to_alternating(F.Always(A))
    assert isinstance(aut, AutConj)
    loop, body = aut.left, aut.right
    assert isinstance(loop, AutNode) and loop.accepting and loop.state_formula == F.TRUE
    assert loop.next is aut
    assert isinstance(body, AutNode) and body.state_formula == A


def test_eventually_translation_is_disjunctive_with_rejecting_loop():
    aut = ltl_to_alternating(F.Eventually(A))
    assert isinstance(aut, AutDisj)
    body, loop = aut.left, aut.right
    assert isinstance(body, AutNode) and body.state_formula == A
    assert isinstance(loop, AutNode) and not loop.accepting and loop.next is aut


def test_until_release_translation_shapes():
    aut = ltl_to_alternating(F.Until(A, B))
    assert isinstance(aut, AutDisj)
    assert isinstance(aut.left, AutNode) and aut.left.state_formula == B
    assert isinstance(aut.right, AutConj)
    assert aut.right.left.next is aut and not aut.right.left.accepting

    aut = ltl_to_alternating(F.Release(A, B))
    assert isinstance(aut, AutDisj)
    assert isinstance(aut.left, AutConj)
    assert isinstance(aut.right, AutConj)
    assert aut.right.left.next is aut and aut.right.left.accepting


def test_shared_subformulas_share_subautomata():
    f = F.And(F.Always(A), F.Always(A))
    aut = ltl_to_alternating(f)
    assert aut.left is aut.right
    assert len(elements(aut)) <= 5


def test_non_nnf_rejected():
    with pytest.raises(ValidationError):
        ltl_to_alternating(F.Not(F.Always(A)))
    with pytest.raises(ValidationError):
        ltl_to_alternating(F.Implies(A, B))


def L(prefix, period):
    return Lasso([frozenset(x) for x in prefix], [frozenset(x) for x in period])


def test_accepts_simple_cases():
    ok, tree = accepts_lasso(ltl_to_alternating(F.Always(F.TRUE)), L([], [[]]))
    assert ok and tree is not None

    ok, tree = accepts_lasso(ltl_to_alternating(F.FALSE), L([], [["a"]]))
    assert not ok and tree is None

    ok, _ = accepts_lasso(ltl_to_alternating(F.Always(A)), L([], [["a"]]))
    assert ok
    ok, _ = accepts_lasso(ltl_to_alternating(F.Always(A)), L([["a"]], [[]]))
    assert not ok


def test_eventually_earliest_witness_annotation():
    aut = ltl_to_alternating(F.Eventually(A))
    ok, tree = accepts_lasso(aut, L([[], ["a"], ["a"]], [[]]))
    assert ok
    assert ("a", True, 1) in tree.annotations
    assert ("a", True, 2) not in tree.annotations


def test_running_example_violation_annotations():
    od = parse_hyperltl('Forall (Forall (G (Eq (AP "lo" 0) (AP "lo" 1))))')
    body, zipped = zip_hyper(od, leaky_cex())
    violation = F.negate_to_nnf(body)
    aut = ltl_to_alternating(violation)
    ok, tree = accepts_lasso(aut, zipped.lasso)
    assert ok
    assert ("lo@0", True, 1) in tree.annotations
    assert ("lo@1", False, 1) in tree.annotations
    events = annotated_events(tree, zipped)
    assert events == (Event("t1", 1, "lo", True), Event("t2", 1, "lo", False))


def test_annotations_empty_for_constant_formula():
    ok, tree = accepts_lasso(ltl_to_alternating(F.TRUE), L([], [["a"]]))
    assert ok and tree.annotations == ()


def test_language_equals_ltl_semantics_random():
    rng = random.Random(37)
    for _ in range(600):
        f = random_ltl(rng, ["a", "b", "c"], rng.randint(1, 4))
        t = random_lasso(rng, ["a", "b", "c"], 4, 4)
        # replay finds run-tree nodes by identity, so it needs the same
        # automaton object the run tree was built on
        aut = ltl_to_alternating(F.nnf(f))
        ok, tree = accepts_lasso(aut, t)
        assert ok == eval_ltl(t, f)
        if ok:
            assert replay(tree, aut, t)


def test_run_tree_soundness_random():
    rng = random.Random(41)
    for _ in range(200):
        f = F.nnf(random_ltl(rng, ["a", "b"], rng.randint(1, 3)))
        t = random_lasso(rng, ["a", "b"], 3, 3)
        aut = ltl_to_alternating(f)
        ok, tree = accepts_lasso(aut, t)
        if not ok:
            continue
        assert replay(tree, aut, t)
        for key, positive, pos in tree.annotations:
            assert (key in t.at(pos)) == positive


def test_replay_rejects_node_outside_the_automaton():
    # G a rejects a word without a; a tree naming no element of the
    # automaton must not pass for a run of it
    aut = ltl_to_alternating(F.Always(A))
    word = Lasso([], [frozenset()])
    assert not accepts_lasso(aut, word)[0]
    forged = RunTree(RunNode("step", 12345, 0, "bogus"), ())
    assert not replay(forged, aut, word)
    # elements of the automaton, but not its root at position 0
    assert not replay(RunTree(RunNode("step", id(EMPTY), 0, "eps"), ()), aut, word)
    aut = ltl_to_alternating(F.And(A, B))
    word = L([["a"]], [[]])
    assert not accepts_lasso(aut, word)[0]
    assert not replay(RunTree(RunNode("literal", id(aut.left), 0, "a"), ()), aut, word)
    aut = ltl_to_alternating(A)
    word = L([[]], [["a"]])
    assert not accepts_lasso(aut, word)[0]
    assert not replay(RunTree(RunNode("literal", id(aut), 1, "a"), ()), aut, word)
    # children that are not the conjuncts, or not at the conjunction's position
    aut = ltl_to_alternating(F.And(A, B))
    word = L([["a"], ["b"]], [[]])
    assert not accepts_lasso(aut, word)[0]
    a_leaf = RunNode("literal", id(aut.left), 0, "a")
    b_late = RunNode("literal", id(aut.right), 1, "b")
    for children in ((a_leaf, a_leaf), (a_leaf, b_late)):
        assert not replay(RunTree(RunNode("conj", id(aut), 0, "and", children), ()), aut, word)


def test_determinism():
    f = F.nnf(F.Until(F.Or(A, B), F.And(A, B)))
    t = L([["a"], ["b"]], [["a", "b"]])
    aut = ltl_to_alternating(f)
    ok1, t1 = accepts_lasso(aut, t)
    ok2, t2 = accepts_lasso(aut, t)
    assert ok1 == ok2
    assert t1 == t2


def test_dump_formats():
    aut = ltl_to_alternating(F.Always(A))
    text = dump_automaton(aut)
    assert "node[acc]" in text and "ref" in text
    ok, tree = accepts_lasso(aut, L([], [["a"]]))
    assert ok
    assert "@0" in tree.dump()


def _ref_sccs(aut):
    """The former iterative Tarjan with an explicit work stack, kept as the
    reference for the recursive one."""
    index, low, on_stack, stack, out, counter = {}, {}, set(), [], [], [0]
    work = [(aut, iter(_successors(aut)))]
    index[id(aut)] = low[id(aut)] = counter[0]
    counter[0] += 1
    stack.append(aut)
    on_stack.add(id(aut))
    while work:
        node, it = work[-1]
        advanced = False
        for w in it:
            if id(w) not in index:
                index[id(w)] = low[id(w)] = counter[0]
                counter[0] += 1
                stack.append(w)
                on_stack.add(id(w))
                work.append((w, iter(_successors(w))))
                advanced = True
                break
            if id(w) in on_stack:
                low[id(node)] = min(low[id(node)], index[id(w)])
        if advanced:
            continue
        work.pop()
        if work:
            parent = work[-1][0]
            low[id(parent)] = min(low[id(parent)], low[id(node)])
        if low[id(node)] == index[id(node)]:
            comp = []
            while True:
                w = stack.pop()
                on_stack.discard(id(w))
                comp.append(w)
                if w is node:
                    break
            out.append(comp)
    return out


@settings(max_examples=300)
@given(st.randoms(use_true_random=False), st.integers(0, 6))
def test_components_agree_with_reference(rng, depth):
    aut = ltl_to_alternating(F.nnf(random_ltl(rng, ["a", "b", "c"], depth)))
    components = [frozenset(map(id, c)) for c in _sccs(aut)]
    assert components == [frozenset(map(id, c)) for c in _ref_sccs(aut)]
    assert frozenset().union(*components) == {id(e) for e in elements(aut)} - {id(EMPTY)}
