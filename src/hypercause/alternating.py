"""Alternating automata for formulas in negation normal form.

The automaton grammar has an empty automaton, labelled nodes
``<state-formula, next, acc|rej>``, conjunctions, and disjunctions.  The
translation from NNF formulas is linear: each temporal operator becomes a
node that loops back to its own automaton, accepting for invariant-style
obligations (G, R) and rejecting for eventualities (X, F, U).

Acceptance over a lasso word is decided on the finite unrolling: the value
of an accepting loop is a greatest fixpoint, of a rejecting loop a least
fixpoint; the automaton is weak (every cycle has a single polarity), so
simultaneous iteration from per-node seeds converges to the Büchi verdict.

``accepts_lasso`` additionally extracts one canonical accepting run tree:
disjunctions resolve to their leftmost satisfied branch, so eventualities
discharge at their earliest witness.  Its literal leaves, the annotations,
are the atomic facts the acceptance actually read.
"""

from __future__ import annotations

from . import formulas as F
from .errors import ValidationError
from .events import Event, sort_events
from .lasso import Lasso
from .semantics import ZippedTrace
from .values import Value


class AutExpr:
    pass


class AutEmpty(AutExpr):
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "eps"


EMPTY = AutEmpty()


class AutNode(AutExpr):
    __slots__ = ("state_formula", "next", "accepting", "tag")

    def __init__(self, state_formula: F.Formula, nxt: AutExpr | None, accepting: bool, tag: str):
        self.state_formula = state_formula
        self.next = nxt  # patched after construction for self-loops
        self.accepting = accepting
        self.tag = tag

    def __repr__(self):
        flag = "acc" if self.accepting else "rej"
        return f"<{self.state_formula}, ., {flag}>"


class AutConj(AutExpr):
    __slots__ = ("left", "right")

    def __init__(self, left: AutExpr, right: AutExpr):
        self.left = left
        self.right = right


class AutDisj(AutExpr):
    __slots__ = ("left", "right")

    def __init__(self, left: AutExpr, right: AutExpr):
        self.left = left
        self.right = right


def ltl_to_alternating(formula: F.Formula) -> AutExpr:
    """Linear translation of an NNF formula; distinct subformulas share automata."""
    if not F.is_nnf(formula):
        raise ValidationError("alternating translation requires negation normal form")
    memo: dict[F.Formula, AutExpr] = {}

    def build(f: F.Formula) -> AutExpr:
        if f in memo:
            return memo[f]
        if isinstance(f, F.Const):
            aut = AutNode(f, EMPTY, True, str(f))
        elif isinstance(f, F.Atom):
            aut = AutNode(f, EMPTY, True, str(f))
        elif isinstance(f, F.Not):
            aut = AutNode(f, EMPTY, True, str(f))
        elif isinstance(f, F.And):
            aut = AutConj(build(f.left), build(f.right))
        elif isinstance(f, F.Or):
            aut = AutDisj(build(f.left), build(f.right))
        elif isinstance(f, F.Next):
            aut = AutNode(F.TRUE, build(f.arg), False, str(f))
        elif isinstance(f, F.Always):
            loop = AutNode(F.TRUE, None, True, str(f))
            aut = AutConj(loop, build(f.arg))
            loop.next = aut
        elif isinstance(f, F.Eventually):
            loop = AutNode(F.TRUE, None, False, str(f))
            aut = AutDisj(build(f.arg), loop)
            loop.next = aut
        elif isinstance(f, F.Until):
            loop = AutNode(F.TRUE, None, False, str(f))
            aut = AutDisj(build(f.right), AutConj(loop, build(f.left)))
            loop.next = aut
        elif isinstance(f, F.Release):
            loop = AutNode(F.TRUE, None, True, str(f))
            aut = AutDisj(AutConj(build(f.left), build(f.right)), AutConj(loop, build(f.right)))
            loop.next = aut
        else:
            raise ValidationError(f"alternating translation requires negation normal form: {f}")
        memo[f] = aut
        return aut

    return build(formula)


def _holds(state_formula: F.Formula, letter: frozenset[str]) -> bool:
    if isinstance(state_formula, F.Const):
        return state_formula.value
    if isinstance(state_formula, F.Atom):
        return state_formula.key() in letter
    if isinstance(state_formula, F.Not) and isinstance(state_formula.arg, F.Atom):
        return state_formula.arg.key() not in letter
    raise ValidationError(f"state formula must be a literal or constant: {state_formula}")


def _successors(e: AutExpr) -> tuple[AutExpr, ...]:
    if isinstance(e, AutNode):
        return () if e.next is EMPTY else (e.next,)
    if isinstance(e, (AutConj, AutDisj)):
        return (e.left, e.right)
    return ()


def _sccs(aut: AutExpr) -> list[list[AutExpr]]:
    """Tarjan components, emitted children-first (reverse topological)."""
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[AutExpr] = []
    out: list[list[AutExpr]] = []

    def visit(v: AutExpr):
        index[id(v)] = low[id(v)] = len(index)
        stack.append(v)
        on_stack.add(id(v))
        for w in _successors(v):
            if id(w) not in index:
                visit(w)
                low[id(v)] = min(low[id(v)], low[id(w)])
            elif id(w) in on_stack:
                low[id(v)] = min(low[id(v)], index[id(w)])
        if low[id(v)] == index[id(v)]:
            comp = [stack.pop()]
            while comp[-1] is not v:
                comp.append(stack.pop())
            on_stack.difference_update(map(id, comp))
            out.append(comp)

    visit(aut)
    return out


def _values(aut: AutExpr, trace: Lasso) -> dict[tuple[int, int], bool]:
    """Truth of every (automaton element, position): does an accepting run start there?

    Components are solved bottom-up.  A cyclic component belongs to exactly
    one temporal obligation; its loop node's flag picks the fixpoint side:
    accepting components start optimistically true (greatest fixpoint),
    rejecting ones start false (least fixpoint).
    """
    n = len(trace)
    succ = trace.successors()
    letters = [trace.at(i) for i in range(n)]
    value: dict[tuple[int, int], bool] = {}

    def step(e: AutExpr, p: int) -> bool:
        if isinstance(e, AutEmpty):
            return True
        if isinstance(e, AutNode):
            if not _holds(e.state_formula, letters[p]):
                return False
            if e.next is EMPTY:
                return True
            return value[(id(e.next), succ[p])]
        if isinstance(e, AutConj):
            return value[(id(e.left), p)] and value[(id(e.right), p)]
        return value[(id(e.left), p)] or value[(id(e.right), p)]

    for comp in _sccs(aut):
        comp_ids = {id(e) for e in comp}
        cyclic = len(comp) > 1 or any(
            id(s) in comp_ids for e in comp for s in _successors(e)
        )
        if not cyclic:
            e = comp[0]
            for p in range(n):
                value[(id(e), p)] = step(e, p)
            continue
        flags = {e.accepting for e in comp if isinstance(e, AutNode) and e.next is not EMPTY}
        if len(flags) != 1:
            raise RuntimeError("mixed-polarity cycle in alternating automaton")
        seed = flags.pop()
        for e in comp:
            for p in range(n):
                value[(id(e), p)] = seed
        for _ in range(len(comp) * n + 2):
            changed = False
            for e in comp:
                for p in range(n):
                    new = step(e, p)
                    if new != value[(id(e), p)]:
                        value[(id(e), p)] = new
                        changed = True
            if not changed:
                break
        else:
            raise RuntimeError("alternating value iteration did not stabilize")
    return value


class RunNode(Value):
    __slots__ = ("kind", "element_id", "position", "label", "children")

    def __init__(
        self,
        kind: str,  # "literal" | "step" | "conj" | "disj" | "loop"
        element_id: int,
        position: int,
        label: str,
        children: tuple[RunNode, ...] = (),
    ):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "element_id", element_id)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "children", children)


class RunTree(Value):
    __slots__ = ("root", "annotations")

    def __init__(self, root: RunNode, annotations: tuple[tuple[str, bool, int], ...]):
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "annotations", annotations)  # (atom key, polarity, position)

    def dump(self) -> str:
        """Indented text: one node per line as ``@<position> <kind> <label>``,
        children indented two spaces below their parent."""
        lines: list[str] = []

        def walk(node: RunNode, depth: int):
            lines.append("  " * depth + f"@{node.position} {node.kind} {node.label}")
            for c in node.children:
                walk(c, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)


def accepts_lasso(aut: AutExpr, trace: Lasso) -> tuple[bool, RunTree | None]:
    """Büchi acceptance on the lasso, with a canonical accepting run tree."""
    value = _values(aut, trace)
    succ = trace.successors()
    if not _value_of(aut, 0, value):
        return False, None

    annotations: list[tuple[str, bool, int]] = []

    def build(e: AutExpr, p: int, path: tuple) -> RunNode:
        key = (id(e), p)
        for idx, (k, elem) in enumerate(path):
            if k == key:
                closed = [elem2 for _, elem2 in path[idx:]] + [e]
                if not any(isinstance(x, AutNode) and x.accepting for x in closed):
                    raise RuntimeError("rejecting loop in canonical run extraction")
                label = e.tag if isinstance(e, AutNode) else "loop"
                return RunNode("loop", id(e), p, f"back to {label}")
        assert _value_of(e, p, value), "canonical run extraction entered a false branch"
        path = path + ((key, e),)
        if isinstance(e, AutEmpty):
            return RunNode("step", id(e), p, "eps")
        if isinstance(e, AutNode):
            if isinstance(e.state_formula, (F.Atom, F.Not)):
                atom = (
                    e.state_formula
                    if isinstance(e.state_formula, F.Atom)
                    else e.state_formula.arg
                )
                positive = isinstance(e.state_formula, F.Atom)
                annotations.append((atom.key(), positive, p))
                kind = "literal"
            else:
                kind = "step"
            children = ()
            if e.next is not EMPTY:
                children = (build(e.next, succ[p], path),)
            return RunNode(kind, id(e), p, e.tag, children)
        if isinstance(e, AutConj):
            return RunNode(
                "conj", id(e), p, "and", (build(e.left, p, path), build(e.right, p, path))
            )
        chosen = e.left if _value_of(e.left, p, value) else e.right
        return RunNode("disj", id(e), p, "or", (build(chosen, p, path),))

    root = build(aut, 0, ())
    return True, RunTree(root, tuple(sorted(set(annotations))))


def _value_of(e: AutExpr, p: int, value) -> bool:
    if isinstance(e, AutEmpty):
        return True
    return value[(id(e), p)]


def annotated_events(tree: RunTree, zipped: ZippedTrace) -> tuple[Event, ...]:
    """Map annotation literals back to events on the original traces."""
    events: list[Event] = []
    for key, positive, pos in tree.annotations:
        if "@" not in key:
            continue
        prop, var = key.rsplit("@", 1)
        events.append(zipped.event_for(var, pos, prop, positive))
    return sort_events(events)


def dump_automaton(aut: AutExpr) -> str:
    """Indented text, one element per line.

    ``nK: node[acc|rej] nu=<literal> (<source>)`` for labelled nodes, ``nK:
    and`` / ``nK: or`` for combinations, ``eps`` for the empty automaton;
    children are indented below, and a shared or looping element appears
    once with later occurrences shown as ``ref nK``.
    """
    lines: list[str] = []
    names: dict[int, str] = {}

    def name(e: AutExpr) -> str:
        if isinstance(e, AutEmpty):
            return "eps"
        if id(e) not in names:
            names[id(e)] = f"n{len(names)}"
        return names[id(e)]

    seen: set[int] = set()

    def walk(e: AutExpr, depth: int):
        indent = "  " * depth
        if isinstance(e, AutEmpty):
            lines.append(indent + "eps")
            return
        tag = name(e)
        if id(e) in seen:
            lines.append(indent + f"ref {tag}")
            return
        seen.add(id(e))
        if isinstance(e, AutNode):
            flag = "acc" if e.accepting else "rej"
            lines.append(indent + f"{tag}: node[{flag}] nu={e.state_formula} ({e.tag})")
            if e.next is not EMPTY:
                walk(e.next, depth + 1)
        elif isinstance(e, AutConj):
            lines.append(indent + f"{tag}: and")
            walk(e.left, depth + 1)
            walk(e.right, depth + 1)
        else:
            lines.append(indent + f"{tag}: or")
            walk(e.left, depth + 1)
            walk(e.right, depth + 1)

    walk(aut, 0)
    return "\n".join(lines)
