"""Exact LTL evaluation on lasso words: compiled bit rows and the zipping reference.

A counterexample assigns one lasso per trace variable.  Their joint
unrolling has the longest component prefix and, after it, the least common
multiple of the component periods; the last position wraps to the loop
start.  `eval_hyper` evaluates a quantifier-free body on that unrolling with
the body's compiled `Program` (built once per formula and cached on it as
``HyperFormula.program``).  The program lists the distinct subformulas in
postorder, its atoms resolved to (trace index, proposition), and holds the
truth of each subformula at every position as one Python int, bit ``i``
for position ``i``:

* the Boolean operators are ``&``, ``|`` and ``^`` on whole rows;
* ``X`` shifts the row down one position and moves the loop start's bit to
  the last position;
* ``F`` and ``G`` are closed forms (from the loop on, every position sees
  the whole loop), ``U`` and ``R`` whole-row fixpoints.

`Program.bounds` is the one interpreter of the program.  It runs it
three-valued, on a must and a may row per subformula, over words known
only between two bounds, and reads both verdicts at position 0: the checker
uses the must verdict to show that every assignment of machine traces
satisfies the body, and the candidate analysis the may verdict to rule out
every counterfactual world at once.  On exact words (both bounds the same)
both verdicts are the body's truth, and `eval_hyper` reads it there.

Zipping is the reference the program is checked against: it merges the
assignment into a single lasso whose letters carry ``prop@var`` keys, so the
body reads like an ordinary LTL formula over those keys, and `truth_table`
computes Until/Release truth by fixpoint iteration over the finite
unrolling, one list of booleans per subformula.  The alternating-automaton
annotations and the CLI's automaton dump work on the zipped trace.
"""

from __future__ import annotations

from collections.abc import Sequence

from . import formulas as F
from .errors import ValidationError
from .events import Counterexample, Event
from .lasso import Lasso, joint_shape
from .values import Value


class ZippedTrace(Value):
    __slots__ = ("lasso", "variables", "binding", "shapes")

    def __init__(
        self,
        lasso: Lasso,
        variables: tuple[str, ...],
        binding: tuple[tuple[str, str], ...],  # (variable, trace name)
        shapes: tuple[tuple[int, int], ...],  # per variable: (|u|, |v|) of its trace
    ):
        object.__setattr__(self, "lasso", lasso)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "binding", binding)
        object.__setattr__(self, "shapes", shapes)

    def trace_of(self, var: str) -> str:
        return dict(self.binding)[var]

    def original_position(self, var: str, zipped_pos: int) -> int:
        """Map a zipped position into the variable's own finite representation."""
        shape = dict(zip(self.variables, self.shapes))[var]
        prefix_len, period_len = shape
        if zipped_pos < prefix_len:
            return zipped_pos
        return prefix_len + (zipped_pos - prefix_len) % period_len

    def event_for(self, var: str, zipped_pos: int, prop: str, positive: bool) -> Event:
        return Event(self.trace_of(var), self.original_position(var, zipped_pos), prop, positive)


def zip_hyper(formula: F.HyperFormula, cex: Counterexample) -> tuple[F.Formula, ZippedTrace]:
    """Eliminate the quantifier prefix against a concrete assignment.

    Variables bind positionally to the counterexample's traces.  The zipped
    lasso has the shape of their joint unrolling (`lasso.joint_shape`).
    """
    names = cex.names()
    if len(names) != len(formula.variables):
        raise ValidationError(
            f"formula quantifies {len(formula.variables)} traces but the "
            f"counterexample assigns {len(names)}"
        )
    binding = tuple(zip(formula.variables, names))
    prefix_len, period_len = joint_shape(cex.lassos())

    letters = []
    for pos in range(prefix_len + period_len):
        letter = set()
        for var, name in binding:
            for prop in cex[name].at(pos):
                letter.add(f"{prop}@{var}")
        letters.append(frozenset(letter))
    zipped = Lasso(letters[:prefix_len], letters[prefix_len:])
    shapes = tuple((cex[n].loop_start, len(cex[n].period)) for n in names)
    return formula.body, ZippedTrace(zipped, formula.variables, binding, shapes)


def eval_ltl(trace: Lasso, formula: F.Formula) -> bool:
    """Truth of `formula` at position 0 of the ultimately periodic word."""
    return truth_table(trace, formula)[formula][0]


def truth_table(trace: Lasso, formula: F.Formula) -> dict[F.Formula, list[bool]]:
    """Truth of every subformula at every position of the finite unrolling."""
    n = len(trace)
    loop = trace.loop_start
    succ = [i + 1 for i in range(n)]
    succ[n - 1] = loop
    letters = [trace.at(i) for i in range(n)]
    table: dict[F.Formula, list[bool]] = {}

    for sub in F.subformulas(formula):
        if isinstance(sub, F.Atom):
            key = sub.key()
            row = [key in letters[i] for i in range(n)]
        elif isinstance(sub, F.Const):
            row = [sub.value] * n
        elif isinstance(sub, F.Not):
            row = [not v for v in table[sub.arg]]
        elif isinstance(sub, F.And):
            row = [a and b for a, b in zip(table[sub.left], table[sub.right])]
        elif isinstance(sub, F.Or):
            row = [a or b for a, b in zip(table[sub.left], table[sub.right])]
        elif isinstance(sub, F.Implies):
            row = [(not a) or b for a, b in zip(table[sub.left], table[sub.right])]
        elif isinstance(sub, F.Iff):
            row = [a == b for a, b in zip(table[sub.left], table[sub.right])]
        elif isinstance(sub, F.Next):
            arg = table[sub.arg]
            row = [arg[succ[i]] for i in range(n)]
        elif isinstance(sub, F.Eventually):
            row = _lfp(lambda cur, i: table[sub.arg][i] or cur[succ[i]], n)
        elif isinstance(sub, F.Always):
            row = _gfp(lambda cur, i: table[sub.arg][i] and cur[succ[i]], n)
        elif isinstance(sub, F.Until):
            row = _lfp(
                lambda cur, i: table[sub.right][i] or (table[sub.left][i] and cur[succ[i]]), n
            )
        elif isinstance(sub, F.Release):
            row = _gfp(
                lambda cur, i: table[sub.right][i] and (table[sub.left][i] or cur[succ[i]]), n
            )
        else:
            raise TypeError(f"not a formula node: {sub!r}")
        table[sub] = row
    return table


def _lfp(step, n: int) -> list[bool]:
    cur = [False] * n
    while True:
        nxt = [step(cur, i) for i in range(n)]
        if nxt == cur:
            return cur
        cur = nxt


def _gfp(step, n: int) -> list[bool]:
    cur = [True] * n
    while True:
        nxt = [step(cur, i) for i in range(n)]
        if nxt == cur:
            return cur
        cur = nxt


_NOT, _AND, _OR, _IMPLIES, _IFF, _NEXT, _EVENTUALLY, _ALWAYS, _UNTIL, _RELEASE, _CONST = range(11)

_OPCODES = {
    F.Not: _NOT,
    F.And: _AND,
    F.Or: _OR,
    F.Implies: _IMPLIES,
    F.Iff: _IFF,
    F.Next: _NEXT,
    F.Eventually: _EVENTUALLY,
    F.Always: _ALWAYS,
    F.Until: _UNTIL,
    F.Release: _RELEASE,
    F.Const: _CONST,
}


class Program(Value):
    """A hyper formula's body as a postorder list of row operations.

    Rows ``0 .. len(atoms) - 1`` hold the atoms, each given as the index of
    the trace its variable binds and the proposition it reads.  Instruction
    ``j`` of `code` is ``(opcode, x, y)`` and computes row ``len(atoms) + j``
    from rows ``x`` and ``y`` (unary operators ignore ``y``; a constant
    keeps its value in ``x``).  Row `result` is the body.  An immutable
    value (see `values`): a formula caches its program, so a changed row
    would change every later verdict on that formula.
    """

    __slots__ = ("arity", "atoms", "code", "result")

    def __init__(
        self,
        arity: int,
        atoms: tuple[tuple[int, str], ...],
        code: tuple[tuple[int, int, int], ...],
        result: int,
    ):
        for field, value in zip(self.__slots__, (arity, atoms, code, result)):
            object.__setattr__(self, field, value)

    def _atom_rows(self, lassos: Sequence[Lasso], n: int) -> list[int]:
        unrolled: dict[int, tuple[frozenset[str], ...]] = {}
        rows = []
        for index, prop in self.atoms:
            letters = unrolled.get(index)
            if letters is None:
                t = lassos[index]
                copies = (n - len(t.prefix)) // len(t.period) + 1
                letters = unrolled[index] = (t.prefix + t.period * copies)[:n]
            row = 0
            for pos, letter in enumerate(letters):
                if prop in letter:
                    row |= 1 << pos
            rows.append(row)
        return rows

    def bounds(self, must: Sequence[Lasso], may: Sequence[Lasso]) -> tuple[bool, bool]:
        """Does the body surely hold, and can it hold, on the assignments
        whose words lie between `must` and `may`?

        Trace ``i``'s word must contain every letter of ``must[i]`` and only
        letters of ``may[i]``, position by position; both have that trace's
        shape.  Each subformula gets a must row (true on every such
        assignment) and a may row (true on some): ``&`` and ``|`` act on each
        row, ``!`` swaps the rows and complements them, and the temporal
        operators, being monotone, act on each row unchanged.  The answer
        reads both rows at position 0: (True, _) means every such assignment
        satisfies the body, (_, False) that none does; on exact words
        (``must == may``) both are the body's truth, which `eval_hyper` reads.
        """
        if len(must) != self.arity:
            raise ValidationError(
                f"formula quantifies {self.arity} traces but the "
                f"counterexample assigns {len(must)}"
            )
        loop, period = joint_shape(must)
        n = loop + period
        full = (1 << n) - 1
        lo = self._atom_rows(must, n)
        hi = self._atom_rows(may, n)
        for op, x, y in self.code:
            if op == _AND:
                low, high = lo[x] & lo[y], hi[x] & hi[y]
            elif op == _OR:
                low, high = lo[x] | lo[y], hi[x] | hi[y]
            elif op == _NOT:
                low, high = full ^ hi[x], full ^ lo[x]
            elif op == _IMPLIES:
                low, high = (full ^ hi[x]) | lo[y], (full ^ lo[x]) | hi[y]
            elif op == _IFF:
                low = (lo[x] & lo[y]) | (full ^ (hi[x] | hi[y]))
                high = (hi[x] & hi[y]) | (full ^ (lo[x] | lo[y]))
            elif op == _CONST:
                low = high = full if x else 0
            else:
                low = _temporal(op, lo[x], lo[y], loop, full)
                high = _temporal(op, hi[x], hi[y], loop, full)
            lo.append(low)
            hi.append(high)
        return bool(lo[self.result] & 1), bool(hi[self.result] & 1)


def _temporal(op: int, a: int, b: int, loop: int, full: int) -> int:
    """Row of a temporal operator on argument rows `a` (and `b`)."""
    last = full.bit_length() - 1
    if op == _NEXT:
        return (a >> 1) | ((a >> loop & 1) << last)
    if op == _EVENTUALLY:
        return _eventually(a, loop, full)
    if op == _ALWAYS:
        return full ^ _eventually(full ^ a, loop, full)
    row = b
    if op == _UNTIL:
        # least fixpoint of  b | (a & X cur), from the first iterate b
        while True:
            step = b | (a & ((row >> 1) | ((row >> loop & 1) << last)))
            if step == row:
                return row
            row = step
    # _RELEASE: greatest fixpoint of  b & (a | X cur), from the first iterate b
    while True:
        step = b & (a | ((row >> 1) | ((row >> loop & 1) << last)))
        if step == row:
            return row
        row = step


def _eventually(row: int, loop: int, full: int) -> int:
    """F on a row: a position at or after the loop start sees every loop
    position, one before it sees itself and every later position."""
    return full if row >> loop else (1 << row.bit_length()) - 1


def compile_body(formula: F.HyperFormula) -> Program:
    """Compile the body of `formula`; use the cached ``formula.program``."""
    index = {var: i for i, var in enumerate(formula.variables)}
    subs = F.subformulas(formula.body)
    atoms = [sub for sub in subs if isinstance(sub, F.Atom)]
    slot: dict[F.Formula, int] = {atom: i for i, atom in enumerate(atoms)}
    code: list[tuple[int, int, int]] = []
    for sub in subs:
        if isinstance(sub, F.Atom):
            continue
        op = _OPCODES.get(type(sub))
        if op is None:
            raise TypeError(f"not a formula node: {sub!r}")
        if op == _CONST:
            code.append((op, int(sub.value), 0))
        elif isinstance(sub, F.UNARY):
            code.append((op, slot[sub.arg], 0))
        else:
            code.append((op, slot[sub.left], slot[sub.right]))
        slot[sub] = len(atoms) + len(code) - 1
    return Program(
        arity=len(formula.variables),
        atoms=tuple((index[a.var], a.prop) for a in atoms),
        code=tuple(code),
        result=slot[formula.body],
    )


def eval_hyper(cex: Counterexample, formula: F.HyperFormula) -> bool:
    """Truth of the quantifier-free body on the given trace assignment.

    Variables bind positionally to the counterexample's traces, as in
    `zip_hyper`, and the answer is that of ``eval_ltl(zipped.lasso, body)``
    for ``body, zipped = zip_hyper(formula, cex)``.
    """
    lassos = cex.lassos()
    return formula.program.bounds(lassos, lassos)[0]


def falsifies(cex: Counterexample, formula: F.HyperFormula) -> bool:
    return not eval_hyper(cex, formula)
