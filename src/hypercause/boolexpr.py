"""Transition guards of Moore machines, as truth tables.

A guard is a propositional formula over input names.  `evaluate` reads it
in one pass: one regular-expression scan splits the text into tokens, and
a loop evaluates them by operator precedence (``!`` over ``&`` over ``|``,
parentheses on a stack).  The value of every subformula is its truth
table, an int with bit ``i`` set when the ``i``-th input set of
`assignments(inputs)` satisfies it.  So ``!`` is XOR with the full row,
``&`` and ``|`` are AND and OR, and ``true``/``false`` are the full row and
0; `guard_rows` gives the table of each name.
`guard_text` prints a set of input sets back as a guard in DNF.  Desk
scale only: a table has one bit per subset of the inputs."""

from __future__ import annotations

import itertools
import re
from collections.abc import Iterable, Iterator

from .errors import ParseError


def assignments(variables: Iterable[str]) -> Iterator[frozenset[str]]:
    """All assignments over `variables`, as frozensets of true variables."""
    names = sorted(set(variables))
    for bits in itertools.product((False, True), repeat=len(names)):
        yield frozenset(n for n, b in zip(names, bits) if b)


# -- guard syntax: identifiers, !, &, |, parentheses, true/false ------------

CONSTANTS = ("true", "false")  # read as constants, so no input may have these names

# a token is a name or any other character but whitespace, which separates
# tokens; of those characters only the operators are valid
_TOKEN = re.compile(r"[A-Za-z_][A-Za-z0-9_']*|\S")
_NAME_START = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_OPERATORS = frozenset("()!&|")
_NO_NAMES: frozenset[str] = frozenset()


def guard_rows(inputs: Iterable[str]) -> dict[str, int]:
    """The truth table of each input name and of ``true`` and ``false``."""
    rows: dict[str, int] = {}
    size = 1
    # each name becomes the slowest-varying one so far (`assignments` varies
    # the last name fastest): the input sets without it, then with it
    for name in sorted(set(inputs), reverse=True):
        for other in rows:
            rows[other] |= rows[other] << size
        rows[name] = ((1 << size) - 1) << size
        size *= 2
    rows["true"] = (1 << size) - 1
    rows["false"] = 0
    return rows


def evaluate(text: str, rows: dict[str, int]) -> tuple[int, frozenset[str]]:
    """Truth table of guard `text` over the names of `rows` (`guard_rows`),
    and the names it uses that `rows` lacks (read as false).

    One pass over the tokens: a conjunction being read is ANDed into
    `conj`, and each ``|`` ORs it into `ors`; ``!`` flips a pending
    negation of the next operand, and ``(`` saves the three on a stack
    until its ``)`` delivers the group's value as an operand.
    """
    value = rows.get(text)
    if value is not None:  # a lone name, the commonest guard
        return value, _NO_NAMES
    tokens = _TOKEN.findall(text)
    full = rows["true"]
    unknown = set()
    stack = []  # (ors, conj, negate) outside each open parenthesis
    ors, conj, negate = 0, full, False
    operand = True  # whether an operand comes next, not an operator
    for k, token in enumerate(tokens):
        if operand:
            if token == "!":
                negate = not negate
            elif token == "(":
                stack.append((ors, conj, negate))
                ors, conj, negate = 0, full, False
            else:
                value = rows.get(token)
                if value is None:
                    if token[0] not in _NAME_START:
                        _fail(text, tokens, k, f"unexpected token {token!r} in guard")
                    unknown.add(token)
                    value = 0
                conj &= value ^ full if negate else value
                negate = operand = False
        elif token == "&":
            operand = True
        elif token == "|":
            ors |= conj
            conj = full
            operand = True
        elif token == ")" and stack:
            value = ors | conj
            ors, conj, negate = stack.pop()
            conj &= value ^ full if negate else value
            negate = False
        else:
            _fail(text, tokens, k,
                  f"expected ), found {token!r}" if stack else f"trailing input {token!r}")
    if operand:
        _fail(text, tokens, len(tokens), "unexpected token '' in guard")
    if stack:
        _fail(text, tokens, len(tokens), "expected ), found ''")
    return ors | conj, frozenset(unknown)


def _fail(text: str, tokens: list[str], k: int, message: str):
    """Raise `message` at token `k` (the end of `text` past the last one),
    unless a character that is neither a name nor an operator comes at or
    after it: the first such character is the error then, as if the text
    were read in full before it is evaluated."""
    for j in range(k, len(tokens)):
        token = tokens[j]
        if token[0] not in _NAME_START and token not in _OPERATORS:
            k, message = j, f"unexpected character {token!r} in guard"
            break
    starts = [m.start() for m in _TOKEN.finditer(text)]
    raise ParseError(message, starts[k] if k < len(starts) else len(text))


def guard_text(inputs: Iterable[str], input_sets: Iterable[frozenset[str]]) -> str:
    """A guard true exactly on `input_sets`: one conjunction of literals per
    set, over `inputs` in their given order, or ``true`` when the sets are
    all the input sets."""
    inputs = tuple(inputs)
    input_sets = tuple(input_sets)
    if len(input_sets) == 1 << len(set(inputs)):
        return "true"
    terms = (" & ".join(n if n in s else f"!{n}" for n in inputs) for s in input_sets)
    return " | ".join(terms) or "false"
