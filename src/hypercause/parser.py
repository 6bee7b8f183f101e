"""Parsers for the two formula syntaxes.

Infix:   ``forall p1 p2. G (lo[p1] <-> lo[p2])``
S-expr:  ``Forall (Forall (G (Eq (AP "lo" 0) (AP "lo" 1))))``

In the s-expression form atoms name their quantifier by index; the parsed
formula uses variable names ``0``, ``1``, ... so reports match the numbered
quantifiers.  Only universal prefixes are supported; an existential
quantifier raises UnsupportedFragmentError.
"""

from __future__ import annotations

import re

from . import formulas as F
from .errors import ParseError, UnsupportedFragmentError
from .values import Value

# token kinds and their patterns; no two start with the same character, so
# the order only sets which alternative the scanner tries first
_KINDS = {
    "word": r"[A-Za-z_][A-Za-z_0-9'@]*",
    "lbrack": r"\[",
    "rbrack": r"\]",
    "number": r"\d+",
    "lpar": r"\(",
    "rpar": r"\)",
    "dot": r"\.",
    "iff": r"<->",
    "implies": r"->",
    "and": r"&&?",
    "or": r"\|\|?",
    "not": r"!",
    "string": r'"[^"]*"',
}
# one token per match, whitespace before it skipped; group ``i`` is the
# ``i``-th kind
_TOKEN = re.compile(r"\s*(?:" + "|".join(f"({p})" for p in _KINDS.values()) + ")")
_KIND_OF_GROUP = (None, *_KINDS)


class Token(Value):
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind: str, text: str, pos: int):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "pos", pos)


def tokenize(text: str) -> list[Token]:
    """The tokens of `text`, then an ``end`` token at its length.

    One `finditer` pass: each match skips the whitespace before its token,
    so the matches run on without a gap up to the first character no token
    starts with, which is the error, or up to trailing whitespace.
    """
    tokens: list[Token] = []
    end = 0
    for m in _TOKEN.finditer(text):
        if m.start() != end:
            break
        i = m.lastindex
        tokens.append(Token(_KIND_OF_GROUP[i], m.group(i), m.start(i)))
        end = m.end()
    rest = text[end:].lstrip()
    if rest:
        raise ParseError(f"unexpected character {rest[0]!r}", len(text) - len(rest))
    tokens.append(Token("end", "", len(text)))
    return tokens


class _Tokens:
    def __init__(self, text: str):
        self.items = tokenize(text)
        self.i = 0

    def peek(self) -> Token:
        return self.items[self.i]

    def next(self) -> Token:
        tok = self.items[self.i]
        self.i += 1
        return tok

    def names_atom(self) -> bool:
        """Whether the next token is a word directly followed by '[', which
        names a proposition whatever the word (``X[p]``, ``true[p]``)."""
        return self.peek().kind == "word" and self.items[self.i + 1].kind == "lbrack"

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {what or kind}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.next()


# -- infix ------------------------------------------------------------------

# operator token text -> formula class (and precedence, right associativity)
_BINARY = {sym: (cls, prec, right) for cls, (sym, prec, right) in F.INFIX_BINARY.items()}
_BINARY.update({"&&": _BINARY["&"], "||": _BINARY["|"]})
_UNARY = {sym: cls for cls, sym in F.INFIX_UNARY.items()}
# words that cannot name a trace variable (the symbols are never word
# tokens); nor can a word with '@', which zipped keys ``prop@var`` split at
_RESERVED = {"forall", "exists", "true", "false", *_BINARY, *_UNARY}


def _parse_infix(text: str) -> F.HyperFormula:
    toks = _Tokens(text)
    variables: list[str] = []
    while toks.peek().text in ("forall", "exists") and not toks.names_atom():
        head = toks.next()
        if head.text == "exists":
            raise UnsupportedFragmentError(
                "existential quantifiers are not supported (universal fragment only)"
            )
        group = []
        while (toks.peek().kind == "number"
               or (toks.peek().kind == "word" and toks.peek().text not in _RESERVED
                   and "@" not in toks.peek().text)):
            group.append(toks.next().text)
        if not group:
            raise ParseError("expected at least one trace variable after 'forall'", toks.peek().pos)
        toks.expect("dot", "'.' after quantified variables")
        variables.extend(group)
    if not variables:
        raise UnsupportedFragmentError("formula must start with a universal quantifier prefix")
    body = _infix_binary(toks)
    toks.expect("end", "end of formula")
    return F.HyperFormula(tuple(variables), body)


def _infix_binary(toks: _Tokens, min_prec: int = 0) -> F.Formula:
    """Precedence climbing over binary operators of precedence `min_prec` or more."""
    left = _infix_unary(toks)
    while (op := _BINARY.get(toks.peek().text)) and op[1] >= min_prec:
        cls, prec, right_assoc = op
        toks.next()
        left = cls(left, _infix_binary(toks, prec if right_assoc else prec + 1))
    return left


def _infix_unary(toks: _Tokens) -> F.Formula:
    tok = toks.peek()
    if tok.text in _UNARY and not toks.names_atom():
        toks.next()
        return _UNARY[tok.text](_infix_unary(toks))
    return _infix_primary(toks)


def _infix_primary(toks: _Tokens) -> F.Formula:
    tok = toks.peek()
    if tok.kind == "lpar":
        toks.next()
        inner = _infix_binary(toks)
        toks.expect("rpar", "')'")
        return inner
    if tok.kind == "word":
        if tok.text in ("true", "false") and not toks.names_atom():
            toks.next()
            return F.TRUE if tok.text == "true" else F.FALSE
        if tok.text in ("forall", "exists") and not toks.names_atom():
            raise ParseError("quantifiers are only allowed as the formula prefix", tok.pos)
        name = toks.next().text
        toks.expect("lbrack", "'[' after proposition name")
        var_tok = toks.peek()
        if var_tok.kind not in ("word", "number"):
            raise ParseError("expected trace variable", var_tok.pos)
        toks.next()
        toks.expect("rbrack", "']'")
        return F.Atom(name, var_tok.text)
    raise ParseError(f"unexpected token {tok.text or 'end of input'!r}", tok.pos)


# -- s-expression -----------------------------------------------------------

# canonical heads plus aliases; ``Neq`` reads as ``Eq`` under a negation
_SEXPR_HEADS = {head: cls for cls, head in F.SEXPR_HEADS.items()}
_SEXPR_HEADS.update({"Neg": F.Not, "Next": F.Next, "Finally": F.Eventually,
                     "Eventually": F.Eventually, "Globally": F.Always,
                     "U": F.Until, "R": F.Release, "Neq": F.Iff})


def _parse_sexpr(text: str) -> F.HyperFormula:
    toks = _Tokens(text)
    quantifiers = 0

    def head_name() -> Token:
        return toks.expect("word", "operator name")

    def parse_quantified() -> F.Formula:
        nonlocal quantifiers
        tok = toks.peek()
        wrapped = tok.kind == "lpar"
        if wrapped:
            toks.next()
            tok = toks.peek()
        if tok.kind == "word" and tok.text in ("Forall", "Exists"):
            toks.next()
            if tok.text == "Exists":
                raise UnsupportedFragmentError(
                    "existential quantifiers are not supported (universal fragment only)"
                )
            quantifiers += 1
            inner = parse_quantified()
            if wrapped:
                toks.expect("rpar", "')'")
            return inner
        if wrapped:
            body = parse_body_after_lpar()
            return body
        return parse_body()

    def parse_body() -> F.Formula:
        tok = toks.peek()
        if tok.kind == "lpar":
            toks.next()
            return parse_body_after_lpar()
        if tok.kind == "word" and tok.text in ("True", "true"):
            toks.next()
            return F.TRUE
        if tok.kind == "word" and tok.text in ("False", "false"):
            toks.next()
            return F.FALSE
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}", tok.pos)

    def parse_body_after_lpar() -> F.Formula:
        tok = head_name()
        name = tok.text
        if name == "AP":
            prop = toks.expect("string", "quoted proposition name").text[1:-1]
            idx = int(toks.expect("number", "trace index").text)
            toks.expect("rpar", "')'")
            return F.Atom(prop, str(idx))
        if name in _SEXPR_HEADS:
            cls = _SEXPR_HEADS[name]
            args = [parse_body() for _ in range(1 if issubclass(cls, F.UNARY) else 2)]
            toks.expect("rpar", "')'")
            return F.Not(cls(*args)) if name == "Neq" else cls(*args)
        if name in ("Forall", "Exists"):
            raise ParseError("quantifiers are only allowed as the formula prefix", tok.pos)
        raise ParseError(f"unknown operator {name!r}", tok.pos)

    body = parse_quantified()
    toks.expect("end", "end of formula")
    if quantifiers == 0:
        raise UnsupportedFragmentError("formula must start with a universal quantifier prefix")
    variables = tuple(str(i) for i in range(quantifiers))
    bad = [a for a in F.atoms(body) if a.var not in variables]
    if bad:
        raise ParseError(
            f"atom index {bad[0].var} exceeds the {quantifiers} quantifier(s)", 0
        )
    return F.HyperFormula(variables, body)


def detect_syntax(text: str) -> str:
    stripped = text.lstrip()
    if stripped.startswith(("Forall", "Exists", "(")):
        return "sexpr"
    return "infix"


def parse_hyperltl(text: str) -> F.HyperFormula:
    """Parse a quantified formula in the syntax `detect_syntax` finds.

    Only that syntax can parse the text: an infix formula starts with
    ``forall``, an s-expression with ``Forall``, ``Exists`` or ``(``.
    """
    if detect_syntax(text) == "sexpr":
        return _parse_sexpr(text)
    return _parse_infix(text)
