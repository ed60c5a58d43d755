"""Lexer and recursive-descent parser for the ASCII formula grammar.

::

    formula  := equiv
    equiv    := imp (('==' | '<->') imp)?          non-associative
    imp      := disj ('->' imp)?                   right-associative
    disj     := conj ('\\/' conj)*
    conj     := strong ('/\\' strong)*
    strong   := unary ('&' unary)*
    unary    := '~' unary | atom
    atom     := '#' RATIONAL | '(' formula ')' | PROPIDENT
              | term ':' grade? unary
    grade    := '{>=' RATIONAL '}' | '{<=' RATIONAL '}' | '{==' RATIONAL '}'
    term     := app ('+' app)*
    app      := tatom ('.' tatom)*
    tatom    := IDENT | '(' term ')'
    RATIONAL := INT | INT '/' INT

Graded truth constants other than ``#0`` and ``#1`` are only accepted
when the logic has rational constants in its language (base RPL).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from fjl.syntax import (
    App, BiImpl, Equiv, Formula, GradedAtLeast, GradedAtMost, GradedExact,
    Implies, Justified, Neg, Prop, StrongConj, Sum, Term, TruthConst,
    WeakConj, WeakDisj, term_atom,
)


class ParseError(ValueError):
    """Syntax error with a character position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position


class LexicalError(ParseError):
    pass


class ConstantRangeError(ParseError):
    """A truth constant outside [0, 1]."""


class ConstantNotAllowedError(ParseError):
    """A graded truth constant in a logic without rational constants."""


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


_SYMBOLS = (
    "{>=", "{<=", "{==", "<->", "->", "/\\", "\\/", "==",
    "#", "&", "~", ":", "(", ")", ".", "+", "/", "}",
)


def tokenize(text: str) -> list[Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(Token(sym, sym, i))
                i += len(sym)
                break
        else:
            if ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                tokens.append(Token("INT", text[i:j], i))
                i = j
            elif ch.isalpha() or ch == "_":
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tokens.append(Token("IDENT", text[i:j], i))
                i = j
            else:
                raise LexicalError(f"unexpected character {ch!r}", i)
    tokens.append(Token("EOF", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, config=None):
        self.tokens = tokenize(text)
        self.i = 0
        self.config = config

    # -- token plumbing ----------------------------------------------------
    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text or 'end of input'!r}", tok.pos)
        return self.next()

    # -- rationals ---------------------------------------------------------
    def rational(self) -> Fraction:
        num = self.expect("INT")
        if self.peek().kind == "/":
            self.next()
            den = self.expect("INT")
            if int(den.text) == 0:
                raise ParseError("zero denominator", den.pos)
            return Fraction(int(num.text), int(den.text))
        return Fraction(int(num.text))

    def constant(self, value: Fraction, pos: int) -> Fraction:
        if value < 0 or value > 1:
            raise ConstantRangeError(f"truth constant {value} outside [0, 1]", pos)
        if value not in (Fraction(0), Fraction(1)):
            if self.config is not None and not self.config.has_truth_constants:
                raise ConstantNotAllowedError(
                    f"graded truth constant #{value} needs rational constants in the language", pos)
        return value

    # -- terms ---------------------------------------------------------------
    def term(self) -> Term:
        left = self.app_term()
        while self.peek().kind == "+":
            self.next()
            left = Sum(left, self.app_term())
        return left

    def app_term(self) -> Term:
        left = self.term_atom()
        while self.peek().kind == ".":
            self.next()
            left = App(left, self.term_atom())
        return left

    def term_atom(self) -> Term:
        tok = self.peek()
        if tok.kind == "IDENT":
            self.next()
            return term_atom(tok.text)
        if tok.kind == "(":
            self.next()
            t = self.term()
            self.expect(")")
            return t
        raise ParseError(f"expected a term, found {tok.text or 'end of input'!r}", tok.pos)

    # -- formulas ------------------------------------------------------------
    def formula(self) -> Formula:
        left = self.implication()
        tok = self.peek()
        if tok.kind in ("==", "<->"):
            self.next()
            right = self.implication()
            return Equiv(left, right) if tok.kind == "==" else BiImpl(left, right)
        return left

    def implication(self) -> Formula:
        left = self.disjunction()
        if self.peek().kind == "->":
            self.next()
            return Implies(left, self.implication())
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        while self.peek().kind == "\\/":
            self.next()
            left = WeakDisj(left, self.conjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.strong()
        while self.peek().kind == "/\\":
            self.next()
            left = WeakConj(left, self.strong())
        return left

    def strong(self) -> Formula:
        left = self.unary()
        while self.peek().kind == "&":
            self.next()
            left = StrongConj(left, self.unary())
        return left

    def unary(self) -> Formula:
        tok = self.peek()
        if tok.kind == "~":
            self.next()
            return Neg(self.unary())
        return self.atom()

    def atom(self) -> Formula:
        tok = self.peek()
        if tok.kind == "#":
            self.next()
            pos = self.peek().pos
            value = self.rational()
            return TruthConst(self.constant(value, pos))
        if tok.kind in ("IDENT", "("):
            term = self.try_justification_term()
            if term is not None:
                self.expect(":")
                return self.justification(term)
            if tok.kind == "(":
                self.next()
                f = self.formula()
                self.expect(")")
                return f
            self.next()
            return Prop(tok.text)
        raise ParseError(f"expected a formula, found {tok.text or 'end of input'!r}", tok.pos)

    def try_justification_term(self) -> Optional[Term]:
        """Parse a term only if it is followed by ':' (else rewind)."""
        saved = self.i
        try:
            t = self.term()
        except ParseError:
            self.i = saved
            return None
        if self.peek().kind == ":":
            return t
        self.i = saved
        return None

    def justification(self, term: Term) -> Formula:
        tok = self.peek()
        if tok.kind in ("{>=", "{<=", "{=="):
            self.next()
            pos = self.peek().pos
            grade = self.constant(self.rational(), pos)
            self.expect("}")
            body = self.unary()
            if tok.kind == "{>=":
                return GradedAtLeast(grade, term, body)
            if tok.kind == "{<=":
                return GradedAtMost(grade, term, body)
            return GradedExact(grade, term, body)
        return Justified(term, self.unary())


def parse_formula(text: str, config=None) -> Formula:
    """Parse ``text``; ``config`` gates graded truth constants (None allows them)."""
    p = _Parser(text, config)
    f = p.formula()
    tok = p.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
    return f


def parse_term(text: str) -> Term:
    p = _Parser(text)
    t = p.term()
    tok = p.peek()
    if tok.kind != "EOF":
        raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
    return t
