"""Regular-expression lexer and backtrack-free parser for the ASCII formula grammar.

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

One compiled regular expression, symbols longest first, lexes the text
into a flat list of token texts.  The parser never backtracks: an
``IDENT`` not followed by ``.``, ``+`` or ``:`` is a proposition; else,
and at each ``(``, a term scan that records which groups are terms
tells whether a ``:`` follows.  Explicit stacks replace recursion, so
nesting depth is bounded by memory.  The parser calls the node
constructors of :mod:`fjl.syntax`, which intern every node, so equal
subformulas are one object, within one text and across texts.

The calls of one ``formula_reader`` share a group table (a packrat memo,
Ford 2002) and a text table; ``parse_formula`` uses neither.  Before a
text with a ``(`` is parsed, one pass over its tokens gives each matched
``(`` a *group id*, interned from the tuple of the group's top-level
tokens with each inner group replaced by its id, so equal groups of any
of the reader's texts share one id and the table holds O(tokens)
references.  When a parenthesised formula closes, its node is stored
under its id with its length in tokens.  At a ``(`` whose id is stored,
the parser takes the node and jumps past the ``)`` unless the token
after the ``)`` is one of ``:``, ``.`` and ``+``: then the group may
start a term, as in ``(p):q`` or ``(x).y:p``.

The text table serves the lines of a derivation file, which repeat each
other by construction.  It maps each text the reader has parsed to its
node and, when that node is an implication, the text of its consequent
(what follows the top-level ``->``) to the consequent's node.  A text
served from the table adds its own consequent, so chains of modus
ponens steps hit.  A text in the table is not lexed.  Before a new text
is lexed, each group ``(T)`` whose ``T`` is in the table becomes a
*hole*: one token that stands for ``T``'s node.  ``T`` is found by its
first ``_KEY`` characters among at most ``_CANDIDATES`` known texts and
checked with ``startswith``.  A group that may belong to a term is left
as it is: ``:``, ``.`` or ``+`` follows its ``)``, or ``.`` or ``+``
precedes its ``(``.  The parser records the top-level ``->`` tokens as
it shifts them; the consequent's offset comes from those.

Neither table changes a result: each text gives the node, or the error
class and position, a fresh parse gives.  Equal text under one config
gives an equal parse.  A top-level ``Implies`` has no top-level ``==``
or ``<->``, so its right-associative consequent runs from the first
top-level ``->`` to the end and parses alone to the same node.  A ``T``
that parsed is balanced, so ``(T)`` is exactly one group, whose node is
``T``'s.  A hole is never a term: where the group belonged to a term,
a ``:``, ``.`` or ``+`` is left after a formula and the parse fails.  A
collapsed text that fails is parsed again whole, for the error a fresh
parse gives.  ``$`` is a lexical error in an input, and a text holding
one is parsed whole, so no input can write a hole.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .syntax import (
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

    def within(self, where: str) -> ParseError:
        """This error, of the same class and position, with ``where`` (such
        as ``line 3``) before its message."""
        return type(self)(f"{where}: {self.message}", self.position)


class LexicalError(ParseError):
    pass


class ConstantRangeError(ParseError):
    """A truth constant outside [0, 1]."""


class ConstantNotAllowedError(ParseError):
    """A graded truth constant in a logic without rational constants."""


_SYMBOL = r"\{>=|\{<=|\{==|<->|->|/\\|\\/|==|[#&~:().+/}]"
#: A symbol, a run of the decimal digits ``int`` reads, or a word.
_TOKEN = re.compile(_SYMBOL + r"|\d+|\w+")
_LEXED = re.compile(rf"(?:\s+|{_SYMBOL}|\d+|\w+)*")
#: A hole is a number between two ``$``, one token that stands for a
#: known text's node in a collapsed text.  ``$`` is a lexical error in an
#: input, and off ``_lex``'s fast path (a tab, a non-ASCII character) in
#: a collapsed text too, which is then parsed whole.
_HOLE = "$"
_HOLED_TOKEN = re.compile(r"\$\d+\$|" + _TOKEN.pattern)
EOF = ""

#: Precedence, loosest first, and class of each binary connective.
_BINARY = {"==": (1, Equiv), "<->": (1, BiImpl), "->": (2, Implies),
           "\\/": (3, WeakDisj), "/\\": (4, WeakConj), "&": (5, StrongConj)}
_GRADES = {"{>=": GradedAtLeast, "{<=": GradedAtMost, "{==": GradedExact}

# Formula stack frames: (_BOTTOM,), (_GROUP, "(" index), (_PREFIX, class,
# args) and (_BIN, precedence, class, left).
_BOTTOM, _GROUP, _PREFIX, _BIN = range(4)
_PARENS = frozenset("()")
#: Tokens after a group's ")", or before its "(", that may make the
#: group part of a term.
_TERM_FOLLOW = frozenset(":.+")
_TERM_PRECEDE = frozenset(".+")
#: Known texts are indexed by their first ``_KEY`` characters; each "("
#: tries the latest ``_CANDIDATES`` known texts with its next ones.
_KEY = 6
_CANDIDATES = 4


def _lex(text: str, token: re.Pattern) -> list[str]:
    """The texts of the ``token`` matches that make up ``text``, then
    ``EOF``.  A word starts with a letter or ``_`` and goes on with
    letters, digits and ``_``."""
    tokens = token.findall(text)
    # Fast path: ASCII, and every character lies in a token or is a space.
    if not (text.isascii() and sum(map(len, tokens)) + text.count(" ") == len(text)):
        end = _LEXED.match(text).end()
        if not text.isascii():
            # \w holds digits int() rejects, such as '²'; none may start a token.
            for m in token.finditer(text, 0, end):
                c = text[m.start()]
                if c.isalnum() and not (c.isalpha() or c.isdecimal()):
                    end = m.start()
                    break
        if end < len(text):
            raise LexicalError(f"unexpected character {text[end]!r}", end)
    tokens.append(EOF)
    return tokens


def _is_ident(tok: str) -> bool:
    return tok[:1].isalpha() or tok[:1] == "_"


def _group_ids(tokens: list, ids: dict) -> dict:
    """The group id of each matched "(" of ``tokens``, keyed by its index.
    ``ids`` interns a group's id from the tuple of its top-level tokens,
    each inner group replaced by its id, so equal groups get one id."""
    gids = {}
    out, opened, prev = [], [], 0
    for k in [k for k, tok in enumerate(tokens) if tok in _PARENS]:
        if opened:
            out += tokens[prev:k]
        prev = k + 1
        if tokens[k] == "(":
            opened.append((k, len(out)))
        elif opened:
            i, start = opened.pop()
            key = tuple(out[start:])
            del out[start:]
            gids[i] = gid = ids.setdefault(key, len(ids))
            out.append(gid)
    return gids


class _Parser:
    def __init__(self, text: str, config, holes: dict = None):
        """``holes`` maps each hole token ``text`` may hold to its node."""
        self.text, self.config, self.holes = text, config, holes
        self.tokens = _lex(text, _TOKEN if holes is None else _HOLED_TOKEN)
        #: "(" index -> (its term, index after the term), or (None, "(" index).
        self.groups: dict = {}
        #: Once parsed to an implication, the indices of its top-level "->"s.
        self.arrows: list = []

    def error(self, message: str, i: int, cls=ParseError) -> ParseError:
        """``cls`` at the position of token ``i``."""
        positions = [m.start() for m in _TOKEN.finditer(self.text)] + [len(self.text)]
        return cls(message, positions[i])

    def expected(self, what: str, i: int) -> ParseError:
        return self.error(f"expected {what}, found {self.tokens[i] or 'end of input'!r}", i)

    def constant(self, i: int) -> tuple:
        """The truth constant at token ``i``, the int 0 or 1 or a Fraction
        strictly between, and the index after it."""
        tokens = self.tokens
        after = i + 3 if tokens[i + 1:i + 2] == ["/"] else i + 1
        ints = []
        for k in range(i, after, 2):
            if not tokens[k][:1].isdecimal():
                raise self.expected("'INT'", k)
            try:
                ints.append(int(tokens[k]))
            except ValueError:      # more digits than int() reads
                raise self.error("integer literal too long", k) from None
        num, den = ints if len(ints) == 2 else (ints[0], 1)
        if den == 0:
            raise self.error("zero denominator", after - 1)
        if num > den:
            raise self.error(f"truth constant {Fraction(num, den)} outside [0, 1]", i,
                             ConstantRangeError)
        if num == 0 or num == den:
            return num // den, after
        value = Fraction(num, den)
        if self.config is not None and not self.config.has_truth_constants:
            raise self.error(f"graded truth constant #{value} needs rational constants "
                             "in the language", i, ConstantNotAllowedError)
        return value, after

    def term(self, i: int):
        """The term at token ``i`` and the index after it, or None and what
        was expected and the index where the scan stopped."""
        tokens, groups = self.tokens, self.groups
        stack, operand = [], True   # "(" indices of open groups, (precedence, class, left)
        while True:
            tok = tokens[i]
            if operand:
                if tok == "(" and i not in groups:
                    stack.append(i)
                    i += 1
                    continue
                t, i = (groups[i] if tok == "(" else (None, i) if not _is_ident(tok)
                        else (term_atom(tok), i + 1))
                if t is None:
                    error = "a term"
                    break
                operand = False
                continue
            prec = 2 if tok == "." else 1 if tok == "+" else 0
            while stack and stack[-1].__class__ is tuple and stack[-1][0] >= prec:
                _, cls, left = stack.pop()
                t = cls(left, t)
            if prec:
                stack.append((prec, App if prec == 2 else Sum, t))
                operand = True
            elif not stack:
                return t, i
            elif tok == ")":
                groups[stack.pop()] = (t, i + 1)
            else:
                error = "')'"
                break
            i += 1
        groups.update((g, (None, g)) for g in stack if g.__class__ is int)
        return None, (error, i)

    def formula(self, ids: dict, memo: dict) -> Formula:
        """The formula that makes up the whole input.  ``ids`` and ``memo``
        are the group table: group ids, and group id -> (its formula, its
        length in tokens)."""
        tokens, arrows = self.tokens, self.arrows
        gids = _group_ids(tokens, ids) if "(" in self.text else {}
        stack, frame, i = [(_BOTTOM,)], None, 0
        while True:
            if frame is not None:   # opened by token i
                stack.append(frame)
                i += 1
            tok, frame = tokens[i], None
            if tok == "~":
                frame = (_PREFIX, Neg, ())
                continue
            if tok == "#":
                value, i = self.constant(i + 1)
                f = TruthConst(value)
            elif (tok == "(" and (known := memo.get(gids.get(i))) is not None
                  and tokens[i + known[1]] not in _TERM_FOLLOW):
                f, i = known[0], i + known[1]
            elif tok == "(" or _is_ident(tok):
                if tok == "(" or tokens[i + 1] == "." or tokens[i + 1] == "+":
                    term, after = self.term(i)
                else:
                    term, after = tok, i + 1
                if term is not None and tokens[after] == ":":
                    if term is tok:
                        term = term_atom(tok)
                    cls, i = _GRADES.get(tokens[after + 1], Justified), after
                    if cls is Justified:
                        frame = (_PREFIX, cls, (term,))
                    else:
                        grade, i = self.constant(after + 2)
                        if tokens[i] != "}":
                            raise self.expected("'}'", i)
                        frame = (_PREFIX, cls, (grade, term))
                    continue
                if tok == "(":
                    frame = (_GROUP, i)
                    continue
                f, i = Prop(tok), i + 1
            elif tok[:1] == _HOLE:
                f, i = self.holes[tok], i + 1
            else:
                raise self.expected("a formula", i)
            # ``f`` is complete: apply prefixes, take a connective or close a group.
            while frame is None:
                while stack[-1][0] == _PREFIX:
                    _, cls, args = stack.pop()
                    f = cls(*args, f)
                op = _BINARY.get(tokens[i])
                prec = op[0] if op else 0
                # Tighter connectives close first; '->' is right-associative.
                while stack[-1][0] == _BIN and (stack[-1][1] > prec or stack[-1][1] == prec != 2):
                    if stack[-1][1] == prec == 1:
                        op, prec = None, 0      # '==' and '<->' do not chain
                    _, _, cls, left = stack.pop()
                    f = cls(left, f)
                if op is not None:
                    # Outside every group, and with no "==" or "<->" before, the
                    # stack holds the bottom and the earlier such "->"s.
                    if prec == 2 and len(stack) == len(arrows) + 1:
                        arrows.append(i)
                    frame = (_BIN, prec, op[1], f)
                    continue
                group = stack.pop()
                if group[0] == _BOTTOM:
                    if tokens[i] != EOF:
                        raise self.error(f"unexpected trailing input {tokens[i]!r}", i)
                    return f
                if tokens[i] != ")":
                    raise self.expected("')'", i)
                start = group[1]
                memo[gids[start]] = (f, i + 1 - start)
                i += 1

    def arrow_offsets(self) -> list:
        """The character offsets of the tokens ``self.arrows`` indexes.
        Each "->" and "<->" token holds one "->" of the text, in order."""
        tokens, text = self.tokens, self.text
        offsets, at, done = [], -1, 0
        for a in self.arrows:
            before = tokens[done:a + 1]
            for _ in range(before.count("->") + before.count("<->")):
                at = text.find("->", at + 1)
            offsets.append(at)
            done = a + 1
        return offsets


def _in_term(text: str, open_: int, close: int) -> bool:
    """Whether the group from ``text[open_]`` to ``text[close]`` may be
    part of a term: the next non-space character after it is one of
    ``:.+``, or the last one before it is ``.`` or ``+``."""
    k = close + 1
    while text[k:k + 1].isspace():
        k += 1
    if text[k:k + 1] in _TERM_FOLLOW:
        return True
    k = open_ - 1
    while k >= 0 and text[k].isspace():
        k -= 1
    return k >= 0 and text[k] in _TERM_PRECEDE


class _Reader:
    """What ``formula_reader`` returns.  Beside the group table it keeps a
    text table: each known text's entry is ``(node, line, arrows, k)``,
    where ``arrows`` are the offsets of the top-level "->"s of the
    ``line`` read, and the text is ``line`` itself (``k == 0``) or what
    follows its ``k``-th top-level "->"."""

    def __init__(self, config):
        self.config = config
        self.ids: dict = {}
        self.memo: dict = {}
        self.known: dict = {}
        #: First ``_KEY`` characters -> the latest known (text, hole) pairs.
        self.starts: dict = {}
        #: Hole token -> the node of the known text it stands for.
        self.holes: dict = {}

    def __call__(self, text: str) -> Formula:
        entry = self.known.get(text)
        if entry is None:
            entry = self._parse(text)
            self._know(text, entry)
        node, line, arrows, k = entry
        if k < len(arrows):     # node is an implication: know its consequent
            consequent = line[arrows[k] + 2:].strip()
            if consequent not in self.known:
                self._know(consequent, (node.right, line, arrows, k + 1))
        return node

    def _know(self, text: str, entry: tuple) -> None:
        self.known[text] = entry
        if len(text) >= _KEY:
            hole = f"{_HOLE}{len(self.holes)}{_HOLE}"
            self.holes[hole] = entry[0]
            latest = self.starts.setdefault(text[:_KEY], [])
            latest.append((text, hole))
            if len(latest) > _CANDIDATES:
                del latest[0]

    def _parse(self, text: str) -> tuple:
        """The entry of ``text``, read through its collapsed text when that
        parses, else whole, for the error a fresh parse gives."""
        p = None
        if "(" in text and _HOLE not in text:
            ctext, shifts = self._collapse(text)
            if shifts:
                try:
                    p = _Parser(ctext, self.config, self.holes)
                    node = p.formula(self.ids, self.memo)
                except ParseError:
                    p = None
        if p is None:
            p, shifts = _Parser(text, self.config), []
            node = p.formula(self.ids, self.memo)
        arrows = _unshift(p.arrow_offsets(), shifts) if node.__class__ is Implies else []
        return node, text, arrows, 0

    def _collapse(self, text: str) -> tuple:
        """``text`` with each group ``(T)`` whose ``T`` is known and that
        is not next to a term replaced by ``T``'s hole, and per hole the
        length of the result up to its end and how much shorter the
        result is than ``text`` up to there."""
        pieces, shifts, done, length = [], [], 0, 0
        j = text.find("(")
        while j >= 0:
            start = j + 1
            for t, hole in self.starts.get(text[start:start + _KEY], ()):
                close = start + len(t)
                if (text.startswith(")", close) and text.startswith(t, start)
                        and not _in_term(text, j, close)):
                    pieces += (text[done:j], hole)
                    length += j - done + len(hole)
                    done = start = close + 1
                    shifts.append((length, done - length))
                    break
            j = text.find("(", start)
        pieces.append(text[done:])
        return "".join(pieces), shifts


def _unshift(offsets: list, shifts: list) -> list:
    """``offsets`` in a collapsed text as offsets in the text it came from."""
    out, k, delta = [], 0, 0
    for at in offsets:
        while k < len(shifts) and shifts[k][0] <= at:
            delta = shifts[k][1]
            k += 1
        out.append(at + delta)
    return out


def formula_reader(config=None):
    """A function that parses one text as ``parse_formula(text, config)``
    does, with a group table and a text table shared by its calls.  The
    tables live as long as the function: make one per file."""
    return _Reader(config)


def parse_formula(text: str, config=None) -> Formula:
    """Parse ``text``; ``config`` gates graded truth constants (None allows
    them)."""
    return _Parser(text, config).formula({}, {})


def parse_term(text: str) -> Term:
    p = _Parser(text, None)
    t, i = p.term(0)
    if t is None:
        raise p.expected(*i)
    if p.tokens[i] != EOF:
        raise p.error(f"unexpected trailing input {p.tokens[i]!r}", i)
    return t
