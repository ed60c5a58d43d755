"""Term and formula syntax for fuzzy justification logics.

Justification terms are built from variables and constants with
application ``.`` and sum ``+``.  Formulas combine propositions,
rational truth constants ``#r``, strong conjunction ``&``, implication
``->`` and justification assertions ``t:A``.  Negation, the weak
connectives, both equivalences and the graded assertion forms
``t:{>=r}A`` / ``t:{<=r}A`` / ``t:{==r}A`` are definitional sugar that
:func:`expand_sugar` rewrites into the five primitive constructors.

Nodes are immutable and hash-consed (Filliatre & Conchon, "Type-Safe
Modular Hash-Consing", 2006): equal nodes are one object, so ``==`` is
``is`` and hashing is by identity.  A weak table holds each live node,
and a node keeps its own sugar expansion.  Expansion, printing,
``repr`` and the structure walks use explicit stacks, so depth is
bounded by memory, not by the recursion limit.  Truth values are exact
``fractions.Fraction`` instances restricted to [0, 1].
"""

from __future__ import annotations

import re
import threading
import weakref
from fractions import Fraction
from functools import partial
from operator import methodcaller
from typing import Iterable, Iterator, Sequence, Union

ZERO = Fraction(0)
ONE = Fraction(1)

_RATIONAL_RE = re.compile(r"^\d+(/\d+)?$")


def as_unit(value) -> Fraction:
    """Coerce ``value`` to a Fraction and require it to lie in [0, 1]."""
    q = value if type(value) is Fraction else Fraction(value)
    if not 0 <= q.numerator <= q.denominator:
        raise ValueError(f"truth value {q} outside [0, 1]")
    return q


def parse_rational(text: str) -> Fraction:
    """Parse a nonnegative ``p`` or ``p/q`` literal (lowest terms enforced by Fraction)."""
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"malformed rational literal {text!r}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational literal {text!r}") from None


def format_rational(q: Fraction) -> str:
    return str(q)


# ---------------------------------------------------------------------------
# The intern table.  Keys hold only classes, strings, ints and nodes (a
# rational as numerator and denominator), so comparing keys and dropping
# a dead node's entry run no Python code and cannot be interleaved.

_table: dict = {}
_lock = threading.Lock()
#: ``_table.get(key, _MISSING)()`` is the live node under ``key`` or None.
_MISSING = type(None)
#: The ``_expanded`` mark of a node that is its own sugar expansion.
_SELF = object()


def _new(cls, key: tuple, *values):
    """The node of ``cls`` with fields ``values``, made and filed under
    ``key`` unless another thread filed it first."""
    with _lock:
        node = _table.get(key, _MISSING)()
        if node is None:
            node = object.__new__(cls)
            for name, value in zip(cls._fields, values):
                object.__setattr__(node, name, value)
            _mark(node, _SELF if cls is Prop or cls is TruthConst else None)
            _table[key] = weakref.ref(node, partial(_table.pop, key))
    return node


class _Node:
    __slots__ = ("__weakref__", "_expanded")
    _fields: tuple = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} nodes are immutable")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        # Each node pushes its pieces, last first, in place of itself, so
        # the text is written once, left to right, at any depth.
        out, stack = [], [self]
        while stack:
            g = stack.pop()
            if g.__class__ is str:
                out.append(g)
                continue
            pieces = [")"]
            for name in reversed(g._fields):
                value = getattr(g, name)
                pieces += (value if isinstance(value, _Node) else repr(value), f"{name}=", ", ")
            pieces[-1] = f"{type(g).__name__}("
            stack += pieces
        return "".join(out)

    def __str__(self) -> str:
        return print_many((self,))[0]

    def _nodes(self) -> tuple:
        """The child nodes."""
        return ()

    def _operands(self) -> tuple:
        """The child nodes a formula walk enters: not the term of ``t:A``."""
        return ()


_mark = _Node._expanded.__set__


class _Named(_Node):
    __slots__ = ("name",)
    _fields = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        return _table.get(key, _MISSING)() or _new(cls, key, name)


class _Pair(_Node):
    __slots__ = ()

    def __new__(cls, left, right):
        key = (cls, left, right)
        return _table.get(key, _MISSING)() or _new(cls, key, left, right)


class _Binary(_Pair):
    __slots__ = ("left", "right")
    _fields = ("left", "right")

    def _nodes(self) -> tuple:
        return self.left, self.right

    _operands = _nodes


class _Assertion(_Node):
    """``t:A`` and its graded forms."""

    __slots__ = ()

    def _nodes(self) -> tuple:
        return self.term, self.body

    def _operands(self) -> tuple:
        return (self.body,)


# ---------------------------------------------------------------------------
# Justification terms

class Var(_Named):
    __slots__ = ()


class Const(_Named):
    __slots__ = ()


class App(_Binary):
    __slots__ = ()


class Sum(_Binary):
    __slots__ = ()


Term = Union[Var, Const, App, Sum]

#: Identifiers with this prefix denote justification constants, every
#: other identifier in term position is a justification variable.
CONSTANT_PREFIX = "c"


def term_atom(name: str) -> Term:
    return Const(name) if name.startswith(CONSTANT_PREFIX) else Var(name)


# ---------------------------------------------------------------------------
# Formulas

class Prop(_Named):
    __slots__ = ()


class TruthConst(_Node):
    __slots__ = ("value",)
    _fields = ("value",)

    def __new__(cls, value):
        try:
            key = (cls, value.numerator, value.denominator)
        except AttributeError:
            value = as_unit(value)
            key = (cls, value.numerator, value.denominator)
        return _table.get(key, _MISSING)() or _new(cls, key, as_unit(value))


class StrongConj(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Justified(_Pair, _Assertion):
    __slots__ = ("term", "body")
    _fields = ("term", "body")


class Neg(_Node):
    __slots__ = ("body",)
    _fields = ("body",)

    def __new__(cls, body):
        key = (cls, body)
        return _table.get(key, _MISSING)() or _new(cls, key, body)

    def _nodes(self) -> tuple:
        return (self.body,)

    _operands = _nodes


class WeakConj(_Binary):
    __slots__ = ()


class WeakDisj(_Binary):
    __slots__ = ()


class Equiv(_Binary):
    """Strong equivalence, definable as (A -> B) & (B -> A)."""

    __slots__ = ()


class BiImpl(_Binary):
    """Weak equivalence, definable as (A -> B) /\\ (B -> A)."""

    __slots__ = ()


class _Graded(_Assertion):
    __slots__ = ("grade", "term", "body")
    _fields = ("grade", "term", "body")

    def __new__(cls, grade, term, body):
        try:
            key = (cls, grade.numerator, grade.denominator, term, body)
        except AttributeError:
            grade = as_unit(grade)
            key = (cls, grade.numerator, grade.denominator, term, body)
        return _table.get(key, _MISSING)() or _new(cls, key, as_unit(grade), term, body)


class GradedAtLeast(_Graded):
    """``t:{>=r}A``, sugar for ``#r -> t:A``."""

    __slots__ = ()


class GradedAtMost(_Graded):
    """``t:{<=r}A``, sugar for ``t:A -> #r``."""

    __slots__ = ()


class GradedExact(_Graded):
    """``t:{==r}A``, sugar for ``(t:{>=r}A) /\\ (t:{<=r}A)``."""

    __slots__ = ()


Formula = Union[Prop, TruthConst, StrongConj, Implies, Justified, Neg, WeakConj,
                WeakDisj, Equiv, BiImpl, GradedAtLeast, GradedAtMost, GradedExact]

_PRIMITIVE = (Prop, TruthConst, StrongConj, Implies, Justified)

FALSUM = TruthConst(ZERO)
VERUM = TruthConst(ONE)


# ---------------------------------------------------------------------------
# Sugar expansion

def _wedge(a: Formula, b: Formula) -> Formula:     # a /\ b
    return StrongConj(a, Implies(a, b))


def _weak_equiv(a: Formula, b: Formula) -> Formula:    # a <-> b
    return _wedge(Implies(a, b), Implies(b, a))


#: The expansion of a node from the expansions of its operands.
_EXPAND = {
    StrongConj: lambda f, a, b: StrongConj(a, b),
    Implies: lambda f, a, b: Implies(a, b),
    Justified: lambda f, a: Justified(f.term, a),
    Neg: lambda f, a: Implies(a, FALSUM),
    WeakConj: lambda f, a, b: _wedge(a, b),
    WeakDisj: lambda f, a, b: _wedge(Implies(Implies(a, b), b), Implies(Implies(b, a), a)),
    Equiv: lambda f, a, b: StrongConj(Implies(a, b), Implies(b, a)),
    BiImpl: lambda f, a, b: _weak_equiv(a, b),
    GradedAtLeast: lambda f, a: Implies(TruthConst(f.grade), Justified(f.term, a)),
    GradedAtMost: lambda f, a: Implies(Justified(f.term, a), TruthConst(f.grade)),
    GradedExact: lambda f, a: _weak_equiv(TruthConst(f.grade), Justified(f.term, a)),
}


def expand_sugar(f: Formula) -> Formula:
    """Rewrite every defined connective into the primitive constructors.

    The result contains only Prop, TruthConst, StrongConj, Implies and
    Justified nodes and the function is idempotent.  A node keeps its
    expansion, so it is expanded once while it lives.
    """
    if f._expanded is None:
        for g in _postorder(f, _unexpanded, set()):
            rule = _EXPAND.get(type(g))
            if rule is None:
                raise TypeError(f"not a formula: {g!r}")
            x = rule(g, *(a if a._expanded is _SELF else a._expanded for a in g._operands()))
            _mark(g, _SELF if x is g else x)
            _mark(x, _SELF)
    e = f._expanded
    return f if e is _SELF else e


def _unexpanded(f: Formula) -> list:
    return [a for a in f._operands() if a._expanded is None]


def is_primitive(f: Formula) -> bool:
    return all(isinstance(g, _PRIMITIVE) for g in subformulas(f))


# ---------------------------------------------------------------------------
# Structure walks

_EXIT = object()


def _postorder(root, children, entered: set) -> list:
    """The distinct nodes reached from ``root`` through ``children`` and
    not in ``entered``, each after its children; ``entered`` gains them."""
    order, stack = [], [root]
    while stack:
        g = stack.pop()
        if g is _EXIT:
            order.append(stack.pop())
        elif g not in entered:
            entered.add(g)
            stack += (g, _EXIT)
            stack += children(g)
    return order


_NODES = methodcaller("_nodes")
_OPERANDS = methodcaller("_operands")


def subterms(t: Term) -> Iterator[Term]:
    """The distinct subterms of ``t``, ``t`` included."""
    return iter(_postorder(t, _NODES, set()))


def subformulas(f: Formula) -> Iterator[Formula]:
    """The distinct subformulas of ``f``, ``f`` included; terms are not entered."""
    return iter(_postorder(f, _OPERANDS, set()))


def subformulas_many(roots: Iterable[Formula]) -> list:
    """The distinct subformulas of all ``roots``, each after its operands:
    one walk with one ``entered`` set, as :func:`print_many` makes."""
    entered: set = set()
    order: list = []
    for root in roots:
        order += _postorder(root, _OPERANDS, entered)
    return order


def justified_pairs(f: Formula) -> set:
    """All (term, body) pairs of justification assertions in the expansion of ``f``."""
    return {(g.term, g.body) for g in subformulas(expand_sugar(f)) if isinstance(g, Justified)}


def formula_props(f: Formula) -> set:
    return {g.name for g in subformulas(f) if isinstance(g, Prop)}


def term_dag_size(t: Term) -> int:
    """Number of distinct subterms; shared subterms are counted once."""
    return sum(1 for _ in subterms(t))


# ---------------------------------------------------------------------------
# Printing.  Precedence, loosest first:
#   == / <->  (non-associative)
#   ->        (right-associative)
#   \/        (left-associative)
#   /\        (left-associative)
#   &         (left-associative)
#   ~         (prefix)
#   t:A       (the body is a prefix-level formula)
# and for terms: '+' below '.', both left-associative.

_PREFIX_LEVEL = 6

_LEVEL = {
    Sum: 1, App: 2, Var: 3, Const: 3,
    Equiv: 1, BiImpl: 1, Implies: 2,
    WeakDisj: 3, WeakConj: 4, StrongConj: 5,
    Neg: _PREFIX_LEVEL,
    Justified: 7, GradedAtLeast: 7, GradedAtMost: 7, GradedExact: 7,
    Prop: 9, TruthConst: 9,
}

_SYMBOL = {
    Sum: "+", App: ".",
    Equiv: " == ", BiImpl: " <-> ", Implies: " -> ",
    WeakDisj: " \\/ ", WeakConj: " /\\ ", StrongConj: " & ",
}

_GRADE_MARK = {GradedAtLeast: ">=", GradedAtMost: "<=", GradedExact: "=="}

#: An operand whose level is below the connective's plus this shift, (left,
#: right), is parenthesised.  Default (0, 1): left-associative.
_GROUPING = {Equiv: (1, 1), BiImpl: (1, 1), Implies: (1, 0)}


def _text(g, text: dict) -> str:
    """The text of node ``g`` given the texts of its children."""
    cls = type(g)
    if cls is Prop or cls is Var or cls is Const:
        return g.name
    if cls is TruthConst:
        return f"#{format_rational(g.value)}"
    level = _LEVEL[cls]
    if cls is Neg or isinstance(g, _Assertion):
        inner = text[g.body]
        if _LEVEL[type(g.body)] < _PREFIX_LEVEL:
            inner = f"({inner})"
        if cls is Neg:
            return f"~{inner}"
        mark = "" if cls is Justified else f"{{{_GRADE_MARK[cls]}{format_rational(g.grade)}}}"
        return f"{text[g.term]}:{mark}{inner}"
    left, right = text[g.left], text[g.right]
    left_shift, right_shift = _GROUPING.get(cls, (0, 1))
    if _LEVEL[type(g.left)] < level + left_shift:
        left = f"({left})"
    if _LEVEL[type(g.right)] < level + right_shift:
        right = f"({right})"
    return f"{left}{_SYMBOL[cls]}{right}"


def print_many(roots: Sequence) -> list:
    """The texts of the terms and formulas ``roots``, in order.

    One post-order walk with one ``entered`` set covers every root, so
    each distinct node is rendered once, after its children, however
    many roots share it.  A text is dropped after its last use, as a
    child or as a root.
    """
    entered: set = set()
    walks = [_postorder(root, _NODES, entered) for root in roots]
    uses: dict = {}
    for root, walk in zip(roots, walks):
        uses[root] = uses.get(root, 0) + 1
        for g in walk:
            for c in g._nodes():
                uses[c] = uses.get(c, 0) + 1
    text: dict = {}
    out = []
    for root, walk in zip(roots, walks):
        for g in walk:
            text[g] = _text(g, text)
            for c in g._nodes():
                uses[c] -= 1
                if not uses[c]:
                    del text[c]
        out.append(text[root])
        uses[root] -= 1
        if not uses[root]:
            del text[root]
    return out


def print_term(t: Term) -> str:
    return print_many((t,))[0]


def print_formula(f: Formula) -> str:
    """Render with minimal parenthesization; inverse of the parser."""
    return print_many((f,))[0]
