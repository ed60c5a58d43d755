"""Term and formula syntax for fuzzy justification logics.

Justification terms are built from variables and constants with
application ``.`` and sum ``+``.  Formulas combine propositions,
rational truth constants ``#r``, strong conjunction ``&``, implication
``->`` and justification assertions ``t:A``.  Negation, the weak
connectives, both equivalences and the graded assertion forms
``t:{>=r}A`` / ``t:{<=r}A`` / ``t:{==r}A`` are definitional sugar that
:func:`expand_sugar` rewrites into the five primitive constructors.

All nodes are immutable and hashable; truth values are exact
``fractions.Fraction`` instances restricted to [0, 1].
"""

from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Union

ZERO = Fraction(0)
ONE = Fraction(1)

_RATIONAL_RE = re.compile(r"^\d+(/\d+)?$")


def as_unit(value) -> Fraction:
    """Coerce ``value`` to a Fraction and require it to lie in [0, 1]."""
    q = Fraction(value)
    if q < ZERO or q > ONE:
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
# Justification terms

@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return print_term(self)


@dataclass(frozen=True)
class Const:
    name: str

    def __str__(self) -> str:
        return print_term(self)


@dataclass(frozen=True)
class App:
    left: "Term"
    right: "Term"

    def __str__(self) -> str:
        return print_term(self)


@dataclass(frozen=True)
class Sum:
    left: "Term"
    right: "Term"

    def __str__(self) -> str:
        return print_term(self)


Term = Union[Var, Const, App, Sum]

#: Identifiers with this prefix denote justification constants, every
#: other identifier in term position is a justification variable.
CONSTANT_PREFIX = "c"


def term_atom(name: str) -> Term:
    return Const(name) if name.startswith(CONSTANT_PREFIX) else Var(name)


# ---------------------------------------------------------------------------
# Formulas

@dataclass(frozen=True)
class Prop:
    name: str

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class TruthConst:
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", as_unit(self.value))

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class StrongConj:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class Justified:
    term: Term
    body: "Formula"

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class Neg:
    body: "Formula"

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class WeakConj:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class WeakDisj:
    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class Equiv:
    """Strong equivalence, definable as (A -> B) & (B -> A)."""

    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class BiImpl:
    """Weak equivalence, definable as (A -> B) /\\ (B -> A)."""

    left: "Formula"
    right: "Formula"

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class GradedAtLeast:
    """``t:{>=r}A``, sugar for ``#r -> t:A``."""

    grade: Fraction
    term: Term
    body: "Formula"

    def __post_init__(self):
        object.__setattr__(self, "grade", as_unit(self.grade))

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class GradedAtMost:
    """``t:{<=r}A``, sugar for ``t:A -> #r``."""

    grade: Fraction
    term: Term
    body: "Formula"

    def __post_init__(self):
        object.__setattr__(self, "grade", as_unit(self.grade))

    def __str__(self) -> str:
        return print_formula(self)


@dataclass(frozen=True)
class GradedExact:
    """``t:{==r}A``, sugar for ``(t:{>=r}A) /\\ (t:{<=r}A)``."""

    grade: Fraction
    term: Term
    body: "Formula"

    def __post_init__(self):
        object.__setattr__(self, "grade", as_unit(self.grade))

    def __str__(self) -> str:
        return print_formula(self)


Formula = Union[
    Prop, TruthConst, StrongConj, Implies, Justified,
    Neg, WeakConj, WeakDisj, Equiv, BiImpl,
    GradedAtLeast, GradedAtMost, GradedExact,
]

_PRIMITIVE = (Prop, TruthConst, StrongConj, Implies, Justified)
_GRADED = (GradedAtLeast, GradedAtMost, GradedExact)


def _install_cached_hash(cls):
    """Deep trees are hashed once; shared subtrees keep the work linear."""
    names = tuple(f.name for f in dataclasses.fields(cls))
    marker = cls.__name__

    def __hash__(self):
        value = self.__dict__.get("_hash")
        if value is None:
            value = hash((marker,) + tuple(getattr(self, n) for n in names))
            object.__setattr__(self, "_hash", value)
        return value

    cls.__hash__ = __hash__


for _node in (Var, Const, App, Sum, Prop, TruthConst, StrongConj, Implies,
              Justified, Neg, WeakConj, WeakDisj, Equiv, BiImpl,
              GradedAtLeast, GradedAtMost, GradedExact):
    _install_cached_hash(_node)

FALSUM = TruthConst(ZERO)
VERUM = TruthConst(ONE)


def neg(f: Formula) -> Formula:
    """Primitive form of negation, A -> #0."""
    return Implies(f, FALSUM)


@lru_cache(maxsize=None)
def expand_sugar(f: Formula) -> Formula:
    """Rewrite every defined connective into the primitive constructors.

    The result contains only Prop, TruthConst, StrongConj, Implies and
    Justified nodes and the function is idempotent.
    """
    if isinstance(f, (Prop, TruthConst)):
        return f
    if isinstance(f, StrongConj):
        return StrongConj(expand_sugar(f.left), expand_sugar(f.right))
    if isinstance(f, Implies):
        return Implies(expand_sugar(f.left), expand_sugar(f.right))
    if isinstance(f, Justified):
        return Justified(f.term, expand_sugar(f.body))
    if isinstance(f, Neg):
        return Implies(expand_sugar(f.body), FALSUM)
    if isinstance(f, WeakConj):
        a, b = expand_sugar(f.left), expand_sugar(f.right)
        return StrongConj(a, Implies(a, b))
    if isinstance(f, WeakDisj):
        a, b = expand_sugar(f.left), expand_sugar(f.right)
        u = Implies(Implies(a, b), b)
        v = Implies(Implies(b, a), a)
        return StrongConj(u, Implies(u, v))
    if isinstance(f, Equiv):
        a, b = expand_sugar(f.left), expand_sugar(f.right)
        return StrongConj(Implies(a, b), Implies(b, a))
    if isinstance(f, BiImpl):
        a, b = expand_sugar(f.left), expand_sugar(f.right)
        x, y = Implies(a, b), Implies(b, a)
        return StrongConj(x, Implies(x, y))
    if isinstance(f, GradedAtLeast):
        return Implies(TruthConst(f.grade), Justified(f.term, expand_sugar(f.body)))
    if isinstance(f, GradedAtMost):
        return Implies(Justified(f.term, expand_sugar(f.body)), TruthConst(f.grade))
    if isinstance(f, GradedExact):
        j = Justified(f.term, expand_sugar(f.body))
        x = Implies(TruthConst(f.grade), j)
        y = Implies(j, TruthConst(f.grade))
        return StrongConj(x, Implies(x, y))
    raise TypeError(f"not a formula: {f!r}")


def is_primitive(f: Formula) -> bool:
    if isinstance(f, (Prop, TruthConst)):
        return True
    if isinstance(f, (StrongConj, Implies)):
        return is_primitive(f.left) and is_primitive(f.right)
    if isinstance(f, Justified):
        return is_primitive(f.body)
    return False


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

_TERM_LEVEL = {Sum: 1, App: 2, Var: 3, Const: 3}


def _pt(t: Term) -> str:
    if isinstance(t, (Var, Const)):
        return t.name
    level = _TERM_LEVEL[type(t)]
    sym = "+" if isinstance(t, Sum) else "."
    left = _pt(t.left)
    if _TERM_LEVEL[type(t.left)] < level:
        left = f"({left})"
    right = _pt(t.right)
    if _TERM_LEVEL[type(t.right)] <= level:
        right = f"({right})"
    return f"{left}{sym}{right}"


def print_term(t: Term) -> str:
    return _pt(t)


_EQUIV_LEVEL = 1
_IMPLIES_LEVEL = 2
_PREFIX_LEVEL = 6
_ATOM_LEVEL = 9

_FORMULA_LEVEL = {
    Equiv: _EQUIV_LEVEL, BiImpl: _EQUIV_LEVEL,
    Implies: _IMPLIES_LEVEL,
    WeakDisj: 3, WeakConj: 4, StrongConj: 5,
    Neg: _PREFIX_LEVEL,
    Justified: 7, GradedAtLeast: 7, GradedAtMost: 7, GradedExact: 7,
    Prop: _ATOM_LEVEL, TruthConst: _ATOM_LEVEL,
}

_BINARY_SYMBOL = {
    Equiv: "==", BiImpl: "<->", Implies: "->",
    WeakDisj: "\\/", WeakConj: "/\\", StrongConj: "&",
}


def _grade_mark(f: Formula) -> str:
    if isinstance(f, GradedAtLeast):
        return f"{{>={format_rational(f.grade)}}}"
    if isinstance(f, GradedAtMost):
        return f"{{<={format_rational(f.grade)}}}"
    return f"{{=={format_rational(f.grade)}}}"


def _pf(f: Formula) -> str:
    if isinstance(f, Prop):
        return f.name
    if isinstance(f, TruthConst):
        return f"#{format_rational(f.value)}"
    if isinstance(f, Neg):
        inner = _pf(f.body)
        if _FORMULA_LEVEL[type(f.body)] < _PREFIX_LEVEL:
            inner = f"({inner})"
        return f"~{inner}"
    if isinstance(f, Justified) or isinstance(f, _GRADED):
        body = f.body
        inner = _pf(body)
        if _FORMULA_LEVEL[type(body)] < _PREFIX_LEVEL:
            inner = f"({inner})"
        mark = "" if isinstance(f, Justified) else _grade_mark(f)
        return f"{_pt(f.term)}:{mark}{inner}"
    level = _FORMULA_LEVEL[type(f)]
    sym = _BINARY_SYMBOL[type(f)]
    lt, rt = _pf(f.left), _pf(f.right)
    ll, rl = _FORMULA_LEVEL[type(f.left)], _FORMULA_LEVEL[type(f.right)]
    if level == _EQUIV_LEVEL:
        need_left, need_right = ll <= level, rl <= level
    elif level == _IMPLIES_LEVEL:
        need_left, need_right = ll <= level, rl < level
    else:
        need_left, need_right = ll < level, rl <= level
    if need_left:
        lt = f"({lt})"
    if need_right:
        rt = f"({rt})"
    return f"{lt} {sym} {rt}"


def print_formula(f: Formula) -> str:
    """Render with minimal parenthesization; inverse of the parser."""
    return _pf(f)


# ---------------------------------------------------------------------------
# Structure walks

def subterms(t: Term) -> Iterator[Term]:
    yield t
    if isinstance(t, (App, Sum)):
        yield from subterms(t.left)
        yield from subterms(t.right)


def subformulas(f: Formula) -> Iterator[Formula]:
    yield f
    if isinstance(f, (StrongConj, Implies, WeakConj, WeakDisj, Equiv, BiImpl)):
        yield from subformulas(f.left)
        yield from subformulas(f.right)
    elif isinstance(f, (Justified, Neg) + _GRADED):
        yield from subformulas(f.body)


def justified_pairs(f: Formula) -> set:
    """All (term, body) pairs of justification assertions in the expansion of ``f``."""
    out = set()
    for g in subformulas(expand_sugar(f)):
        if isinstance(g, Justified):
            out.add((g.term, g.body))
    return out


def formula_props(f: Formula) -> set:
    return {g.name for g in subformulas(f) if isinstance(g, Prop)}


def term_dag_size(t: Term) -> int:
    """Number of distinct subterms; shared subterms are counted once."""
    return len(set(subterms(t)))
