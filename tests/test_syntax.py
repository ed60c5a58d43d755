from fractions import Fraction

import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import formulas, terms
from fjl import syntax
from fjl.generate import random_formula
from fjl.logics import LogicConfig
from fjl.parser import parse_formula
from fjl.syntax import (
    App, BiImpl, Const, Equiv, FALSUM, GradedAtLeast, GradedAtMost, GradedExact,
    Implies, Justified, Neg, Prop, StrongConj, Sum, TruthConst, VERUM, Var,
    WeakConj, WeakDisj, expand_sugar, print_formula, print_term, subformulas,
    term_dag_size,
)

p, q = Prop("p"), Prop("q")
s, t = Var("s"), Var("t")


def test_parse_application_axiom_shape():
    f = parse_formula("s:(p -> q) -> (t:p -> s.t:q)")
    assert f == Implies(
        Justified(s, Implies(p, q)),
        Implies(Justified(t, p), Justified(App(s, t), q)))


def test_parse_falsum_implication():
    assert parse_formula("#0 -> p") == Implies(TruthConst(0), p)


def test_parse_graded_sugar_preserved():
    f = parse_formula("t:{>=2/3}p")
    assert f == GradedAtLeast(Fraction(2, 3), t, p)


def test_print_falsum_implication():
    assert print_formula(Implies(TruthConst(0), p)) == "#0 -> p"


def test_print_sum_justification_binds_tight():
    assert print_formula(Justified(Sum(s, t), p)) == "s+t:p"


def test_print_negated_justification():
    assert print_formula(Neg(Justified(t, TruthConst(0)))) == "~t:#0"


def test_expand_negation():
    assert expand_sugar(Neg(p)) == Implies(p, FALSUM)


def test_expand_graded_at_least():
    f = GradedAtLeast(Fraction(2, 3), t, p)
    assert expand_sugar(f) == Implies(TruthConst(Fraction(2, 3)), Justified(t, p))


def test_expand_graded_exact_through_weak_conjunction():
    # hand expansion: (#1 -> t:p) /\ (t:p -> #1), with X /\ Y as X & (X -> Y)
    f = GradedExact(Fraction(1), t, p)
    x = Implies(VERUM, Justified(t, p))
    y = Implies(Justified(t, p), VERUM)
    assert expand_sugar(f) == StrongConj(x, Implies(x, y))


def test_expand_weak_conjunction():
    assert expand_sugar(WeakConj(p, q)) == StrongConj(p, Implies(p, q))


def test_truth_values_outside_unit_interval_rejected():
    with pytest.raises(ValueError):
        TruthConst(Fraction(3, 2))
    with pytest.raises(ValueError):
        GradedAtLeast(Fraction(-1, 2), t, p)


def test_term_printing_groups_sums_under_application():
    assert print_term(App(Sum(Var("x1"), Var("x2")), t)) == "(x1+x2).t"
    assert print_term(Sum(App(Var("x1"), Var("x2")), t)) == "x1.x2+t"


def test_term_dag_size_counts_shared_subterms_once():
    u = App(s, t)
    assert term_dag_size(App(u, u)) == 4


@given(formulas)
def test_roundtrip(f):
    assert parse_formula(print_formula(f)) == f


@given(terms)
def test_term_roundtrip(u):
    from fjl.parser import parse_term
    assert parse_term(print_term(u)) == u


@given(formulas)
def test_expand_idempotent(f):
    g = expand_sugar(f)
    assert expand_sugar(g) == g


@given(formulas)
def test_expand_is_primitive(f):
    primitive = (Prop, TruthConst, StrongConj, Implies, Justified)
    assert all(isinstance(g, primitive) for g in subformulas(expand_sugar(f)))


def _naive_expansion(f):
    """The expansion of ``f`` by structural recursion, node by node."""
    cls = type(f)
    if cls in (Prop, TruthConst):
        return f
    if cls is Neg:
        return Implies(_naive_expansion(f.body), FALSUM)
    if cls in (Justified, GradedAtLeast, GradedAtMost, GradedExact):
        body = Justified(f.term, _naive_expansion(f.body))
        if cls is Justified:
            return body
        grade = TruthConst(f.grade)
        return {GradedAtLeast: Implies(grade, body), GradedAtMost: Implies(body, grade),
                GradedExact: _naive_wedge(Implies(grade, body), Implies(body, grade))}[cls]
    a, b = _naive_expansion(f.left), _naive_expansion(f.right)
    return {StrongConj: lambda: StrongConj(a, b), Implies: lambda: Implies(a, b),
            WeakConj: lambda: _naive_wedge(a, b),
            WeakDisj: lambda: _naive_wedge(Implies(Implies(a, b), b), Implies(Implies(b, a), a)),
            Equiv: lambda: StrongConj(Implies(a, b), Implies(b, a)),
            BiImpl: lambda: _naive_wedge(Implies(a, b), Implies(b, a))}[cls]()


def _naive_wedge(a, b):
    return StrongConj(a, Implies(a, b))


_LOGICS = [LogicConfig.from_name(name) for name in ("BLJ", "RPLJ", "J")]
generated_formulas = st.builds(
    lambda config, seed, depth: random_formula(random.Random(seed), config, depth),
    st.sampled_from(_LOGICS), st.integers(0, 10**6), st.integers(0, 4))


@given(formulas | generated_formulas)
def test_expansion_agrees_with_a_naive_recursion(f):
    """Built directly, by the generator, or by the parser from the text."""
    expected = _naive_expansion(f)
    assert expand_sugar(f) is expected
    assert expand_sugar(parse_formula(print_formula(f))) is expected


_FRESH = itertools.count()


def test_primitive_formulas_are_built_expanded(monkeypatch):
    """No expansion walk for a primitive formula over atoms never seen
    before, built bottom-up or parsed; a sugared operand is still walked."""
    walks = []
    walk = syntax._postorder
    monkeypatch.setattr(syntax, "_postorder", lambda *args: walks.append(1) or walk(*args))
    a, b = (Prop(f"fresh_{next(_FRESH)}") for _ in range(2))
    f = Justified(App(Var("x"), Const("c")), Implies(StrongConj(a, TruthConst(0.5)), b))
    assert expand_sugar(f) is f
    g = parse_formula(f"fresh_{next(_FRESH)} & #1/3 -> x:fresh_{next(_FRESH)}")
    assert expand_sugar(g) is g
    assert walks == []
    h = Implies(Neg(a), b)
    assert expand_sugar(h) is Implies(Implies(a, FALSUM), b) and walks == [1]
