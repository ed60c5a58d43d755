"""Hash-consed nodes: identity, immutability, a bounded table, threads,
and walks that do not depend on the recursion limit."""

import copy
import pickle
import sys
import threading
from fractions import Fraction

import pytest

from fjl import syntax
from fjl.parser import parse_formula, parse_term
from fjl.syntax import (
    FALSUM, App, Const, GradedAtLeast, Implies, Justified, Neg, Prop, StrongConj,
    Sum, TruthConst, Var, WeakDisj, expand_sugar, print_formula, print_term,
    subformulas,
)

p, q, t = Prop("p"), Prop("q"), Var("t")
DEEP = 10_000


def test_equal_nodes_are_one_object():
    assert Implies(p, q) is Implies(p, q)
    assert Implies(p, q) == Implies(Prop("p"), Prop("q"))
    assert Implies(p, q) != Implies(q, p)
    assert hash(Justified(t, p)) == hash(Justified(Var("t"), Prop("p")))


def test_truth_values_are_coerced_before_interning():
    assert TruthConst(0) is FALSUM
    assert TruthConst(Fraction(2, 4)) is TruthConst(0.5) is TruthConst("1/2")
    half = GradedAtLeast(Fraction(1, 2), t, p)
    assert GradedAtLeast(Fraction(3, 6), t, p) is half
    assert GradedAtLeast("1/2", t, p) is half
    assert half.grade == Fraction(1, 2) and isinstance(half.grade, Fraction)
    assert TruthConst(True) is TruthConst(1)
    assert isinstance(TruthConst(1).value, Fraction)


def test_setting_an_attribute_raises():
    f = Implies(p, q)
    with pytest.raises(AttributeError):
        f.left = q
    with pytest.raises(AttributeError):
        f.extra = 1
    with pytest.raises(AttributeError):
        del f.right
    assert f.left is p


def test_repr_and_copy():
    f = GradedAtLeast(Fraction(1, 3), App(t, Var("s")), Implies(p, FALSUM))
    assert repr(f) == (
        "GradedAtLeast(grade=Fraction(1, 3), term=App(left=Var(name='t'), "
        "right=Var(name='s')), body=Implies(left=Prop(name='p'), "
        "right=TruthConst(value=Fraction(0, 1))))")
    assert copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f


def test_table_entries_die_with_their_nodes():
    before = len(syntax._table)
    nodes = [Implies(p, Prop(f"fresh{k}")) for k in range(10_000)]
    assert len(syntax._table) == before + 20_000
    del nodes
    assert len(syntax._table) == before


def test_threads_build_one_node_per_formula():
    texts = [f"(a{k} -> b{k % 7}) & s{k}.t:(a{k} \\/ #1/{k % 5 + 2})" for k in range(300)]
    results = [None] * 8
    start = threading.Barrier(len(results))

    def build(slot):
        start.wait()
        out = []
        for text in texts:
            parse_formula(f"dropped{slot} -> {text}")   # churn: made and freed
            out.append(parse_formula(text))
            out.append(expand_sugar(out[-1]))
        results[slot] = out

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    first = results[0]
    assert len(first) == 2 * len(texts)
    for other in results[1:]:
        assert len(other) == len(first)
        assert all(a is b for a, b in zip(first, other))


# ---------------------------------------------------------------------------
# Depth beyond the recursion limit

OPERANDS = [Justified(t, p), Neg(q), Implies(p, q), GradedAtLeast(Fraction(1, 2), t, p)]


@pytest.mark.parametrize("build", [
    lambda f, k: StrongConj(f, Prop(f"p{k % 3}")),
    lambda f, k: WeakDisj(f, q),
    lambda f, k: StrongConj(f, OPERANDS[k % len(OPERANDS)]),
], ids=["strong-conjunctions", "weak-disjunctions", "mixed-operands"])
def test_left_associative_chains_round_trip(build):
    f = p
    for k in range(DEEP):
        f = build(f, k)
    assert parse_formula(print_formula(f)) is f


@pytest.mark.parametrize("build", [
    lambda u, k: App(u, Var(f"x{k % 4}")),
    lambda u, k: Sum(u, App(t, Const("c1")) if k % 2 else t),
], ids=["applications", "sums"])
def test_left_associative_term_chains_round_trip(build):
    u = t
    for k in range(DEEP):
        u = build(u, k)
    assert parse_term(print_term(u)) is u
    f = Justified(u, p)
    assert parse_formula(print_formula(f)) is f


def test_deep_negation_tower():
    f = p
    for _ in range(DEEP):
        f = Neg(f)
    assert print_formula(f) == "~" * DEEP + "p"
    assert len(set(subformulas(f))) == DEEP + 1
    g = expand_sugar(f)
    assert expand_sugar(g) is g
    for _ in range(DEEP):
        assert g.right is FALSUM
        g = g.left
    assert g is p
