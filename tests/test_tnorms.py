from fractions import Fraction

import pytest
from hypothesis import given

from conftest import unit_rationals
from fjl.models import FittingModel, eval_formula
from fjl.suites import run_suite
from fjl.syntax import Implies, Prop
from fjl.tnorms import (
    BELOW, KERNELS, TNormKind, check_adjunction, grid, kernel_grid, residuum_apply,
    tnorm_apply,
)
from fjl.tnorms import unit_rationals as grid_rationals

L, G, P = TNormKind.LUKASIEWICZ, TNormKind.GOEDEL, TNormKind.PRODUCT


def test_tnorm_values():
    assert tnorm_apply(L, Fraction(3, 5), Fraction(7, 10)) == Fraction(3, 10)
    assert tnorm_apply(G, Fraction(1), Fraction(2, 7)) == Fraction(2, 7)
    assert tnorm_apply(P, Fraction(1, 2), Fraction(2, 3)) == Fraction(1, 3)


def test_residuum_values():
    assert residuum_apply(L, Fraction(4, 5), Fraction(1, 2)) == Fraction(7, 10)
    assert residuum_apply(G, Fraction(3, 10), Fraction(1, 2)) == Fraction(1)
    assert residuum_apply(P, Fraction(4, 5), Fraction(1, 5)) == Fraction(1, 4)


@pytest.mark.parametrize("kind", list(TNormKind))
def test_adjunction_grid(kind):
    report = check_adjunction(kind, 6)
    assert report.ok
    assert report.triples == 13 ** 3


def test_grid_rationals_are_sorted_and_complete():
    grid = grid_rationals(4)
    assert grid[0] == 0 and grid[-1] == 1
    assert grid == sorted(set(grid))
    assert Fraction(3, 4) in grid and Fraction(2, 3) in grid


@pytest.mark.parametrize("kind", list(TNormKind))
@given(x=unit_rationals(), y=unit_rationals())
def test_residuum_reaches_one_exactly_below(kind, x, y):
    assert (residuum_apply(kind, x, y) == 1) == (x <= y)


@pytest.mark.parametrize("kind", list(TNormKind))
@given(x=unit_rationals(), y=unit_rationals(), z=unit_rationals())
def test_tnorm_laws(kind, x, y, z):
    assert tnorm_apply(kind, x, y) == tnorm_apply(kind, y, x)
    assert tnorm_apply(kind, tnorm_apply(kind, x, y), z) == \
        tnorm_apply(kind, x, tnorm_apply(kind, y, z))
    assert tnorm_apply(kind, 1, x) == x
    if x <= y:
        assert tnorm_apply(kind, x, z) <= tnorm_apply(kind, y, z)


@pytest.mark.parametrize("kind", list(TNormKind))
@given(x=unit_rationals(), y=unit_rationals(), z=unit_rationals())
def test_adjunction_random(kind, x, y, z):
    assert (tnorm_apply(kind, x, z) <= y) == (z <= residuum_apply(kind, x, y))


@given(x=unit_rationals(), x2=unit_rationals(), y=unit_rationals(), y2=unit_rationals())
def test_luka_implication_monotonicity(x, x2, y, y2):
    if x2 <= x:
        assert residuum_apply(L, x, y) <= residuum_apply(L, x2, y)
    if y <= y2:
        assert residuum_apply(L, x, y) <= residuum_apply(L, x, y2)
    left = tnorm_apply(L, residuum_apply(L, x, x2), residuum_apply(L, y, y2))
    right = residuum_apply(L, tnorm_apply(L, x, y), tnorm_apply(L, x2, y2))
    assert left <= right


@pytest.mark.parametrize("kind", list(TNormKind))
def test_kernels_agree_with_the_fraction_reference(kind):
    """Every pair of unit_rationals(8): L and G kernels in integers on the
    grid D = 840 = lcm(1..8), product kernels on the Fractions themselves."""
    values = grid_rationals(8)
    top, put, get = kernel_grid(kind, values)
    points = put(values)
    assert top == (1 if kind is P else 840)
    assert all(type(p) is (Fraction if kind is P else int) for p in points)
    assert [Fraction(p, top) for p in points] == get(points) == values
    conj, imp = KERNELS[kind]
    for x, point in zip(values, points):
        row = [point] * len(points)
        assert conj(row, points, top) == put([tnorm_apply(kind, x, y) for y in values])
        assert imp(row, points, top) == put([residuum_apply(kind, x, y) for y in values])


@pytest.mark.parametrize("kind", list(TNormKind))
def test_grid_comparison_agrees_with_the_fraction_reference(kind):
    """Every (x, y, got) of unit_rationals(6) as integers on D = 60 = lcm(1..6):
    ``BELOW`` says got < t(x, y) exactly when the Fractions do, product
    included, whose x * y falls off the grid onto D**2."""
    values = grid_rationals(6)
    top, put, get = grid(values)
    points = put(values)
    assert top == 60 and get(points) == values
    below = BELOW[kind]
    off_grid = 0
    for x, n in zip(values, points):
        for y, m in zip(values, points):
            need = tnorm_apply(kind, x, y)
            off_grid += (need * top).denominator != 1
            assert [below(g, n, m, top) for g in points] == [got < need for got in values]
    assert (off_grid > 0) == (kind is P)


def _printed_values(message: str) -> list:
    return [Fraction(part.split("=")[1]) for part in message.split()]


def test_suites_run_the_evaluators_kernels(monkeypatch):
    """A Lukasiewicz implication kernel one grid unit too high changes what
    the evaluator computes, breaks the adjunction and the product transfer,
    and both suites say so in Fractions."""
    model = FittingModel(worlds=("w0",), access=frozenset(), tnorm=L,
                         valuation={("w0", "p"): Fraction(1, 2), ("w0", "q"): Fraction(1, 4)},
                         evidence={})
    p_to_q = Implies(Prop("p"), Prop("q"))
    assert eval_formula(model, "w0", p_to_q) == Fraction(3, 4)
    conj, imp = KERNELS[L]
    monkeypatch.setitem(KERNELS, L, (conj, lambda xs, ys, top: [v + 1 for v in imp(xs, ys, top)]))
    assert eval_formula(model, "w0", p_to_q) == 1     # 3/4 + 1/4 on the grid D = 4
    adjunction = run_suite("adjunction", bound=4)
    assert {f.case for f in adjunction.failures} == {"L"}
    monotonicity = run_suite("residuum-monotonicity", bound=4)
    assert {f.case for f in monotonicity.failures} == {"product-transfer"}
    for failure in adjunction.failures + monotonicity.failures:
        values = _printed_values(failure.message)
        assert values and all(0 <= v <= 1 for v in values), failure.message
