"""The three standard continuous t-norms and their residua, exactly.

The one home of the truth functions: ``tnorm_apply`` and
``residuum_apply`` are the scalar ``Fraction`` reference, and
``KERNELS`` holds each kind's row kernels, which evaluation runs and
``check_adjunction`` certifies; they compute in integers on a grid of
denominator D for Lukasiewicz and Goedel (``kernel_grid``) and in
``Fraction``s for product.  ``BELOW`` is the scalar comparison
``got < t(x, y)`` that model validation runs on the integer grid for
every kind, product included.  No floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Iterable

from .syntax import ONE, ZERO


class TNormKind(Enum):
    LUKASIEWICZ = "L"
    GOEDEL = "G"
    PRODUCT = "P"

    @property
    def code(self) -> str:
        return self.value

    @classmethod
    def from_code(cls, code: str) -> "TNormKind":
        for kind in cls:
            if kind.value == code:
                return kind
        raise ValueError(f"unknown t-norm code {code!r} (expected L, G or P)")


def tnorm_apply(kind: TNormKind, x: Fraction, y: Fraction) -> Fraction:
    """Strong-conjunction truth function: max(0, x+y-1), min(x, y) or x*y."""
    if kind is TNormKind.LUKASIEWICZ:
        return max(ZERO, x + y - 1)
    if kind is TNormKind.GOEDEL:
        return min(x, y)
    return x * y


def residuum_apply(kind: TNormKind, x: Fraction, y: Fraction) -> Fraction:
    """Adjoint implication of the t-norm: 1 when x <= y, else the kind's case."""
    if x <= y:
        return ONE
    if kind is TNormKind.LUKASIEWICZ:
        return ONE - x + y
    if kind is TNormKind.GOEDEL:
        return y
    return y / x


def luka_tnorm(x: Fraction, y: Fraction) -> Fraction:
    return tnorm_apply(TNormKind.LUKASIEWICZ, x, y)


def _luka_conj(xs: list, ys: list, top: int) -> list:
    return [x + y - top if x + y > top else 0 for x, y in zip(xs, ys)]


def _luka_imp(xs: list, ys: list, top: int) -> list:
    return [top if x <= y else top - x + y for x, y in zip(xs, ys)]


def _goedel_conj(xs: list, ys: list, top: int) -> list:
    return [x if x < y else y for x, y in zip(xs, ys)]


def _goedel_imp(xs: list, ys: list, top: int) -> list:
    return [top if x <= y else y for x, y in zip(xs, ys)]


def _product_conj(xs: list, ys: list, top: Fraction) -> list:
    return [x * y for x, y in zip(xs, ys)]


def _product_imp(xs: list, ys: list, top: Fraction) -> list:
    return [top if x <= y else y / x for x, y in zip(xs, ys)]


#: Each kind's row kernels (conj, imp): two equal-length rows of values
#: and the top value in, the row of results out.
KERNELS = {
    TNormKind.LUKASIEWICZ: (_luka_conj, _luka_imp),
    TNormKind.GOEDEL: (_goedel_conj, _goedel_imp),
    TNormKind.PRODUCT: (_product_conj, _product_imp),
}


#: Each kind's scalar test ``got < t(x, y)`` on the integer ``grid``, every
#: kind included: got, x and y stand for v*D, D = top.  The product x*y
#: lands on the D**2 scale, so got is raised to it.
BELOW = {
    TNormKind.LUKASIEWICZ: lambda got, x, y, top: got < x + y - top,
    TNormKind.GOEDEL: lambda got, x, y, top: got < x if x < y else got < y,
    TNormKind.PRODUCT: lambda got, x, y, top: got * top < x * y,
}


def grid(values: Iterable[Fraction]) -> tuple:
    """``(top, put, get)``: each value v stands as the integer v*D, D = top
    the lcm of the denominators of ``values``; ``put`` takes a list of
    Fractions to integers, ``get`` a list of integers back."""
    top = lcm(*{v.denominator for v in values})
    return (top, lambda values: [v.numerator * (top // v.denominator) for v in values],
            lambda row: [ONE if n == top else ZERO if not n else Fraction(n, top) for n in row])


def kernel_grid(kind: TNormKind, values: Iterable[Fraction]) -> tuple:
    """``(top, put, get)`` for ``kind``'s kernels on ``values``: the
    integer ``grid`` for Lukasiewicz and Goedel, the Fractions as they are
    (top 1) for product."""
    if kind is TNormKind.PRODUCT:
        return ONE, list, list
    return grid(values)


def unit_rationals(max_denominator: int) -> list[Fraction]:
    """All rationals in [0, 1] with denominator up to the bound, ascending."""
    if max_denominator < 1:
        raise ValueError("denominator bound must be at least 1")
    return sorted({Fraction(num, den) for den in range(1, max_denominator + 1)
                   for num in range(den + 1)})


@dataclass
class AdjunctionReport:
    """Result of exhaustively checking x*z <= y iff z <= (x => y)."""

    kind: TNormKind
    denominator_bound: int
    triples: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_adjunction(kind: TNormKind, denominator_bound: int) -> AdjunctionReport:
    """Verify the residuation equivalence of ``kind``'s kernels on the
    full rational grid; violations are reported as Fraction triples."""
    values = unit_rationals(denominator_bound)
    top, put, _ = kernel_grid(kind, values)
    points = put(values)
    conj, imp = KERNELS[kind]
    report = AdjunctionReport(kind, denominator_bound)
    for i, x in enumerate(points):
        row = [x] * len(points)
        meets = conj(row, points, top)                        # x * z for every z
        for j, (y, r) in enumerate(zip(points, imp(row, points, top))):    # r = x => y
            report.triples += len(points)
            for k, z in enumerate(points):
                if (meets[k] <= y) != (z <= r):
                    report.violations.append((values[i], values[j], values[k]))
    return report
