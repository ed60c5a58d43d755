"""The three standard continuous t-norms and their residua, exactly.

Everything here is closed over the rationals in [0, 1], so all
semantic computations downstream stay exact; no floats anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

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


def luka_residuum(x: Fraction, y: Fraction) -> Fraction:
    return residuum_apply(TNormKind.LUKASIEWICZ, x, y)


def unit_rationals(max_denominator: int) -> list[Fraction]:
    """All rationals in [0, 1] with denominator up to the bound, ascending."""
    if max_denominator < 1:
        raise ValueError("denominator bound must be at least 1")
    values = {ZERO, ONE}
    for den in range(1, max_denominator + 1):
        for num in range(den + 1):
            values.add(Fraction(num, den))
    return sorted(values)


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

    def summary(self) -> str:
        status = "pass" if self.ok else f"FAIL ({len(self.violations)} violations)"
        return (f"adjunction {self.kind.code} denominators<={self.denominator_bound}: "
                f"{self.triples} triples, {status}")


def check_adjunction(kind: TNormKind, denominator_bound: int) -> AdjunctionReport:
    """Verify the residuation equivalence on the full rational grid."""
    grid = unit_rationals(denominator_bound)
    report = AdjunctionReport(kind, denominator_bound)
    for x in grid:
        for y in grid:
            r = residuum_apply(kind, x, y)
            for z in grid:
                report.triples += 1
                if (tnorm_apply(kind, x, z) <= y) != (z <= r):
                    report.violations.append((x, y, z))
    return report
