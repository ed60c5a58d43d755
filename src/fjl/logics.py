"""Logic configurations and axiom-scheme matching.

A :class:`LogicConfig` picks a fuzzy base (BL, Lukasiewicz, Goedel,
product or rational Pavelka), optionally adds the justification axioms
(application and sum), the factivity/consistency extras jT and jD, and
a crisp mode that restricts semantics to Boolean values and extends the
axioms to the classical span.

Schemes are first-order patterns over the primitive connectives with
formula, term and rational metavariables.  The two bookkeeping schemes
for truth constants carry a side computation that pins the computed
constant (the Lukasiewicz residuum or t-norm of the matched grades).

One matcher serves terms and formulas alike.  Nodes are interned (see
:mod:`fjl.syntax`), so a fixed leaf or a repeated metavariable is
checked by an identity test, and a metavariable binds a whole subtree:
the matcher recurses no deeper than its pattern, at most 6 levels.
The active schemes and the table of rule tags are computed once per
configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from types import MappingProxyType
from typing import Optional

from .syntax import (
    App, Const, FALSUM, Formula, Implies, Justified, Prop, StrongConj, Sum,
    TruthConst, Var, expand_sugar,
)
from .tnorms import TNormKind, luka_residuum, luka_tnorm


class Base(Enum):
    BL = "BL"
    L = "L"
    G = "G"
    PI = "Pi"
    RPL = "RPL"


_EXTRAS = ("jT", "jD")


@dataclass(frozen=True)
class LogicConfig:
    base: Base = Base.RPL
    justified: bool = True
    extras: frozenset = frozenset()
    crisp: bool = False

    def __post_init__(self):
        bad = set(self.extras) - set(_EXTRAS)
        if bad:
            raise ValueError(f"unknown extras {sorted(bad)}; supported: {_EXTRAS}")
        object.__setattr__(self, "extras", frozenset(self.extras))

    @property
    def has_truth_constants(self) -> bool:
        return self.base is Base.RPL

    @property
    def graded_necessitation(self) -> bool:
        """RPLJ introduces constants by GIAN, the other systems by IAN."""
        return self.justified and self.base is Base.RPL

    def tnorm_kinds(self) -> tuple[TNormKind, ...]:
        if self.base is Base.BL:
            return (TNormKind.LUKASIEWICZ, TNormKind.GOEDEL, TNormKind.PRODUCT)
        if self.base in (Base.L, Base.RPL):
            return (TNormKind.LUKASIEWICZ,)
        if self.base is Base.G:
            return (TNormKind.GOEDEL,)
        return (TNormKind.PRODUCT,)

    @property
    def name(self) -> str:
        stem = self.base.value + ("J" if self.justified else "")
        marks = "".join(f"+{e}" for e in sorted(self.extras))
        return ("crisp " if self.crisp else "") + stem + marks

    @staticmethod
    def from_name(name: str, extras=(), crisp: bool = False) -> "LogicConfig":
        """Resolve names like BL, BLJ, L, LJ, G, GJ, Pi, PiJ, RPL, RPLJ or J."""
        text = name.strip()
        if text == "J":
            # classical justification logic: crisp semantics over the
            # BL axioms extended with both the involution and
            # idempotence schemes, which together span classical logic
            return LogicConfig(Base.BL, justified=True, extras=frozenset(extras), crisp=True)
        justified = text.endswith("J") and text != "J"
        stem = text[:-1] if justified else text
        for base in Base:
            if stem.lower() == base.value.lower():
                return LogicConfig(base, justified=justified,
                                   extras=frozenset(extras), crisp=crisp)
        raise ValueError(f"unknown logic name {name!r}")


# ---------------------------------------------------------------------------
# Scheme patterns

@dataclass(frozen=True)
class FMeta:
    """Formula metavariable."""
    name: str


@dataclass(frozen=True)
class TMeta:
    """Term metavariable."""
    name: str


@dataclass(frozen=True)
class RMeta:
    """Rational metavariable, standing in a truth-constant position."""
    name: str


_LEAVES = frozenset({Prop, TruthConst, Var, Const})


def _bind(pattern, node, binding: dict) -> bool:
    """Extend ``binding`` so that ``pattern`` under it is ``node``; False
    if none does."""
    if pattern is node:
        return True
    cls = type(pattern)
    if cls is FMeta or cls is TMeta:
        return binding.setdefault(pattern.name, node) is node
    if cls is RMeta:
        return (type(node) is TruthConst
                and binding.setdefault(pattern.name, node.value) == node.value)
    if cls is not type(node) or cls in _LEAVES:
        return False
    if cls is Justified:
        return (_bind(pattern.term, node.term, binding)
                and _bind(pattern.body, node.body, binding))
    return (_bind(pattern.left, node.left, binding)
            and _bind(pattern.right, node.right, binding))


def _subst(pattern, binding: dict):
    """``pattern`` with every metavariable replaced by its binding."""
    cls = type(pattern)
    if cls is FMeta or cls is TMeta:
        return binding[pattern.name]
    if cls is RMeta:
        return TruthConst(binding[pattern.name])
    children = pattern._nodes()
    return cls(*(_subst(c, binding) for c in children)) if children else pattern


def _metavariables(pattern):
    """The metavariables of ``pattern`` in pre-order, repeats included."""
    if isinstance(pattern, (FMeta, TMeta, RMeta)):
        yield pattern
    else:
        for child in pattern._nodes():
            yield from _metavariables(child)


@dataclass(frozen=True)
class Scheme:
    """A named axiom scheme over primitive connectives.

    ``side`` lists rational metavariables whose value is determined by
    the others; a match binds them structurally and then verifies the
    computed value, an instantiation computes them.
    """

    name: str
    pattern: object
    side: tuple = ()

    def match(self, f: Formula) -> Optional[dict]:
        """The substitution making the pattern ``f``'s expansion, or None."""
        binding: dict = {}
        if not _bind(self.pattern, expand_sugar(f), binding):
            return None
        for name, fn in self.side:
            if binding.get(name) != fn(binding):
                return None
        return binding

    def instantiate(self, binding: dict) -> Formula:
        full = dict(binding)
        for name, fn in self.side:
            full[name] = fn(full)
        return _subst(self.pattern, full)

    def free_metavariables(self) -> tuple:
        """Metavariables a caller must supply to instantiate the scheme,
        in order of first occurrence."""
        computed = {name for name, _ in self.side}
        return tuple(m for m in dict.fromkeys(_metavariables(self.pattern))
                     if not (isinstance(m, RMeta) and m.name in computed))


# ---------------------------------------------------------------------------
# The scheme registry

_A, _B, _C = FMeta("A"), FMeta("B"), FMeta("C")
_A1, _B1, _A2, _B2 = FMeta("A1"), FMeta("B1"), FMeta("A2"), FMeta("B2")
_S, _T = TMeta("s"), TMeta("t")
_R, _R2, _V = RMeta("r"), RMeta("r'"), RMeta("v")


def _imp(a, b):
    return Implies(a, b)


def _conj(a, b):
    return StrongConj(a, b)


def _neg(a):
    return Implies(a, FALSUM)


def _equiv(a, b):
    return StrongConj(Implies(a, b), Implies(b, a))


BL_SCHEMES = (
    Scheme("BL1", _imp(_imp(_A, _B), _imp(_imp(_B, _C), _imp(_A, _C)))),
    Scheme("BL2", _imp(_conj(_A, _B), _A)),
    Scheme("BL3", _imp(_conj(_A, _B), _conj(_B, _A))),
    Scheme("BL4", _imp(_conj(_A, _imp(_A, _B)), _conj(_B, _imp(_B, _A)))),
    Scheme("BL5a", _imp(_imp(_A, _imp(_B, _C)), _imp(_conj(_A, _B), _C))),
    Scheme("BL5b", _imp(_imp(_conj(_A, _B), _C), _imp(_A, _imp(_B, _C)))),
    Scheme("BL6", _imp(_imp(_imp(_A, _B), _C), _imp(_imp(_imp(_B, _A), _C), _C))),
    Scheme("BL7", _imp(FALSUM, _A)),
)

INVOLUTION = Scheme("L", _imp(_neg(_neg(_A)), _A))
IDEMPOTENCE = Scheme("G", _imp(_A, _conj(_A, _A)))
CANCELLATION = Scheme(
    "P",
    _imp(_neg(_neg(_A)), _imp(_imp(_A, _conj(_A, _B)), _conj(_B, _neg(_neg(_B))))),
)

TC1 = Scheme(
    "TC1",
    _equiv(_imp(_R, _R2), _V),
    side=(("v", lambda b: luka_residuum(b["r"], b["r'"])),),
)
TC2 = Scheme(
    "TC2",
    _equiv(_conj(_R, _R2), _V),
    side=(("v", lambda b: luka_tnorm(b["r"], b["r'"])),),
)

APPL = Scheme(
    "Appl",
    _imp(Justified(_S, _imp(_A, _B)),
         _imp(Justified(_T, _A), Justified(App(_S, _T), _B))),
)
SUM1 = Scheme("Sum1", _imp(Justified(_S, _A), Justified(Sum(_S, _T), _A)))
SUM2 = Scheme("Sum2", _imp(Justified(_S, _A), Justified(Sum(_T, _S), _A)))

FACTIVITY = Scheme("jT", _imp(Justified(_T, _A), _A))
CONSISTENCY = Scheme("jD", _neg(Justified(_T, FALSUM)))


@cache
def active_schemes(config: LogicConfig) -> tuple[Scheme, ...]:
    """The axiom schemes of the configured logic, in matching order."""
    out = list(BL_SCHEMES)
    if config.base is Base.L:
        out.append(INVOLUTION)
    elif config.base is Base.G:
        out.append(IDEMPOTENCE)
    elif config.base is Base.PI:
        out.append(CANCELLATION)
    elif config.base is Base.RPL:
        out.extend((INVOLUTION, TC1, TC2))
    if config.crisp:
        if INVOLUTION not in out:
            out.append(INVOLUTION)
        if IDEMPOTENCE not in out:
            out.append(IDEMPOTENCE)
    if config.justified:
        out.extend((APPL, SUM1, SUM2))
    if "jT" in config.extras:
        out.append(FACTIVITY)
    if "jD" in config.extras:
        out.append(CONSISTENCY)
    return tuple(out)


@cache
def schemes_by_tag(config: LogicConfig) -> MappingProxyType:
    """The read-only table ``{tag: schemes}`` of ``AX <tag>`` steps: each
    active scheme is a tag, and in justified logics ``Sum`` is either sum."""
    table = {scheme.name: (scheme,) for scheme in active_schemes(config)}
    if config.justified:
        table["Sum"] = (SUM1, SUM2)
    return MappingProxyType(table)


def axiom_instance_of(f: Formula, config: LogicConfig):
    """First active scheme that ``f`` instantiates, with its substitution."""
    g = expand_sugar(f)
    for scheme in active_schemes(config):
        binding = scheme.match(g)
        if binding is not None:
            return scheme.name, binding
    return None
