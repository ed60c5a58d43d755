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

Each scheme matches through straight-line code generated from its
pattern on its first match, for terms and formulas alike.  Nodes are
interned (see :mod:`fjl.syntax`), so a fixed leaf or a repeated
metavariable is checked by an identity test, and a metavariable binds a
whole subtree.  The active schemes and the table of rule tags are
computed once per configuration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from types import MappingProxyType
from typing import Callable, Optional

from .syntax import (
    App, FALSUM, Formula, Implies, Justified, StrongConj, Sum, TruthConst,
    expand_sugar,
)
from .tnorms import TNormKind, luka_tnorm, residuum_apply


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


def _compile(pattern) -> tuple:
    """``pattern`` as a flat pre-order program of ``(op, arg)`` pairs: a
    metavariable's class and name, ``(None, leaf)`` for a fixed leaf and
    ``(cls, None)`` for a connective, whose operands follow it."""
    program, stack = [], [pattern]
    while stack:
        node = stack.pop()
        if isinstance(node, (FMeta, TMeta, RMeta)):
            program.append((type(node), node.name))
        elif node._nodes():
            program.append((type(node), None))
            stack += reversed(node._nodes())
        else:
            program.append((None, node))
    return tuple(program)


def _matcher(program: tuple, side: tuple):
    """A straight-line ``match(f)`` generated from ``program``, as
    :mod:`dataclasses` generates ``__init__``: one class test per pattern
    node, an identity test per fixed leaf or repeated metavariable, then
    the side checks.  It returns the binding, keys in order of first
    occurrence, or None."""
    lines, first, spots, space = [], {}, ["n0"], {}
    for k, (op, arg) in enumerate(program):
        at = spots.pop()
        if op is None:
            space[f"k{k}"] = arg
            lines.append(f"if {at} is not k{k}: return None")
            continue
        if arg in first:
            lines.append(f"if {at} is not {first[arg][0]}: return None")
            continue
        if at != f"n{k}":
            lines.append(f"n{k} = {at}")
        if op in (FMeta, TMeta, RMeta):
            first[arg] = (f"n{k}", ".value" if op is RMeta else "")
            if op is not RMeta:
                continue
            op = TruthConst
        space[op.__name__] = op
        lines.append(f"if type(n{k}) is not {op.__name__}: return None")
        if arg is None:
            spots += [f"n{k}.{name}" for name in reversed(op._fields)]
    lines.append("b = {" + ", ".join(f"{name!r}: {node}{value}"
                                     for name, (node, value) in first.items()) + "}")
    for i, (name, fn) in enumerate(side):
        space[f"side{i}"] = fn
        lines.append(f"if b[{name!r}] != side{i}(b): return None")
    exec("def match(n0):\n" + "".join(f"    {line}\n" for line in lines + ["return b"]), space)
    return space["match"]


@dataclass(frozen=True)
class Scheme:
    """A named axiom scheme over primitive connectives.

    ``side`` lists rational metavariables whose value is determined by
    the others; a match binds them structurally and then verifies the
    computed value, an instantiation computes them.  The pattern is
    compiled once into a pre-order program (see :func:`_compile`):
    ``instantiate`` reads it backward onto a stack of values, and the
    free metavariables are its metavariable entries.  ``match`` runs a
    straight-line matcher generated from the program on its first call
    (see :func:`_matcher`), which stops at the first failed test.
    """

    name: str
    pattern: object
    side: tuple = ()
    _program: tuple = field(init=False, repr=False, compare=False)
    _free: tuple = field(init=False, repr=False, compare=False)
    _match: Optional[Callable] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        program = _compile(self.pattern)
        computed = {name for name, _ in self.side}
        object.__setattr__(self, "_program", program)
        object.__setattr__(self, "_free", tuple(dict.fromkeys(
            op(arg) for op, arg in program
            if op in (FMeta, TMeta) or (op is RMeta and arg not in computed))))

    def match(self, f: Formula) -> Optional[dict]:
        """The substitution making the pattern ``f``, or None.  Precondition:
        ``f`` is expanded (``axiom_instance_of`` expands for its callers)."""
        if self._match is None:
            object.__setattr__(self, "_match", _matcher(self._program, self.side))
        return self._match(f)

    def instantiate(self, binding: dict) -> Formula:
        full = dict(binding)
        for name, fn in self.side:
            full[name] = fn(full)
        stack: list = []
        push, pop = stack.append, stack.pop
        for op, arg in reversed(self._program):
            if op is FMeta or op is TMeta:
                push(full[arg])
            elif op is RMeta:
                push(TruthConst(full[arg]))
            elif op is None:
                push(arg)
            else:
                push(op(pop(), pop()))
        return stack[0]

    def free_metavariables(self) -> tuple:
        """Metavariables a caller must supply to instantiate the scheme,
        in order of first occurrence; found once, when the scheme is made."""
        return self._free


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
    side=(("v", lambda b: residuum_apply(TNormKind.LUKASIEWICZ, b["r"], b["r'"])),),
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


def axiom_instance_of(f: Formula, config: LogicConfig) -> Optional[str]:
    """The tag of the first active scheme that ``f`` instantiates, or None."""
    g = expand_sugar(f)
    for scheme in active_schemes(config):
        if scheme.match(g) is not None:
            return scheme.name
    return None
