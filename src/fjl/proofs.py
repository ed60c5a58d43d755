"""Hilbert-style proof kernel: derivations, constant specifications,
the checker, and constructors for the admissible graded rules.

The kernel trusts five step kinds only: hypothesis, axiom instance,
modus ponens and the two constant-introduction rules IAN (plain
systems) and GIAN (the Pavelka-based system).  Everything else, the
graded modus ponens rules, monotonicity and the theorems lifting uses,
is macro-expanded by :class:`DerivationBuilder` into primitive steps
that the checker re-verifies.  The stock theorems that the suites
check are recipes in two tables keyed by name, :data:`BL_THEOREMS` and
:data:`GRADED_THEOREMS`; :func:`stock_derivation` runs one on a fresh
builder.

Formula comparison throughout is identity of sugar-expanded normal
forms: nodes are interned (see :mod:`fjl.syntax`), so two formulas are
structurally equal exactly when they are one object.

A step and the rules with fields are named tuples, so ``MP(0, 1) ==
(0, 1)``; IAN and GIAN are fieldless and compare equal to no other rule.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, NamedTuple, Optional, Union

from .logics import Base, LogicConfig, axiom_instance_of, schemes_by_tag
from .parser import ParseError, formula_reader
from .syntax import (
    App, Const, FALSUM, Formula, GradedExact, Implies, Justified, ONE,
    StrongConj, Sum, Term, TruthConst, VERUM, exact_expansion, expand_sugar, print_formula,
    print_many,
)
from .tnorms import luka_tnorm


class ShapeError(ValueError):
    """A derived-rule constructor was fed a premise of the wrong shape."""


class ProofError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Derivations

class Hyp(NamedTuple):
    index: int


class Ax(NamedTuple):
    scheme: str


class MP(NamedTuple):
    antecedent: int
    implication: int


# IAN and GIAN stay dataclasses: as tuples both would be () and compare
# equal.  Every rule's ``_fields`` names its fields in order.

@dataclass(frozen=True)
class Ian:
    _fields = ()


@dataclass(frozen=True)
class Gian:
    _fields = ()


Rule = Union[Hyp, Ax, MP, Ian, Gian]


class Step(NamedTuple):
    formula: Formula
    rule: Rule


@dataclass(frozen=True)
class Derivation:
    hypotheses: tuple
    steps: tuple

    @property
    def conclusion(self) -> Formula:
        if not self.steps:
            raise ProofError("empty derivation has no conclusion")
        return self.steps[-1].formula


@dataclass
class ProofReport:
    ok: bool
    step: Optional[int] = None          # first failing step, 0-based
    reason: Optional[str] = None
    conclusion: Optional[Formula] = None

    def summary(self) -> str:
        if self.ok:
            return f"accepted; conclusion {print_formula(self.conclusion)}"
        return f"rejected at step {self.step + 1}: {self.reason}"


# ---------------------------------------------------------------------------
# Constant specifications

def _introduced(f: Formula, graded: bool) -> Optional[Justified]:
    """The ``t:B``, for any term ``t``, whose constant-introduction layer
    (``t:{==1}B`` when ``graded``, else ``t:B``) expands to the expanded
    ``f``, or None.  ``t:B`` can only stand in ``f`` or in ``f.left.right``."""
    j = f.left.right if graded and isinstance(f, StrongConj) and isinstance(f.left, Implies) else f
    if not isinstance(j, Justified):
        return None
    return j if _layer(j.term, expand_sugar(j.body), graded) is f else None


def _layer(term: Term, body: Formula, graded: bool) -> Formula:
    """The expanded constant-introduction layer of ``term:body``, for an
    expanded ``body``: ``term:{==1}body`` when ``graded``, else ``term:body``."""
    return exact_expansion(ONE, term, body) if graded else Justified(term, body)


def split_cs_layer(f: Formula, graded: bool):
    """``(c, B)`` when ``f`` is the layer of ``c:B`` for a constant ``c``,
    else None.  ``f`` must be expanded: a layer written with sugar, such as
    ``c:{==1}B`` or ``c:{>=1}B /\\ c:{<=1}B``, splits after :func:`expand_sugar`."""
    j = _introduced(f, graded)
    if j is not None and isinstance(j.term, Const):
        return j.term.name, j.body
    return None


def strip_cs_chain(f: Formula, graded: bool) -> tuple[list, Formula]:
    """Peel constant-introduction layers; returns (constants, innermost body)."""
    constants: list = []
    body = f
    while True:
        layer = split_cs_layer(body, graded)
        if layer is None:
            return constants, body
        constants.append(layer[0])
        body = layer[1]


def cs_entry(constant: str, body: Formula, graded: bool) -> Formula:
    return (GradedExact(ONE, Const(constant), body) if graded
            else Justified(Const(constant), body))


class FiniteCS:
    """An explicit, finite constant specification."""

    def __init__(self, entries: Iterable[Formula] = ()):
        self.entries = tuple(entries)
        self._expanded = frozenset(expand_sugar(e) for e in self.entries)

    def contains(self, f: Formula, config: LogicConfig) -> bool:
        return expand_sugar(f) in self._expanded

    def covers(self, constant: str, body: Formula, config: LogicConfig) -> bool:
        layer = _layer(Const(constant), expand_sugar(body), config.graded_necessitation)
        return layer in self._expanded

    def __repr__(self) -> str:
        return f"FiniteCS({len(self.entries)} entries)"


class TotalCS:
    """The schematic-total specification: every iterated constant
    justification of an axiom instance is admitted, and each axiom
    instance (or admitted entry) receives a canonical constant on
    demand.  The assignment map is synchronised so concurrent checks
    see one constant per formula."""

    def __init__(self):
        self._assigned: dict = {}
        self._counter = 0
        self._lock = threading.Lock()

    def contains(self, f: Formula, config: LogicConfig) -> bool:
        layer = split_cs_layer(expand_sugar(f), config.graded_necessitation)
        return layer is not None and self.covers(*layer, config)

    def covers(self, constant: str, body: Formula, config: LogicConfig) -> bool:
        _, inner = strip_cs_chain(expand_sugar(body), config.graded_necessitation)
        return axiom_instance_of(inner, config) is not None

    def constant_for(self, body: Formula) -> str:
        """Canonical constant justifying ``body`` (an axiom instance or entry)."""
        key = expand_sugar(body)
        with self._lock:
            name = self._assigned.get(key)
            if name is None:
                self._counter += 1
                name = f"c_{self._counter}"
                self._assigned[key] = name
            return name


ConstantSpecification = Union[FiniteCS, TotalCS]

EMPTY_CS = FiniteCS()


@dataclass
class CSReport:
    ok: bool
    problems: list = field(default_factory=list)

    def summary(self) -> str:
        if self.ok:
            return "well-formed"
        return "\n".join(["ill-formed:"] + [f"  {p}" for p in self.problems])


def check_cs(cs: ConstantSpecification, config: LogicConfig) -> CSReport:
    """Downward closure and axiom-instance bodies, for finite specifications.
    Entries are read expanded, so a verdict does not depend on how an
    entry is spelled; each problem starts with the entry as written."""
    if isinstance(cs, TotalCS):
        return CSReport(ok=True)
    problems = []
    graded = config.graded_necessitation
    for entry in cs.entries:
        constants, body = strip_cs_chain(expand_sugar(entry), graded)
        if not constants:
            problems.append(f"{print_formula(entry)}: not a constant-justification chain")
            continue
        if axiom_instance_of(body, config) is None:
            problems.append(f"{print_formula(entry)}: innermost body "
                            f"{print_formula(body)} is not an axiom instance")
        tail = body         # the chain below the top layer, written as layers
        for constant in reversed(constants[1:]):
            tail = cs_entry(constant, tail, graded)
        if len(constants) > 1 and not cs.contains(tail, config):
            problems.append(f"{print_formula(entry)}: tail {print_formula(tail)} "
                            f"missing (downward closure)")
    return CSReport(ok=not problems, problems=problems)


# ---------------------------------------------------------------------------
# The checker

def _axiom_matches(table, name: str, f: Formula, config: LogicConfig) -> Optional[str]:
    """Why ``f`` is not an instance of the scheme tagged ``name`` in
    ``table``, the ``schemes_by_tag(config)``; None if it is one."""
    schemes = table.get(name)
    if schemes is None:
        return f"scheme {name!r} is not active in {config.name}"
    for scheme in schemes:
        if scheme.match(f) is not None:
            return None
    return f"formula is not an instance of scheme {name!r}"


def check_derivation(d: Derivation, config: LogicConfig,
                     cs: ConstantSpecification) -> ProofReport:
    """Accept iff every step is justified by its rule tag."""
    hyps = [expand_sugar(h) for h in d.hypotheses]
    if not d.steps:
        return ProofReport(ok=False, step=0, reason="derivation has no steps")
    table = schemes_by_tag(config)
    expanded = []
    for idx, (formula, rule) in enumerate(d.steps):
        f = expand_sugar(formula)
        kind = type(rule)
        problem = None
        if kind is MP:
            i, j = rule
            imp = expanded[j] if 0 <= i < idx and 0 <= j < idx else None
            if imp is None:
                problem = f"MP references steps {i + 1}, {j + 1} not strictly earlier"
            elif type(imp) is not Implies:
                problem = f"MP major premise (step {j + 1}) is not an implication"
            elif imp.left is not expanded[i]:
                problem = f"MP antecedent (step {i + 1}) does not match the implication"
            elif imp.right is not f:
                problem = "MP conclusion differs from the implication's consequent"
        elif kind is Ax:
            problem = _axiom_matches(table, rule.scheme, f, config)
        elif kind is Hyp:
            if not 0 <= rule.index < len(hyps):
                problem = f"hypothesis index {rule.index + 1} out of range"
            elif hyps[rule.index] is not f:
                problem = f"formula differs from hypothesis {rule.index + 1}"
        elif kind is Ian or kind is Gian:
            if not config.justified or (kind is Gian) != config.graded_necessitation:
                problem = f"rule {_RULE_WORDS[kind]} is not available in {config.name}"
            elif not cs.contains(f, config):
                problem = "formula is not in the constant specification"
        else:
            problem = f"unknown rule {rule!r}"
        if problem:
            return ProofReport(ok=False, step=idx, reason=problem)
        expanded.append(f)
    return ProofReport(ok=True, conclusion=d.steps[-1].formula)


def extract_subderivation(d: Derivation, index: int) -> Derivation:
    """Prune to the dependency cone of one step, keeping hypotheses."""
    needed = set()
    stack = [index]
    while stack:
        i = stack.pop()
        if i in needed:
            continue
        needed.add(i)
        rule = d.steps[i].rule
        if type(rule) is MP:
            stack += rule       # its antecedent and implication
    order = sorted(needed)
    remap = {old: new for new, old in enumerate(order)}
    steps = []
    for old in order:
        step = d.steps[old]
        rule = step.rule
        if type(rule) is MP:
            step = Step(step.formula, MP(remap[rule.antecedent], remap[rule.implication]))
        steps.append(step)
    return Derivation(d.hypotheses, tuple(steps))


# ---------------------------------------------------------------------------
# Builder and macro-expanded rules

#: Provable unit in logics without rational constants (the negation of falsum).
UNIT = Implies(FALSUM, FALSUM)


class DerivationBuilder:
    """Accumulates primitive steps; every helper returns the index of the
    step holding its conclusion.  Duplicate formulas are shared."""

    def __init__(self, config: LogicConfig, hypotheses: Iterable[Formula] = ()):
        self.config = config
        self.hypotheses = tuple(expand_sugar(h) for h in hypotheses)
        self.steps: list = []
        self._seen: dict = {}
        self._schemes = schemes_by_tag(config)

    def build(self) -> Derivation:
        return Derivation(self.hypotheses, tuple(self.steps))

    def formula(self, i: int) -> Formula:
        return self.steps[i].formula

    def _emit(self, formula: Formula, rule: Rule) -> int:
        idx = self._seen.get(formula)
        if idx is not None:
            return idx
        self.steps.append(Step(formula, rule))
        idx = len(self.steps) - 1
        self._seen[formula] = idx
        return idx

    # -- primitive steps ---------------------------------------------------
    def hyp(self, i: int) -> int:
        return self._emit(self.hypotheses[i], Hyp(i))

    def axiom(self, name: str, formula: Formula) -> int:
        f = expand_sugar(formula)
        problem = _axiom_matches(self._schemes, name, f, self.config)
        if problem:
            raise ProofError(f"builder produced a bad axiom step: {problem}: "
                             f"{print_formula(f)}")
        return self._emit(f, Ax(name))

    def mp(self, antecedent: int, implication: int) -> int:
        imp = self.formula(implication)
        if not isinstance(imp, Implies) or imp.left != self.formula(antecedent):
            raise ProofError("builder modus ponens premises do not fit")
        return self._emit(imp.right, MP(antecedent, implication))

    def gian(self, formula: Formula) -> int:
        return self._emit(expand_sugar(formula), Gian())

    # -- theorem combinators (plain BL machinery) --------------------------
    def th_one(self) -> int:
        """The provable unit ~#0, an instance of ex falso."""
        return self.axiom("BL7", UNIT)

    def th_k(self, a: Formula, b: Formula) -> int:
        """a -> (b -> a)."""
        i1 = self.axiom("BL2", Implies(StrongConj(a, b), a))
        i2 = self.axiom("BL5b", Implies(Implies(StrongConj(a, b), a),
                                        Implies(a, Implies(b, a))))
        return self.mp(i1, i2)

    def compose(self, i: int, j: int) -> int:
        """From X -> Y and Y -> Z conclude X -> Z."""
        f1, f2 = self.formula(i), self.formula(j)
        target = Implies(f1.left, f2.right)
        b1 = self.axiom("BL1", Implies(f1, Implies(f2, target)))
        return self.mp(j, self.mp(i, b1))

    def suffix(self, i: int, c: Formula) -> int:
        """From X -> Y conclude (Y -> c) -> (X -> c)."""
        f = self.formula(i)
        b1 = self.axiom("BL1", Implies(f, Implies(Implies(f.right, c),
                                                  Implies(f.left, c))))
        return self.mp(i, b1)

    def th_exchange(self, a: Formula, b: Formula, c: Formula) -> int:
        """(a -> (b -> c)) -> (b -> (a -> c))."""
        s1 = self.axiom("BL5a", Implies(Implies(a, Implies(b, c)),
                                        Implies(StrongConj(a, b), c)))
        s2 = self.axiom("BL3", Implies(StrongConj(b, a), StrongConj(a, b)))
        s3 = self.suffix(s2, c)
        s4 = self.compose(s1, s3)
        s5 = self.axiom("BL5b", Implies(Implies(StrongConj(b, a), c),
                                        Implies(b, Implies(a, c))))
        return self.compose(s4, s5)

    def th_identity(self, a: Formula) -> int:
        """a -> a, routed through the provable unit."""
        one = self.th_one()
        k = self.th_k(a, UNIT)
        ex = self.th_exchange(a, UNIT, a)
        return self.mp(one, self.mp(k, ex))

    def curry(self, i: int) -> int:
        """From (a & b) -> c conclude a -> (b -> c)."""
        f = self.formula(i)
        a, b = f.left.left, f.left.right
        s = self.axiom("BL5b", Implies(f, Implies(a, Implies(b, f.right))))
        return self.mp(i, s)

    def uncurry(self, i: int) -> int:
        """From a -> (b -> c) conclude (a & b) -> c."""
        f = self.formula(i)
        b, c = f.right.left, f.right.right
        s = self.axiom("BL5a", Implies(f, Implies(StrongConj(f.left, b), c)))
        return self.mp(i, s)

    def th_conj_form(self, a: Formula, b: Formula) -> int:
        """a -> (b -> (a & b))."""
        return self.curry(self.th_identity(StrongConj(a, b)))

    def conj_pair(self, i: int, j: int) -> int:
        """From X and Y conclude X & Y."""
        s = self.th_conj_form(self.formula(i), self.formula(j))
        return self.mp(j, self.mp(i, s))

    def mono_left(self, i: int, y: Formula) -> int:
        """From X -> Z conclude (X & y) -> (Z & y)."""
        f = self.formula(i)
        w = self.th_conj_form(f.right, y)
        return self.uncurry(self.compose(i, w))

    def mono_right(self, i: int, x: Formula) -> int:
        """From Y -> W conclude (x & Y) -> (x & W)."""
        f = self.formula(i)
        s1 = self.axiom("BL3", Implies(StrongConj(x, f.left), StrongConj(f.left, x)))
        s2 = self.mono_left(i, x)
        s3 = self.axiom("BL3", Implies(StrongConj(f.right, x), StrongConj(x, f.right)))
        return self.compose(self.compose(s1, s2), s3)

    def th_assoc_right(self, x: Formula, y: Formula, z: Formula) -> int:
        """((x & y) & z) -> (x & (y & z))."""
        w = StrongConj(x, StrongConj(y, z))
        s2 = self.curry(self.th_identity(w))
        s3 = self.axiom("BL5b", Implies(Implies(StrongConj(y, z), w),
                                        Implies(y, Implies(z, w))))
        s4 = self.compose(s2, s3)
        return self.uncurry(self.uncurry(s4))

    def th_assoc_left(self, x: Formula, y: Formula, z: Formula) -> int:
        """(x & (y & z)) -> ((x & y) & z)."""
        w = StrongConj(StrongConj(x, y), z)
        s3 = self.curry(self.curry(self.th_identity(w)))
        s4 = self.axiom("BL5a", Implies(Implies(y, Implies(z, w)),
                                        Implies(StrongConj(y, z), w)))
        s5 = self.compose(s3, s4)
        return self.uncurry(s5)

    def th_mpc(self, a: Formula, b: Formula) -> int:
        """(a & (a -> b)) -> b."""
        s1 = self.axiom("BL4", Implies(StrongConj(a, Implies(a, b)),
                                       StrongConj(b, Implies(b, a))))
        s2 = self.axiom("BL2", Implies(StrongConj(b, Implies(b, a)), b))
        return self.compose(s1, s2)

    def th_detach(self, a: Formula, b: Formula) -> int:
        """((a -> b) & a) -> b."""
        s1 = self.axiom("BL3", Implies(StrongConj(Implies(a, b), a),
                                       StrongConj(a, Implies(a, b))))
        return self.compose(s1, self.th_mpc(a, b))

    def th_proj2(self, x: Formula, y: Formula) -> int:
        """(x & y) -> y."""
        s1 = self.axiom("BL3", Implies(StrongConj(x, y), StrongConj(y, x)))
        s2 = self.axiom("BL2", Implies(StrongConj(y, x), y))
        return self.compose(s1, s2)

    def th_imp_weaken(self, a: Formula, b: Formula) -> int:
        """(a -> b) -> (a -> (a & (a -> b)))."""
        ab = Implies(a, b)
        s1 = self.th_conj_form(a, ab)
        s2 = self.th_exchange(a, ab, StrongConj(a, ab))
        return self.mp(s1, s2)

    def th_conj_mono(self, a1: Formula, b1: Formula,
                     a2: Formula, b2: Formula) -> int:
        """((a1 -> b1) & (a2 -> b2)) -> ((a1 & a2) -> (b1 & b2))."""
        p, q = Implies(a1, b1), Implies(a2, b2)
        r1 = self.th_assoc_right(p, q, StrongConj(a1, a2))
        r2 = self.th_assoc_left(q, a1, a2)
        r3 = self.mono_right(r2, p)
        r4 = self.axiom("BL3", Implies(StrongConj(q, a1), StrongConj(a1, q)))
        r6 = self.mono_right(self.mono_left(r4, a2), p)
        r8 = self.mono_right(self.th_assoc_right(a1, q, a2), p)
        r9 = self.th_assoc_left(p, a1, StrongConj(q, a2))
        chain = self.compose(self.compose(self.compose(self.compose(r1, r3), r6), r8), r9)
        u1 = self.th_detach(a1, b1)
        u2 = self.th_detach(a2, b2)
        m1 = self.mono_left(u1, StrongConj(q, a2))
        m2 = self.mono_right(u2, b1)
        inner = self.compose(self.compose(chain, m1), m2)
        return self.curry(inner)

    # -- rational-constant machinery (Pavelka base) -------------------------
    def th_verum(self) -> int:
        """The constant #1, via the bookkeeping axiom at (0, 0)."""
        inst = StrongConj(Implies(UNIT, VERUM), Implies(VERUM, UNIT))
        tc = self.axiom("TC1", inst)
        bl2 = self.axiom("BL2", Implies(inst, Implies(UNIT, VERUM)))
        return self.mp(self.th_one(), self.mp(tc, bl2))

    def th_const_imp(self, low: Fraction, high: Fraction) -> int:
        """#low -> #high for low <= high."""
        if low > high:
            raise ShapeError(f"need {low} <= {high}")
        x = Implies(TruthConst(low), TruthConst(high))
        inst = StrongConj(Implies(x, VERUM), Implies(VERUM, x))
        tc = self.axiom("TC1", inst)
        p2 = self.th_proj2(Implies(x, VERUM), Implies(VERUM, x))
        return self.mp(self.th_verum(), self.mp(tc, p2))

    def th_product_split(self, r: Fraction, r2: Fraction) -> int:
        """#(r * r2) -> (#r & #r2) under the Lukasiewicz t-norm."""
        v = luka_tnorm(r, r2)
        conj = StrongConj(TruthConst(r), TruthConst(r2))
        inst = StrongConj(Implies(conj, TruthConst(v)), Implies(TruthConst(v), conj))
        tc = self.axiom("TC2", inst)
        p2 = self.th_proj2(Implies(conj, TruthConst(v)), Implies(TruthConst(v), conj))
        return self.mp(tc, p2)

    # -- graded fact plumbing ------------------------------------------------
    def _graded_parts(self, i: int) -> tuple[Fraction, Formula]:
        f = self.formula(i)
        if not (isinstance(f, Implies) and isinstance(f.left, TruthConst)):
            raise ShapeError(f"step is not a graded formula: {print_formula(f)}")
        return f.left.value, f.right

    def at_grade_one(self, i: int) -> int:
        """From X conclude #1 -> X."""
        x = self.formula(i)
        return self.mp(i, self.th_k(x, VERUM))

    def grade_weaken(self, i: int, new_grade: Fraction) -> int:
        """From #r -> X conclude #new -> X, new <= r."""
        r, x = self._graded_parts(i)
        if new_grade == r:
            return i
        if new_grade > r:
            raise ShapeError(f"cannot raise grade {r} to {new_grade}")
        ci = self.th_const_imp(new_grade, r)
        return self.mp(i, self.suffix(ci, x))

    def gconj(self, i: int, j: int) -> int:
        """Graded conjunction: #r -> X, #r' -> Y give #(r *L r') -> (X & Y)."""
        r, x = self._graded_parts(i)
        r2, y = self._graded_parts(j)
        pair = self.conj_pair(i, j)
        cm = self.th_conj_mono(TruthConst(r), x, TruthConst(r2), y)
        s1 = self.mp(pair, cm)
        return self.compose(self.th_product_split(r, r2), s1)

    def gmp(self, i: int, j: int) -> int:
        """Graded modus ponens: #r -> (A -> B), #r' -> A give #(r *L r') -> B."""
        _, imp = self._graded_parts(i)
        if not isinstance(imp, Implies):
            raise ShapeError("first premise must grade an implication")
        _, ante = self._graded_parts(j)
        if ante != imp.left:
            raise ShapeError("premise antecedents do not match")
        g = self.gconj(i, j)
        det = self.th_detach(imp.left, imp.right)
        return self.compose(g, det)

    def jgmp(self, i: int, j: int) -> int:
        """Justified graded modus ponens:
        #r -> s:(A -> B), #r' -> t:A give #(r *L r') -> (s.t):B."""
        _, jf1 = self._graded_parts(i)
        _, jf2 = self._graded_parts(j)
        if not (isinstance(jf1, Justified) and isinstance(jf1.body, Implies)):
            raise ShapeError("first premise must grade a justified implication")
        if not isinstance(jf2, Justified) or jf2.body != jf1.body.left:
            raise ShapeError("second premise does not justify the antecedent")
        s, t = jf1.term, jf2.term
        a, b = jf1.body.left, jf1.body.right
        g = self.gconj(i, j)
        appl = self.axiom("Appl", Implies(jf1, Implies(jf2, Justified(App(s, t), b))))
        return self.compose(g, self.uncurry(appl))

    def mon(self, i: int, side: str, t: Term) -> int:
        """Monotonicity: #r -> s:A gives #r -> (s+t):A or (t+s):A."""
        _, jf = self._graded_parts(i)
        if not isinstance(jf, Justified):
            raise ShapeError("premise must grade a justified formula")
        if side == "right":
            grown, name = Sum(jf.term, t), "Sum1"
        elif side == "left":
            grown, name = Sum(t, jf.term), "Sum2"
        else:
            raise ShapeError(f"side must be 'left' or 'right', got {side!r}")
        ax = self.axiom(name, Implies(jf, Justified(grown, jf.body)))
        return self.compose(i, ax)

    def th_exact_one_intro(self, t: Term, body: Formula) -> int:
        """(t:{>=1}A) -> (t:{==1}A), in primitive form."""
        j = Justified(t, expand_sugar(body))
        p = Implies(VERUM, j)
        y = Implies(j, VERUM)
        d1 = self.mp(self.th_verum(), self.th_k(VERUM, j))       # t:A -> #1
        d3 = self.mp(d1, self.th_k(y, p))                        # p -> y
        d4 = self.th_imp_weaken(p, y)
        return self.mp(d3, d4)

    def exact_one_from_graded(self, i: int) -> int:
        """From #1 -> t:A conclude the exact-grade form t:{==1}A."""
        r, jf = self._graded_parts(i)
        if r != ONE or not isinstance(jf, Justified):
            raise ShapeError("premise must be a grade-1 justified formula")
        intro = self.th_exact_one_intro(jf.term, jf.body)
        return self.mp(i, intro)

    def graded_from_exact_one(self, i: int) -> int:
        """From t:{==1}A conclude #1 -> t:A."""
        q = self.formula(i)
        if _introduced(q, graded=True) is None:
            raise ShapeError("premise is not an exact-grade-1 assertion")
        bl2 = self.axiom("BL2", Implies(q, q.left))
        return self.mp(i, bl2)


# ---------------------------------------------------------------------------
# Stock theorems: recipes and their runner
#
# A recipe emits one theorem's steps on the builder it is given and
# returns the index of the conclusion.  Where a builder method proves the
# theorem, it is the recipe.  ``stock_derivation`` runs a recipe on a
# fresh builder for its table's logic.  A recipe's calls must keep their
# order, because the order of the calls is the order of the steps.

_BL = LogicConfig(base=Base.BL, justified=False)


def _strong_to_weak(b: DerivationBuilder, a: Formula, c: Formula) -> int:
    """(a & c) -> (a /\\ c)."""
    return b.mono_right(b.th_k(c, a), a)


def _weak_projection(b: DerivationBuilder, a: Formula, c: Formula) -> int:
    """(a /\\ c) -> a."""
    return b.axiom("BL2", Implies(StrongConj(a, Implies(a, c)), a))


def _prelinearity(b: DerivationBuilder, a: Formula, c: Formula) -> int:
    """(a -> c) \\/ (c -> a), built through the proof-by-cases axiom."""
    x, y = Implies(a, c), Implies(c, a)
    u = Implies(Implies(x, y), y)
    v = Implies(Implies(y, x), x)
    u2 = b.curry(b.th_mpc(x, y))
    u3 = b.th_k(y, Implies(x, y))
    u4 = b.axiom("BL6", Implies(Implies(x, u), Implies(Implies(y, u), u)))
    u6 = b.mp(u3, b.mp(u2, u4))
    v2 = b.curry(b.th_mpc(y, x))
    v3 = b.th_k(x, Implies(y, x))
    v4 = b.axiom("BL6", Implies(Implies(x, v), Implies(Implies(y, v), v)))
    v6 = b.mp(v2, b.mp(v3, v4))
    w2 = b.mp(v6, b.th_k(v, u))
    return b.conj_pair(u6, w2)


#: The BL theorems (Hajek 1998, ch. 2) by name: (number of formula
#: arguments, recipe).
BL_THEOREMS = {
    "unit": (0, DerivationBuilder.th_one),
    "weakening": (2, DerivationBuilder.th_k),
    "strong-to-weak": (2, _strong_to_weak),
    "weak-projection": (2, _weak_projection),
    "implication-weak-intro": (2, DerivationBuilder.th_imp_weaken),
    "exchange": (3, DerivationBuilder.th_exchange),
    "conj-monotone": (4, DerivationBuilder.th_conj_mono),
    "prelinearity": (2, _prelinearity),
}


def _upper_one(b: DerivationBuilder, t: Term, a: Formula) -> int:
    """t:{<=1}a."""
    return b.mp(b.th_verum(), b.th_k(VERUM, Justified(t, a)))


def _lower_zero(b: DerivationBuilder, t: Term, a: Formula) -> int:
    """t:{>=0}a."""
    return b.axiom("BL7", Implies(FALSUM, Justified(t, a)))


def _refute(b: DerivationBuilder, refuted: Formula, other: Formula) -> int:
    """~refuted -> other, for ``refuted`` and ``other`` the two directions
    of one implication: a case split, then double negation."""
    s1 = b.axiom("BL6", Implies(Implies(refuted, FALSUM),
                                Implies(Implies(other, FALSUM), FALSUM)))
    s2 = b.axiom("L", Implies(Implies(Implies(other, FALSUM), FALSUM), other))
    return b.compose(s1, s2)


def _refute_upper(b: DerivationBuilder, t: Term, a: Formula, r: Fraction) -> int:
    """~t:{<=r}a -> t:{>=r}a."""
    j = Justified(t, a)
    return _refute(b, Implies(j, TruthConst(r)), Implies(TruthConst(r), j))


def _refute_lower(b: DerivationBuilder, t: Term, a: Formula, r: Fraction) -> int:
    """~t:{>=r}a -> t:{<=r}a."""
    j = Justified(t, a)
    return _refute(b, Implies(TruthConst(r), j), Implies(j, TruthConst(r)))


def _grade_weakening(b: DerivationBuilder, t: Term, a: Formula,
                     r: Fraction, r2: Fraction) -> int:
    """t:{>=r2}a -> t:{>=r}a for r <= r2."""
    return b.suffix(b.th_const_imp(r, r2), Justified(t, a))


def _exact_one_equivalence(b: DerivationBuilder, t: Term, a: Formula) -> int:
    """(t:{>=1}a) == (t:{==1}a)."""
    q = exact_expansion(ONE, t, a)
    return b.conj_pair(b.th_exact_one_intro(t, a), b.axiom("BL2", Implies(q, q.left)))


def _exact_one_unwrap(b: DerivationBuilder, t: Term, a: Formula) -> int:
    """(t:{==1}a) -> t:a."""
    q = exact_expansion(ONE, t, a)
    e3 = b.mp(b.axiom("BL2", Implies(q, q.left)), b.th_exchange(q, VERUM, q.left.right))
    return b.mp(b.th_verum(), e3)


def _dichotomy(b: DerivationBuilder, t: Term, a: Formula, r: Fraction) -> int:
    """(t:{>=r}a) \\/ (t:{<=r}a)."""
    return _prelinearity(b, TruthConst(r), Justified(t, a))


#: The graded theorems of RPLJ by name: (number of arguments, recipe).
#: Arity 2 takes (t, a), 3 takes (t, a, r) and 4 takes (t, a, low, high).
GRADED_THEOREMS = {
    "upper-one": (2, _upper_one),
    "lower-zero": (2, _lower_zero),
    "refute-upper": (3, _refute_upper),
    "refute-lower": (3, _refute_lower),
    "grade-weakening": (4, _grade_weakening),
    "exact-one-equivalence": (2, _exact_one_equivalence),
    "exact-one-unwrap": (2, _exact_one_unwrap),
    "grade-dichotomy": (3, _dichotomy),
}


def stock_derivation(name: str, *args) -> Derivation:
    """The derivation of the stock theorem ``name`` at ``args``: in BL for
    a name in :data:`BL_THEOREMS`, else in RPLJ for one in
    :data:`GRADED_THEOREMS`.  The formula arguments are expanded first."""
    if name in BL_THEOREMS:
        b, (_, recipe) = DerivationBuilder(_BL), BL_THEOREMS[name]
        recipe(b, *map(expand_sugar, args))
    else:
        b, (_, recipe) = DerivationBuilder(LogicConfig()), GRADED_THEOREMS[name]
        t, a, *grades = args
        recipe(b, t, expand_sugar(a), *grades)
    return b.build()


# ---------------------------------------------------------------------------
# Line-oriented derivation files

#: The word of each rule in a STEP line.  The rule's fields follow it in
#: order: a scheme name as written, a step index as a 1-based number.
_RULE_WORDS = {Ax: "AX", Hyp: "HYP", MP: "MP", Ian: "IAN", Gian: "GIAN"}
_RULES = {word: rule for rule, word in _RULE_WORDS.items()}


def format_derivation(d: Derivation) -> str:
    """The derivation file of ``d``; all formulas are printed in one
    shared walk, so a subformula common to many steps is rendered once."""
    texts = print_many(list(d.hypotheses) + [step.formula for step in d.steps])
    lines = [f"HYP {text}\n" for text in texts[:len(d.hypotheses)]]
    for idx, ((_, rule), text) in enumerate(zip(d.steps, texts[len(d.hypotheses):]), start=1):
        by = _RULE_WORDS[type(rule)]
        for value in rule if rule._fields else ():      # a tuple's fields, in order
            by += f" {value}" if type(value) is str else f" {value + 1}"
        lines.append(f"STEP {idx} {text} BY {by}\n")
    return "".join(lines) or "\n"       # no lines: one empty line


def _number(word: str) -> int:
    """A step number written in ASCII decimal digits."""
    if not (word.isascii() and word.isdecimal()):
        raise ValueError(word)
    return int(word)


def _formula(read, text: str, lineno: int) -> Formula:
    """``read(text)``, a parse error naming line ``lineno``."""
    try:
        return read(text)
    except ParseError as exc:
        raise exc.within(f"line {lineno}") from None


def _comment(line: str) -> bool:
    """Whether a stripped file line is a comment: it starts with ``#``
    and no digit follows, as one would in a truth constant such as ``#1/2``."""
    return line[:1] == "#" and not line[1:2].isdecimal()


def parse_derivation(text: str, config: Optional[LogicConfig] = None) -> Derivation:
    """The derivation a derivation file describes.  Its formulas share one
    reader, so a line, consequent or group repeated across lines is parsed
    once."""
    read = formula_reader(config)
    hypotheses: list = []
    steps: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or _comment(line):
            continue
        if line.startswith("HYP "):
            if steps:
                raise ProofError(f"line {lineno}: hypotheses must precede steps")
            hypotheses.append(_formula(read, line[4:].strip(), lineno))
            continue
        if not line.startswith("STEP "):
            raise ProofError(f"line {lineno}: expected HYP or STEP")
        rest = line[5:]
        try:
            number_text, rest = rest.split(" ", 1)
            number = _number(number_text)
            formula_text, by = rest.rsplit(" BY ", 1)
        except ValueError:
            raise ProofError(f"line {lineno}: malformed STEP line") from None
        if number != len(steps) + 1:
            raise ProofError(f"line {lineno}: expected step number {len(steps) + 1}")
        formula = _formula(read, formula_text.strip(), lineno)
        words = by.split()
        if not words or words[0] not in _RULES:
            raise ProofError(f"line {lineno}: unknown rule {by!r}")
        kind = _RULES[words[0]]
        try:
            if len(words) != 1 + len(kind._fields):
                raise ValueError
            rule = kind(*(word if kind is Ax else _number(word) - 1 for word in words[1:]))
        except ValueError:
            raise ProofError(f"line {lineno}: malformed rule {by!r}") from None
        steps.append(Step(formula, rule))
    return Derivation(tuple(hypotheses), tuple(steps))


def parse_cs(text: str, config: Optional[LogicConfig] = None) -> FiniteCS:
    """One entry formula per line; blank lines and comments ignored."""
    read = formula_reader(config)
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not _comment(line):
            entries.append(_formula(read, line, lineno))
    return FiniteCS(entries)
