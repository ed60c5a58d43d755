"""Hilbert-style proof kernel: derivations, constant specifications,
the checker, and constructors for the admissible graded rules.

The kernel trusts five step kinds only: hypothesis, axiom instance,
modus ponens and the two constant-introduction rules IAN (plain
systems) and GIAN (the Pavelka-based system).  Everything else, the
graded modus ponens rules, monotonicity, and the stock theorems used by
internalization, is macro-expanded by :class:`DerivationBuilder` into
primitive steps that the checker re-verifies.

Formula comparison throughout is identity of sugar-expanded normal
forms: nodes are interned (see :mod:`fjl.syntax`), so two formulas are
structurally equal exactly when they are one object.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Union

from .logics import Base, LogicConfig, axiom_instance_of, schemes_by_tag
from .parser import parse_formula
from .syntax import (
    App, Const, FALSUM, Formula, GradedExact, Implies, Justified, ONE,
    StrongConj, Sum, Term, TruthConst, VERUM, expand_sugar, print_formula, print_many,
)
from .tnorms import luka_tnorm


class ShapeError(ValueError):
    """A derived-rule constructor was fed a premise of the wrong shape."""


class ProofError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Derivations

@dataclass(frozen=True)
class Hyp:
    index: int


@dataclass(frozen=True)
class Ax:
    scheme: str


@dataclass(frozen=True)
class MP:
    antecedent: int
    implication: int


@dataclass(frozen=True)
class Ian:
    pass


@dataclass(frozen=True)
class Gian:
    pass


Rule = Union[Hyp, Ax, MP, Ian, Gian]


@dataclass(frozen=True)
class Step:
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

def _split_plain_layer(f: Formula):
    if isinstance(f, Justified) and isinstance(f.term, Const):
        return f.term.name, f.body
    return None


def _split_graded_layer(f: Formula):
    """Recognise c:{==1}B either as sugar or in primitive normal form."""
    if isinstance(f, GradedExact) and f.grade == ONE and isinstance(f.term, Const):
        return f.term.name, f.body
    if (isinstance(f, StrongConj)
            and isinstance(f.left, Implies)
            and f.left.left == VERUM
            and isinstance(f.left.right, Justified)
            and isinstance(f.left.right.term, Const)
            and isinstance(f.right, Implies)
            and f.right.left == f.left
            and isinstance(f.right.right, Implies)
            and f.right.right.left == f.left.right
            and f.right.right.right == VERUM):
        justified = f.left.right
        return justified.term.name, justified.body
    return None


def split_cs_layer(f: Formula, graded: bool):
    return _split_graded_layer(f) if graded else _split_plain_layer(f)


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

    mode = "finite"

    def __init__(self, entries: Iterable[Formula] = ()):
        self.entries = tuple(entries)
        self._expanded = frozenset(expand_sugar(e) for e in self.entries)

    def contains(self, f: Formula, config: LogicConfig) -> bool:
        return expand_sugar(f) in self._expanded

    def covers(self, constant: str, body: Formula, config: LogicConfig) -> bool:
        entry = cs_entry(constant, body, config.graded_necessitation)
        return self.contains(entry, config)

    def __repr__(self) -> str:
        return f"FiniteCS({len(self.entries)} entries)"


class TotalCS:
    """The schematic-total specification: every iterated constant
    justification of an axiom instance is admitted, and each axiom
    instance (or admitted entry) receives a canonical constant on
    demand.  The assignment map is synchronised so concurrent checks
    see one constant per formula."""

    mode = "total"

    def __init__(self, prefix: str = "c_"):
        self._prefix = prefix
        self._assigned: dict = {}
        self._formulas: dict = {}
        self._counter = 0
        self._lock = threading.Lock()

    def contains(self, f: Formula, config: LogicConfig) -> bool:
        constants, body = strip_cs_chain(expand_sugar(f), config.graded_necessitation)
        return bool(constants) and axiom_instance_of(body, config) is not None

    def covers(self, constant: str, body: Formula, config: LogicConfig) -> bool:
        inner_consts, inner = strip_cs_chain(expand_sugar(body), config.graded_necessitation)
        return axiom_instance_of(inner, config) is not None

    def constant_for(self, body: Formula) -> str:
        """Canonical constant justifying ``body`` (an axiom instance or entry)."""
        key = expand_sugar(body)
        with self._lock:
            name = self._assigned.get(key)
            if name is None:
                self._counter += 1
                name = f"{self._prefix}{self._counter}"
                self._assigned[key] = name
                self._formulas[name] = key
            return name

    def formula_for(self, constant: str) -> Formula:
        """The expanded formula ``constant_for`` assigned ``constant``;
        ``KeyError`` if it assigned it none."""
        with self._lock:
            return self._formulas[constant]


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
    """Downward closure and axiom-instance bodies, for finite specifications."""
    if isinstance(cs, TotalCS):
        return CSReport(ok=True)
    problems = []
    graded = config.graded_necessitation
    for entry in cs.entries:
        constants, body = strip_cs_chain(entry, graded)
        if not constants:
            problems.append(f"{print_formula(entry)}: not a constant-justification chain")
            continue
        if axiom_instance_of(body, config) is None:
            problems.append(f"{print_formula(entry)}: innermost body "
                            f"{print_formula(body)} is not an axiom instance")
        layer = split_cs_layer(entry, graded)
        tail = layer[1]
        if split_cs_layer(tail, graded) is not None and not cs.contains(tail, config):
            problems.append(f"{print_formula(entry)}: tail {print_formula(tail)} "
                            f"missing (downward closure)")
    return CSReport(ok=not problems, problems=problems)


# ---------------------------------------------------------------------------
# The checker

def _axiom_matches(name: str, f: Formula, config: LogicConfig) -> Optional[str]:
    schemes = schemes_by_tag(config).get(name)
    if schemes is None:
        return f"scheme {name!r} is not active in {config.name}"
    if any(scheme.match(f) is not None for scheme in schemes):
        return None
    return f"formula is not an instance of scheme {name!r}"


def check_derivation(d: Derivation, config: LogicConfig,
                     cs: ConstantSpecification) -> ProofReport:
    """Accept iff every step is justified by its rule tag."""
    hyps = [expand_sugar(h) for h in d.hypotheses]
    if not d.steps:
        return ProofReport(ok=False, step=0, reason="derivation has no steps")
    expanded = []
    for idx, step in enumerate(d.steps):
        f = expand_sugar(step.formula)
        rule = step.rule

        def fail(reason: str) -> ProofReport:
            return ProofReport(ok=False, step=idx, reason=reason)

        if isinstance(rule, Hyp):
            if not 0 <= rule.index < len(hyps):
                return fail(f"hypothesis index {rule.index + 1} out of range")
            if hyps[rule.index] != f:
                return fail(f"formula differs from hypothesis {rule.index + 1}")
        elif isinstance(rule, Ax):
            problem = _axiom_matches(rule.scheme, f, config)
            if problem:
                return fail(problem)
        elif isinstance(rule, MP):
            i, j = rule.antecedent, rule.implication
            if not (0 <= i < idx and 0 <= j < idx):
                return fail(f"MP references steps {i + 1}, {j + 1} not strictly earlier")
            imp = expanded[j]
            if not isinstance(imp, Implies):
                return fail(f"MP major premise (step {j + 1}) is not an implication")
            if imp.left != expanded[i]:
                return fail(f"MP antecedent (step {i + 1}) does not match the implication")
            if imp.right != f:
                return fail("MP conclusion differs from the implication's consequent")
        elif isinstance(rule, Ian):
            if not config.justified or config.graded_necessitation:
                return fail(f"rule IAN is not available in {config.name}")
            if not cs.contains(step.formula, config):
                return fail("formula is not in the constant specification")
        elif isinstance(rule, Gian):
            if not config.graded_necessitation:
                return fail(f"rule GIAN is not available in {config.name}")
            if not cs.contains(step.formula, config):
                return fail("formula is not in the constant specification")
        else:
            return fail(f"unknown rule {rule!r}")
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
        if isinstance(rule, MP):
            stack.extend((rule.antecedent, rule.implication))
    order = sorted(needed)
    remap = {old: new for new, old in enumerate(order)}
    steps = []
    for old in order:
        step = d.steps[old]
        rule = step.rule
        if isinstance(rule, MP):
            rule = MP(remap[rule.antecedent], remap[rule.implication])
        steps.append(Step(step.formula, rule))
    return Derivation(d.hypotheses, tuple(steps))


# ---------------------------------------------------------------------------
# Builder and macro-expanded rules

#: Provable unit in logics without rational constants (the negation of falsum).
UNIT = Implies(FALSUM, FALSUM)


class DerivationBuilder:
    """Accumulates primitive steps; every helper returns the index of the
    step holding its conclusion.  Duplicate formulas are shared."""

    def __init__(self, config: LogicConfig, cs: ConstantSpecification = EMPTY_CS,
                 hypotheses: Iterable[Formula] = ()):
        self.config = config
        self.cs = cs
        self.hypotheses = tuple(expand_sugar(h) for h in hypotheses)
        self.steps: list = []
        self._seen: dict = {}

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
        problem = _axiom_matches(name, f, self.config)
        if problem:
            raise ProofError(f"builder produced a bad axiom step: {problem}: "
                             f"{print_formula(f)}")
        return self._emit(f, Ax(name))

    def mp(self, antecedent: int, implication: int) -> int:
        imp = self.formula(implication)
        if not isinstance(imp, Implies) or imp.left != self.formula(antecedent):
            raise ProofError("builder modus ponens premises do not fit")
        return self._emit(imp.right, MP(antecedent, implication))

    def ian(self, formula: Formula) -> int:
        return self._emit(expand_sugar(formula), Ian())

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

    def prefix(self, i: int, b: Formula) -> int:
        """From X -> Y conclude (b -> X) -> (b -> Y)."""
        f = self.formula(i)
        bx, xy, by = Implies(b, f.left), f, Implies(b, f.right)
        s1 = self.axiom("BL1", Implies(bx, Implies(xy, by)))
        s2 = self.th_exchange(bx, xy, by)
        return self.mp(i, self.mp(s1, s2))

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
        layer = _split_graded_layer(q)
        if layer is None and not (isinstance(q, StrongConj) and isinstance(q.left, Implies)):
            raise ShapeError("premise is not an exact-grade-1 assertion")
        p = q.left
        bl2 = self.axiom("BL2", Implies(q, p))
        return self.mp(i, bl2)


# ---------------------------------------------------------------------------
# Public derived-rule constructors

def _default_config() -> LogicConfig:
    return LogicConfig()           # RPLJ


def build_gmp(graded_implication: Formula, graded_antecedent: Formula,
              config: Optional[LogicConfig] = None) -> Derivation:
    """Fragment deriving #(r *L r') -> B from #r -> (A -> B) and #r' -> A."""
    config = config or _default_config()
    b = DerivationBuilder(config, EMPTY_CS,
                          hypotheses=[graded_implication, graded_antecedent])
    b.gmp(b.hyp(0), b.hyp(1))
    return b.build()


def build_jgmp(graded_justified_implication: Formula, graded_justified_antecedent: Formula,
               config: Optional[LogicConfig] = None) -> Derivation:
    """Fragment deriving #(r *L r') -> (s.t):B from graded premises."""
    config = config or _default_config()
    b = DerivationBuilder(config, EMPTY_CS,
                          hypotheses=[graded_justified_implication,
                                      graded_justified_antecedent])
    b.jgmp(b.hyp(0), b.hyp(1))
    return b.build()


def build_mon(graded_justified: Formula, side: str, t: Term,
              config: Optional[LogicConfig] = None) -> Derivation:
    """Fragment deriving #r -> (s+t):A (side 'right') or #r -> (t+s):A ('left')."""
    config = config or _default_config()
    b = DerivationBuilder(config, EMPTY_CS, hypotheses=[graded_justified])
    b.mon(b.hyp(0), side, t)
    return b.build()


def power_formula(a: Formula, n: int) -> Formula:
    """Left-nested strong conjunction of n copies of ``a``."""
    if n < 1:
        raise ValueError("power needs n >= 1")
    out = a
    for _ in range(n - 1):
        out = StrongConj(out, a)
    return out


# ---------------------------------------------------------------------------
# Stock theorems with golden derivations

_BL = LogicConfig(base=Base.BL, justified=False)


def _bl_builder() -> DerivationBuilder:
    return DerivationBuilder(_BL, EMPTY_CS)


def theorem_unit() -> Derivation:
    """The provable unit ~#0."""
    b = _bl_builder()
    b.th_one()
    return b.build()


def theorem_weakening(a: Formula, c: Formula) -> Derivation:
    """a -> (c -> a)."""
    b = _bl_builder()
    b.th_k(expand_sugar(a), expand_sugar(c))
    return b.build()


def theorem_strong_to_weak(a: Formula, c: Formula) -> Derivation:
    """(a & c) -> (a /\\ c)."""
    b = _bl_builder()
    a, c = expand_sugar(a), expand_sugar(c)
    k = b.th_k(c, a)
    b.mono_right(k, a)
    return b.build()


def theorem_weak_projection(a: Formula, c: Formula) -> Derivation:
    """(a /\\ c) -> a."""
    b = _bl_builder()
    a, c = expand_sugar(a), expand_sugar(c)
    b.axiom("BL2", Implies(StrongConj(a, Implies(a, c)), a))
    return b.build()


def theorem_implication_weak_intro(a: Formula, c: Formula) -> Derivation:
    """(a -> c) -> (a -> (a /\\ c))."""
    b = _bl_builder()
    b.th_imp_weaken(expand_sugar(a), expand_sugar(c))
    return b.build()


def theorem_exchange(a: Formula, c: Formula, e: Formula) -> Derivation:
    """(a -> (c -> e)) -> (c -> (a -> e))."""
    b = _bl_builder()
    b.th_exchange(expand_sugar(a), expand_sugar(c), expand_sugar(e))
    return b.build()


def theorem_conj_monotone(a1: Formula, b1: Formula,
                          a2: Formula, b2: Formula) -> Derivation:
    """((a1 -> b1) & (a2 -> b2)) -> ((a1 & a2) -> (b1 & b2))."""
    b = _bl_builder()
    b.th_conj_mono(expand_sugar(a1), expand_sugar(b1),
                   expand_sugar(a2), expand_sugar(b2))
    return b.build()


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


def theorem_prelinearity(a: Formula, c: Formula) -> Derivation:
    """(a -> c) \\/ (c -> a)."""
    b = _bl_builder()
    _prelinearity(b, expand_sugar(a), expand_sugar(c))
    return b.build()


BL_THEOREMS = {
    1: ("unit", theorem_unit, 0),
    2: ("weakening", theorem_weakening, 2),
    3: ("strong-to-weak", theorem_strong_to_weak, 2),
    4: ("weak-projection", theorem_weak_projection, 2),
    5: ("implication-weak-intro", theorem_implication_weak_intro, 2),
    6: ("exchange", theorem_exchange, 3),
    7: ("conj-monotone", theorem_conj_monotone, 4),
    8: ("prelinearity", theorem_prelinearity, 2),
}


# -- graded justification theorems (Pavelka base with justifications) -------

def _rpl_builder() -> DerivationBuilder:
    return DerivationBuilder(_default_config(), EMPTY_CS)


def graded_upper_one(t: Term, a: Formula) -> Derivation:
    """t:{<=1}a."""
    b = _rpl_builder()
    j = Justified(t, expand_sugar(a))
    b.mp(b.th_verum(), b.th_k(VERUM, j))
    return b.build()


def graded_lower_zero(t: Term, a: Formula) -> Derivation:
    """t:{>=0}a."""
    b = _rpl_builder()
    b.axiom("BL7", Implies(FALSUM, Justified(t, expand_sugar(a))))
    return b.build()


def graded_refute_upper(t: Term, a: Formula, r: Fraction) -> Derivation:
    """~t:{<=r}a -> t:{>=r}a."""
    b = _rpl_builder()
    j = Justified(t, expand_sugar(a))
    x, y = Implies(TruthConst(r), j), Implies(j, TruthConst(r))
    s1 = b.axiom("BL6", Implies(Implies(y, FALSUM),
                                Implies(Implies(x, FALSUM), FALSUM)))
    s2 = b.axiom("L", Implies(Implies(Implies(x, FALSUM), FALSUM), x))
    b.compose(s1, s2)
    return b.build()


def graded_refute_lower(t: Term, a: Formula, r: Fraction) -> Derivation:
    """~t:{>=r}a -> t:{<=r}a."""
    b = _rpl_builder()
    j = Justified(t, expand_sugar(a))
    x, y = Implies(TruthConst(r), j), Implies(j, TruthConst(r))
    s1 = b.axiom("BL6", Implies(Implies(x, FALSUM),
                                Implies(Implies(y, FALSUM), FALSUM)))
    s2 = b.axiom("L", Implies(Implies(Implies(y, FALSUM), FALSUM), y))
    b.compose(s1, s2)
    return b.build()


def graded_weakening(t: Term, a: Formula, r: Fraction, r2: Fraction) -> Derivation:
    """t:{>=r2}a -> t:{>=r}a for r <= r2."""
    if r > r2:
        raise ShapeError(f"need {r} <= {r2}")
    b = _rpl_builder()
    j = Justified(t, expand_sugar(a))
    ci = b.th_const_imp(r, r2)
    b.suffix(ci, j)
    return b.build()


def graded_exact_one_equivalence(t: Term, a: Formula) -> Derivation:
    """(t:{>=1}a) == (t:{==1}a)."""
    b = _rpl_builder()
    j = Justified(t, expand_sugar(a))
    p, y = Implies(VERUM, j), Implies(j, VERUM)
    q = StrongConj(p, Implies(p, y))
    d5 = b.th_exact_one_intro(t, a)
    d6 = b.axiom("BL2", Implies(q, p))
    b.conj_pair(d5, d6)
    return b.build()


def graded_exact_one_unwrap(t: Term, a: Formula) -> Derivation:
    """(t:{==1}a) -> t:a."""
    b = _rpl_builder()
    j = Justified(t, expand_sugar(a))
    p, y = Implies(VERUM, j), Implies(j, VERUM)
    q = StrongConj(p, Implies(p, y))
    d6 = b.axiom("BL2", Implies(q, p))
    e2 = b.th_exchange(q, VERUM, j)
    e3 = b.mp(d6, e2)
    b.mp(b.th_verum(), e3)
    return b.build()


def graded_dichotomy(t: Term, a: Formula, r: Fraction) -> Derivation:
    """(t:{>=r}a) \\/ (t:{<=r}a)."""
    b = _rpl_builder()
    _prelinearity(b, TruthConst(r), Justified(t, expand_sugar(a)))
    return b.build()


GRADED_THEOREMS = {
    1: ("upper-one", graded_upper_one),
    2: ("lower-zero", graded_lower_zero),
    3: ("refute-upper", graded_refute_upper),
    4: ("refute-lower", graded_refute_lower),
    5: ("grade-weakening", graded_weakening),
    6: ("exact-one-equivalence", graded_exact_one_equivalence),
    7: ("exact-one-unwrap", graded_exact_one_unwrap),
    8: ("grade-dichotomy", graded_dichotomy),
}


# ---------------------------------------------------------------------------
# Line-oriented derivation files

#: The rule words of a STEP line, with the number of words each takes.
_RULE_ARITY = {"AX": 1, "HYP": 1, "MP": 2, "IAN": 0, "GIAN": 0}


def format_derivation(d: Derivation) -> str:
    """The derivation file of ``d``; all formulas are printed in one
    shared walk, so a subformula common to many steps is rendered once."""
    texts = print_many(list(d.hypotheses) + [step.formula for step in d.steps])
    lines = [f"HYP {text}" for text in texts[:len(d.hypotheses)]]
    for idx, (step, text) in enumerate(zip(d.steps, texts[len(d.hypotheses):]), start=1):
        rule = step.rule
        if isinstance(rule, Ax):
            by = f"AX {rule.scheme}"
        elif isinstance(rule, Hyp):
            by = f"HYP {rule.index + 1}"
        elif isinstance(rule, MP):
            by = f"MP {rule.antecedent + 1} {rule.implication + 1}"
        elif isinstance(rule, Ian):
            by = "IAN"
        else:
            by = "GIAN"
        lines.append(f"STEP {idx} {text} BY {by}")
    return "\n".join(lines) + "\n"


def parse_derivation(text: str, config: Optional[LogicConfig] = None) -> Derivation:
    hypotheses: list = []
    steps: list = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("HYP "):
            if steps:
                raise ProofError(f"line {lineno}: hypotheses must precede steps")
            hypotheses.append(parse_formula(line[4:].strip(), config))
            continue
        if not line.startswith("STEP "):
            raise ProofError(f"line {lineno}: expected HYP or STEP")
        rest = line[5:]
        try:
            number_text, rest = rest.split(" ", 1)
            number = int(number_text)
            formula_text, by = rest.rsplit(" BY ", 1)
        except ValueError:
            raise ProofError(f"line {lineno}: malformed STEP line") from None
        if number != len(steps) + 1:
            raise ProofError(f"line {lineno}: expected step number {len(steps) + 1}")
        formula = parse_formula(formula_text.strip(), config)
        words = by.split()
        if not words or words[0] not in _RULE_ARITY:
            raise ProofError(f"line {lineno}: unknown rule {by!r}")
        kind = words[0]
        try:
            if len(words) != 1 + _RULE_ARITY[kind]:
                raise ValueError
            if kind == "AX":
                rule: Rule = Ax(words[1])
            elif kind == "HYP":
                rule = Hyp(int(words[1]) - 1)
            elif kind == "MP":
                rule = MP(int(words[1]) - 1, int(words[2]) - 1)
            elif kind == "IAN":
                rule = Ian()
            else:
                rule = Gian()
        except ValueError:
            raise ProofError(f"line {lineno}: malformed rule {by!r}") from None
        steps.append(Step(formula, rule))
    return Derivation(tuple(hypotheses), tuple(steps))


def parse_cs(text: str, config: Optional[LogicConfig] = None) -> FiniteCS:
    """One entry formula per line; blank lines and # comments ignored."""
    entries = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            entries.append(parse_formula(line, config))
    return FiniteCS(entries)
