"""Named, seeded property suites: every headline fact the workbench
relies on, packaged as a reproducible check.

Each suite returns a :class:`SuiteReport` that is bit-for-bit
deterministic for a fixed seed and configuration.  The registry at the
bottom is what the command line exposes.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .generate import (
    ModelParams, SearchBudget, find_countermodel, random_derivation,
    random_formula, random_model, random_scheme_instance, random_term,
)
from .lifting import degree_interval, lift
from .logics import LogicConfig, active_schemes
from .models import (
    FittingModel, crisp_eval, embed_rpl_valuation, eval_formula, eval_validated,
    eval_worlds, validate_model,
)
from .parser import parse_formula
from .proofs import (
    BL_THEOREMS, EMPTY_CS, GRADED_THEOREMS, TotalCS, check_derivation, stock_derivation,
)
from .syntax import (
    App, Formula, GradedAtLeast, GradedAtMost, GradedExact, Implies,
    Justified, ONE, Prop, StrongConj, Sum, TruthConst, ZERO, expand_sugar,
    justified_pairs, print_formula, term_dag_size,
)
from .tnorms import (
    KERNELS, TNormKind, check_adjunction, kernel_grid, luka_tnorm, tnorm_apply,
    unit_rationals,
)


@dataclass
class SuiteFailure:
    case: str
    message: str

    def __str__(self) -> str:
        return f"{self.case}: {self.message}"


@dataclass
class SuiteReport:
    name: str
    cases: int = 0
    failures: list = field(default_factory=list)
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def fail(self, case: str, message: str) -> None:
        self.failures.append(SuiteFailure(case, message))

    def summary(self) -> str:
        status = "pass" if self.ok else f"FAIL ({len(self.failures)})"
        head = f"suite {self.name}: {self.cases} cases, {status}, {self.seconds:.2f}s"
        tail = [f"  {f}" for f in self.failures[:20]]
        if len(self.failures) > 20:
            tail.append(f"  ... {len(self.failures) - 20} more")
        return "\n".join([head] + tail)

    def to_dict(self) -> dict:
        return {
            "suite": self.name,
            "cases": self.cases,
            "ok": self.ok,
            "failures": [{"case": f.case, "message": f.message} for f in self.failures],
            "seconds": round(self.seconds, 3),
        }


def _timed(fn):
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        report = fn(*args, **kwargs)
        report.seconds = time.perf_counter() - start
        return report
    return wrapper


_RPLJ = LogicConfig.from_name("RPLJ")
_BLJ = LogicConfig.from_name("BLJ")


# ---------------------------------------------------------------------------
# Algebra suites

@_timed
def adjunction_suite(bound: int = 8, **_) -> SuiteReport:
    """x*z <= y iff z <= (x => y), exhaustively on the rational grid."""
    report = SuiteReport(f"adjunction(den<={bound})")
    for kind in TNormKind:
        grid = check_adjunction(kind, bound)
        report.cases += grid.triples
        for (x, y, z) in grid.violations:
            report.fail(f"{kind.code}", f"x={x} y={y} z={z}")
    return report


@_timed
def tnorm_laws_suite(bound: int = 6, **_) -> SuiteReport:
    """Commutativity, associativity, monotonicity and the unit, exactly."""
    report = SuiteReport(f"tnorm-laws(den<={bound})")
    grid = unit_rationals(bound)
    for kind in TNormKind:
        for x in grid:
            report.cases += 1
            if tnorm_apply(kind, ONE, x) != x:
                report.fail(kind.code, f"1 * {x} != {x}")
            for y in grid:
                report.cases += 1
                if tnorm_apply(kind, x, y) != tnorm_apply(kind, y, x):
                    report.fail(kind.code, f"commutativity at {x}, {y}")
        for x, y, z in itertools.product(grid, repeat=3):
            report.cases += 1
            left = tnorm_apply(kind, tnorm_apply(kind, x, y), z)
            right = tnorm_apply(kind, x, tnorm_apply(kind, y, z))
            if left != right:
                report.fail(kind.code, f"associativity at {x}, {y}, {z}")
            if x <= y and tnorm_apply(kind, x, z) > tnorm_apply(kind, y, z):
                report.fail(kind.code, f"monotonicity at {x} <= {y}, {z}")
    return report


@_timed
def residuum_monotonicity_suite(bound: int = 8, **_) -> SuiteReport:
    """The Lukasiewicz implication kernel is antitone left, monotone right,
    and multiplicative across products, on the grid D = lcm(1..bound)."""
    report = SuiteReport(f"residuum-monotonicity(den<={bound})")
    conj, imp = KERNELS[TNormKind.LUKASIEWICZ]
    grid = unit_rationals(bound)
    top, put, _ = kernel_grid(TNormKind.LUKASIEWICZ, grid)
    points = put(grid)
    n = len(points)
    res = [imp([x] * n, points, top) for x in points]      # res[i][j] = x_i => x_j
    meet = [conj([x] * n, points, top) for x in points]    # meet[i][j] = x_i * x_j
    for i, i2, j in itertools.product(range(n), repeat=3):
        report.cases += 1
        if i2 <= i and res[i][j] > res[i2][j]:
            report.fail("antitone-left", f"x'={grid[i2]} x={grid[i]} y={grid[j]}")
        if i <= i2 and res[j][i] > res[j][i2]:
            report.fail("monotone-right", f"y={grid[j]} x={grid[i]} x'={grid[i2]}")
    for i, i2, j in itertools.product(range(n), repeat=3):
        # every y' at once: (x => x') * (y => y') <= (x * y) => (x' * y')
        left = conj([res[i][i2]] * n, res[j], top)
        right = imp([meet[i][j]] * n, meet[i2], top)
        report.cases += n
        for k in range(n):
            if left[k] > right[k]:
                report.fail("product-transfer",
                            f"x={grid[i]} x'={grid[i2]} y={grid[j]} y'={grid[k]}")
    return report


# ---------------------------------------------------------------------------
# Derivation suites

def _bl_theorem_instances(rng: random.Random) -> list:
    """One random instantiation of each stock theorem, with its derivation."""
    args = [random_formula(rng, _BLJ, 2) for _ in range(4)]
    return [(name, stock_derivation(name, *args[:arity]))
            for name, (arity, _) in BL_THEOREMS.items()]


def _graded_theorem_instances(rng: random.Random) -> list:
    """One random instantiation of each graded theorem, with its derivation."""
    t = random_term(rng, 1)
    a = random_formula(rng, _RPLJ, 2)
    r, r2 = Fraction(rng.randint(0, 6), 6), Fraction(rng.randint(0, 6), 6)
    args = {2: (t, a), 3: (t, a, r), 4: (t, a, min(r, r2), max(r, r2))}
    return [(name, stock_derivation(name, *args[arity]))
            for name, (arity, _) in GRADED_THEOREMS.items()]


def _theorem_suite(name: str, config: LogicConfig, instances_fn,
                   count: int, seed: int) -> SuiteReport:
    report = SuiteReport(name)
    cs = TotalCS()
    for k in range(count):
        rng = random.Random(seed + k)
        instances = instances_fn(rng)
        model = random_model(seed + k, ModelParams(), config, cs)
        conclusions = []
        for label, derivation in instances:
            report.cases += 1
            check = check_derivation(derivation, config, cs)
            if not check.ok:
                report.fail(f"{label}@{seed + k}", check.summary())
                continue
            conclusions.append((label, expand_sugar(derivation.conclusion)))
        rows = eval_validated(model, config, cs, [c for _, c in conclusions])
        if rows is None:
            report.fail(f"model@{seed + k}", "generated model failed validation")
            continue
        for (label, conclusion), values in zip(conclusions, rows):
            for w, value in values.items():
                if value != ONE:
                    report.fail(f"{label}@{seed + k}",
                                f"value < 1 at {w}: {print_formula(conclusion)}")
    return report


@_timed
def bl_theorems_suite(count: int = 50, seed: int = 0, **_) -> SuiteReport:
    return _theorem_suite("bl-theorems", _BLJ, _bl_theorem_instances, count, seed)


@_timed
def graded_theorems_suite(count: int = 50, seed: int = 0, **_) -> SuiteReport:
    return _theorem_suite("graded-theorems", _RPLJ, _graded_theorem_instances, count, seed)


@_timed
def lift_suite(count: int = 50, seed: int = 0, moves: int = 6, **_) -> SuiteReport:
    """Fuzzed accepted derivations lift, re-check and stay small."""
    report = SuiteReport("lift")
    for k in range(count):
        report.cases += 1
        rng = random.Random(seed + k)
        cs = TotalCS()
        d = random_derivation(rng, _RPLJ, cs, moves=moves)
        if not check_derivation(d, _RPLJ, cs).ok:
            report.fail(f"seed {seed + k}", "fuzzed input derivation rejected")
            continue
        term, lifted = lift(d, cs, _RPLJ)
        check = check_derivation(lifted, _RPLJ, cs)
        if not check.ok:
            report.fail(f"seed {seed + k}", f"lift output rejected: {check.summary()}")
            continue
        expected = expand_sugar(GradedExact(ONE, term, d.conclusion))
        if expand_sugar(lifted.conclusion) != expected:
            report.fail(f"seed {seed + k}", "lift conclusion has the wrong shape")
        if term_dag_size(term) > len(d.steps):
            report.fail(f"seed {seed + k}",
                        f"term has {term_dag_size(term)} nodes for {len(d.steps)} steps")
    return report


# ---------------------------------------------------------------------------
# Semantic suites

_SOUNDNESS_BATTERIES: tuple = (
    ("BLJ", TNormKind.LUKASIEWICZ),
    ("BLJ", TNormKind.GOEDEL),
    ("BLJ", TNormKind.PRODUCT),
    ("LJ", None),
    ("GJ", None),
    ("PiJ", None),
    ("RPLJ", None),
)


@_timed
def soundness_suite(count: int = 60, seed: int = 0,
                    logic: Optional[str] = None, **_) -> SuiteReport:
    """Every active axiom instance takes value 1 in every generated valid
    model; modus ponens preserves value 1.  Each seed's model, instances
    and premises are drawn once per logic and checked under each of its
    batteries' t-norms (BLJ: L, G, P; a given t-norm moves no other draw).
    Failures are reported battery by battery, in battery order."""
    batteries = _SOUNDNESS_BATTERIES if logic is None else ((logic, None),)
    report = SuiteReport("soundness" if logic is None else f"soundness({logic})")
    for logic_name, group in itertools.groupby(batteries, key=lambda battery: battery[0]):
        kinds = [kind for _, kind in group]
        config = LogicConfig.from_name(logic_name)
        cs = TotalCS()
        params = ModelParams(tnorm=kinds[0])
        schemes = active_schemes(config)
        parts = [SuiteReport(report.name) for _ in kinds]
        for k in range(count):
            rng = random.Random(seed + k)
            drawn = random_model(seed + k, params, config, cs)
            instances = [(scheme.name, random_scheme_instance(rng, scheme, config, 2))
                         for scheme in schemes]
            # sampled premises of modus ponens, evaluated with the instances
            a = expand_sugar(random_formula(rng, config, 2))
            b = expand_sugar(random_formula(rng, config, 2))
            formulas = [inst for _, inst in instances] + [a, Implies(a, b), b]
            models = [drawn] + [replace(drawn, tnorm=kind) for kind in kinds[1:]]
            for kind, part, model in zip(kinds, parts, models):
                rows = eval_validated(model, config, cs, formulas)
                if rows is None:
                    part.fail(f"{logic_name}/{kind}@{seed + k}",
                              "generated model failed validation")
                    continue
                *values, va, vab, vb = rows
                for (name, inst), inst_values in zip(instances, values):
                    part.cases += 1
                    for w, value in inst_values.items():
                        if value != ONE:
                            part.fail(f"{logic_name}/{name}@{seed + k}",
                                      f"axiom instance {print_formula(inst)} = {value} at {w}")
                # modus ponens preserves value 1
                part.cases += 1
                for w in model.worlds:
                    if va[w] == ONE and vab[w] == ONE and vb[w] != ONE:
                        part.fail(f"{logic_name}/MP@{seed + k}", f"not preserved at {w}")
        for part in parts:
            report.cases += part.cases
            report.failures += part.failures
    return report


@_timed
def graded_semantics_suite(count: int = 100, seed: int = 0, **_) -> SuiteReport:
    """t:{>=r}A, t:{<=r}A and t:{==r}A take value 1 exactly at the
    threshold relations on the value of t:A."""
    report = SuiteReport("graded-semantics")
    cs = TotalCS()
    for k in range(count):
        rng = random.Random(seed + k)
        model = random_model(seed + k, ModelParams(), _RPLJ, cs)
        t = random_term(rng, 1)
        a = random_formula(rng, _RPLJ, 2)
        r = Fraction(rng.randint(0, 8), 8)
        forms = (GradedAtLeast(r, t, a), GradedAtMost(r, t, a), GradedExact(r, t, a))
        rows = eval_validated(model, _RPLJ, cs, [Justified(t, a), *forms])
        if rows is None:
            report.fail(f"seed {seed + k}", "generated model failed validation")
            continue
        justified, *form_values = rows
        for w, value in justified.items():
            report.cases += 1
            relations = (value >= r, value <= r, value == r)
            for form, values, expected in zip(forms, form_values, relations):
                if (values[w] == ONE) != expected:
                    report.fail(f"seed {seed + k}",
                                f"{print_formula(form)} mismatch at {w}: "
                                f"value(t:A)={value}")
    return report


def _uncertainty_principles(rng: random.Random) -> list:
    s, t = random_term(rng, 1), random_term(rng, 1)
    a = random_formula(rng, _RPLJ, 1)
    b = random_formula(rng, _RPLJ, 1)
    r = Fraction(rng.randint(0, 6), 6)
    r2 = Fraction(rng.randint(0, 6), 6)
    low, high = min(r, r2), max(r, r2)
    return [
        ("application", Implies(
            GradedAtLeast(r, s, Implies(a, b)),
            Implies(GradedAtLeast(r2, t, a),
                    GradedAtLeast(luka_tnorm(r, r2), App(s, t), b)))),
        ("sum-right", Implies(GradedAtLeast(r, s, a),
                              GradedAtLeast(r, Sum(s, t), a))),
        ("sum-left", Implies(GradedAtLeast(r, s, a),
                             GradedAtLeast(r, Sum(t, s), a))),
        ("grade-weakening", Implies(GradedAtLeast(high, t, a),
                                    GradedAtLeast(low, t, a))),
    ]


@_timed
def uncertainty_suite(count: int = 100, seed: int = 0, **_) -> SuiteReport:
    """The uncertain-justification principles hold in every valid model
    of the graded system."""
    report = SuiteReport("uncertainty")
    cs = TotalCS()
    for k in range(count):
        rng = random.Random(seed + k)
        model = random_model(seed + k, ModelParams(), _RPLJ, cs)
        principles = [(n, expand_sugar(f)) for n, f in _uncertainty_principles(rng)]
        rows = eval_validated(model, _RPLJ, cs, [f for _, f in principles])
        if rows is None:
            report.fail(f"seed {seed + k}", "generated model failed validation")
            continue
        for (name, f), values in zip(principles, rows):
            report.cases += 1
            for w, value in values.items():
                if value != ONE:
                    report.fail(f"{name}@{seed + k}",
                                f"{print_formula(f)} = {value} at {w}")
    return report


@_timed
def frames_suite(count: int = 60, seed: int = 0, **_) -> SuiteReport:
    """Factivity holds on reflexive models, consistency on serial ones,
    and countermodels exist once the frame property is dropped."""
    report = SuiteReport("frames")
    cs = TotalCS()
    jt_config = LogicConfig.from_name("RPLJ", extras=("jT",))
    jd_config = LogicConfig.from_name("RPLJ", extras=("jD",))
    jd = expand_sugar(parse_formula("~t:#0"))
    for k in range(count):
        rng = random.Random(seed + k)
        t = random_term(rng, 1)
        a = random_formula(rng, _RPLJ, 2)
        jt = expand_sugar(Implies(Justified(t, a), a))
        for label, config, goal, offset, frame, law in (
                ("jT", jt_config, jt, 0, "reflexive", "factivity"),
                ("jD", jd_config, jd, 10_000, "serial", "consistency")):
            model = random_model(offset + seed + k, ModelParams(), config, cs)
            report.cases += 1
            rows = eval_validated(model, config, cs, [goal])
            if rows is None:
                report.fail(f"{label}@{seed + k}", f"{frame} model failed validation")
                continue
            for w, value in rows[0].items():
                if value != ONE:
                    report.fail(f"{label}@{seed + k}", f"{law} = {value} at {w}")
    # dropping the frame property admits countermodels
    budget = SearchBudget(max_worlds=3, max_denominator=12, trials=300, seed=seed)
    for label, text in (("jT", "t:p -> p"), ("jD", "~t:#0")):
        report.cases += 1
        hit = find_countermodel(parse_formula(text), _RPLJ, EMPTY_CS, budget)
        if hit is None:
            report.fail(f"{label}-countermodel", "no countermodel within budget")
        else:
            model, w = hit
            value = eval_formula(model, w, parse_formula(text))
            if value >= ONE:
                report.fail(f"{label}-countermodel", "witness does not refute")
    return report


@_timed
def crisp_suite(**_) -> SuiteReport:
    """On Boolean models the fuzzy clauses agree with the classical ones
    for every t-norm, exhaustively over frames, valuations and evidence."""
    report = SuiteReport("crisp")
    formulas = [parse_formula(text) for text in (
        "p", "q", "#0", "#1", "~p",
        "p -> q", "p -> (q -> p)", "(p -> q) -> p",
        "x1:p", "c1:q", "x1:(p -> q)", "x1:p -> p", "~x1:#0",
        "x1:c1:p", "x1:(p -> q) -> (x1:p -> q)", "x1:~p",
        "#0 -> x1:p", "(p -> #0) -> (x1:q -> q)",
    )]
    props = ("p", "q")
    for f in formulas:
        g = expand_sugar(f)
        pairs = sorted(justified_pairs(g), key=str)
        for n_worlds in (1, 2):
            worlds = tuple(f"w{i}" for i in range(n_worlds))
            world_pairs = [(a, b) for a in worlds for b in worlds]
            prop_slots = [(w, p) for w in worlds for p in props]
            evid_slots = [(w, t, a) for w in worlds for (t, a) in pairs]
            for frame_bits in itertools.product((False, True), repeat=len(world_pairs)):
                access = frozenset(pair for pair, bit in zip(world_pairs, frame_bits) if bit)
                for val_bits in itertools.product((ZERO, ONE), repeat=len(prop_slots)):
                    valuation = dict(zip(prop_slots, val_bits))
                    for ev_bits in itertools.product((ZERO, ONE), repeat=len(evid_slots)):
                        evidence = dict(zip(evid_slots, ev_bits))
                        for kind in TNormKind:
                            model = FittingModel(
                                worlds=worlds, access=access, tnorm=kind,
                                valuation=valuation, evidence=evidence)
                            for w, fuzzy in eval_worlds(model, g).items():
                                report.cases += 1
                                classical = crisp_eval(model, w, g)
                                if fuzzy != classical:
                                    report.fail(print_formula(f),
                                                f"{w}: fuzzy {fuzzy} vs crisp {classical}")
    return report


def _direct_luka_value(f: Formula, valuation: dict) -> Fraction:
    """Independent evaluator for justification-free formulas."""
    if isinstance(f, TruthConst):
        return f.value
    if isinstance(f, Prop):
        return valuation.get(f.name, ZERO)
    if isinstance(f, Implies):
        a = _direct_luka_value(f.left, valuation)
        b = _direct_luka_value(f.right, valuation)
        return ONE if a <= b else ONE - a + b
    if isinstance(f, StrongConj):
        a = _direct_luka_value(f.left, valuation)
        b = _direct_luka_value(f.right, valuation)
        return max(ZERO, a + b - 1)
    raise ValueError(f"not justification-free: {f!r}")


@_timed
def conservativity_suite(count: int = 200, seed: int = 0, **_) -> SuiteReport:
    """Embedding a plain Pavelka valuation into a one-point model with
    constant evidence preserves every justification-free value, and
    justified formulas all take value 1 there."""
    report = SuiteReport("conservativity")
    rpl = LogicConfig.from_name("RPL")
    for k in range(count):
        report.cases += 1
        rng = random.Random(seed + k)
        valuation = {p: Fraction(rng.randint(0, 8), 8) for p in ("p", "q", "r")}
        f = expand_sugar(random_formula(rng, rpl, 3))
        model = embed_rpl_valuation(valuation)
        expected = _direct_luka_value(f, valuation)
        got = eval_formula(model, "w0", f)
        if got != expected:
            report.fail(f"seed {seed + k}",
                        f"{print_formula(f)}: embedded {got} vs direct {expected}")
        justified = Justified(random_term(rng, 2), f)
        if eval_formula(model, "w0", justified) != ONE:
            report.fail(f"seed {seed + k}", "justified formula not constant 1")
    return report


# ---------------------------------------------------------------------------
# Degrees

@dataclass(frozen=True)
class DegreeCase:
    hypotheses: tuple
    goal: str
    exact: Optional[Fraction] = None


DEGREE_CORPUS: tuple = (
    # ten constructions whose degree is pinned down by hand
    DegreeCase(("#1/2 -> p",), "p", Fraction(1, 2)),
    DegreeCase((), "p", Fraction(0)),
    DegreeCase((), "(p & q) -> (q & p)", Fraction(1)),
    DegreeCase(("#2/3 -> p", "#3/4 -> q"), "p & q", Fraction(5, 12)),
    DegreeCase(("#1/2 -> t:p",), "t:p", Fraction(1, 2)),
    DegreeCase(("#3/4 -> s:(p -> q)", "#1/2 -> t:p"), "s.t:q", Fraction(1, 4)),
    DegreeCase((), "#1/3", Fraction(1, 3)),
    DegreeCase(("p",), "p", Fraction(1)),
    DegreeCase(("#1/2 -> p",), "p & p", Fraction(0)),
    DegreeCase(("t:p",), "p", Fraction(0)),
    # sandwich-only battery
    DegreeCase(("p -> q", "p"), "q"),
    DegreeCase(("#1/2 -> s:p",), "s+t:p"),
    DegreeCase(("#2/3 -> s:(p -> q)",), "t:p -> s.t:q"),
    DegreeCase(("q",), "p -> q"),
    DegreeCase(("#1/2 -> p", "#1/3 -> q"), "p /\\ q"),
    DegreeCase(("s:(p -> q)", "t:p"), "s.t:q"),
    DegreeCase(("#3/4 -> x1:p",), "x1+x2:{>=3/4}p"),
    DegreeCase(("c1:{==1}((p & q) -> p)",), "c1:((p & q) -> p)"),
    DegreeCase(("#5/6 -> t:p", "p"), "t:p & p"),
    DegreeCase(("~p",), "p"),
    DegreeCase(("#1/2 -> p",), "~p"),
    DegreeCase(("p \\/ q",), "q"),
    DegreeCase(("t:{>=1/2}p", "s:{>=1/2}(p -> q)"), "s.t:{>=0}q"),
    DegreeCase((), "(#1/2 & #2/3) == #1/6"),
    DegreeCase((), "t:{<=1}p"),
    DegreeCase(("#1/4 -> x1:(p -> p)",), "x1:{>=1/4}(p -> p)"),
    DegreeCase(("#2/3 -> t:#0",), "~t:#0"),
    DegreeCase(("p -> #1/2", "p"), "q"),
    DegreeCase(("x1:p", "x2:q"), "x1:p /\\ x2:q"),
    DegreeCase(("#11/12 -> p",), "p & p"),
)


@_timed
def degrees_suite(depth: int = 4, trials: int = 40, seed: int = 0, **_) -> SuiteReport:
    """Certified lower <= upper on the whole corpus, exact on the
    hand-constructed cases; every witness is independently re-verified."""
    report = SuiteReport("degrees")
    budget = SearchBudget(trials=trials, seed=seed)
    for idx, case in enumerate(DEGREE_CORPUS):
        report.cases += 1
        cs = TotalCS()
        hyps = [parse_formula(h, _RPLJ) for h in case.hypotheses]
        goal = parse_formula(case.goal, _RPLJ)
        label = f"case {idx + 1} ({' ; '.join(case.hypotheses) or 'empty'} |- {case.goal})"
        try:
            interval = degree_interval(hyps, goal, cs, depth=depth,
                                       budget=budget, config=_RPLJ)
        except Exception as exc:      # a raised sandwich violation is a failure
            report.fail(label, f"{type(exc).__name__}: {exc}")
            continue
        check = check_derivation(interval.lower_witness, _RPLJ, cs)
        if not check.ok:
            report.fail(label, f"lower witness rejected: {check.summary()}")
        expected_conclusion = Implies(TruthConst(interval.lower), expand_sugar(goal))
        if expand_sugar(interval.lower_witness.conclusion) != expected_conclusion:
            report.fail(label, "lower witness concludes the wrong formula")
        if interval.upper_witness is not None:
            model, world = interval.upper_witness
            if eval_formula(model, world, goal) != interval.upper:
                report.fail(label, "upper witness value mismatch")
            if not validate_model(model, _RPLJ, cs, hyps + [goal]).ok:
                report.fail(label, "upper witness model invalid")
        if case.exact is not None:
            if interval.lower != case.exact or interval.upper != case.exact:
                report.fail(label, f"expected exactly {case.exact}, "
                                   f"got [{interval.lower}, {interval.upper}]")
    return report


# ---------------------------------------------------------------------------
# Registry

SUITES: dict = {
    "adjunction": adjunction_suite,
    "tnorm-laws": tnorm_laws_suite,
    "residuum-monotonicity": residuum_monotonicity_suite,
    "bl-theorems": bl_theorems_suite,
    "graded-theorems": graded_theorems_suite,
    "graded-semantics": graded_semantics_suite,
    "soundness": soundness_suite,
    "uncertainty": uncertainty_suite,
    "frames": frames_suite,
    "crisp": crisp_suite,
    "conservativity": conservativity_suite,
    "lift": lift_suite,
    "degrees": degrees_suite,
}


def run_suite(name: str, **kwargs) -> SuiteReport:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; known: {', '.join(sorted(SUITES))}")
    return SUITES[name](**kwargs)
