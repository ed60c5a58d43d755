"""Constructive internalization and certified degree bounds.

``lift`` turns an accepted derivation of F from A_1..A_n into a
justification term t(x_1..x_n) plus a derivation of t:{==1}F from the
graded hypotheses x_i:{==1}A_i, following the standard recursion:
axioms and specification entries become constants, hypotheses become
variables, modus ponens becomes term application routed through the
graded justified modus ponens expansion.  The whole input is checked,
but only the dependency cone of its last step is lifted: steps off the
cone cannot reach the output, so the result depends on the cone alone,
and ``TotalCS`` numbers new constants in cone order.

Degree estimation is deliberately bounded: the provability lower bound
forward-chains graded facts under the macro-expanded rules, and the
truth upper bound searches validated models; neither claims exactness,
but soundness keeps lower <= upper on every input.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

from .generate import ModelParams, SearchBudget, random_model
from .logics import LogicConfig, axiom_instance_of
from .models import FittingModel, eval_many, validate_model
from .proofs import (
    ConstantSpecification, Derivation, DerivationBuilder, FiniteCS, Gian,
    Hyp, Ax, Ian, ProofError, TotalCS, check_derivation, extract_subderivation,
    split_cs_layer,
)
from .syntax import (
    App, Const, FALSUM, Formula, Implies, Justified, ONE, Prop, StrongConj, Sum,
    Term, TruthConst, Var, ZERO, exact_expansion, expand_sugar, formula_props,
    justified_pairs, subformulas, subterms,
)
from .tnorms import luka_tnorm, tnorm_apply


class DegreeError(ValueError):
    pass


class InputRejected(ProofError):
    """The kernel rejects the derivation handed to ``lift``."""


def _fresh_variables(d: Derivation, count: int) -> list:
    used = set()
    for f in list(d.hypotheses) + [s.formula for s in d.steps]:
        for g in subformulas(expand_sugar(f)):
            if isinstance(g, Justified):
                for t in subterms(g.term):
                    if isinstance(t, Var):
                        used.add(t.name)
    out, k = [], 1
    while len(out) < count:
        name = f"x{k}"
        if name not in used:
            out.append(Var(name))
        k += 1
    return out


def lift(d: Derivation, cs: ConstantSpecification,
         config: Optional[LogicConfig] = None) -> tuple[Term, Derivation]:
    """Internalize a derivation with hypotheses; returns (term, derivation).

    Requires the graded Pavelka system and a schematic-total constant
    specification, which guarantees a constant for every axiom
    instance and every specification entry.  Raises ``InputRejected``
    if the kernel rejects ``d``; lifts only the cone of its last step,
    with fresh variables chosen from the hypotheses and that cone.
    """
    config = config or LogicConfig()
    if not config.graded_necessitation:
        raise ProofError(f"lifting needs graded necessitation, not available in {config.name}")
    if not isinstance(cs, TotalCS):
        raise ProofError("lifting needs a schematic-total constant specification; "
                         "a finite one cannot cover every axiom instance")
    report = check_derivation(d, config, cs)
    if not report.ok:
        raise InputRejected(f"input derivation rejected: {report.summary()}")
    d = extract_subderivation(d, len(d.steps) - 1)

    variables = _fresh_variables(d, len(d.hypotheses))
    graded_hyps = [exact_expansion(ONE, variables[i], expand_sugar(d.hypotheses[i]))
                   for i in range(len(d.hypotheses))]
    b = DerivationBuilder(config, graded_hyps)

    results: list = []        # (term, output step index) per input step
    for step in d.steps:
        f = expand_sugar(step.formula)
        rule = step.rule
        if isinstance(rule, Hyp):
            results.append((variables[rule.index], b.hyp(rule.index)))
        elif isinstance(rule, (Ax, Gian)):
            constant = Const(cs.constant_for(f))
            results.append((constant, b.gian(exact_expansion(ONE, constant, f))))
        elif isinstance(rule, Ian):
            raise ProofError("plain necessitation cannot appear in the graded system")
        else:  # MP
            u_term, u_idx = results[rule.implication]
            v_term, v_idx = results[rule.antecedent]
            p1 = b.graded_from_exact_one(u_idx)
            p2 = b.graded_from_exact_one(v_idx)
            p3 = b.jgmp(p1, p2)
            results.append((App(u_term, v_term), b.exact_one_from_graded(p3)))

    term, final = results[-1]
    return term, extract_subderivation(b.build(), final)


# ---------------------------------------------------------------------------
# Provability lower bound

def provability_degree_lb(hypotheses: Iterable[Formula], goal: Formula,
                          cs: ConstantSpecification, depth: int = 4,
                          config: Optional[LogicConfig] = None
                          ) -> tuple[Fraction, Derivation]:
    """Best grade r found with a replayable derivation of #r -> goal.

    Forward-chains graded facts from the hypotheses, axiom instances
    among the goal's subformulas and specification entries, closing
    under graded modus ponens, its justified form, sum monotonicity and
    graded conjunction for ``depth`` rounds.  Sound but not complete;
    grade 0 with the ex-falso witness is always available.
    """
    config = config or LogicConfig()
    hyps = tuple(hypotheses)
    goal_e = expand_sugar(goal)
    hyp_e = [expand_sugar(h) for h in hyps]
    b = DerivationBuilder(config, hyps)

    seen: set = set()
    for f in hyp_e + [goal_e]:
        seen.update(subformulas(f))
    universe = sorted(seen, key=str)
    terms: set = set()
    for f in universe:
        if isinstance(f, Justified):
            terms.update(subterms(f.term))
    conj_targets = [f for f in universe if isinstance(f, StrongConj)]
    sum_targets = sorted({t for t in terms if isinstance(t, Sum)}, key=str)
    app_targets = {t for t in terms if isinstance(t, App)}

    facts: dict = {}          # expanded formula -> (grade, witness step)
    order: list = []

    def record(f: Formula, grade: Fraction, idx: int) -> None:
        current = facts.get(f)
        if current is None:
            facts[f] = (grade, idx)
            order.append(f)
        elif grade > current[0]:
            facts[f] = (grade, idx)

    def record_exact_one(f: Formula, idx: int) -> None:
        """A grade-1-exact fact also yields its plain graded core."""
        layer = split_cs_layer(f, True)
        if layer is not None:
            core = b.graded_from_exact_one(idx)
            record(Justified(Const(layer[0]), layer[1]), ONE, core)

    for i, h in enumerate(hyp_e):
        hi = b.hyp(i)
        record(h, ONE, b.at_grade_one(hi))
        if isinstance(h, Implies) and isinstance(h.left, TruthConst):
            record(h.right, h.left.value, hi)
        record_exact_one(h, hi)

    for f in universe:
        if isinstance(f, TruthConst):
            record(f, f.value, b.th_identity(f))
        else:
            hit = axiom_instance_of(f, config)
            if hit is not None:
                record(f, ONE, b.at_grade_one(b.axiom(hit, f)))

    if config.graded_necessitation:
        if isinstance(cs, FiniteCS):
            entries = cs.entries
        else:       # the covered c:A among the subformulas
            entries = [exact_expansion(ONE, f.term, f.body) for f in universe
                       if isinstance(f, Justified) and isinstance(f.term, Const)
                       and cs.covers(f.term.name, f.body, config)]
        for entry in entries:
            gi = b.gian(entry)
            fact = expand_sugar(entry)
            record(fact, ONE, b.at_grade_one(gi))
            record_exact_one(fact, gi)

    def improves(target: Formula, grade: Fraction) -> bool:
        if grade == ZERO:
            return False
        current = facts.get(target)
        return current is None or grade > current[0]

    for _ in range(max(0, depth)):
        snapshot = list(order)
        for x in snapshot:
            gx, ix = facts[x]
            # graded modus ponens
            if isinstance(x, Implies):
                partner = facts.get(x.left)
                if partner is not None:
                    grade = luka_tnorm(gx, partner[0])
                    if improves(x.right, grade):
                        record(x.right, grade, b.gmp(ix, partner[1]))
            # justified graded modus ponens, kept to terms that occur
            if isinstance(x, Justified) and isinstance(x.body, Implies):
                for y in snapshot:
                    if not (isinstance(y, Justified) and y.body == x.body.left):
                        continue
                    if App(x.term, y.term) not in app_targets:
                        continue
                    gy, iy = facts[y]
                    target = Justified(App(x.term, y.term), x.body.right)
                    grade = luka_tnorm(gx, gy)
                    if improves(target, grade):
                        record(target, grade, b.jgmp(ix, iy))
            # sum monotonicity toward sums that occur
            if isinstance(x, Justified):
                for u in sum_targets:
                    if u.left == x.term:
                        target = Justified(u, x.body)
                        if improves(target, gx):
                            record(target, gx, b.mon(ix, "right", u.right))
                    if u.right == x.term:
                        target = Justified(u, x.body)
                        if improves(target, gx):
                            record(target, gx, b.mon(ix, "left", u.left))
        # graded conjunction toward conjunctions that occur
        for target in conj_targets:
            left, right = facts.get(target.left), facts.get(target.right)
            if left is None or right is None:
                continue
            grade = luka_tnorm(left[0], right[0])
            if improves(target, grade):
                record(target, grade, b.gconj(left[1], right[1]))

    # a graded goal is provable outright once its core reaches the grade
    if isinstance(goal_e, Implies) and isinstance(goal_e.left, TruthConst):
        core = facts.get(goal_e.right)
        if core is not None and core[0] >= goal_e.left.value:
            weakened = b.grade_weaken(core[1], goal_e.left.value)
            record(goal_e, ONE, b.at_grade_one(weakened))

    hit = facts.get(goal_e)
    if hit is None:
        grade: Fraction = ZERO
        idx = b.axiom("BL7", Implies(FALSUM, goal_e))
    else:
        grade, idx = hit
    return grade, extract_subderivation(b.build(), idx)


# ---------------------------------------------------------------------------
# Truth upper bound

def _graded_split(h: Formula) -> tuple[Fraction, Formula]:
    if isinstance(h, Implies) and isinstance(h.left, TruthConst):
        return h.left.value, h.right
    return ONE, h


def _minimal_model(hyp_e: list, goal_e: Formula, config: LogicConfig,
                   cs: ConstantSpecification) -> Optional[FittingModel]:
    """One-world model clamping each constrained atom to its least value.

    Handles graded propositional and justified constraints; other
    hypothesis shapes fall back to the random search.
    """
    tnorm = config.tnorm_kinds()[0]
    relevant = hyp_e + [goal_e]
    pairs: set = set()
    for f in relevant:
        pairs.update(justified_pairs(f))
    evid = {pair: ZERO for pair in pairs}
    # sums need their components listed, or the default forces them to 1
    changed = True
    while changed:
        changed = False
        for (t, a) in list(evid):
            if isinstance(t, Sum):
                for part in (t.left, t.right):
                    if (part, a) not in evid:
                        evid[(part, a)] = ZERO
                        changed = True
    val: dict = {}
    for f in relevant:
        for p in formula_props(f):
            val.setdefault(p, ZERO)
    for h in hyp_e:
        grade, body = _graded_split(h)
        if isinstance(body, Prop):
            val[body.name] = max(val.get(body.name, ZERO), grade)
        elif isinstance(body, Justified):
            key = (body.term, body.body)
            evid[key] = max(evid.get(key, ZERO), grade)
        elif isinstance(body, TruthConst):
            if body.value < grade:
                return None
        else:
            return None
    for _ in range(len(evid) + 2):
        changed = False
        for (t, a), v in list(evid.items()):
            if isinstance(t, Const) and cs.covers(t.name, a, config) and v != ONE:
                evid[(t, a)] = ONE
                changed = True
        for (t, a), v in list(evid.items()):
            if isinstance(t, Sum):
                floor = max(evid[(t.left, a)], evid[(t.right, a)])
                if v < floor:
                    evid[(t, a)] = floor
                    changed = True
        for (s, body), v1 in list(evid.items()):
            if not isinstance(body, Implies):
                continue
            for (t, ante), v2 in list(evid.items()):
                if ante != body.left:
                    continue
                key = (App(s, t), body.right)
                if key in evid:
                    floor = tnorm_apply(tnorm, v1, v2)
                    if evid[key] < floor:
                        evid[key] = floor
                        changed = True
        if not changed:
            break
    return FittingModel(worlds=("w0",), access=frozenset(), tnorm=tnorm,
                        valuation={("w0", p): v for p, v in val.items()},
                        evidence={("w0", t, a): v for (t, a), v in evid.items()})


def truth_degree_ub(hypotheses: Iterable[Formula], goal: Formula,
                    config: Optional[LogicConfig] = None,
                    cs: Optional[ConstantSpecification] = None,
                    budget: SearchBudget = SearchBudget()
                    ) -> tuple[Fraction, Optional[tuple[FittingModel, str]]]:
    """Least goal value found over validated models of the hypotheses.

    Returns (value, (model, world)) or (1, None) if no model beat 1.
    """
    config = config or LogicConfig()
    cs = cs if cs is not None else TotalCS()
    hyp_e = [expand_sugar(h) for h in hypotheses]
    goal_e = expand_sugar(goal)
    relevant = hyp_e + [goal_e]

    best: Fraction = ONE
    witness: Optional[tuple[FittingModel, str]] = None

    def consider(model: FittingModel) -> None:
        nonlocal best, witness
        # ``best`` moves only on valid models: validating last changes no result
        *hyp_values, values = eval_many(model, relevant)
        if any(v != ONE for row in hyp_values for v in row.values()):
            return
        low = min(values.values())
        if low < best and validate_model(model, config, cs, relevant).ok:
            best = low
            witness = (model, next(w for w, v in values.items() if v == low))

    minimal = _minimal_model(hyp_e, goal_e, config, cs)
    if minimal is not None:
        consider(minimal)
    params = ModelParams(max_worlds=budget.max_worlds,
                         max_denominator=budget.max_denominator)
    for trial in range(budget.trials):
        if best == ZERO:
            break
        consider(random_model(budget.seed + trial, params, config, cs))
    return best, witness


@dataclass(frozen=True)
class DegreeInterval:
    """Certified sandwich around a formula's degree over a theory."""

    lower: Fraction
    upper: Fraction
    lower_witness: Derivation
    upper_witness: Optional[tuple]

    def __post_init__(self):
        if self.lower > self.upper:
            raise DegreeError(
                f"lower bound {self.lower} exceeds upper bound {self.upper}; "
                f"this contradicts soundness and signals a defect")


def degree_interval(hypotheses: Iterable[Formula], goal: Formula,
                    cs: Optional[ConstantSpecification] = None,
                    depth: int = 4, budget: SearchBudget = SearchBudget(),
                    config: Optional[LogicConfig] = None) -> DegreeInterval:
    config = config or LogicConfig()
    cs = cs if cs is not None else TotalCS()
    hyps = tuple(hypotheses)
    lower, derivation = provability_degree_lb(hyps, goal, cs, depth, config)
    upper, model_witness = truth_degree_ub(hyps, goal, config, cs, budget)
    return DegreeInterval(lower, upper, derivation, model_witness)
