import hashlib
import json
import random
from fractions import Fraction

import pytest

from fjl.generate import SearchBudget, random_derivation
from fjl.lifting import (
    DegreeError, DegreeInterval, InputRejected, degree_interval, lift,
    provability_degree_lb, truth_degree_ub,
)
from fjl.logics import LogicConfig
from fjl.models import eval_formula, model_to_dict, validate_model
from fjl.parser import parse_formula
from fjl.proofs import (
    Ax, Derivation, DerivationBuilder, FiniteCS, Gian, Hyp, MP, ProofError,
    Step, TotalCS, check_derivation, extract_subderivation, format_derivation,
)
from fjl.syntax import (
    App, Const, GradedExact, Implies, Prop, TruthConst, Var, expand_sugar,
    subterms, term_dag_size,
)
from fjl.suites import DEGREE_CORPUS

RPLJ = LogicConfig.from_name("RPLJ")
p, q = Prop("p"), Prop("q")


def fresh_cs():
    return TotalCS()


def test_lift_single_axiom_becomes_constant():
    cs = fresh_cs()
    body = parse_formula("(p & q) -> p")
    d = Derivation((), (Step(body, Ax("BL2")),))
    term, lifted = lift(d, cs, RPLJ)
    assert isinstance(term, Const)
    assert len(lifted.steps) == 1 and isinstance(lifted.steps[0].rule, Gian)
    assert check_derivation(lifted, RPLJ, cs).ok
    assert lifted.conclusion == expand_sugar(GradedExact(Fraction(1), term, body))


def test_lift_hypothesis_becomes_variable():
    cs = fresh_cs()
    d = Derivation((p,), (Step(p, Hyp(0)),))
    term, lifted = lift(d, cs, RPLJ)
    assert isinstance(term, Var)
    assert lifted.hypotheses == (expand_sugar(GradedExact(Fraction(1), term, p)),)
    assert check_derivation(lifted, RPLJ, cs).ok


def test_lift_modus_ponens_becomes_application():
    cs = fresh_cs()
    d = Derivation(
        (parse_formula("p -> q"), p),
        (Step(parse_formula("p -> q"), Hyp(0)),
         Step(p, Hyp(1)),
         Step(q, MP(1, 0))))
    term, lifted = lift(d, cs, RPLJ)
    assert isinstance(term, App)
    report = check_derivation(lifted, RPLJ, cs)
    assert report.ok, report.summary()
    assert lifted.conclusion == expand_sugar(GradedExact(Fraction(1), term, q))
    assert term_dag_size(term) <= len(d.steps)


def test_lift_fresh_variables_avoid_collisions():
    cs = fresh_cs()
    body = parse_formula("x1:p")
    d = Derivation((body,), (Step(body, Hyp(0)),))
    term, _ = lift(d, cs, RPLJ)
    assert term != Var("x1")


def test_lift_requires_total_cs():
    d = Derivation((), (Step(parse_formula("(p & q) -> p"), Ax("BL2")),))
    with pytest.raises(ProofError):
        lift(d, FiniteCS([]), RPLJ)


def test_lift_requires_graded_system():
    d = Derivation((), (Step(parse_formula("(p & q) -> p"), Ax("BL2")),))
    with pytest.raises(ProofError):
        lift(d, fresh_cs(), LogicConfig.from_name("BLJ"))


def test_lift_rejects_bad_input():
    bad = Step(p, Ax("BL2"))
    # the whole input is checked, not only the cone that is lifted
    for steps in ((bad,), (bad, Step(parse_formula("(p & q) -> p"), Ax("BL2")))):
        with pytest.raises(InputRejected):
            lift(Derivation((), steps), fresh_cs(), RPLJ)


def test_internalize_axiom():
    cs = fresh_cs()
    body = parse_formula("#0 -> p")
    d = Derivation((), (Step(body, Ax("BL7")),))
    term, out = lift(d, cs, RPLJ)
    assert out.conclusion == expand_sugar(GradedExact(Fraction(1), term, body))


def test_internalize_two_step_proof_gives_application_of_constants():
    cs = fresh_cs()
    b = DerivationBuilder(RPLJ)
    b.th_k(p, q)          # BL2 and BL5b instances joined by modus ponens
    d = b.build()
    term, out = lift(d, cs, RPLJ)
    assert isinstance(term, App)
    assert check_derivation(out, RPLJ, cs).ok


def test_nested_internalization_uses_specification_closure():
    cs = fresh_cs()
    body = parse_formula("(p & q) -> p")
    d = Derivation((), (Step(body, Ax("BL2")),))
    _, once = lift(d, cs, RPLJ)
    term, twice = lift(once, cs, RPLJ)
    assert check_derivation(twice, RPLJ, cs).ok
    assert twice.conclusion == expand_sugar(
        GradedExact(Fraction(1), term, once.conclusion))


def test_lift_fuzzed_derivations_recheck():
    for seed in range(25):
        rng = random.Random(seed)
        cs = fresh_cs()
        d = random_derivation(rng, RPLJ, cs, moves=5)
        assert check_derivation(d, RPLJ, cs).ok
        term, lifted = lift(d, cs, RPLJ)
        report = check_derivation(lifted, RPLJ, cs)
        assert report.ok, f"seed {seed}: {report.summary()}"
        assert lifted.conclusion == expand_sugar(
            GradedExact(Fraction(1), term, d.conclusion))
        assert term_dag_size(term) <= len(d.steps)


# ---------------------------------------------------------------------------
# Degrees

def test_lower_bound_hypothesis_at_grade_one():
    cs = fresh_cs()
    grade, witness = provability_degree_lb([p], p, cs, depth=2, config=RPLJ)
    assert grade == 1
    assert check_derivation(witness, RPLJ, cs).ok
    assert witness.conclusion == Implies(TruthConst(1), p)


def test_lower_bound_empty_theory_falls_back_to_zero():
    cs = fresh_cs()
    grade, witness = provability_degree_lb([], p, cs, depth=2, config=RPLJ)
    assert grade == 0
    assert check_derivation(witness, RPLJ, cs).ok
    assert witness.conclusion == Implies(TruthConst(0), p)


def test_lower_bound_justified_graded_chaining():
    cs = fresh_cs()
    T = [parse_formula("#3/4 -> s:(p -> q)"), parse_formula("#1/2 -> t:p")]
    goal = parse_formula("s.t:q")
    grade, witness = provability_degree_lb(T, goal, cs, depth=3, config=RPLJ)
    assert grade >= Fraction(1, 4)
    report = check_derivation(witness, RPLJ, cs)
    assert report.ok, report.summary()
    assert witness.conclusion == Implies(TruthConst(grade), expand_sugar(goal))


def test_lower_bound_monotone_in_depth():
    cs = fresh_cs()
    T = [parse_formula("#3/4 -> s:(p -> q)"), parse_formula("#1/2 -> t:p")]
    goal = parse_formula("s.t:q")
    grades = [provability_degree_lb(T, goal, fresh_cs(), depth=d, config=RPLJ)[0]
              for d in (0, 1, 2, 4)]
    assert all(a <= b for a, b in zip(grades, grades[1:]))


def test_upper_bound_truth_constant():
    value, witness = truth_degree_ub([], parse_formula("#1/3"), RPLJ, fresh_cs(),
                                     SearchBudget(trials=5))
    assert value == Fraction(1, 3) and witness is not None


def test_upper_bound_free_proposition_hits_zero():
    value, witness = truth_degree_ub([], p, RPLJ, fresh_cs(), SearchBudget(trials=5))
    assert value == 0
    model, world = witness
    assert eval_formula(model, world, p) == 0


def test_upper_bound_axiom_instance_stays_one():
    goal = parse_formula("(p & q) -> p")
    value, witness = truth_degree_ub([], goal, RPLJ, fresh_cs(),
                                     SearchBudget(trials=30))
    assert value == 1 and witness is None


def test_upper_bound_monotone_in_budget():
    T = [parse_formula("#1/2 -> p")]
    goal = parse_formula("p & p")
    small = truth_degree_ub(T, goal, RPLJ, fresh_cs(), SearchBudget(trials=0))[0]
    large = truth_degree_ub(T, goal, RPLJ, fresh_cs(), SearchBudget(trials=30))[0]
    assert large <= small


def test_degree_interval_pins_graded_hypothesis():
    cs = fresh_cs()
    iv = degree_interval([parse_formula("#1/2 -> p")], p, cs,
                         budget=SearchBudget(trials=20), config=RPLJ)
    assert (iv.lower, iv.upper) == (Fraction(1, 2), Fraction(1, 2))
    model, world = iv.upper_witness
    assert validate_model(model, RPLJ, cs, [p]).ok
    assert eval_formula(model, world, p) == Fraction(1, 2)


def test_degree_corpus_is_pinned():
    """The ``degrees`` suite's corpus, run as the suite runs it: a change
    that moves one bound, witness step or witness model moves the digest."""
    h = hashlib.sha256()
    for case in DEGREE_CORPUS:
        iv = degree_interval([parse_formula(text, RPLJ) for text in case.hypotheses],
                             parse_formula(case.goal, RPLJ), fresh_cs(), depth=4,
                             budget=SearchBudget(trials=40, seed=0), config=RPLJ)
        upper = None
        if iv.upper_witness is not None:
            model, world = iv.upper_witness
            upper = [model_to_dict(model), world]
        h.update(json.dumps([str(iv.lower), str(iv.upper),
                             format_derivation(iv.lower_witness), upper],
                            sort_keys=True).encode())
    assert h.hexdigest() == "3030c5be302f7de94d97e2f66e35b2bbefa377602f5d4fe8209a4a980d2ae5ee"


def test_degree_interval_invariant_guard():
    d = Derivation((), (Step(parse_formula("#0 -> p"), Ax("BL7")),))
    with pytest.raises(DegreeError):
        DegreeInterval(Fraction(2, 3), Fraction(1, 3), d, None)


# ---------------------------------------------------------------------------
# Only the conclusion's cone is lifted

def _cone(d):
    return extract_subderivation(d, len(d.steps) - 1)


def test_lift_output_depends_only_on_the_cone():
    compared = 0
    for seed in range(100):
        d = random_derivation(random.Random(seed), RPLJ, TotalCS(), moves=6)
        if len(format_derivation(_cone(d))) >= 1_000:
            continue
        full = format_derivation(lift(d, TotalCS())[1])
        assert full == format_derivation(lift(_cone(d), TotalCS())[1]), f"seed {seed}"
        compared += 1
    assert compared >= 50


def test_off_cone_steps_take_no_constant_and_no_variable_name():
    # Steps 1 and 2 are off the cone: an axiom, which the whole input
    # would number first, and a formula that uses the name x1, which the
    # whole input would keep from the hypothesis.
    axiom = parse_formula("(q & p) -> q")
    d = Derivation(
        (parse_formula("q & p"),),
        (Step(parse_formula("(p & q) -> p"), Ax("BL2")),
         Step(parse_formula("(x1:p & q) -> x1:p"), Ax("BL2")),
         Step(parse_formula("q & p"), Hyp(0)),
         Step(axiom, Ax("BL2")),
         Step(q, MP(2, 3))))
    cs = TotalCS()
    term, lifted = lift(d, cs, RPLJ)
    assert term == App(Const("c_1"), Var("x1"))
    assert cs.constant_for(axiom) == "c_1"
    assert format_derivation(lifted) == format_derivation(lift(_cone(d), TotalCS())[1])
    assert check_derivation(lifted, RPLJ, cs).ok


# ---------------------------------------------------------------------------
# Term-level oracle: what the lifted term justifies, computed from the
# term alone, independently of the builder and the output derivation.

def _justified_by(term, d, lifted, cs):
    """For each subterm, the expanded formulas it justifies: x_i the i-th
    hypothesis, a constant the AX or GIAN formula of the input ``d`` that
    the specification assigned it, s.t every B with A -> B from s and A
    from t."""
    constants = {cs.constant_for(s.formula): expand_sugar(s.formula)
                 for s in d.steps if isinstance(s.rule, (Ax, Gian))}
    variables = {}
    for h in lifted.hypotheses:
        # expand(x:{==1}A) is (#1 -> x:A) & ((#1 -> x:A) -> (x:A -> #1))
        justified = h.left.right
        variables[justified.term] = justified.body
    formulas = {}
    for s in subterms(term):
        if isinstance(s, Var):
            formulas[s] = {variables[s]}
        elif isinstance(s, Const):
            formulas[s] = {constants[s.name]}
        elif isinstance(s, App):
            antecedents = formulas[s.right]
            formulas[s] = {f.right for f in formulas[s.left]
                           if isinstance(f, Implies) and f.left in antecedents}
        else:
            formulas[s] = formulas[s.left] | formulas[s.right]
    return formulas[term]


def test_lifted_term_justifies_the_conclusion():
    inputs = [random_derivation(random.Random(seed), RPLJ, TotalCS(), moves=6)
              for seed in range(50)]
    inputs.append(Derivation(
        (parse_formula("p -> q"), p),
        (Step(parse_formula("p -> q"), Hyp(0)), Step(p, Hyp(1)), Step(q, MP(1, 0)))))
    with_app = 0
    for d in inputs:
        cs = fresh_cs()
        term, lifted = lift(d, cs, RPLJ)
        assert expand_sugar(d.conclusion) in _justified_by(term, d, lifted, cs)
        with_app += isinstance(term, App)
    assert with_app >= 5
