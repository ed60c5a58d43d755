import random
from fractions import Fraction

import pytest

from fjl.generate import random_derivation
from fjl.lifting import lift
from fjl.logics import LogicConfig
from fjl.models import eval_formula
from fjl.parser import parse_formula
from fjl.proofs import (
    Ax, BL_THEOREMS, Derivation, DerivationBuilder, EMPTY_CS, FiniteCS, Gian,
    GRADED_THEOREMS, Hyp, Ian, MP, ProofError, ShapeError, Step, TotalCS,
    build_gmp, build_jgmp, build_mon, check_cs, check_derivation,
    format_derivation, graded_dichotomy, graded_exact_one_equivalence,
    graded_exact_one_unwrap, graded_lower_zero, graded_refute_lower,
    graded_refute_upper, graded_upper_one, graded_weakening, parse_cs,
    parse_derivation, power_formula, theorem_conj_monotone, theorem_exchange,
    theorem_implication_weak_intro, theorem_prelinearity,
    theorem_strong_to_weak, theorem_unit, theorem_weak_projection,
    theorem_weakening,
)
from fjl.syntax import (
    App, Const, GradedExact, Implies, Prop, StrongConj, TruthConst, Var,
    expand_sugar, print_formula, print_many, print_term,
)

RPLJ = LogicConfig.from_name("RPLJ")
BL = LogicConfig.from_name("BL")
BLJ = LogicConfig.from_name("BLJ")
p, q, r = Prop("p"), Prop("q"), Prop("r")
t = Var("t")


def test_checker_accepts_projection_from_hypothesis():
    conj = parse_formula("p & q")
    d = Derivation(
        hypotheses=(conj,),
        steps=(
            Step(conj, Hyp(0)),
            Step(parse_formula("(p & q) -> p"), Ax("BL2")),
            Step(p, MP(0, 1)),
        ))
    report = check_derivation(d, BL, EMPTY_CS)
    assert report.ok and report.conclusion == p


def test_checker_rejects_wrong_mp_shape():
    d = Derivation(
        hypotheses=(p, q),
        steps=(
            Step(p, Hyp(0)),
            Step(q, Hyp(1)),
            Step(r, MP(0, 1)),
        ))
    report = check_derivation(d, BL, EMPTY_CS)
    assert not report.ok and report.step == 2
    assert "implication" in report.reason


def test_checker_rejects_dangling_reference():
    d = Derivation((), (Step(p, MP(0, 1)),))
    report = check_derivation(d, BL, EMPTY_CS)
    assert not report.ok and "earlier" in report.reason


def test_checker_rejects_hypothesis_out_of_range():
    d = Derivation((), (Step(p, Hyp(3)),))
    report = check_derivation(d, BL, EMPTY_CS)
    assert not report.ok and "out of range" in report.reason


def test_checker_rejects_inactive_scheme():
    d = Derivation((), (Step(parse_formula("s:p -> s+t:p"), Ax("Sum1")),))
    assert not check_derivation(d, BL, EMPTY_CS).ok
    assert check_derivation(d, BLJ, EMPTY_CS).ok


def test_checker_rejects_axiom_mismatch():
    d = Derivation((), (Step(parse_formula("p -> p"), Ax("BL2")),))
    report = check_derivation(d, BL, EMPTY_CS)
    assert not report.ok and "not an instance" in report.reason


@pytest.mark.parametrize("logic, tag, text, reason", [
    ("RPLJ", "Sum", "s:p -> s+t:p", None),
    ("RPLJ", "Sum", "s:p -> t+s:p", None),
    ("BLJ", "Sum", "s:p -> s+t:p", None),
    ("BLJ", "Sum", "s:p -> t+s:p", None),
    ("BLJ", "Sum1", "s:p -> s+t:p", None),
    ("BLJ", "Sum2", "s:p -> t+s:p", None),
    ("BL", "Sum", "s:p -> s+t:p", "scheme 'Sum' is not active in BL"),
    ("BL", "Appl", "s:(p -> q) -> (t:p -> s.t:q)", "scheme 'Appl' is not active in BL"),
    ("BLJ", "TC1", "(#0 -> #1) == #1", "scheme 'TC1' is not active in BLJ"),
    ("RPLJ", "Nope", "p", "scheme 'Nope' is not active in RPLJ"),
    ("BLJ", "Sum", "s:p -> s.t:p", "formula is not an instance of scheme 'Sum'"),
    ("RPLJ", "Sum", "s:p -> t+s:q", "formula is not an instance of scheme 'Sum'"),
    ("BLJ", "Sum1", "s:p -> t+s:p", "formula is not an instance of scheme 'Sum1'"),
    ("RPLJ", "TC1", "(#1/2 -> #3/4) == #3/4", "formula is not an instance of scheme 'TC1'"),
])
def test_checker_axiom_tags(logic, tag, text, reason):
    config = LogicConfig.from_name(logic)
    d = Derivation((), (Step(parse_formula(text, config), Ax(tag)),))
    report = check_derivation(d, config, EMPTY_CS)
    assert report.ok == (reason is None)
    assert report.reason == reason


def test_gian_membership():
    body = parse_formula("(p & q) -> p")
    entry = GradedExact(Fraction(1), Const("c1"), body)
    cs = FiniteCS([entry])
    d = Derivation((), (Step(entry, Gian()),))
    assert check_derivation(d, RPLJ, cs).ok
    other = GradedExact(Fraction(1), Const("c2"), body)
    assert not check_derivation(Derivation((), (Step(other, Gian()),)), RPLJ, cs).ok
    # the same entry written in primitive normal form is also a member
    d2 = Derivation((), (Step(expand_sugar(entry), Gian()),))
    assert check_derivation(d2, RPLJ, cs).ok


def test_ian_and_gian_availability_by_logic():
    body = parse_formula("(p & q) -> p")
    plain_entry = parse_formula("c1:((p & q) -> p)")
    cs_plain = FiniteCS([plain_entry])
    d = Derivation((), (Step(plain_entry, Ian()),))
    assert check_derivation(d, BLJ, cs_plain).ok
    assert not check_derivation(d, RPLJ, cs_plain).ok
    graded_entry = GradedExact(Fraction(1), Const("c1"), body)
    d2 = Derivation((), (Step(graded_entry, Gian()),))
    assert not check_derivation(d2, BLJ, FiniteCS([graded_entry])).ok


def test_check_cs_downward_closure():
    inner = parse_formula("c1:((p & q) -> p)")
    outer = parse_formula("c2:c1:((p & q) -> p)")
    assert not check_cs(FiniteCS([outer]), BLJ).ok
    assert check_cs(FiniteCS([outer, inner]), BLJ).ok


def test_check_cs_body_must_be_axiom_instance():
    report = check_cs(FiniteCS([parse_formula("c1:p")]), BLJ)
    assert not report.ok and "axiom instance" in report.problems[0]


def test_check_cs_graded_chains():
    body = parse_formula("(p & q) -> p")
    inner = GradedExact(Fraction(1), Const("c1"), body)
    outer = GradedExact(Fraction(1), Const("c2"), inner)
    assert not check_cs(FiniteCS([outer]), RPLJ).ok
    assert check_cs(FiniteCS([outer, inner]), RPLJ).ok
    assert check_cs(TotalCS(), RPLJ).ok


def test_total_cs_membership_and_constants():
    cs = TotalCS()
    body = parse_formula("(p & q) -> p")
    entry = GradedExact(Fraction(1), Const("whatever_c"), body)
    assert cs.contains(entry, RPLJ)
    assert not cs.contains(body, RPLJ)
    name1 = cs.constant_for(body)
    assert name1 == cs.constant_for(body)
    assert name1 != cs.constant_for(parse_formula("(q & p) -> q"))
    assert name1.startswith("c")
    assert cs.formula_for(name1) is expand_sugar(body)
    with pytest.raises(KeyError):
        cs.formula_for("c_999")


def test_build_gmp_grades():
    d = build_gmp(parse_formula("#3/4 -> (p -> q)"), parse_formula("#1/2 -> p"))
    assert check_derivation(d, RPLJ, EMPTY_CS).ok
    assert d.conclusion == parse_formula("#1/4 -> q")
    unit = build_gmp(parse_formula("#1 -> (p -> q)"), parse_formula("#1 -> p"))
    assert unit.conclusion == parse_formula("#1 -> q")


def test_build_gmp_shape_mismatch():
    with pytest.raises(ShapeError):
        build_gmp(parse_formula("#3/4 -> (p -> q)"), parse_formula("#1/2 -> r"))
    with pytest.raises(ShapeError):
        build_gmp(parse_formula("p -> q"), parse_formula("#1/2 -> p"))


def test_build_jgmp():
    d = build_jgmp(parse_formula("s:{>=2/3}(p -> q)"), parse_formula("t:{>=2/3}p"))
    assert check_derivation(d, RPLJ, EMPTY_CS).ok
    assert d.conclusion == expand_sugar(parse_formula("s.t:{>=1/3}q"))


def test_build_mon_both_sides():
    base = parse_formula("s:{>=1/2}p")
    right = build_mon(base, "right", t)
    left = build_mon(base, "left", t)
    assert check_derivation(right, RPLJ, EMPTY_CS).ok
    assert right.conclusion == expand_sugar(parse_formula("s+t:{>=1/2}p"))
    assert left.conclusion == expand_sugar(parse_formula("t+s:{>=1/2}p"))


def test_builders_emit_only_primitive_rules():
    d = build_jgmp(parse_formula("s:{>=2/3}(p -> q)"), parse_formula("t:{>=2/3}p"))
    assert all(isinstance(s.rule, (Hyp, Ax, MP, Ian, Gian)) for s in d.steps)


def test_power_formula():
    assert power_formula(p, 1) == p
    assert power_formula(p, 3) == StrongConj(StrongConj(p, p), p)
    with pytest.raises(ValueError):
        power_formula(p, 0)


def test_power_formula_is_square_under_luka():
    from fjl.models import FittingModel
    from fjl.tnorms import TNormKind
    m = FittingModel(worlds=("w",), access=frozenset(),
                     tnorm=TNormKind.LUKASIEWICZ,
                     valuation={("w", "p"): Fraction(3, 4)}, evidence={})
    assert eval_formula(m, "w", power_formula(p, 2)) == Fraction(1, 2)


@pytest.mark.parametrize("key", sorted(BL_THEOREMS))
def test_bl_theorem_derivations_check(key):
    name, fn, arity = BL_THEOREMS[key]
    args = [p, q, r, Prop("u")][:arity]
    d = fn(*args)
    report = check_derivation(d, BL, EMPTY_CS)
    assert report.ok, f"{name}: {report.summary()}"


@pytest.mark.parametrize("key", sorted(GRADED_THEOREMS))
def test_graded_theorem_derivations_check(key):
    name, fn = GRADED_THEOREMS[key]
    if key in (1, 2, 6, 7):
        d = fn(t, p)
    elif key in (3, 4, 8):
        d = fn(t, p, Fraction(1, 3))
    else:
        d = fn(t, p, Fraction(1, 3), Fraction(2, 3))
    report = check_derivation(d, RPLJ, TotalCS())
    assert report.ok, f"{name}: {report.summary()}"


def test_graded_weakening_rejects_inverted_grades():
    with pytest.raises(ShapeError):
        graded_weakening(t, p, Fraction(2, 3), Fraction(1, 3))


def test_theorem_conclusions_have_the_documented_shapes():
    from fjl.syntax import Neg, WeakConj, WeakDisj, Equiv, GradedAtLeast, GradedAtMost, Justified
    assert theorem_unit().conclusion == expand_sugar(Neg(TruthConst(0)))
    assert theorem_weakening(p, q).conclusion == Implies(p, Implies(q, p))
    assert theorem_strong_to_weak(p, q).conclusion == \
        expand_sugar(Implies(StrongConj(p, q), WeakConj(p, q)))
    assert theorem_weak_projection(p, q).conclusion == \
        expand_sugar(Implies(WeakConj(p, q), p))
    assert theorem_implication_weak_intro(p, q).conclusion == \
        expand_sugar(Implies(Implies(p, q), Implies(p, WeakConj(p, q))))
    assert theorem_prelinearity(p, q).conclusion == \
        expand_sugar(WeakDisj(Implies(p, q), Implies(q, p)))
    assert graded_upper_one(t, p).conclusion == \
        expand_sugar(GradedAtMost(Fraction(1), t, p))
    assert graded_exact_one_equivalence(t, p).conclusion == \
        expand_sugar(Equiv(GradedAtLeast(Fraction(1), t, p),
                           GradedExact(Fraction(1), t, p)))
    assert graded_exact_one_unwrap(t, p).conclusion == \
        expand_sugar(Implies(GradedExact(Fraction(1), t, p), Justified(t, p)))
    assert graded_dichotomy(t, p, Fraction(1, 2)).conclusion == \
        expand_sugar(WeakDisj(GradedAtLeast(Fraction(1, 2), t, p),
                              GradedAtMost(Fraction(1, 2), t, p)))


def test_closed_theorems_are_semantically_valid():
    # checker soundness spot-check: closed conclusions take value 1
    from fjl.generate import ModelParams, random_model
    cs = TotalCS()
    conclusions = [
        theorem_exchange(p, q, r).conclusion,
        theorem_conj_monotone(p, q, r, Prop("u")).conclusion,
        graded_refute_upper(t, p, Fraction(1, 3)).conclusion,
        graded_refute_lower(t, p, Fraction(2, 3)).conclusion,
        graded_lower_zero(t, p).conclusion,
    ]
    for seed in range(30):
        m = random_model(seed, ModelParams(), RPLJ, cs)
        for f in conclusions:
            for w in m.worlds:
                assert eval_formula(m, w, f) == 1


def test_derivation_file_roundtrip():
    d = build_gmp(parse_formula("#3/4 -> (p -> q)"), parse_formula("#1/2 -> p"))
    text = format_derivation(d)
    back = parse_derivation(text, RPLJ)
    assert check_derivation(back, RPLJ, EMPTY_CS).ok
    assert back.conclusion == d.conclusion
    assert format_derivation(back) == text


def test_parsed_files_share_equal_subformulas():
    d = build_gmp(parse_formula("#3/4 -> (p -> q)"), parse_formula("#1/2 -> p"))
    back = parse_derivation(format_derivation(d), RPLJ)
    mp_steps = [s for s in back.steps if isinstance(s.rule, MP)]
    assert mp_steps
    for step in mp_steps:
        assert step.formula is back.steps[step.rule.implication].formula.right
        assert back.steps[step.rule.antecedent].formula is \
            back.steps[step.rule.implication].formula.left
    cs = parse_cs("c1:((p & q) -> p)\nc2:c1:((p & q) -> p)\n", BLJ)
    first, second = cs.entries
    assert second.body is first


def _fuzzed(seed):
    return random_derivation(random.Random(seed), RPLJ, TotalCS(), moves=6)


def _assert_file_roundtrip(d):
    back = parse_derivation(format_derivation(d), RPLJ)
    assert len(back.hypotheses) == len(d.hypotheses)
    assert all(a is b for a, b in zip(back.hypotheses, d.hypotheses))
    assert [s.rule for s in back.steps] == [s.rule for s in d.steps]
    assert all(a.formula is b.formula for a, b in zip(back.steps, d.steps))


def test_formatted_files_parse_back_to_the_same_formulas():
    lifted = 0
    for seed in range(25):
        d = _fuzzed(seed)
        _assert_file_roundtrip(d)
        if len(d.steps) <= 40:
            out = lift(d, TotalCS(), RPLJ)[1]
            if len(out.steps) <= 1_000:
                _assert_file_roundtrip(out)
                lifted += len(out.steps) > 1
    assert lifted >= 2


def test_format_derivation_prints_each_formula_as_print_formula_does():
    for seed in range(10):
        d = _fuzzed(seed)
        expected = [f"HYP {print_formula(h)}" for h in d.hypotheses]
        expected += [f"STEP {i} {print_formula(s.formula)} BY "
                     for i, s in enumerate(d.steps, start=1)]
        lines = format_derivation(d).splitlines()
        assert all(line.startswith(prefix) for line, prefix in zip(lines, expected))
        assert len(lines) == len(expected)


def test_print_many_matches_one_root_printing():
    f = parse_formula("(s.t):(p -> q) & ~(p /\\ q)")
    g = parse_formula("p -> q")
    roots = [f, g, f.left.term, g, f, Prop("p"), f.left.term.left]
    assert print_many(roots) == [str(x) for x in roots]
    assert print_many(roots) == [print_term(x) if isinstance(x, (App, Var)) else
                                 print_formula(x) for x in roots]
    assert print_many([]) == []


def test_format_derivation_of_steps_sharing_a_deep_chain():
    chain = [p]
    for _ in range(10_000):
        chain.append(StrongConj(chain[-1], q))
    steps = [Step(chain[k], Ax("BL2")) for k in (10_000, 5_000, 10_000, 1)]
    text = format_derivation(Derivation((chain[9_999],), tuple(steps)))
    lines = text.splitlines()
    assert lines[0] == f"HYP {print_formula(chain[9_999])}"
    assert lines[1] == f"STEP 1 {print_formula(chain[10_000])} BY AX BL2"
    assert lines[3] == f"STEP 3 {print_formula(chain[10_000])} BY AX BL2"
    assert lines[4] == "STEP 4 p & q BY AX BL2"
    assert len(lines[1]) == len("p") + 10_000 * len(" & q") + len("STEP 1  BY AX BL2")


def test_derivation_file_errors():
    with pytest.raises(ProofError):
        parse_derivation("STEP 2 p BY AX BL2\n")
    with pytest.raises(ProofError):
        parse_derivation("STEP 1 p BY NONSENSE\n")
    with pytest.raises(ProofError):
        parse_derivation("STEP 1 p BY AX BL2\nHYP q\n")


@pytest.mark.parametrize("by", [
    "AX BL2 BL3 junk", "AX BL2 junk", "MP 1 1 7", "HYP 1 2", "IAN x", "GIAN 1",
    "AX", "MP 1", "HYP", "HYP x", "MP 1 y",
])
def test_derivation_file_rejects_malformed_rules(by):
    text = f"HYP p\nSTEP 1 (p & q) -> p BY {by}\n"
    with pytest.raises(ProofError, match="line 2: malformed rule"):
        parse_derivation(text)


def test_derivation_file_accepts_each_rule_with_its_words():
    d = parse_derivation("HYP p\nSTEP 1 p BY HYP 1\nSTEP 2 (p & q) -> p BY AX BL2\n"
                         "STEP 3 p BY MP 1 2\nSTEP 4 c1:p BY IAN\nSTEP 5 c1:p BY  GIAN \n")
    assert [step.rule for step in d.steps] == [Hyp(0), Ax("BL2"), MP(0, 1), Ian(), Gian()]


def test_cs_file_parsing():
    cs = parse_cs("# comment\nc1:((p & q) -> p)\n\n", BLJ)
    assert check_cs(cs, BLJ).ok
    assert cs.covers("c1", expand_sugar(parse_formula("(p & q) -> p")), BLJ)


def test_builder_rejects_bad_axiom():
    b = DerivationBuilder(BL, EMPTY_CS)
    with pytest.raises(ProofError):
        b.axiom("BL2", parse_formula("p -> p"))


def test_checker_soundness_on_fuzzed_closed_derivations():
    # accepted closed derivations have conclusions valid in every
    # generated valid model of the same logic and specification
    import random
    from fjl.generate import ModelParams, random_derivation, random_model
    for seed in range(15):
        cs = TotalCS()
        d = random_derivation(random.Random(seed), RPLJ, cs,
                              moves=4, max_hypotheses=0)
        assert check_derivation(d, RPLJ, cs).ok
        goal = expand_sugar(d.conclusion)
        for model_seed in range(5):
            m = random_model(1000 + seed * 10 + model_seed, ModelParams(), RPLJ, cs)
            from fjl.models import validate_model
            assert validate_model(m, RPLJ, cs, [goal]).ok
            for w in m.worlds:
                assert eval_formula(m, w, goal) == 1


def test_total_cs_assignment_is_thread_consistent():
    import threading
    cs = TotalCS()
    body = parse_formula("(p & q) -> p")
    seen = []

    def worker():
        seen.append(cs.constant_for(body))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(set(seen)) == 1
