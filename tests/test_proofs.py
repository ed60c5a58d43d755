import inspect
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import formulas, terms, unit_rationals
from fjl.generate import random_derivation
from fjl.lifting import lift
from fjl.logics import LogicConfig
from fjl.models import eval_formula
from fjl.parser import ConstantNotAllowedError, LexicalError, ParseError, parse_formula
from fjl.proofs import (
    Ax, BL_THEOREMS, Derivation, DerivationBuilder, EMPTY_CS, FiniteCS, Gian,
    GRADED_THEOREMS, Hyp, Ian, MP, ProofError, ShapeError, Step, TotalCS,
    check_cs, check_derivation, cs_entry, format_derivation, parse_cs, parse_derivation,
    split_cs_layer, stock_derivation, strip_cs_chain,
)
from fjl.syntax import (
    App, Const, GradedAtLeast, GradedExact, Implies, Justified, ONE, Prop, StrongConj,
    TruthConst, VERUM, Var, expand_sugar, print_formula, print_many, print_term,
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


@settings(max_examples=100, deadline=None)
@given(formulas, formulas, st.sampled_from(["c1", "c2"]))
def test_finite_cs_covers_exactly_the_entries_it_contains(a, b, constant):
    """``covers(c, B)`` builds the expanded layer of ``c:B`` itself; it must
    agree with ``contains`` on the ``cs_entry`` layer, graded or plain,
    whether ``B`` is written with sugar or expanded."""
    for config in (RPLJ, BLJ):
        graded = config.graded_necessitation
        cs = FiniteCS([cs_entry("c1", a, graded)])
        for body in (a, b, expand_sugar(a)):
            expected = cs.contains(cs_entry(constant, body, graded), config)
            assert cs.covers(constant, body, config) == expected
        assert cs.covers("c1", a, config)


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
    assert name1 == cs.constant_for(expand_sugar(body))
    name2 = cs.constant_for(parse_formula("(q & p) -> q"))
    assert name1 != name2
    assert (name1, name2) == ("c_1", "c_2")


def _builder(*premises: str):
    """An RPLJ builder over the hypotheses ``premises``, and their steps."""
    b = DerivationBuilder(RPLJ, [parse_formula(h) for h in premises])
    return b, [b.hyp(i) for i in range(len(premises))]


def _gmp(implication: str, antecedent: str) -> Derivation:
    b, (i, j) = _builder(implication, antecedent)
    b.gmp(i, j)
    return b.build()


def test_build_gmp_grades():
    d = _gmp("#3/4 -> (p -> q)", "#1/2 -> p")
    assert check_derivation(d, RPLJ, EMPTY_CS).ok
    assert d.conclusion == parse_formula("#1/4 -> q")
    unit = _gmp("#1 -> (p -> q)", "#1 -> p")
    assert unit.conclusion == parse_formula("#1 -> q")


def test_build_gmp_shape_mismatch():
    with pytest.raises(ShapeError):
        _gmp("#3/4 -> (p -> q)", "#1/2 -> r")
    with pytest.raises(ShapeError):
        _gmp("p -> q", "#1/2 -> p")


def test_build_jgmp():
    b, (i, j) = _builder("s:{>=2/3}(p -> q)", "t:{>=2/3}p")
    b.jgmp(i, j)
    d = b.build()
    assert check_derivation(d, RPLJ, EMPTY_CS).ok
    assert d.conclusion == expand_sugar(parse_formula("s.t:{>=1/3}q"))


def test_build_mon_both_sides():
    b, (i,) = _builder("s:{>=1/2}p")
    right = b.formula(b.mon(i, "right", t))
    left = b.formula(b.mon(i, "left", t))
    assert check_derivation(b.build(), RPLJ, EMPTY_CS).ok
    assert right == expand_sugar(parse_formula("s+t:{>=1/2}p"))
    assert left == expand_sugar(parse_formula("t+s:{>=1/2}p"))


def test_builders_emit_only_primitive_rules():
    b, (i, j) = _builder("s:{>=2/3}(p -> q)", "t:{>=2/3}p")
    b.jgmp(i, j)
    assert all(isinstance(s.rule, (Hyp, Ax, MP, Ian, Gian)) for s in b.steps)


def test_power_formula_is_square_under_luka():
    from fjl.models import FittingModel
    from fjl.tnorms import TNormKind
    m = FittingModel(worlds=("w",), access=frozenset(),
                     tnorm=TNormKind.LUKASIEWICZ,
                     valuation={("w", "p"): Fraction(3, 4)}, evidence={})
    assert eval_formula(m, "w", StrongConj(p, p)) == Fraction(1, 2)


# ``key`` is the theorem's 1-based place in its table
@pytest.mark.parametrize("key", range(1, len(BL_THEOREMS) + 1))
def test_bl_theorem_derivations_check(key):
    name, (arity, recipe) = list(BL_THEOREMS.items())[key - 1]
    assert arity == len(inspect.signature(recipe).parameters) - 1      # after the builder
    d = stock_derivation(name, *[p, q, r, Prop("u")][:arity])
    report = check_derivation(d, BL, EMPTY_CS)
    assert report.ok, f"{name}: {report.summary()}"


@pytest.mark.parametrize("key", range(1, len(GRADED_THEOREMS) + 1))
def test_graded_theorem_derivations_check(key):
    name, (arity, recipe) = list(GRADED_THEOREMS.items())[key - 1]
    assert arity == len(inspect.signature(recipe).parameters) - 1
    d = stock_derivation(name, *[t, p, Fraction(1, 3), Fraction(2, 3)][:arity])
    report = check_derivation(d, RPLJ, TotalCS())
    assert report.ok, f"{name}: {report.summary()}"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text("abcxyz019_", min_size=1, max_size=3).map("c".__add__),
                min_size=1, max_size=4),
       formulas, unit_rationals().filter(lambda r: r != ONE),
       terms.filter(lambda u: not isinstance(u, Const)))
def test_graded_layer_recognises_exactly_the_expansion_of_its_sugar(names, body, grade, term):
    """``split_cs_layer`` reads c:{==1}A's primitive form; it must agree
    with ``expand_sugar`` and take nothing near it."""
    c = names[0]
    layer = expand_sugar(GradedExact(ONE, Const(c), body))
    assert split_cs_layer(layer, True) == (c, expand_sugar(body))
    chain = body
    for name in reversed(names):
        chain = GradedExact(ONE, Const(name), chain)
    inner, core = strip_cs_chain(expand_sugar(body), True)
    assert strip_cs_chain(expand_sugar(chain), True) == (names + inner, core)
    for near in (GradedExact(Fraction(1, 2), Const(c), body), GradedExact(grade, Const(c), body),
                 GradedExact(ONE, Var("x"), body), GradedExact(ONE, term, body)):
        assert split_cs_layer(expand_sugar(near), True) is None
    assert split_cs_layer(StrongConj(layer.right, layer.left), True) is None
    # the layer read slot by slot, as the hand check reads it: the slots
    # below rebuild it, and a change in any one slot is a near miss
    j = Justified(Const(c), expand_sugar(body))
    slots = dict(conj=StrongConj, imp=Implies, g=VERUM, j=j, outer=Implies, repeat=None,
                 inner=Implies, j2=None, g2=VERUM)

    def form(conj, imp, g, j, outer, repeat, inner, j2, g2):
        left = imp(g, j)     # (g -> j) & ((g -> j) -> (j2 -> g2))
        return conj(left, outer(repeat or left, inner(j2 or j, g2)))

    assert form(**slots) is layer
    other = Justified(Const(c + "'"), j.body)
    changes = dict(conj=Implies, imp=StrongConj, g=TruthConst(grade),
                   j=GradedAtLeast(ONE, Const(c), j.body), outer=StrongConj,
                   repeat=Implies(VERUM, other), inner=StrongConj, j2=other, g2=TruthConst(grade))
    for slot, change in changes.items():
        assert split_cs_layer(form(**dict(slots, **{slot: change})), True) is None, slot


def test_graded_from_exact_one_takes_exactly_the_exact_grade_one_layers():
    b = DerivationBuilder(RPLJ, [parse_formula("x:{==1}p"), parse_formula("(p -> q) & r")])
    assert b.formula(b.graded_from_exact_one(b.hyp(0))) == parse_formula("#1 -> x:p")
    with pytest.raises(ShapeError):
        b.graded_from_exact_one(b.hyp(1))


def test_check_cs_reads_entries_expanded_and_prints_a_missing_tail_as_layers():
    written = ["c3:{==1}c2:{==1}c1:{==1}((p & q) -> p)",
               "c1:{>=1}((p & q) -> p) /\\ c1:{<=1}((p & q) -> p)"]
    entries = [parse_formula(text) for text in written]
    report = check_cs(FiniteCS([expand_sugar(entries[0]), entries[1]]), RPLJ)
    assert report.problems == [
        f"{print_formula(expand_sugar(entries[0]))}: tail c2:{{==1}}c1:{{==1}}(p & q -> p) "
        f"missing (downward closure)"]
    assert check_cs(FiniteCS(entries[1:]), RPLJ).ok


def test_graded_weakening_rejects_inverted_grades():
    with pytest.raises(ShapeError):
        stock_derivation("grade-weakening", t, p, Fraction(2, 3), Fraction(1, 3))


def test_theorem_conclusions_have_the_documented_shapes():
    from fjl.syntax import Neg, WeakConj, WeakDisj, Equiv, GradedAtLeast, GradedAtMost, Justified
    assert stock_derivation("unit").conclusion == expand_sugar(Neg(TruthConst(0)))
    assert stock_derivation("weakening", p, q).conclusion == Implies(p, Implies(q, p))
    assert stock_derivation("strong-to-weak", p, q).conclusion == \
        expand_sugar(Implies(StrongConj(p, q), WeakConj(p, q)))
    assert stock_derivation("weak-projection", p, q).conclusion == \
        expand_sugar(Implies(WeakConj(p, q), p))
    assert stock_derivation("implication-weak-intro", p, q).conclusion == \
        expand_sugar(Implies(Implies(p, q), Implies(p, WeakConj(p, q))))
    assert stock_derivation("prelinearity", p, q).conclusion == \
        expand_sugar(WeakDisj(Implies(p, q), Implies(q, p)))
    assert stock_derivation("upper-one", t, p).conclusion == \
        expand_sugar(GradedAtMost(Fraction(1), t, p))
    assert stock_derivation("exact-one-equivalence", t, p).conclusion == \
        expand_sugar(Equiv(GradedAtLeast(Fraction(1), t, p),
                           GradedExact(Fraction(1), t, p)))
    assert stock_derivation("exact-one-unwrap", t, p).conclusion == \
        expand_sugar(Implies(GradedExact(Fraction(1), t, p), Justified(t, p)))
    assert stock_derivation("grade-dichotomy", t, p, Fraction(1, 2)).conclusion == \
        expand_sugar(WeakDisj(GradedAtLeast(Fraction(1, 2), t, p),
                              GradedAtMost(Fraction(1, 2), t, p)))


def test_closed_theorems_are_semantically_valid():
    # checker soundness spot-check: closed conclusions take value 1
    from fjl.generate import ModelParams, random_model
    cs = TotalCS()
    conclusions = [
        stock_derivation("exchange", p, q, r).conclusion,
        stock_derivation("conj-monotone", p, q, r, Prop("u")).conclusion,
        stock_derivation("refute-upper", t, p, Fraction(1, 3)).conclusion,
        stock_derivation("refute-lower", t, p, Fraction(2, 3)).conclusion,
        stock_derivation("lower-zero", t, p).conclusion,
    ]
    for seed in range(30):
        m = random_model(seed, ModelParams(), RPLJ, cs)
        for f in conclusions:
            for w in m.worlds:
                assert eval_formula(m, w, f) == 1


def test_derivation_file_roundtrip():
    d = _gmp("#3/4 -> (p -> q)", "#1/2 -> p")
    text = format_derivation(d)
    back = parse_derivation(text, RPLJ)
    assert check_derivation(back, RPLJ, EMPTY_CS).ok
    assert back.conclusion == d.conclusion
    assert format_derivation(back) == text


def test_parsed_files_share_equal_subformulas():
    d = _gmp("#3/4 -> (p -> q)", "#1/2 -> p")
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


@pytest.mark.parametrize("by", ["HYP +1", "HYP 0_1", "HYP \u0661", "HYP \u00b9",
                                "MP 1 +1", "MP \uff11 1", "HYP -1", "MP 1 1.0"])
def test_derivation_file_step_references_are_ascii_digits(by):
    with pytest.raises(ProofError, match="line 2: malformed rule"):
        parse_derivation(f"HYP p\nSTEP 1 p BY {by}\n")


@pytest.mark.parametrize("number", ["+1", "0_1", "\u0661", " 1", "1.0"])
def test_derivation_file_step_numbers_are_ascii_digits(number):
    with pytest.raises(ProofError, match="line 2: malformed STEP line"):
        parse_derivation(f"HYP p\nSTEP {number} p BY HYP 1\n")


@pytest.mark.parametrize("text, line, cls, position", [
    ("STEP 1 p BY AX BL2\nSTEP 2 (p -> BY AX BL2\n", 2, ParseError, 5),
    ("HYP p\n\n# note\nHYP q $ r\n", 4, LexicalError, 2),
    ("HYP p\nSTEP 1 (p & q) -> #1/3 BY AX BL2\n", 2, ConstantNotAllowedError, 12),
])
def test_derivation_file_formula_errors_name_the_line(text, line, cls, position):
    with pytest.raises(cls) as info:
        parse_derivation(text, BL)
    assert type(info.value) is cls
    assert info.value.position == position
    assert info.value.message.startswith(f"line {line}: ")
    assert str(info.value).endswith(f"(at position {position})")


def test_cs_file_formula_errors_name_the_line():
    with pytest.raises(ParseError, match=r"^line 3: expected a formula") as info:
        parse_cs("c1:((p & q) -> p)\n# c2\nc2:(p ->\n", BLJ)
    assert info.value.position == 8


def test_large_lifted_file_parses_back_to_the_same_formulas():
    """A lifted output of thousands of steps, formatted and read back: the
    same interned hypotheses and step formulas, and the kernel accepts it."""
    d = _fuzzed(1)
    lifted = lift(d, TotalCS(), RPLJ)[1]
    text = format_derivation(lifted)
    assert len(lifted.steps) > 2_000 and len(text) > 2_000_000
    back = parse_derivation(text, RPLJ)
    assert len(back.hypotheses) == len(lifted.hypotheses)
    assert all(a is b for a, b in zip(back.hypotheses, lifted.hypotheses))
    assert len(back.steps) == len(lifted.steps)
    assert all(a.formula is b.formula and a.rule == b.rule
               for a, b in zip(back.steps, lifted.steps))
    assert check_derivation(back, RPLJ, TotalCS()).ok


def test_derivation_file_accepts_each_rule_with_its_words():
    d = parse_derivation("HYP p\nSTEP 1 p BY HYP 1\nSTEP 2 (p & q) -> p BY AX BL2\n"
                         "STEP 3 p BY MP 1 2\nSTEP 4 c1:p BY IAN\nSTEP 5 c1:p BY  GIAN \n")
    assert [step.rule for step in d.steps] == [Hyp(0), Ax("BL2"), MP(0, 1), Ian(), Gian()]


def test_cs_file_parsing():
    cs = parse_cs("# comment\nc1:((p & q) -> p)\n\n", BLJ)
    assert check_cs(cs, BLJ).ok
    assert cs.covers("c1", expand_sugar(parse_formula("(p & q) -> p")), BLJ)


def test_a_line_starting_with_a_truth_constant_is_an_entry_not_a_comment():
    text = "c1:{==1}(#0 -> p)\n#1/2 -> c1:p\n# 1/2 is a comment\n#comment\n"
    cs = parse_cs(text, RPLJ)
    assert cs.entries == (parse_formula("c1:{==1}(#0 -> p)"), parse_formula("#1/2 -> c1:p"))
    report = check_cs(cs, RPLJ)
    assert not report.ok and any("#1/2 -> c1:p" in problem for problem in report.problems)
    with pytest.raises(ProofError, match="line 1: expected HYP or STEP"):
        parse_derivation("#0 -> p\nSTEP 1 p BY HYP 1\n")


def test_builder_rejects_bad_axiom():
    b = DerivationBuilder(BL)
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
