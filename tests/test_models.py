import json
from collections import Counter
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from conftest import terms, unit_rationals
from fjl.logics import LogicConfig
from fjl.models import (
    FittingModel, MkrtychevModel, ModelError, crisp_eval, embed_rpl_valuation,
    eval_box, eval_formula, eval_many, eval_mkrtychev, eval_worlds, is_valid_in_model,
    load_model, model_from_dict, model_to_dict, validate_model,
)
from fjl.parser import parse_formula
from fjl.proofs import EMPTY_CS, FiniteCS, TotalCS
from fjl.syntax import (
    App, Const, GradedAtLeast, GradedAtMost, GradedExact, Implies, Justified,
    Neg, ONE, Prop, StrongConj, Sum, TruthConst, Var, WeakConj, WeakDisj,
    ZERO, expand_sugar, justified_pairs, print_formula, print_term,
)
from fjl.tnorms import TNormKind

L = TNormKind.LUKASIEWICZ
RPLJ = LogicConfig.from_name("RPLJ")
BLJ = LogicConfig.from_name("BLJ")
s, t = Var("s"), Var("t")
p, q = Prop("p"), Prop("q")


def single_world(tnorm=L, val=None, evid=None, reflexive=False):
    return FittingModel(
        worlds=("w",),
        access=frozenset({("w", "w")}) if reflexive else frozenset(),
        tnorm=tnorm,
        valuation={("w", name): v for name, v in (val or {}).items()},
        evidence={("w", term, body): v for (term, body), v in (evid or {}).items()})


def test_eval_justified_with_box():
    m = single_world(val={"p": Fraction(7, 10)},
                     evid={(t, p): Fraction(9, 10)}, reflexive=True)
    assert eval_formula(m, "w", Justified(t, p)) == Fraction(3, 5)


def test_eval_unit_antecedent_is_identity():
    for kind in TNormKind:
        m = single_world(tnorm=kind, val={"p": Fraction(2, 7)})
        assert eval_formula(m, "w", parse_formula("#1 -> p")) == Fraction(2, 7)


def test_eval_dead_end_world_keeps_evidence_value():
    m = single_world(val={"p": Fraction(0)}, evid={(t, p): Fraction(4, 7)})
    assert eval_formula(m, "w", Justified(t, p)) == Fraction(4, 7)


def test_eval_box_minimum_and_empty():
    m = FittingModel(
        worlds=("u", "v1", "v2"),
        access=frozenset({("u", "v1"), ("u", "v2")}),
        tnorm=L,
        valuation={("v1", "p"): Fraction(1, 2), ("v2", "p"): Fraction(3, 4)},
        evidence={})
    assert eval_box(m, "u", p) == Fraction(1, 2)
    assert eval_box(m, "v1", p) == Fraction(1)


def test_eval_box_reflexive_bound():
    m = single_world(val={"p": Fraction(2, 3)}, reflexive=True)
    assert eval_box(m, "w", p) <= eval_formula(m, "w", p)


def test_eval_unknown_world():
    with pytest.raises(ModelError):
        eval_formula(single_world(), "nowhere", p)


def test_mkrtychev_justified_is_pure_evidence():
    m = MkrtychevModel(tnorm=L, valuation={}, evidence={(t, p): Fraction(2, 5)})
    assert eval_mkrtychev(m, Justified(t, p)) == Fraction(2, 5)
    assert eval_mkrtychev(m, TruthConst(0)) == 0


def test_mkrtychev_application_axiom_value_one():
    m = MkrtychevModel(tnorm=L, valuation={}, evidence={})
    f = parse_formula("s:(p -> q) -> (t:p -> s.t:q)")
    assert eval_mkrtychev(m, f) == 1


def test_validate_fe1_violation():
    m = single_world(evid={(s, Implies(p, q)): Fraction(1),
                           (t, p): Fraction(1),
                           (App(s, t), q): Fraction(1, 2)})
    report = validate_model(m, BLJ, EMPTY_CS)
    kinds = {v.kind for v in report.violations}
    assert kinds == {"FE1"}


def test_validate_all_default_passes():
    m = single_world(val={"p": Fraction(1, 3)})
    assert validate_model(m, BLJ, EMPTY_CS, [parse_formula("s:(p -> q)")]).ok


def test_validate_fe2_violation_mixed_with_default():
    # a listed sum entry below an unlisted (default 1) component
    m = single_world(evid={(Sum(s, t), p): Fraction(1, 2)})
    report = validate_model(m, BLJ, EMPTY_CS)
    assert any(v.kind == "FE2" for v in report.violations)


def test_validate_fe3_violation():
    body = parse_formula("(p & q) -> p")
    cs = FiniteCS([GradedExact(Fraction(1), Const("c1"), body)])
    m = single_world(evid={(Const("c1"), body): Fraction(3, 4)})
    report = validate_model(m, RPLJ, cs)
    assert any(v.kind == "FE3" for v in report.violations)


def test_validate_fe3_total_cs_covers_axiom_instances():
    body = expand_sugar(parse_formula("(p & q) -> p"))
    m = single_world(evid={(Const("c1"), body): Fraction(3, 4)})
    report = validate_model(m, RPLJ, TotalCS())
    assert any(v.kind == "FE3" for v in report.violations)


class _CountingCS:
    """A constant specification that counts the questions put to it."""

    def __init__(self, cs):
        self.cs, self.asked = cs, Counter()

    def covers(self, constant, body, config):
        self.asked[(constant, body)] += 1
        return self.cs.covers(constant, body, config)


def test_validate_fe3_asks_the_cs_once_per_pair():
    axiom = expand_sugar(parse_formula("(p & q) -> p"))
    worlds = ("w0", "w1", "w2")
    evidence = {(w, Const("c1"), axiom): ONE for w in worlds}
    evidence[("w1", Const("c1"), axiom)] = Fraction(1, 2)
    evidence.update({(w, Const("c2"), p): Fraction(1, 3) for w in worlds})
    m = FittingModel(worlds=worlds, access=frozenset((u, v) for u in worlds for v in worlds),
                     tnorm=L, valuation={}, evidence=evidence)
    cs = _CountingCS(TotalCS())
    report = validate_model(m, RPLJ, cs, [Justified(Const("c3"), q),
                                          Justified(Const("c1"), axiom)])
    assert cs.asked == {("c1", axiom): 1, ("c2", p): 1, ("c3", q): 1}
    # the answer still applies at every world
    assert [(v.kind, v.world) for v in report.violations] == [("FE3", "w1")]
    assert report.checks == validate_model(m, RPLJ, TotalCS(), [
        Justified(Const("c3"), q), Justified(Const("c1"), axiom)]).checks


def test_validate_frame_demands():
    jt = LogicConfig.from_name("RPLJ", extras=("jT",))
    jd = LogicConfig.from_name("RPLJ", extras=("jD",))
    m = single_world()
    assert any(v.kind == "frame" for v in validate_model(m, jt, EMPTY_CS).violations)
    assert any(v.kind == "frame" for v in validate_model(m, jd, EMPTY_CS).violations)
    m2 = single_world(reflexive=True)
    assert validate_model(m2, jt, EMPTY_CS).ok
    assert validate_model(m2, jd, EMPTY_CS).ok


def test_validate_crisp_range():
    crisp = LogicConfig.from_name("J")
    m = single_world(val={"p": Fraction(1, 2)})
    assert any(v.kind == "crisp" for v in validate_model(m, crisp, EMPTY_CS).violations)


def test_is_valid_examples():
    m = single_world(val={"p": Fraction(1, 3)})
    assert is_valid_in_model(m, parse_formula("#0 -> p"))
    reflexive = single_world(val={"p": Fraction(1, 3)}, reflexive=True)
    assert is_valid_in_model(reflexive, parse_formula("t:p -> p"))


def test_factivity_fails_without_reflexivity():
    m = FittingModel(
        worlds=("w", "v"), access=frozenset({("w", "v")}), tnorm=L,
        valuation={("w", "p"): Fraction(0), ("v", "p"): Fraction(1)},
        evidence={("w", t, p): Fraction(1)})
    f = parse_formula("t:p -> p")
    assert eval_formula(m, "w", f) == 0
    assert not is_valid_in_model(m, f)


def test_crisp_eval_clauses():
    m = FittingModel(
        worlds=("w", "v"), access=frozenset({("w", "v")}), tnorm=L,
        valuation={("w", "p"): Fraction(0), ("v", "p"): Fraction(1)},
        evidence={("w", t, p): Fraction(1)})
    assert crisp_eval(m, "w", Justified(t, p)) == 1
    m0 = FittingModel(
        worlds=("w",), access=frozenset(), tnorm=L,
        valuation={}, evidence={("w", t, p): Fraction(0)})
    assert crisp_eval(m0, "w", Justified(t, p)) == 0


def test_crisp_eval_rejects_non_boolean():
    m = single_world(val={"p": Fraction(1, 2)})
    with pytest.raises(ModelError):
        crisp_eval(m, "w", p)


def test_embed_rpl_valuation():
    m = embed_rpl_valuation({"p": Fraction(1, 3)})
    assert eval_mkrtychev(m, p) == Fraction(1, 3)
    assert eval_mkrtychev(m, Justified(App(s, t), parse_formula("p -> q"))) == 1
    half = embed_rpl_valuation({"p": Fraction(1, 2)})
    assert eval_mkrtychev(half, parse_formula("p & p")) == 0


def test_fuzzy_box_inequality_on_random_models():
    # box(A -> B) * box(A) <= box(B) at every world of valid models
    from fjl.generate import ModelParams, random_model
    from fjl.tnorms import tnorm_apply
    cs = TotalCS()
    f = parse_formula("p -> q")
    for seed in range(60):
        m = random_model(seed, ModelParams(), BLJ, cs)
        for w in m.worlds:
            left = tnorm_apply(m.tnorm, eval_box(m, w, f), eval_box(m, w, p))
            assert left <= eval_box(m, w, q)


def test_model_json_roundtrip(tmp_path):
    m = FittingModel(
        worlds=("w0", "w1"), access=frozenset({("w0", "w1")}), tnorm=L,
        valuation={("w0", "p"): Fraction(1, 2)},
        evidence={("w0", t, expand_sugar(parse_formula("t:{>=1/2}p"))): Fraction(2, 3)},
        default_evidence=Fraction(1))
    path = tmp_path / "m.json"
    from fjl.models import save_model
    save_model(m, str(path))
    back = load_model(str(path), RPLJ)
    assert model_to_dict(back) == model_to_dict(m)


def test_model_rejects_bad_structure():
    with pytest.raises(ModelError):
        FittingModel(worlds=(), access=frozenset(), tnorm=L, valuation={}, evidence={})
    with pytest.raises(ModelError):
        FittingModel(worlds=("w",), access=frozenset({("w", "u")}), tnorm=L,
                     valuation={}, evidence={})
    with pytest.raises(ValueError):
        FittingModel(worlds=("w",), access=frozenset(), tnorm=L,
                     valuation={("w", "p"): Fraction(5, 4)}, evidence={})


def test_model_from_dict_missing_field():
    with pytest.raises(ModelError):
        model_from_dict({"worlds": ["w"]})


def test_validate_rejects_foreign_tnorm():
    m = single_world(tnorm=TNormKind.GOEDEL)
    report = validate_model(m, RPLJ, EMPTY_CS)
    assert any(v.kind == "tnorm" for v in report.violations)
    assert validate_model(m, LogicConfig.from_name("GJ"), EMPTY_CS).ok
    assert validate_model(m, BLJ, EMPTY_CS).ok


def test_validate_mkrtychev():
    from fjl.models import validate_mkrtychev
    good = embed_rpl_valuation({"p": Fraction(1, 2)})
    assert validate_mkrtychev(good, RPLJ, EMPTY_CS).ok
    bad = MkrtychevModel(
        tnorm=L, valuation={},
        evidence={(s, Implies(p, q)): Fraction(1), (t, p): Fraction(1),
                  (App(s, t), q): Fraction(1, 2)})
    report = validate_mkrtychev(bad, RPLJ, EMPTY_CS)
    assert any(v.kind == "FE1" for v in report.violations)


def test_weak_connectives_evaluate_to_min_and_max():
    from fjl.generate import ModelParams, random_model
    from fjl.syntax import WeakConj, WeakDisj
    cs = TotalCS()
    for seed in range(40):
        m = random_model(seed, ModelParams(), BLJ, cs)
        import random as _random
        rng = _random.Random(seed)
        from fjl.generate import random_formula
        a = random_formula(rng, BLJ, 2)
        b = random_formula(rng, BLJ, 2)
        for w in m.worlds:
            va, vb = eval_formula(m, w, a), eval_formula(m, w, b)
            assert eval_formula(m, w, WeakConj(a, b)) == min(va, vb)
            assert eval_formula(m, w, WeakDisj(a, b)) == max(va, vb)


# ---------------------------------------------------------------------------
# An independent evaluator: each clause read off the semantics, recursively,
# with its own t-norms and residua.

_NAIVE = {
    TNormKind.LUKASIEWICZ: (lambda a, b: max(ZERO, a + b - 1), lambda a, b: 1 - a + b),
    TNormKind.GOEDEL: (min, lambda a, b: b),
    TNormKind.PRODUCT: (lambda a, b: a * b, lambda a, b: b / a),
}


def _naive_value(m: FittingModel, w: str, f) -> Fraction:
    """Value of the primitive formula ``f`` at ``w``; t:A is E(w, t, A)
    times the least value of A at a successor, 1 at a dead end."""
    tnorm, residuum = _NAIVE[m.tnorm]
    if isinstance(f, TruthConst):
        return f.value
    if isinstance(f, Prop):
        return m.valuation.get((w, f.name), m.default_valuation)
    if isinstance(f, Implies):
        a, b = _naive_value(m, w, f.left), _naive_value(m, w, f.right)
        return ONE if a <= b else residuum(a, b)
    if isinstance(f, StrongConj):
        return tnorm(_naive_value(m, w, f.left), _naive_value(m, w, f.right))
    if isinstance(f, Justified):
        evidence = m.evidence.get((w, f.term, f.body), m.default_evidence)
        return tnorm(evidence, _naive_box(m, w, f.body))
    raise ValueError(f"not primitive: {type(f).__name__}")


def _naive_box(m: FittingModel, w: str, f) -> Fraction:
    return min([_naive_value(m, v, f) for (u, v) in m.access if u == w], default=ONE)


_ATOMS = st.sampled_from([Prop("p"), Prop("q"), Prop("r")]) | st.builds(TruthConst, unit_rationals())


def _formulas(depth: int):
    """Formulas of depth at most ``depth``, sugar and justified ones included."""
    if depth == 0:
        return _ATOMS
    sub = _formulas(depth - 1)
    return st.one_of(
        _ATOMS,
        st.builds(Implies, sub, sub),
        st.builds(StrongConj, sub, sub),
        st.builds(Justified, terms, sub),
        st.builds(Neg, sub),
        st.builds(WeakConj, sub, sub),
        st.builds(WeakDisj, sub, sub),
        st.builds(GradedAtLeast, unit_rationals(), terms, sub),
        st.builds(GradedAtMost, unit_rationals(), terms, sub),
    )


#: Model values, drawn uniformly so that interior values are common; the
#: denominators of 1/7, 1/9 and 5/8 make the integer grid of a
#: Lukasiewicz or Goedel model fine (D up to lcm(1, ..., 9) = 2520).
_VALUES = st.sampled_from(sorted({Fraction(n, d) for d in range(1, 7) for n in range(d + 1)}
                                 | {Fraction(1, 7), Fraction(1, 9), Fraction(5, 8)}))


@st.composite
def _models_with_formulas(draw):
    """Formulas of depth <= 4, the later ones built from the first two so
    that they share subformulas, and one model of 1-3 worlds per t-norm
    with arbitrary access, dead ends included, and evidence for some of
    their t:A pairs."""
    f, g = draw(_formulas(4)), draw(_formulas(3))
    formulas = [f, g, Implies(f, g), StrongConj(g, Neg(f)), Justified(draw(terms), f),
                WeakConj(g, f)]
    worlds = tuple(f"w{i}" for i in range(draw(st.integers(1, 3))))
    access = draw(st.frozensets(st.sampled_from([(a, b) for a in worlds for b in worlds])))
    valuation = {(w, p): draw(_VALUES) for w in worlds for p in "pqr"}
    evidence = {}
    pairs = set().union(*map(justified_pairs, formulas))
    for t, a in sorted(pairs, key=lambda pair: (print_term(pair[0]), print_formula(pair[1]))):
        for w in worlds:
            value = draw(st.none() | _VALUES)
            if value is not None:
                evidence[(w, t, a)] = value
    defaults = {"default_evidence": draw(_VALUES), "default_valuation": draw(_VALUES)}
    models = [FittingModel(worlds=worlds, access=access, tnorm=kind, valuation=valuation,
                           evidence=evidence, **defaults) for kind in TNormKind]
    return models, formulas


@settings(max_examples=80, deadline=None)
@given(_models_with_formulas())
def test_evaluators_agree_with_naive_recursion(case):
    models, formulas = case
    f, g = formulas[0], expand_sugar(formulas[0])
    for m in models:
        expected = {w: _naive_value(m, w, g) for w in m.worlds}
        assert eval_worlds(m, f) == expected
        for w in m.worlds:
            assert eval_formula(m, w, f) == expected[w]
            assert eval_box(m, w, f) == _naive_box(m, w, g)
        # one shared pass over formulas with common subformulas
        assert eval_many(m, formulas) == [
            {w: _naive_value(m, w, expand_sugar(h)) for w in m.worlds} for h in formulas]


@pytest.mark.parametrize("kind", list(TNormKind), ids=lambda kind: kind.code)
def test_truth_constants_off_the_models_grid_evaluate_exactly(kind):
    # The model's values have denominators 7, 9 and 8 (grid D = 504); the
    # formulas' constants 1/11 and 2/13 divide no such D, so the grid
    # must grow to take them.
    m = FittingModel(worlds=("w0", "w1"), access=frozenset({("w0", "w1"), ("w1", "w1")}),
                     tnorm=kind, valuation={("w0", "p"): Fraction(1, 7), ("w1", "p"): Fraction(5, 8),
                                            ("w0", "q"): Fraction(1, 9)},
                     evidence={("w1", s, p): Fraction(5, 8)})
    formulas = [parse_formula(text) for text in (
        "#1/11", "p -> #1/11", "#2/13 -> q", "s:p & #1/11", "p & #2/13", "~#1/11 -> s:p",
        "(p -> #1/11) -> (#2/13 -> q)")]
    got = eval_many(m, formulas)
    for h, values in zip(formulas, got):
        assert values == {w: _naive_value(m, w, expand_sugar(h)) for w in m.worlds}, h
    assert got[0] == {"w0": Fraction(1, 11), "w1": Fraction(1, 11)}


def _negations(n):
    f = Prop("p")
    for _ in range(n):
        f = Neg(f)
    return f


def test_model_with_deep_evidence_formula_saves_and_round_trips(tmp_path):
    from fjl.models import save_model

    # Evidence formulas are stored expanded, and ``~``x900 ``p`` prints
    # as 900 nested parentheses: neither saving nor reading back may
    # recurse on them.
    deep = _negations(900)
    m = FittingModel(
        worlds=("w0",), access=frozenset(), tnorm=L, valuation={},
        evidence={("w0", Var("t"), deep): Fraction(1, 2),
                  ("w0", Var("s"), deep): Fraction(1, 3)})
    save_model(m, str(tmp_path / "deep.json"))
    entries = json.loads((tmp_path / "deep.json").read_text())["evid"]["w0"]
    text = print_formula(expand_sugar(deep))
    assert entries == [{"term": "s", "formula": text, "value": "1/3"},
                       {"term": "t", "formula": text, "value": "1/2"}]
    back = load_model(str(tmp_path / "deep.json"), RPLJ)
    assert back.evidence == m.evidence
    assert model_to_dict(back) == model_to_dict(m)
