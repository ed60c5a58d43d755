import random
from fractions import Fraction

import hypothesis.strategies as st

from fjl.generate import random_formula, random_term
from fjl.logics import LogicConfig
from fjl.proofs import BL_THEOREMS, GRADED_THEOREMS, stock_derivation
from fjl.syntax import (
    App, BiImpl, Const, Equiv, GradedAtLeast, GradedAtMost, GradedExact,
    Implies, Justified, Neg, Prop, StrongConj, Sum, TruthConst, Var, WeakConj,
    WeakDisj,
)


@st.composite
def unit_rationals(draw, max_denominator=12):
    den = draw(st.integers(1, max_denominator))
    num = draw(st.integers(0, den))
    return Fraction(num, den)


term_atoms = st.sampled_from(
    [Var("x1"), Var("x2"), Var("s"), Var("t"), Const("c1"), Const("c2")])

terms = st.recursive(
    term_atoms,
    lambda children: st.builds(App, children, children)
    | st.builds(Sum, children, children),
    max_leaves=6,
)

formula_atoms = st.sampled_from([Prop("p"), Prop("q"), Prop("r")]) \
    | st.builds(TruthConst, unit_rationals())


def _composites(children):
    return st.one_of(
        st.builds(Implies, children, children),
        st.builds(StrongConj, children, children),
        st.builds(Justified, terms, children),
        st.builds(Neg, children),
        st.builds(WeakConj, children, children),
        st.builds(WeakDisj, children, children),
        st.builds(Equiv, children, children),
        st.builds(BiImpl, children, children),
        st.builds(GradedAtLeast, unit_rationals(), terms, children),
        st.builds(GradedAtMost, unit_rationals(), terms, children),
        st.builds(GradedExact, unit_rationals(), terms, children),
    )


formulas = st.recursive(formula_atoms, _composites, max_leaves=8)

primitive_formulas = st.recursive(
    formula_atoms,
    lambda children: st.one_of(
        st.builds(Implies, children, children),
        st.builds(StrongConj, children, children),
        st.builds(Justified, terms, children),
    ),
    max_leaves=8,
)


def stock_derivations(seed: int) -> list:
    """(name, derivation) for each stock theorem, its arguments drawn for
    ``seed`` as the ``bl-theorems`` and ``graded-theorems`` suites draw them."""
    rng = random.Random(seed)
    args = [random_formula(rng, LogicConfig.from_name("BLJ"), 2) for _ in range(4)]
    out = [(name, stock_derivation(name, *args[:arity]))
           for name, (arity, _) in BL_THEOREMS.items()]
    rng = random.Random(seed)
    t = random_term(rng, 1)
    a = random_formula(rng, LogicConfig.from_name("RPLJ"), 2)
    r, r2 = Fraction(rng.randint(0, 6), 6), Fraction(rng.randint(0, 6), 6)
    graded = {2: (t, a), 3: (t, a, r), 4: (t, a, min(r, r2), max(r, r2))}
    return out + [(name, stock_derivation(name, *graded[arity]))
                  for name, (arity, _) in GRADED_THEOREMS.items()]
