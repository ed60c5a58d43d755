"""The kernel against single mutations of derivations it accepts.

A mutant changes one thing in an accepted derivation: one step's formula
becomes another step's, one MP reference moves by one, or one AX tag
becomes another tag active in the logic.  The kernel must reject the
mutant, or the mutant must be sound: in every validated random model,
at every world where all hypotheses are 1, every step is 1.

A step takes the formula of each step at most ``NEAR`` places away.
Taking every other step's would make the work cubic in a derivation's
length, and the ``conj-monotone`` derivation has 314 steps.

The same semantic check runs on lifted outputs, which the kernel has
accepted, with no mutation.
"""

import random

from conftest import stock_derivations
from fjl.generate import ModelParams, random_derivation, random_model
from fjl.lifting import lift
from fjl.logics import LogicConfig, schemes_by_tag
from fjl.models import eval_validated
from fjl.proofs import Ax, BL_THEOREMS, Derivation, MP, Step, TotalCS, check_derivation
from fjl.syntax import ONE

BLJ = LogicConfig.from_name("BLJ")
RPLJ = LogicConfig.from_name("RPLJ")
NEAR = 3


def _inputs():
    """(label, derivation, logic, specification) for fuzzed RPLJ
    derivations of seeds 0-19 and each stock theorem at the suites' draw
    for seed 0; the BL theorems are checked in BLJ, as their suite does."""
    for seed in range(20):
        cs = TotalCS()
        yield f"fuzzed@{seed}", random_derivation(random.Random(seed), RPLJ, cs), RPLJ, cs
    for name, d in stock_derivations(0):
        yield name, d, BLJ if name in BL_THEOREMS else RPLJ, TotalCS()


def _mutants(d: Derivation, config: LogicConfig):
    steps, tags = d.steps, list(schemes_by_tag(config))
    for i, step in enumerate(steps):
        def put(formula, rule):
            return Derivation(d.hypotheses, steps[:i] + (Step(formula, rule),) + steps[i + 1:])

        for j in range(max(0, i - NEAR), min(len(steps), i + NEAR + 1)):
            if j != i:
                yield put(steps[j].formula, step.rule)
        rule = step.rule
        if isinstance(rule, MP):
            for shift in (-1, 1):
                yield put(step.formula, MP(rule.antecedent + shift, rule.implication))
                yield put(step.formula, MP(rule.antecedent, rule.implication + shift))
        elif isinstance(rule, Ax):
            for tag in tags:
                if tag != rule.scheme:
                    yield put(step.formula, Ax(tag))


def _sound(d: Derivation, config: LogicConfig, cs) -> bool:
    hypotheses = list(d.hypotheses)
    for seed in range(10):
        model = random_model(seed, ModelParams(), config, cs)
        rows = eval_validated(model, config, cs, hypotheses + [s.formula for s in d.steps])
        assert rows is not None, f"random model {seed} fails validation"
        hyp_rows, step_rows = rows[:len(hypotheses)], rows[len(hypotheses):]
        for w in model.worlds:
            if all(row[w] == ONE for row in hyp_rows) and any(row[w] != ONE for row in step_rows):
                return False
    return True


def test_the_kernel_rejects_each_mutant_or_the_mutant_is_sound():
    made = rejected = 0
    for label, d, config, cs in _inputs():
        assert check_derivation(d, config, cs).ok, label
        for mutant in _mutants(d, config):
            made += 1
            if not check_derivation(mutant, config, cs).ok:
                rejected += 1
            else:
                assert _sound(mutant, config, cs), f"{label}: unsound mutant accepted"
    assert (made, rejected) == (17255, 17244)


def test_lifted_outputs_hold_wherever_their_hypotheses_do():
    """Soundness on lifted outputs: the fuzzed derivations of seeds 0-24,
    lifted once, checked in random models 0-4.  In each validated model,
    at every world where all the output's hypotheses are 1, every output
    step is 1.  This does not go through the scheme matcher, so it also
    catches a matcher that accepts a non-instance."""
    steps = validated = live = 0
    for seed in range(25):
        cs = TotalCS()
        _, lifted = lift(random_derivation(random.Random(seed), RPLJ, cs), cs, RPLJ)
        hypotheses = list(lifted.hypotheses)
        steps += len(lifted.steps)
        for model_seed in range(5):
            model = random_model(model_seed, ModelParams(), RPLJ, cs)
            rows = eval_validated(model, RPLJ, cs,
                                  hypotheses + [s.formula for s in lifted.steps])
            if rows is None:
                continue
            validated += 1
            hyp_rows, step_rows = rows[:len(hypotheses)], rows[len(hypotheses):]
            for w in model.worlds:
                if all(row[w] == ONE for row in hyp_rows):
                    live += 1
                    assert all(row[w] == ONE for row in step_rows), (seed, model_seed, w)
    assert (steps, validated, live) == (24175, 125, 112)
