"""``validate_model`` on a fixed corpus, against pinned numbers.

The corpus holds generated BLJ, RPLJ and GJ models queried with random
goals, copies perturbed to break FE1, FE2 and FE3 or (for two seeds) to
lower the default evidence, and the RPLJ models validated again under jT, jD and
the crisp logic J.  ``tests/data/validation_corpus.json`` pins each
case's ``checks`` and its violations as sorted strings.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from fjl.generate import ModelParams, random_formula, random_model
from fjl.logics import LogicConfig
from fjl.models import FittingModel, validate_model
from fjl.parser import parse_formula
from fjl.proofs import TotalCS
from fjl.syntax import App, Const, Implies, ONE, Prop, Sum, Var, ZERO, expand_sugar

PINNED = Path(__file__).parent / "data" / "validation_corpus.json"

LOGICS = ("BLJ", "RPLJ", "GJ")
SEEDS = range(8)
PERTURBATIONS = ("none", "FE1", "FE2", "FE3", "default")


def _perturbed(model: FittingModel, kind: str) -> FittingModel:
    x1, x2, c1, p, q = Var("x1"), Var("x2"), Const("c1"), Prop("p"), Prop("q")
    evidence = dict(model.evidence)
    default = model.default_evidence
    w = model.worlds[-1]
    if kind == "FE1":
        evidence[(w, x1, Implies(p, q))] = ONE
        evidence[(w, x2, p)] = ONE
        evidence[(w, App(x1, x2), q)] = ZERO
    elif kind == "FE2":
        evidence[(w, x1, q)] = ONE
        evidence[(w, Sum(x1, x2), q)] = ZERO
    elif kind == "FE3":
        axiom = expand_sugar(parse_formula("(p & q) -> p"))
        evidence[(w, c1, axiom)] = Fraction(1, 2)
    elif kind == "default":
        default = Fraction(1, 2)
    return FittingModel(worlds=model.worlds, access=model.access, tnorm=model.tnorm,
                        valuation=model.valuation, evidence=evidence,
                        default_evidence=default)


def corpus_results() -> dict:
    """Case label -> [checks, sorted violation strings]."""
    results = {}
    cs = TotalCS()
    for logic in LOGICS:
        config = LogicConfig.from_name(logic)
        for seed in SEEDS:
            model = random_model(seed, ModelParams(), config, cs)
            rng = random.Random(1000 + seed)
            goals = [random_formula(rng, config, 3) for _ in range(3)]
            # a lowered default breaks FE2 for every unlisted sum: two seeds suffice
            kinds = PERTURBATIONS if seed < 2 else PERTURBATIONS[:-1]
            checked = [(kind, _perturbed(model, kind), config) for kind in kinds]
            if logic == "RPLJ":
                checked += [(name, model, LogicConfig.from_name(base, extras=extras))
                            for name, base, extras in (("jT", "RPLJ", ("jT",)),
                                                       ("jD", "RPLJ", ("jD",)),
                                                       ("J", "J", ()))]
            for kind, m, cfg in checked:
                report = validate_model(m, cfg, cs, goals)
                results[f"{logic}/{seed}/{kind}"] = [
                    report.checks, sorted(str(v) for v in report.violations)]
    return results


def test_validation_corpus_matches_pinned_numbers():
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    got = corpus_results()
    assert got.keys() == pinned.keys()
    for label, (checks, violations) in pinned.items():
        assert got[label][0] == checks, label
        assert got[label][1] == violations, label


def test_corpus_breaks_each_condition():
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    for kind in ("FE1", "FE2", "FE3", "frame", "crisp"):
        assert any(f"[{kind} at " in v for _, vs in pinned.values() for v in vs), kind
