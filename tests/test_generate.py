import hashlib
import json
import random

import pytest

from fjl.generate import (
    ModelParams, SearchBudget, find_countermodel, random_derivation,
    random_formula, random_model, random_scheme_instance,
)
from fjl.logics import LogicConfig, active_schemes
from fjl.models import eval_formula, eval_worlds, model_to_dict, validate_model
from fjl.parser import parse_formula
from fjl.proofs import EMPTY_CS, TotalCS, check_derivation
from fjl.syntax import ONE
from fjl.tnorms import TNormKind

RPLJ = LogicConfig.from_name("RPLJ")
BLJ = LogicConfig.from_name("BLJ")


def test_same_seed_same_model():
    a = random_model(42, ModelParams(), RPLJ, TotalCS())
    b = random_model(42, ModelParams(), RPLJ, TotalCS())
    assert model_to_dict(a) == model_to_dict(b)
    c = random_model(43, ModelParams(), RPLJ, TotalCS())
    assert model_to_dict(a) != model_to_dict(c)


@pytest.mark.parametrize("logic, digest", [
    ("BLJ", "b3e62292eba0af184af1e7abf9239e9f0a8b522f4fa253a371627cd6529a7e46"),
    ("RPLJ", "4b40dd0df11f06ca0002399688e9401b5edcecbc4d44ebf7ee9ccf3de5d55eab"),
    ("GJ", "1da783e2ccd58985f5231713bee31ab81702a37ea8aa6714b82c3049dc80bc6c"),
])
def test_random_models_are_pinned(logic, digest):
    """Seeds 0-199: a change that moves one random draw changes the digest."""
    config = LogicConfig.from_name(logic)
    h = hashlib.sha256()
    for seed in range(200):
        model = random_model(seed, ModelParams(), config, TotalCS())
        h.update(json.dumps(model_to_dict(model), sort_keys=True).encode())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("logic", ["BLJ", "LJ", "GJ", "PiJ", "RPLJ", "J"])
def test_generated_models_validate(logic):
    config = LogicConfig.from_name(logic)
    cs = TotalCS()
    for seed in range(25):
        model = random_model(seed, ModelParams(), config, cs)
        assert validate_model(model, config, cs).ok


def test_frame_constraints_enforced():
    jt = LogicConfig.from_name("RPLJ", extras=("jT",))
    jd = LogicConfig.from_name("RPLJ", extras=("jD",))
    both = LogicConfig.from_name("RPLJ", extras=("jT", "jD"))
    for seed in range(20):
        reflexive = random_model(seed, ModelParams(), jt, TotalCS())
        assert all((w, w) in reflexive.access for w in reflexive.worlds)
        serial = random_model(seed, ModelParams(), jd, TotalCS())
        assert all(serial.successors(w) for w in serial.worlds)
        assert validate_model(random_model(seed, ModelParams(), both, TotalCS()),
                              both, TotalCS()).ok


def test_tnorm_pinning():
    m = random_model(5, ModelParams(tnorm=TNormKind.PRODUCT), BLJ, TotalCS())
    assert m.tnorm == TNormKind.PRODUCT


@pytest.mark.parametrize("seed", range(0, 300, 37))
def test_a_given_tnorm_moves_no_other_draw(seed):
    """The soundness suite checks one BLJ draw under each t-norm."""
    drawn = [random_model(seed, ModelParams(tnorm=kind), BLJ, TotalCS()) for kind in TNormKind]
    assert [m.tnorm for m in drawn] == list(TNormKind)
    tables = [model_to_dict(m) for m in drawn]
    for table in tables:
        del table["tnorm"]
    assert tables[0] == tables[1] == tables[2]


def test_scheme_instances_are_instances():
    rng = random.Random(0)
    for scheme in active_schemes(RPLJ):
        for _ in range(5):
            inst = random_scheme_instance(rng, scheme, RPLJ)
            assert scheme.match(inst) is not None


def test_random_formulas_respect_config():
    rng = random.Random(1)
    bl = LogicConfig.from_name("BL")
    for _ in range(50):
        f = random_formula(rng, bl, 3)
        # no justification terms and no graded constants outside the language
        from fjl.parser import parse_formula as pf
        from fjl.syntax import print_formula
        assert pf(print_formula(f), bl) == f


def test_countermodel_for_factivity_without_reflexivity():
    hit = find_countermodel(parse_formula("t:p -> p"), RPLJ, EMPTY_CS,
                            SearchBudget(max_worlds=3, max_denominator=12,
                                         trials=300, seed=0))
    assert hit is not None
    model, world = hit
    assert validate_model(model, RPLJ, EMPTY_CS, [parse_formula("t:p -> p")]).ok
    assert eval_formula(model, world, parse_formula("t:p -> p")) < ONE
    # t:p is at most the box of p, so factivity holds at every world that sees itself
    assert all(v == ONE for w, v in eval_worlds(model, parse_formula("t:p -> p")).items()
               if (w, w) in model.access)
    assert (world, world) not in model.access


def test_countermodel_for_consistency_without_seriality():
    hit = find_countermodel(parse_formula("~t:#0"), RPLJ, EMPTY_CS,
                            SearchBudget(max_worlds=3, max_denominator=12,
                                         trials=300, seed=0))
    assert hit is not None
    model, world = hit
    assert eval_formula(model, world, parse_formula("~t:#0")) < ONE


def test_no_countermodel_for_axiom_instance():
    hit = find_countermodel(parse_formula("(p & q) -> p"), RPLJ, EMPTY_CS,
                            SearchBudget(trials=60, seed=0))
    assert hit is None


def test_random_derivations_are_accepted():
    for seed in range(20):
        rng = random.Random(seed)
        cs = TotalCS()
        d = random_derivation(rng, RPLJ, cs, moves=4)
        report = check_derivation(d, RPLJ, cs)
        assert report.ok, f"seed {seed}: {report.summary()}"


def test_random_derivation_determinism():
    cs1, cs2 = TotalCS(), TotalCS()
    d1 = random_derivation(random.Random(9), RPLJ, cs1, moves=5)
    d2 = random_derivation(random.Random(9), RPLJ, cs2, moves=5)
    assert d1 == d2
