import hashlib
import json

import pytest

from fjl import models, suites
from fjl.suites import DEGREE_CORPUS, SUITES, run_suite
from fjl.syntax import print_formula
from fjl.tnorms import KERNELS, TNormKind

SMALL = {
    "adjunction": dict(bound=5),
    "tnorm-laws": dict(bound=4),
    "residuum-monotonicity": dict(bound=4),
    "bl-theorems": dict(count=3),
    "graded-theorems": dict(count=3),
    "graded-semantics": dict(count=15),
    "soundness": dict(count=4),
    "uncertainty": dict(count=10),
    "frames": dict(count=5),
    "crisp": dict(),
    "conservativity": dict(count=20),
    "lift": dict(count=5),
    "degrees": dict(trials=25),
}


#: Case counts of each suite at its ``SMALL`` size with seed 0.  A change
#: that keeps these and passes keeps every ``SuiteReport`` identical.
SMALL_CASES = {
    "adjunction": 3993,
    "tnorm-laws": 1197,
    "residuum-monotonicity": 2744,
    "bl-theorems": 24,
    "graded-theorems": 24,
    "graded-semantics": 27,
    "soundness": 360,
    "uncertainty": 40,
    "frames": 12,
    "crisp": 111360,
    "conservativity": 20,
    "lift": 5,
    "degrees": 30,
}


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes_at_small_size(name):
    report = run_suite(name, seed=0, **SMALL[name])
    assert report.ok, report.summary()
    assert report.failures == []
    assert report.cases == SMALL_CASES[name]


def test_unknown_suite_rejected():
    with pytest.raises(KeyError):
        run_suite("nonsense")


def test_suite_reports_are_deterministic():
    a = run_suite("soundness", count=3, seed=7)
    b = run_suite("soundness", count=3, seed=7)
    assert a.cases == b.cases
    assert [str(f) for f in a.failures] == [str(f) for f in b.failures]


def test_suite_report_serialization():
    report = run_suite("conservativity", count=5)
    data = report.to_dict()
    assert data["ok"] and data["cases"] == report.cases
    assert "seconds" in data


def test_degree_corpus_shape():
    assert len(DEGREE_CORPUS) == 30
    assert sum(1 for case in DEGREE_CORPUS if case.exact is not None) == 10


def test_soundness_single_logic():
    report = run_suite("soundness", count=3, logic="GJ")
    assert report.ok and report.name == "soundness(GJ)"


def test_soundness_walks_each_models_closure_once(monkeypatch):
    """One ``subformulas_many`` walk per model serves validation and
    evaluation: one per battery."""
    walks = []
    walk = models.subformulas_many
    monkeypatch.setattr(models, "subformulas_many", lambda roots: walks.append(1) or walk(roots))
    report = run_suite("soundness", count=1, seed=0)
    assert report.ok and len(walks) == 7


def _digest(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


def test_soundness_draws_are_pinned(monkeypatch):
    """Seeds 0-49: every battery's instances and MP premises, as printed,
    in seed order.  A moved draw changes the digest."""
    drawn: dict = {}
    evaluate = suites.eval_validated

    def spy(model, config, cs, formulas):
        battery = f"{config.name}/{model.tnorm.code}"
        drawn.setdefault(battery, []).append([print_formula(f) for f in formulas])
        return evaluate(model, config, cs, formulas)

    monkeypatch.setattr(suites, "eval_validated", spy)
    report = run_suite("soundness", count=50, seed=0)
    assert report.ok and len(drawn) == 7
    assert _digest(drawn) == "6d0f3e87277335e47bda5138b2c9a27fa656179b91a89fba901333d1859c7750"


@pytest.mark.parametrize("kinds, failures, digest", [
    ((TNormKind.GOEDEL,), 92,
     "406ffa477ec6333b27fa486a7f83cfa6c82d8fd1a543790c5894c326cb971a49"),
    ((TNormKind.LUKASIEWICZ, TNormKind.GOEDEL), 238,
     "7375fa93a6fe84080e3b0d14e2084424865d20daaeae70a053061aed6013e6b4"),
])
def test_soundness_failures_keep_battery_order(monkeypatch, kinds, failures, digest):
    """Implication kernels one grid unit too high fail axiom instances in
    the batteries that use them; the cases and the ordered failures are
    those of one battery after another.  With L and G both raised, two of
    BLJ's batteries fail, whose failures carry the same labels."""
    for kind in kinds:
        conj, imp = KERNELS[kind]
        monkeypatch.setitem(KERNELS, kind, (conj, lambda xs, ys, top, imp=imp:
                                            [v + 1 for v in imp(xs, ys, top)]))
    report = run_suite("soundness", count=3, seed=0)
    assert report.cases == 270 and len(report.failures) == failures
    assert _digest([report.cases, [[f.case, f.message] for f in report.failures]]) == digest
