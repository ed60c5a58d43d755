import pytest

from fjl import models
from fjl.suites import DEGREE_CORPUS, SUITES, run_suite

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
