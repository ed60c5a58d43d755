"""Acceptance gate: every headline property at its pinned size, with
exact-rational tolerance (zero) throughout.

Run ``pytest tests/test_acceptance.py -v -s`` to see the one-line
verdict per criterion.  Sizes and time budgets are fixed here, not
calibrated anywhere else.
"""

import time

from fjl.suites import run_suite
from fjl.tnorms import TNormKind, check_adjunction


def _verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {number:02d} {name}: {status}  {detail}".rstrip())
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_residuum_adjunction_exhaustive():
    start = time.perf_counter()
    reports = [check_adjunction(kind, 8) for kind in TNormKind]
    elapsed = time.perf_counter() - start
    violations = sum(len(r.violations) for r in reports)
    triples = sum(r.triples for r in reports)
    _verdict(1, "residuum adjunction, denominators <= 8",
             violations == 0 and elapsed < 5.0,
             f"{triples} triples, {violations} violations, {elapsed:.2f}s")


def test_criterion_02_soundness_batteries():
    start = time.perf_counter()
    report = run_suite("soundness", count=500, seed=0)
    elapsed = time.perf_counter() - start
    _verdict(2, "soundness: 500 models x 7 batteries, axioms exactly 1",
             report.ok and elapsed < 60.0,
             f"{report.cases} cases, {len(report.failures)} failures, {elapsed:.1f}s")


def test_criterion_03_stock_theorems_checked_and_valid():
    bl = run_suite("bl-theorems", count=200, seed=0)
    graded = run_suite("graded-theorems", count=200, seed=0)
    _verdict(3, "stock theorem derivations: checker + 200 models each",
             bl.ok and graded.ok,
             f"{bl.cases + graded.cases} cases, "
             f"{len(bl.failures) + len(graded.failures)} failures")


def test_criterion_04_residuum_monotonicity_and_graded_semantics():
    start = time.perf_counter()
    grid = run_suite("residuum-monotonicity", bound=8)
    graded = run_suite("graded-semantics", count=200, seed=0)
    elapsed = time.perf_counter() - start
    _verdict(4, "residuum monotonicity grid + graded-assertion semantics",
             grid.ok and graded.ok and elapsed < 5.0,
             f"{grid.cases + graded.cases} cases, "
             f"{len(grid.failures) + len(graded.failures)} failures, {elapsed:.1f}s")


def test_criterion_05_lifting_fuzz():
    start = time.perf_counter()
    report = run_suite("lift", count=100, seed=0, moves=6)
    elapsed = time.perf_counter() - start
    _verdict(5, "internalization: 100 fuzzed derivations re-check",
             report.ok and elapsed < 30.0,
             f"{report.cases} cases, {len(report.failures)} failures, {elapsed:.1f}s")


def test_criterion_06_frame_correspondences():
    report = run_suite("frames", count=200, seed=0)
    _verdict(6, "factivity/consistency on frames + countermodels",
             report.ok,
             f"{report.cases} cases, {len(report.failures)} failures")


def test_criterion_07_crisp_degeneration():
    report = run_suite("crisp")
    _verdict(7, "crisp degeneration, exhaustive Boolean agreement",
             report.ok,
             f"{report.cases} cases, {len(report.failures)} disagreements")


def test_criterion_08_conservative_embedding():
    report = run_suite("conservativity", count=200, seed=0)
    _verdict(8, "one-point embedding preserves Pavelka values",
             report.ok,
             f"{report.cases} cases, {len(report.failures)} failures")


def test_criterion_09_uncertainty_principles():
    report = run_suite("uncertainty", count=200, seed=0)
    _verdict(9, "uncertain-justification principles on 200 models",
             report.ok,
             f"{report.cases} cases, {len(report.failures)} failures")


def test_criterion_10_degree_sandwich():
    report = run_suite("degrees", depth=4, trials=40, seed=0)
    _verdict(10, "degree sandwich on the 30-case corpus, exact on 10",
             report.ok,
             f"{report.cases} cases, {len(report.failures)} failures")
