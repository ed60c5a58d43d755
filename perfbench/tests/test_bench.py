"""Checks of the benchmark itself.

    python3 -m pytest -q perfbench/tests

Counts must repeat exactly across processes and hash seeds, a wrong
verdict must show in the failure count, traces must be well formed, and
the benchmark must print the metrics ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

CASES = {"soundness": 4, "internalize": 6, "check-proof": 10}
SEED = 3


def run_worker(workload: str, hash_seed: int, trace_out=None) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
           "--seed", str(SEED), "--mode", "trace", "--cases", str(CASES[workload])]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module", params=sorted(CASES))
def traced_pair(request, tmp_path_factory):
    """One workload traced twice, in two processes with different hash seeds."""
    trace_out = tmp_path_factory.mktemp("trace") / "run.spans"
    first = run_worker(request.param, 1, trace_out)
    second = run_worker(request.param, 2)
    return request.param, first, second, spans.load(str(trace_out))


def test_counts_repeat_across_processes(traced_pair):
    workload, first, second, _ = traced_pair
    counted = {name for name in first["layers"] if not name.endswith("_s")}
    assert {"proof_steps", "proof_bytes", "models.validate_model.checks",
            "proofs.check_derivation.steps", "proofs.builder.steps_emitted",
            "lifting.lift.calls", "parser.parse_formula.calls"} <= counted
    for name in sorted(counted):
        assert first["layers"][name] == second["layers"][name], name
    assert first["counts"] == second["counts"]
    assert first["failed"] == second["failed"] == []
    assert len(first["latencies_s"]) == len(second["latencies_s"]) == CASES[workload]


def test_trace_is_well_formed(traced_pair):
    workload, run, _, trace = traced_pair
    start, end, parent, case = trace["start"], trace["end"], trace["parent"], trace["case"]
    assert start, "a traced run records spans"
    top_end = 0
    child_ns = [0] * len(start)
    for i in range(len(start)):
        assert start[i] <= end[i]
        p = parent[i]
        if p < 0:
            assert start[i] >= top_end, "top-level spans overlap"
            top_end = end[i]
        else:
            assert p < i
            assert start[p] <= start[i] and end[i] <= end[p], "child outside its parent"
            assert case[i] == case[p], "child of another case"
            child_ns[p] += end[i] - start[i]
    assert set(case) <= set(range(-1, CASES[workload]))
    assert set(range(CASES[workload])) <= set(case)

    # self times recomputed from the spans match the reported ones, and
    # with the benchmark's own time they add up to the traced wall time
    self_s = {}
    for i, nid in enumerate(trace["name"]):
        name = trace["names"][nid]
        self_s[name] = self_s.get(name, 0) + (end[i] - start[i] - child_ns[i]) / 1e9
    layers = run["layers"]
    for name, seconds in self_s.items():
        key = "parser.self_s" if name == "parser.parse_formula" else f"{name}.self_s"
        assert layers[key] == pytest.approx(seconds, abs=1e-6), name
    wall = run["setup_wall_s"] + run["input_s"] + run["wall_s"]
    assert layers["trace.bench_self_s"] >= 0
    assert sum(self_s.values()) + layers["trace.bench_self_s"] == pytest.approx(wall, rel=1e-9)


def test_wrong_verdict_counts_as_failed():
    api = workloads.plain_api()
    work = workloads.WORKLOADS["check-proof"]
    inputs = workloads.Inputs(work.inputs(api, SEED), ready=4)
    good = [inputs.case(k) for k in range(4)]
    assert [c.expect for c in good] == [True, False, True, False]
    cases = good + [
        dataclasses.replace(good[1], expect=True),               # corrupted, labelled accept
        dataclasses.replace(good[0], expect=False),              # accepted, labelled reject
        workloads.Case(-1, True, "STEP one p BY AX BL1\n"),      # raises in the parser
    ]
    result = worker.timed_loop(work, api, cases.__getitem__, cases=len(cases))
    assert len(result["failed"]) == 3
    assert all(f"case {k} " in line for k, line in zip((4, 5, 6), result["failed"]))


def test_internalize_seed_1_matches_roadmap():
    api = workloads.plain_api()
    d = workloads.fuzzed_derivation(api, 1)
    outcome = workloads.internalize_case(api, workloads.Case(1, True, d))
    assert outcome.verdict
    assert len(d.steps) == 52
    assert outcome.counts["proof_steps"] == 2815


def run_bench(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_prints_the_metrics_benchmark_json_names(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    proc = run_bench(ROOT, "check-proof", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want


def test_fails_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(str(tmp_path), "soundness", 0)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
