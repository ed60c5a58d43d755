"""fjl's benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload soundness --seed 0 --seconds 30 --trace 0

Run from the root of a checkout.  Every case's verdict is checked
against its known answer.  With ``--trace 0`` the run reports the
end-to-end metrics: set-up time (the median of three fresh interpreters
making the inputs), throughput, latency percentiles and peak memory.
With ``--trace 1`` it reports per-layer calls, self times and counters
from a traced interpreter, and the tracing overhead against an untraced
interpreter running the same cases.  A table goes first; the last line
of standard output is one JSON object.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
TRACE_DIR = os.path.join(ROOT, ".bench_trace")

WORKLOADS = ("soundness", "internalize", "check-proof")

#: Interpreters that make the inputs per untraced run; ``setup_s`` is their median.
SETUPS = 3

#: Cases per block of ``cases_per_s``; even, so each block holds as many
#: cases of each kind as the workloads alternate.
BLOCK = 20

#: Cases the untraced interpreter repeats to measure ``trace.overhead_ratio``.
OVERHEAD_CASES = 100

#: Longest a worker may take beyond the measured seconds before it is stopped.
WORKER_GRACE_S = 90

UNITS = {"cases_per_s": "1/s", "case_ms.p50": "ms", "case_ms.p90": "ms",
         "peak_rss_mb": "MB", "proof_bytes": "bytes"}


def layer_unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def spawn(workload: str, seed: int, mode: str, seconds=None, cases=None,
          trace_out=None) -> tuple[float, dict]:
    """Run one worker interpreter; returns (seconds from spawn until its
    inputs were ready, its JSON result)."""
    cmd = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
           "--mode", mode]
    if seconds is not None:
        cmd += ["--seconds", repr(seconds)]
    if cases is not None:
        cmd += ["--cases", str(cases)]
    if trace_out is not None:
        cmd += ["--trace-out", trace_out]
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=(seconds or 0) + WORKER_GRACE_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker {mode} for {workload} exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready_at"] - spawned, result


def percentile_ms(latencies: list, tenth: int) -> float:
    return statistics.quantiles(latencies, n=10)[tenth - 1] * 1e3


def block_rate(latencies: list) -> tuple[float, int]:
    """Median over consecutive blocks of ``BLOCK`` cases of the block's
    cases per second, and the number of blocks; a stretch of time in
    which the shared machine runs slow moves few blocks."""
    rates = [BLOCK / sum(latencies[i:i + BLOCK])
             for i in range(0, len(latencies) - BLOCK + 1, BLOCK)]
    return statistics.median(rates), len(rates)


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    setups = [spawn(workload, seed, "setup")[0] for _ in range(SETUPS - 1)]
    ready, run = spawn(workload, seed, "run", seconds=seconds)
    setups.append(ready)
    n = len(run["latencies_s"])
    rate, blocks = block_rate(run["latencies_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "cases_per_s": rate,
        "case_ms.p50": percentile_ms(run["latencies_s"], 5),
        "case_ms.p90": percentile_ms(run["latencies_s"], 9),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    samples = {name: n for name in metrics}
    samples.update(setup_s=len(setups), cases_per_s=blocks, peak_rss_mb=1)
    return metrics, samples, run


def per_layer(workload: str, seed: int, seconds: float) -> tuple[dict, dict, dict]:
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_out = os.path.join(TRACE_DIR, f"{workload}.spans")
    _, traced = spawn(workload, seed, "trace", seconds=seconds, trace_out=trace_out)
    n = min(OVERHEAD_CASES, len(traced["latencies_s"]))
    _, plain = spawn(workload, seed, "run", cases=n)
    metrics = dict(traced["layers"])
    metrics["trace.overhead_ratio"] = sum(traced["latencies_s"][:n]) / sum(plain["latencies_s"])
    samples = {name: len(traced["latencies_s"]) for name in metrics}
    samples["trace.overhead_ratio"] = n
    return metrics, samples, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # exit through SystemExit on SIGTERM, so a running worker is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(ROOT, "src", "fjl", "__init__.py")):
        print(f"no fjl sources under {ROOT}/src: run from a checkout of the repository",
              file=sys.stderr)
        return 2

    measure = per_layer if args.trace else end_to_end
    metrics, samples, run = measure(args.workload, args.seed, args.seconds)
    attempted = len(run["latencies_s"])
    failed = len(run["failed"])
    for line in run["failed"][:20]:
        print(f"FAILED {line}")
    print(f"{args.workload} seed {args.seed}: {attempted} cases in {run['wall_s']:.1f} s, "
          f"{failed} failed, trace {args.trace}")
    rows = dict(metrics, fail_ratio=failed / attempted)
    samples["fail_ratio"] = attempted
    for name, value in rows.items():
        print(f"  {name:40s} {value:>16.6g} {layer_unit(name):6s} ({samples[name]} samples)")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": layer_unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
