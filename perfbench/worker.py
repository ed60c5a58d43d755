"""One fresh interpreter: import fjl, make a workload's inputs, run its
cases in a closed loop and print one JSON line.

    python3 perfbench/worker.py --workload W --seed S --mode run --seconds T
    python3 perfbench/worker.py --workload W --seed S --mode trace --cases N

``--mode setup`` stops once the inputs are ready.  ``--mode run`` times
cases with nothing wrapped; ``--mode trace`` wraps every layer (see
``spans.py``) and reports per-layer numbers.  ``--seconds`` runs until
that much time has passed and at least ``MIN_CASES`` cases are done;
``--cases`` runs exactly that many.  ``run.py`` drives this script; run
it directly to look at one process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import spans  # noqa: E402
import workloads  # noqa: E402
from fjl import syntax  # noqa: E402

#: Fewest cases a timed run makes, so that ten lie beyond the 90th percentile.
MIN_CASES = 100


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def timed_loop(work, api, case_at, seconds=None, cases=None, tracer=None) -> dict:
    """Run cases one after another until ``seconds`` of cases have passed
    (and at least ``MIN_CASES`` are done) or until ``cases`` are done.
    Inputs not made at set-up are made between cases, off the clock."""
    latencies, failed, counts = [], [], {}
    clock = time.perf_counter
    start = clock()
    input_s = 0.0
    rss = None
    k = 0
    while True:
        begin = clock()
        case = case_at(k)
        if tracer is not None:
            tracer.current_case = k
        now = clock()
        input_s += now - begin
        begin = now
        try:
            outcome = work.case(api, case)
        except Exception as exc:  # a case that raises counts as failed
            failed.append(f"case {k} (seed {case.seed}): {type(exc).__name__}: {exc}")
        else:
            if outcome.verdict != case.expect:
                failed.append(f"case {k} (seed {case.seed}): verdict {outcome.verdict}, "
                              f"expected {case.expect}")
            for key, value in outcome.counts.items():
                counts[key] = counts.get(key, 0) + value
        now = clock()
        if tracer is not None:
            tracer.current_case = -1
        latencies.append(now - begin)
        k += 1
        if k == MIN_CASES:
            rss = peak_rss_mb()
        if cases is not None:
            if k >= cases:
                break
        elif now - start - input_s >= seconds and k >= MIN_CASES:
            break
    return {"wall_s": clock() - start - input_s, "input_s": input_s,
            "latencies_s": latencies, "failed": failed, "counts": counts,
            "peak_rss_mb": rss if rss is not None else peak_rss_mb()}


def traced_metrics(tracer: spans.Tracer, result: dict, cache_before, wall_s: float) -> dict:
    """Per-layer numbers of a traced process, set-up included."""
    layers = tracer.layer_metrics()
    counts = tracer.counts

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def ratio(part, whole):
        return part / whole if whole else 0.0

    info = syntax.expand_sugar.cache_info() if hasattr(syntax.expand_sugar, "cache_info") else None
    hits = info.hits - cache_before.hits if info else 0
    lookups = hits + (info.misses - cache_before.misses) if info else 0
    out = {
        "parser.parse_formula.calls": calls("parser.parse_formula"),
        "parser.self_s": self_s("parser.parse_formula"),
        "parser.chars": counts["parser.chars"],
        "syntax.expand_sugar.calls": calls("syntax.expand_sugar"),
        "syntax.expand_sugar.self_s": self_s("syntax.expand_sugar"),
        "syntax.expand_sugar.hit_ratio": ratio(hits, lookups),
        "syntax.expand_sugar.lookups": lookups,
        "syntax.expand_sugar.cache_entries": info.currsize if info else 0,
        "syntax.print.self_s": self_s("syntax.print"),
        "logics.scheme_match.calls": calls(spans.SCHEME_MATCH_SPAN),
        "logics.scheme_match.self_s": self_s(spans.SCHEME_MATCH_SPAN),
        "logics.scheme_match.hit_ratio": ratio(counts["logics.scheme_match.hits"],
                                               calls(spans.SCHEME_MATCH_SPAN)),
        "models.validate_model.calls": calls("models.validate_model"),
        "models.validate_model.self_s": self_s("models.validate_model"),
        "models.validate_model.checks": counts["models.validate_model.checks"],
        "models.validate_model.reject_ratio": ratio(counts["models.validate_model.rejects"],
                                                    calls("models.validate_model")),
        "models.eval_formula.calls": calls("models.eval_formula"),
        "models.eval_formula.self_s": self_s("models.eval_formula"),
        "generate.random_model.calls": calls("generate.random_model"),
        "generate.random_model.self_s": self_s("generate.random_model"),
        "generate.random_derivation.self_s": self_s("generate.random_derivation"),
        "proofs.check_derivation.calls": calls("proofs.check_derivation"),
        "proofs.check_derivation.self_s": self_s("proofs.check_derivation"),
        "proofs.check_derivation.steps": counts["proofs.check_derivation.steps"],
        "proofs.check_derivation.reject_ratio": ratio(counts["proofs.check_derivation.rejects"],
                                                      calls("proofs.check_derivation")),
        "proofs.builder.steps_emitted": counts["proofs.builder.steps_emitted"],
        "proofs.builder.self_s": self_s(spans.BUILDER_SPAN),
        "proofs.extract.self_s": self_s("proofs.extract"),
        "proofs.extract.kept_ratio": ratio(counts["proofs.extract.kept"],
                                           counts["proofs.extract.emitted"]),
        "proofs.parse_derivation.self_s": self_s("proofs.parse_derivation"),
        "proofs.format_derivation.self_s": self_s("proofs.format_derivation"),
        "proofs.format_derivation.bytes": counts["proofs.format_derivation.bytes"],
        "lifting.lift.calls": calls("lifting.lift"),
        "lifting.lift.self_s": self_s("lifting.lift"),
        "suites.run_suite.self_s": self_s("suites.run_suite"),
        "proof_steps": result["counts"].get("proof_steps", 0),
        "proof_bytes": result["counts"].get("proof_bytes", 0),
    }
    layer_self = sum(v["self_s"] for v in layers.values())
    out["trace.bench_self_s"] = wall_s - layer_self
    out["trace.spans"] = len(tracer.start)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--cases", type=int)
    ap.add_argument("--trace-out", help="write the spans of a traced run to this file")
    args = ap.parse_args(argv)
    if args.mode != "setup" and (args.seconds is None) == (args.cases is None):
        ap.error("give exactly one of --seconds and --cases")

    work = workloads.WORKLOADS[args.workload]
    tracer = None
    api = workloads.plain_api()
    cache_before = None
    if args.mode == "trace":
        tracer = spans.Tracer()
        api = spans.install(tracer)
        if hasattr(syntax.expand_sugar, "cache_info"):
            cache_before = syntax.expand_sugar.cache_info()
    setup_begin = time.perf_counter()
    case_at = workloads.Inputs(work.inputs(api, args.seed)).case
    ready_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    setup_wall = time.perf_counter() - setup_begin
    out = {"ready_at": ready_at}
    if args.mode != "setup":
        result = timed_loop(work, api, case_at, args.seconds, args.cases, tracer)
        out.update(result)
        if tracer is not None:
            traced_wall = setup_wall + result["input_s"] + result["wall_s"]
            out["setup_wall_s"] = setup_wall
            out["layers"] = traced_metrics(tracer, result, cache_before, traced_wall)
            if args.trace_out:
                tracer.save(args.trace_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
