"""Count the Python opcodes and ``Scheme.match`` calls of benchmark cases.

Makes the first ``--cases`` inputs of a ``perfbench`` workload untraced,
then runs each case under ``sys.settrace`` with ``f_trace_opcodes`` on
and prints one JSON line: opcodes and ``Scheme.match`` calls, in total
and per case.  Input making is not counted.  The count is deterministic
for a given checkout and Python version, so it can compare two commits
where wall time on a shared machine cannot.  Run it in a fresh process::

    python3 tools/opcount.py --workload internalize --seed 5 --cases 100
    python3 tools/opcount.py --workload soundness --seed 5 --cases 20 --root ../other-checkout

``--root`` names the checkout whose ``src`` and ``perfbench`` are used;
it defaults to the one holding this script.
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import json
import sys
from pathlib import Path


def _load_workloads(root: Path):
    sys.path.insert(0, str(root / "src"))
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  root / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("soundness", "internalize", "check-proof"))
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--cases", type=int, default=100)
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parent.parent)
    args = ap.parse_args()

    workloads = _load_workloads(args.root.resolve())
    from fjl import logics

    api = workloads.plain_api()
    workload = workloads.WORKLOADS[args.workload]
    cases = list(itertools.islice(workload.inputs(api, args.seed), args.cases))

    calls = 0
    match = logics.Scheme.match

    def counted_match(self, f):
        nonlocal calls
        calls += 1
        return match(self, f)

    opcodes = 0

    def local(frame, event, arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return local

    def trace(frame, event, arg):
        if frame.f_code is counted_match.__code__:
            return None         # the counter's own opcodes are not the case's
        frame.f_trace_opcodes = True
        return local

    logics.Scheme.match = counted_match
    verdicts = []
    sys.settrace(trace)
    try:
        for case in cases:
            verdicts.append(workload.case(api, case).verdict is case.expect)
    finally:
        sys.settrace(None)
        logics.Scheme.match = match
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "cases": len(cases),
        "correct": sum(verdicts), "opcodes": opcodes,
        "opcodes_per_case": round(opcodes / len(cases)),
        "scheme_match_calls": calls,
    }))


if __name__ == "__main__":
    main()
