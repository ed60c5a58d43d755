"""Command-line front end.

Exit status: 0 on success or a passing check; 1 on a failing check,
rejected input, running out of memory or a standard output closed
early; 2 on usage errors and
malformed or ill-formed formula, derivation, model or ``--cs`` files.
``FJL_SEED`` overrides the default seed of every seeded subcommand;
``--json``, before or after the subcommand, switches reports, and the
errors that end a command (usage errors included), to JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .generate import SearchBudget, find_countermodel
from .lifting import InputRejected, degree_interval, lift
from .logics import LogicConfig
from .models import (
    eval_formula, eval_worlds, load_model, model_to_dict, save_model, validate_model,
)
from .parser import ParseError, parse_formula
from .proofs import (
    FiniteCS, ProofError, TotalCS, check_cs, check_derivation,
    format_derivation, parse_cs, parse_derivation,
)
from .suites import SUITES, run_suite
from .syntax import expand_sugar, format_rational, print_formula, print_term


def _env_seed(default: int = 0) -> int:
    try:
        return int(os.environ.get("FJL_SEED", default))
    except ValueError:
        return default


def _config(args) -> LogicConfig:
    extras = []
    if getattr(args, "jt", False):
        extras.append("jT")
    if getattr(args, "jd", False):
        extras.append("jD")
    return LogicConfig.from_name(args.logic, extras=extras,
                                 crisp=getattr(args, "crisp", False))


def _read_cs(spec: str, config: LogicConfig):
    if spec == "total":
        return TotalCS()
    if spec == "empty":
        return FiniteCS()
    with open(spec, "r", encoding="utf-8") as handle:
        return parse_cs(handle.read(), config)


def _load_cs(spec: str, config: LogicConfig):
    """The specification ``--cs`` names; the kernel trusts its entries, so
    a ``ProofError`` names the first problem ``check_cs`` finds in a file."""
    cs = _read_cs(spec, config)
    problems = check_cs(cs, config).problems
    if problems:
        raise ProofError(f"{spec}: ill-formed constant specification: {problems[0]}")
    return cs


def _add_logic_flags(sub):
    sub.add_argument("--logic", default="RPLJ",
                     help="BL, BLJ, L, LJ, G, GJ, Pi, PiJ, RPL, RPLJ or J")
    sub.add_argument("--jt", action="store_true", help="add the factivity axiom")
    sub.add_argument("--jd", action="store_true", help="add the consistency axiom")
    sub.add_argument("--crisp", action="store_true", help="restrict to Boolean semantics")


def _add_cs_flag(sub):
    sub.add_argument("--cs", default="total",
                     help="'total', 'empty', or a file with one entry per line")


def _at_least(least: int):
    """An ``int`` flag type that makes a value below ``least`` a usage error."""
    def integer(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        return value
    return integer


def _emit(payload: dict, as_json: bool, text: str) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        print(text)


def _error(message: str, as_json: bool) -> None:
    """``{"ok": false, "error": ...}`` on stdout under ``--json``, else
    ``error: ...`` on stderr."""
    if as_json:
        print(json.dumps({"ok": False, "error": message}))
    else:
        print(f"error: {message}", file=sys.stderr)


def cmd_parse(args) -> int:
    config = _config(args)
    f = parse_formula(args.formula, config)
    expanded = expand_sugar(f)
    payload = {
        "formula": print_formula(f),
        "expanded": print_formula(expanded),
    }
    text = payload["formula"]
    if args.expand:
        text = payload["expanded"]
    _emit(payload, args.json, text)
    return 0


def cmd_eval(args) -> int:
    config = _config(args)
    model = load_model(args.model, config)
    f = parse_formula(args.formula, config)
    values = ({args.world: eval_formula(model, args.world, f)} if args.world
              else eval_worlds(model, f))
    payload = {"formula": args.formula,
               "values": {w: format_rational(v) for w, v in values.items()}}
    if args.world:
        _emit(payload, args.json, format_rational(values[args.world]))
    else:
        _emit(payload, args.json,
              "\n".join(f"{w}: {format_rational(v)}" for w, v in values.items()))
    return 0


def cmd_validate_model(args) -> int:
    config = _config(args)
    cs = _load_cs(args.cs, config)
    model = load_model(args.model, config)
    queries = [parse_formula(text, config) for text in args.formula or []]
    report = validate_model(model, config, cs, queries)
    payload = {"ok": report.ok, "checks": report.checks,
               "violations": [str(v) for v in report.violations]}
    _emit(payload, args.json, report.summary())
    return 0 if report.ok else 1


def cmd_check_proof(args) -> int:
    config = _config(args)
    cs = _load_cs(args.cs, config)
    with open(args.proof, "r", encoding="utf-8") as handle:
        derivation = parse_derivation(handle.read(), config)
    report = check_derivation(derivation, config, cs)
    payload = {"ok": report.ok}
    if report.ok:
        payload["conclusion"] = print_formula(report.conclusion)
    else:
        payload["step"] = report.step + 1
        payload["reason"] = report.reason
    _emit(payload, args.json, report.summary())
    return 0 if report.ok else 1


def cmd_check_cs(args) -> int:
    config = _config(args)
    report = check_cs(_read_cs(args.cs_file, config), config)
    payload = {"ok": report.ok, "problems": report.problems}
    _emit(payload, args.json, report.summary())
    return 0 if report.ok else 1


def cmd_internalize(args) -> int:
    config = _config(args)
    cs = _load_cs(args.cs, config)
    with open(args.proof, "r", encoding="utf-8") as handle:
        derivation = parse_derivation(handle.read(), config)
    try:
        term, lifted = lift(derivation, cs, config)
    except InputRejected as exc:
        _error(str(exc), args.json)
        return 1
    text = format_derivation(lifted)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    payload = {"term": print_term(term),
               "conclusion": print_formula(lifted.conclusion),
               "steps": len(lifted.steps),
               "out": args.out}
    _emit(payload, args.json,
          f"term: {print_term(term)}\nsteps: {len(lifted.steps)}"
          + (f"\nwritten: {args.out}" if args.out else ""))
    return 0


def cmd_degree(args) -> int:
    config = _config(args)
    cs = _load_cs(args.cs, config)
    hypotheses = [parse_formula(text, config) for text in args.hyp or []]
    goal = parse_formula(args.formula, config)
    budget = SearchBudget(max_worlds=args.worlds, max_denominator=args.den,
                          trials=args.trials, seed=args.seed)
    interval = degree_interval(hypotheses, goal, cs, depth=args.depth,
                               budget=budget, config=config)
    lower_file = upper_file = None
    if args.witness_dir:
        os.makedirs(args.witness_dir, exist_ok=True)
        lower_file = os.path.join(args.witness_dir, "lower_witness.proof")
        with open(lower_file, "w", encoding="utf-8") as handle:
            handle.write(format_derivation(interval.lower_witness))
        if interval.upper_witness is not None:
            upper_file = os.path.join(args.witness_dir, "upper_witness.json")
            save_model(interval.upper_witness[0], upper_file)
    payload = {
        "formula": print_formula(goal),
        "lower": format_rational(interval.lower),
        "upper": format_rational(interval.upper),
        "lower_witness_file": lower_file,
        "upper_witness_file": upper_file,
    }
    if interval.upper_witness is not None:
        payload["upper_witness_world"] = interval.upper_witness[1]
    _emit(payload, args.json, f"[{format_rational(interval.lower)}, "
                              f"{format_rational(interval.upper)}]")
    return 0


def cmd_countermodel(args) -> int:
    config = _config(args)
    cs = _load_cs(args.cs, config)
    f = parse_formula(args.formula, config)
    budget = SearchBudget(max_worlds=args.worlds, max_denominator=args.den,
                          trials=args.trials, seed=args.seed)
    hit = find_countermodel(f, config, cs, budget)
    if hit is None:
        _emit({"found": False}, args.json, "no countermodel found within budget")
        return 1
    model, world = hit
    value = eval_formula(model, world, f)
    if args.out:
        save_model(model, args.out)
    payload = {"found": True, "world": world,
               "value": format_rational(value),
               "model": model_to_dict(model), "out": args.out}
    _emit(payload, args.json,
          f"countermodel at {world}: value {format_rational(value)}"
          + (f"\nwritten: {args.out}" if args.out else "\n"
             + json.dumps(model_to_dict(model), indent=2)))
    return 0


def cmd_suite(args) -> int:
    if args.name == "all":
        names = sorted(SUITES)
    else:
        names = [args.name]
    failures = 0
    reports = []
    for name in names:
        kwargs = {"seed": args.seed}
        if args.seeds is not None:
            kwargs["count"] = args.seeds
        if args.logic is not None and name == "soundness":
            kwargs["logic"] = args.logic
        report = run_suite(name, **kwargs)
        reports.append(report)
        if not args.json:
            print(report.summary())
        failures += len(report.failures)
    if args.json:
        print(json.dumps([r.to_dict() for r in reports], indent=2))
    return 0 if failures == 0 else 1


class _UsageError(Exception):
    """A command line that ``argparse`` rejects: (the parser, its message)."""


class _ArgumentParser(argparse.ArgumentParser):
    """Raises usage errors instead of exiting, so ``main`` reports them
    like every other error; subcommand parsers share the class."""

    def error(self, message):
        raise _UsageError(self, message)


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="fjl",
        description="Workbench for fuzzy justification logics")
    parser.add_argument("--json", action="store_true", help="emit JSON reports")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and print it back")
    _add_logic_flags(p)
    p.add_argument("--expand", action="store_true", help="print the primitive form")
    p.add_argument("formula")
    p.set_defaults(fn=cmd_parse)

    p = sub.add_parser("eval", help="evaluate a formula in a model file")
    _add_logic_flags(p)
    p.add_argument("--model", required=True)
    p.add_argument("--world", default=None)
    p.add_argument("--formula", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("validate-model", help="check admissibility and frame demands")
    _add_logic_flags(p)
    _add_cs_flag(p)
    p.add_argument("--model", required=True)
    p.add_argument("--formula", action="append",
                   help="extra query formulas joining the closure (repeatable)")
    p.set_defaults(fn=cmd_validate_model)

    p = sub.add_parser("check-proof", help="check a derivation file")
    _add_logic_flags(p)
    _add_cs_flag(p)
    p.add_argument("proof")
    p.set_defaults(fn=cmd_check_proof)

    p = sub.add_parser("check-cs", help="check a constant-specification file")
    _add_logic_flags(p)
    p.add_argument("cs_file")
    p.set_defaults(fn=cmd_check_cs)

    p = sub.add_parser("internalize", help="lift a derivation into a justification term")
    _add_logic_flags(p)
    _add_cs_flag(p)
    p.add_argument("proof")
    p.add_argument("--out", default=None, help="write the lifted derivation here")
    p.set_defaults(fn=cmd_internalize)

    p = sub.add_parser("degree", help="certified lower/upper degree bounds")
    _add_logic_flags(p)
    _add_cs_flag(p)
    p.add_argument("--hyp", action="append", help="theory formula (repeatable)")
    p.add_argument("--formula", required=True)
    p.add_argument("--depth", type=_at_least(0), default=4)
    p.add_argument("--trials", type=_at_least(0), default=60)
    p.add_argument("--worlds", type=_at_least(1), default=3)
    p.add_argument("--den", type=_at_least(1), default=12)
    p.add_argument("--seed", type=int, default=_env_seed())
    p.add_argument("--witness-dir", default=None)
    p.set_defaults(fn=cmd_degree)

    p = sub.add_parser("countermodel", help="search for a refuting model")
    _add_logic_flags(p)
    _add_cs_flag(p)
    p.add_argument("--formula", required=True)
    p.add_argument("--trials", type=_at_least(0), default=300)
    p.add_argument("--worlds", type=_at_least(1), default=3)
    p.add_argument("--den", type=_at_least(1), default=12)
    p.add_argument("--seed", type=int, default=_env_seed())
    p.add_argument("--out", default=None, help="write the model here")
    p.set_defaults(fn=cmd_countermodel)

    p = sub.add_parser("suite", help="run a named property suite (or 'all')")
    p.add_argument("name", choices=sorted(SUITES) + ["all"])
    p.add_argument("--seeds", type=_at_least(1), default=None,
                   help="number of seeded cases (suite default otherwise)")
    p.add_argument("--seed", type=int, default=_env_seed())
    p.add_argument("--logic", default=None, help="restrict the soundness suite")
    p.set_defaults(fn=cmd_suite)

    for p in sub.choices.values():
        # after the subcommand too; when absent, the value before it stands
        p.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                       help="emit JSON reports")
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        culprit, message = exc.args
        if "--json" in argv:
            _error(message, True)
        else:
            culprit.print_usage(sys.stderr)
            print(f"{culprit.prog}: error: {message}", file=sys.stderr)
        return 2
    except SystemExit as exc:      # --help
        return 2 if exc.code not in (0, None) else 0
    try:
        try:
            code = args.fn(args)
        except BrokenPipeError:
            raise
        except (ParseError, ProofError, ValueError, OSError, KeyError) as exc:
            _error(str(exc), args.json)
            code = 2
        except MemoryError:
            _error("out of memory; the input is too large for this machine", args.json)
            code = 1
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: the rest, the flush at exit included, goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
