"""The names the benchmark harness in ``perfbench/`` wraps or calls still
exist in ``fjl``.  Tier-1 does not collect ``perfbench/tests``, so without
these a deletion that breaks ``perfbench/run.py --trace 1`` would pass."""

import importlib.util
import itertools
import sys
from collections import Counter
from pathlib import Path

from fjl import logics, proofs
from fjl.parser import parse_formula
from fjl.syntax import print_formula

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """``perfbench/<name>.py``, imported from its path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # its dataclasses look the module up
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    functions = _load("spans").FUNCTIONS
    missing = [f"{home.__name__}.{attr}" for home, attr, _ in functions
               if not callable(getattr(home, attr, None))]
    assert functions and not missing


def test_workload_functions_exist():
    api = vars(_load("workloads").plain_api())     # a missing name raises AttributeError
    assert api and all(map(callable, api.values()))


def test_wrapped_methods_exist():
    # ``spans.install`` wraps these two in place, beside the public builder methods
    assert callable(logics.Scheme.match)
    assert callable(proofs.DerivationBuilder._emit)


def test_scheme_match_calls_reach_the_class_attribute(monkeypatch):
    """``spans.install`` counts ``logics.scheme_match.calls`` by replacing
    ``Scheme.match`` on the class, as here.  The kernel, the builder and
    ``axiom_instance_of`` must each call through that attribute, or the
    traced count reads 0.  The first 20 ``internalize`` cases of seed 5
    make a pinned number of calls."""
    calls = Counter()
    match = logics.Scheme.match

    def counted(self, f):
        calls[self.name] += 1
        return match(self, f)

    monkeypatch.setattr(logics.Scheme, "match", counted)
    bl = logics.LogicConfig.from_name("BL")
    b = proofs.DerivationBuilder(bl)
    b.th_one()
    assert calls == {"BL7": 1}
    assert proofs.check_derivation(b.build(), bl, proofs.EMPTY_CS).ok
    assert calls == {"BL7": 2}
    assert logics.axiom_instance_of(proofs.UNIT, bl) == "BL7"     # after BL1 to BL6
    assert sum(calls.values()) == 10

    workloads = _load("workloads")
    api = workloads.plain_api()
    cases = list(itertools.islice(workloads.internalize_inputs(api, 5), 20))
    calls.clear()
    assert all(workloads.internalize_case(api, case).verdict for case in cases)
    assert sum(calls.values()) == 5097


def test_check_proof_known_answers_and_step_formulas():
    """The first 40 ``check-proof`` cases of seed 0: each verdict is the
    case's known answer, the file's reader gives every formula a fresh
    parse of its line gives, and the file formats back to its bytes."""
    workloads = _load("workloads")
    api = workloads.plain_api()
    cases = list(itertools.islice(workloads.check_proof_inputs(api, 0), 40))
    assert {case.expect for case in cases} == {True, False}
    for case in cases:
        assert workloads.check_proof_case(api, case).verdict is case.expect
        d = proofs.parse_derivation(case.data, workloads.RPLJ)
        texts = [line.split(" ", 1)[1] if line.startswith("HYP ")
                 else line.rpartition(" BY ")[0].split(" ", 2)[2]
                 for line in case.data.splitlines()]
        fresh = [print_formula(parse_formula(text, workloads.RPLJ)) for text in texts]
        assert [print_formula(f) for f in d.hypotheses + tuple(s.formula for s in d.steps)] == fresh
        assert proofs.format_derivation(d) == case.data


def test_lifted_outputs_format_back_to_their_bytes():
    """``internalize`` writes what ``check-proof`` reads: a lifted output
    file, parsed and formatted again, is the same bytes.  Seed 1's cone
    holds modus ponens steps, so its output carries graded lifting."""
    workloads = _load("workloads")
    api = workloads.plain_api()
    for seed in range(7):
        lifted = api.lift(workloads.fuzzed_derivation(api, seed), proofs.TotalCS(),
                          workloads.RPLJ)[1]
        text = proofs.format_derivation(lifted)
        assert proofs.format_derivation(proofs.parse_derivation(text, workloads.RPLJ)) == text
