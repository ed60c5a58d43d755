"""The benchmark's three workloads: inputs made from a seed, one case,
and the known answer every case is checked against.

Every call into ``fjl`` goes through ``api``, a namespace holding the
library functions the workloads use.  The untraced run passes the plain
functions; the traced run passes the span-recording wrappers from
``spans.py``, so set-up and cases are traced the same way.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter, deque
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Iterator

from fjl import generate, lifting, proofs, suites, syntax
from fjl.logics import LogicConfig

RPLJ = LogicConfig.from_name("RPLJ")

#: Run seed ``s`` draws its inputs from seeds ``s * CASE_SEED_STRIDE + k``,
#: so the inputs of two run seeds never overlap.
CASE_SEED_STRIDE = 10_000

#: Moves per fuzzed derivation, as in the ``lift`` suite and criterion 5.
DERIVATION_MOVES = 6

#: Input size of ``internalize``: the final step's dependency cone prints
#: to at most this many bytes.  The lifted output is about 1,300 bytes per
#: cone byte whenever the cone holds a modus ponens step, so the cap keeps
#: every case near or below 1.3 MB of output.
INTERNALIZE_MAX_CONE_BYTES = 1_000

#: Strata of ``internalize``, one cycle of 20 cases: whether the final
#: cone holds a modus ponens step (so lifting routes it into graded
#: output), and the input's modus ponens steps in [0, 4), [4, 8) or
#: [8, 12].  Lifting cost grows with those steps whether or not the cone
#: keeps them.  The counts follow their frequency among generated inputs,
#: with routed cones raised to 6 of 20 so that the 90th percentile is a
#: routed case and the median an unrouted one.
INTERNALIZE_MP_EDGES = (0, 4, 8, 13)
INTERNALIZE_CYCLE = (
    (False, 0), (True, 0), (False, 2), (False, 0), (False, 2), (True, 1),
    (False, 1), (False, 2), (False, 0), (True, 2), (False, 2), (False, 0),
    (True, 0), (False, 2), (False, 1), (True, 1), (False, 2), (False, 2),
    (True, 2), (False, 2))

#: Strata of ``check-proof``, one cycle of 10 cases: file sizes in bytes
#: in [0, 2000), [2000, 4000), [4000, 8000) and [8000, 16000], in about
#: their frequency among generated derivations.  Parsing time is close to
#: proportional to size, so a fixed mix keeps runs comparable.
CHECK_PROOF_BYTE_EDGES = (0, 2_000, 4_000, 8_000, 16_001)
CHECK_PROOF_CYCLE = (0, 1, 2, 3, 1, 2, 0, 1, 2, 3)

#: Inputs made at set-up: two ``internalize`` cycles, four ``check-proof``
#: cycles.  A run makes the rest between cases, off the clock, so no input
#: repeats within a run.
SETUP_CASES = 40

#: Proposition name that occurs in no generated formula; a step whose
#: formula is replaced by it is rejected whatever its rule.
FRESH_ATOM = "zz_corrupt"


@dataclass(frozen=True)
class Case:
    seed: int        # the suite or derivation seed the input came from
    expect: bool     # known verdict
    data: object     # suite seed, Derivation or derivation text


@dataclass(frozen=True)
class Outcome:
    verdict: bool
    counts: dict


class Inputs:
    """The cases of one run, made in order from ``source`` and kept."""

    def __init__(self, source: Iterator[Case], ready: int = SETUP_CASES):
        self._source = source
        self._made: list = []
        self.case(ready - 1)

    def case(self, k: int) -> Case:
        while len(self._made) <= k:
            self._made.append(next(self._source))
        return self._made[k]


def plain_api() -> SimpleNamespace:
    """The library functions the workloads call, unwrapped."""
    return SimpleNamespace(
        run_suite=suites.run_suite,
        random_derivation=generate.random_derivation,
        lift=lifting.lift,
        check_derivation=proofs.check_derivation,
        extract_subderivation=proofs.extract_subderivation,
        format_derivation=proofs.format_derivation,
        parse_derivation=proofs.parse_derivation,
    )


def fuzzed_derivation(api, seed: int) -> proofs.Derivation:
    """The ``lift`` suite's fuzzed RPLJ derivation for one seed."""
    return api.random_derivation(random.Random(seed), RPLJ, proofs.TotalCS(),
                                 moves=DERIVATION_MOVES)


def _mp_count(d: proofs.Derivation) -> int:
    return sum(isinstance(step.rule, proofs.MP) for step in d.steps)


def _bin(value: int, edges: tuple):
    """Index of the half-open bin of ``edges`` holding ``value``, or None."""
    for i in range(len(edges) - 1):
        if edges[i] <= value < edges[i + 1]:
            return i
    return None


def stratified(candidates: Iterator, cycle: tuple) -> Iterator:
    """Items of ``(stratum, item)`` pairs, ordered so that each run of
    ``len(cycle)`` consecutive items holds the strata of ``cycle`` in
    that order; an item waits until the cycle reaches its stratum, and
    items of strata not in ``cycle`` are dropped."""
    need = Counter(cycle)
    queues = {stratum: deque() for stratum in need}
    for stratum, item in candidates:
        if stratum not in queues:
            continue
        queues[stratum].append(item)
        if all(len(queues[s]) >= n for s, n in need.items()):
            for s in cycle:
                yield queues[s].popleft()


# ---------------------------------------------------------------------------
# soundness

def soundness_inputs(api, seed: int) -> Iterator[Case]:
    """Suite seeds ``seed * CASE_SEED_STRIDE + k``; nothing to make ahead."""
    for k in itertools.count(seed * CASE_SEED_STRIDE):
        yield Case(k, True, k)


def soundness_case(api, case: Case) -> Outcome:
    report = api.run_suite("soundness", count=1, seed=case.data)
    return Outcome(report.ok and report.cases > 0, {})


# ---------------------------------------------------------------------------
# internalize

def internalize_inputs(api, seed: int) -> Iterator[Case]:
    """Fuzzed derivations within the stated input size, in the strata of
    ``INTERNALIZE_CYCLE``."""
    def candidates():
        for dseed in itertools.count(seed * CASE_SEED_STRIDE):
            d = fuzzed_derivation(api, dseed)
            mp = _bin(_mp_count(d), INTERNALIZE_MP_EDGES)
            if mp is None:
                continue
            cone = api.extract_subderivation(d, len(d.steps) - 1)
            if len(api.format_derivation(cone)) > INTERNALIZE_MAX_CONE_BYTES:
                continue
            yield (_mp_count(cone) > 0, mp), Case(dseed, True, d)

    return stratified(candidates(), INTERNALIZE_CYCLE)


def internalize_case(api, case: Case) -> Outcome:
    """``fjl internalize``: lift (which checks its input), re-check the
    output in the kernel, format the output file."""
    d = case.data
    cs = proofs.TotalCS()
    term, lifted = api.lift(d, cs, RPLJ)
    report = api.check_derivation(lifted, RPLJ, cs)
    text = api.format_derivation(lifted)
    expected = syntax.expand_sugar(syntax.GradedExact(syntax.ONE, term, d.conclusion))
    verdict = (report.ok
               and syntax.expand_sugar(lifted.conclusion) == expected
               and syntax.term_dag_size(term) <= len(d.steps))
    return Outcome(verdict, {"proof_steps": len(lifted.steps),
                             "proof_bytes": len(text.encode("utf-8"))})


# ---------------------------------------------------------------------------
# check-proof

def corrupt(text: str) -> str:
    """Replace the last step's formula by a fresh atom, keeping its rule."""
    lines = text.rstrip("\n").split("\n")
    head, _, by = lines[-1].rpartition(" BY ")
    number = head.split(" ", 2)[1]
    lines[-1] = f"STEP {number} {FRESH_ATOM} BY {by}"
    return "\n".join(lines) + "\n"


def check_proof_inputs(api, seed: int) -> Iterator[Case]:
    """Derivation files within the stated size, in the strata of
    ``CHECK_PROOF_CYCLE``; every other file is corrupted."""
    def candidates():
        for dseed in itertools.count(seed * CASE_SEED_STRIDE):
            text = api.format_derivation(fuzzed_derivation(api, dseed))
            yield _bin(len(text), CHECK_PROOF_BYTE_EDGES), (dseed, text)

    files = stratified(candidates(), CHECK_PROOF_CYCLE)
    for k, (dseed, text) in enumerate(files):
        accept = k % 2 == 0
        yield Case(dseed, accept, text if accept else corrupt(text))


def check_proof_case(api, case: Case) -> Outcome:
    """``fjl check-proof --cs total``: parse the file, check it."""
    d = api.parse_derivation(case.data, RPLJ)
    report = api.check_derivation(d, RPLJ, proofs.TotalCS())
    return Outcome(report.ok, {})


@dataclass(frozen=True)
class Workload:
    inputs: Callable    # (api, seed) -> iterator of cases
    case: Callable      # (api, Case) -> Outcome


WORKLOADS = {
    "soundness": Workload(soundness_inputs, soundness_case),
    "internalize": Workload(internalize_inputs, internalize_case),
    "check-proof": Workload(check_proof_inputs, check_proof_case),
}
