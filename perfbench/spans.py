"""Spans around the calls into each layer of ``fjl``, recorded from outside.

``install`` replaces each traced function in every ``fjl`` module that
imports it, so nested calls get parent links.  The defining module keeps
its own binding: recursion and calls inside one module stay unwrapped,
and a builder method calling another builder method opens no new span.
Spans stay in memory in flat arrays; ``layer_metrics`` folds them into
per-layer calls and self times, and ``save`` writes them out once the
run is over (about 40 bytes a span).

Everything runs on one thread, so no layer waits on another and the
``TotalCS`` lock is never contended; there is no wait metric.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from types import SimpleNamespace

from fjl import generate, lifting, logics, models, parser, proofs, suites, syntax

#: Span of each traced function: (defining module, attribute, span name).
FUNCTIONS = (
    (parser, "parse_formula", "parser.parse_formula"),
    (syntax, "expand_sugar", "syntax.expand_sugar"),
    (syntax, "print_formula", "syntax.print"),
    (syntax, "print_term", "syntax.print"),
    (models, "validate_model", "models.validate_model"),
    (models, "eval_formula", "models.eval_formula"),
    (generate, "random_model", "generate.random_model"),
    (generate, "random_derivation", "generate.random_derivation"),
    (proofs, "check_derivation", "proofs.check_derivation"),
    (proofs, "extract_subderivation", "proofs.extract"),
    (proofs, "parse_derivation", "proofs.parse_derivation"),
    (proofs, "format_derivation", "proofs.format_derivation"),
    (lifting, "lift", "lifting.lift"),
    (suites, "run_suite", "suites.run_suite"),
)

BUILDER_SPAN = "proofs.builder"
SCHEME_MATCH_SPAN = "logics.scheme_match"

#: The span arrays of a ``Tracer``, in file order.
FIELDS = ("name", "parent", "case", "start", "end")


class Tracer:
    """Flat in-memory span store: span ``i`` has name ``names[name[i]]``,
    parent span ``parent[i]`` (-1 at top level), case id ``case[i]``
    (-1 during set-up) and start and end in ``perf_counter_ns``."""

    def __init__(self):
        self.names: list = []
        self.name = array("i")
        self.parent = array("q")
        self.case = array("q")
        self.start = array("q")
        self.end = array("q")
        self.current_case = -1
        self.counts: Counter = Counter()
        self._stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, span: str, fn, after=None):
        """``fn`` recording one span per call; ``after(args, result)``
        updates counters.  A call made inside a span of the same name
        records nothing."""
        nid = self.name_id(span)
        stack, names, parents, cases = self._stack, self.name, self.parent, self.case
        starts, ends, clock = self.start, self.end, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            top = stack[-1]
            if top >= 0 and names[top] == nid:
                return fn(*args, **kwargs)
            sid = len(starts)
            names.append(nid)
            parents.append(top)
            cases.append(self.current_case)
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def layer_metrics(self) -> dict:
        """Calls and self seconds per span name.  Self time is a span's
        duration minus its direct children's durations."""
        n = len(self.start)
        child = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            calls[self.name[i]] += 1
            self_ns[self.name[i]] += self.end[i] - self.start[i] - child[i]
        return {name: {"calls": calls[j], "self_s": self_ns[j] / 1e9}
                for j, name in enumerate(self.names)}

    def save(self, path: str) -> None:
        """One JSON header line, then the span arrays in machine order."""
        with open(path, "wb") as handle:
            header = {"names": self.names, "spans": len(self.start),
                      "arrays": [(field, getattr(self, field).typecode) for field in FIELDS]}
            handle.write(json.dumps(header).encode("utf-8") + b"\n")
            for field in FIELDS:
                getattr(self, field).tofile(handle)


def load(path: str) -> dict:
    """A saved trace: ``names`` and one list per field of ``FIELDS``."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        trace = {"names": header["names"]}
        for field, typecode in header["arrays"]:
            values = array(typecode)
            values.fromfile(handle, header["spans"])
            trace[field] = values.tolist()
    return trace


def _fjl_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "fjl" or name.startswith("fjl."))]


def _rebind(original, wrapped, home) -> None:
    for module in _fjl_modules():
        if module is home:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


def install(tracer: Tracer) -> SimpleNamespace:
    """Wrap every traced function and return the wrapped library
    functions the workloads call (see ``workloads.plain_api``)."""
    counts = tracer.counts

    def count(key, fn):
        def after(args, result):
            counts[key] += fn(args, result)
        return after

    after = {
        "parse_formula": count("parser.chars", lambda a, r: len(a[0])),
        "validate_model": lambda a, r: counts.update({
            "models.validate_model.checks": r.checks,
            "models.validate_model.rejects": int(not r.ok)}),
        "check_derivation": lambda a, r: counts.update({
            "proofs.check_derivation.steps": len(a[0].steps),
            "proofs.check_derivation.rejects": int(not r.ok)}),
        "extract_subderivation": lambda a, r: counts.update({
            "proofs.extract.emitted": len(a[0].steps),
            "proofs.extract.kept": len(r.steps)}),
        "format_derivation": count("proofs.format_derivation.bytes",
                                   lambda a, r: len(r.encode("utf-8"))),
    }
    api = {}
    for home, attr, span in FUNCTIONS:
        original = getattr(home, attr)
        wrapped = tracer.wrap(span, original, after.get(attr))
        _rebind(original, wrapped, home)
        api[attr] = wrapped

    scheme = logics.Scheme
    scheme.match = tracer.wrap(SCHEME_MATCH_SPAN, scheme.match,
                               count("logics.scheme_match.hits",
                                     lambda a, r: int(r is not None)))

    builder = proofs.DerivationBuilder
    for attr, value in list(vars(builder).items()):
        if callable(value) and not attr.startswith("_"):
            setattr(builder, attr, tracer.wrap(BUILDER_SPAN, value))
    emit = builder._emit

    def counted_emit(self, formula, rule):
        before = len(self.steps)
        idx = emit(self, formula, rule)
        counts["proofs.builder.steps_emitted"] += len(self.steps) - before
        return idx

    builder._emit = counted_emit
    return SimpleNamespace(**api)
