"""Finite fuzzy Fitting and Mkrtychev models: validation and evaluation.

Evidence functions are total in the semantics but finitely presented
here as a table plus a default value.  Validation therefore checks the
admissibility conditions over a *relevant closure*: every (term,
formula) pair occurring in the evidence table or in the query formulas,
plus one application/sum step above them.  That closure certifies
exactly the evaluations the workbench performs; it is documented as an
approximation of the infinite total conditions.

Evidence keys are normalised to sugar-expanded formulas, so a table
entry written with graded sugar and a query in primitive form meet in
the same slot.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Optional

from .logics import LogicConfig
from .parser import parse_formula, parse_term
from .syntax import (
    App, Const, Formula, Implies, Justified, ONE, Prop, StrongConj, Sum,
    Term, TruthConst, ZERO, as_unit, expand_sugar, format_rational,
    justified_pairs, parse_rational, print_formula, print_term, subterms,
)
from .tnorms import TNormKind, residuum_apply, tnorm_apply


class ModelError(ValueError):
    pass


@dataclass(frozen=True, eq=False)
class FittingModel:
    """Worlds, crisp accessibility, fuzzy valuation and fuzzy evidence."""

    worlds: tuple
    access: frozenset
    tnorm: TNormKind
    valuation: dict      # (world, prop name) -> Fraction
    evidence: dict       # (world, Term, expanded Formula) -> Fraction
    default_evidence: Fraction = ONE
    default_valuation: Fraction = ZERO

    def __post_init__(self):
        worlds = tuple(self.worlds)
        if not worlds:
            raise ModelError("a model needs at least one world")
        if len(set(worlds)) != len(worlds):
            raise ModelError("duplicate world ids")
        known = set(worlds)
        access = frozenset((a, b) for a, b in self.access)
        for a, b in access:
            if a not in known or b not in known:
                raise ModelError(f"accessibility pair ({a}, {b}) mentions an unknown world")
        valuation = {}
        for (w, p), v in self.valuation.items():
            if w not in known:
                raise ModelError(f"valuation mentions unknown world {w!r}")
            valuation[(w, p)] = as_unit(v)
        evidence = {}
        for (w, t, f), v in self.evidence.items():
            if w not in known:
                raise ModelError(f"evidence mentions unknown world {w!r}")
            evidence[(w, t, expand_sugar(f))] = as_unit(v)
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "access", access)
        object.__setattr__(self, "valuation", valuation)
        object.__setattr__(self, "evidence", evidence)
        object.__setattr__(self, "default_evidence", as_unit(self.default_evidence))
        object.__setattr__(self, "default_valuation", as_unit(self.default_valuation))

    def successors(self, world: str) -> tuple:
        return tuple(v for (u, v) in sorted(self.access) if u == world)

    def value(self, world: str, prop: str) -> Fraction:
        return self.valuation.get((world, prop), self.default_valuation)

    def evidence_value(self, world: str, term: Term, body: Formula) -> Fraction:
        return self.evidence.get((world, term, body), self.default_evidence)

    def world_table(self, world: str) -> dict:
        return {(t, f): v for (w, t, f), v in self.evidence.items() if w == world}


@dataclass(frozen=True, eq=False)
class MkrtychevModel:
    """Single-point model; justified formulas take the evidence value directly."""

    tnorm: TNormKind
    valuation: dict      # prop name -> Fraction
    evidence: dict       # (Term, expanded Formula) -> Fraction
    default_evidence: Fraction = ONE
    default_valuation: Fraction = ZERO

    def __post_init__(self):
        object.__setattr__(self, "valuation",
                           {p: as_unit(v) for p, v in self.valuation.items()})
        object.__setattr__(self, "evidence",
                           {(t, expand_sugar(f)): as_unit(v)
                            for (t, f), v in self.evidence.items()})
        object.__setattr__(self, "default_evidence", as_unit(self.default_evidence))
        object.__setattr__(self, "default_valuation", as_unit(self.default_valuation))


# ---------------------------------------------------------------------------
# Evaluation

def eval_formula(model: FittingModel, world: str, f: Formula) -> Fraction:
    """Truth value of ``f`` at ``world``; exact rational."""
    if world not in model.worlds:
        raise ModelError(f"world {world!r} not in model")
    return _eval(model, world, expand_sugar(f))


def _eval(m: FittingModel, w: str, f: Formula) -> Fraction:
    if isinstance(f, TruthConst):
        return f.value
    if isinstance(f, Prop):
        return m.value(w, f.name)
    if isinstance(f, Implies):
        return residuum_apply(m.tnorm, _eval(m, w, f.left), _eval(m, w, f.right))
    if isinstance(f, StrongConj):
        return tnorm_apply(m.tnorm, _eval(m, w, f.left), _eval(m, w, f.right))
    if isinstance(f, Justified):
        return tnorm_apply(m.tnorm,
                           m.evidence_value(w, f.term, f.body),
                           _box(m, w, f.body))
    raise ModelError(f"cannot evaluate {f!r}")


def _box(m: FittingModel, w: str, f: Formula) -> Fraction:
    values = [_eval(m, v, f) for v in m.successors(w)]
    return min(values) if values else ONE


def eval_box(model: FittingModel, world: str, f: Formula) -> Fraction:
    """Infimum of the value of ``f`` over the successors; 1 with none."""
    if world not in model.worlds:
        raise ModelError(f"world {world!r} not in model")
    return _box(model, world, expand_sugar(f))


_POINT = "w0"


def _point_view(model: MkrtychevModel) -> FittingModel:
    """The one-world, no-successor Fitting model of a Mkrtychev model.  With
    no successor the box is 1 and t(e, 1) = e, so ``t:A`` takes its evidence."""
    return FittingModel(
        worlds=(_POINT,), access=frozenset(), tnorm=model.tnorm,
        valuation={(_POINT, p): v for p, v in model.valuation.items()},
        evidence={(_POINT, t, a): v for (t, a), v in model.evidence.items()},
        default_evidence=model.default_evidence,
        default_valuation=model.default_valuation)


def eval_mkrtychev(model: MkrtychevModel, f: Formula) -> Fraction:
    return _eval(_point_view(model), _POINT, expand_sugar(f))


def is_valid_in_model(model: FittingModel, f: Formula) -> bool:
    g = expand_sugar(f)
    return all(_eval(model, w, g) == ONE for w in model.worlds)


def crisp_eval(model: FittingModel, world: str, f: Formula) -> Fraction:
    """Boolean evaluation: implication and the justification clause are classical."""
    if world not in model.worlds:
        raise ModelError(f"world {world!r} not in model")
    return _crisp(model, world, expand_sugar(f))


def _bool(value: Fraction) -> Fraction:
    if value != ZERO and value != ONE:
        raise ModelError(f"non-Boolean value {value} in crisp evaluation")
    return value


def _crisp(m: FittingModel, w: str, f: Formula) -> Fraction:
    if isinstance(f, TruthConst):
        return _bool(f.value)
    if isinstance(f, Prop):
        return _bool(m.value(w, f.name))
    if isinstance(f, Implies):
        a, b = _crisp(m, w, f.left), _crisp(m, w, f.right)
        return ONE if (a == ZERO or b == ONE) else ZERO
    if isinstance(f, StrongConj):
        a, b = _crisp(m, w, f.left), _crisp(m, w, f.right)
        return min(a, b)
    if isinstance(f, Justified):
        admissible = _bool(m.evidence_value(w, f.term, f.body)) == ONE
        everywhere = all(_crisp(m, v, f.body) == ONE for v in m.successors(w))
        return ONE if (admissible and everywhere) else ZERO
    raise ModelError(f"cannot evaluate {f!r}")


def embed_rpl_valuation(valuation: Mapping[str, Fraction]) -> MkrtychevModel:
    """One-point model with constant evidence 1; on justification-free
    formulas it reproduces the plain rational Pavelka valuation."""
    return MkrtychevModel(tnorm=TNormKind.LUKASIEWICZ,
                          valuation=dict(valuation), evidence={})


# ---------------------------------------------------------------------------
# Validation

@dataclass(frozen=True)
class Violation:
    kind: str            # FE1 | FE2 | FE3 | frame | crisp
    world: Optional[str]
    message: str

    def __str__(self) -> str:
        where = f" at {self.world}" if self.world else ""
        return f"[{self.kind}{where}] {self.message}"


@dataclass
class ModelReport:
    violations: list = field(default_factory=list)
    checks: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, kind: str, world: Optional[str], message: str) -> None:
        self.violations.append(Violation(kind, world, message))

    def summary(self) -> str:
        if self.ok:
            return f"valid ({self.checks} checks)"
        head = f"invalid ({len(self.violations)} violations, {self.checks} checks)"
        return "\n".join([head] + [f"  {v}" for v in self.violations])


def _closure_pairs(model: FittingModel, world: str, relevant: Iterable[Formula]) -> set:
    pairs = set(model.world_table(world))
    for f in relevant:
        pairs.update(justified_pairs(f))
    return pairs


def validate_model(model: FittingModel, config: LogicConfig, cs,
                   relevant: Iterable[Formula] = ()) -> ModelReport:
    """Check admissibility (FE1-FE3), frame demands and crisp range.

    ``cs`` is a constant specification; every covered constant/formula
    pair must have evidence 1 everywhere.  ``relevant`` extends the
    closure with the query formulas about to be evaluated.
    """
    report = ModelReport()
    relevant = tuple(relevant)

    report.checks += 1
    if model.tnorm not in config.tnorm_kinds():
        report.add("tnorm", None,
                   f"model uses {model.tnorm.code} but {config.name} admits "
                   f"{'/'.join(k.code for k in config.tnorm_kinds())}")

    if config.crisp:
        for (w, p), v in sorted(model.valuation.items(), key=str):
            report.checks += 1
            if v not in (ZERO, ONE):
                report.add("crisp", w, f"valuation of {p} is {v}, not Boolean")
        for (w, t, a), v in sorted(model.evidence.items(), key=str):
            report.checks += 1
            if v not in (ZERO, ONE):
                report.add("crisp", w,
                           f"evidence for {print_term(t)}:{print_formula(a)} is {v}")
        if model.default_valuation not in (ZERO, ONE) or model.default_evidence not in (ZERO, ONE):
            report.add("crisp", None, "default values must be Boolean")

    if "jT" in config.extras:
        for w in model.worlds:
            report.checks += 1
            if (w, w) not in model.access:
                report.add("frame", w, "reflexivity required but world has no self-loop")
    if "jD" in config.extras:
        for w in model.worlds:
            report.checks += 1
            if not model.successors(w):
                report.add("frame", w, "seriality required but world has no successor")

    for w in model.worlds:
        table = model.world_table(w)
        pairs = _closure_pairs(model, w, relevant)
        terms = set()
        for t, _ in pairs:
            terms.update(subterms(t))
        terms = sorted(terms, key=print_term)

        def value(t, a):
            return table.get((t, a), model.default_evidence)

        tk = model.tnorm
        for (s, body) in sorted(pairs, key=str):
            if not isinstance(body, Implies):
                continue
            for (t, ante) in sorted(pairs, key=str):
                if ante != body.left:
                    continue
                report.checks += 1
                need = tnorm_apply(tk, value(s, body), value(t, ante))
                got = value(App(s, t), body.right)
                if got < need:
                    report.add("FE1", w,
                               f"E({print_term(s)}, {print_formula(body)}) * "
                               f"E({print_term(t)}, {print_formula(ante)}) = {need} "
                               f"> E({print_term(App(s, t))}, {print_formula(body.right)}) = {got}")
        for (s, a) in sorted(pairs, key=str):
            base = value(s, a)
            for t in terms:
                for u in (Sum(s, t), Sum(t, s)):
                    report.checks += 1
                    if value(u, a) < base:
                        report.add("FE2", w,
                                   f"E({print_term(s)}, {print_formula(a)}) = {base} "
                                   f"> E({print_term(u)}, {print_formula(a)}) = {value(u, a)}")
            if isinstance(s, Sum):
                for part in (s.left, s.right):
                    report.checks += 1
                    if base < value(part, a):
                        report.add("FE2", w,
                                   f"E({print_term(part)}, {print_formula(a)}) = {value(part, a)} "
                                   f"> E({print_term(s)}, {print_formula(a)}) = {base}")
        for (t, a) in sorted(pairs, key=str):
            if isinstance(t, Const) and cs is not None and cs.covers(t.name, a, config):
                report.checks += 1
                if value(t, a) != ONE:
                    report.add("FE3", w,
                               f"specified constant {t.name} has evidence "
                               f"{value(t, a)} != 1 for {print_formula(a)}")
    return report


def validate_mkrtychev(model: MkrtychevModel, config: LogicConfig, cs,
                       relevant: Iterable[Formula] = ()) -> ModelReport:
    """Single-point models obey the same admissibility conditions; the
    check reuses the Fitting validator over the one-world, no-successor view."""
    return validate_model(_point_view(model), config, cs, relevant)


# ---------------------------------------------------------------------------
# JSON model files

def model_to_dict(model: FittingModel) -> dict:
    val: dict = {}
    for (w, p), v in sorted(model.valuation.items()):
        val.setdefault(w, {})[p] = format_rational(v)
    evid: dict = {}
    for (w, t, a), v in sorted(model.evidence.items(), key=str):
        evid.setdefault(w, []).append({
            "term": print_term(t),
            "formula": print_formula(a),
            "value": format_rational(v),
        })
    return {
        "worlds": list(model.worlds),
        "access": sorted([list(pair) for pair in model.access]),
        "tnorm": model.tnorm.code,
        "val": val,
        "evid": evid,
        "default_evid": format_rational(model.default_evidence),
    }


def model_from_dict(data: dict, config: Optional[LogicConfig] = None) -> FittingModel:
    try:
        worlds = tuple(data["worlds"])
        access = frozenset(tuple(pair) for pair in data.get("access", []))
        tnorm = TNormKind.from_code(data["tnorm"])
        valuation = {}
        for w, table in data.get("val", {}).items():
            for p, v in table.items():
                valuation[(w, p)] = parse_rational(v)
        evidence = {}
        for w, entries in data.get("evid", {}).items():
            for entry in entries:
                key = (w, parse_term(entry["term"]),
                       parse_formula(entry["formula"], config))
                evidence[key] = parse_rational(entry["value"])
        default_evid = parse_rational(data.get("default_evid", "1"))
        default_val = parse_rational(data.get("default_val", "0"))
    except KeyError as exc:
        raise ModelError(f"model file is missing field {exc}") from None
    return FittingModel(worlds=worlds, access=access, tnorm=tnorm,
                        valuation=valuation, evidence=evidence,
                        default_evidence=default_evid,
                        default_valuation=default_val)


def load_model(path: str, config: Optional[LogicConfig] = None) -> FittingModel:
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_dict(json.load(handle), config)


def save_model(model: FittingModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(model), handle, indent=2)
        handle.write("\n")
