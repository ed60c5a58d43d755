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

``eval_many`` evaluates several formulas at every world in one bottom-up
pass over their distinct subformulas; ``eval_worlds`` is its one-formula
case, and every other evaluator but the oracle ``crisp_eval`` reads off
it.  Lukasiewicz and Goedel models are evaluated in exact integers on a
common-denominator grid: with D the lcm of every denominator in the
model's tables, its defaults and the formulas' truth constants, a value
v is the integer v*D, and max(0, x+y-D), min(x, y), D-x+y and y stay
integers on it.  Only the formulas' own values are turned back into
Fractions.  Product models stay in Fractions, since x*y and y/x leave
any such grid.

``validate_model`` reads its query pairs off one walk over all the query
formulas, takes each distinct term's subterms once, and asks the
constant specification once per (constant, formula) pair.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Optional

from .logics import LogicConfig
from .parser import ParseError, formula_reader, parse_term
from .syntax import (
    App, Const, Formula, Implies, Justified, ONE, Prop, StrongConj, Sum,
    Term, TruthConst, ZERO, as_unit, expand_sugar, format_rational,
    parse_rational, print_formula, print_term, subformulas_many, subterms,
)
from .tnorms import TNormKind, tnorm_apply


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
        for what, table in (("valuation", self.valuation), ("evidence", self.evidence)):
            for w, *_ in table:
                if w not in known:
                    raise ModelError(f"{what} mentions unknown world {w!r}")
        object.__setattr__(self, "worlds", worlds)
        object.__setattr__(self, "access", access)
        object.__setattr__(self, "valuation", {k: as_unit(v) for k, v in self.valuation.items()})
        object.__setattr__(self, "evidence", {(w, t, expand_sugar(f)): as_unit(v)
                                              for (w, t, f), v in self.evidence.items()})
        object.__setattr__(self, "default_evidence", as_unit(self.default_evidence))
        object.__setattr__(self, "default_valuation", as_unit(self.default_valuation))

    def successors(self, world: str) -> tuple:
        return tuple(sorted(v for u, v in self.access if u == world))

    def value(self, world: str, prop: str) -> Fraction:
        return self.valuation.get((world, prop), self.default_valuation)

    def evidence_value(self, world: str, term: Term, body: Formula) -> Fraction:
        return self.evidence.get((world, term, body), self.default_evidence)


_POINT = "w0"


@dataclass(frozen=True, eq=False)
class MkrtychevModel:
    """Single-point model; justified formulas take the evidence value directly.
    ``point`` is its one-world, no-successor Fitting model, which normalises
    and checks the tables: with no successor the box is 1 and t(e, 1) = e."""

    tnorm: TNormKind
    valuation: dict      # prop name -> value
    evidence: dict       # (Term, Formula) -> value
    default_evidence: Fraction = ONE
    default_valuation: Fraction = ZERO
    point: FittingModel = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "point", FittingModel(
            worlds=(_POINT,), access=frozenset(), tnorm=self.tnorm,
            valuation={(_POINT, p): v for p, v in self.valuation.items()},
            evidence={(_POINT, t, a): v for (t, a), v in self.evidence.items()},
            default_evidence=self.default_evidence,
            default_valuation=self.default_valuation))


# ---------------------------------------------------------------------------
# Evaluation

def _luka_conj(xs: list, ys: list, top: int) -> list:
    return [x + y - top if x + y > top else 0 for x, y in zip(xs, ys)]


def _luka_imp(xs: list, ys: list, top: int) -> list:
    return [top if x <= y else top - x + y for x, y in zip(xs, ys)]


def _goedel_conj(xs: list, ys: list, top: int) -> list:
    return [x if x < y else y for x, y in zip(xs, ys)]


def _goedel_imp(xs: list, ys: list, top: int) -> list:
    return [top if x <= y else y for x, y in zip(xs, ys)]


def _product_conj(xs: list, ys: list, top: Fraction) -> list:
    return [x * y for x, y in zip(xs, ys)]


def _product_imp(xs: list, ys: list, top: Fraction) -> list:
    return [top if x <= y else y / x for x, y in zip(xs, ys)]


def _on_grid(values: list, top: int) -> list:
    """Each of ``values`` as the integer n such that it is n/top."""
    return [v.numerator * (top // v.denominator) for v in values]


_LUKASIEWICZ, _GOEDEL = TNormKind.LUKASIEWICZ, TNormKind.GOEDEL


def eval_many(model: FittingModel, formulas: Iterable[Formula]) -> list:
    """The truth value of each of ``formulas`` at every world, as one dict
    per formula in ``model.worlds`` order.

    One bottom-up pass covers the distinct subformulas of all their
    expansions, so a subformula that several formulas share is evaluated
    once, one row of values per node.  Lukasiewicz and Goedel values are
    integers n standing for n/D, D the lcm of the denominators of the
    model's values and of the truth constants in the walk; only the
    formulas' own values become Fractions.  Product values leave that
    grid, so they stay Fractions.
    """
    roots = [expand_sugar(f) for f in formulas]
    worlds, tk = model.worlds, model.tnorm
    order = subformulas_many(roots)
    grid = tk is _LUKASIEWICZ or tk is _GOEDEL
    if grid:
        conj, imp = (_luka_conj, _luka_imp) if tk is _LUKASIEWICZ else (_goedel_conj, _goedel_imp)
        top = lcm(*{v.denominator for table in (model.valuation, model.evidence)
                    for v in table.values()},
                  *{g.value.denominator for g in order if type(g) is TruthConst},
                  model.default_evidence.denominator, model.default_valuation.denominator)
    else:
        conj, imp, top = _product_conj, _product_imp, ONE
    valuation, evidence = model.valuation.get, model.evidence.get
    default_valuation, default_evidence = model.default_valuation, model.default_evidence
    successors = None
    values = {}
    for g in order:
        cls = type(g)
        if cls is Implies:
            row = imp(values[g.left], values[g.right], top)
        elif cls is StrongConj:
            row = conj(values[g.left], values[g.right], top)
        elif cls is Justified:
            if successors is None:
                index = {w: i for i, w in enumerate(worlds)}
                successors = [[] for _ in worlds]
                for u, v in model.access:
                    successors[index[u]].append(index[v])
            term, body = g.term, g.body
            given = [evidence((w, term, body), default_evidence) for w in worlds]
            below = values[body]
            row = conj(_on_grid(given, top) if grid else given,
                       [min([below[j] for j in succ], default=top) for succ in successors], top)
        elif cls is Prop:
            name = g.name
            row = [valuation((w, name), default_valuation) for w in worlds]
            if grid:
                row = _on_grid(row, top)
        elif cls is TruthConst:
            row = (_on_grid([g.value], top) if grid else [g.value]) * len(worlds)
        else:
            raise ModelError(f"cannot evaluate {type(g).__name__}")
        values[g] = row
    if grid:
        return [dict(zip(worlds, [ONE if x == top else ZERO if not x else Fraction(x, top)
                                  for x in values[r]]))
                for r in roots]
    return [dict(zip(worlds, values[r])) for r in roots]


def eval_worlds(model: FittingModel, f: Formula) -> dict:
    """Truth value of ``f`` at every world, in ``model.worlds`` order."""
    return eval_many(model, (f,))[0]


def eval_formula(model: FittingModel, world: str, f: Formula) -> Fraction:
    """Truth value of ``f`` at ``world``; exact rational."""
    if world not in model.worlds:
        raise ModelError(f"world {world!r} not in model")
    return eval_worlds(model, f)[world]


def eval_box(model: FittingModel, world: str, f: Formula) -> Fraction:
    """Infimum of the value of ``f`` over the successors; 1 with none."""
    if world not in model.worlds:
        raise ModelError(f"world {world!r} not in model")
    return min(map(eval_worlds(model, f).get, model.successors(world)), default=ONE)


def eval_mkrtychev(model: MkrtychevModel, f: Formula) -> Fraction:
    return eval_worlds(model.point, f)[_POINT]


def is_valid_in_model(model: FittingModel, f: Formula) -> bool:
    return all(v == ONE for v in eval_worlds(model, f).values())


def crisp_eval(model: FittingModel, world: str, f: Formula) -> Fraction:
    """Boolean evaluation: implication and the justification clause are
    classical.  Recursive on purpose: the crisp suite's independent oracle."""
    if world not in model.worlds:
        raise ModelError(f"world {world!r} not in model")
    return _crisp(model, world, expand_sugar(f))


def _bool(value: Fraction) -> Fraction:
    if value not in (ZERO, ONE):
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


def validate_model(model: FittingModel, config: LogicConfig, cs,
                   relevant: Iterable[Formula] = ()) -> ModelReport:
    """Check admissibility (FE1-FE3), frame demands and crisp range.

    ``cs`` is a constant specification; every covered constant/formula
    pair must have evidence 1 everywhere.  ``relevant`` extends the
    closure with the query formulas about to be evaluated.  Violations
    come sorted by world (in model order), kind and message.
    """
    report = ModelReport()
    tk, default = model.tnorm, model.default_evidence

    report.checks += 1
    if tk not in config.tnorm_kinds():
        report.add("tnorm", None,
                   f"model uses {tk.code} but {config.name} admits "
                   f"{'/'.join(k.code for k in config.tnorm_kinds())}")

    if config.crisp:
        for (w, p), v in model.valuation.items():
            report.checks += 1
            if v not in (ZERO, ONE):
                report.add("crisp", w, f"valuation of {p} is {v}, not Boolean")
        for (w, t, a), v in model.evidence.items():
            report.checks += 1
            if v not in (ZERO, ONE):
                report.add("crisp", w,
                           f"evidence for {print_term(t)}:{print_formula(a)} is {v}")
        if model.default_valuation not in (ZERO, ONE) or default not in (ZERO, ONE):
            report.add("crisp", None, "default values must be Boolean")

    sources = {u for u, _ in model.access}
    tables: dict = {w: {} for w in model.worlds}
    for (w, t, a), v in model.evidence.items():
        tables[w][(t, a)] = v
    queried = {(g.term, g.body) for g in subformulas_many(map(expand_sugar, relevant))
               if type(g) is Justified}
    below = {t: frozenset(subterms(t)) for t in {t for t, _ in queried}.union(
        t for _, t, _ in model.evidence)}     # each distinct term's subterms
    queried_terms = set().union(*(below[t] for t, _ in queried))
    covered: dict = {}     # (constant, formula) -> whether ``cs`` specifies it

    def e(t, a):
        return f"E({print_term(t)}, {print_formula(a)})"

    for w, table in tables.items():
        if "jT" in config.extras:
            report.checks += 1
            if (w, w) not in model.access:
                report.add("frame", w, "reflexivity required but world has no self-loop")
        if "jD" in config.extras:
            report.checks += 1
            if w not in sources:
                report.add("frame", w, "seriality required but world has no successor")
        pairs = queried.union(table)
        terms = queried_terms.union(*(below[t] for t, _ in table))
        partners, least = {}, {}    # per formula: its terms; the default or a lower s+t value
        for t, a in pairs:
            partners.setdefault(a, []).append(t)
        for (u, a), v in table.items():
            if isinstance(u, Sum):
                least[a] = min(least.get(a, default), v)

        def value(t, a):
            return table.get((t, a), default)

        for s, a in pairs:
            base = value(s, a)
            if isinstance(a, Implies):
                for t in partners.get(a.left, ()):
                    report.checks += 1
                    need = tnorm_apply(tk, base, value(t, a.left))
                    got = value(App(s, t), a.right)
                    if got < need:
                        report.add("FE1", w, f"{e(s, a)} * {e(t, a.left)} = {need} "
                                             f"> {e(App(s, t), a.right)} = {got}")
            report.checks += 2 * len(terms)
            if least.get(a, default) < base:    # some s+t, t+s may be below
                for u in (Sum(x, y) for t in terms for x, y in ((s, t), (t, s))):
                    if value(u, a) < base:
                        report.add("FE2", w, f"{e(s, a)} = {base} > {e(u, a)} = {value(u, a)}")
            if isinstance(s, Sum):
                for x in (s.left, s.right):
                    report.checks += 1
                    if base < value(x, a):
                        report.add("FE2", w, f"{e(x, a)} = {value(x, a)} > {e(s, a)} = {base}")
            if isinstance(s, Const) and cs is not None:
                if (s, a) not in covered:
                    covered[(s, a)] = cs.covers(s.name, a, config)
                if covered[(s, a)]:
                    report.checks += 1
                    if base != ONE:
                        report.add("FE3", w, f"specified constant {s.name} has evidence "
                                             f"{base} != 1 for {print_formula(a)}")

    rank = {w: i for i, w in enumerate(model.worlds)}
    report.violations.sort(key=lambda v: (rank.get(v.world, -1), v.kind, v.message))
    return report


def validate_mkrtychev(model: MkrtychevModel, config: LogicConfig, cs,
                       relevant: Iterable[Formula] = ()) -> ModelReport:
    """Single-point models obey the same admissibility conditions; the
    check reuses the Fitting validator over the one-world, no-successor view."""
    return validate_model(model.point, config, cs, relevant)


# ---------------------------------------------------------------------------
# JSON model files

def model_to_dict(model: FittingModel) -> dict:
    val: dict = {}
    for (w, p), v in sorted(model.valuation.items()):
        val.setdefault(w, {})[p] = format_rational(v)
    evid: dict = {}
    # Sorted by world, then by the printed texts, which are unique per node.
    rows = sorted((w, print_term(t), print_formula(a), v)
                  for (w, t, a), v in model.evidence.items())
    for w, term, formula, v in rows:
        evid.setdefault(w, []).append({
            "term": term,
            "formula": formula,
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


#: The documented shape of each model-file field: a JSON type, [item],
#: (item, item) for a list of that length, or {str: value}.
_SHAPE = {"worlds": [str], "access": [(str, str)], "tnorm": str, "val": {str: {str: str}},
          "evid": {str: [{str: str}]}, "default_evid": str, "default_val": str}


def _fits(value, shape) -> bool:
    if isinstance(shape, type):
        return isinstance(value, shape)
    if isinstance(shape, dict):
        return isinstance(value, dict) and all(_fits(v, shape[str]) for v in value.values())
    if isinstance(shape, list):
        return isinstance(value, list) and all(_fits(v, shape[0]) for v in value)
    return isinstance(value, list) and len(value) == len(shape) and all(map(_fits, value, shape))


def model_from_dict(data: dict, config: Optional[LogicConfig] = None) -> FittingModel:
    """The model a model file describes; a ``ModelError`` names a malformed field."""
    if not isinstance(data, dict):
        raise ModelError("a model file must hold a JSON object")
    for name, shape in _SHAPE.items():
        if name in data and not _fits(data[name], shape):
            raise ModelError(f"model file field {name!r} does not have the documented shape")
    try:
        worlds = tuple(data["worlds"])
        access = frozenset(tuple(pair) for pair in data.get("access", []))
        tnorm = TNormKind.from_code(data["tnorm"])
        valuation = {}
        for w, table in data.get("val", {}).items():
            for p, v in table.items():
                valuation[(w, p)] = parse_rational(v)
        evidence = {}
        read = formula_reader(config)
        for w, entries in data.get("evid", {}).items():
            for k, entry in enumerate(entries):
                try:
                    key = (w, parse_term(entry["term"]), read(entry["formula"]))
                except ParseError as exc:
                    raise exc.within(f"evidence entry {k} of world {w!r}") from None
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
        try:
            data = json.load(handle)
        except RecursionError:
            raise ModelError("model file nests too deeply") from None
    return model_from_dict(data, config)


def save_model(model: FittingModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(model), handle, indent=2)
        handle.write("\n")
