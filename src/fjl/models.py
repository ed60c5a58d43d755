"""Finite fuzzy Fitting models: validation and evaluation.  A Mkrtychev
model is the one-world Fitting model at ``w0`` with no successor.

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
it.  It defines no truth function: each row of values goes through the
kind's kernels in ``tnorms``, the one home of the t-norm arithmetic, in
integers v*D for Lukasiewicz and Goedel (D the lcm of every denominator
in the model and the formulas' truth constants), in Fractions for product.

``validate_model`` reads its query pairs off one walk over all the query
formulas, takes each distinct term's subterms once, and asks the
constant specification once per (constant, formula) pair.  FE1 and FE2
compare integers n standing for n/D, D the lcm of the denominators of
the evidence and its default, through ``tnorms.BELOW`` (products as
got*D < x*y); violation texts print Fractions.

``eval_validated`` validates and then evaluates one list of formulas:
one walk of their closure serves both halves.  ``validate_model`` and
``eval_many`` are its two halves on a walk of their own.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, Optional

from .logics import LogicConfig
from .parser import ParseError, formula_reader, parse_term
from .syntax import (
    App, Const, Formula, Implies, Justified, ONE, Prop, StrongConj, Sum,
    Term, TruthConst, ZERO, as_unit, expand_sugar, format_rational,
    parse_rational, print_formula, print_term, subformulas_many, subterms,
)
from .tnorms import BELOW, KERNELS, TNormKind, grid, kernel_grid, tnorm_apply


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


# ---------------------------------------------------------------------------
# Evaluation

def eval_many(model: FittingModel, formulas: Iterable[Formula]) -> list:
    """The truth value of each of ``formulas`` at every world, as one dict
    per formula in ``model.worlds`` order.

    One bottom-up pass covers the distinct subformulas of all their
    expansions, so a subformula that several formulas share is evaluated
    once, one row of values per node, by the kind's ``tnorms`` kernels on
    the grid of the model's values and the walk's truth constants; only
    the formulas' own values become Fractions.
    """
    return _evaluate(model, *_closure(formulas))


def eval_validated(model: FittingModel, config: LogicConfig, cs,
                   formulas: Iterable[Formula]) -> Optional[list]:
    """``eval_many(model, formulas)``, or None when
    ``validate_model(model, config, cs, formulas)`` finds a violation;
    one walk of the formulas' closure serves both."""
    roots, order = _closure(formulas)
    if not _validate(model, config, cs, order).ok:
        return None
    return _evaluate(model, roots, order)


def _closure(formulas: Iterable[Formula]) -> tuple:
    """The expanded ``formulas`` and their distinct subformulas, each
    after its operands."""
    roots = [expand_sugar(f) for f in formulas]
    return roots, subformulas_many(roots)


def _evaluate(model: FittingModel, roots: list, order: list) -> list:
    worlds, tk = model.worlds, model.tnorm
    conj, imp = KERNELS[tk]
    top, put, get = kernel_grid(tk, chain(
        model.valuation.values(), model.evidence.values(),
        (g.value for g in order if type(g) is TruthConst),
        (model.default_evidence, model.default_valuation)))
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
            below = values[body]
            row = conj(put([evidence((w, term, body), default_evidence) for w in worlds]),
                       [min([below[j] for j in succ], default=top) for succ in successors], top)
        elif cls is Prop:
            name = g.name
            row = put([valuation((w, name), default_valuation) for w in worlds])
        elif cls is TruthConst:
            row = put([g.value]) * len(worlds)
        else:
            raise ModelError(f"cannot evaluate {type(g).__name__}")
        values[g] = row
    return [dict(zip(worlds, get(values[r]))) for r in roots]


def eval_worlds(model: FittingModel, f: Formula) -> dict:
    """Truth value of ``f`` at every world, in ``model.worlds`` order."""
    return eval_many(model, (f,))[0]


def eval_formula(model: FittingModel, world: str, f: Formula) -> Fraction:
    """Truth value of ``f`` at ``world``; exact rational."""
    if world not in model.worlds:
        raise ModelError(f"world {world!r} not in model")
    return eval_worlds(model, f)[world]


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


def embed_rpl_valuation(valuation: Mapping[str, Fraction]) -> FittingModel:
    """The Mkrtychev model of ``valuation``: world ``w0``, no successor,
    constant evidence 1.  On justification-free formulas it reproduces
    the plain rational Pavelka valuation, and every ``t:A`` is 1 there."""
    return FittingModel(worlds=("w0",), access=frozenset(), tnorm=TNormKind.LUKASIEWICZ,
                        valuation={("w0", p): v for p, v in valuation.items()}, evidence={})


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
    return _validate(model, config, cs, _closure(relevant)[1])


def _validate(model: FittingModel, config: LogicConfig, cs, order: list) -> ModelReport:
    report = ModelReport()
    tk = model.tnorm

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
        if (model.default_valuation not in (ZERO, ONE)
                or model.default_evidence not in (ZERO, ONE)):
            report.add("crisp", None, "default values must be Boolean")

    # FE1 and FE2 compare integers n standing for n/D; texts print Fractions
    top, put, _ = grid(chain(model.evidence.values(), (model.default_evidence,)))
    default = put([model.default_evidence])[0]
    below_tnorm = BELOW[tk]
    sources = {u for u, _ in model.access}
    tables: dict = {w: {} for w in model.worlds}
    for (w, t, a), n in zip(model.evidence, put(model.evidence.values())):
        tables[w][(t, a)] = n
    queried = {(g.term, g.body) for g in order if type(g) is Justified}
    below = {t: frozenset(subterms(t)) for t in {t for t, _ in queried}.union(
        t for _, t, _ in model.evidence)}     # each distinct term's subterms
    queried_terms = set().union(*(below[t] for t, _ in queried))
    covered: dict = {}     # (constant, formula) -> whether ``cs`` specifies it

    def e(t, a, n=None):
        text = f"E({print_term(t)}, {print_formula(a)})"
        return text if n is None else f"{text} = {Fraction(n, top)}"

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
                    x = value(t, a.left)
                    got = value(App(s, t), a.right)
                    if below_tnorm(got, base, x, top):
                        need = tnorm_apply(tk, Fraction(base, top), Fraction(x, top))
                        report.add("FE1", w, f"{e(s, a)} * {e(t, a.left)} = {need} "
                                             f"> {e(App(s, t), a.right, got)}")
            report.checks += 2 * len(terms)
            if least.get(a, default) < base:    # some s+t, t+s may be below
                for u in (Sum(x, y) for t in terms for x, y in ((s, t), (t, s))):
                    if value(u, a) < base:
                        report.add("FE2", w, f"{e(s, a, base)} > {e(u, a, value(u, a))}")
            if isinstance(s, Sum):
                for x in (s.left, s.right):
                    report.checks += 1
                    if base < value(x, a):
                        report.add("FE2", w, f"{e(x, a, value(x, a))} > {e(s, a, base)}")
            if isinstance(s, Const) and cs is not None:
                if (s, a) not in covered:
                    covered[(s, a)] = cs.covers(s.name, a, config)
                if covered[(s, a)]:
                    report.checks += 1
                    if base != top:
                        report.add("FE3", w, f"specified constant {s.name} has evidence "
                                             f"{Fraction(base, top)} != 1 for {print_formula(a)}")

    rank = {w: i for i, w in enumerate(model.worlds)}
    report.violations.sort(key=lambda v: (rank.get(v.world, -1), v.kind, v.message))
    return report


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
    data = {
        "worlds": list(model.worlds),
        "access": sorted([list(pair) for pair in model.access]),
        "tnorm": model.tnorm.code,
        "val": val,
        "evid": evid,
        "default_evid": format_rational(model.default_evidence),
    }
    if model.default_valuation != ZERO:
        data["default_val"] = format_rational(model.default_valuation)
    return data


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
