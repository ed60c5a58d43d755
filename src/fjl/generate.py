"""Seeded random terms, formulas, scheme instances, valid models,
countermodel search and fuzzed derivations.

Model generation is repair-by-construction: evidence tables list
atomic-term entries freely, sum-term entries only above both listed
components, application-term entries only at value 1, and specified
constants at value 1.  Together with the permissive default of 1 this
keeps the admissibility conditions satisfied for every query closure,
so a generated model stays valid for arbitrary axiom instances.
The generator is a pure function of its seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .logics import FMeta, LogicConfig, RMeta, Scheme, TMeta, active_schemes
from .models import FittingModel, eval_worlds, validate_model
from .proofs import ConstantSpecification, DerivationBuilder, Derivation, EMPTY_CS, TotalCS
from .syntax import (
    App, Const, FALSUM, Formula, GradedAtLeast, GradedAtMost, GradedExact,
    Implies, Justified, Neg, ONE, Prop, StrongConj, Sum, Term, TruthConst,
    VERUM, Var, WeakConj, WeakDisj, ZERO, exact_expansion, expand_sugar,
)
from .tnorms import TNormKind


@dataclass(frozen=True)
class ModelParams:
    max_worlds: int = 3
    max_denominator: int = 8
    tnorm: Optional[TNormKind] = None      # None: drawn from the logic's kinds


@dataclass(frozen=True)
class SearchBudget:
    max_worlds: int = 3
    max_denominator: int = 12
    trials: int = 200
    seed: int = 0


_ATOMIC_TERMS = (Var("x1"), Var("x2"), Const("c1"))
_MODEL_PROPS = ("p", "q")           # the atoms a random model values
_EVIDENCE_ENTRIES = 4               # atomic-term draws per world of a random model
_ATOMS = (Prop("p"), Prop("q"), Prop("r"))
_BOOLEAN_CONSTANTS = (FALSUM, VERUM)


def random_unit(rng: random.Random, max_denominator: int) -> Fraction:
    den = rng.randint(1, max_denominator)
    return Fraction(rng.randint(0, den), den)


def random_term(rng: random.Random, depth: int = 2) -> Term:
    if depth <= 0 or rng.random() < 0.6:
        return rng.choice(_ATOMIC_TERMS)
    op = App if rng.random() < 0.5 else Sum
    return op(random_term(rng, depth - 1), random_term(rng, depth - 1))


def random_formula(rng: random.Random, config: LogicConfig, depth: int = 3) -> Formula:
    if depth <= 0:
        roll = rng.random()
        if roll < 0.15:
            if config.has_truth_constants and not config.crisp:
                return TruthConst(random_unit(rng, 6))
            return rng.choice(_BOOLEAN_CONSTANTS)
        return rng.choice(_ATOMS)
    roll = rng.random()
    if roll < 0.30:
        return random_formula(rng, config, 0)
    if roll < 0.55:
        return Implies(random_formula(rng, config, depth - 1),
                       random_formula(rng, config, depth - 1))
    if roll < 0.72:
        return StrongConj(random_formula(rng, config, depth - 1),
                          random_formula(rng, config, depth - 1))
    if roll < 0.82 and config.justified:
        return Justified(random_term(rng, 1), random_formula(rng, config, depth - 1))
    if roll < 0.88:
        return Neg(random_formula(rng, config, depth - 1))
    if roll < 0.94:
        op = rng.choice((WeakConj, WeakDisj))
        return op(random_formula(rng, config, depth - 1),
                  random_formula(rng, config, depth - 1))
    if config.has_truth_constants and not config.crisp and config.justified:
        op = rng.choice((GradedAtLeast, GradedAtMost, GradedExact))
        return op(random_unit(rng, 6), random_term(rng, 1),
                  random_formula(rng, config, depth - 1))
    return Implies(random_formula(rng, config, depth - 1), random_formula(rng, config, 0))


def random_scheme_instance(rng: random.Random, scheme: Scheme,
                           config: LogicConfig, depth: int = 2) -> Formula:
    """An instance of ``scheme`` over fresh draws, already expanded."""
    binding: dict = {}
    for meta in scheme.free_metavariables():
        if isinstance(meta, FMeta):
            binding[meta.name] = expand_sugar(random_formula(rng, config, depth))
        elif isinstance(meta, TMeta):
            binding[meta.name] = random_term(rng, 1)
        elif isinstance(meta, RMeta):
            binding[meta.name] = (rng.choice((ZERO, ONE)) if config.crisp
                                  else random_unit(rng, 6))
    return scheme.instantiate(binding)


def _random_value(rng: random.Random, params: ModelParams, config: LogicConfig) -> Fraction:
    if config.crisp:
        return rng.choice((ZERO, ONE))
    return random_unit(rng, params.max_denominator)


def _formula_pool(constants: bool) -> tuple:
    """The evidence bodies ``random_model`` draws from, expanded, and each
    body's rank in the order of its ``repr``.  Sorting a table's groups by
    it sorts them as their (body, entries) pairs sort by ``str``: the
    bodies are distinct and no ``repr`` is a prefix of another."""
    props = _MODEL_PROPS
    pool = [Prop(p) for p in props]
    pool += [Implies(Prop(a), Prop(b)) for a in props for b in props if a != b]
    pool.append(Implies(Prop(props[0]), FALSUM))
    if constants:
        pool.append(Implies(TruthConst(Fraction(1, 2)), Prop(props[0])))
    pool = tuple(expand_sugar(f) for f in pool)
    return pool, {body: i for i, body in enumerate(sorted(set(pool), key=repr))}


#: The pools without and with the body ``#1/2 -> p``, keyed by whether
#: the logic has truth constants and is not crisp.
_FORMULA_POOLS = {False: _formula_pool(False), True: _formula_pool(True)}


def random_model(seed: int, params: ModelParams = ModelParams(),
                 config: Optional[LogicConfig] = None,
                 cs: Optional[ConstantSpecification] = None) -> FittingModel:
    """A random model, identical for identical seeds.  It is valid by
    construction under ``config`` and ``cs`` (its frame is reflexive if
    ``config`` has jT and serial if it has jD); callers validate it
    against their own query set."""
    config = config or LogicConfig()
    cs = cs if cs is not None else EMPTY_CS
    rng = random.Random(seed)

    count = rng.randint(1, max(1, params.max_worlds))
    worlds = tuple(f"w{i}" for i in range(count))
    access = set()
    for a in worlds:
        for b in worlds:
            if rng.random() < 0.4:
                access.add((a, b))
    if "jT" in config.extras:
        access.update((w, w) for w in worlds)
    if "jD" in config.extras:
        for w in worlds:
            if not any(u == w for (u, _) in access):
                access.add((w, rng.choice(worlds)))

    tnorm = params.tnorm or rng.choice(config.tnorm_kinds())

    valuation = {(w, p): _random_value(rng, params, config)
                 for w in worlds for p in _MODEL_PROPS}

    formula_pool, rank = _FORMULA_POOLS[config.has_truth_constants and not config.crisp]
    evidence: dict = {}
    for w in worlds:
        table: dict = {}
        for _ in range(_EVIDENCE_ENTRIES):
            term = rng.choice(_ATOMIC_TERMS)
            body = rng.choice(formula_pool)
            value = _random_value(rng, params, config)
            if isinstance(term, Const) and cs.covers(term.name, body, config):
                value = ONE
            table[(term, body)] = value
        # sum entries ride on two listed components, never below either
        grouped: dict = {}
        for (term, body), value in table.items():
            grouped.setdefault(body, []).append((term, value))
        for body, entries in sorted(grouped.items(), key=lambda item: rank[item[0]]):
            if len(entries) >= 2 and rng.random() < 0.6:
                (s, vs), (t, vt) = entries[0], entries[1]
                if s != t:
                    floor = max(vs, vt)
                    value = ONE if rng.random() < 0.3 else floor
                    table[(Sum(s, t), body)] = value
        # application entries are pinned to 1 so arbitrary queries stay admissible
        if rng.random() < 0.4:
            s, t = rng.choice(_ATOMIC_TERMS), rng.choice(_ATOMIC_TERMS)
            body = rng.choice(formula_pool)
            table[(App(s, t), body)] = ONE
        for (term, body), value in table.items():
            evidence[(w, term, body)] = value

    return FittingModel(worlds=worlds, access=frozenset(access), tnorm=tnorm,
                        valuation=valuation, evidence=evidence)


def find_countermodel(f: Formula, config: LogicConfig,
                      cs: Optional[ConstantSpecification] = None,
                      budget: SearchBudget = SearchBudget()):
    """Seeded search for a validated model and world where ``f`` < 1.

    Returns (model, world) or None; None is only a failed search, not a
    validity proof.  Only a model refuting ``f`` somewhere is validated.
    """
    cs = cs if cs is not None else EMPTY_CS
    goal = expand_sugar(f)
    params = ModelParams(max_worlds=budget.max_worlds,
                         max_denominator=budget.max_denominator)
    for trial in range(budget.trials):
        model = random_model(budget.seed + trial, params, config, cs)
        refuted = [w for w, v in eval_worlds(model, goal).items() if v < ONE]
        if refuted and validate_model(model, config, cs, [goal]).ok:
            return model, refuted[0]
    return None


def random_derivation(rng: random.Random, config: LogicConfig,
                      cs: ConstantSpecification, moves: int = 6,
                      max_hypotheses: int = 2) -> Derivation:
    """An accepted derivation assembled from a few random construction moves."""
    hypotheses = [random_formula(rng, config, 2)
                  for _ in range(rng.randint(0, max_hypotheses))]
    b = DerivationBuilder(config, hypotheses)
    known = [b.hyp(i) for i in range(len(hypotheses))]
    schemes = active_schemes(config)
    for _ in range(max(1, moves)):
        move = rng.random()
        if move < 0.35:
            scheme = rng.choice(schemes)
            known.append(b.axiom(scheme.name,
                                 random_scheme_instance(rng, scheme, config, 1)))
        elif move < 0.55 and known:
            # weaken an existing step under a fresh antecedent, then detach
            target = rng.choice(known)
            extra = expand_sugar(random_formula(rng, config, 1))
            k = b.th_k(b.formula(target), extra)
            known.append(b.mp(target, k))
        elif move < 0.7 and len(known) >= 2:
            i, j = rng.choice(known), rng.choice(known)
            if i != j:
                known.append(b.conj_pair(i, j))
        elif move < 0.85 and config.graded_necessitation and isinstance(cs, TotalCS):
            scheme = rng.choice(schemes)
            inst = random_scheme_instance(rng, scheme, config, 1)
            entry = exact_expansion(ONE, Const(cs.constant_for(inst)), inst)
            depth = rng.randint(1, 2)
            for _ in range(depth - 1):
                entry = exact_expansion(ONE, Const(cs.constant_for(entry)), entry)
            known.append(b.gian(entry))
        else:
            known.append(b.th_identity(expand_sugar(random_formula(rng, config, 1))))
    if not b.steps:
        b.th_one()
    return b.build()
