"""``Scheme.match`` and ``Scheme.instantiate`` against the matcher they
replaced (``scheme_match_oracle.py``).

Inputs are random instances of every active scheme and mutants of them:
one subformula or subterm swapped for another node of the same
instance, a truth constant changed, or a sum ``s+t`` flipped to
``t+s``.  Every input is matched against every active scheme, so most
pairs fail; the matcher must give the oracle's binding, or None where
the oracle fails, and instantiating a binding must give the oracle's
substitution.

A second family swaps, at each place of the instance where its scheme's
pattern has a connective or a rational metavariable, the node for one of
another class: the same children under another connective (``t:A`` as
an implication ``t -> A``), or a proposition for the truth constant at
every place of the metavariable.
Such a mutant differs from an instance only in one class, so only the
class test the matcher has at that place can reject it, and each class
test the matcher generator writes is reached.
"""

import random
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

import scheme_match_oracle as oracle
from fjl.generate import random_formula, random_scheme_instance, random_term, random_unit
from fjl.logics import FMeta, LogicConfig, RMeta, TMeta, active_schemes
from fjl.syntax import (
    App, Const, Implies, Justified, Prop, StrongConj, Sum, TruthConst, Var, expand_sugar,
)

CONFIGS = [LogicConfig.from_name(name) for name in ("BLJ", "LJ", "GJ", "PiJ", "RPLJ", "J")]
CONFIGS.append(LogicConfig.from_name("RPLJ", extras=("jT", "jD")))

_TERMS = (Var, Const, App, Sum)


def _positions(node, path=()):
    """Every (path, node) below and including ``node``, a path being the
    child indexes taken from the root."""
    yield path, node
    for k, child in enumerate(node._nodes()):
        yield from _positions(child, path + (k,))


def _replace(node, path, new):
    if not path:
        return new
    children = list(node._nodes())
    children[path[0]] = _replace(children[path[0]], path[1:], new)
    return type(node)(*children)


def _mutants(f, rng: random.Random) -> list:
    positions = list(_positions(f))
    out = []
    for _ in range(3):
        path, old = rng.choice(positions)
        is_term = isinstance(old, _TERMS)
        same_kind = [g for _, g in positions if isinstance(g, _TERMS) == is_term]
        out.append(_replace(f, path, rng.choice(same_kind)))
    for path, old in positions:
        if isinstance(old, TruthConst):
            value = Fraction(rng.randint(0, 6), 6)
            out.append(_replace(f, path, TruthConst(value)))
        elif isinstance(old, Sum):
            out.append(_replace(f, path, Sum(old.right, old.left)))
    return out


#: The class a node is swapped for, keeping its children.
_SWAPS = {Implies: StrongConj, StrongConj: Implies, Justified: Implies, App: Sum, Sum: App}


def _class_swaps(scheme, f) -> list:
    """``f``, an instance of ``scheme``, with one node of another class at
    each place where the pattern has a connective or a rational
    metavariable."""
    out, rational, stack = [], {}, [((), scheme.pattern, f)]
    while stack:
        path, pattern, node = stack.pop()
        if type(pattern) is RMeta:
            rational.setdefault(pattern.name, []).append(path)
        elif type(pattern) in _SWAPS:
            out.append(_replace(f, path, _SWAPS[type(pattern)](*node._nodes())))
            stack += [(path + (k,), p, n)
                      for k, (p, n) in enumerate(zip(pattern._nodes(), node._nodes()))]
    for paths in rational.values():     # at every place, or an identity test rejects it
        g = f
        for path in paths:
            g = _replace(g, path, Prop("p"))
        out.append(g)
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CONFIGS), st.integers(0, 10**6))
def test_match_and_instantiate_agree_with_oracle(config, seed):
    rng = random.Random(seed)
    schemes = active_schemes(config)
    for scheme in schemes:
        instance = expand_sugar(random_scheme_instance(rng, scheme, config, rng.randint(0, 2)))
        swaps = _class_swaps(scheme, instance)
        assert swaps and all(scheme.match(f) is None for f in swaps)
        for f in [instance, *_mutants(instance, rng), *swaps]:
            for candidate in schemes:
                expected = oracle.match(candidate, f)
                got = candidate.match(f)
                assert got == expected
                if got is not None:
                    assert list(got) == list(expected)
                    assert candidate.instantiate(got) is oracle.instantiate(candidate, expected)
        assert scheme.match(instance) is not None


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(CONFIGS), st.integers(0, 10**6))
def test_match_recovers_the_binding_it_instantiates(config, seed):
    """A binding of every metavariable, computed ones included, comes
    back from matching its instance."""
    rng = random.Random(seed)
    for scheme in active_schemes(config):
        binding = {}
        for meta in scheme.free_metavariables():
            if isinstance(meta, FMeta):
                binding[meta.name] = expand_sugar(random_formula(rng, config, rng.randint(0, 2)))
            elif isinstance(meta, TMeta):
                binding[meta.name] = random_term(rng, 2)
            else:
                binding[meta.name] = random_unit(rng, 6)
        for name, fn in scheme.side:
            binding[name] = fn(binding)
        assert scheme.match(scheme.instantiate(binding)) == binding, scheme.name
