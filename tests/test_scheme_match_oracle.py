"""``Scheme.match`` and ``Scheme.instantiate`` against the matcher they
replaced (``scheme_match_oracle.py``).

Inputs are random instances of every active scheme and mutants of them:
one subformula or subterm swapped for another node of the same
instance, a truth constant changed, or a sum ``s+t`` flipped to
``t+s``.  Every input is matched against every active scheme, so most
pairs fail; the matcher must give the oracle's binding, or None where
the oracle fails, and instantiating a binding must give the oracle's
substitution.
"""

import random
from fractions import Fraction

import hypothesis.strategies as st
from hypothesis import given, settings

import scheme_match_oracle as oracle
from fjl.generate import random_scheme_instance
from fjl.logics import LogicConfig, active_schemes
from fjl.syntax import App, Const, Sum, TruthConst, Var, expand_sugar

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


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(CONFIGS), st.integers(0, 10**6))
def test_match_and_instantiate_agree_with_oracle(config, seed):
    rng = random.Random(seed)
    schemes = active_schemes(config)
    for scheme in schemes:
        instance = expand_sugar(random_scheme_instance(rng, scheme, config, rng.randint(0, 2)))
        for f in [instance, *_mutants(instance, rng)]:
            for candidate in schemes:
                expected = oracle.match(candidate, f)
                got = candidate.match(f)
                assert got == expected
                if got is not None:
                    assert list(got) == list(expected)
                    assert candidate.instantiate(got) is oracle.instantiate(candidate, expected)
        assert scheme.match(instance) is not None
