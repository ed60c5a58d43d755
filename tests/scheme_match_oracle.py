"""The scheme matcher and substituter that ``fjl.logics`` replaced.

Kept verbatim as the oracle for ``Scheme.match`` and
``Scheme.instantiate``: a term matcher and a formula matcher that
signal failure by raising :class:`MatchFailure`, and their two
substituters.
"""

from __future__ import annotations

from fjl.logics import FMeta, RMeta, TMeta
from fjl.syntax import Const, Formula, Justified, Prop, Term, TruthConst, Var


class MatchFailure(Exception):
    pass


def _match_term(pattern, term: Term, binding: dict) -> None:
    if isinstance(pattern, TMeta):
        seen = binding.get(pattern.name)
        if seen is None:
            binding[pattern.name] = term
        elif seen != term:
            raise MatchFailure
        return
    if isinstance(pattern, (Var, Const)):
        if pattern != term:
            raise MatchFailure
        return
    if type(pattern) is not type(term):
        raise MatchFailure
    _match_term(pattern.left, term.left, binding)
    _match_term(pattern.right, term.right, binding)


def _match_formula(pattern, f: Formula, binding: dict) -> None:
    if isinstance(pattern, FMeta):
        seen = binding.get(pattern.name)
        if seen is None:
            binding[pattern.name] = f
        elif seen != f:
            raise MatchFailure
        return
    if isinstance(pattern, RMeta):
        if not isinstance(f, TruthConst):
            raise MatchFailure
        seen = binding.get(pattern.name)
        if seen is None:
            binding[pattern.name] = f.value
        elif seen != f.value:
            raise MatchFailure
        return
    if isinstance(pattern, (Prop, TruthConst)):
        if pattern != f:
            raise MatchFailure
        return
    if type(pattern) is not type(f):
        raise MatchFailure
    if isinstance(pattern, Justified):
        _match_term(pattern.term, f.term, binding)
        _match_formula(pattern.body, f.body, binding)
        return
    _match_formula(pattern.left, f.left, binding)
    _match_formula(pattern.right, f.right, binding)


def _subst_term(pattern, binding: dict) -> Term:
    if isinstance(pattern, TMeta):
        return binding[pattern.name]
    if isinstance(pattern, (Var, Const)):
        return pattern
    return type(pattern)(_subst_term(pattern.left, binding),
                         _subst_term(pattern.right, binding))


def _subst_formula(pattern, binding: dict) -> Formula:
    if isinstance(pattern, FMeta):
        return binding[pattern.name]
    if isinstance(pattern, RMeta):
        return TruthConst(binding[pattern.name])
    if isinstance(pattern, (Prop, TruthConst)):
        return pattern
    if isinstance(pattern, Justified):
        return Justified(_subst_term(pattern.term, binding),
                         _subst_formula(pattern.body, binding))
    return type(pattern)(_subst_formula(pattern.left, binding),
                         _subst_formula(pattern.right, binding))


def match(scheme, f: Formula):
    """The binding ``scheme`` gives the expanded formula ``f``, or None."""
    binding: dict = {}
    try:
        _match_formula(scheme.pattern, f, binding)
    except MatchFailure:
        return None
    for name, fn in scheme.side:
        if binding.get(name) != fn(binding):
            return None
    return binding


def instantiate(scheme, binding: dict) -> Formula:
    full = dict(binding)
    for name, fn in scheme.side:
        full[name] = fn(full)
    return _subst_formula(scheme.pattern, full)
