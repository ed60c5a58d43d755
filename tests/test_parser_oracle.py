"""The parser against the recursive-descent parser it replaced.

``recursive_descent_parser.py`` is that parser, kept verbatim as the
oracle.  On every input the two give equal trees, or the same error
class at the same position.  The one deliberate difference: the old
lexer read digits such as '²' (``str.isdigit`` but not ``int``) into an
integer token, which failed later with a bare ``ValueError`` or a
misplaced error; the new lexer rejects them as a ``LexicalError`` where
they start.
"""

import random

import hypothesis.strategies as st
from hypothesis import given, settings

import recursive_descent_parser as oracle
from conftest import formulas
from fjl import parser, proofs
from fjl.generate import random_derivation, random_formula
from fjl.logics import LogicConfig
from fjl.syntax import print_formula

BL = LogicConfig.from_name("BL")
RPLJ = LogicConfig.from_name("RPLJ")
CONFIGS = st.sampled_from([None, BL, RPLJ])

ALPHABET = list(oracle._SYMBOLS) + [
    "p", "q", "t", "c1", "x_1", "0", "1", "2", "12",
    "$", "{", "-", "=", "<", "\\", "²", "½", "p²", "٣",
]
TERM_ALPHABET = ["(", ")", ".", "+", ":", "s", "c1", "x_1", "1", "$"]


def outcome(parse, text, *args):
    try:
        return parse(text, *args)
    except (oracle.ParseError, parser.ParseError) as exc:
        return type(exc).__name__, exc.position


def expected(parse, text, *args):
    """The oracle's outcome, with non-decimal digits a lexical error."""
    try:
        oracle.tokenize(text)
        prefix = text
    except oracle.LexicalError as exc:
        prefix = text[:exc.position]
    for tok in oracle.tokenize(prefix):
        if tok.kind == "INT" and not tok.text.isdecimal():
            offset = next(k for k, c in enumerate(tok.text) if not c.isdecimal())
            return "LexicalError", tok.pos + offset
    return outcome(parse, text, *args)


@settings(max_examples=600, deadline=None)
@given(st.lists(st.sampled_from(ALPHABET), max_size=16), st.sampled_from([" ", ""]), CONFIGS)
def test_token_strings_agree_with_oracle(tokens, sep, config):
    text = sep.join(tokens)
    assert outcome(parser.parse_formula, text, config) == \
        expected(oracle.parse_formula, text, config)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(TERM_ALPHABET), max_size=12))
def test_term_strings_agree_with_oracle(tokens):
    text = "".join(tokens)
    assert outcome(parser.parse_term, text) == expected(oracle.parse_term, text)


@settings(max_examples=300, deadline=None)
@given(formulas,
       st.lists(st.tuples(st.integers(0, 2), st.integers(0, 10**6),
                          st.sampled_from(ALPHABET)), max_size=3),
       CONFIGS)
def test_edited_formulas_agree_with_oracle(f, edits, config):
    tokens = [tok.text for tok in oracle.tokenize(print_formula(f))[:-1]]
    for op, k, tok in edits:
        k %= len(tokens) + 1
        if op == 0:
            tokens.insert(k, tok)
        elif k < len(tokens):
            if op == 1:
                del tokens[k]
            else:
                tokens[k] = tok
    text = " ".join(tokens)
    assert outcome(parser.parse_formula, text, config) == \
        expected(oracle.parse_formula, text, config)


def test_generated_formulas_agree_with_oracle():
    rng = random.Random(11)
    for _ in range(300):
        f = random_formula(rng, RPLJ, depth=rng.randint(0, 5))
        text = print_formula(f)
        assert parser.parse_formula(text) == oracle.parse_formula(text) == f


def _corrupted(text: str, rng: random.Random) -> str:
    """The file with one step's formula replaced by another step's."""
    lines = text.rstrip("\n").split("\n")
    steps = [k for k, line in enumerate(lines) if line.startswith("STEP ")]
    k, j = rng.choice(steps), rng.choice(steps)
    head, _, by = lines[k].rpartition(" BY ")
    number = head.split(" ", 2)[1]
    formula = lines[j].rpartition(" BY ")[0].split(" ", 2)[2]
    lines[k] = f"STEP {number} {formula} BY {by}"
    return "\n".join(lines) + "\n"


def test_check_derivation_verdicts_agree_with_oracle(monkeypatch):
    rng = random.Random(5)
    texts = []
    for seed in range(1, 13):
        d = random_derivation(random.Random(seed), RPLJ, proofs.TotalCS())
        text = proofs.format_derivation(d)
        texts += [text, _corrupted(text, rng)]

    def verdicts():
        out = []
        for text in texts:
            report = proofs.check_derivation(proofs.parse_derivation(text, RPLJ),
                                             RPLJ, proofs.TotalCS())
            out.append((report.ok, report.step, report.reason))
        return out

    ours = verdicts()
    monkeypatch.setattr(proofs, "parse_formula",
                        lambda text, config=None:
                        oracle.parse_formula(text, config))
    assert ours == verdicts()
    assert {ok for ok, _, _ in ours} == {True, False}

