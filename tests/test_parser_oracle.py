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
from unittest import mock

import hypothesis.strategies as st
import pytest
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


#: Token edits: insert (0), delete (1) or replace (2) at a position.
EDITS = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 10**6),
                           st.sampled_from(ALPHABET)), max_size=3)


def _edited(text, edits):
    tokens = [tok.text for tok in oracle.tokenize(text)[:-1]]
    for op, k, tok in edits:
        k %= len(tokens) + 1
        if op == 0:
            tokens.insert(k, tok)
        elif k < len(tokens):
            if op == 1:
                del tokens[k]
            else:
                tokens[k] = tok
    return " ".join(tokens)


@settings(max_examples=300, deadline=None)
@given(formulas, EDITS, CONFIGS)
def test_edited_formulas_agree_with_oracle(f, edits, config):
    text = _edited(print_formula(f), edits)
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
    monkeypatch.setattr(proofs, "formula_reader",
                        lambda config=None: lambda text: oracle.parse_formula(text, config))
    assert ours == verdicts()
    assert {ok for ok, _, _ in ours} == {True, False}



# ---------------------------------------------------------------------------
# One reader's shared group table against a fresh parse of each text


def assert_reader_agrees(texts, config=None):
    """Each text read through one ``formula_reader`` gives what a fresh
    ``parse_formula`` gives: the same node, or the same error class at
    the same position.  The outcomes, in order."""
    read = parser.formula_reader(config)
    outcomes = []
    for text in texts:
        got, want = outcome(read, text), outcome(parser.parse_formula, text, config)
        assert got is want if not isinstance(want, tuple) else got == want, text
        outcomes.append(want)
    return outcomes


@st.composite
def related_texts(draw):
    """Texts that share groups: a few printed formulas, combined so that a
    group recurs as a formula and as a term, then edited."""
    pool = [print_formula(f) for f in draw(st.lists(formulas, min_size=1, max_size=3))]
    texts = []
    for _ in range(draw(st.integers(1, 6))):
        a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        text = draw(st.sampled_from([
            a, f"({a}) -> ({b})", f"~({a})", f"(s):({a})", f"({a}):({b})",
            f"(({a}) & {b})", f"({a}).y:p", f"({a}) + s:p"]))
        texts.append(_edited(text, draw(EDITS)))
    return texts


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(ALPHABET), max_size=16).map(" ".join),
                max_size=6), CONFIGS)
def test_shared_reader_agrees_on_token_strings(texts, config):
    assert_reader_agrees(texts, config)


@settings(max_examples=300, deadline=None)
@given(related_texts(), CONFIGS)
def test_shared_reader_agrees_on_related_texts(texts, config):
    assert_reader_agrees(texts, config)


def _file_formulas(seed):
    d = random_derivation(random.Random(seed), RPLJ, proofs.TotalCS())
    return [print_formula(f) for f in d.hypotheses + tuple(s.formula for s in d.steps)]


FILE_FORMULAS = [_file_formulas(seed) for seed in (1, 2, 3)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(FILE_FORMULAS), st.integers(0, 10**6), EDITS)
def test_shared_reader_agrees_on_file_lines_with_one_edited(lines, k, edits):
    lines = list(lines)
    k %= len(lines)
    lines[k] = _edited(lines[k], edits)
    assert_reader_agrees(lines, RPLJ)


@pytest.mark.parametrize("texts", [
    ["(p) -> q", "(p):q"],
    ["(x) -> p", "(x).y:p"],
    ["((p -> q)) -> r", "((p -> q)):r", "(p -> q).x:r", "(p -> q) + x:r"],
    ["(p -> #1/2) -> q", "((p -> #1/2) -> q) & q", "t:{>=1/3}(p -> #1/2)"],
    ["(#0 -> p) & (#1 -> p)", "(#0 -> p) -> (#1 -> p)"],
])
@pytest.mark.parametrize("config", [None, BL, RPLJ], ids=["none", "BL", "RPLJ"])
def test_shared_reader_fixed_cases(texts, config):
    assert_reader_agrees(texts, config)


#: Nesting far past the recursion limit; the oracle is not run on it.
DEEP = 20_000


@pytest.mark.parametrize("first, group", [
    (["{g}"], "((p -> q) -> (q & r))"),
    (["{g}"], "(((x))) -> p"),
    (["{g}"], "((((x))):p)"),
    # Read first where the scan of an enclosing "(" has already read it.
    (["(({g}) -> q)"], "((((x))):p)"),
    (["(({g}) -> q)"], "((p -> q) -> (q & r))"),
    (["{g} -> p"], "((((x))))"),
    # Its inner groups read first, so its own first read takes them whole.
    (["(p -> q)", "(q & r)", "{g}"], "((p -> q) -> (q & r))"),
], ids=["implications", "parens", "term-inside", "term-inside-scanned",
        "implications-scanned", "four-parens", "inner-groups-first"])
@pytest.mark.parametrize("prefix", ["~", "(c):", "~(c):"])
def test_shared_reader_under_deep_prefixes(first, group, prefix):
    """A group read first at depth 0, then under 20,000 prefixes, then
    where it starts a term."""
    texts = [text.format(g=group) for text in first]
    texts += [prefix * DEEP + group, prefix + "((((x)))):p"]
    assert not any(isinstance(got, tuple) for got in assert_reader_agrees(texts))


# ---------------------------------------------------------------------------
# The text table: a known text, its consequent, or a parenthesised known
# text is served from the table, and still gives what a fresh parse gives.

#: A line whose consequent is an implication, with a graded constant.
LINE = "(p -> q) & s:(p -> q) -> t:{>=1/2}r -> #1/2 -> q"
CONSEQUENT = "t:{>=1/2}r -> #1/2 -> q"
#: A line that is a proposition, so that "(TERMISH)" can also be a term.
TERMISH = "x_long"


def _wrapped(t):
    """Texts holding ``(t)``: under prefixes, in or next to a term
    position, and with extra spaces."""
    return [
        f"~({t})", f"s:({t})", f"s:{{>=1/2}}({t})", f"({t}) -> ({t})", f"~~(({t}))",
        f"({t}):p", f"({t}).x:p", f"x.({t}):p", f"(({t})).x:p", f"({t}) + x:p",
        f"({t})  :p", f"x .  ({t}):p", f"(({t}) + x):p", f"(x + ({t})):p",
        f"  ({t})   ->  p ", f"( {t} ) -> p", f"~ ( {t})", f"({t})(p)", f"({t})1",
    ]


@pytest.mark.parametrize("texts", [
    [LINE, CONSEQUENT, "#1/2 -> q", "q", CONSEQUENT, LINE, "#1/2 -> q"],
    [LINE, "#1/2 -> q", CONSEQUENT],
    [LINE, *_wrapped(LINE), *_wrapped(CONSEQUENT), *_wrapped("#1/2 -> q")],
    [TERMISH, *_wrapped(TERMISH)],
    [f"{TERMISH} -> {TERMISH}", *_wrapped(TERMISH), *_wrapped(f"{TERMISH} -> {TERMISH}")],
    ["p -> q", "(p -> q) -> (q -> p)", "(q -> p)", "q -> p", "~(q -> p)"],
    ["s:p -> s.s:p", "(s:p -> s.s:p) & (s.s:p)", "s.(s:p -> s.s:p):p"],
], ids=["consequents", "consequent-of-consequent-first", "wrapped-line",
        "wrapped-proposition", "wrapped-implication", "grouped-consequent", "terms"])
@pytest.mark.parametrize("config", [None, BL, RPLJ], ids=["none", "BL", "RPLJ"])
def test_text_table_agrees(texts, config):
    assert_reader_agrees(texts, config)


def test_text_table_under_BL_still_rejects_graded_constants():
    outcomes = assert_reader_agrees(
        ["p -> q", LINE, CONSEQUENT, "~(p -> q) -> #1/2", "((p -> q) & #1/2)"], BL)
    assert [o[0] for o in outcomes[1:]] == ["ConstantNotAllowedError"] * 4


def test_a_hole_cannot_be_written_in_an_input():
    for text in ["$0$", "~(p_long -> q) & $0$", "$0$:p", "(p_long -> q)$"]:
        outcomes = assert_reader_agrees(["p_long -> q", text])
        assert outcomes[1] == ("LexicalError", text.index("$"))


def _lexed(monkeypatch, texts, config=None):
    """The texts a reader lexes while reading ``texts``."""
    fresh = [parser.parse_formula(text, config) for text in texts]
    lexed = []
    lex = parser._lex
    monkeypatch.setattr(parser, "_lex", lambda text, token: lexed.append(text) or lex(text, token))
    read = parser.formula_reader(config)
    assert all(read(text) is f for text, f in zip(texts, fresh))
    monkeypatch.undo()
    return lexed


def test_known_texts_are_not_lexed_again(monkeypatch):
    lexed = _lexed(monkeypatch, [LINE, CONSEQUENT, "#1/2 -> q", LINE,
                                 f"~({LINE})", f"({CONSEQUENT}) -> ({LINE})"])
    assert lexed == [LINE, "~$0$", "$1$ -> $0$"]
    # in a term position the group is not replaced, so the text is lexed whole
    assert _lexed(monkeypatch, [TERMISH, f"({TERMISH}):p", f"~({TERMISH})"]) == \
        [TERMISH, f"({TERMISH}):p", "~$0$"]


def test_a_collapsed_text_that_fails_is_parsed_whole(monkeypatch):
    lexed = _lexed(monkeypatch, [TERMISH, f"(({TERMISH})):p"])
    assert lexed == [TERMISH, "($0$):p", f"(({TERMISH})):p"]


def test_the_text_table_holds_at_most_a_line_and_a_consequent_per_read():
    texts = _file_formulas(1)
    read = parser.formula_reader(RPLJ)
    for n, text in enumerate(texts + texts, start=1):
        read(text)
        assert len(read.known) <= 2 * n
    assert len(read.known) <= 2 * len(set(texts))


def test_a_long_arrow_chain_and_its_consequents_read_in_linear_time():
    n = DEEP
    chain = " -> ".join(["p"] * n)
    read = parser.formula_reader()
    f = read(chain)
    for k in range(1, 4):
        f = f.right
        assert read(" -> ".join(["p"] * (n - k))) is f
    assert read(f"({chain}) -> q").left is read(chain)


#: Character edits of one line: insert (0), delete (1) or overwrite (2).
LINE_EDITS = st.tuples(st.integers(0, 2), st.integers(0, 10**6), st.sampled_from(
    ["(", ")", " ", ":", ".", "+", "~", "x.", "(p)", "#1/2", " -> ", "$", "s:", "{>=1/2}"]))


@st.composite
def edited_files(draw):
    """A fuzzed derivation file with one step's formula edited by a
    character edit, or replaced by an earlier step's formula wrapped in
    parentheses."""
    lines = list(draw(st.sampled_from(FILE_TEXTS)).splitlines())
    k = draw(st.integers(0, len(lines) - 1))
    head, _, by = lines[k].rpartition(" BY ")
    _, number, formula = head.split(" ", 2)
    earlier = [line.rpartition(" BY ")[0].split(" ", 2)[2] for line in lines[:k]]
    if earlier and draw(st.booleans()):
        a, b = draw(st.sampled_from(earlier)), draw(st.sampled_from(earlier))
        formula = draw(st.sampled_from([
            f"~({a})", f"({a}) -> ({b})", f"s:({a})", f"({a}):p", f"(({a})).x:p",
            f"({a}) & {b}", f"s:{{>=1/2}}({a}) -> {b}"]))
    else:
        op, at, piece = draw(LINE_EDITS)
        at %= len(formula) + 1
        formula = formula[:at] + (piece if op != 1 else "") + formula[at + (len(piece) if op else 0):]
    lines[k] = f"STEP {number} {formula} BY {by}"
    return "\n".join(lines) + "\n"


FILE_TEXTS = [proofs.format_derivation(random_derivation(random.Random(seed), RPLJ, proofs.TotalCS()))
              for seed in (1, 2, 3, 4)]


def _derivation_outcome(text, config):
    try:
        d = proofs.parse_derivation(text, config)
    except (parser.ParseError, proofs.ProofError) as exc:
        return type(exc).__name__, str(exc)
    return d.hypotheses + tuple(step.formula for step in d.steps)


@settings(max_examples=60, deadline=None)
@given(edited_files(), st.sampled_from([BL, RPLJ]))
def test_edited_files_read_as_with_a_fresh_parse_per_line(text, config):
    got = _derivation_outcome(text, config)
    with mock.patch.object(proofs, "formula_reader",
                           lambda config=None: lambda t: parser.parse_formula(t, config)):
        want = _derivation_outcome(text, config)
    if isinstance(got[0], str):
        assert got == want
    else:
        assert len(got) == len(want) and all(a is b for a, b in zip(got, want))
