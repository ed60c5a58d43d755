import contextlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from fjl.cli import main
from fjl.generate import random_derivation, random_formula, random_model, random_scheme_instance
from fjl.logics import LogicConfig, active_schemes
from fjl.models import FittingModel, model_to_dict, save_model
from fjl.parser import parse_formula
from fjl.proofs import TotalCS, cs_entry, format_derivation
from fjl.syntax import (
    Const, GradedAtLeast, GradedAtMost, Prop, Var, WeakConj, expand_sugar, print_formula,
)
from fjl.tnorms import TNormKind
from conftest import formulas
from test_parser_oracle import ALPHABET


@pytest.fixture
def model_file(tmp_path):
    m = FittingModel(
        worlds=("w0",), access=frozenset({("w0", "w0")}),
        tnorm=TNormKind.LUKASIEWICZ,
        valuation={("w0", "p"): Fraction(7, 10)},
        evidence={("w0", Var("t"), Prop("p")): Fraction(9, 10)})
    path = tmp_path / "m.json"
    save_model(m, str(path))
    return str(path)


def test_parse_command(capsys):
    assert main(["parse", "t:{>=2/3}p"]) == 0
    assert capsys.readouterr().out.strip() == "t:{>=2/3}p"
    assert main(["parse", "--expand", "~p"]) == 0
    assert capsys.readouterr().out.strip() == "p -> #0"


def test_parse_error_exit_code(capsys):
    assert main(["parse", "p ->"]) == 2
    assert "error" in capsys.readouterr().err


def test_eval_command(capsys, model_file):
    assert main(["eval", "--model", model_file, "--world", "w0",
                 "--formula", "t:p"]) == 0
    assert capsys.readouterr().out.strip() == "3/5"


def test_eval_all_worlds_json(capsys, model_file):
    assert main(["--json", "eval", "--model", model_file, "--formula", "p"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["values"] == {"w0": "7/10"}


def test_validate_model_command(capsys, model_file, tmp_path):
    assert main(["validate-model", "--model", model_file]) == 0
    bad = {
        "worlds": ["w"], "access": [], "tnorm": "L",
        "val": {},
        "evid": {"w": [
            {"term": "s", "formula": "p -> q", "value": "1"},
            {"term": "t", "formula": "p", "value": "1"},
            {"term": "s.t", "formula": "q", "value": "1/2"},
        ]},
        "default_evid": "1",
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert main(["validate-model", "--model", str(path)]) == 1
    out = capsys.readouterr().out
    assert "FE1" in out



def test_eval_deep_formula(capsys, model_file):
    assert main(["eval", "--model", model_file, "--formula", "~" * 1000 + "p"]) == 0
    assert capsys.readouterr().out.strip() == "w0: 7/10"


def test_eval_on_a_saved_model_with_deep_evidence_and_query(capsys, tmp_path):
    # The evidence formula is saved sugar-expanded: 20,000 nested parentheses.
    deep = parse_formula("~" * 20_000 + "p")
    m = FittingModel(
        worlds=("w0",), access=frozenset(), tnorm=TNormKind.LUKASIEWICZ,
        valuation={("w0", "p"): Fraction(7, 10)},
        evidence={("w0", Var("t"), deep): Fraction(1, 2)})
    path = tmp_path / "deep.json"
    save_model(m, str(path))
    assert main(["eval", "--model", str(path), "--formula", "t:" + "~" * 20_000 + "p"]) == 0
    assert capsys.readouterr().out.strip() == "w0: 1/2"


def test_degree_witness_reads_back(capsys, tmp_path):
    assert main(["degree", "--formula", "~" * 150 + "p", "--witness-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["check-proof", str(tmp_path / "lower_witness.proof")]) == 0
    assert capsys.readouterr().out.startswith("accepted")


def test_validate_model_deep_evidence_formula(capsys, tmp_path):
    data = {"worlds": ["w0"], "tnorm": "L",
            "evid": {"w0": [{"term": "t", "formula": "~" * 900 + "p", "value": "1/2"}]}}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(data))
    assert main(["validate-model", "--model", str(path)]) == 0
    assert capsys.readouterr().out.startswith("valid")


def test_searches_follow_frame_flags(capsys):
    assert main(["countermodel", "--jt", "--formula", "t:p -> p"]) == 1
    assert "no countermodel found" in capsys.readouterr().out
    assert main(["degree", "--jd", "--formula", "p"]) == 0
    assert capsys.readouterr().out.strip() == "[0, 0]"


@pytest.mark.parametrize("data, field", [
    ([1, 2], "JSON object"),
    ({"worlds": "w0", "tnorm": "L"}, "'worlds'"),
    ({"worlds": ["w0"], "tnorm": "L", "evid": []}, "'evid'"),
])
def test_model_file_of_wrong_shape_is_an_error(capsys, tmp_path, data, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    assert main(["eval", "--model", str(path), "--formula", "p"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err

def test_check_proof_command(capsys, tmp_path):
    proof = tmp_path / "proof.txt"
    proof.write_text(
        "HYP p & q\n"
        "STEP 1 p & q BY HYP 1\n"
        "STEP 2 (p & q) -> p BY AX BL2\n"
        "STEP 3 p BY MP 1 2\n")
    assert main(["check-proof", "--logic", "RPLJ", "--cs", "total", str(proof)]) == 0
    assert "accepted" in capsys.readouterr().out
    broken = tmp_path / "broken.txt"
    broken.write_text("STEP 1 p BY AX BL2\n")
    assert main(["check-proof", str(broken)]) == 1


@pytest.mark.parametrize("by", ["AX BL2 BL3 junk", "MP 1 1 7", "IAN x"])
def test_check_proof_rejects_trailing_words_after_a_rule(capsys, tmp_path, by):
    proof = tmp_path / "proof.txt"
    proof.write_text(f"HYP p & q\nSTEP 1 p & q BY HYP 1\nSTEP 2 (p & q) -> p BY {by}\n")
    assert main(["check-proof", "--cs", "total", str(proof)]) == 2
    assert "line 3: malformed rule" in capsys.readouterr().err


def test_check_cs_command(capsys, tmp_path):
    good = tmp_path / "cs.txt"
    good.write_text("c1:((p & q) -> p)\n")
    assert main(["check-cs", "--logic", "BLJ", str(good)]) == 0
    bad = tmp_path / "bad_cs.txt"
    bad.write_text("c2:c1:((p & q) -> p)\n")
    assert main(["check-cs", "--logic", "BLJ", str(bad)]) == 1
    # "#" and a digit start a truth constant, so this line is an entry, not a comment
    constant = tmp_path / "constant_cs.txt"
    constant.write_text("c1:{==1}(#0 -> p)\n#1/2 -> c1:p\n")
    assert main(["check-cs", "--logic", "RPLJ", str(constant)]) == 1
    assert "#1/2 -> c1:p" in capsys.readouterr().out


def test_an_ill_formed_cs_file_is_an_input_error(capsys, tmp_path):
    # the kernel trusts a --cs file's entries, so one that fails check-cs
    # ends the command with exit 2; check-cs itself lists every problem
    cs = tmp_path / "cs.txt"
    cs.write_text("p\nc2:c1:((p & q) -> p)\n")
    first = "p: not a constant-justification chain"
    for logic, rule in (("BLJ", "IAN"), ("RPLJ", "GIAN")):
        proof = tmp_path / f"{rule}.txt"
        proof.write_text(f"STEP 1 p BY {rule}\n")
        assert main(["check-proof", "--logic", logic, "--cs", str(cs), str(proof)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {cs}: ill-formed constant specification: {first}\n"
    assert main(["degree", "--cs", str(cs), "--formula", "p"]) == 2
    assert first in capsys.readouterr().err
    assert main(["--json", "check-proof", "--logic", "BLJ", "--cs", str(cs),
                 str(tmp_path / "IAN.txt")]) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False and first in payload["error"]
    assert main(["check-cs", "--logic", "BLJ", str(cs)]) == 1
    out = capsys.readouterr().out
    assert first in out and "missing (downward closure)" in out
    assert main(["--json", "check-cs", "--logic", "BLJ", str(cs)]) == 1
    assert len(json.loads(capsys.readouterr().out)["problems"]) == 2


def test_a_well_formed_cs_file_feeds_the_kernel(capsys, tmp_path):
    cs = tmp_path / "cs.txt"
    cs.write_text("c1:((p & q) -> p)\nc2:c1:((p & q) -> p)\n")
    proof = tmp_path / "proof.txt"
    proof.write_text("STEP 1 c2:c1:((p & q) -> p) BY IAN\n")
    assert main(["check-cs", "--logic", "BLJ", str(cs)]) == 0
    assert main(["check-proof", "--logic", "BLJ", "--cs", str(cs), str(proof)]) == 0
    proof.write_text("STEP 1 c3:((p & q) -> p) BY IAN\n")
    assert main(["check-proof", "--logic", "BLJ", "--cs", str(cs), str(proof)]) == 1


def test_internalize_command(capsys, tmp_path):
    proof = tmp_path / "proof.txt"
    proof.write_text("STEP 1 (p & q) -> p BY AX BL2\n")
    out = tmp_path / "lifted.txt"
    assert main(["internalize", "--cs", "total", str(proof), "--out", str(out)]) == 0
    text = out.read_text()
    assert "GIAN" in text
    assert main(["check-proof", "--cs", "total", str(out)]) == 0


def test_internalize_exit_codes(capsys, tmp_path):
    # A rejected derivation is rejected input (1); a logic without graded
    # necessitation or a finite specification is a usage error (2).
    bad = tmp_path / "bad.txt"
    bad.write_text("STEP 1 p BY AX BL2\n")
    assert main(["internalize", "--cs", "total", str(bad)]) == 1
    assert "rejected" in capsys.readouterr().err
    good = tmp_path / "good.txt"
    good.write_text("STEP 1 (p & q) -> p BY AX BL2\n")
    assert main(["internalize", "--logic", "BLJ", "--cs", "total", str(good)]) == 2
    assert "graded necessitation" in capsys.readouterr().err
    cs = tmp_path / "cs.txt"
    cs.write_text("c1:{==1}((p & q) -> p)\n")
    assert main(["internalize", "--cs", str(cs), str(good)]) == 2
    assert "schematic-total" in capsys.readouterr().err


def test_running_out_of_memory_exits_1_with_an_error(capsys, tmp_path, monkeypatch):
    def exhausted(*args):
        raise MemoryError

    monkeypatch.setattr("fjl.cli.lift", exhausted)
    proof = tmp_path / "proof.txt"
    proof.write_text("STEP 1 (p & q) -> p BY AX BL2\n")
    assert main(["internalize", "--cs", "total", str(proof)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: out of memory") and not captured.out
    assert main(["--json", "internalize", "--cs", "total", str(proof)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False and payload["error"].startswith("out of memory")


def test_degree_command_json(capsys, tmp_path):
    assert main(["--json", "degree", "--hyp", "#1/2 -> p", "--formula", "p",
                 "--trials", "10", "--witness-dir", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower"] == "1/2" and payload["upper"] == "1/2"
    assert main(["check-proof", "--cs", "total",
                 payload["lower_witness_file"]]) == 0
    capsys.readouterr()


_COUNTERMODEL = ["countermodel", "--formula", "p"]
_DEGREE = ["degree", "--formula", "q", "--hyp", "p"]


@pytest.mark.parametrize("command, flag, value, least", [
    (command, flag, value, least)
    for command in (_COUNTERMODEL, _DEGREE)
    for flag, value, least in (("--den", "0", 1), ("--den", "-3", 1), ("--worlds", "0", 1),
                               ("--trials", "-1", 0), ("--depth", "-1", 0))
    if flag != "--depth" or command is _DEGREE
])
def test_budget_flags_below_their_least_value_are_usage_errors(
        capsys, command, flag, value, least):
    message = f"argument {flag}: must be at least {least}, got {value}"
    assert main(["--json", *command, flag, value]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out) == {"ok": False, "error": message} and err == ""
    assert main([*command, flag, value]) == 2
    assert message in capsys.readouterr().err


def test_budget_flags_at_their_least_value_run(capsys):
    assert main(["--json", *_COUNTERMODEL, "--den", "1", "--worlds", "1",
                 "--trials", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["found"] is True
    assert main(["--json", *_DEGREE, "--den", "1", "--worlds", "1",
                 "--trials", "0", "--depth", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower"] == "0" and payload["upper"] == "0"


def test_countermodel_command(capsys, tmp_path):
    out = tmp_path / "counter.json"
    assert main(["countermodel", "--formula", "t:p -> p", "--trials", "300",
                 "--seed", "0", "--out", str(out)]) == 0
    assert out.exists()
    assert main(["countermodel", "--formula", "(p & q) -> p",
                 "--trials", "40"]) == 1


def test_suite_command(capsys):
    assert main(["suite", "adjunction"]) == 0
    assert "pass" in capsys.readouterr().out
    assert main(["--json", "suite", "conservativity", "--seeds", "10"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["ok"]


@pytest.mark.parametrize("name", ["conservativity", "adjunction"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_suite_seeds_below_one_are_usage_errors(capsys, name, value):
    message = f"argument --seeds: must be at least 1, got {value}"
    assert main(["--json", "suite", name, "--seeds", value]) == 2
    out, err = capsys.readouterr()
    assert json.loads(out) == {"ok": False, "error": message} and err == ""
    assert main(["suite", name, "--seeds", value]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["--json", "degree", "--formula", "q", "--hyp", "p"],
    ["parse", "p"],
], ids=["degree", "parse"])
def test_a_closed_stdout_exits_1_without_a_traceback(argv):
    read, write = os.pipe()
    os.close(read)     # every write to the pipe fails with EPIPE
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    try:
        run = subprocess.run([sys.executable, "-m", "fjl.cli", *argv], stdout=write,
                             stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write)
    assert run.returncode == 1
    assert run.stderr == ""


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2
    assert main(["suite", "warp-drive"]) == 2


def test_seed_env_override(monkeypatch, capsys):
    monkeypatch.setenv("FJL_SEED", "123")
    assert main(["suite", "conservativity", "--seeds", "5"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("flags", [[], ["--expand"]], ids=["plain", "expand"])
@pytest.mark.parametrize("text", [
    "~" * 600 + "p",
    "~" * 1000 + "p",
    "~" * 20_000 + "p",
    "t:" * 20_000 + "p",
    "p & " * 5000 + "p",
    ".".join(["x"] * 5000) + ":p",
], ids=["negations-600", "negations-1000", "negations-20000", "justifications-20000",
        "conjunctions-5000", "applications-5000"])
def test_parse_deep_input_succeeds(capsys, flags, text):
    assert main(["parse", *flags, text]) == 0
    expected = print_formula(expand_sugar(parse_formula(text))) if flags else text
    assert capsys.readouterr().out.strip() == expected


def test_check_proof_formula_error_names_the_line(capsys, tmp_path):
    proof = tmp_path / "proof.txt"
    proof.write_text("STEP 1 (p & q) -> p BY AX BL2\nSTEP 2 (p -> BY AX BL2\n")
    assert main(["check-proof", "--cs", "total", str(proof)]) == 2
    assert capsys.readouterr().err.strip() == (
        "error: line 2: expected a formula, found 'end of input' (at position 5)")


def test_model_file_formula_error_names_the_entry(capsys, tmp_path):
    data = {"worlds": ["w0"], "tnorm": "L",
            "evid": {"w0": [{"term": "t", "formula": "p", "value": "1"},
                            {"term": "t", "formula": "p &", "value": "1"}]}}
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    assert main(["eval", "--model", str(path), "--formula", "p"]) == 2
    assert capsys.readouterr().err.strip() == (
        "error: evidence entry 1 of world 'w0': expected a formula, "
        "found 'end of input' (at position 3)")


@pytest.mark.parametrize("argv, message", [
    (["parse", "p ->"], "expected a formula, found 'end of input' (at position 4)"),
    (["check-proof", "no-such-file.txt"], "No such file or directory"),
], ids=["parse-error", "missing-file"])
def test_json_errors(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    assert main(["--json", *argv]) == 2
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert set(payload) == {"ok", "error"} and payload["ok"] is False
    assert message in payload["error"]
    assert err == ""
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_json_error_of_a_rejected_internalize_input(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("STEP 1 p BY AX BL2\n")
    assert main(["--json", "internalize", "--cs", "total", str(bad)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False and "rejected" in payload["error"]


@pytest.mark.parametrize("argv", [
    ["parse", "--json", "t:{>=2/3}p"],
    ["parse", "t:{>=2/3}p", "--json"],
], ids=["flag-before-formula", "flag-last"])
def test_json_flag_after_the_subcommand(capsys, argv):
    assert main(["--json", "parse", "t:{>=2/3}p"]) == 0
    before = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == before
    assert json.loads(before)["formula"] == "t:{>=2/3}p"


@pytest.mark.parametrize("argv, message", [
    (["--json", "no-such-command"], "invalid choice: 'no-such-command'"),
    (["--json", "suite", "warp-drive"], "invalid choice: 'warp-drive'"),
    (["--json", "parse"], "the following arguments are required: formula"),
    (["parse", "--json"], "the following arguments are required: formula"),
    (["parse", "p", "--json", "--bogus"], "unrecognized arguments: --bogus"),
], ids=["command", "suite-name", "missing-formula", "missing-formula-flag-after",
        "unknown-flag"])
def test_json_usage_errors(capsys, argv, message):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    payload = json.loads(out)
    assert set(payload) == {"ok", "error"} and payload["ok"] is False
    assert message in payload["error"]
    assert err == ""
    plain = [a for a in argv if a != "--json"]
    assert main(plain) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: fjl") and message in err


# ---------------------------------------------------------------------------
# The command-line contract: on any input a command exits 0, 1 or 2, no
# exception escapes, and under --json stdout is one JSON document.

RPLJ = LogicConfig.from_name("RPLJ")
BLJ = LogicConfig.from_name("BLJ")

#: Token strings and printed formulas, alone or nested ``n`` deep in a prefix.
SHORT_TEXTS = st.lists(st.sampled_from(ALPHABET), max_size=16).map(" ".join) \
    | formulas.map(print_formula)
TEXTS = SHORT_TEXTS | st.builds(
    lambda prefix, n, core, close: prefix * n + core + close * n,
    st.sampled_from(["~", "(", "t:", "p -> ", "(c):", "x."]),
    st.integers(0, 3000), SHORT_TEXTS, st.sampled_from(["", ")"]))


def _model_text(seed, formula):
    data = model_to_dict(random_model(seed, config=RPLJ))
    if formula is not None:
        data["evid"].setdefault(data["worlds"][0], []).append(
            {"term": "t", "formula": formula, "value": "1/2"})
    return json.dumps(data, indent=1)


def _layer(spell, constant, body, graded):
    """``cs_entry``'s layer of ``constant:body``; given a ``spell`` random
    source, a graded layer is written at random as c:{==1}B, as
    c:{>=1}B /\\ c:{<=1}B or in primitive form, which expand alike."""
    entry = cs_entry(constant, body, graded)
    if spell is None or not graded:
        return entry
    c = Const(constant)
    return spell.choice([entry, WeakConj(GradedAtLeast(1, c, body), GradedAtMost(1, c, body)),
                         expand_sugar(entry)])


def _cs_text(seed, config, respell=False):
    """A constant specification for ``config``: chains c1:...:A over axiom
    instances or arbitrary formulas, some without their downward closure,
    so both well-formed and ill-formed files come out.  ``respell`` writes
    the same entries with their graded layers spelled at random."""
    rng = random.Random(seed)
    spell = random.Random(-1 - seed) if respell else None
    lines = []
    for _ in range(rng.randint(1, 3)):
        if rng.random() < 0.7:
            scheme = rng.choice(active_schemes(config))
            entry = random_scheme_instance(rng, scheme, config, rng.randint(0, 1))
        else:
            entry = random_formula(rng, config, 2)
        chain = [entry]
        for k in range(rng.randint(0, 2)):
            chain.append(_layer(spell, f"c{k + 1}", chain[-1], config.graded_necessitation))
        # every layer, or only the outermost: a bare body or a missing tail
        lines += [print_formula(e) for e in (chain[1:] if rng.random() < 0.7 else chain[-1:])]
    return "\n".join(lines)


#: CS texts for the graded system and for a plain one.
CS_TEXTS = st.builds(_cs_text, st.integers(0, 10**6), st.sampled_from([RPLJ, BLJ]),
                     st.booleans())


def _citing(cs_text, rule):
    """A derivation file citing each entry of ``cs_text`` by ``rule``; as in
    ``parse_cs``, a line starting with # and no digit is a comment, not an entry."""
    entries = [line for line in cs_text.splitlines()
               if not (line.startswith("#") and not line[1:2].isdecimal())]
    return "".join(f"STEP {i} {line} BY {rule}\n" for i, line in enumerate(entries, start=1))


GENERATED = {
    "model": st.builds(_model_text, st.integers(0, 30), st.none() | TEXTS),
    "proof": st.integers(1, 12).map(lambda seed: format_derivation(
        random_derivation(random.Random(seed), RPLJ, TotalCS()))),
    "cs": CS_TEXTS | st.lists(st.just("c1:((p & q) -> p)") | TEXTS, max_size=3).map("\n".join),
}
#: Character edits: insert (0), delete (1) or overwrite (2) a piece at a position.
GARBLE = st.lists(st.tuples(
    st.integers(0, 2), st.integers(0, 10**6),
    st.sampled_from(ALPHABET + ['"', "[", "]", ",", "\n", "STEP ", " BY ", "MP 1", "HYP"])),
    max_size=3)


def _garbled(text, edits):
    for op, k, piece in edits:
        k %= len(text) + 1
        text = text[:k] + (piece if op != 1 else "") + text[k + (len(piece) if op else 0):]
    return text


@st.composite
def _file(draw, kind):
    """The bytes of a generated file of ``kind``, maybe garbled, or junk."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.binary(max_size=40))
    return _garbled(draw(GENERATED[kind]), draw(st.just([]) | GARBLE)).encode()


@st.composite
def _command(draw):
    """An argument list and the files it names, as {name: bytes}."""
    command = draw(st.sampled_from(["parse", "eval", "validate-model", "check-proof",
                                    "check-cs"]))
    argv = [command] + draw(st.sampled_from(
        [[], ["--logic", "BLJ"], ["--logic", "GJ"], ["--logic", "J"], ["--jt"], ["--crisp"]]))
    files = {}
    if command in ("validate-model", "check-proof") and draw(st.booleans()):
        files["cs.txt"] = draw(_file("cs"))
        argv += ["--cs", "cs.txt"]
    if command == "parse":
        argv += draw(st.sampled_from([[], ["--expand"]])) + [draw(TEXTS)]
    elif command == "eval":
        files["model.json"] = draw(_file("model"))
        argv += ["--model", "model.json", "--formula", draw(TEXTS)]
        argv += draw(st.sampled_from([[], ["--world", "w0"]]))
    elif command == "validate-model":
        files["model.json"] = draw(_file("model"))
        argv += ["--model", "model.json"]
        argv += draw(st.sampled_from([[], ["--formula", draw(TEXTS)]]))
    elif command == "check-proof":
        files["proof.txt"] = draw(_file("proof"))
        if "cs.txt" in files and draw(st.booleans()):
            text = files["cs.txt"].decode("utf-8", "replace")
            files["proof.txt"] = _citing(text, draw(st.sampled_from(["IAN", "GIAN"]))).encode()
        argv += ["proof.txt"]
    else:
        files["cs.txt"] = draw(_file("cs"))
        argv += ["cs.txt"]
    return draw(st.sampled_from([argv, ["--json"] + argv])), files


@settings(max_examples=300, deadline=None)
@given(_command())
def test_commands_keep_the_exit_code_contract(command):
    argv, files = command
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as d:
        for name, data in files.items():
            with open(os.path.join(d, name), "wb") as handle:
                handle.write(data)
        argv = [os.path.join(d, a) if a in files else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if argv[0] == "--json":
        json.loads(out.getvalue())


@settings(max_examples=100, deadline=None)
@given(CS_TEXTS, st.sampled_from(["RPLJ", "BLJ"]))
def test_check_proof_exits_2_exactly_when_check_cs_fails(text, logic):
    citing = _citing(text, "GIAN" if logic == "RPLJ" else "IAN")
    with tempfile.TemporaryDirectory() as d:
        cs, proof = os.path.join(d, "cs.txt"), os.path.join(d, "proof.txt")
        with open(cs, "w", encoding="utf-8") as handle:
            handle.write(text)
        with open(proof, "w", encoding="utf-8") as handle:
            handle.write(citing)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            checked = main(["check-cs", "--logic", logic, cs])
            used = main(["check-proof", "--logic", logic, "--cs", cs, proof])
    # check-cs exits 2 when a graded text does not parse under BLJ
    assert checked in (0, 1, 2)
    # a well-formed file admits every entry; with none, the derivation is empty
    assert used == (2 if checked else 0 if citing else 1)
    if checked == 1:
        assert "ill-formed constant specification" in err.getvalue()


def _check_cs_code(text, logic):
    """The exit code of ``fjl check-cs`` on a file holding ``text``."""
    with tempfile.TemporaryDirectory() as d:
        cs = os.path.join(d, "cs.txt")
        with open(cs, "w", encoding="utf-8") as handle:
            handle.write(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return main(["check-cs", "--logic", logic, cs])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_a_cs_files_verdict_does_not_depend_on_how_its_entries_are_spelled(seed):
    assert _check_cs_code(_cs_text(seed, RPLJ, respell=True), "RPLJ") == \
        _check_cs_code(_cs_text(seed, RPLJ), "RPLJ")


@pytest.mark.parametrize("spelling", [
    "c1:{>=1}((p & q) -> p) /\\ c1:{<=1}((p & q) -> p)",
    "(#1 -> c1:((p & q) -> p)) /\\ (c1:((p & q) -> p) -> #1)",
])
def test_a_cs_entry_spelled_as_its_definition_is_the_entry(capsys, tmp_path, spelling):
    """Both spellings are the definition of c1:{==1}((p & q) -> p)."""
    cs = tmp_path / "cs.txt"
    cs.write_text(spelling + "\n")
    proof = tmp_path / "proof.txt"
    proof.write_text("STEP 1 c1:{==1}((p & q) -> p) BY GIAN\n")
    assert main(["check-cs", "--logic", "RPLJ", str(cs)]) == 0
    assert main(["check-proof", "--logic", "RPLJ", "--cs", str(cs), str(proof)]) == 0
    assert capsys.readouterr().out == "well-formed\naccepted; conclusion c1:{==1}(p & q -> p)\n"
