import json
from fractions import Fraction

import pytest

from fjl.cli import main
from fjl.models import FittingModel, save_model
from fjl.parser import parse_formula
from fjl.syntax import Prop, Var, expand_sugar, print_formula
from fjl.tnorms import TNormKind


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


def test_degree_command_json(capsys, tmp_path):
    assert main(["--json", "degree", "--hyp", "#1/2 -> p", "--formula", "p",
                 "--trials", "10", "--witness-dir", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["lower"] == "1/2" and payload["upper"] == "1/2"
    assert main(["check-proof", "--cs", "total",
                 payload["lower_witness_file"]]) == 0
    capsys.readouterr()


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


def test_usage_error_exit_code():
    assert main(["no-such-command"]) == 2
    assert main(["suite", "warp-drive"]) == 2


def test_seed_env_override(monkeypatch, capsys):
    monkeypatch.setenv("FJL_SEED", "123")
    assert main(["suite", "conservativity", "--seeds", "5"]) == 0
    capsys.readouterr()


def test_parse_deep_input_is_an_error_not_a_traceback(capsys):
    assert main(["parse", "~" * 3000 + "p"]) == 2
    assert "nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [[], ["--expand"]], ids=["plain", "expand"])
@pytest.mark.parametrize("text", [
    "~" * 600 + "p",
    "~" * 1000 + "p",
    "p & " * 5000 + "p",
    ".".join(["x"] * 5000) + ":p",
], ids=["negations-600", "negations-1000", "conjunctions-5000", "applications-5000"])
def test_parse_deep_input_succeeds(capsys, flags, text):
    assert main(["parse", *flags, text]) == 0
    expected = print_formula(expand_sugar(parse_formula(text))) if flags else text
    assert capsys.readouterr().out.strip() == expected
