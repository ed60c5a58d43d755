from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from fjl.logics import (
    FMeta, SUM1, SUM2, LogicConfig, Scheme, active_schemes, axiom_instance_of,
    schemes_by_tag,
)
from fjl.parser import parse_formula
from fjl.syntax import Implies, Prop, expand_sugar
from fjl.tnorms import TNormKind

RPLJ = LogicConfig.from_name("RPLJ")
BLJ = LogicConfig.from_name("BLJ")


def test_config_names_roundtrip():
    for name in ("BL", "BLJ", "L", "LJ", "G", "GJ", "Pi", "PiJ", "RPL", "RPLJ"):
        config = LogicConfig.from_name(name)
        assert config.name == name
    assert LogicConfig.from_name("J").crisp


def test_unknown_logic_and_extras_rejected():
    with pytest.raises(ValueError):
        LogicConfig.from_name("XYZ")
    with pytest.raises(ValueError):
        LogicConfig(extras=frozenset({"jX"}))


def test_tnorm_kinds_per_base():
    assert LogicConfig.from_name("BLJ").tnorm_kinds() == \
        (TNormKind.LUKASIEWICZ, TNormKind.GOEDEL, TNormKind.PRODUCT)
    assert LogicConfig.from_name("GJ").tnorm_kinds() == (TNormKind.GOEDEL,)
    assert LogicConfig.from_name("RPLJ").tnorm_kinds() == (TNormKind.LUKASIEWICZ,)


def test_active_scheme_sets():
    names = [s.name for s in active_schemes(RPLJ)]
    assert names[:8] == [f"BL{i}" for i in (1, 2, 3, 4, "5a", "5b", 6, 7)]
    for expected in ("L", "TC1", "TC2", "Appl", "Sum1", "Sum2"):
        assert expected in names
    assert "G" not in names and "P" not in names
    bl = [s.name for s in active_schemes(LogicConfig.from_name("BL"))]
    assert "Appl" not in bl and "TC1" not in bl
    crisp = [s.name for s in active_schemes(LogicConfig.from_name("J"))]
    assert "L" in crisp and "G" in crisp and "Appl" in crisp
    jt = [s.name for s in active_schemes(LogicConfig.from_name("RPLJ", extras=("jT",)))]
    assert "jT" in jt and "jD" not in jt


def test_tag_table():
    for config in (RPLJ, BLJ, LogicConfig.from_name("BL"), LogicConfig.from_name("J"),
                   LogicConfig.from_name("RPLJ", extras=("jT", "jD"))):
        table = schemes_by_tag(config)
        assert schemes_by_tag(config) is table
        assert active_schemes(config) is active_schemes(config)
        for scheme in active_schemes(config):
            assert table[scheme.name] == (scheme,)
        extra = set(table) - {s.name for s in active_schemes(config)}
        assert extra == ({"Sum"} if config.justified else set())
    assert schemes_by_tag(BLJ)["Sum"] == (SUM1, SUM2)
    assert "Sum" not in schemes_by_tag(LogicConfig.from_name("BL"))


def test_match_bl2():
    (scheme,) = schemes_by_tag(BLJ)["BL2"]
    got = scheme.match(parse_formula("(p & q) -> p"))
    assert got == {"A": Prop("p"), "B": Prop("q")}


def test_match_bl2_shape_mismatch():
    (scheme,) = schemes_by_tag(BLJ)["BL2"]
    assert scheme.match(parse_formula("p -> p")) is None


def test_match_tc2_with_side_computation():
    (scheme,) = schemes_by_tag(RPLJ)["TC2"]
    f = expand_sugar(parse_formula("(#1/2 & #2/3) == #1/6"))
    got = scheme.match(f)
    assert got is not None
    assert got["r"] == Fraction(1, 2) and got["r'"] == Fraction(2, 3)
    # a wrong computed constant must not match
    bad = expand_sugar(parse_formula("(#1/2 & #2/3) == #1/5"))
    assert scheme.match(bad) is None


def test_match_tc1_side_computation():
    f = expand_sugar(parse_formula("(#1/2 -> #3/4) == #1"))
    name, binding = axiom_instance_of(f, RPLJ)
    assert name == "TC1"
    assert binding["v"] == Fraction(1)


def test_axiom_instances():
    assert axiom_instance_of(parse_formula("(p & q) -> (q & p)"), BLJ)[0] == "BL3"
    assert axiom_instance_of(parse_formula("s:p -> s+t:p"), BLJ)[0] == "Sum1"
    assert axiom_instance_of(parse_formula("s:p -> t+s:p"), BLJ)[0] == "Sum2"
    assert axiom_instance_of(parse_formula("p -> (q -> p)"), BLJ) is None
    jt = LogicConfig.from_name("BLJ", extras=("jT",))
    assert axiom_instance_of(parse_formula("t:p -> p"), jt)[0] == "jT"
    assert axiom_instance_of(parse_formula("t:p -> p"), BLJ) is None
    jd = LogicConfig.from_name("BLJ", extras=("jD",))
    assert axiom_instance_of(parse_formula("~t:#0"), jd)[0] == "jD"


def test_metavariable_linearity():
    # a scheme with a repeated metavariable never matches unequal parts
    k_scheme = Scheme("K", Implies(FMeta("A"), Implies(FMeta("B"), FMeta("A"))))
    assert k_scheme.match(parse_formula("p -> (q -> p)")) is not None
    assert k_scheme.match(parse_formula("p -> (q -> r)")) is None


@settings(max_examples=60)
@given(st.data())
def test_match_soundness_on_random_instances(data):
    import random
    from fjl.generate import random_scheme_instance
    rng = random.Random(data.draw(st.integers(0, 10_000)))
    schemes = active_schemes(RPLJ)
    scheme = schemes[data.draw(st.integers(0, len(schemes) - 1))]
    instance = random_scheme_instance(rng, scheme, RPLJ, depth=2)
    binding = scheme.match(instance)
    assert binding is not None
    assert scheme.instantiate(binding) == expand_sugar(instance)


def test_free_metavariables_in_first_occurrence_order():
    appl, = schemes_by_tag(BLJ)["Appl"]
    assert [m.name for m in appl.free_metavariables()] == ["s", "A", "B", "t"]
    tc1, = schemes_by_tag(RPLJ)["TC1"]
    assert [m.name for m in tc1.free_metavariables()] == ["r", "r'"]
    bl4, = schemes_by_tag(BLJ)["BL4"]
    assert [m.name for m in bl4.free_metavariables()] == ["A", "B"]
