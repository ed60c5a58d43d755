import pytest

from fjl.logics import LogicConfig
from fjl.parser import (
    ConstantNotAllowedError, ConstantRangeError, LexicalError, ParseError,
    parse_formula, parse_term,
)
from fjl.syntax import (
    App, BiImpl, Const, Equiv, Implies, Justified, Neg, Prop, StrongConj,
    Sum, Var, WeakDisj, print_formula,
)

BL = LogicConfig.from_name("BL")
RPL = LogicConfig.from_name("RPL")


def test_implication_is_right_associative():
    assert parse_formula("p -> q -> r") == \
        Implies(Prop("p"), Implies(Prop("q"), Prop("r")))


def test_strong_conjunction_is_left_associative():
    assert parse_formula("p & q & r") == \
        StrongConj(StrongConj(Prop("p"), Prop("q")), Prop("r"))


def test_connective_precedence_tower():
    f = parse_formula("~p & q \\/ r -> p == q")
    assert isinstance(f, Equiv)
    assert isinstance(f.left, Implies)
    assert isinstance(f.left.left, WeakDisj)
    assert isinstance(f.left.left.left, StrongConj)
    assert isinstance(f.left.left.left.left, Neg)


def test_justification_binds_body_tighter_than_conjunction():
    f = parse_formula("t:p & q")
    assert f == StrongConj(Justified(Var("t"), Prop("p")), Prop("q"))


def test_justification_body_chains():
    f = parse_formula("t:s:p")
    assert f == Justified(Var("t"), Justified(Var("s"), Prop("p")))
    g = parse_formula("t:~p")
    assert g == Justified(Var("t"), Neg(Prop("p")))


def test_biimplication_token():
    assert isinstance(parse_formula("p <-> q"), BiImpl)


def test_equivalences_do_not_chain():
    with pytest.raises(ParseError):
        parse_formula("p == q == r")


def test_term_lexical_classes():
    u = parse_term("c1.x1+s")
    assert u == Sum(App(Const("c1"), Var("x1")), Var("s"))


def test_term_parentheses():
    assert parse_term("c1.(x1+s)") == App(Const("c1"), Sum(Var("x1"), Var("s")))


def test_lexical_error_carries_position():
    with pytest.raises(LexicalError) as err:
        parse_formula("p $ q")
    assert err.value.position == 2


def test_syntax_error_on_trailing_input():
    with pytest.raises(ParseError):
        parse_formula("p q")


def test_unbalanced_parenthesis():
    with pytest.raises(ParseError):
        parse_formula("(p -> q")


def test_constant_out_of_range():
    with pytest.raises(ConstantRangeError):
        parse_formula("#5/4 -> p")


@pytest.mark.parametrize("text, position", [
    ("#" + "1" * 5000, 1),
    ("#1/" + "1" * 5000, 3),
    ("t:{>=1/" + "2" * 5000 + "}p", 7),
], ids=["numerator", "denominator", "grade"])
def test_overlong_integer_literal_is_parse_error(text, position):
    with pytest.raises(ParseError) as err:
        parse_formula(text)
    assert err.value.message == "integer literal too long"
    assert err.value.position == position


def test_graded_constants_rejected_outside_pavelka_base():
    with pytest.raises(ConstantNotAllowedError):
        parse_formula("#1/2 -> p", BL)
    with pytest.raises(ConstantNotAllowedError):
        parse_formula("t:{>=1/2}p", BL)


def test_boolean_constants_allowed_everywhere():
    from fjl.syntax import TruthConst
    assert parse_formula("#0 -> p", BL) == Implies(TruthConst(0), Prop("p"))
    parse_formula("#1 -> p", BL)
    parse_formula("t:{>=1}p", BL)


def test_rational_constants_allowed_under_pavelka():
    parse_formula("#1/2 -> p", RPL)


def test_zero_denominator_rejected():
    with pytest.raises(ParseError):
        parse_formula("#1/0 -> p")


def test_printer_output_reparses_with_config():
    f = parse_formula("x1+x2:{<=3/4}(p -> ~q)", RPL)
    assert parse_formula(print_formula(f), RPL) == f


def test_non_decimal_digit_is_lexical_error():
    # '²' is a digit to str.isdigit but not to int()
    with pytest.raises(LexicalError) as err:
        parse_formula("#²")
    assert err.value.position == 1
    with pytest.raises(LexicalError) as err:
        parse_formula("#1² -> p")
    assert err.value.position == 2
    assert parse_formula("p² -> p") == Implies(Prop("p²"), Prop("p"))


@pytest.mark.parametrize("parse, text, position", [
    (parse_formula, "(" * 150 + "p" + ")" * 150, 142),
    (parse_formula, "~" * 3000 + "p", 1000),
    (parse_formula, "p -> " * 3000 + "p", 5002),
    (parse_formula, "t:" * 400 + "p", 667),
    (parse_term, "(" * 400 + "t" + ")" * 400, 333),
], ids=["parentheses", "negations", "implications", "justifications", "term-parentheses"])
def test_deep_nesting_is_parse_error(parse, text, position):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert err.value.message == "nested too deeply"
    assert err.value.position == position


def test_nesting_accepted_below_the_bound():
    assert parse_formula("(" * 140 + "p" + ")" * 140) == Prop("p")
    f = parse_formula("~" * 990 + "p")
    for _ in range(990):
        f = f.body
    assert f == Prop("p")
    assert parse_term("(" * 300 + "t" + ")" * 300) == Var("t")


def test_equal_subformulas_are_one_object():
    f = parse_formula("(s.t:p -> q) & (s.t:p -> q)")
    assert f.left is f.right
    g = parse_formula("s.t:p")
    assert parse_formula("r -> s.t:p").right is g
    assert parse_formula("(s.t:p)") is g
