import pytest

from charp_autos.errors import ParseError
from charp_autos.poly import VarTable
from charp_autos.gallery import StarReport
from charp_autos.textio import (map_to_str, parse_action, parse_coeff,
                                parse_map, parse_poly, poly_to_str)


def test_parse_print_idempotent():
    t = VarTable(3, ("x1", "x2"))
    samples = [
        "x1^2*x2 + (1/u)*T^3 + 2",
        "((u+1)/u^2)*x1 + (u^2+u)",
        "0",
        "x1 + 2*x2 + 1",
    ]
    for text in samples:
        once = poly_to_str(parse_poly(t, text))
        assert poly_to_str(parse_poly(t, once)) == once


def test_parse_char_folding():
    t3 = VarTable(3, ("x1",))
    assert poly_to_str(parse_poly(t3, "x1 + x1")) == "2*x1"
    t2 = VarTable(2, ("x1",))
    assert poly_to_str(parse_poly(t2, "x1 + x1")) == "0"
    assert poly_to_str(parse_poly(t2, "x1 - 1")) == "x1 + 1"


@pytest.mark.parametrize("text,printed", [
    ("-x1 + 2", "2*x1 + 2"),
    ("+x1", "x1"),
    ("-(x1+1)^2", "2*x1^2 + x1 + 2"),
])
def test_parse_leading_sign(text, printed):
    assert poly_to_str(parse_poly(VarTable(3, ("x1", "x2")), text)) == printed


def test_coeff_text_forms():
    assert str(parse_coeff(2, "u^2+u")) == "u^2+u"
    assert str(parse_coeff(2, "1/u")) == "1/u"
    assert str(parse_coeff(2, "(u+1)/u^2")) == "(u+1)/u^2"
    assert str(parse_coeff(5, "7")) == "2"
    # unnormalized input is reduced
    assert str(parse_coeff(2, "(u^2+u)/u")) == "u+1"


def test_parse_errors():
    t = VarTable(2, ("x1", "x2"))
    with pytest.raises(ParseError):
        parse_poly(t, "x1^^2")
    with pytest.raises(ParseError):
        parse_poly(t, "x1 +")
    with pytest.raises(ParseError):
        parse_poly(t, "w^2")
    with pytest.raises(ParseError):
        parse_poly(t, "x1/(x1+1)")
    err = None
    try:
        parse_poly(t, "x1 + $")
    except ParseError as exc:
        err = exc
    assert err is not None and err.position == 5
    with pytest.raises(ParseError) as err:
        parse_poly(t, "(x1 x2)")
    assert str(err.value) == "expected ')', got 'x2' (at position 4)"


def test_map_round_trip():
    t = VarTable(3, ("x1", "x2"))
    pm = parse_map(t, "(x2, x1)")
    assert map_to_str(pm) == "(x2, x1)"
    pm2 = parse_map(t, "(x1 + 1, x2 + x1^3)")
    assert parse_map(t, map_to_str(pm2)) == pm2
    with pytest.raises(ParseError):
        parse_map(t, "(x1, x2")
    with pytest.raises(ParseError):
        parse_map(t, "(x1)")


def test_action_text():
    t = VarTable(2, ("x1", "x2"))
    action = parse_action(t, "(x1 + u*T, x2)")
    assert map_to_str(action) == "(x1 + (u)*T, x2)"
    assert parse_action(t, map_to_str(action)) == action


def test_word_serialization():
    from charp_autos.plane import CentralizerWord, parse_word, recompose
    t = VarTable(3, ("x1", "x2"))
    word = CentralizerWord(t, 1, [("E1", t.parse("x1^3")),
                                  ("E2", t.parse("x1^2"))])
    assert word.to_text() == "[E1: x2^3][E2: x1^2][H0: a=1,u1=0,u2=0]"
    back = parse_word(t, word.to_text(), t=1)
    assert back.to_text() == word.to_text()
    assert recompose(back) == recompose(word)


def test_omitted_h0_fields_take_the_identity_values():
    from charp_autos.plane import parse_word
    t = VarTable(3, ("x1", "x2"))
    assert parse_word(t, "[H0]").to_text() == "[H0: a=1,u1=0,u2=0]"
    assert parse_word(t, "[H0: u2=2]").to_text() == "[H0: a=1,u1=0,u2=2]"


def test_tame_word_round_trip():
    from charp_autos.plane import jvdk_factor, parse_word, recompose
    t = VarTable(2, ("x1", "x2"))
    phi = parse_map(t, "(x1 + x2^2 + 1, x1 + x2^2 + x2)")
    word = jvdk_factor(phi)
    back = parse_word(t, word.to_text())
    assert recompose(back) == phi
    assert back.to_text() == word.to_text()


def test_report_format():
    rep = StarReport()
    rep.add("A1", True)
    rep.add("A2", False)
    assert rep.to_text() == '{"A1": true, "A2": false}'
    assert StarReport().to_text(verdict="NotExponentialOverR") \
        == '{"verdict": "NotExponentialOverR"}'
