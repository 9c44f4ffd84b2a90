"""Input language: parsing, normalization, printing, error reporting."""

from fractions import Fraction

import pytest

from superjet import catalog
from superjet.algebra import D1, JetVar, SuperPoly, Theta
from superjet.grammar import (
    SyntaxErrorWithPos,
    UndeclaredSymbolError,
    parse_document,
    parse_expression,
    print_flow,
    print_poly,
)
from superjet.jets import super_derive


Q = Fraction

DOC = """
field b even susy 1 weight 1;
field f odd susy 1 weight 3/2;
param alpha weight 0;
time weight -3;
b_t = b^2 + D(f);
"""


@pytest.fixture(scope="module")
def doc():
    return parse_document(DOC, name="grammar-test")


def test_equation_parses_to_expected_normal_form(doc):
    sys = doc.system()
    (b,) = sys.fields
    rhs = sys.rhs[b]
    jb = SuperPoly.from_gen(JetVar(b))
    df = SuperPoly.from_gen(JetVar(doc.fields["f"], d1=1))
    assert rhs == jb * jb + df


def test_nested_derivatives_normalize(doc):
    assert print_poly(doc.poly("D(D(b))")) == "b_x"
    assert doc.poly("D(D(b))") == doc.poly("b_x")
    assert doc.poly("D(b_x)") == doc.poly("Db_x")
    assert doc.poly("Db_x") == super_derive(super_derive(doc.poly("b"), D1), "Dx")


def test_odd_square_normalizes_to_zero(doc):
    assert doc.poly("f*f").is_zero
    assert print_poly(doc.poly("f*f")) == "0"


def test_arithmetic_and_fractions(doc):
    assert doc.poly("1/2*b + 1/2*b") == doc.poly("b")
    assert doc.poly("2*b - b - b").is_zero
    assert doc.poly("-(b - b)").is_zero
    assert doc.poly("alpha^2*alpha") == SuperPoly.param("alpha", 3)


def test_syntax_error_carries_position():
    with pytest.raises(SyntaxErrorWithPos) as ei:
        parse_document("field b even susy 1 weight 1;\nb_t = b +* b;\n")
    assert ei.value.line == 2
    assert ei.value.col >= 9


def test_undeclared_symbol_is_reported():
    with pytest.raises(UndeclaredSymbolError):
        parse_document("field b even susy 1 weight 1;\nb_t = b*c;\n")


def test_round_trip_over_catalog_expressions():
    """print -> parse must be the identity on every catalog expression."""
    checked = 0
    for entry_id in catalog.ids():
        e = catalog.get(entry_id)
        for doc in e.docs.values():
            polys = list(doc.equations.values()) + list(doc.functionals.values())
            for w in doc.nonlocals.values():
                polys.extend(w.defs.values())
            for flow in doc.flows.values():
                polys.extend(flow.components.values())
            for p in polys:
                text = print_poly(p)
                assert parse_expression(text, doc.scope) == p, (entry_id, text)
                checked += 1
    assert checked > 80


def test_print_flow_lists_components():
    doc = catalog.get("burgers-repr").doc
    flow = doc.flows["eq3_4_x"]
    text = print_flow(flow)
    assert "f = " in text and "b = " in text


def test_negative_powers_are_for_parameters_only(doc):
    assert doc.poly("alpha^-1*b") == SuperPoly.param("alpha", -1) * doc.poly("b")
    assert doc.poly("(alpha^2)^-1") == SuperPoly.param("alpha", -2)
    for text in ("b^-1", "(alpha + b)^-1", "(2*alpha)^-1"):
        with pytest.raises(SyntaxErrorWithPos, match="negative power"):
            doc.poly(text)


def test_theta_names_parse_and_print(doc):
    assert doc.poly("theta") == doc.poly("theta1") == SuperPoly.from_gen(Theta(1))
    assert doc.poly("theta2") == SuperPoly.from_gen(Theta(2))
    p = doc.poly("theta2*b + theta*f")
    assert print_poly(p) == "theta1*f + b*theta2"
    assert doc.poly(print_poly(p)) == p


def test_function_factors_print_and_parse_back():
    d = parse_document("field b even susy 1 weight 0;\nfn Q of b;\n")
    p = d.poly("Q'(b)*b_x + 2*Q(b)")
    assert print_poly(p) == "2*Q(b) + b_x*Q'(b)"
    assert d.poly(print_poly(p)) == p
