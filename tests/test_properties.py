"""Randomized property suites for the graded calculus."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from superjet.algebra import (
    DX,
    D1,
    D2,
    EVEN,
    ODD,
    FieldSymbol,
    JetVar,
    SuperPoly,
    Theta,
    prod,
)
from superjet.jets import Flow, dt_apply, evolutionary_apply, super_derive

from conftest import cached_entry

Q = Fraction

b = FieldSymbol("b", EVEN, 1)
f = FieldSymbol("f", ODD, 1)
u2 = FieldSymbol("u", EVEN, 2)

# Clifford auxiliaries are deliberately excluded: their nonzero squares
# make the algebra a Clifford extension, not supercommutative.
GENS = (
    [Theta(1), Theta(2)]
    + [JetVar(b, d1, 0, m) for d1 in (0, 1) for m in (0, 1, 2)]
    + [JetVar(f, d1, 0, m) for d1 in (0, 1) for m in (0, 1, 2)]
    + [JetVar(u2, d1, d2, m) for d1 in (0, 1) for d2 in (0, 1) for m in (0, 1)]
)

coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=3
).filter(lambda q: q != 0)

monomials = st.tuples(
    coeffs, st.lists(st.sampled_from(GENS), min_size=0, max_size=4)
).map(lambda t: prod(t[1], t[0]))

polys = st.lists(monomials, min_size=1, max_size=3).map(
    lambda ms: sum(ms, SuperPoly.zero())
)


@settings(max_examples=200, deadline=None)
@given(monomials, monomials)
def test_graded_commutativity(a, c):
    pa, pc = a.parity(), c.parity()
    if a.is_zero or c.is_zero:
        assert (a * c).is_zero and (c * a).is_zero
        return
    sign = -1 if (pa == ODD and pc == ODD) else 1
    assert a * c == SuperPoly.scalar(sign) * (c * a)


@settings(max_examples=200, deadline=None)
@given(polys)
def test_super_derivative_squares_to_dx(p):
    assert super_derive(super_derive(p, D1), D1) == super_derive(p, DX)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((D1, D2, DX)), monomials, monomials)
def test_graded_leibniz_rule(direction, a, c):
    sign = -1 if direction != DX and a.parity() == ODD else 1
    rhs = super_derive(a, direction) * c + SuperPoly.scalar(sign) * a * super_derive(c, direction)
    assert super_derive(a * c, direction) == rhs


# an odd-parameter flow on every field of GENS
ODD_FLOW = Flow(
    {
        b: prod([JetVar(f, 0, 0, 1)]) + prod([JetVar(b), JetVar(f)]),
        f: prod([JetVar(b, 0, 0, 1)]) + prod([JetVar(b), JetVar(f, 1)]),
        u2: prod([JetVar(u2, 1)]) + prod([JetVar(b), JetVar(u2, 0, 1, 1)]),
    },
    ODD,
)


@settings(max_examples=200, deadline=None)
@given(monomials, monomials)
def test_odd_evolutionary_right_leibniz_rule(a, c):
    sign = -1 if c.parity() == ODD else 1
    rhs = a * evolutionary_apply(ODD_FLOW, c) + SuperPoly.scalar(sign) * (
        evolutionary_apply(ODD_FLOW, a) * c
    )
    assert evolutionary_apply(ODD_FLOW, a * c) == rhs


SYS = None


def _system():
    global SYS
    if SYS is None:
        SYS = cached_entry("burgers-repr").doc.system()
    return SYS


sys_gens = st.lists(
    st.sampled_from(
        [
            JetVar(u, d1, 0, m)
            for u in cached_entry("burgers-repr").doc.system().fields
            for d1 in (0, 1)
            for m in (0, 1)
        ]
    ),
    min_size=1,
    max_size=3,
)
sys_polys = st.tuples(coeffs, sys_gens).map(lambda t: prod(t[1], t[0]))


@settings(max_examples=200, deadline=None)
@given(sys_polys)
def test_time_and_space_derivations_commute(p):
    sys = _system()
    assert dt_apply(sys, super_derive(p, DX)) == super_derive(dt_apply(sys, p), DX)
