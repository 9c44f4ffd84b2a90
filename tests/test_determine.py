"""Determining-equation solver: symmetry searches and linear algebra paths."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from superjet.algebra import EVEN, ODD, FieldSymbol, JetVar, SuperPoly
from superjet.determine import (
    LinearEquation,
    NonlinearSystemError,
    extract_linear_system,
    find_symmetries,
    flows_proportional,
    solve_linear,
)
from superjet.linsolve import (
    LaurentRing,
    NotInvertible,
    domain_of,
    gauss_jordan,
    is_monomial_in,
    numerator,
    to_field,
)

from conftest import cached_entry

Q = Fraction

NONZERO = ("alpha", "beta", "gamma")


@pytest.fixture(scope="module")
def embed():
    doc = cached_entry("bous-embed").doc
    return doc, doc.system(), doc.weight_system()


def test_even_search_recovers_the_catalogued_flow(embed):
    doc, sys, ws = embed
    res = find_symmetries(sys, ws, Q(-4), EVEN, assume_nonzero=NONZERO)
    assert len(res.flows) == 1
    assert flows_proportional(res.flows[0], doc.flows["eq5_4"])


def test_odd_search_recovers_the_catalogued_flow(embed):
    doc, sys, ws = embed
    res = find_symmetries(sys, ws, Q(-7, 2), ODD, assume_nonzero=NONZERO)
    assert len(res.flows) == 1
    assert flows_proportional(res.flows[0], doc.flows["eq5_5"])


def test_translation_slots(embed):
    doc, sys, ws = embed
    # weight -1: the x-translation only
    res = find_symmetries(sys, ws, Q(-1), EVEN, assume_nonzero=NONZERO)
    assert len(res.flows) == 1
    from superjet.jets import Flow

    translation = Flow(
        {u: SuperPoly.from_gen(JetVar(u, 0, 0, 1)) for u in sys.fields}, EVEN
    )
    assert flows_proportional(res.flows[0], translation)
    # weight -2: the time flow only
    res2 = find_symmetries(sys, ws, Q(-2), EVEN, assume_nonzero=NONZERO)
    assert len(res2.flows) == 1
    assert flows_proportional(res2.flows[0], sys.as_flow())


def test_empty_slot_returns_nothing(embed):
    doc, sys, ws = embed
    res = find_symmetries(sys, ws, Q(-3), EVEN, assume_nonzero=NONZERO)
    assert res.flows == []


def test_rational_and_parametric_paths_agree():
    """The same solution space must come out of the sparse rational
    elimination and the parametric (symbolic-pivot) route."""
    b = FieldSymbol("b", EVEN, 1)
    jb = SuperPoly.from_gen(JetVar(b))
    jbx = SuperPoly.from_gen(JetVar(b, m=1))
    names = ["c0", "c1", "c2", "c3"]
    c = {n: SuperPoly.param(n) for n in names}
    polys = [
        (c["c0"] + SuperPoly.scalar(2) * c["c1"] - c["c2"]) * jb
        + (c["c1"] + c["c2"]) * jbx,
        (c["c0"] - c["c3"]) * jb,
    ]
    plain = solve_linear(extract_linear_system(polys, names), names)
    a = SuperPoly.param("alpha")
    scaled = solve_linear(
        extract_linear_system([a * p for p in polys], names),
        names,
        assume_nonzero=("alpha",),
    )
    assert len(plain) == len(scaled) == 1
    assert len(plain[0].basis) == len(scaled[0].basis) == 1
    # both bases span the same space: check each vector of one satisfies
    # the original equations and is a combination of the other basis
    eqs = extract_linear_system(polys, names)
    for sol in (plain[0], scaled[0]):
        for vec in sol.basis:
            for eq in eqs:
                total = SuperPoly.zero()
                for n, coeff in eq.coeffs.items():
                    total = total + coeff * vec.get(n, SuperPoly.zero())
                total = total + eq.const
                assert total.is_zero


def test_inconsistent_system_has_no_solutions():
    names = ["c0"]
    c0 = SuperPoly.param("c0")
    one = SuperPoly.one()
    # c0 = 0 and c0 = 1 simultaneously
    polys = [c0, c0 - one]
    branches = solve_linear(extract_linear_system(polys, names), names)
    assert branches == [] or all(b is None for b in branches)


small = st.integers(min_value=-3, max_value=3)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(small, min_size=n + 1, max_size=n + 1),
                       min_size=1, max_size=5)))
def test_solutions_of_random_rational_systems(rows):
    """Solutions satisfy the equations and have dimension n - rank, with
    the rank taken from sympy as an independent oracle."""
    n = len(rows[0]) - 1
    names = [f"c{i}" for i in range(n)]
    eqs = [
        LinearEquation(
            {u: SuperPoly.scalar(a) for u, a in zip(names, row) if a},
            SuperPoly.scalar(row[n]),
        )
        for row in rows
    ]
    coeffs = sympy.Matrix([row[:n] for row in rows])
    augmented = sympy.Matrix([row[:n] + [-row[n]] for row in rows])
    branches = solve_linear(eqs, names)
    if coeffs.rank() < augmented.rank():
        assert branches == []
        return
    (sol,) = branches
    assert sol.dim == n - coeffs.rank()
    assert not sol.assumptions and not sol.constraints

    def value(eq, vec, const):
        total = const
        for u, c in eq.coeffs.items():
            total = total + c * vec[u]
        return total

    for eq in eqs:
        assert value(eq, sol.particular, eq.const).is_zero
        for vec in sol.basis:
            assert value(eq, vec, SuperPoly.zero()).is_zero


def test_case_split_pins_an_assumed_parameter_to_zero():
    names = ["c0"]
    alpha = SuperPoly.param("alpha")
    eqs = extract_linear_system([alpha * SuperPoly.param("c0")], names)
    generic, pinned = solve_linear(eqs, names, case_split_limit=1)
    assert generic.dim == 0 and generic.assumptions == [alpha]
    assert pinned.zero_params == {"alpha"} and pinned.dim == 1


def test_inverted_parameter_is_never_pinned_to_zero():
    names = ["c0", "c1"]
    alpha = SuperPoly.param("alpha")
    c0, c1 = SuperPoly.param("c0"), SuperPoly.param("c1")
    eqs = extract_linear_system([alpha * c0 + SuperPoly.param("alpha", -1) * c1], names)
    branches = solve_linear(eqs, names, case_split_limit=2)
    assert [b.zero_params for b in branches] == [frozenset()]
    assert branches[0].assumptions == [alpha]


def test_basis_vector_with_polynomial_denominator_is_cleared():
    names = ["c0", "c1"]
    s = SuperPoly.param("alpha") + SuperPoly.param("beta")
    eqs = extract_linear_system(
        [s * SuperPoly.param("c0") + SuperPoly.param("c1")], names)
    (sol,) = solve_linear(eqs, names)
    assert sol.basis == [{"c0": SuperPoly.scalar(-1), "c1": s}]


def test_particular_solution_with_polynomial_denominator_raises():
    s = SuperPoly.param("alpha") + SuperPoly.param("beta")
    eqs = extract_linear_system([s * SuperPoly.param("c0") - SuperPoly.one()], ["c0"])
    with pytest.raises(NonlinearSystemError):
        solve_linear(eqs, ["c0"])


def test_binomial_pivot_mid_elimination_falls_back_to_the_field():
    """The first pivot (alpha) is a monomial; eliminating it leaves the
    binomial beta - 1/alpha as the next pivot, so the solve restarts over
    the fraction field and clears the polynomial denominator."""
    names = ["c0", "c1", "c2"]
    alpha, beta = SuperPoly.param("alpha"), SuperPoly.param("beta")
    c0, c1, c2 = (SuperPoly.param(n) for n in names)
    eqs = extract_linear_system([alpha * c0 + c1, c0 + beta * c1 + c2], names)
    (sol,) = solve_linear(eqs, names, assume_nonzero=("alpha", "beta"))
    one = SuperPoly.one()
    assert sol.basis == [{"c0": one, "c1": -alpha, "c2": alpha * beta - one}]
    assert sol.assumptions == [alpha * beta - one]


LAURENT_PARAMS = ("alpha", "beta", "gamma")
laurent_coefficients = st.sampled_from([Q(1), Q(-1), Q(2), Q(-3), Q(1, 2), Q(-5, 3)])


@st.composite
def laurent_systems(draw):
    """Sparse rows whose entries are Laurent monomials in 2-3 parameters;
    in about half the draws one entry is a sum of two monomials."""
    names = LAURENT_PARAMS[:draw(st.integers(2, 3))]
    n = draw(st.integers(1, 5))

    def monomial():
        exps = draw(st.lists(st.integers(-2, 2), min_size=len(names), max_size=len(names)))
        params = tuple((nm, e) for nm, e in zip(names, exps) if e)
        return SuperPoly({((), (), (), params): draw(laurent_coefficients)})

    rows = []
    for _ in range(draw(st.integers(1, 6))):
        cols = sorted(draw(st.sets(st.integers(0, n - 1), max_size=n)))
        rhs = monomial() if draw(st.booleans()) else SuperPoly.zero()
        rows.append(({c: monomial() for c in cols}, rhs))
    entries = [(i, c) for i, (row, _rhs) in enumerate(rows) for c in row]
    if entries and draw(st.booleans()):
        i, c = draw(st.sampled_from(entries))
        binomial = rows[i][0][c] + monomial()
        if not binomial.is_zero:
            rows[i][0][c] = binomial
    nonzero = draw(st.sets(st.sampled_from(names)))
    return rows, n, names, nonzero


class _EnoughPivots(Exception):
    """Stops a limited ``_PivotLog`` elimination."""


class _PivotLog:
    """A domain that records every pivot gauss_jordan inverts, and stops
    the elimination by raising ``_EnoughPivots`` once ``limit`` are logged."""

    def __init__(self, K, limit=None):
        self.K = K
        self.pivots = []
        self.limit = limit

    def __getattr__(self, name):
        return getattr(self.K, name)

    def revert(self, a):
        self.pivots.append(a)
        if len(self.pivots) == self.limit:
            raise _EnoughPivots
        return self.K.revert(a)


class _LaurentPivotLog(LaurentRing):
    def __init__(self, names):
        super().__init__(names)
        self.pivots = []

    def revert(self, a):
        self.pivots.append(a)
        return LaurentRing.revert(a)


@settings(max_examples=200, deadline=None)
@given(laurent_systems())
def test_laurent_elimination_matches_the_fraction_field(system):
    """Over the Laurent ring, gauss_jordan takes the pivots it takes over
    the fraction field and gives the same results, or raises NotInvertible
    at the first pivot that is not a monomial (the caller then re-solves
    over the field).  The ring runs first, so that after NotInvertible the
    field reference, whose gcds can take minutes on dense systems, stops
    at the pivots the ring reached."""
    rows, n, names, nonzero = system
    K = _LaurentPivotLog(domain_of(names).names)
    try:
        red = gauss_jordan(rows, n, K, lambda v: is_monomial_in(v, K, nonzero))
    except NotInvertible:
        red = None
    F = _PivotLog(K.fraction_field, limit=None if red else len(K.pivots))
    field_rows = [({c: to_field(v, F.K) for c, v in row.items()}, to_field(rhs, F.K))
                  for row, rhs in rows]
    try:
        ref = gauss_jordan(field_rows, n, F, lambda v: is_monomial_in(v, F.K, nonzero))
    except _EnoughPivots:
        pass

    def over_f(vals):
        return [to_field(v, F.K) for v in vals]

    if red is None:
        assert len(K.pivots[-1].terms) > 1
        assert over_f(K.pivots) == F.pivots[:len(K.pivots)]
        return
    assert over_f(K.pivots) == F.pivots
    assert {c: to_field(v, F.K) for c, v in red.particular.items()} == ref.particular
    assert [{c: to_field(v, F.K) for c, v in vec.items()} for vec in red.basis] == ref.basis
    assert over_f(red.assumed) == ref.assumed
    assert over_f(red.leftover) == ref.leftover


@st.composite
def laurent_polynomials(draw):
    """Sums of one to four Laurent monomials in alpha, beta and gamma."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        exps = draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3))
        params = tuple((nm, e) for nm, e in zip(LAURENT_PARAMS, exps) if e)
        terms[((), (), (), params)] = draw(st.fractions(max_denominator=12).filter(bool))
    return SuperPoly(terms)


@settings(max_examples=300, deadline=None)
@given(laurent_polynomials())
def test_ring_numerator_matches_the_fraction_field(v):
    """The Laurent ring computes numerators itself, with sympy's fraction
    field as the oracle."""
    K = domain_of(LAURENT_PARAMS)
    F = K.fraction_field
    assert numerator(v, K) == numerator(to_field(v, F), F)


def test_rational_system_keeps_its_solution():
    """A parameter-free system is solved over the ring with no parameters;
    its particular solution and basis are the ones the rational path gave."""
    names = ["c0", "c1", "c2", "c3", "c4"]
    rows = [([1, 2, -1, 0, 0], Q(1, 2)),
            ([0, 3, 0, 1, Q(-2, 3)], -2),
            ([2, 1, -2, Q(-1, 3), 0], 0),
            ([1, -1, -1, Q(-1, 3), Q(2, 9)], Q(5, 2))]
    eqs = [LinearEquation({u: SuperPoly.scalar(a) for u, a in zip(names, row) if a},
                          SuperPoly.scalar(const)) for row, const in rows]
    (sol,) = solve_linear(eqs, names)
    s = SuperPoly.scalar
    assert sol.particular == {"c0": s(Q(-11, 6)), "c1": s(Q(2, 3)), "c2": s(0),
                              "c3": s(-9), "c4": s(Q(-27, 2))}
    assert sol.basis == [{"c0": s(1), "c1": s(0), "c2": s(1), "c3": s(0), "c4": s(0)}]
    assert not sol.assumptions and not sol.constraints
