"""Determining-equation solver: symmetry searches and linear algebra paths."""

from fractions import Fraction

import pytest
import sympy
from sympy.polys.matrices import DomainMatrix
from hypothesis import given, settings
from hypothesis import strategies as st

from superjet import catalog, determine
from superjet.algebra import EVEN, ODD, FieldSymbol, JetVar, SuperPoly
from superjet.determine import (
    NonlinearSystemError,
    build_flow_ansatz,
    extract_linear_system,
    find_symmetries,
    flows_proportional,
    solve_linear,
)
from superjet.jets import Flow, check_symmetry, substitute_params
from superjet.linsolve import (
    LaurentRing,
    LinearEquation,
    as_poly,
    clearing_scale,
    gauss_jordan,
    numerator,
    quotient,
)

from conftest import equation, poly_gauss_jordan, ring


Q = Fraction

NONZERO = ("alpha", "beta", "gamma")


@pytest.fixture(scope="module")
def embed():
    doc = catalog.get("bous-embed").doc
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


def test_a_weight_off_the_half_grid_has_an_empty_ansatz(embed):
    """Every jet of bous-embed weighs a multiple of 1/2, so at -1/3 no
    monomial has the weight of either field's flow component."""
    _doc, sys, ws = embed
    for parity in (EVEN, ODD):
        res = find_symmetries(sys, ws, Q(-1, 3), parity, assume_nonzero=NONZERO)
        assert (res.flows, res.ansatz_size) == ([], 0)


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
                    total = total + as_poly(coeff) * vec.get(n, SuperPoly.zero())
                total = total + as_poly(eq.const)
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
    poly_rows = [({u: SuperPoly.scalar(a) for u, a in zip(names, row) if a},
                  SuperPoly.scalar(row[n])) for row in rows]
    eqs = [equation(*row) for row in poly_rows]
    coeffs = sympy.Matrix([row[:n] for row in rows])
    augmented = sympy.Matrix([row[:n] + [-row[n]] for row in rows])
    branches = solve_linear(eqs, names)
    if coeffs.rank() < augmented.rank():
        assert branches == []
        return
    (sol,) = branches
    assert sol.dim == n - coeffs.rank()
    assert not sol.assumptions

    def value(coeffs, vec, const):
        total = const
        for u, c in coeffs.items():
            total = total + c * vec[u]
        return total

    for coeffs, const in poly_rows:
        assert value(coeffs, sol.particular, const).is_zero
        for vec in sol.basis:
            assert value(coeffs, vec, SuperPoly.zero()).is_zero


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


def substituted(eqs, names):
    """The equations with the parameters ``names`` set to zero through
    ``SuperPoly`` and ``substitute_params``, zero coefficients dropped."""
    zero = dict.fromkeys(names, Q(0))

    def sub(a):
        return ring(substitute_params(as_poly(a), zero))

    return [LinearEquation({u: v for u, v in zip(eq.coeffs, map(sub, eq.coeffs.values())) if v},
                           sub(eq.const)) for eq in eqs]


def test_pinning_on_ring_elements_matches_substitute_params():
    """Pinning drops every term that holds a pinned name: a coefficient
    that vanishes leaves its row, a constant can vanish, and a parameter
    with a negative exponent, which is never pinned, stays."""
    u = FieldSymbol("b", EVEN, 1)
    b, bx = (SuperPoly.from_gen(JetVar(u, m=m)) for m in (0, 1))
    c0, c1 = P("c0"), P("c1")
    alpha, beta, gamma = P("alpha"), P("beta"), P("gamma")
    residual = (alpha * c0 * b + P("beta", -1) * c1 * b + alpha * beta * bx + 2 * c0 * bx
                + alpha * alpha * gamma * c1 * bx + gamma * c1 * b)
    eqs = extract_linear_system([residual], ["c0", "c1"])
    for names in ({"alpha"}, {"gamma"}, {"alpha", "gamma"}):
        assert determine._pinned(eqs, names) == substituted(eqs, names)
    assert determine._pinned(eqs, {"alpha"}) == [
        equation({"c1": P("beta", -1) + gamma}, SuperPoly.zero()),
        equation({"c0": 2 * SuperPoly.one()}, SuperPoly.zero())]
    homogeneous = extract_linear_system([residual - alpha * beta * bx], ["c0", "c1"])
    branches = solve_linear(homogeneous, ["c0", "c1"], case_split_limit=2)
    assert {"alpha", "gamma"} <= set().union(*(br.zero_params for br in branches))
    assert all("beta" not in br.zero_params for br in branches)


def test_a_case_split_of_a_one_parameter_search_pins_as_substitution_did():
    """The -3 even search of hospital-alpha with one level of case splits
    re-solves with alpha pinned to zero.  Its pinned system is the one
    ``substitute_params`` gave, so its branches are too; the golden
    snapshot holds them."""
    doc = catalog.get("hospital-alpha").doc
    sys, ws = doc.system(), doc.weight_system()
    comps, names, _monos = build_flow_ansatz(sys, ws, Q(-3), EVEN)
    residual = check_symmetry(sys, Flow(comps, EVEN))
    eqs = extract_linear_system([residual.components[u] for u in sys.fields], names)
    pinned = determine._pinned(eqs, {"alpha"})
    assert pinned == substituted(eqs, {"alpha"}) != eqs


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


def test_binomial_pivot_mid_elimination_stays_in_the_ring():
    """The first pivot (alpha) is a monomial; eliminating it leaves the
    binomial beta - 1/alpha as the next pivot.  It stays in its row, and
    the basis vector is scaled by its numerator alpha*beta - 1."""
    names = ["c0", "c1", "c2"]
    alpha, beta = SuperPoly.param("alpha"), SuperPoly.param("beta")
    c0, c1, c2 = (SuperPoly.param(n) for n in names)
    eqs = extract_linear_system([alpha * c0 + c1, c0 + beta * c1 + c2], names)
    (sol,) = solve_linear(eqs, names, assume_nonzero=("alpha", "beta"))
    one = SuperPoly.one()
    assert sol.basis == [{"c0": one, "c1": -alpha, "c2": alpha * beta - one}]
    assert sol.assumptions == [alpha * beta - one]


def test_pivot_after_a_binomial_is_judged_over_the_field():
    """After the binomial pivot alpha + beta every ring entry carries that
    factor.  The next pivot is 1 over the field, so it is not assumed."""
    names = ["c0", "c1", "c2"]
    s = SuperPoly.param("alpha") + SuperPoly.param("beta")
    c0, c1, c2 = (SuperPoly.param(n) for n in names)
    eqs = extract_linear_system([s * c0 + c1, SuperPoly.param("gamma") * c2 + c1], names)
    (sol,) = solve_linear(eqs, names, assume_nonzero=("alpha", "beta", "gamma"))
    assert sol.assumptions == [s]


def test_inconsistent_row_after_a_binomial_pivot_kills_the_branch():
    """The ring row for 1 = 0 reads t + 1 = 0 after the pivot t + 1: a
    leftover, so the branch ends."""
    t, one = SuperPoly.param("t"), SuperPoly.one()
    eqs = extract_linear_system([(t + one) * SuperPoly.param("c0"), one], ["c0"])
    assert solve_linear(eqs, ["c0"]) == []


def test_leftover_that_is_not_a_laurent_polynomial():
    """The field's leftover eps - mu/(gamma + delta) is not a Laurent
    polynomial, and neither is the particular value 1/(gamma + delta): the
    leftover ends the branch before the particular solution is read.  The
    field's leftover -1/(4 + beta) never vanishes; the ring's is -alpha^2,
    and that branch ends too."""
    names = ["c0", "c1"]
    c0, c1 = (SuperPoly.param(n) for n in names)
    p, one = SuperPoly.param, SuperPoly.one()
    eqs = extract_linear_system(
        [(p("alpha") + p("beta")) * c0, (p("gamma") + p("delta")) * c1 - one,
         p("mu") * c1 - p("eps")], names)
    assert solve_linear(eqs, names) == []
    a2 = p("alpha", 2)
    eqs = extract_linear_system([a2 * (4 * one + p("beta")) * c0 - one, a2 * c0], ["c0"])
    assert solve_linear(eqs, ["c0"]) == []


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


class _LaurentPivotLog(LaurentRing):
    """The Laurent ring, recording every pivot gauss_jordan inverts, as a
    ``SuperPoly``."""

    def __init__(self):
        self.pivots = []

    def revert(self, a):
        self.pivots.append(as_poly(a))
        return LaurentRing.revert(a)


def to_field(p, F):
    """A Laurent polynomial as an element of sympy's fraction field ``F``."""
    names = [str(g) for g in F.symbols]
    vecs = [tuple(dict(key[3]).get(nm, 0) for nm in names) for key in p.terms]
    low = [min(0, *col) for col in zip(*vecs)] or [0] * len(names)
    numer = F.field.ring.from_dict({tuple(x - lo for x, lo in zip(v, low)):
                                    sympy.QQ(c.numerator, c.denominator)
                                    for v, c in zip(vecs, p.terms.values())})
    return F.field.new(numer, F.field.ring({tuple(-lo for lo in low): 1}))


def to_poly(p, R):
    """A Laurent polynomial with no negative exponent as an element of ``R``."""
    names = [str(g) for g in R.symbols]
    return R.ring.from_dict({tuple(dict(key[3]).get(nm, 0) for nm in names):
                             sympy.QQ(c.numerator, c.denominator)
                             for key, c in p.terms.items()})


def field_monomial_in(v, names):
    """Whether numerator and denominator are single monomials in ``names``."""
    allowed = [str(g) in names for g in v.field.symbols]
    return all(len(part) == 1 and all(ok or not x for ok, x in zip(allowed, next(iter(part))))
               for part in (v.numer, v.denom))


def field_gauss_jordan(rows, n, sure_nonzero, F):
    """Reference elimination over a field: each pivot row is divided by its
    pivot, with the choice of pivot rows ``gauss_jordan`` makes while its
    pivots are monomials: the eligible row with the fewest entries in the
    unknowns (the right-hand side, under key ``n``, is not counted), the
    lower index on a tie.  Returns the pivots, the particular
    solution, the basis, the assumed pivots and the leftover right-hand
    sides."""
    zero, one = F.field.zero, F.field.one
    work = [{**row, n: rhs} for row, rhs in rows]
    pivot_row, pivots, assumed = {}, [], []
    for c in range(n):
        cands = [i for i, row in enumerate(work) if i not in pivot_row.values() and row.get(c)]
        if not cands:
            continue
        p = min((i for i in cands if sure_nonzero(work[i][c])),
                key=lambda i: len(work[i].keys() - {n}), default=None)
        if p is None:
            p = cands[0]
            assumed.append(work[p][c])
        pivots.append(work[p][c])
        pivot_row[c] = p
        work[p] = {cc: v / pivots[-1] for cc, v in work[p].items()}
        for i, row in enumerate(work):
            if i != p and row.get(c):
                f = row[c]
                work[i] = {cc: v for cc in row.keys() | work[p].keys()
                           if (v := row.get(cc, zero) - f * work[p].get(cc, zero))}
    particular = {c: work[p].get(n, zero) for c, p in pivot_row.items()}
    basis = [{fc: one, **{c: -work[p][fc] for c, p in pivot_row.items() if fc in work[p]}}
             for fc in range(n) if fc not in pivot_row]
    leftover = [row[n] for i, row in enumerate(work)
                if i not in pivot_row.values() and row.get(n)]
    return pivots, particular, basis, assumed, leftover


def ring_scale(red):
    """The scale s of a reduction: the last pivot once one had several
    terms, which every solved row holds in its pivot column, else 1."""
    return next((pivot for pivot, _rhs in red.solved.values()), SuperPoly.one())


@settings(max_examples=200, deadline=None)
@given(laurent_systems())
def test_laurent_elimination_matches_the_fraction_field(system):
    """The ring never gives up, and agrees with sympy's fraction field.

    When every pivot is a monomial, the ring takes the field's pivots and
    gives the field's particular solution, basis, assumptions and
    leftovers.  Otherwise the field's reduced row echelon form comes from
    sympy's fraction-free ``rref_den`` over the polynomial ring, which
    takes no gcd: the particular solutions are equal, or both
    have a value that is not a Laurent polynomial; each basis vector is a
    multiple of the field's; and the leftovers are empty together.  An
    inconsistent system has no particular solution to compare.  On every
    draw each ring leftover is the field's times ``ring_scale(red)``.
    """
    rows, n, names, nonzero = system
    K = _LaurentPivotLog()
    red = poly_gauss_jordan([(row, -rhs) for row, rhs in rows], range(n), nonzero, K)
    # each leftover is the field's, rhs - row . x for the particular x, times
    # the last pivot; x times that pivot is the ring's right-hand sides
    s, zero = ring_scale(red), SuperPoly.zero()
    residues = [s * rhs - sum((v * red.solved[c][1] for c, v in row.items()
                               if c in red.solved), zero) for row, rhs in rows]
    assert [r for r in residues if not r.is_zero] == red.leftover
    F = sympy.QQ.frac_field(*names)
    if len(K.pivots) == len(red.solved):
        field_rows = [({c: to_field(v, F) for c, v in row.items()}, to_field(rhs, F))
                      for row, rhs in rows]
        pivots, particular, basis, assumed, leftover = field_gauss_jordan(
            field_rows, n, lambda v: field_monomial_in(v, nonzero), F)

        def over_f(vals):
            return [to_field(v, F) for v in vals]

        assert over_f(K.pivots) == pivots
        assert {c: to_field(v, F) for c, v in red.particular.items()} == particular
        assert [{c: to_field(v, F) for c, v in vec.items()} for vec in red.basis] == basis
        assert over_f(red.assumed) == assumed
        assert over_f(red.leftover) == leftover
        return
    R = sympy.QQ.poly_ring(*names)
    augmented = [[to_poly(as_poly(clearing_scale(map(ring, [*row.values(), rhs]))) * v, R)
                  for v in [row.get(c, SuperPoly.zero()) for c in range(n)] + [rhs]]
                 for row, rhs in rows]
    num, den, pivots = DomainMatrix(augmented, (len(rows), n + 1), R).rref_den(method="FF")
    num = num.to_list()
    assert bool(red.leftover) == (n in pivots)
    assert list(red.solved) == [c for c in pivots if c < n]
    free = [c for c in range(n) if c not in pivots]
    assert len(red.basis) == len(free)
    for fc, vec in zip(free, red.basis):
        scale = as_poly(clearing_scale(map(ring, vec.values())))
        lead = to_poly(scale * vec[fc], R)
        assert lead
        for c in range(n):
            value = to_poly(scale * vec.get(c, SuperPoly.zero()), R)
            if c in pivots:
                assert value * den == -lead * num[pivots.index(c)][fc]
            else:
                assert value == (lead if c == fc else 0)
    if red.leftover:
        return
    field = {c: F.field(num[r][n]) / F.field(den) for r, c in enumerate(pivots)}
    if any(len(v.denom) > 1 for v in field.values()):
        with pytest.raises(NonlinearSystemError):
            red.particular
    else:
        assert {c: to_field(v, F) for c, v in red.particular.items()} == field


@settings(max_examples=200, deadline=None)
@given(laurent_systems(), st.data())
def test_row_order_leaves_a_monomial_elimination_unchanged(system, data):
    """Which rows ``gauss_jordan`` takes as pivots depends on their order.
    When it assumes no pivot and every pivot is a monomial, the basis and,
    for a consistent system, the particular solution are the field's
    reduced row echelon form, which does not."""
    rows, n, _names, nonzero = system
    order = data.draw(st.permutations(range(len(rows))))
    reds = []
    for permuted in (rows, [rows[i] for i in order]):
        K = _LaurentPivotLog()
        red = poly_gauss_jordan([(row, -rhs) for row, rhs in permuted], range(n), nonzero, K)
        if red.assumed or len(K.pivots) < len(red.solved):
            return
        reds.append(red)
    a, b = reds
    assert a.basis == b.basis
    assert bool(a.leftover) == bool(b.leftover)
    if not a.leftover:
        assert a.particular == b.particular


class _LaurentWorkCount(LaurentRing):
    """The Laurent ring, counting every ``submul``, products included."""

    def __init__(self):
        self.submuls = 0

    def submul(self, a, f, v):
        self.submuls += 1
        return LaurentRing.submul(a, f, v)

    def mul(self, a, b):
        self.submuls += 1
        return LaurentRing.mul(a, b)


def test_sparse_pivot_rows_bound_the_elimination_work(embed, monkeypatch):
    """Taking the sparsest eligible row as pivot keeps the fill down: the
    106 x 38 elimination of the weight -5 even search makes 2309 ring
    products, where taking the first eligible row made 23 078 (with the
    ring operations on zero right-hand sides skipped in both)."""
    _doc, sys, ws = embed
    rings = []

    def counted(eqs, unknowns, assume_nonzero):
        rings.append(_LaurentWorkCount())
        return gauss_jordan(eqs, unknowns, assume_nonzero, rings[-1])

    monkeypatch.setattr(determine, "gauss_jordan", counted)
    find_symmetries(sys, ws, Q(-5), EVEN, assume_nonzero=NONZERO)
    (ring,) = rings
    assert 0 < ring.submuls <= 2760


def test_the_ring_hook_sees_every_monomial_pivot():
    """``gauss_jordan`` inverts each monomial pivot through ``K.revert``,
    so the fraction-field comparison above meets the all-monomial branch."""
    K = _LaurentPivotLog()
    red = poly_gauss_jordan([({0: P("alpha"), 1: 2 * SuperPoly.one()}, -SuperPoly.one()),
                             ({1: P("beta", -1), 2: SuperPoly.one()}, -P("alpha"))],
                            range(3), ("alpha", "beta"), K)
    assert K.pivots == [P("alpha"), P("beta", -1)]
    assert len(K.pivots) == len(red.solved)


@st.composite
def laurent_polynomials(draw, coefficients=st.builds(
        Q, st.integers(-10**6, 10**6).filter(bool), st.integers(1, 12))):
    """Sums of one to four Laurent monomials in alpha, beta and gamma."""
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        exps = draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3))
        params = tuple((nm, e) for nm, e in zip(LAURENT_PARAMS, exps) if e)
        terms[((), (), (), params)] = draw(coefficients)
    return SuperPoly(terms)


@settings(max_examples=300, deadline=None)
@given(laurent_polynomials())
def test_ring_numerator_matches_the_fraction_field(v):
    """The Laurent ring computes numerators itself, with sympy's fraction
    field as the oracle."""
    F = sympy.QQ.frac_field(*LAURENT_PARAMS)
    R = sympy.QQ.poly_ring(*LAURENT_PARAMS)
    assert to_poly(as_poly(numerator(ring(v))), R) == to_field(v, F).numer


def poly_quotient(a, b):
    """``quotient`` on parameter-only SuperPolys."""
    q = quotient(ring(a), ring(b))
    return None if q is None else as_poly(q)


@settings(max_examples=200, deadline=None)
@given(*[laurent_polynomials(laurent_coefficients)] * 3)
def test_ring_operations_match_superpoly_arithmetic(a, f, v):
    """On dict elements ``submul``, ``mul``, ``revert`` and ``quotient`` are
    ``SuperPoly``'s ``a - f*v``, ``f*v``, inverse and exact division, and
    none of them changes its operands or the shared ``zero`` and ``one``."""
    ra, rf, rv = (ring(p) for p in (a, f, v))
    K = LaurentRing
    assert as_poly(K.submul(ra, rf, rv)) == a - f * v
    assert as_poly(K.submul(K.zero, rf, rv)) == -(f * v)
    assert as_poly(K.mul(rf, rv)) == f * v == as_poly(K.mul(rv, rf))
    assert as_poly(K.mul(K.one, rv)) == v
    for key, c in rf.items():
        assert as_poly(K.revert({key: c})) * as_poly({key: c}) == SuperPoly.one()
    assert as_poly(quotient(K.mul(rf, rv), rv)) == f
    q = quotient(ra, rv)
    assert q is None or as_poly(q) * v == a
    assert (ra, rf, rv) == tuple(ring(p) for p in (a, f, v))
    assert (K.zero, K.one) == ({}, {(): 1})


@settings(max_examples=200, deadline=None)
@given(*[laurent_polynomials(laurent_coefficients)] * 3)
def test_exact_quotient(a, b, c):
    """``quotient`` undoes a product, and it gives up exactly when sympy's
    fraction field leaves a denominator that is not a monomial."""
    assert poly_quotient(a * b, b) == a
    q = poly_quotient(a * b + c, b)
    F = sympy.QQ.frac_field(*LAURENT_PARAMS)
    if q is None:
        assert len((to_field(a * b + c, F) / to_field(b, F)).denom) > 1
    else:
        assert q * b == a * b + c


def test_rational_system_keeps_its_solution():
    """A parameter-free system is solved over the ring with no parameters;
    its particular solution and basis are the ones the rational path gave."""
    names = ["c0", "c1", "c2", "c3", "c4"]
    rows = [([1, 2, -1, 0, 0], Q(1, 2)),
            ([0, 3, 0, 1, Q(-2, 3)], -2),
            ([2, 1, -2, Q(-1, 3), 0], 0),
            ([1, -1, -1, Q(-1, 3), Q(2, 9)], Q(5, 2))]
    eqs = [equation({u: SuperPoly.scalar(a) for u, a in zip(names, row) if a},
                    SuperPoly.scalar(const)) for row, const in rows]
    (sol,) = solve_linear(eqs, names)
    s = SuperPoly.scalar
    assert sol.particular == {"c0": s(Q(-11, 6)), "c1": s(Q(2, 3)), "c2": s(0),
                              "c3": s(-9), "c4": s(Q(-27, 2))}
    assert sol.basis == [{"c0": s(1), "c1": s(0), "c2": s(1), "c3": s(0), "c4": s(0)}]
    assert not sol.assumptions


def test_unknowns_of_any_hashable_kind_key_the_solution_in_their_order():
    """Integers and monomial keys work as unknowns, and the pivots come
    back in the order the unknowns were given, not a sorted one."""
    b = FieldSymbol("b", EVEN, 1)
    keys = [next(iter(SuperPoly.from_gen(JetVar(b, m=m)).terms)) for m in (2, 0, 1)]
    zero, one = SuperPoly.zero(), SuperPoly.one()
    for unknowns in ([3, 1, 2], keys):
        x, y, z = unknowns
        # x + 2y - 1 = 0 and 3z = 0
        red = poly_gauss_jordan([({y: 2 * one, x: one}, -one), ({z: 3 * one}, zero)], unknowns)
        assert list(red.solved) == [x, z]
        assert red.particular == {x: one, z: zero}
        assert red.basis == [{y: one, x: -2 * one}]
        assert not red.assumed and not red.leftover


def test_a_zero_coefficient_is_skipped():
    """Pinning a parameter to zero can leave a zero coefficient; it is no
    entry of the system, not an entry to judge or pivot on."""
    zero, one = SuperPoly.zero(), SuperPoly.one()
    red = poly_gauss_jordan([({"x": zero, "y": one}, -one), ({"x": zero}, zero)], ["x", "y"],
                            ("alpha",))
    assert red.particular == {"y": one}
    assert red.basis == [{"x": one}]
    assert not red.assumed and not red.leftover


P = SuperPoly.param


@pytest.mark.parametrize("pivot, nonzero, assumed", [
    (2 * SuperPoly.one(), (), False),
    (P("alpha"), (), True),
    (P("alpha") * P("beta"), ("alpha", "beta"), False),
    (P("alpha") * P("beta"), ("alpha",), True),
    (P("alpha", -1) * P("beta"), ("alpha", "beta"), False),
    (P("alpha") + P("beta"), ("alpha", "beta"), True),
], ids=["rational", "unnamed", "product", "half-named-product", "inverse", "sum"])
def test_a_pivot_is_sure_when_it_is_one_monomial_in_the_assumed_names(pivot, nonzero, assumed):
    red = poly_gauss_jordan([({"x": pivot}, SuperPoly.zero())], ["x"], nonzero)
    assert red.assumed == ([pivot] if assumed else [])


@pytest.mark.parametrize("term", [P("_c0", 2), P("_c0") * P("_c1"), P("_c0", -1)],
                         ids=["square", "product", "inverse"])
def test_a_term_nonlinear_in_the_unknowns_is_refused(term):
    b = SuperPoly.from_gen(JetVar(FieldSymbol("b", EVEN, 1)))
    residual = P("_c1") * b + P("alpha") * term * b
    with pytest.raises(NonlinearSystemError):
        extract_linear_system([residual], ["_c0", "_c1"])


def test_terms_in_the_parameters_alone_land_in_const():
    """Per monomial, in ``term_order_key`` order: the unknowns' coefficients
    and a constant from the terms with no unknown."""
    u = FieldSymbol("b", EVEN, 1)
    b, bx = (SuperPoly.from_gen(JetVar(u, m=m)) for m in (0, 1))
    one, alpha, beta = SuperPoly.one(), P("alpha"), P("beta", -1)
    residual = P("_c1") * b + 2 * beta * bx + alpha * P("_c0") * bx + 3 * one
    assert extract_linear_system([residual], ["_c0", "_c1"]) == [
        equation({}, 3 * one),
        equation({"_c1": one}, SuperPoly.zero()),
        equation({"_c0": alpha}, 2 * beta),
    ]
