"""Randomized property suites for the graded calculus."""

import pickle
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from superjet import catalog
from superjet.algebra import (
    DX,
    D1,
    D2,
    EVEN,
    ODD,
    Clifford,
    FieldSymbol,
    JetVar,
    Phantom,
    SuperPoly,
    Theta,
    _accumulate,
    _sorted_funcs,
    _wrap,
    poly_sum,
    term_order_key,
)
from superjet.coverings import is_phantom
from superjet.determine import extract_linear_system
from superjet.grammar import print_poly
from superjet.jets import Flow, _derive, dt_apply, evolutionary_apply, prolong, super_derive
from superjet.linsolve import NonlinearSystemError, as_poly, quotient
from superjet.recursion import NotIntegrableError, _substitute_phantoms, d_integrate
from superjet.variational import graded_partial
from superjet.weights import AnsatzItem, WeightSystem, enumerate_monomials

from conftest import apply_ops, derive_oracle, is_canonical, poly_gauss_jordan, prod, ring

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


# equal generators outside the pool, as pickles and copies make them
CLONES = {g: pickle.loads(pickle.dumps(g)) for g in GENS}
mixed_words = st.lists(st.tuples(st.sampled_from(GENS), st.booleans()), max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(coeffs, mixed_words), min_size=1, max_size=3))
def test_unpooled_generators_give_the_same_values(terms):
    pooled = poly_sum(prod([g for g, _ in word], c) for c, word in terms)
    mixed = poly_sum(prod([CLONES[g] if clone else g for g, clone in word], c)
                     for c, word in terms)
    assert mixed == pooled and print_poly(mixed) == print_poly(pooled)
    assert all(pooled.terms[key] == c for key, c in mixed.terms.items())
    assert all(CLONES[g] is not g for g in GENS)


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


GENS_WEIGHTS = WeightSystem({b: Q(1), f: Q(1, 2), u2: Q(1)})


@settings(max_examples=100, deadline=None)
@given(polys, polys, st.sampled_from((D1, D2, DX)))
def test_operations_leave_their_operands_unchanged(a, c, direction):
    """SuperPoly never mutates the ``terms`` of a value after construction."""
    flow = Flow({b: a.parity_report()[0], f: c.parity_report()[1],
                 u2: c.parity_report()[0]})
    target = super_derive(a, DX) + c
    operands = [a, c, target, *flow.components.values()]
    before = [dict(p.terms) for p in operands]
    _ = a + c, a * c, c * a
    super_derive(a, direction)
    evolutionary_apply(flow, a)
    evolutionary_apply(ODD_FLOW, c)
    try:
        d_integrate(target, DX, GENS_WEIGHTS, [b, f, u2])
    except NotIntegrableError:
        pass
    assert [p.terms for p in operands] == before


def _canonical(values):
    return all(is_canonical(c) for p in values for c in p.terms.values())


@settings(max_examples=100, deadline=None)
@given(polys, polys, st.integers(-6, 6).filter(bool), st.sampled_from((D1, D2, DX)))
def test_arithmetic_stores_integral_coefficients_as_ints(a, c, n, direction):
    assert _canonical([a, c, a + c, a - c, a * c, a / n, super_derive(a * c, direction)])


# Laurent polynomials in alpha and beta with one or two terms
laurent = st.lists(st.builds(
    lambda c, i, j: SuperPoly({((), (), (), tuple((n, e) for n, e in (("alpha", i), ("beta", j))
                                                  if e)): c}),
    st.sampled_from([Q(1), Q(-2), Q(3), Q(1, 2), Q(-5, 3), Q(4, 3)]), st.integers(-2, 2),
    st.integers(-2, 2)), min_size=1, max_size=2).map(poly_sum)
laurent_rows = st.lists(st.tuples(st.dictionaries(st.integers(0, 3), laurent, max_size=4), laurent),
                        min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(laurent_rows, laurent, laurent.filter(lambda p: not p.is_zero))
def test_the_solver_stores_integral_coefficients_as_ints(rows, x, y):
    red = poly_gauss_jordan(rows, range(4))
    values = [v for pair in red.solved.values() for v in pair] + red.assumed + red.leftover
    values += [v for vec in red.basis for v in vec.values()]
    try:
        values += red.particular.values()
    except NonlinearSystemError:
        pass
    values += [as_poly(q) for q in (quotient(ring(x * y), ring(y)), quotient(ring(x), ring(y)))
               if q is not None]
    assert _canonical(values)


UNKNOWNS = ("_c0", "_c1", "_c2")
# a rational times at most one unknown and a Laurent monomial in alpha and beta
linear_factors = st.builds(
    lambda c, u, i, j: SuperPoly.scalar(c) * (SuperPoly.param(u) if u else SuperPoly.one())
    * SuperPoly.param("alpha", i) * SuperPoly.param("beta", j),
    coeffs, st.sampled_from((None,) + UNKNOWNS), st.integers(-2, 2), st.integers(-2, 2))
linear_residuals = st.lists(st.tuples(linear_factors, monomials), max_size=6).map(
    lambda pairs: poly_sum(factor * m for factor, m in pairs))


@settings(max_examples=100, deadline=None)
@given(st.lists(linear_residuals, min_size=1, max_size=3),
       monomials.filter(lambda m: not m.is_zero), st.sampled_from(UNKNOWNS),
       st.sampled_from((None,) + UNKNOWNS))
def test_extracted_rows_rebuild_the_residual(residuals, mono, u, v):
    """Each residual is the sum over its rows, in ``term_order_key`` order
    of its monomials, of (sum of coeff * unknown + const) * monomial; a
    term with an unknown squared, or with two unknowns, is refused."""
    rows = iter(extract_linear_system(residuals, UNKNOWNS))
    for p in residuals:
        monos = sorted({(*key[:3], ()) for key in p.terms}, key=term_order_key)
        rebuilt = poly_sum(
            (poly_sum(as_poly(c) * SuperPoly.param(n) for n, c in eq.coeffs.items())
             + as_poly(eq.const)) * _wrap({m: 1}) for m, eq in zip(monos, rows))
        assert rebuilt == p
    assert next(rows, None) is None
    nonlinear = SuperPoly.param(u) * SuperPoly.param(v or u) * mono
    with pytest.raises(NonlinearSystemError):
        extract_linear_system([residuals[0] + nonlinear], UNKNOWNS)


SYS = None


def _system():
    global SYS
    if SYS is None:
        SYS = catalog.get("burgers-repr").doc.system()
    return SYS


sys_gens = st.lists(
    st.sampled_from(
        [
            JetVar(u, d1, 0, m)
            for u in catalog.get("burgers-repr").doc.system().fields
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


# generators for the enumeration oracle: odd jets, thetas, Clifford
# auxiliaries with a rational and a parameter square, and even jets
ENUM_GENS = (
    [Theta(1), Theta(2), Clifford("c", (Q(-3), ())),
     Clifford("k", (Q(2), (("alpha", 1), ("beta", -1))))]
    + [JetVar(f, d1, 0, m) for d1 in (0, 1) for m in (0, 1)]
    + [JetVar(b, d1, 0, m) for d1 in (0, 1) for m in (0, 1)]
)
ENUM_WEIGHTS = [Q(-1), Q(-1, 2), Q(0), Q(1, 3), Q(1, 2), Q(2, 3), Q(1), Q(3, 2)]


def _oracle(items, weight, parity):
    """Every exponent vector within the caps, multiplied out in item order."""
    items = sorted(items, key=lambda it: (it.weight <= 0, str(it.factor)))
    out = []
    for exps in product(*(range(it.max_exp + 1) for it in items)):
        if not any(exps):
            continue
        if sum(it.weight * e for it, e in zip(items, exps)) != weight:
            continue
        if sum(it.parity * e for it, e in zip(items, exps)) % 2 != parity:
            continue
        m = prod(SuperPoly.from_gen(it.factor) ** e for it, e in zip(items, exps))
        if not m.is_zero:
            out.append(m)
    out.sort(key=lambda m: term_order_key(next(iter(m.terms))))
    return out


def _draw_aimed(data):
    """Items, and the weight and parity of some exponent vector within their caps."""
    gens = data.draw(st.lists(st.sampled_from(ENUM_GENS), min_size=1, max_size=5,
                              unique=True))
    items = [
        AnsatzItem(g, data.draw(st.sampled_from(ENUM_WEIGHTS)), g.parity,
                   data.draw(st.integers(1, 2 if g.parity else 3)), str(g))
        for g in gens
    ]
    exps = [data.draw(st.integers(0, it.max_exp)) for it in items]
    weight = sum((it.weight * e for it, e in zip(items, exps)), Q(0))
    parity = sum(it.parity * e for it, e in zip(items, exps)) % 2
    return items, weight, parity


def _assert_enumeration_matches_oracle(items, weight, parity):
    got = enumerate_monomials(items, weight, parity)
    want = _oracle(items, weight, parity)
    assert [list(m.terms.items()) for m in got] == [list(m.terms.items()) for m in want]
    return got


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_monomial_enumeration_matches_brute_force(data):
    _assert_enumeration_matches_oracle(*_draw_aimed(data))


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from(["parity", "off the grid", "beyond"]))
def test_monomial_enumeration_of_missed_targets_matches_brute_force(data, miss):
    """Targets that no exponent vector may reach: an aimed target with its
    parity flipped, with its weight shifted by 1/7, which no sum of the
    item weights (all on the 1/6 grid) equals, or past the heaviest or
    below the lightest sum within the caps."""
    items, weight, parity = _draw_aimed(data)
    if miss == "parity":
        _assert_enumeration_matches_oracle(items, weight, 1 - parity)
        return
    if miss == "off the grid":
        weight += Q(1, 7)
    else:
        sign = data.draw(st.sampled_from([1, -1]))
        weight = sign * (1 + sum(max(0, sign * it.weight) * it.max_exp for it in items))
    assert _assert_enumeration_matches_oracle(items, weight, parity) == []


# ---------------------------------------------------------------------------
# graded partials and phantom substitution against the key walkers they
# replaced, kept here as reference oracles


def _partial_oracle(p, v):
    """Left partial derivative by walking the keys: an odd v is moved to
    the leftmost slot and removed, an even one follows the exponent rule,
    and a function factor of v steps to its next derivative."""
    out: dict = {}
    add = lambda key, c: _accumulate(out, ((key, c),))
    odd = isinstance(v, (Theta, Clifford)) or (isinstance(v, JetVar) and v.parity)
    for (evens, odds, funcs, params), c in p.terms.items():
        if odd:
            for j, g in enumerate(odds):
                if g == v:
                    sign = -1 if j % 2 else 1
                    add((evens, odds[:j] + odds[j + 1 :], funcs, params), c * sign)
                    break
        else:
            for i, (g, x) in enumerate(evens):
                if g == v:
                    rest = list(evens)
                    rest[i] = (g, x - 1)
                    rest = tuple(ge for ge in rest if ge[1])
                    add((rest, odds, funcs, params), c * x)
                    break
            for i, (n, k, arg) in enumerate(funcs):
                if arg == v:
                    rest = list(funcs)
                    rest[i] = (n, k + 1, arg)
                    add((evens, odds, _sorted_funcs(rest), params), c)
    return _wrap(out)


def _phantom_oracle(expr, values):
    """Each monomial's single phantom jet moved to the rightmost slot of
    the odd word (collecting signs) and replaced by its prolonged value."""
    parts = []
    for (evens, odds, funcs, params), c in expr.terms.items():
        found = [(None, g) for g, _x in evens if is_phantom(g.fieldsym)]
        found += [(j, g) for j, g in enumerate(odds)
                  if isinstance(g, JetVar) and is_phantom(g.fieldsym)]
        ((j, g),) = found
        if j is None:
            key = (tuple(ge for ge in evens if ge[0] != g), odds, funcs, params)
        else:
            key = (evens, odds[:j] + odds[j + 1 :], funcs, params)
            c = -c if (len(odds) - 1 - j) % 2 else c
        parts.append(SuperPoly({key: c}) * prolong(values[g.fieldsym], g.d1, g.d2, g.m))
    return poly_sum(parts)


with_functions = st.tuples(monomials, st.sampled_from((None, 0, 1, 2))).map(
    lambda t: t[0] if t[1] is None else t[0] * SuperPoly.func("h", t[1], JetVar(b)))


@settings(max_examples=200, deadline=None)
@given(st.lists(with_functions, min_size=1, max_size=3), st.sampled_from(GENS))
def test_graded_partial_matches_the_key_walk(ms, v):
    p = sum(ms, SuperPoly.zero())
    assert graded_partial(p, v) == _partial_oracle(p, v)


PHANTOMS = {u: Phantom(u.name.upper(), u.parity, u.n_susy, base=u) for u in (b, f, u2)}
PHANTOM_JETS = [JetVar(PHANTOMS[g.fieldsym], g.d1, g.d2, g.m)
                for g in GENS if isinstance(g, JetVar)]


@st.composite
def linear_in_phantoms(draw):
    """A sum of monomials, each with one phantom jet in a random slot."""
    out = SuperPoly.zero()
    for _ in range(draw(st.integers(1, 3))):
        factors = draw(st.lists(st.sampled_from(GENS), max_size=3))
        factors.insert(draw(st.integers(0, len(factors))), draw(st.sampled_from(PHANTOM_JETS)))
        out = out + prod(factors, draw(coeffs))
    return out


@settings(max_examples=200, deadline=None)
@given(st.sampled_from((EVEN, ODD)), linear_in_phantoms(), st.data())
def test_phantom_substitution_matches_the_key_walk(parity, expr, data):
    values = {U: data.draw(polys).parity_report()[(u.parity + parity) % 2]
              for u, U in PHANTOMS.items()}
    (got,) = _substitute_phantoms({b: expr}, values, parity).values()
    assert got == _phantom_oracle(expr, values)


# dbous declares D(w) = f and v_x = b: jets of w and v reduce through them
DBOUS = catalog.get("dbous").doc
DBOUS_GENS = [JetVar(u, d1, 0, m) for u in DBOUS.fields.values()
              for d1 in (0, 1) for m in (0, 1)]
DBOUS_GENS += [JetVar(w) for w in DBOUS.nonlocals.values()]
dbous_values = st.one_of(
    st.sampled_from([p for w in DBOUS.nonlocals.values() for p in w.defs.values()]),
    st.lists(st.tuples(coeffs, st.lists(st.sampled_from(DBOUS_GENS), min_size=1, max_size=3)),
             min_size=1, max_size=3).map(lambda ts: poly_sum(prod(g, c) for c, g in ts)),
)
jet_indices = st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 3))


@settings(max_examples=100, deadline=None)
@given(st.one_of(polys, dbous_values), st.lists(jet_indices, min_size=1, max_size=6))
def test_prolong_matches_apply_ops_in_any_order(p, requests):
    """A memoized jet is the from-scratch one term for term, in the same
    order, whichever jets of the value were asked for before."""
    for d1, d2, m in requests:
        got = prolong(p, d1, d2, m)
        want = apply_ops(p, [DX] * m + [D2] * d2 + [D1] * d1)
        assert list(got.terms.items()) == list(want.terms.items())
        assert prolong(p, d1, d2, m) is got


# the derivation kernel on terms with powers, function factors, Clifford
# factors and parameters, and on images with several terms
KERNEL_EVENS = [JetVar(b), JetVar(b, 0, 0, 1), JetVar(f, 1), JetVar(u2, 1, 1)]
KERNEL_ODDS = [Theta(1), Clifford("k"), Clifford("kappa", (Q(3, 2), (("alpha", 1),))),
               JetVar(f), JetVar(b, 1), JetVar(f, 0, 0, 1), JetVar(u2, 0, 1)]
units_or_coeffs = st.one_of(st.sampled_from((1, -1)), coeffs)


@st.composite
def kernel_terms(draw, odd_words):
    """A sum of one to three terms: a coefficient, up to two even factors
    with exponents 1-3, up to two function factors of b, an odd word drawn
    from odd_words and a power of alpha."""
    out = SuperPoly.zero()
    for _ in range(draw(st.integers(1, 3))):
        alpha = SuperPoly.param("alpha", draw(st.integers(-2, 2)))
        t = SuperPoly.scalar(draw(units_or_coeffs)) * alpha
        for g in draw(st.lists(st.sampled_from(KERNEL_EVENS), max_size=2)):
            t = t * SuperPoly.from_gen(g) ** draw(st.integers(1, 3))
        for k in draw(st.lists(st.integers(0, 2), max_size=2)):
            t = t * SuperPoly.func("Q", k, JetVar(b))
        out = out + prod([t, *draw(odd_words)])
    return out


kernel_polys = kernel_terms(st.lists(st.sampled_from(KERNEL_ODDS), max_size=4, unique=True))
kernel_images = st.fixed_dictionaries({
    g: kernel_terms(st.lists(st.sampled_from(KERNEL_ODDS), max_size=2, unique=True))
    for g in KERNEL_EVENS + KERNEL_ODDS})


@settings(max_examples=200, deadline=None)
@given(kernel_polys, kernel_images, st.sampled_from(("even", "left", "right")))
@example(prod([Theta(1), Clifford("k")]),
         {g: prod([Clifford("k")] if g == Theta(1) else [], 1 if g == Theta(1) else 0)
          for g in KERNEL_EVENS + KERNEL_ODDS}, "even")
def test_derivation_kernel_matches_the_product_oracle(p, images, side):
    """``_derive`` places every image term as the products of the slot's
    left part, the image and the odd word right of the slot would; the
    example's image k of theta1 squares the k right of its slot, which it
    passes with no sign."""
    got = _derive(p, images.__getitem__, side)
    assert got == derive_oracle(p, images.__getitem__, side)
    assert all(map(is_canonical, got.terms.values()))
