"""Derivations on jet space: Leibniz rules, direction algebra, flows."""

import copy
import pickle
from collections import Counter
from fractions import Fraction

import pytest

from superjet import algebra, catalog, jets, recursion
from superjet.algebra import (
    D1,
    D2,
    DT,
    DX,
    EVEN,
    ODD,
    FieldSymbol,
    JetVar,
    ParityError,
    Phantom,
    SuperPoly,
    Theta,
)
from superjet.determine import build_flow_ansatz
from superjet.jets import (
    EvolutionSystem,
    Flow,
    Nonlocality,
    _derive_gen,
    _prolonged,
    check_symmetry,
    commutator,
    declare,
    dt_apply,
    evolutionary_apply,
    jet_poly,
    nonlocal_jet,
    prolong,
    substitute,
    substitute_params,
    super_derive,
)

from conftest import apply_ops, is_canonical, prod

Q = Fraction

b = FieldSymbol("b", EVEN, 1)
f = FieldSymbol("f", ODD, 1)
u2 = FieldSymbol("u", EVEN, 2)

GENS1 = [JetVar(b, d1, 0, m) for d1 in (0, 1) for m in (0, 1, 2)] + [
    JetVar(f, d1, 0, m) for d1 in (0, 1) for m in (0, 1, 2)
]
GENS2 = [JetVar(u2, d1, d2, m) for d1 in (0, 1) for d2 in (0, 1) for m in (0, 1)]


def random_monomial(rng, gens):
    word = [rng.choice(gens) for _ in range(rng.randint(1, 3))]
    return prod(word, Q(rng.randint(-3, 3) or 1, rng.randint(1, 3)))


def random_poly(rng, gens):
    out = SuperPoly.zero()
    for _ in range(rng.randint(1, 3)):
        out = out + random_monomial(rng, gens)
    return out


# ---------------------------------------------------------------------------
# direction algebra


def test_super_derivative_squares_to_dx(rng):
    for _ in range(100):
        p = random_poly(rng, GENS1)
        assert super_derive(super_derive(p, D1), D1) == super_derive(p, DX)


def test_two_directions_anticommute(rng):
    for _ in range(100):
        p = random_poly(rng, GENS2)
        d12 = super_derive(super_derive(p, D2), D1)
        d21 = super_derive(super_derive(p, D1), D2)
        assert (d12 + d21).is_zero
        assert super_derive(super_derive(p, D2), D2) == super_derive(p, DX)


def test_left_leibniz_rule(rng):
    for direction in (D1, DX):
        for _ in range(100):
            a = random_monomial(rng, GENS1)
            c = random_monomial(rng, GENS1)
            pa = a.parity()
            lhs = super_derive(a * c, direction)
            sign = 1
            if direction == D1 and pa == ODD:
                sign = -1
            rhs = super_derive(a, direction) * c + SuperPoly.scalar(sign) * a * super_derive(c, direction)
            assert lhs == rhs


def test_dx_commutes_with_d1(rng):
    for _ in range(100):
        p = random_poly(rng, GENS1)
        assert super_derive(super_derive(p, D1), DX) == super_derive(
            super_derive(p, DX), D1
        )


# ---------------------------------------------------------------------------
# evolution and flows


def test_time_derivation_commutes_with_dx(rng):
    sys = catalog.get("burgers-repr").doc.system()
    gens = [JetVar(u, d1, 0, m) for u in sys.fields for d1 in (0, 1) for m in (0, 1)]
    for _ in range(60):
        p = random_poly(rng, gens)
        assert dt_apply(sys, super_derive(p, DX)) == super_derive(dt_apply(sys, p), DX)


def test_time_derivation_commutes_with_d1(rng):
    sys = catalog.get("skdv").doc.system()
    gens = [JetVar(u, d1, 0, m) for u in sys.fields for d1 in (0, 1) for m in (0, 1)]
    for _ in range(60):
        p = random_poly(rng, gens)
        assert dt_apply(sys, super_derive(p, D1)) == super_derive(dt_apply(sys, p), D1)


def test_function_factors_of_two_arguments():
    """Q(b) * Q(c): the factors differ only in their argument, which has no
    ``<``; products, derivatives and the term order must still sort them."""
    c = FieldSymbol("c", EVEN, 1)
    qb, qc = SuperPoly.func("Q", 0, JetVar(b)), SuperPoly.func("Q", 0, JetVar(c))
    qb1, qc1 = SuperPoly.func("Q", 1, JetVar(b)), SuperPoly.func("Q", 1, JetVar(c))
    product = qb * qc
    assert product == qc * qb and len(product.terms) == 1
    expected = (qb1 * qc * SuperPoly.from_gen(JetVar(b, d1=1))
                + qb * qc1 * SuperPoly.from_gen(JetVar(c, d1=1)))
    assert super_derive(product, D1) == expected
    assert repr(qb + qc) == "SuperPoly(1*Q^(0)(JetVar(b,0,0,0)) + 1*Q^(0)(JetVar(c,0,0,0)))"


def test_check_symmetry_matches_commutator():
    doc = catalog.get("burgers-repr").doc
    sys = doc.system()
    good = doc.flows["eq3_4_x"]
    assert check_symmetry(sys, good).is_zero
    assert commutator(sys.as_flow(), good).is_zero
    # a perturbed flow must fail both ways
    bad = Flow(
        {u: good.components[u] + jet_poly(u, m=1) * jet_poly(sys.fields[1])
         for u in sys.fields},
        good.parameter_parity,
    )
    assert not check_symmetry(sys, bad).is_zero
    assert not commutator(sys.as_flow(), bad).is_zero


def _by_parts(sys, phi):
    """The symmetry residual as the difference of two derivations."""
    return {u: dt_apply(sys, phi.components[u]) - evolutionary_apply(phi, sys.rhs[u])
            for u in sys.fields}


def test_symmetry_residuals_are_the_difference_where_they_do_not_vanish():
    """``check_symmetry`` builds each component in one dict; it equals the
    t-derivative minus the evolutionary derivation, with canonical
    coefficients, on a flow that is not a symmetry and on the odd ansatz
    of bous-embed at weight -7/2, whose residual is linear in the
    unknowns."""
    doc = catalog.get("burgers-repr").doc
    burgers = doc.system()
    good = doc.flows["eq3_4_x"]
    bad = Flow({u: good.components[u] + Q(3, 2) * jet_poly(u, m=1) * jet_poly(burgers.fields[1])
                for u in burgers.fields}, good.parameter_parity)
    embed = catalog.get("bous-embed").doc
    bous = embed.system()
    comps, names, _ = build_flow_ansatz(bous, embed.weight_system(), Q(-7, 2), ODD)
    assert names
    for sys, phi in ((burgers, bad), (bous, Flow(comps, ODD))):
        before = {u: dict(p.terms) for u, p in phi.components.items()}
        res = check_symmetry(sys, phi)
        assert res.parameter_parity == phi.parameter_parity
        assert res.components == _by_parts(sys, phi)
        assert all(not r.is_zero for r in res.components.values())
        assert all(is_canonical(c) for r in res.components.values() for c in r.terms.values())
        assert {u: p.terms for u, p in phi.components.items()} == before


def _count_odd_merges(monkeypatch):
    """Count every ``_merge_odds`` call, from the kernel and from products."""
    calls = []
    real = algebra._merge_odds

    def counted(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(algebra, "_merge_odds", counted)
    monkeypatch.setattr(jets, "_merge_odds", counted)
    return calls


def _placed_odd_image_terms(p, gen_image):
    """The image terms with an odd word that the kernel places on p: one
    per slot of a generator and term of its image with odd factors."""
    n = 0
    for evens, odds, funcs, _params in p.terms:
        for g in [g for g, _x in evens] + [arg for _n, _k, arg in funcs] + list(odds):
            n += sum(1 for key in gen_image(g).terms if key[1])
    return n


def test_each_placed_image_term_takes_at_most_one_odd_merge(monkeypatch):
    """The kernel places an image term with a single ``_merge_odds`` call,
    and only when both the image term and the slot's rest word have odd
    factors.  Placing it left of the slot and then merging the odd word
    right of the slot takes two merges, and one for an image term without
    odd factors, which breaks this bound on both derivations below."""
    p = (prod([JetVar(b), JetVar(b), JetVar(f), JetVar(b, 1), JetVar(f, 0, 0, 1),
               JetVar(b, 1, 0, 1)])
         + prod([JetVar(b, 1), JetVar(f, 0, 0, 2), JetVar(b, 0, 0, 1), JetVar(f)], Q(3, 4)))
    flow = Flow({b: prod([JetVar(f, 0, 0, 1)]) + prod([JetVar(b), JetVar(f)]),
                 f: prod([JetVar(b, 0, 0, 1)]) + prod([JetVar(b), JetVar(f, 1)])}, ODD)
    cases = [(lambda q: super_derive(q, D1), lambda g: _derive_gen(g, D1)),
             (lambda q: evolutionary_apply(flow, q), _prolonged(flow.components.__getitem__))]
    for derive, gen_image in cases:
        derive(p)  # fills the jet tables the images are read from
        calls = _count_odd_merges(monkeypatch)
        derive(p)
        assert 0 < len(calls) <= _placed_odd_image_terms(p, gen_image)


def test_adding_flows_of_different_parameter_parity_raises():
    even = Flow({b: SuperPoly.from_gen(JetVar(b, 0, 0, 1))}, EVEN)
    odd = Flow({b: SuperPoly.from_gen(JetVar(f))}, ODD)
    with pytest.raises(ParityError):
        even + odd


def test_generator_equality_and_hash_fields():
    w1 = Nonlocality("w", EVEN, 1, weight=Q(1, 2))
    w2 = Nonlocality("w", EVEN, 1, defs={DX: SuperPoly.from_gen(JetVar(b))}, base=b)
    assert w1 == w2 and hash(w1) == hash(w2)
    assert Phantom("B", EVEN, 1, base=b) != Phantom("B", EVEN, 1, base=f)
    assert JetVar(w1, m=1) == JetVar(w2, m=1) and hash(JetVar(w1)) == hash(JetVar(w2))


def test_evolutionary_derivation_is_even_leibniz(rng):
    flow = catalog.get("burgers-repr").doc.flows["eq3_4_x"]
    gens = [JetVar(u, d1, 0, m) for u in flow.components for d1 in (0, 1) for m in (0, 1)]
    for _ in range(60):
        a = random_monomial(rng, gens)
        c = random_monomial(rng, gens)
        assert evolutionary_apply(flow, a * c) == evolutionary_apply(
            flow, a
        ) * c + a * evolutionary_apply(flow, c)


# ---------------------------------------------------------------------------
# substitution and nonlocal jets


def test_substitute_identity(rng):
    for _ in range(40):
        p = random_poly(rng, GENS1)
        mapping = {b: SuperPoly.from_gen(JetVar(b)), f: SuperPoly.from_gen(JetVar(f))}
        assert substitute(p, mapping) == p


def test_substitute_respects_chain_rule():
    # map b -> b^2: Dx must act through the substitution
    p = SuperPoly.from_gen(JetVar(b, m=1))
    mapping = {b: SuperPoly.from_gen(JetVar(b)) ** 2}
    want = SuperPoly.scalar(2) * SuperPoly.from_gen(JetVar(b)) * SuperPoly.from_gen(
        JetVar(b, m=1)
    )
    assert substitute(p, mapping) == want


def test_substitute_params():
    p = SuperPoly.param("alpha") * SuperPoly.from_gen(JetVar(b)) + SuperPoly.param(
        "alpha", 2
    )
    out = substitute_params(p, {"alpha": Q(1, 2)})
    want = SuperPoly.scalar(Q(1, 2)) * SuperPoly.from_gen(JetVar(b)) + SuperPoly.scalar(
        Q(1, 4)
    )
    assert out == want


def test_substitute_passes_unmapped_generators_through():
    """Only the jets of mapped keys change; theta and other fields stay."""
    theta = SuperPoly.from_gen(Theta(1))
    p = theta * SuperPoly.from_gen(JetVar(f, m=1)) + SuperPoly.from_gen(JetVar(b, d1=1))
    mapping = {b: SuperPoly.scalar(2) * SuperPoly.from_gen(JetVar(b))}
    assert substitute(p, mapping) == (
        theta * SuperPoly.from_gen(JetVar(f, m=1)) + 2 * SuperPoly.from_gen(JetVar(b, d1=1)))


def test_substitute_refuses_a_function_argument():
    p = SuperPoly.func("Q", 0, JetVar(b)) * SuperPoly.from_gen(JetVar(f))
    assert substitute(p, {f: SuperPoly.from_gen(JetVar(f, m=1))}) == (
        SuperPoly.func("Q", 0, JetVar(b)) * SuperPoly.from_gen(JetVar(f, m=1)))
    with pytest.raises(ValueError, match="argument of function factor Q"):
        substitute(p, {b: SuperPoly.from_gen(JetVar(b, m=1))})


def test_substitute_params_negative_powers():
    """A negative power takes a nonzero rational value; 0 and a value with
    parameters are refused."""
    p = SuperPoly.param("alpha", -2) * SuperPoly.from_gen(JetVar(b))
    assert substitute_params(p, {"alpha": Q(1, 2)}) == 4 * SuperPoly.from_gen(JetVar(b))
    with pytest.raises(ZeroDivisionError):
        substitute_params(p, {"alpha": 0})
    with pytest.raises(ValueError, match="non-scalar"):
        substitute_params(p, {"alpha": SuperPoly.param("beta")})


def test_nonlocal_jets_reduce_to_declared_values():
    doc = catalog.get("skdv-a").doc
    for w in doc.nonlocals.values():
        for direction, value in w.defs.items():
            if direction == DX:
                assert nonlocal_jet(w, m=1) == value
            elif direction == D1:
                assert nonlocal_jet(w, d1=1) == value
        # second derivatives agree regardless of the reduction path
        if D1 in w.defs:
            assert nonlocal_jet(w, m=1) == super_derive(w.defs[D1], D1)


def test_nonlocal_bare_jet_stays_symbolic():
    doc = catalog.get("skdv-a").doc
    for w in doc.nonlocals.values():
        assert nonlocal_jet(w) == SuperPoly.from_gen(JetVar(w))


def test_nonlocal_jets_reduce_through_a_declared_d2():
    """A non-local variable with only D2 declared: a jet that applies D2
    reduces through that value, with D2 D1 = -D1 D2 and D2^2 = Dx."""
    value = SuperPoly.from_gen(JetVar(u2)) * JetVar(u2, 0, 1, 0)
    r = Nonlocality("r", EVEN, 2, defs={D2: value})
    jet_r = jet_poly(r)
    assert super_derive(jet_r, D2) == value
    assert super_derive(super_derive(jet_r, D2), D1) == super_derive(value, D1)
    assert super_derive(super_derive(jet_r, D1), D2) == -super_derive(value, D1)
    assert super_derive(jet_r, DX) == super_derive(value, D2)
    assert nonlocal_jet(r, d1=1, d2=1, m=1) == apply_ops(value, [DX, D1])
    assert nonlocal_jet(r, d1=1) == SuperPoly.from_gen(JetVar(r, 1, 0, 0))


@pytest.mark.parametrize("exp, value, want", [
    (-1, 3, Q(1, 3)), (-2, Q(2, 3), Q(9, 4)), (-3, -2, Q(-1, 8)), (-1, Q(1, 3), 3)])
def test_a_negative_power_of_a_rational_is_exact(exp, value, want):
    """A negative power of an int value is a Fraction, never a float, and an
    integral result is an int."""
    p = SuperPoly.param("a", exp) * SuperPoly.from_gen(JetVar(b))
    (c,) = substitute_params(p, {"a": value}).terms.values()
    assert c == want and type(c) is type(want)


# ---------------------------------------------------------------------------
# the jet table of a value (``prolong``)


def _gens_of(sym, n=4):
    return [SuperPoly.from_gen(JetVar(sym, 0, 0, m)) for m in range(n)]


def test_a_later_declaration_refreshes_the_memoized_jets():
    """Jets memoized while w_x was a coordinate reduce through its
    declaration once it is made."""
    w = Nonlocality("w", EVEN, 1)
    bb = SuperPoly.from_gen(JetVar(b))
    p = jet_poly(w) * bb + jet_poly(w, d1=1) * JetVar(f)
    stale = {jet: prolong(p, *jet) for jet in ((0, 0, 1), (1, 0, 2), (0, 0, 3))}
    assert JetVar(w, 0, 0, 1) in stale[(0, 0, 1)].generators()
    declare(w, DX, bb * bb)
    for (d1, d2, m), old in stale.items():
        fresh = apply_ops(p, [DX] * m + [D1] * d1)
        assert prolong(p, d1, d2, m) == fresh != old
        assert all(g.fieldsym is not w or not g.m for g in fresh.generators())


@pytest.mark.parametrize("clone", [
    lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy])
def test_a_pickle_or_copy_carries_no_jet_table(clone):
    p = SuperPoly.from_gen(JetVar(b, 1, 0, 0)) * JetVar(f) + Q(1, 2)
    filled = prolong(p, 1, 0, 1)
    c = clone(p)
    assert c == p and c.terms == p.terms and c.terms is not p.terms
    assert c._jets is None
    assert prolong(c, 1, 0, 1) == filled and prolong(c, 1, 0, 1) is not filled
    assert prolong(p, 1, 0, 1) is filled


def test_every_constructor_starts_an_empty_jet_table():
    x = SuperPoly.from_gen(JetVar(b))
    prolong(x, 1, 0, 1)
    built = [
        SuperPoly({((), (), (), ()): 2}), SuperPoly.zero(), SuperPoly.scalar(3),
        SuperPoly.param("alpha"), SuperPoly.from_gen(JetVar(b)), x + x, x * x, -x,
        x - 1, x / 2, super_derive(x, D1), prolong(x, 0, 0, 1), substitute(x, {b: x * x}),
    ]
    assert all(p._jets is None for p in built)


def test_declare_validates_before_it_writes():
    w = Nonlocality("w", EVEN, 1)
    even = SuperPoly.from_gen(JetVar(b))
    with pytest.raises(ParityError):
        declare(w, D1, even)  # D1 of an even variable is odd
    with pytest.raises(ParityError):
        declare(w, DX, SuperPoly.from_gen(JetVar(f)))
    with pytest.raises(ValueError, match="unknown direction"):
        declare(w, "Dy", even)
    assert w.defs == {}
    declare(w, DX, even)
    assert w.defs == {DX: even}


# ---------------------------------------------------------------------------
# the image table of D1, D2 and Dx, and Dt images from the jet tables


def test_equal_nonlocals_of_different_documents_keep_their_own_images():
    """The image tables are keyed by a generator's identity: ``v`` of
    skdv-a, skdv-b, skdv-c and dbous are equal values, and so are ``w`` of
    skdv-a, skdv-b, burgers-repr and dbous, but their declarations differ.
    Each shadow-R check passes, run forward and then reversed in one
    process, and a jet of each document's non-local derives to that
    document's own declared values."""
    entries = [catalog.get(cid) for cid in ("skdv-a", "skdv-b", "skdv-c", "dbous")]
    shadow_r = [dict(e.checks)["shadow-R"] for e in entries]
    for check in shadow_r + shadow_r[::-1]:
        assert check()[0]
    docs = [e.doc for e in entries] + [catalog.get("burgers-repr").doc]
    pairs = [(doc, doc.system()) for doc in docs]
    for doc, sys in pairs + pairs[::-1]:
        for w in doc.nonlocals.values():
            jet = jet_poly(w)
            for direction, value in w.defs.items():
                got = dt_apply(sys, jet) if direction == DT else super_derive(jet, direction)
                assert got == value, (doc.name, w.name, direction)


def test_a_declaration_drops_the_image_table_and_the_jet_tables():
    """After a new Dx value is declared, a jet of the non-local derives to
    it along Dx, and so does its jet in the Dt image of a system whose
    right-hand side reads it."""
    bb, b_x = SuperPoly.from_gen(JetVar(b)), SuperPoly.from_gen(JetVar(b, 0, 0, 1))
    w = Nonlocality("w", EVEN, 1, defs={DX: bb})
    jw = jet_poly(w)
    sys = EvolutionSystem((b,), {b: bb * jw})
    assert super_derive(jw, DX) == bb
    assert dt_apply(sys, b_x) == b_x * jw + bb * bb
    declare(w, DX, bb * bb * bb)
    assert super_derive(jw, DX) == bb * bb * bb
    assert dt_apply(sys, b_x) == b_x * jw + bb**4


@pytest.mark.parametrize("clone", [
    lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy])
def test_an_unpooled_clone_derives_like_its_pooled_generator(clone):
    doc = catalog.get("dbous").doc
    sys = doc.system()
    nl = doc.nonlocals
    for g in (JetVar(doc.fields["b"], 1, 0, 1), JetVar(doc.fields["f"], 0, 0, 2),
              JetVar(nl["v"]), JetVar(nl["w"]), Theta(1)):
        c = clone(g)
        assert c == g and c is not g
        p, q = SuperPoly.from_gen(g), SuperPoly.from_gen(c)
        for direction in (D1, DX):
            assert super_derive(q, direction) == super_derive(p, direction)
        assert dt_apply(sys, q) == dt_apply(sys, p)


def test_each_generator_image_is_built_once_per_epoch(monkeypatch):
    """``_derive_gen`` runs at most once per generator, direction and
    epoch, so a second ``super_derive`` of the same polynomial builds no
    image, and a shadow step reuses them too.  Dt images are jets of the
    right-hand sides, so a second ``check_symmetry`` on a second system
    of the same document derives nothing: every jet comes from the
    right-hand sides' tables."""
    dbous, burgers = catalog.get("dbous").doc, catalog.get("burgers-repr").doc
    declare(Nonlocality("z", EVEN, 1), DX, SuperPoly.zero())  # a new epoch: empty tables
    built, derived = Counter(), []
    derive_gen, derive = jets._derive_gen, jets.super_derive

    def spy(g, direction):
        built[id(g), direction, jets._epoch] += 1
        return derive_gen(g, direction)

    def spy_derive(p, direction):
        derived.append(direction)
        return derive(p, direction)

    monkeypatch.setattr(jets, "_derive_gen", spy)
    c0 = FieldSymbol("c", EVEN, 0)
    p = (prod([JetVar(b), JetVar(f, 1), JetVar(c0, 0, 0, 1)])
         + prod([JetVar(u2, 1, 1), JetVar(u2, 0, 1)], Q(2, 3)))
    for direction in (D1, D2, DX):
        first = super_derive(p, direction)
        n = sum(built.values())
        assert n and super_derive(p, direction) == first and sum(built.values()) == n
    recursion.apply_shadow(dbous.shadows["R"], dbous.flows["seed_x"], dbous.weight_system())
    assert max(built.values()) == 1
    monkeypatch.setattr(jets, "super_derive", spy_derive)
    phi = burgers.flows["eq3_4_x"]
    assert check_symmetry(burgers.system(), phi).is_zero
    n = len(derived)
    assert check_symmetry(burgers.system(), phi).is_zero
    assert n and len(derived) == n
