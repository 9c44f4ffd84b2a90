"""Shadows of recursion operators: verification, application, nilpotency."""

from fractions import Fraction

import pytest

from superjet import catalog, recursion
from superjet.algebra import D1, DX, EVEN, ODD, FieldSymbol, JetVar, SuperPoly, prod
from superjet.determine import LinearEquation
from superjet.grammar import parse_expression
from superjet.jets import dt_apply, super_derive
from superjet.recursion import (
    NotIntegrableError,
    _forced_zero,
    Shadow,
    apply_shadow,
    compose,
    d_integrate,
    differential_order,
    flow_order,
    is_local,
    nilpotency_order,
    shadow_is_valid,
    shadow_power,
    verify_shadow,
)
from superjet.weights import WeightSystem

from conftest import cached_entry

Q = Fraction


def test_every_catalog_shadow_verifies():
    checked = 0
    for entry_id in catalog.ids():
        e = cached_entry(entry_id)
        for doc in e.docs.values():
            for name, sh in doc.shadows.items():
                residuals = verify_shadow(sh)
                for u, r in residuals.items():
                    assert r.is_zero, (entry_id, name, u.name)
                checked += 1
    assert checked >= 10


def test_perturbed_shadow_fails():
    doc = cached_entry("burgers-repr").doc
    sh = doc.shadows["R"]
    f = doc.fields["f"]
    ph = sh.frame.phantoms[f]
    bad_comp = dict(sh.components)
    bad_comp[f] = bad_comp[f] + SuperPoly.from_gen(JetVar(ph, 0, 0, 1))
    bad = Shadow(sh.frame, bad_comp, sh.parameter_parity)
    assert not shadow_is_valid(bad)


def test_application_reproduces_recorded_targets():
    e = cached_entry("burgers-repr")
    doc = e.doc
    ws = doc.weight_system()
    for seed, target, fixture in (
        ("seed_x", "eq3_4_x", "R-on-fx"),
        ("seed_t", "eq3_4_t", "R-on-ft"),
        ("seed_susy", "eq3_5", "R-on-susy"),
    ):
        out = apply_shadow(doc.shadows["R"], doc.flows[seed], ws)
        assert (out - doc.flows[target].scaled(e.scales[fixture])).is_zero


def test_application_with_rational_scale():
    e = cached_entry("skdv-a")
    doc = e.doc
    out = apply_shadow(doc.shadows["R"], doc.flows["seed_x"], doc.weight_system())
    assert e.scales["R-on-fx"] == Q(3)
    assert (out - doc.flows["eq_rhs"].scaled(Q(3))).is_zero


def test_exact_integration_round_trip(rng):
    doc = cached_entry("skdv").doc
    ws = doc.weight_system()
    sys = doc.system()
    (f,) = sys.fields
    gens = [JetVar(f, d1, 0, m) for d1 in (0, 1) for m in (0, 1, 2)]
    for direction in (DX, D1):
        for _ in range(25):
            word = [rng.choice(gens) for _ in range(rng.randint(1, 2))]
            p = prod(word, Q(rng.randint(1, 3)))
            target = super_derive(p, direction)
            if target.is_zero:
                continue
            q = d_integrate(target, direction, ws, sys.fields)
            assert (super_derive(q, direction) - target).is_zero


def test_non_integrable_density_raises():
    doc = cached_entry("pskdv").doc
    sys = doc.system()
    flux = dt_apply(sys, doc.functionals["rho2"])
    ws = doc.weight_system()
    # the time-flux of 1/2*b^2 has an exact D-preimage but no Dx-preimage
    q = d_integrate(flux, D1, ws, sys.fields)
    assert (super_derive(q, D1) - flux).is_zero
    with pytest.raises(NotIntegrableError):
        d_integrate(flux, DX, ws, sys.fields)


def test_no_preimage_raises_after_every_unknown_is_forced_to_zero(monkeypatch):
    doc = cached_entry("pskdv").doc
    forced = []

    def record(eqs):
        zero = _forced_zero(eqs)
        forced.append(({n for eq in eqs for n in eq.coeffs}, zero))
        return zero

    monkeypatch.setattr(recursion, "_forced_zero", record)
    target = parse_expression("b_x^2", doc.scope)
    with pytest.raises(NotIntegrableError):
        d_integrate(target, DX, doc.weight_system(), doc.system().fields)
    ((unknowns, zero),) = forced
    assert unknowns and zero == unknowns


def test_parametric_target_integrates():
    b = FieldSymbol("b", EVEN, 1)
    ws = WeightSystem({b: Q(1)}, {"alpha": Q(0)})
    target = SuperPoly.param("alpha") * JetVar(b) * JetVar(b, 0, 0, 1)
    q = d_integrate(target, DX, ws, [b])
    assert q == SuperPoly.param("alpha") * JetVar(b) * JetVar(b) / 2
    assert super_derive(q, DX) == target


def test_mixed_parity_target_splits():
    b = FieldSymbol("b", EVEN, 1)
    f = FieldSymbol("f", ODD, 1)
    ws = WeightSystem({b: Q(1), f: Q(1)})
    pre = prod([JetVar(b), JetVar(b)]) + prod([JetVar(b), JetVar(f)])
    target = super_derive(pre, DX)
    assert target.parity() is None
    assert d_integrate(target, DX, ws, [b, f]) == pre


def test_forced_zero_needs_a_rational_coefficient_and_no_constant():
    one, alpha = SuperPoly.one(), SuperPoly.param("alpha")
    zero = SuperPoly.zero()
    # c1 is forced, which leaves c0 alone in an equation, but only through alpha
    eqs = [LinearEquation({"c0": alpha, "c1": one}, zero),
           LinearEquation({"c1": 2 * one}, zero)]
    assert _forced_zero(eqs) == {"c1"}
    assert _forced_zero([LinearEquation({"c0": alpha}, zero)]) == set()
    assert _forced_zero([LinearEquation({"c0": one}, one)]) == set()
    # a chain: c2 forces c1, which forces c0
    eqs = [LinearEquation({"c0": one, "c1": one}, zero),
           LinearEquation({"c1": -one, "c2": 3 * one}, zero),
           LinearEquation({"c2": one}, zero)]
    assert _forced_zero(eqs) == {"c0", "c1", "c2"}


def test_zero_order_shadows_square_to_zero():
    doc = cached_entry("hospital-1").doc
    r1, r2, r3 = doc.shadows["R1"], doc.shadows["R2"], doc.shadows["R3"]
    for sh in (r1, r3):
        assert shadow_power(sh, 2).is_zero
        assert nilpotency_order(sh, 6) == 2
        assert shadow_power(sh, 4).is_zero
    assert nilpotency_order(r2, 4) is None
    assert not shadow_power(r2, 3).is_zero


def test_compose_matches_power():
    doc = cached_entry("hospital-1").doc
    r2 = doc.shadows["R2"]
    assert not compose(r2, r2).is_zero
    sq = compose(r2, r2)
    for u, p in shadow_power(r2, 2).components.items():
        assert (p - sq.components[u]).is_zero


def test_order_helpers():
    doc = cached_entry("burgers-repr").doc
    flow = doc.flows["eq3_4_x"]
    assert flow_order(flow) == 2
    assert is_local(flow)
    f = doc.fields["f"]
    # two x-derivatives plus a half-step odd derivative round up to 3
    assert differential_order(SuperPoly.from_gen(JetVar(f, 1, 0, 2))) == 3
