"""Variational calculus: Euler operator, conserved densities, Hamiltonian flows."""

from fractions import Fraction

import pytest

from superjet import catalog
from superjet.algebra import D1, D2, DX, EVEN, FieldSymbol, JetVar, SuperPoly
from superjet.jets import check_symmetry, dt_apply, super_derive
from superjet.variational import (
    euler,
    hamiltonian_flow,
    is_conserved,
)

from conftest import prod

Q = Fraction


def _random_density(rng, fields, max_len=3):
    gens = [
        JetVar(u, d1, 0, m)
        for u in fields
        for d1 in (0, 1) if d1 <= u.n_susy
        for m in (0, 1, 2)
    ]
    word = [rng.choice(gens) for _ in range(rng.randint(1, max_len))]
    return prod(word, Q(rng.randint(-4, 4) or 1, rng.randint(1, 3)))


def test_euler_annihilates_total_x_derivatives(rng):
    fields = catalog.get("dbous").doc.system().fields
    count = 0
    while count < 100:
        p = _random_density(rng, fields)
        dp = super_derive(p, DX)
        if dp.is_zero:
            continue
        count += 1
        assert all(v.is_zero for v in euler(dp, fields).values())


def test_euler_annihilates_super_derivatives(rng):
    fields = catalog.get("dbous").doc.system().fields
    count = 0
    while count < 100:
        p = _random_density(rng, fields)
        dp = super_derive(p, D1)
        if dp.is_zero:
            continue
        count += 1
        assert all(v.is_zero for v in euler(dp, fields).values())


@pytest.mark.parametrize("direction", [D1, D2, DX])
def test_euler_annihilates_divergences_of_n2_fields(rng, direction):
    """On an N=2 superfield the Euler operator's D1, D2 and Dx signs
    annihilate the image of each direction."""
    fields = catalog.get("n2burgers").doc.system().fields
    gens = [JetVar(u, d1, d2, m) for u in fields
            for d1 in (0, 1) for d2 in (0, 1) for m in (0, 1, 2)]
    count = 0
    while count < 60:
        word = [rng.choice(gens) for _ in range(rng.randint(1, 3))]
        dp = super_derive(prod(word, Q(rng.randint(-4, 4) or 1, rng.randint(1, 3))),
                          direction)
        if dp.is_zero:
            continue
        count += 1
        assert all(v.is_zero for v in euler(dp, fields).values())


def test_euler_on_directed_examples():
    doc = catalog.get("pskdv").doc
    b = doc.fields["b"]
    grad = euler(doc.poly("1/2*b^2"), (b,))
    assert grad[b] == doc.poly("b")
    # integration by parts: b*b_xx and -b_x*b_x have the same gradient
    g1 = euler(doc.poly("b*b_xx"), (b,))
    g2 = euler(doc.poly("-1*b_x*b_x"), (b,))
    assert g1[b] == g2[b] == doc.poly("2*b_xx")


def test_conserved_densities_of_potential_equation():
    doc = catalog.get("pskdv").doc
    sys = doc.system()
    assert is_conserved(sys, doc.functionals["rho1"])
    assert is_conserved(sys, doc.functionals["rho2"])
    assert not is_conserved(sys, doc.poly("1/3*b^3"))
    res = euler(dt_apply(sys, doc.poly("1/3*b^3")), sys.fields)
    assert any(not v.is_zero for v in res.values())


def test_hydrodynamic_system_is_hamiltonian():
    e = catalog.get("hydro-bous")
    doc = e.doc
    sys = doc.system()
    fl = hamiltonian_flow(sys.fields, e.extras["operator"], doc.functionals["H"])
    for u in sys.fields:
        assert (fl.components[u] - sys.rhs[u]).is_zero


def test_hamiltonian_hierarchy_of_susy_boussinesq():
    e = catalog.get("dbous")
    doc = e.doc
    sys = doc.system()
    fields, op = (doc.fields["f"], doc.fields["b"]), e.extras["operator"]
    # the two lowest functionals are Casimirs
    assert hamiltonian_flow(fields, op, doc.functionals["H1_0"]).is_zero
    assert hamiltonian_flow(fields, op, doc.functionals["H2_0"]).is_zero
    # the next ones generate the recorded symmetries
    for nm, want in (
        ("H1_1", "seed_x"),
        ("H2_1", "seed_t"),
        ("H1_2", "eq4_9_x"),
        ("H2_2", "eq4_9_t"),
    ):
        fl = hamiltonian_flow(fields, op, doc.functionals[nm])
        assert check_symmetry(sys, fl).is_zero, nm
        assert (fl - doc.flows[want]).is_zero, nm


def test_an_odd_number_of_fields_pairs_the_middle_field_with_itself():
    """fields[i] evolves by the direction applied to the gradient of
    fields[n-1-i]: with H = u*v*w and Dx, u_t = Dx(u*v), v_t = Dx(u*w)
    and w_t = Dx(v*w)."""
    u, v, w = (FieldSymbol(n, EVEN, 0) for n in "uvw")

    def j(f, m=0):
        return SuperPoly.from_gen(JetVar(f, 0, 0, m))

    fl = hamiltonian_flow((u, v, w), DX, j(u) * j(v) * j(w))
    assert fl.parameter_parity == EVEN
    assert fl.components == {
        u: j(u, 1) * j(v) + j(u) * j(v, 1),
        v: j(u, 1) * j(w) + j(u) * j(w, 1),
        w: j(v, 1) * j(w) + j(v) * j(w, 1),
    }
