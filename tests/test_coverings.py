"""Nonlocal extensions: compatibility conditions and linearization."""

from fractions import Fraction

import pytest

from superjet import catalog, coverings
from superjet.algebra import D1, D2, DX, DT, EVEN, FieldSymbol, ParityError, SuperPoly, JetVar, Theta
from superjet.coverings import (
    Covering,
    check_covering,
    covering_is_consistent,
    is_phantom,
    linearize,
    phantom_name,
)
from superjet.grammar import parse_document
from superjet.jets import Nonlocality, check_definition


Q = Fraction


def test_every_catalog_covering_is_consistent():
    checked = 0
    for entry_id in catalog.ids():
        e = catalog.get(entry_id)
        for doc in e.docs.values():
            if not doc.nonlocals:
                continue
            cov = doc.covering()
            residuals = check_covering(cov)
            for key, r in residuals.items():
                assert r.is_zero, (entry_id, key)
            assert covering_is_consistent(cov)
            checked += 1
    assert checked >= 6


def test_mutated_covering_is_detected():
    doc = catalog.get("superburg").doc
    w = doc.nonlocals["w"]
    bad_defs = dict(w.defs)
    b = doc.fields["b"]
    bad_defs[DT] = bad_defs[DT] + SuperPoly.from_gen(JetVar(doc.fields["f"], 0, 0, 1)) * JetVar(b)
    w_bad = Nonlocality(w.name, w.parity, w.n_susy, weight=w.weight, defs=bad_defs)
    cov = Covering(doc.system(), (w_bad,))
    assert not covering_is_consistent(cov)


def _covering_of(source):
    doc = parse_document(source)
    return doc, check_covering(doc.covering())


def test_covering_identities_of_d_and_dx():
    """D(w) and w_x declared together: D(D(w)) = w_x and D commutes with
    Dx; a z_x off by a factor 2 breaks both and the Dx-Dt identity."""
    doc, res = _covering_of(
        "field u even susy 1 weight 1;\ntime weight -3;\nu_t = u_xxx;\n"
        "nonlocal w odd weight 1/2: D(w) = u, w_x = Du, w_t = Du_xx;\n"
        "nonlocal z odd weight 1/2: D(z) = u, z_x = 2*Du, z_t = Du_xx;\n")
    assert set(res) == {(n, a, b) for n in "wz" for a, b in
                        ((D1, DT), (DX, DT), (D1, DX), (DX, D1))}
    bad = {key for key, r in res.items() if not r.is_zero}
    assert bad == {("z", D1, DX), ("z", DX, D1), ("z", DX, DT)}
    u = doc.fields["u"]
    assert res[("z", D1, DX)] == -SuperPoly.from_gen(JetVar(u, 1, 0, 0))
    assert res[("z", DX, D1)] == SuperPoly.from_gen(JetVar(u, 0, 0, 1))


def test_covering_identity_of_d1_and_d2():
    """D1(p) and D2(p) declared together must anticommute: D2 D1 p + D1 D2 p = 0."""
    doc, res = _covering_of(
        "field b even susy 2 weight 1;\ntime weight -2;\nb_t = b_xx;\n"
        "nonlocal p even susy 2 weight 1: D1(p) = D1b, D2(p) = D2b;\n"
        "nonlocal q even susy 2 weight 1: D1(q) = D1b, D2(q) = 2*D2b;\n")
    assert set(res) == {("p", D1, D2), ("q", D1, D2)}
    assert res[("p", D1, D2)].is_zero
    assert res[("q", D1, D2)] == SuperPoly.from_gen(JetVar(doc.fields["b"], 1, 1, 0))


def test_phantom_names():
    assert phantom_name("w") == "W"
    assert phantom_name("vt") == "VT"
    assert phantom_name("B") == "B^"


def test_linearization_builds_even_flow_of_matching_parities():
    doc = catalog.get("burgers-repr").doc
    frame = linearize(doc.covering())
    base = frame.base
    # one phantom per field and per nonlocality, same parity as its source
    assert len(frame.phantoms) == len(base.fields)
    for u, ph in frame.phantoms.items():
        assert is_phantom(ph)
        assert ph.parity == u.parity
    for w, ph in frame.phantom_nonlocals.items():
        assert ph.parity == w.parity
    # the phantom-extended system evolves the phantoms by the linearized rhs
    for u in base.fields:
        rhs = frame.system.rhs[frame.phantoms[u]]
        # each term carries exactly one phantom factor
        for key in rhs.terms:
            evens, odds, funcs, params = key
            count = sum(e for g, e in evens if is_phantom(g.fieldsym))
            count += sum(1 for g in odds if is_phantom(g.fieldsym))
            assert count == 1


def test_derived_cross_derivatives_commute_on_nonlocal_jets():
    """Dt(Dx(w)) computed through the covering equals Dx(Dt(w))."""
    from superjet.jets import dt_apply, super_derive

    doc = catalog.get("superburg").doc
    cov = doc.covering()
    sys = cov.system
    for w in cov.nonlocals:
        lhs = dt_apply(sys, w.defs[DX])
        rhs = super_derive(w.defs[DT], DX)
        assert (lhs - rhs).is_zero, w.name


def test_definitions_of_the_wrong_parity_are_rejected(monkeypatch):
    u = FieldSymbol("u", EVEN, 1)
    bad = {D1: SuperPoly.from_gen(JetVar(u))}  # D1 of an even variable is odd
    with pytest.raises(ParityError):
        Nonlocality("w", EVEN, 1, defs=bad)
    w = Nonlocality("w", EVEN, 1)
    with pytest.raises(ParityError):
        check_definition(w, D1, bad[D1])
    check_definition(w, D1, SuperPoly.from_gen(JetVar(u, 1)))
    # linearize checks the phantom definitions it fills in after construction
    flip = SuperPoly.from_gen(Theta(1))
    monkeypatch.setattr(coverings, "evolutionary_apply", lambda flow, e: e * flip)
    with pytest.raises(ParityError, match="must have parity"):
        linearize(catalog.get("superburg").doc.covering())
