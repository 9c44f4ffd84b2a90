"""Parametric deformations and the conserved-density recurrence."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superjet import catalog
from superjet.algebra import JetVar, SuperPoly
from superjet.determine import extract_linear_system
from superjet.gardner import (
    _general_solution,
    deformation_is_valid,
    density_recurrence,
    resolve_conditions,
    search_deformation,
    specialize_deformation,
    verify_deformation,
)
from superjet.grammar import parse_document
from superjet.jets import substitute, substitute_params
from superjet.linsolve import as_poly, gauss_jordan
from superjet.variational import is_conserved


Q = Fraction


def test_susy_kdv_deformation_is_valid():
    e = catalog.get("skdv")
    base = e.doc.system()
    assert deformation_is_valid(base, e.extras["extended"], e.extras["miura"])


def test_hydrodynamic_deformation_is_valid():
    e = catalog.get("hydro-bous")
    base = e.doc.system()
    assert deformation_is_valid(base, e.extras["extended"], e.extras["miura"])


def test_perturbed_miura_map_fails():
    e = catalog.get("hydro-bous")
    base = e.doc.system()
    miura = dict(e.extras["miura"])
    (b, w1), (c, w2) = e.extras["correspondence"]
    miura[b] = miura[b] + SuperPoly.param("eps") * SuperPoly.from_gen(JetVar(w2))
    res = verify_deformation(base, e.extras["extended"], miura)
    assert any(not r.is_zero for r in res.values())


def test_density_recurrence_matches_recorded_table():
    e = catalog.get("hydro-bous")
    (b, w1), (c, w2) = e.extras["correspondence"]
    rows = density_recurrence(e.extras["miura"], e.extras["correspondence"], "eps", 2)
    for wf, nm in ((w1, "w1"), (w2, "w2")):
        assert len(rows[wf]) == 3
        for k in range(3):
            assert (rows[wf][k] - e.extras["densities"][nm][k]).is_zero, (nm, k)


def test_recurrence_densities_are_conserved_through_order_four():
    e = catalog.get("hydro-bous")
    sys = e.doc.system()
    rows = density_recurrence(e.extras["miura"], e.extras["correspondence"], "eps", 4)
    for row in rows.values():
        assert len(row) == 5
        for rho in row:
            assert is_conserved(sys, rho)


def untruncated_density_recurrence(miura, correspondence, eps, order):
    """The recurrence expanding every ε power: each order substitutes the
    whole truncated series and keeps the coefficient of ε^k."""
    trunc = {w: SuperPoly.from_gen(JetVar(u)) for u, w in correspondence}
    rows = {w: [trunc[w]] for _u, w in correspondence}
    for k in range(1, order + 1):
        new = {}
        for u, w in correspondence:
            img = substitute(miura[u], trunc)
            rho = -img.coefficient_of_param_power(eps, k)
            new[w] = rho
            rows[w].append(rho)
        for _u, w in correspondence:
            trunc[w] = trunc[w] + SuperPoly.param(eps, k) * new[w]
    return rows


@pytest.mark.parametrize("order", [5, 6])
def test_truncated_recurrence_matches_the_full_expansion(order):
    e = catalog.get("hydro-bous")
    args = e.extras["miura"], e.extras["correspondence"], "eps", order
    assert density_recurrence(*args) == untruncated_density_recurrence(*args)


def test_search_recovers_the_recorded_deformation():
    e = catalog.get("hydro-bous")
    doc = e.doc
    ws = doc.weight_system()
    found = search_deformation(doc.system(), ws, doc.functionals["H"], "eps", Q(-3), 2)
    assert found
    (b, w1), (c, w2) = e.extras["correspondence"]
    miura = e.extras["miura"]
    hit = False
    for d in found:
        cand = d
        if cand.free_params:
            cand = specialize_deformation(d, {n: Q(1, 6) for n in d.free_params})
        rename = {
            w1: SuperPoly.from_gen(JetVar(cand.extended.fields[0])),
            w2: SuperPoly.from_gen(JetVar(cand.extended.fields[1])),
        }
        if all((cand.miura[u] - substitute(miura[u], rename)).is_zero for u in (b, c)):
            hit = True
            # the specialized extension must still satisfy the Miura condition
            assert deformation_is_valid(doc.system(), cand.extended, cand.miura)
    assert hit


FREES = ("t1_0", "t2_0", "t3_0")
t1, t2, t3 = (SuperPoly.param(n) for n in FREES)
ZERO, TWO = SuperPoly.zero(), SuperPoly.scalar(2)


def test_linear_family_keeps_its_free_parameter():
    """t1_0 = 2*t2_0 is a one-parameter family, not a missing solution."""
    assert resolve_conditions([t1 - TWO * t2], FREES) == [({"t1_0": TWO * t2}, [])]


def test_linear_conditions_are_solved_together_and_repeated():
    """t1_0 = 1 makes t1_0*t2_0 - 3 linear in the next pass."""
    one, three = SuperPoly.one(), SuperPoly.scalar(3)
    assert resolve_conditions([t1 - one, t1 * t2 - three], FREES) == [
        ({"t1_0": one, "t2_0": three}, [])]


def test_inconsistent_conditions_leave_no_branch():
    assert resolve_conditions([t1, t1 - SuperPoly.one()], FREES) == []


def test_one_free_monomial_forces_a_zero():
    """144*t2_0**2 leaves no choice: t2_0 = 0 (the hydro-bous case)."""
    conds = [SuperPoly.scalar(144) * t2 * t2, SuperPoly.scalar(72) * (t1 * t1 * t2 - t2 * t2)]
    assert resolve_conditions(conds, FREES) == [({"t2_0": ZERO}, [])]


def test_monomials_in_several_frees_split_into_branches():
    """t1_0*t2_0 = t2_0*t3_0 = 0 holds on t2_0 = 0 and on t1_0 = t3_0 = 0;
    the branch t1_0 = t2_0 = 0 only specialises the first and is dropped."""
    assert resolve_conditions([t1 * t2, t2 * t3], FREES) == [
        ({"t1_0": ZERO, "t3_0": ZERO}, []), ({"t2_0": ZERO}, [])]


def test_irreducible_quadratic_is_kept_as_a_constraint():
    cond = t1 * t1 - TWO
    assert resolve_conditions([cond], FREES) == [({}, [cond])]


def test_conditions_in_other_parameters_are_kept():
    cond = SuperPoly.param("alpha") * t1
    assert resolve_conditions([cond, t2], FREES) == [({"t2_0": ZERO}, [cond])]


def test_a_stage_keeps_its_generic_solution_past_a_leftover_row():
    """The stage rows a0 = t1_0 and a0 = 1 leave the row 0 = 1 - t1_0 over,
    a condition on the earlier free t1_0.  The stage still takes its
    generic solution, a0 = t1_0 with a1 free, and the final pass, whose
    conditions contain that row again, resolves it."""
    a0, one = SuperPoly.param("a0"), SuperPoly.one()
    names = ["a0", "a1"]
    red = gauss_jordan(extract_linear_system([a0 - t1, a0 - one], names), names)
    leftover = [as_poly(a) for a in red.leftover]
    assert leftover == [one - t1]
    assert _general_solution(red, names, ["t2_0"]) == {"a0": t1, "a1": SuperPoly.param("t2_0")}
    assert resolve_conditions(leftover, FREES) == [({"t1_0": one}, [])]


@st.composite
def condition_systems(draw):
    """One to four conditions, each a sum of up to three terms of degree
    at most two in three frees."""
    monomial = st.sampled_from([(), ((0, 1),), ((1, 1),), ((2, 1),), ((0, 2),),
                                ((0, 1), (1, 1)), ((1, 1), (2, 1)), ((2, 2),)])
    conds = []
    for _ in range(draw(st.integers(1, 4))):
        terms = {}
        for mono in draw(st.lists(monomial, min_size=1, max_size=3)):
            key = ((), (), (), tuple((FREES[i], x) for i, x in mono))
            terms[key] = Q(draw(st.integers(-3, 3)))
        conds.append(SuperPoly(terms))
    return conds


@settings(max_examples=200, deadline=None)
@given(condition_systems())
def test_every_branch_satisfies_the_conditions_up_to_its_constraints(conds):
    """Substituting a branch's values zeroes every condition or leaves one of
    its constraints; a branch with no constraints zeroes them all."""
    for values, constraints in resolve_conditions(conds, FREES):
        assert set(values) <= set(FREES)
        for cond in conds:
            rest = substitute_params(cond, values)
            assert rest.is_zero or rest in constraints


@pytest.fixture(scope="module")
def hydro_search():
    e = catalog.get("hydro-bous")
    doc = e.doc
    return doc.system(), search_deformation(
        doc.system(), doc.weight_system(), doc.functionals["H"], "eps", Q(-3), 2)


@settings(max_examples=10, deadline=None)
@given(st.fractions(max_denominator=7))
def test_unconstrained_deformations_verify_at_any_free_value(hydro_search, value):
    base, found = hydro_search
    assert found
    for d in found:
        assert not d.constraints
        cand = specialize_deformation(d, dict.fromkeys(d.free_params, value))
        assert all(r.is_zero for r in verify_deformation(base, cand.extended, cand.miura).values())


def test_a_parameter_named_like_a_stage_unknown():
    """The stage unknowns cannot clash with a parameter of the base
    system: a parameter a0 gives what the same parameter named k gives."""
    found = []
    for name in ("k", "a0"):
        doc = parse_document(
            f"field b even susy 0 weight 2;\nfield c even susy 0 weight 3;\n"
            f"param eps weight -3;\nparam {name} weight 0;\ntime weight -2;\n"
            f"b_t = c_x;\nc_t = {name}*b*b_x;\n")
        H0 = doc.poly(f"1/6*{name}*b^3 + 1/2*c^2")
        (d,) = search_deformation(doc.system(), doc.weight_system(), H0, "eps", Q(-3), 2)
        found.append([substitute_params(p, {name: Q(5)}) for p in d.miura.values()])
    assert found[0] == found[1]


def test_a_parameter_named_like_a_freedom_of_the_search():
    """The search names its freedoms t1_0, t1_1, ... and skips the names a
    document declares: a parameter t1_0 gives what the same parameter
    named k gives, up to the renaming."""
    found = {}
    for name in ("k", "t1_0"):
        doc = parse_document(
            f"field b even susy 0 weight 2;\nfield c even susy 0 weight 3;\n"
            f"param eps weight -3;\nparam {name} weight 0;\ntime weight -2;\n"
            f"b_t = c_x;\nc_t = {name}*b*b_x;\n")
        H0 = doc.poly(f"1/6*{name}*b^3 + 1/2*c^2")
        (found[name],) = search_deformation(doc.system(), doc.weight_system(), H0, "eps",
                                            Q(-3), 2)
    k, t = found["k"], found["t1_0"]
    assert k.free_params and "t1_0" not in t.free_params
    rename = {"t1_0": SuperPoly.param("k"),
              **{a: SuperPoly.param(b) for a, b in zip(t.free_params, k.free_params, strict=True)}}
    assert {u: substitute_params(p, rename) for u, p in t.miura.items()} == k.miura
    assert substitute_params(t.hamiltonian, rename) == k.hamiltonian
