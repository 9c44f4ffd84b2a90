"""Shadows of recursion operators: verification, application, nilpotency."""

from fractions import Fraction
from itertools import product
from math import ceil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from superjet import catalog, recursion
from superjet.algebra import (
    D1,
    D2,
    DX,
    EVEN,
    ODD,
    FieldSymbol,
    JetVar,
    SuperPoly,
    linear_ansatz,
    poly_sum,
)
from superjet.determine import extract_linear_system, solve_linear
from superjet.grammar import parse_document, parse_expression
from superjet.linsolve import NonlinearSystemError
from superjet.jets import (
    Flow,
    Nonlocality,
    declare,
    dt_apply,
    evolutionary_apply,
    jet_poly,
    super_derive,
)
from superjet.recursion import (
    NotIntegrableError,
    NotLinearInPhantomsError,
    Shadow,
    apply_shadow,
    compose,
    d_integrate,
    differential_order,
    flow_order,
    is_local,
    iterate,
    nilpotency_order,
    shadow_is_valid,
    shadow_power,
    verify_shadow,
)
from superjet.weights import AnsatzItem, WeightSystem

from conftest import apply_ops, integration_ansatz_parts, is_canonical, prod

Q = Fraction


def test_every_catalog_shadow_verifies():
    checked = 0
    for entry_id in catalog.ids():
        e = catalog.get(entry_id)
        for doc in e.docs.values():
            for name, sh in doc.shadows.items():
                residuals = verify_shadow(sh)
                for u, r in residuals.items():
                    assert r.is_zero, (entry_id, name, u.name)
                checked += 1
    assert checked >= 10


def test_perturbed_shadow_fails():
    doc = catalog.get("burgers-repr").doc
    sh = doc.shadows["R"]
    f = doc.fields["f"]
    ph = sh.frame.phantoms[f]
    bad_comp = dict(sh.components)
    bad_comp[f] = bad_comp[f] + SuperPoly.from_gen(JetVar(ph, 0, 0, 1))
    bad = Shadow(sh.frame, bad_comp, sh.parameter_parity)
    assert not shadow_is_valid(bad)


def test_a_wrong_coefficient_leaves_the_difference_as_residual():
    """``verify_shadow`` builds each residual in one dict; with the 3/4
    of a term of the dbous shadow R made 1/4 it equals the t-derivative
    on the phantom extension minus the evolutionary derivation, and does
    not vanish."""
    doc = catalog.get("dbous").doc
    sh = doc.shadows["R"]
    comps = dict(sh.components)
    u = doc.fields["f"]
    key = next(k for k, c in comps[u].terms.items() if c == Q(3, 4))
    comps[u] = comps[u] - SuperPoly({key: Q(1, 2)})
    bad = Shadow(sh.frame, comps, sh.parameter_parity)
    flow = Flow(dict(comps), bad.parameter_parity)
    base = sh.frame.base
    res = verify_shadow(bad)
    assert list(res) == list(base.fields)
    assert res == {v: dt_apply(sh.frame.system, comps[v]) - evolutionary_apply(flow, base.rhs[v])
                   for v in base.fields}
    assert not res[u].is_zero
    assert all(is_canonical(c) for r in res.values() for c in r.terms.values())


def test_application_reproduces_recorded_targets():
    e = catalog.get("burgers-repr")
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
    e = catalog.get("skdv-a")
    doc = e.doc
    out = apply_shadow(doc.shadows["R"], doc.flows["seed_x"], doc.weight_system())
    assert e.scales["R-on-fx"] == Q(3)
    assert (out - doc.flows["eq_rhs"].scaled(Q(3))).is_zero


def test_exact_integration_round_trip(rng):
    doc = catalog.get("skdv").doc
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
    doc = catalog.get("pskdv").doc
    sys = doc.system()
    flux = dt_apply(sys, doc.functionals["rho2"])
    ws = doc.weight_system()
    # the time-flux of 1/2*b^2 has an exact D-preimage but no Dx-preimage
    q = d_integrate(flux, D1, ws, sys.fields)
    assert (super_derive(q, D1) - flux).is_zero
    with pytest.raises(NotIntegrableError):
        d_integrate(flux, DX, ws, sys.fields)


def test_no_preimage_raises_after_every_unknown_is_forced_to_zero():
    """The component of b_x^2 forces every unknown to zero, and the row of
    the target is left over."""
    doc = catalog.get("pskdv").doc
    target = parse_expression("b_x^2", doc.scope)
    with pytest.raises(NotIntegrableError):
        d_integrate(target, DX, doc.weight_system(), doc.system().fields)


# ---------------------------------------------------------------------------
# d_integrate against the whole ansatz


def _whole_ansatz_system(part, monos, direction):
    names = [f"c{i}" for i in range(len(monos))]
    residual = super_derive(linear_ansatz(names, monos), direction) - part
    return names, extract_linear_system([residual], names)


def _reference_integrate(target, direction, ws, gens, zero_weight_cap=2):
    """An exact preimage from the whole ansatz of every part: every
    monomial of the preimage's weight and parity, differentiated and
    solved at once, with no presolve.  As for ``d_integrate``, a preimage
    with a coefficient that is not a Laurent polynomial is none."""
    parts = []
    for part, monos in integration_ansatz_parts(target, direction, ws, gens,
                                                zero_weight_cap):
        names, eqs = _whole_ansatz_system(part, monos, direction)
        try:
            branches = solve_linear(eqs, names)
        except NonlinearSystemError:
            raise NotIntegrableError(f"no Laurent {direction}-preimage") from None
        if not branches:
            raise NotIntegrableError(f"no {direction}-preimage")
        sol = branches[0].particular
        parts.append(poly_sum(sol[n] * m for n, m in zip(names, monos)))
    return poly_sum(parts)


def _outcome(integrate, *args):
    """The preimage, or NotIntegrableError when there is none."""
    try:
        return integrate(*args)
    except NotIntegrableError:
        return NotIntegrableError


def _record_calls(monkeypatch):
    """The arguments of every d_integrate call that goes through the module."""
    calls = []
    real = recursion.d_integrate

    def record(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(recursion, "d_integrate", record)
    return calls


def test_integration_matches_the_whole_ansatz_on_shadow_steps_and_the_catalog(monkeypatch):
    calls = _record_calls(monkeypatch)
    doc = catalog.get("dbous").doc
    ws = doc.weight_system()
    for seed in ("seed_x", "seed_t"):
        iterate(doc.shadows["R"], doc.flows[seed], 4, ws)
    steps = len(calls)
    for entry_id in catalog.ids():
        assert all(ok for _check, ok, _detail in catalog.verify(entry_id)), entry_id
    checked = []
    for args in calls:
        if args not in checked:  # the catalog repeats the four steps
            checked.append(args)
            assert _outcome(d_integrate, *args) == _outcome(_reference_integrate, *args)
    assert steps == 16 and len(checked) > steps


def _component_sizes(target, direction, ws, gens, zero_weight_cap):
    """(unknowns, equations) of the target's connected component in the
    whole-ansatz system of each part, found by a search over the graph
    whose edges are the nonzero coefficients."""
    out = []
    for part, monos in integration_ansatz_parts(target, direction, ws, gens,
                                                zero_weight_cap):
        _names, eqs = _whole_ansatz_system(part, monos, direction)
        rows_of: dict = {}
        for i, eq in enumerate(eqs):
            for n in eq.coeffs:
                rows_of.setdefault(n, []).append(i)
        rows = {i for i, eq in enumerate(eqs) if eq.const}
        todo, unknowns = list(rows), set()
        while todo:
            for n in eqs[todo.pop()].coeffs:
                if n not in unknowns:
                    unknowns.add(n)
                    todo += [j for j in rows_of[n] if j not in rows]
                    rows.update(rows_of[n])
        out.append((len(unknowns), len(rows)))
    return out


def _record_parts(monkeypatch):
    """(direction, path) for every part solve of ``d_integrate``, in the
    order they end: "homotopy" or "route" where that path answered a Dx or
    a D part, "component" for every component solve (answered or not),
    the Dx solves of the route included."""
    solved = []
    homotopy, through_dx = recursion._homotopy, recursion._through_dx
    solve_component = recursion._solve_component

    def record_homotopy(*args):
        h = homotopy(*args)
        if h is not None:
            solved.append((DX, "homotopy"))
        return h

    def record_route(part, direction, *rest):
        h = through_dx(part, direction, *rest)
        if h is not None:
            solved.append((direction, "route"))
        return h

    def record_component(part, direction, *rest):
        solved.append((direction, "component"))
        return solve_component(part, direction, *rest)

    monkeypatch.setattr(recursion, "_homotopy", record_homotopy)
    monkeypatch.setattr(recursion, "_through_dx", record_route)
    monkeypatch.setattr(recursion, "_solve_component", record_component)
    return solved


@pytest.mark.parametrize("seed, unknowns", [("seed_x", [13, 10]), ("seed_t", [18, 13])])
def test_integration_builds_only_the_targets_component(monkeypatch, seed, unknowns):
    """With the homotopy operator switched off, every system built is the
    target's component of the whole-ansatz system; a D1 call that takes
    the route builds the Dx system of D1(target) instead of the D1 system
    of the target."""
    doc = catalog.get("dbous").doc
    ws = doc.weight_system()
    flow = iterate(doc.shadows["R"], doc.flows[seed], 2, ws)[-1]
    monkeypatch.setattr(recursion, "_homotopy", lambda *args: None)
    calls = _record_calls(monkeypatch)
    systems = []
    real = recursion.gauss_jordan

    def record(eqs, *args):
        systems.append((len({c for eq in eqs for c in eq.coeffs}), len(eqs)))
        return real(eqs, *args)

    monkeypatch.setattr(recursion, "gauss_jordan", record)
    apply_shadow(doc.shadows["R"], flow, ws)
    assert [args[1] for args in calls] == [D1, DX]
    want = []
    for target, direction, *rest in calls:
        if direction == D1:
            target, direction = super_derive(target, D1), DX
        want += _component_sizes(target, direction, *rest)
    assert systems == want
    assert [n for n, _eqs in systems] == unknowns


def test_every_d1_call_of_the_dbous_steps_takes_the_route(monkeypatch):
    calls = _record_calls(monkeypatch)
    solved = _record_parts(monkeypatch)
    doc = catalog.get("dbous").doc
    ws = doc.weight_system()
    for seed in ("seed_x", "seed_t"):
        iterate(doc.shadows["R"], doc.flows[seed], 4, ws)
    assert [args[1] for args in calls].count(D1) == 8
    assert (D1, "component") not in solved and solved.count((D1, "route")) == 8
    assert sum(direction == DX for direction, _path in solved) >= 16


def _record_homotopy(monkeypatch):
    """The answer of every ``_homotopy`` call, None where it refused."""
    answers = []
    real = recursion._homotopy

    def record(*args):
        answers.append(real(*args))
        return answers[-1]

    monkeypatch.setattr(recursion, "_homotopy", record)
    return answers


@pytest.mark.parametrize("seed", ["seed_x", "seed_t"])
def test_the_third_dbous_step_builds_no_component_system(monkeypatch, seed):
    """The homotopy operator answers both Dx solves of the step, the one
    of the routed D1 call included, so no component system is built."""
    doc = catalog.get("dbous").doc
    ws = doc.weight_system()
    flow = iterate(doc.shadows["R"], doc.flows[seed], 2, ws)[-1]
    answers = _record_homotopy(monkeypatch)

    def solve_component(*args):
        raise AssertionError("a component system was built")

    monkeypatch.setattr(recursion, "_solve_component", solve_component)
    apply_shadow(doc.shadows["R"], flow, ws)
    assert len(answers) == 2 and all(h is not None for h in answers)


def test_homotopy_answers_equal_the_component_solve(monkeypatch):
    """Every Dx solve of dbous R steps 1-6 from both seeds and of the
    catalog's apply-R checks takes the homotopy route, and its answer is
    the component's only solution."""
    solves = []
    real = recursion._integrate_part

    def record(part, direction, *rest):
        if direction == DX:
            solves.append((part, *rest))
        return real(part, direction, *rest)

    monkeypatch.setattr(recursion, "_integrate_part", record)
    doc = catalog.get("dbous").doc
    ws = doc.weight_system()
    for seed in ("seed_x", "seed_t"):
        iterate(doc.shadows["R"], doc.flows[seed], 6, ws)
    checks = [(entry_id, name, check) for entry_id in catalog.ids()
              for name, check in catalog.get(entry_id).checks if name.startswith("apply-R")]
    for entry_id, name, check in checks:
        assert check()[0], (entry_id, name)
    assert len(checks) == 5 and len(solves) == 24 + 7
    for part, wt, items in solves:
        h = recursion._homotopy(part, wt, items)
        assert h is not None
        assert recursion._solve_component(part, DX, wt, items) == (h, True)


ORACLE_ENTRIES = ("skdv", "dbous", "pskdv", "skdv-a")

# two potentials of one field, so v - w (or Dv - Dw) has zero derivative;
# a potential p of Du, so Dp - u has zero derivative; a potential c whose
# x-derivative holds the potential a, so c - u - a^2/2 has zero derivative;
# a potential a of u*u_x, so a - u^2/2 has zero derivative; a field b of
# weight 0, so a preimage of weight 0 can have the factors b and b^2; a
# potential v of (1 + alpha)*u, so a component solve pivots on 1 + alpha
DEPENDENT_COVERINGS = {
    "x-potential of Du": parse_document(
        "field u even susy 1 weight 1;\nnonlocal p odd weight 1/2: p_x = Du;\nu_t = u_xxx;\n"),
    "chained x-potentials": parse_document(
        "field u even susy 1 weight 2;\nnonlocal a even weight 1: a_x = u;\n"
        "nonlocal c even weight 2: c_x = u_x + u*a;\nu_t = u_xxx;\n"),
    "x-potential of an x-derivative": parse_document(
        "field u even susy 1 weight 1;\nnonlocal a even weight 2: a_x = u*u_x;\nu_t = u_xxx;\n"),
    "weight 0": parse_document(
        "field b even susy 1 weight 0;\nnonlocal v even weight -1: v_x = b;\nb_t = b_xxx;\n"),
    "x-potentials": parse_document(
        "field u even susy 1 weight 1;\nnonlocal v even weight 0: v_x = u;\n"
        "nonlocal w even weight 0: w_x = u;\nu_t = u_xxx;\n"),
    "D-potentials": parse_document(
        "field f odd susy 1 weight 1/2;\nnonlocal v even weight 0: D(v) = f;\n"
        "nonlocal w even weight 0: D(w) = f;\nf_t = f_xxx;\n"),
    "parametric x-potential": parse_document(
        "param alpha weight 0;\nfield u even susy 1 weight 1;\n"
        "nonlocal v even weight 0: v_x = (1 + alpha)*u;\nu_t = u_xxx;\n"),
}


@st.composite
def integration_problems(draw):
    """A target on the fields and non-local variables of a catalog entry or
    of a covering with dependent potentials, with a weight-0 parameter
    alpha: the image of a random polynomial, that image plus a random
    term, or a random polynomial."""
    source = draw(st.sampled_from(ORACLE_ENTRIES + tuple(DEPENDENT_COVERINGS)))
    doc = DEPENDENT_COVERINGS[source] if source in DEPENDENT_COVERINGS else catalog.get(source).doc
    ws0 = doc.weight_system()
    ws = WeightSystem(dict(ws0.fields), {**ws0.params, "alpha": Q(0)}, ws0.t)
    gens = list(doc.system().fields)
    for sh in doc.shadows.values():
        gens += [w for w in sh.frame.covering.nonlocals if w not in gens]
    gens += [w for w in doc.nonlocals.values() if w not in gens]
    jets = [jet_poly(u, d1, 0, m) for u in gens for d1 in (0, 1) for m in (0, 1, 2)]
    factors = st.lists(st.sampled_from(jets), min_size=1, max_size=2)
    scalars = st.sampled_from([SuperPoly.scalar(c) for c in (1, -2, Q(1, 3))]
                              + [SuperPoly.param(n) for n in ws.params])
    terms = st.tuples(scalars, factors).map(lambda t: prod(t[1], 1) * t[0])
    polys = st.lists(terms, min_size=1, max_size=2).map(poly_sum)
    direction = draw(st.sampled_from((DX, D1)))
    kind = draw(st.sampled_from(("image", "image plus a term", "random")))
    target = super_derive(draw(polys), direction) if kind != "random" else SuperPoly.zero()
    if kind != "image":
        target = target + draw(terms)
    return target, direction, ws, gens


@settings(max_examples=80, deadline=None)
@given(integration_problems())
def test_integration_matches_the_whole_ansatz_on_random_targets(problem):
    assert _outcome(d_integrate, *problem) == _outcome(_reference_integrate, *problem)


DEGENERATE_COVERING = parse_document(
    "field u even weight 1;\nnonlocal v odd weight 3/2: D(v) = 0;\n"
    "nonlocal w even weight 1: D(w) = v;\nu_t = u_xxx;\n")


@pytest.mark.parametrize("target, preimage, routed", [
    ("v", "w", False), ("v + D(u)", "u + w", False), ("D(w*u)", "u*w", True),
    ("u*v", None, False)])
def test_integration_on_a_degenerate_covering_matches_the_whole_ansatz(
        monkeypatch, target, preimage, routed):
    """D(v) = 0 and D(w) = v, so v and w have zero x-derivatives; D1 still
    integrates v to w, on the direct path, since the D-image of v is 0.
    The Dx-preimage u of the D-image of v + D(u) fails guard (ii), and
    u*v has none.  The Dx-image w*u_x of D(w*u) has the one preimage u*w
    in its component, where w, whose Dx-image is 0, meets no equation, so
    the route answers it; D has no kernel on the even jets of weight 1."""
    doc = DEGENERATE_COVERING
    args = (doc.poly(target), D1, doc.weight_system(),
            [*doc.fields.values(), *doc.nonlocals.values()])
    want = NotIntegrableError if preimage is None else doc.poly(preimage)
    assert _outcome(_reference_integrate, *args) == want
    solved = _record_parts(monkeypatch)
    assert _outcome(d_integrate, *args) == want
    assert ((D1, "route") in solved) == routed
    assert (solved[-1] == (D1, "component")) == (not routed)


@pytest.mark.parametrize("covering, target, routed", [
    ("x-potentials", "u", False), ("x-potentials", "D(u*v)", True),
    ("x-potentials", "Du*v", False), ("x-potentials", "D(v*w)", False),
    ("x-potentials", "D(Dv*Dw)", True), ("x-potentials", "u_x*Dv", True),
    ("x-potentials", "Du*(v - w)", True), ("x-potentials", "v*Dv", False),
    ("x-potential of Du", "u", False), ("x-potential of Du", "Dp + D(u*p)", True),
    ("D-potentials", "f", False), ("D-potentials", "D(v*w)", False),
    ("D-potentials", "f*(v - w)", False), ("D-potentials", "D(f*v)", True),
    ("D-potentials", "D(Df*v)", True), ("D-potentials", "f*v^2", False),
    ("D-potentials", "D(f*f_x*v)", True)])
def test_integration_with_dependent_potentials_matches_the_whole_ansatz(
        monkeypatch, covering, target, routed):
    """v - w, Dv - Dw or Dp - u lies in the kernel of D, so the D1 system
    may have a free column, and a target may have a D-image with a
    Dx-preimage but no D-preimage; the route is taken only where its
    answer is the direct one."""
    doc = DEPENDENT_COVERINGS[covering]
    args = (doc.poly(target), D1, doc.weight_system(),
            [*doc.fields.values(), *doc.nonlocals.values()])
    solved = _record_parts(monkeypatch)
    assert _outcome(d_integrate, *args) == _outcome(_reference_integrate, *args)
    assert ((D1, "route") in solved) == routed
    assert ((D1, "component") not in solved) == routed


@pytest.mark.parametrize("target, preimage", [
    ("(1 + alpha)*u", "v"), ("(1 + alpha)*u*v", "1/2*v^2"), ("u", None)])
def test_a_parametric_component_solve_pivots_on_one_plus_alpha(monkeypatch, target, preimage):
    """v_x = (1 + alpha)*u, so each target's component is solved through
    a pivot with two terms, a multiple of 1 + alpha: (1 + alpha)*u
    integrates to v and (1 + alpha)*u*v to v^2/2, while the preimage
    v/(1 + alpha) of u is not a Laurent polynomial.  All three preimages
    weigh 0, so the homotopy operator refuses them."""
    doc = DEPENDENT_COVERINGS["parametric x-potential"]
    args = (doc.poly(target), DX, doc.weight_system(),
            [*doc.fields.values(), *doc.nonlocals.values()])
    want = NotIntegrableError if preimage is None else doc.poly(preimage)
    assert _outcome(_reference_integrate, *args) == want
    solved = _record_parts(monkeypatch)
    pivots = []
    real = recursion.gauss_jordan

    def record(*args):
        red = real(*args)
        pivots.extend(pivot for pivot, _rhs in red.solved.values())
        return red

    monkeypatch.setattr(recursion, "gauss_jordan", record)
    assert _outcome(d_integrate, *args) == want
    assert solved == [(DX, "component")]
    assert pivots and all(len(p) == 2 for p in pivots)


def test_the_route_falls_back_part_by_part(monkeypatch):
    """u + D(u*v) has an odd part D(u*v) of weight 3/2, which the route
    answers, and an even part u of weight 1, whose D-image Du has the
    Dx-preimages Dv and Dw: only u reaches the direct D1 solve."""
    doc = DEPENDENT_COVERINGS["x-potentials"]
    args = (doc.poly("u + D(u*v)"), D1, doc.weight_system(),
            [*doc.fields.values(), *doc.nonlocals.values()])
    direct = []
    real = recursion._solve_component

    def record(part, direction, *rest):
        if direction == D1:
            direct.append(part)
        return real(part, direction, *rest)

    monkeypatch.setattr(recursion, "_solve_component", record)
    assert _outcome(d_integrate, *args) == _outcome(_reference_integrate, *args)
    assert direct == [doc.poly("u")]


@pytest.mark.parametrize("covering, target, answered", [
    ("x-potentials", "u_x", False), ("x-potential of Du", "u_x", False),
    ("chained x-potentials", "u_x", False), ("chained x-potentials", "u*u_x", False),
    ("x-potential of an x-derivative", "u*u_x", False),
    ("weight 0", "b*b_x", False), ("weight 0", "b_x^3 + 2*b*b_x*b_xx", True),
    ("weight 0", "b_x^2", False), ("weight 0", "v*b_x + b^2", False)])
def test_dx_integration_takes_the_homotopy_route_only_where_its_guards_hold(
        monkeypatch, covering, target, answered):
    """The homotopy operator answers only where the ansatz meets the kernel
    of Dx in 0.  It is refused where the Dx-images of the potentials are
    dependent modulo Dx-exact forms (v - w, Dp - u, a - u^2/2), where the
    Dx-image of a potential holds another potential (c - u - a^2/2), at
    preimage weight 0, on a target with no preimage and on a non-local
    target."""
    doc = DEPENDENT_COVERINGS[covering]
    args = (doc.poly(target), DX, doc.weight_system(),
            [*doc.fields.values(), *doc.nonlocals.values()])
    answers = _record_homotopy(monkeypatch)
    assert _outcome(d_integrate, *args) == _outcome(_reference_integrate, *args)
    assert answers and any(h is not None for h in answers) == answered


def test_the_kernel_guard_reads_the_declared_values():
    """v_x = u keeps v out of the kernel of Dx and v_x = 0 puts it in.  The
    two v are equal as symbols, and ``declare`` can change a value, so the
    guard's memo must tell them apart and see the change."""
    header = "field u even susy 1 weight 1;\nnonlocal v even weight 0: v_x = {};\nu_t = u_xxx;\n"
    v_free, v_const = (parse_document(header.format(value)).nonlocals["v"] for value in "u0")
    assert v_free == v_const

    def guard(v):
        return recursion._kernel_free([AnsatzItem(JetVar(v), Q(0), EVEN, 2, str(JetVar(v)))])

    assert guard(v_free) and not guard(v_const)
    declare(v_free, DX, SuperPoly.zero())
    assert not guard(v_free)


def test_integration_on_an_inconsistent_covering_takes_the_direct_path(monkeypatch):
    """D(v) = f but v_x = 2*Df, so D^2 = Dx fails on v, and the route, whose
    argument needs it on every non-local jet of the ansatz, is refused even
    for a target that v plays no part in."""
    doc = parse_document("field f odd susy 1 weight 1/2;\n"
                         "nonlocal v even weight 0: D(v) = f, v_x = 2*Df;\nf_t = f_xxx;\n")
    args = (doc.poly("D(f*f_x)"), D1, doc.weight_system(),
            [*doc.fields.values(), *doc.nonlocals.values()])
    solved = _record_parts(monkeypatch)
    assert _outcome(d_integrate, *args) == doc.poly("f*f_x") == _reference_integrate(*args)
    assert solved == [(D1, "component")]


@pytest.mark.parametrize("weight, others", [(Q(0), 1), (Q(-1), 3)])
def test_low_weight_factor_at_its_cap(weight, others):
    """b weighs 0 or -1, so its cap is zero_weight_cap = 2: b^2 times the
    other fields integrates, b^3 times them does not."""
    b = FieldSymbol("b", EVEN, 1)
    us = [FieldSymbol(f"u{i}", EVEN, 1) for i in range(others)]
    ws = WeightSystem({b: weight, **dict.fromkeys(us, Q(1))})
    for k in (2, 3):
        pre = prod([JetVar(b)] * k + [JetVar(u) for u in us])
        target = super_derive(pre, DX)
        want = _outcome(_reference_integrate, target, DX, ws, [b, *us])
        assert want == (pre if k == 2 else NotIntegrableError)
        assert _outcome(d_integrate, target, DX, ws, [b, *us]) == want


def test_parametric_target_integrates():
    b = FieldSymbol("b", EVEN, 1)
    ws = WeightSystem({b: Q(1)}, {"alpha": Q(0)})
    target = SuperPoly.param("alpha") * JetVar(b) * JetVar(b, 0, 0, 1)
    q = d_integrate(target, DX, ws, [b])
    assert q == SuperPoly.param("alpha") * JetVar(b) * JetVar(b) / 2
    assert super_derive(q, DX) == target


def test_a_weighted_parameter_counts_in_the_part_weight():
    """alpha weighs 1, so the part alpha*b*b_x weighs 4, and the ansatz
    has factors of weight 3: alpha*b^2/2, whose factors weigh 2, is not
    in it, and neither the whole ansatz nor d_integrate finds a preimage."""
    b = FieldSymbol("b", EVEN, 1)
    ws = WeightSystem({b: Q(1)}, {"alpha": Q(1)})
    target = SuperPoly.param("alpha") * JetVar(b) * JetVar(b, 0, 0, 1)
    assert _outcome(_reference_integrate, target, DX, ws, [b]) is NotIntegrableError
    assert _outcome(d_integrate, target, DX, ws, [b]) is NotIntegrableError


def test_mixed_parity_target_splits():
    b = FieldSymbol("b", EVEN, 1)
    f = FieldSymbol("f", ODD, 1)
    ws = WeightSystem({b: Q(1), f: Q(1)})
    pre = prod([JetVar(b), JetVar(b)]) + prod([JetVar(b), JetVar(f)])
    target = super_derive(pre, DX)
    assert target.parity() is None
    assert d_integrate(target, DX, ws, [b, f]) == pre


def _reduced_jet(w, d1, d2, m):
    """D1^d1 D2^d2 Dx^m (w) reduced through w's declarations by trying each
    route in turn, as ``nonlocal_jet`` did before the structural rule."""
    defs = w.defs
    if d1 and D1 in defs:
        return (-1 if d2 else 1) * apply_ops(defs[D1], [DX] * m + [D2] * d2)
    if d2 and D2 in defs:
        return apply_ops(defs[D2], [DX] * m + [D1] * d1)
    for direction in (DX, D1, D2):
        if m and direction in defs:
            e = defs[DX] if direction == DX else super_derive(defs[direction], direction)
            return apply_ops(e, [DX] * (m - 1) + [D2] * d2 + [D1] * d1)
    return SuperPoly.from_gen(JetVar(w, d1, d2, m))


def test_coordinate_rule_matches_the_reduced_value():
    """A jet of a catalog non-local variable or phantom, or of an N=2
    non-local declared by one direction, is a new coordinate exactly when
    reducing it through the declarations leaves it as it is."""
    f = SuperPoly.from_gen(JetVar(FieldSymbol("f", ODD, 2)))
    syms = {Nonlocality(f"z{i}", EVEN, 2, defs={d: f}) for i, d in enumerate((D1, D2))}
    for cid in catalog.ids():
        for doc in catalog.get(cid).docs.values():
            syms.update(doc.nonlocals.values())
            for sh in doc.shadows.values():
                syms.update(sh.frame.phantoms.values())
                syms.update(sh.frame.phantom_nonlocals.values())
    assert any(getattr(w, "defs", None) and w.base is not None for w in syms)
    for w in syms:
        for d1, d2, m in product(range(min(w.n_susy, 1) + 1), range(w.n_susy // 2 + 1), range(5)):
            g = JetVar(w, d1, d2, m)
            old = _reduced_jet(w, d1, d2, m) if isinstance(w, Nonlocality) else jet_poly(w, d1, d2, m)
            assert recursion._is_new_coordinate(g) == (old == SuperPoly.from_gen(g)), g


def test_zero_order_shadows_square_to_zero():
    doc = catalog.get("hospital-1").doc
    r1, r2, r3 = doc.shadows["R1"], doc.shadows["R2"], doc.shadows["R3"]
    for sh in (r1, r3):
        assert shadow_power(sh, 2).is_zero
        assert nilpotency_order(sh, 6) == 2
        assert shadow_power(sh, 4).is_zero
    assert nilpotency_order(r2, 4) is None
    assert not shadow_power(r2, 3).is_zero


def test_the_zero_shadow_has_nilpotency_order_one():
    r1 = catalog.get("hospital-1").doc.shadows["R1"]
    zero = Shadow(r1.frame, {u: SuperPoly.zero() for u in r1.components})
    assert nilpotency_order(zero, 1) == 1
    assert nilpotency_order(zero, 6) == 1
    assert nilpotency_order(zero, 0) is None


def test_compose_matches_power():
    doc = catalog.get("hospital-1").doc
    r2 = doc.shadows["R2"]
    assert not compose(r2, r2).is_zero
    sq = compose(r2, r2)
    for u, p in shadow_power(r2, 2).components.items():
        assert (p - sq.components[u]).is_zero


@pytest.mark.parametrize("b_component, message", [
    ("B + b", "0 phantom factors"),
    ("b*B^2", "squared"),
    ("Db*F*B", "2 phantom factors"),
])
def test_shadow_not_linear_in_the_phantoms_raises(b_component, message):
    doc = catalog.get("hospital-1").doc
    frame = doc.shadows["R1"].frame
    scope = doc.scope.child()
    for U in frame.phantoms.values():
        scope.symbols[U.name] = U
    b, f = doc.fields["b"], doc.fields["f"]
    with pytest.raises(NotLinearInPhantomsError, match=message):
        Shadow(frame, {f: parse_expression("Db*f*F", scope),
                       b: parse_expression(b_component, scope)})


def test_differential_order_rounds_half_steps_up():
    """The integer form of the order agrees with ``ceil(m + (d1 + d2)/2)``
    over every jet with m <= 6, alone, times a second jet and times a
    constant, and the order of a constant is 0."""
    u = FieldSymbol("u", EVEN, 2)
    all_jets = [JetVar(u, d1, d2, m) for d1 in (0, 1) for d2 in (0, 1) for m in range(7)]
    order = {g: ceil(g.m + Q(g.d1 + g.d2, 2)) for g in all_jets}
    for g in all_jets:
        assert differential_order(SuperPoly.from_gen(g)) == order[g]
        assert differential_order(3 * SuperPoly.from_gen(g) + 1) == order[g]
        for h in all_jets:
            gh = prod([g, h])  # zero for an odd jet times itself
            assert differential_order(gh) == (0 if gh.is_zero else max(order[g], order[h]))
    assert differential_order(SuperPoly.scalar(5)) == differential_order(SuperPoly.zero()) == 0


def test_order_helpers():
    doc = catalog.get("burgers-repr").doc
    flow = doc.flows["eq3_4_x"]
    assert flow_order(flow) == 2
    assert is_local(flow)
    f = doc.fields["f"]
    # two x-derivatives plus a half-step odd derivative round up to 3
    assert differential_order(SuperPoly.from_gen(JetVar(f, 1, 0, 2))) == 3
