"""Built-in catalog of super-systems with their verified structures.

Each entry bundles one or more grammar documents (system, coverings,
flows, shadows, functionals), any extra structures that the grammar
does not express (the direction of a Hamiltonian structure, deformation
data, recorded rational scales), and a list of self-checks.  ``get(id)``
builds an entry once per process and hands every caller that same entry,
so nothing may write to an entry after its builder returns.
``verify(id)`` runs the checks and reports one line per check.
"""

from __future__ import annotations

import os
import traceback
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable

from .algebra import (
    D1, DX, EVEN, Clifford, FieldSymbol, JetVar, SuperPoly, UnknownNameError,
)
from .coverings import covering_is_consistent, derived_equation_check
from .gardner import (
    deformation_is_valid,
    density_recurrence,
    search_deformation,
    specialize_deformation,
)
from .grammar import SourceDocument, parse_document, parse_expression
from .jets import (
    EvolutionSystem,
    check_symmetry,
    clifford_expand,
    component_expand,
    substitute,
)
from .recursion import (
    apply_shadow,
    flow_order,
    is_local,
    iterate,
    nilpotency_order,
    shadow_is_valid,
    shadow_power,
)
from .variational import hamiltonian_flow, is_conserved
from .weights import infer_weights, weight_of

Q = Fraction


@dataclass
class CatalogEntry:
    id: str
    title: str
    sources: dict  # name -> document text ("main" first)
    docs: dict = dc_field(default_factory=dict)
    scales: dict = dc_field(default_factory=dict)  # fixture -> Fraction
    extras: dict = dc_field(default_factory=dict)
    checks: list = dc_field(default_factory=list)  # (name, fn) with fn() -> (ok, str)

    @property
    def doc(self) -> SourceDocument:
        return self.docs["main"]

    def add_check(self, name: str, fn: Callable):
        self.checks.append((name, fn))


def _base(entry_id, title, sources):
    docs = {k: parse_document(v, name=f"{entry_id}:{k}") for k, v in sources.items()}
    e = CatalogEntry(entry_id, title, sources, docs)

    def homogeneous():
        doc = e.doc
        ws = doc.weight_system()
        sys = doc.system()
        for u in sys.fields:
            w = weight_of(ws, sys.rhs[u])
            want = ws.field_weight(u) - ws.t
            if w is not None and w != want:
                return False, f"rhs of {u.name} has weight {w}, expected {want}"
        return True, "all right-hand sides weight-homogeneous"

    e.add_check("homogeneous", homogeneous)
    return e


def _ok(cond, good, bad):
    return (True, good) if cond else (False, bad)


def _flow_is_symmetry(e, flow_name, doc_name="main"):
    def check():
        doc = e.docs[doc_name]
        res = check_symmetry(doc.system(), doc.flows[flow_name])
        return _ok(res.is_zero, f"flow {flow_name} commutes with the system",
                   f"flow {flow_name} has nonzero residual")
    return check


def _shadow_valid(e, shadow_name, doc_name="main"):
    def check():
        doc = e.docs[doc_name]
        ok = shadow_is_valid(doc.shadows[shadow_name])
        return _ok(ok, f"shadow {shadow_name} verified",
                   f"shadow {shadow_name} has nonzero residual")
    return check


def _covering_consistent(e, doc_name="main", names=None):
    def check():
        doc = e.docs[doc_name]
        ok = covering_is_consistent(doc.covering(names))
        which = ",".join(names) if names else "all"
        return _ok(ok, f"covering ({which}) consistent", f"covering ({which}) inconsistent")
    return check


def _apply_equals(e, shadow_name, seed_name, target_name, scale, fixture,
                  doc_name="main"):
    """shadow(seed) == scale * target, with the recorded rational scale."""

    def check():
        doc = e.docs[doc_name]
        ws = doc.weight_system()
        out = apply_shadow(doc.shadows[shadow_name], doc.flows[seed_name], ws)
        want = doc.flows[target_name].scaled(Q(scale))
        ok = (out - want).is_zero
        return _ok(ok, f"{shadow_name}({seed_name}) = {scale} * {target_name}",
                   f"{shadow_name}({seed_name}) differs from {scale} * {target_name}")

    e.scales[fixture] = Q(scale)
    return check


# ---------------------------------------------------------------------------
# entry builders

def _skdv():
    e = _base("skdv", "N=1 supersymmetric KdV equation", {
        "main": """
field f odd susy 1 weight 3/2;
param eps weight -1;
time weight -3;
f_t = f_xxx + 3*Dx(f*Df);
""",
        "gardner": """
field chi odd susy 1 weight 3/2;
param eps weight -1;
time weight -3;
chi_t = chi_xxx + 3*Dx(chi*Dchi) - 1/2*eps^2*D(Dchi*Dchi*Dchi)
      - 3/2*eps^2*Dx(chi*Dchi^2);
""",
    })
    main, gard = e.doc, e.docs["gardner"]
    scope = main.scope.child()
    scope.symbols.update(gard.scope.symbols)
    f = main.fields["f"]
    miura = {f: parse_expression(
        "chi + eps*chi_x - eps^2*chi*Dchi", scope)}
    e.extras["miura"] = miura
    e.extras["extended"] = gard.system()

    def deformation():
        ok = deformation_is_valid(main.system(), gard.system(), miura)
        return _ok(ok, "extended equation maps to the base flow under the Miura map",
                   "Miura condition fails")

    e.add_check("gardner-deformation", deformation)
    return e


def _pskdv():
    e = _base("pskdv", "potential N=1 supersymmetric KdV equation", {
        "main": """
field b even susy 1 weight 1;
time weight -3;
b_t = b_xxx + 3*D(b_x*Db);
functional rho1: b;
functional rho2: 1/2*b^2;
""",
    })

    def conserved():
        doc = e.doc
        sys = doc.system()
        for nm in ("rho1", "rho2"):
            if not is_conserved(sys, doc.functionals[nm]):
                return False, f"{nm} not conserved"
        return True, "rho1 and rho2 conserved"

    e.add_check("conserved-densities", conserved)
    return e


def _skdv_a():
    e = _base("skdv-a", "first superKdV analogue", {
        "main": """
field f odd susy 1 weight 3/2;
time weight -3;
f_t = f_xxx + f_x*Df;
nonlocal v even weight 1: D(v) = f, v_t = 1/2*Df^2 + Df_xx;
nonlocal w odd weight 7/2: D(w) = Df^2,
    w_t = 2*Df^2*f_x + 2*Df_xx*f_x - 2*Df_x*f_xx + 2*Df*f_xxx;
shadow R: f = Df*F + 3*F_xx + 1/2*W + f_x*V;
flow seed_x: f = f_x;
flow eq_rhs: f = f_xxx + f_x*Df;
""",
    })
    e.add_check("covering", _covering_consistent(e))
    e.add_check("shadow-R", _shadow_valid(e, "R"))
    e.add_check("apply-R-on-seed",
                _apply_equals(e, "R", "seed_x", "eq_rhs", Q(3), "R-on-fx"))
    return e


def _skdv_b():
    e = _base("skdv-b", "dispersionless two-parameter superKdV analogue", {
        "main": """
param alpha weight 0;
param beta weight 0;
field f odd susy 1 weight 3/2;
time weight -3;
f_t = alpha*f*Df_x + beta*f_x*Df;
nonlocal v even weight 1: D(v) = f,
    v_t = 1/2*alpha*Df^2 + 1/2*beta*Df^2 - alpha*f*f_x;
nonlocal w even weight 3: D(w) = f*Df,
    w_t = 2/3*alpha*Df^3 + 2/3*beta*Df^3 - 2*alpha*Df*f*f_x - beta*Df*f*f_x;
shadow R: f = alpha*f*Df*DF + alpha*f*f_x*F - alpha*f*Df_x*V - beta*f_x*Df*V
            + beta*f_x*W;
""",
    })
    e.add_check("covering", _covering_consistent(e))
    e.add_check("shadow-R", _shadow_valid(e, "R"))
    return e


def _skdv_c():
    e = _base("skdv-c", "conserved-form superKdV analogue", {
        "main": """
field f odd susy 1 weight 3/2;
time weight -3;
f_t = D(f_x*f);
nonlocal v even weight 1: D(v) = f, v_t = f_x*f;
shadow R: f = f*DF - f_x*V;
""",
    })
    e.add_check("covering", _covering_consistent(e))
    e.add_check("shadow-R", _shadow_valid(e, "R"))
    return e


def _quad_alpha():
    return _base("quad-alpha", "quadratic half-weight family", {
        "main": """
param alpha weight 0;
field f odd susy 1 weight 1/2;
field b even susy 1 weight 1/2;
time weight -1/2;
f_t = -1*alpha*f*b;
b_t = b^2 + D(f);
""",
    })


def _double_layer():
    return _base("double-layer", "two-layer half-weight system", {
        "main": """
field f odd susy 1 weight 1/2;
field b even susy 1 weight 1/2;
time weight -1/2;
f_t = D(b) + f*b;
b_t = D(f);
""",
    })


def _burgers_repr():
    e = _base("burgers-repr", "superfield representation of the Burgers equation", {
        "main": """
field f odd susy 1 weight 1/2;
field b even susy 1 weight 1/2;
time weight -1/2;
f_t = D(b);
b_t = b^2 + D(f);
nonlocal w even weight 0: D(w) = -1*f, w_t = -1*b;
shadow R: f = F_x - Df*F + f_x*W, b = B_x - Df*B + b_x*W;
flow seed_x: f = f_x, b = b_x;
flow seed_t: f = D(b), b = b^2 + D(f);
flow seed_susy odd: f = Df, b = Db;
flow eq3_4_x: f = f_xx - 2*Df*f_x, b = b_xx - 2*Df*b_x;
flow eq3_4_t: f = Db_x - Df*Db - f_x*b,
              b = Df_x - Df^2 - b^2*Df + b*b_x;
flow eq3_5 odd: f = Df_x - Df^2 - f_x*f,
                b = Db_x - Df*Db - b_x*f;
""",
    })
    e.add_check("covering", _covering_consistent(e))
    e.add_check("shadow-R", _shadow_valid(e, "R"))
    for nm in ("eq3_4_x", "eq3_4_t", "eq3_5"):
        e.add_check(f"symmetry-{nm}", _flow_is_symmetry(e, nm))
    e.add_check("apply-R-on-x",
                _apply_equals(e, "R", "seed_x", "eq3_4_x", Q(1), "R-on-fx"))
    e.add_check("apply-R-on-t",
                _apply_equals(e, "R", "seed_t", "eq3_4_t", Q(1), "R-on-ft"))
    e.add_check("apply-R-on-susy",
                _apply_equals(e, "R", "seed_susy", "eq3_5", Q(1), "R-on-susy"))

    def unique_weights():
        sol = infer_weights(e.doc.system())
        ok = sol is not None and sol.unique and sol.particular == {
            "f": Q(1, 2), "b": Q(1, 2), "t": Q(-1, 2)}
        return _ok(ok, "weights are uniquely determined", "weight inference failed")

    e.add_check("unique-weights", unique_weights)
    return e


def _superburg():
    e = _base("superburg", "fermionic extension of the Burgers equation", {
        "main": """
param alpha weight 0;
field f odd susy 0 weight 1;
field b even susy 0 weight 1;
time weight -2;
f_t = f_xx + Dx(b*f);
b_t = b_xx + b*b_x + alpha*f_x*f;
nonlocal w odd susy 0 weight 0: w_x = f, w_t = f_x + b*f;
nonlocal vt even susy 0 weight 0:
    vt_x = b + 1/2*alpha*f*w,
    vt_t = b_x + 1/2*b^2 + 1/2*alpha*f_x*w + 1/2*alpha*b*f*w;
shadow R1 using w, vt:
    f = b_x*W + 2*F_x + f_x*VT + 1/2*alpha*f_x*w*W + b*F + f*B,
    b = 2*B_x + b*B + b_x*VT + 1/2*alpha*b_x*w*W + alpha*f_x*W - alpha*f*F;
shadow R2 using w, vt:
    f = -1*w*B_x - 1/2*b_x*w*VT + 1/2*alpha*f_x*w*W - 1/4*alpha*w*f*b*W
        - 1/2*alpha*w*f*F - 1/2*w*b*B - 1/2*f*b*VT - f*B,
    b = 2*B_x + b*B + b_x*VT - alpha*w*F_x + alpha*f_x*W + 1/2*alpha*f_x*w*VT
        + 1/2*alpha*f*b*W - 1/2*alpha*w*b*F - 1/2*alpha*w*f*b*VT
        - 3/2*alpha*w*f*B;
""",
        "alpha0": """
field f odd susy 0 weight 1;
field b even susy 0 weight 1;
time weight -2;
f_t = f_xx + Dx(b*f);
b_t = b_xx + b*b_x;
nonlocal w odd susy 0 weight 0: w_x = f, w_t = f_x + b*f;
nonlocal v even susy 0 weight 0: v_x = b, v_t = b_x + 1/2*b^2;
shadow R1 using w, v:
    f = -1/2*w*B_x + 1/2*b_x*W - 1/4*b_x*w*V + F_x + 1/2*f_x*V
        + 1/2*b*F - 1/4*w*b*B - 1/4*f*b*V,
    b = 2*B_x + b*B + b_x*V;
shadow R2 using w, v:
    f = w*B_x + b_x*W + 1/2*b_x*w*V + 2*F_x + f_x*V + b*F + 1/2*w*b*B
        + 1/2*f*b*V + 2*f*B,
    b = 0;
""",
    })
    e.add_check("covering", _covering_consistent(e))
    e.add_check("covering-alpha0", _covering_consistent(e, "alpha0"))
    e.add_check("shadow-R1", _shadow_valid(e, "R1"))
    e.add_check("shadow-R2", _shadow_valid(e, "R2"))
    e.add_check("shadow-R1-alpha0", _shadow_valid(e, "R1", "alpha0"))
    e.add_check("shadow-R2-alpha0", _shadow_valid(e, "R2", "alpha0"))

    def potential_form():
        doc = e.doc
        w = doc.nonlocals["w"]
        vt = doc.nonlocals["vt"]
        rhs = {
            w: doc.poly("Dx(Dx(w)) + Dx(vt)*Dx(w)"),
            vt: doc.poly("Dx(Dx(vt)) + 1/2*Dx(vt)^2"),
        }
        res = derived_equation_check(rhs)
        ok = all(r.is_zero for r in res.values())
        return _ok(ok, "potentials satisfy the potential Burgers system",
                   "derived potential system fails")

    e.add_check("potential-system", potential_form)

    def theta_expansion():
        doc = e.doc
        f, b = doc.fields["f"], doc.fields["b"]
        th = Clifford("vartheta", (1, (("alpha", 1),)))
        u = FieldSymbol("u", EVEN, 0)
        ux = SuperPoly.from_gen(JetVar(u, 0, 0, 1))
        uu = SuperPoly.from_gen(JetVar(u))
        usys = EvolutionSystem(
            (u,), {u: SuperPoly.from_gen(JetVar(u, 0, 0, 2)) + uu * ux},
            params=("alpha",), name="scalar-burgers")
        mapping = {u: SuperPoly.from_gen(JetVar(b)) + SuperPoly.from_gen(th) * JetVar(f)}
        comp = clifford_expand(usys, mapping)
        sys = doc.system()
        ok = all((comp.rhs[x] - sys.rhs[x]).is_zero for x in sys.fields)
        # noncommutativity mediated by the auxiliary: u u_x - u_x u = 2 alpha f_x f
        m = substitute(uu, mapping)
        mx = substitute(ux, mapping)
        lhs = m * mx - mx * m
        want = Q(2) * SuperPoly.param("alpha") * SuperPoly.from_gen(
            JetVar(f, 0, 0, 1)) * JetVar(f)
        ok = ok and (lhs - want).is_zero
        return _ok(ok, "auxiliary expansion reproduces the system; u*u_x != u_x*u",
                   "auxiliary expansion mismatch")

    e.add_check("theta-expansion", theta_expansion)
    return e


def _n2burgers():
    e = _base("n2burgers", "N=2 supersymmetric Burgers equation", {
        "main": """
field b even susy 2 weight 1;
time weight -2;
b_t = D1(D2(b_x)) + b*b_x;
flow skdv4: b = -1*b_xxx + 3/2*Dx(b*D1D2b) + 3/4*Dx(D1b*D2b) + 3/4*b^2*b_x;
""",
    })
    e.add_check("symmetry-skdv4", _flow_is_symmetry(e, "skdv4"))

    def components():
        doc = e.doc
        comp, _mapping = component_expand(doc.system())
        by_name = {u.name: u for u in comp.fields}
        b0, b1, b2, b12 = (by_name[n] for n in ("b0", "b1", "b2", "b12"))
        j = lambda u, m=0: SuperPoly.from_gen(JetVar(u, 0, 0, m))
        want = {
            b0: -j(b12, 1) + j(b0) * j(b0, 1),
            b1: j(b2, 2) + j(b0, 1) * j(b1) + j(b0) * j(b1, 1),
            b2: -j(b1, 2) + j(b0, 1) * j(b2) + j(b0) * j(b2, 1),
            b12: j(b0, 3) + j(b0, 1) * j(b12) + j(b0) * j(b12, 1)
                 - j(b1, 1) * j(b2) - j(b1) * j(b2, 1),
        }
        for u, p in want.items():
            if (comp.rhs[u] - p).is_zero is False:
                return False, f"component {u.name} mismatches"
        return True, "component expansion matches the four-field system"

    e.add_check("component-expansion", components)
    return e


def _skdv4():
    e = _base("skdv4", "N=2 SKdV_4 equation", {
        "main": """
field b even susy 2 weight 1;
time weight -3;
b_t = -1*b_xxx + 3/2*Dx(b*D1D2b) + 3/4*Dx(D1b*D2b) + 3/4*b^2*b_x;
flow burg: b = D1(D2(b_x)) + b*b_x;
""",
    })
    e.add_check("symmetry-burg", _flow_is_symmetry(e, "burg"))
    return e


def _dbous():
    e = _base("dbous", "dispersionless Boussinesq superfield system", {
        "main": """
field f odd susy 1 weight 1;
field b even susy 1 weight 1;
time weight -3/2;
f_t = b*Db;
b_t = Df_x;
nonlocal w even weight 1/2: D(w) = f, w_t = 1/2*b^2;
nonlocal v even weight 0: v_x = b, v_t = Df;
shadow R: f = Db*b*V + 1/2*b^2*DV + 3/4*Df*F + 3/4*f_x*W,
          b = Df_x*V + 1/2*b*DF + 3/4*Df*B + 3/4*b_x*W;
flow seed_x: f = f_x, b = b_x;
flow seed_t: f = b*Db, b = Df_x;
flow eq4_9_x: f = Db*b^2 + Df*f_x, b = Df_x*b + Df*b_x;
flow eq4_9_t: f = Df*Db*b + 1/2*f_x*b^2, b = Df_x*Df + 1/2*b_x*b^2;
functional H1_0: b;
functional H1_1: b*Df;
functional H1_2: 1/12*b^4 + 1/2*b*Df^2;
functional H2_0: Df;
functional H2_1: 1/2*Df^2 + 1/6*b^3;
functional H2_2: 1/6*Df^3 + 1/6*b^3*Df;
""",
    })
    e.extras["operator"] = D1  # the odd (0 D; D 0)
    e.add_check("covering", _covering_consistent(e))
    e.add_check("shadow-R", _shadow_valid(e, "R"))
    for nm in ("eq4_9_x", "eq4_9_t"):
        e.add_check(f"symmetry-{nm}", _flow_is_symmetry(e, nm))
    e.add_check("apply-R-on-x",
                _apply_equals(e, "R", "seed_x", "eq4_9_x", Q(3, 2), "R-on-x"))

    def iterate_constant_order():
        doc = e.doc
        ws = doc.weight_system()
        sys = doc.system()
        for seed in ("seed_x", "seed_t"):
            flows = iterate(doc.shadows["R"], doc.flows[seed], 4, ws)
            for k, fl in enumerate(flows, 1):
                if not is_local(fl):
                    return False, f"iterate {k} of {seed} is not local"
                if not check_symmetry(sys, fl).is_zero:
                    return False, f"iterate {k} of {seed} is not a symmetry"
                if flow_order(fl) != 2:
                    return False, f"iterate {k} of {seed} has order {flow_order(fl)}"
        return True, "4 iterations from both seeds: local symmetries of order 2"

    e.add_check("constant-order-iteration", iterate_constant_order)

    def hamiltonian_hierarchy():
        doc = e.doc
        sys = doc.system()
        fields = (doc.fields["f"], doc.fields["b"])
        expected = {
            "H1_0": None, "H2_0": None,  # Casimirs
            "H1_1": doc.flows["seed_x"],
            "H2_1": doc.flows["seed_t"],
            "H1_2": doc.flows["eq4_9_x"],
            "H2_2": doc.flows["eq4_9_t"],
        }
        for nm, want in expected.items():
            fl = hamiltonian_flow(fields, e.extras["operator"], doc.functionals[nm])
            if want is None:
                if not fl.is_zero:
                    return False, f"{nm} is not a Casimir"
                continue
            if not check_symmetry(sys, fl).is_zero:
                return False, f"flow of {nm} is not a symmetry"
            if not (fl - want).is_zero:
                return False, f"flow of {nm} differs from its recorded form"
        return True, "six functionals generate the recorded Hamiltonian flows"

    e.scales["hamiltonian-flows"] = Q(1)
    e.add_check("hamiltonian-hierarchy", hamiltonian_hierarchy)

    def conserved_functionals():
        doc = e.doc
        sys = doc.system()
        for nm in ("H1_0", "H1_1", "H1_2", "H2_0", "H2_1", "H2_2"):
            if not is_conserved(sys, doc.functionals[nm]):
                return False, f"{nm} is not conserved"
        return True, "all six functionals conserved"

    e.add_check("conserved-functionals", conserved_functionals)
    return e


def _hydro_bous():
    e = _base("hydro-bous", "dispersionless Boussinesq hydrodynamic form", {
        "main": """
field b even susy 0 weight 2;
field c even susy 0 weight 3;
param eps weight -3;
time weight -2;
b_t = c_x;
c_t = b*b_x;
functional H: 1/6*b^3 + 1/2*c^2;
""",
        "gardner": """
param eps weight -3;
field w1 even susy 0 weight 2;
field w2 even susy 0 weight 3;
time weight -2;
w1_t = w2_x + eps*w2*w2_x;
w2_t = w1*w1_x;
functional Hbar: 1/6*w1^3 + 1/2*w2^2 + 1/6*eps*w2^3;
""",
    })
    main, gard = e.doc, e.docs["gardner"]
    scope = main.scope.child()
    scope.symbols.update(gard.scope.symbols)
    b, c = main.fields["b"], main.fields["c"]
    w1, w2 = gard.fields["w1"], gard.fields["w2"]
    miura = {
        b: parse_expression("w1 + eps*w1*w2", scope),
        c: parse_expression("w2 + 1/3*eps*w1^3 + eps*w2^2 + 1/3*eps^2*w2^3", scope),
    }
    e.extras["miura"] = miura
    e.extras["extended"] = gard.system()
    e.extras["correspondence"] = ((b, w1), (c, w2))

    densities_src = {
        "w1": ["b", "-1*b*c", "2*b*c^2 + 1/3*b^4"],
        "w2": ["c", "-1*c^2 - 1/3*b^3", "5/3*c^3 + 5/3*b^3*c"],
    }
    e.extras["densities"] = {
        nm: [parse_expression(s, main.scope) for s in lst]
        for nm, lst in densities_src.items()
    }
    e.extras["operator"] = DX

    def hamiltonian_form():
        sys = main.system()
        fl = hamiltonian_flow((b, c), e.extras["operator"], main.functionals["H"])
        ok = all((fl.components[u] - sys.rhs[u]).is_zero for u in sys.fields)
        return _ok(ok, "system equals the Hamiltonian flow of H",
                   "Hamiltonian form mismatch")

    e.add_check("hamiltonian-form", hamiltonian_form)

    def deformation():
        ok = deformation_is_valid(main.system(), gard.system(), miura)
        return _ok(ok, "printed deformation satisfies the Miura condition",
                   "Miura condition fails")

    e.add_check("gardner-deformation", deformation)

    def gardner_densities():
        rows = density_recurrence(miura, ((b, w1), (c, w2)), "eps", 2)
        for (wf, nm) in ((w1, "w1"), (w2, "w2")):
            for k in range(3):
                if not (rows[wf][k] - e.extras["densities"][nm][k]).is_zero:
                    return False, f"density {nm}[{k}] mismatches"
        return True, "inverted Miura map reproduces the recorded densities"

    e.add_check("density-recurrence", gardner_densities)

    def densities_conserved():
        sys = main.system()
        rows = density_recurrence(miura, ((b, w1), (c, w2)), "eps", 4)
        for wf in (w1, w2):
            for k, rho in enumerate(rows[wf]):
                if not is_conserved(sys, rho):
                    return False, f"order-{k} density of {wf.name} not conserved"
        return True, "all recurrence densities through order 4 conserved"

    e.add_check("densities-conserved", densities_conserved)

    def deformation_search():
        ws = main.weight_system()
        found = search_deformation(
            main.system(), ws, main.functionals["H"], "eps", Q(-3), 2)
        for d in found:
            cand = d
            if cand.free_params:
                cand = specialize_deformation(
                    d, {n: Q(1, 6) for n in d.free_params})
            same = all(
                (cand.miura[u] - substitute(miura[u], {
                    w1: SuperPoly.from_gen(JetVar(cand.fields[0])),
                    w2: SuperPoly.from_gen(JetVar(cand.fields[1])),
                })).is_zero
                for u in (b, c))
            if same:
                return True, "search recovers the printed deformation"
        return False, "search did not recover the printed deformation"

    e.add_check("deformation-search", deformation_search)
    return e


def _bous_alpha():
    return _base("bous-alpha", "Boussinesq equation with dispersion and dissipation", {
        "main": """
param alpha weight 0;
field f odd susy 1 weight 5/2;
field b even susy 1 weight 2;
time weight -2;
f_t = b*Db + Db_xx - alpha*f_xx;
b_t = Df_x + alpha*b_xx;
""",
    })


def _bous_embed():
    e = _base("bous-embed", "multi-parametric Boussinesq-type system", {
        "main": """
param alpha weight 0;
param beta weight 0;
param gamma weight 0;
field f odd susy 1 weight 5/2;
field b even susy 1 weight 2;
time weight -2;
f_t = alpha*beta*f*b - alpha*gamma*b*Db - gamma^2*Db_xx - beta*gamma*f_xx;
b_t = alpha*beta*b^2 + beta^2*Df_x + beta*gamma*b_xx;
flow eq5_4:
    f = -1*gamma^3*Db*b_xx + gamma^3*Db_x*b_x + beta*gamma^2*Db_x*Df
        - beta*gamma^2*Df_x*Db - beta^2*gamma*Df_x*f + beta^2*gamma*Df*f_x
        - beta*gamma^2*b_xx*f + beta*gamma^2*b_x*f_x,
    b = -1*beta^2*gamma*Db*f_x + beta^2*gamma*Db_x*f + beta*gamma^2*Db_x*Db
        + beta^3*f_x*f;
flow eq5_5 odd:
    f = beta*gamma^2*Db*f_x - beta*gamma^2*Db_x*f - gamma^3*Db_x*Db
        - gamma^3*b_x^2 - beta^2*gamma*Df^2 - beta^2*gamma*f_x*f
        - 2*beta*gamma^2*Df*b_x,
    b = beta*gamma^2*Db*b_x + beta^2*gamma*Df*Db + beta^3*Df*f
        + beta^2*gamma*b_x*f;
""",
    })
    e.add_check("symmetry-eq5_4", _flow_is_symmetry(e, "eq5_4"))
    e.add_check("symmetry-eq5_5", _flow_is_symmetry(e, "eq5_5"))
    return e


def _hospital_alpha():
    return _base("hospital-alpha", "half-weight family with recurrence symmetries", {
        "main": """
param alpha weight 0;
field f odd susy 1 weight 1/2;
field b even susy 1 weight 1/2;
time weight -1;
f_t = b*Db + f*Df;
b_t = alpha*f*Db;
""",
    })


def _hospital_1():
    e = _base("hospital-1", "half-weight system with nilpotent recursions", {
        "main": """
field f odd susy 1 weight 1/2;
field b even susy 1 weight 1/2;
time weight -1;
f_t = b*Db + f*Df;
b_t = f*Db;
shadow R1: f = -1*Db*b*B + Db*f*F - Df*f*B, b = Db*f*B;
shadow R2: f = b_x*b*F + f_x*b*B, b = b_x*b*B;
shadow R3: f = -1*Db*b_x*b*B + Db*b_x*f*F - Db*f_x*f*B - Df*b_x*f*B,
           b = Db*b_x*f*B;
""",
    })
    for nm in ("R1", "R2", "R3"):
        e.add_check(f"shadow-{nm}", _shadow_valid(e, nm))

    def nilpotency():
        doc = e.doc
        for nm in ("R1", "R3"):
            sh = doc.shadows[nm]
            if not shadow_power(sh, 4).is_zero:
                return False, f"fourth power of {nm} does not vanish"
            if nilpotency_order(sh, 6) != 2:
                return False, f"{nm} does not square to zero"
        if nilpotency_order(doc.shadows["R2"], 6) is not None:
            return False, "R2 unexpectedly nilpotent"
        return True, "R1, R3 square to zero (so fourth powers vanish); R2 is not nilpotent"

    e.add_check("nilpotency", nilpotency)
    return e


_BUILDERS = {
    "skdv": _skdv,
    "pskdv": _pskdv,
    "skdv-a": _skdv_a,
    "skdv-b": _skdv_b,
    "skdv-c": _skdv_c,
    "quad-alpha": _quad_alpha,
    "double-layer": _double_layer,
    "burgers-repr": _burgers_repr,
    "superburg": _superburg,
    "n2burgers": _n2burgers,
    "skdv4": _skdv4,
    "dbous": _dbous,
    "hydro-bous": _hydro_bous,
    "bous-alpha": _bous_alpha,
    "bous-embed": _bous_embed,
    "hospital-alpha": _hospital_alpha,
    "hospital-1": _hospital_1,
}


def ids():
    return list(_BUILDERS)


_ENTRIES: dict = {}  # id -> entry, built on first use


def get(entry_id: str) -> CatalogEntry:
    """The shared, read-only entry ``entry_id``, built on first use."""
    if entry_id not in _BUILDERS:
        raise UnknownNameError(f"unknown catalog entry {entry_id!r}")
    entry = _ENTRIES.get(entry_id)
    if entry is None:
        entry = _ENTRIES[entry_id] = _BUILDERS[entry_id]()
    return entry


def verify(entry_id: str) -> list:
    """Run all self-checks of one entry; returns (check, ok, detail) rows."""
    e = get(entry_id)
    out = []
    for name, fn in e.checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
            where = traceback.extract_tb(exc.__traceback__)[-1]
            ok, detail = False, (f"error: {type(exc).__name__}: {exc} "
                                 f"at {os.path.basename(where.filename)}:{where.lineno}")
        out.append((name, ok, detail))
    return out
