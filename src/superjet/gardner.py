"""Gardner deformations: Miura-map verification, the triangular
recurrence for conserved densities, and staged deformation search."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Mapping, Optional, Sequence

import sympy

from .algebra import DX, EVEN, FieldSymbol, JetVar, SuperPoly, linear_ansatz
from .jets import EvolutionSystem, dt_apply, substitute, substitute_params
from .determine import extract_linear_system, solve_linear
from .variational import HamiltonianOperator, hamiltonian_flow
from .weights import (
    WeightSystem,
    enumerate_monomials,
    items_from_gens,
    weight_of,
)

Q = Fraction


def verify_deformation(
    base: EvolutionSystem, extended: EvolutionSystem, miura: Mapping
) -> dict:
    """Residual of the Miura condition for each base field.

    ``miura`` maps each base field to its expression in the extended
    fields (and the deformation parameter); the residual is the
    t-derivative of that expression along the extended system minus the
    base right-hand side evaluated on the map.
    """
    out = {}
    for u in base.fields:
        out[u] = dt_apply(extended, miura[u]) - substitute(base.rhs[u], miura)
    return out


def deformation_is_valid(base, extended, miura) -> bool:
    return all(r.is_zero for r in verify_deformation(base, extended, miura).values())


def density_recurrence(
    miura: Mapping,
    correspondence: Sequence,
    eps: str,
    order: int,
) -> dict:
    """Taylor coefficients of the inverted deformation, termwise conserved.

    ``correspondence`` lists pairs (base field, extended field) with the
    extended field entering its Miura component as the leading term.
    Returns {extended field: [density_0, ..., density_order]} where the
    densities are written in the base fields.
    """
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


# ---------------------------------------------------------------------------
# deformation search


@dataclass
class GardnerDeformation:
    base: EvolutionSystem
    fields: tuple  # extended fields
    miura: dict  # base field -> SuperPoly in extended fields and eps
    hamiltonian: Optional[SuperPoly]
    extended: EvolutionSystem
    eps: str
    free_params: tuple = ()
    correspondence: tuple = ()


def _sympy_sol_to_values(sol: Mapping) -> Optional[dict]:
    values = {}
    for sym, v in sol.items():
        v = sympy.nsimplify(v)
        if not v.is_Rational:
            return None
        values[str(sym)] = Q(int(v.p), int(v.q))
    return values


def search_deformation(
    base: EvolutionSystem,
    ws: WeightSystem,
    H0: SuperPoly,
    eps: str,
    eps_weight: Fraction,
    max_order: int,
    make_op: Optional[Callable] = None,
    max_jet_order: int = 0,
) -> list:
    """Search for a Hamiltonian Gardner deformation up to the given order.

    The base system must be Hamiltonian with density ``H0`` for the
    operator produced by ``make_op`` (default: the antidiagonal Dx
    matrix).  The Miura map and the deformed density are expanded in the
    (negative-weight) parameter with homogeneous coefficients; each
    order is solved as a linear stage, with surviving freedoms carried
    symbolically and resolved by the final full-residual conditions.
    Returns a list of deformations (possibly still carrying free
    parameters).
    """
    eps_weight = Q(eps_weight)
    wfields = tuple(
        FieldSymbol(f"w{i+1}", u.parity, u.n_susy) for i, u in enumerate(base.fields)
    )
    corr = tuple(zip(base.fields, wfields))
    wsw = WeightSystem(
        {w: ws.field_weight(u) for u, w in corr}, {eps: eps_weight}, ws.t
    )
    if make_op is None:
        n = len(wfields)
        entries = {
            wfields[i]: {wfields[n - 1 - i]: [(SuperPoly.one(), (DX,))]}
            for i in range(n)
        }
        op = HamiltonianOperator(wfields, entries)
    else:
        op = make_op(wfields)

    to_w = {u: SuperPoly.from_gen(JetVar(w)) for u, w in corr}
    miura = dict(to_w)
    hbar = substitute(H0, to_w)
    h_weight = weight_of(ws, H0)
    frees: list = []
    counter = 0

    def stage_ansatz(target, names):
        """Ansatz of the given weight; its fresh unknowns are appended to names."""
        nonlocal counter
        gens = [
            JetVar(w, 0, 0, m)
            for w in wfields
            for m in range(max_jet_order + 1)
        ]
        items = items_from_gens(wsw, gens, target)
        monos = enumerate_monomials(items, target, EVEN)
        new = [f"a{counter + i}" for i in range(len(monos))]
        counter += len(monos)
        names += new
        return linear_ansatz(new, monos)

    for k in range(1, max_order + 1):
        names = []
        additions_m = {
            u: stage_ansatz(ws.field_weight(u) - k * eps_weight, names) for u, _w in corr
        }
        acc_h = stage_ansatz(h_weight - k * eps_weight, names)
        trial_miura = {
            u: miura[u] + SuperPoly.param(eps, k) * additions_m[u] for u, _w in corr
        }
        trial_h = hbar + SuperPoly.param(eps, k) * acc_h
        ext = EvolutionSystem(
            wfields,
            hamiltonian_flow(op, trial_h).components,
            params=(eps,) + tuple(base.params),
        )
        residuals = verify_deformation(base, ext, trial_miura)
        eqs = extract_linear_system(
            [residuals[u].coefficient_of_param_power(eps, k) for u in base.fields],
            names,
        )
        branches = solve_linear(eqs, names, constraint_params=frees)
        if not branches:
            return []
        sol = branches[0]
        if sol.constraints:
            # conditions on earlier freedoms; no adjustable ones left to tune
            return []
        values = dict(sol.particular)
        for j, vec in enumerate(sol.basis):
            tau = f"t{k}_{j}"
            frees.append(tau)
            for nm in names:
                values[nm] = values.get(nm, SuperPoly.zero()) + SuperPoly.param(
                    tau
                ) * vec[nm]
        miura = {u: substitute_params(trial_miura[u], values) for u, _w in corr}
        hbar = substitute_params(trial_h, values)

    # resolve leftover freedoms against the full residual
    ext = EvolutionSystem(
        wfields, hamiltonian_flow(op, hbar).components, params=(eps,) + tuple(base.params)
    )
    residuals = verify_deformation(base, ext, miura)
    leftover = []
    symtab: dict = {}
    for u in base.fields:
        r = residuals[u]
        for kk in range(1, r.max_param_power(eps) + 1):
            part = r.coefficient_of_param_power(eps, kk)
            for key, c in part.terms.items():
                e = sympy.Rational(c.numerator, c.denominator)
                for n, x in key[3]:
                    e *= symtab.setdefault(n, sympy.Symbol(n)) ** x
                if {str(s) for s in e.free_symbols} <= set(frees):
                    leftover.append(e)
                else:
                    return []
    results = []
    if not leftover:
        results.append(
            GardnerDeformation(
                base, wfields, miura, hbar, ext, eps, tuple(frees), corr
            )
        )
        return results
    syms = [sympy.Symbol(n) for n in frees]
    sols = sympy.solve(leftover, syms, dict=True)
    for s in sols:
        values = _sympy_sol_to_values(s)
        if values is None:
            continue
        m2 = {u: substitute_params(p, values) for u, p in miura.items()}
        h2 = substitute_params(hbar, values)
        ext2 = EvolutionSystem(
            wfields,
            hamiltonian_flow(op, h2).components,
            params=(eps,) + tuple(base.params),
        )
        rest_frees = tuple(n for n in frees if n not in values)
        results.append(
            GardnerDeformation(base, wfields, m2, h2, ext2, eps, rest_frees, corr)
        )
    return results


def specialize_deformation(
    d: GardnerDeformation, values: Mapping[str, Fraction]
) -> GardnerDeformation:
    miura = {u: substitute_params(p, values) for u, p in d.miura.items()}
    h = substitute_params(d.hamiltonian, values) if d.hamiltonian is not None else None
    ext = EvolutionSystem(
        d.fields,
        {w: substitute_params(p, values) for w, p in d.extended.rhs.items()},
        d.extended.params,
    )
    rest = tuple(n for n in d.free_params if n not in values)
    return GardnerDeformation(d.base, d.fields, miura, h, ext, d.eps, rest, d.correspondence)
