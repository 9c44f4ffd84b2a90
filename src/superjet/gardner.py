"""Gardner deformations: Miura-map verification, the triangular
recurrence for conserved densities, and staged deformation search."""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice
from typing import Collection, Iterable, Mapping, Sequence

from .algebra import DX, EVEN, FieldSymbol, JetVar, SuperPoly
from .jets import EvolutionSystem, dt_apply, substitute, substitute_params
from .determine import extract_linear_system
from .linsolve import as_poly, gauss_jordan
from .variational import hamiltonian_flow
from .weights import WeightSystem, weight_of, weighted_ansatz

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
        new = {w: -substitute(miura[u], trunc, cap=(eps, k)).coefficient_of_param_power(eps, k)
               for u, w in correspondence}
        for w, rho in new.items():
            rows[w].append(rho)
            trunc[w] = trunc[w] + SuperPoly.param(eps, k) * rho
    return rows


# ---------------------------------------------------------------------------
# deformation search


class GardnerDeformation:
    def __init__(self, miura: dict, hamiltonian: SuperPoly, extended: EvolutionSystem,
                 free_params: tuple, constraints: tuple):
        self.miura = miura  # base field -> SuperPoly in extended fields and eps
        self.hamiltonian = hamiltonian
        self.extended = extended
        self.free_params = free_params
        self.constraints = constraints  # parameter conditions left unresolved, each == 0


def resolve_conditions(conditions: Iterable[SuperPoly], adjustable: Collection[str]) -> list:
    """Branches ``(values, constraints)`` on which the conditions hold.

    ``conditions`` are parameter-only polynomials that must vanish;
    ``adjustable`` names the parameters that may be solved for, and none of
    them may occur with a negative exponent.  One pass over the conditions
    is repeated until nothing changes:

    (a) a one-term condition with a single adjustable factor forces it to 0;
    (b) the conditions linear in adjustable parameters, with rational
        coefficients, are eliminated and the solution is substituted, so
        a family keeps its free parameters;
    (c) a one-term condition with several adjustable factors splits into
        one branch per factor set to 0;
    (d) what is left (nonlinear conditions with several terms, conditions
        in other parameters) is the branch's ``constraints``.

    ``values`` maps each solved parameter to a polynomial in the others.
    A branch on which a nonzero rational would have to vanish is dropped,
    and so is one that only specialises a branch without constraints.
    """
    adjustable = frozenset(adjustable)
    out: dict = {}

    def settle(values, conds):
        conds = list(dict.fromkeys(c for c in conds if not c.is_zero))
        if any(not c.param_names() for c in conds):
            return
        own = [c for c in conds if c.param_names() <= adjustable]
        monomials = [[n for n, x in key[3] if x > 0]
                     for c in own if len(c.terms) == 1 for key in c.terms]
        forced = sorted({names[0] for names in monomials if len(names) == 1})
        linear = [c for c in own if all(
            not key[3] or (len(key[3]) == 1 and key[3][0][1] == 1) for key in c.terms)]
        split = next((names for names in monomials if len(names) > 1), None)
        if forced:
            assign(values, conds, dict.fromkeys(forced, SuperPoly.zero()))
        elif linear:
            names = sorted(set().union(*(c.param_names() for c in linear)))
            red = gauss_jordan(extract_linear_system(linear, names), names)
            if not red.leftover:
                general = _general_solution(red, names, [n for n in names if n not in red.solved])
                assign(values, conds, {u: general[u] for u in red.solved})
        elif split:
            for n in split:
                assign(values, conds, {n: SuperPoly.zero()})
        else:
            out.setdefault(frozenset(values.items()), (values, conds))

    def assign(values, conds, subst):
        values = {n: substitute_params(v, subst) for n, v in values.items()}
        values.update(subst)
        settle(values, [substitute_params(c, subst) for c in conds])

    settle({}, list(conditions))
    found = list(out.values())
    # a branch that only specialises an unconstrained one adds nothing
    return [(v, c) for v, c in found
            if not any(not c2 and v2.items() < v.items() for v2, c2 in found)]


def _general_solution(red, names: Sequence[str], frees: Sequence[str]) -> dict:
    """Each unknown of ``names`` as its particular value in the reduced
    system ``red`` plus the basis vectors weighted by the parameters
    ``frees``."""
    particular = red.particular
    return {u: sum((SuperPoly.param(f) * as_poly(vec.get(u, {}))
                    for f, vec in zip(frees, red.basis)), as_poly(particular.get(u, {})))
            for u in names}


def search_deformation(
    base: EvolutionSystem,
    ws: WeightSystem,
    H0: SuperPoly,
    eps: str,
    eps_weight: Fraction,
    max_order: int,
    direction: str = DX,
) -> list:
    """Search for a Hamiltonian Gardner deformation up to the given order.

    The base system must be Hamiltonian with density ``H0`` for the
    structure of ``direction`` (default Dx): each field evolves by that
    direction applied to the gradient of its partner, as in
    ``variational.hamiltonian_flow``, and the extended system is the
    flow of the deformed density for the same structure.  The Miura map
    and the deformed density are expanded in the (negative-weight)
    parameter with homogeneous coefficients that are polynomials in the
    undifferentiated extended fields only, so a map with derivatives
    (such as skdv's ``chi + eps*chi_x - eps^2*chi*Dchi``) is out of
    reach.  Each order is solved as a linear stage, with
    surviving freedoms carried symbolically and resolved by the final
    full-residual conditions.
    A stage does not stop on a row that its elimination leaves over: such
    a row is a condition on the freedoms of earlier stages, and the final
    conditions, which expand the same residual, contain it again.  A
    condition there in parameters that are not freedoms becomes a
    constraint.  Returns a list of deformations, possibly still carrying
    free parameters and ``constraints`` on them (see
    ``resolve_conditions``).  The free parameters of order k are named
    ``t{k}_0``, ``t{k}_1``, ..., skipping the parameters of ``base``.
    """
    eps_weight = Q(eps_weight)
    wfields = tuple(
        FieldSymbol(f"w{i+1}", u.parity, u.n_susy) for i, u in enumerate(base.fields)
    )
    corr = tuple(zip(base.fields, wfields))
    wsw = WeightSystem(
        {w: ws.field_weight(u) for u, w in corr}, {eps: eps_weight}, ws.t
    )
    to_w = {u: SuperPoly.from_gen(JetVar(w)) for u, w in corr}
    miura = dict(to_w)
    hbar = substitute(H0, to_w)
    h_weight = weight_of(ws, H0)
    frees: list = []
    gens = [JetVar(w) for w in wfields]

    def extension(h):
        """The extended system that the density h generates."""
        return EvolutionSystem(wfields, hamiltonian_flow(wfields, direction, h).components,
                               params=(eps,) + tuple(base.params))

    def stage_ansatz(target, names):
        """Ansatz of the given weight; its unknowns ``_a0``, ``_a1``, ...,
        names that no document can declare, are appended to names.  A stage
        substitutes its unknowns away, so the next one numbers them anew."""
        ansatz, new, _monos = weighted_ansatz(wsw, gens, target, EVEN, "_a", len(names))
        names += new
        return ansatz

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
        residuals = verify_deformation(base, extension(trial_h), trial_miura)
        red = gauss_jordan(extract_linear_system(
            [residuals[u].coefficient_of_param_power(eps, k) for u in base.fields], names), names)
        taus = list(islice((t for j in count() if (t := f"t{k}_{j}") not in base.params),
                           len(red.basis)))
        frees += taus
        values = _general_solution(red, names, taus)
        miura = {u: substitute_params(trial_miura[u], values) for u, _w in corr}
        hbar = substitute_params(trial_h, values)

    # resolve leftover freedoms against the full residual
    residuals = verify_deformation(base, extension(hbar), miura)
    parts = [
        residuals[u].coefficient_of_param_power(eps, kk)
        for u in base.fields
        for kk in range(1, residuals[u].max_param_power(eps) + 1)
    ]
    conditions = [as_poly(eq.const) for eq in extract_linear_system(parts, ())]
    # a free that occurs inverted is nonzero by construction
    inverted = {n for p in (hbar, *miura.values()) for key in p.terms
                for n, x in key[3] if x < 0}
    results = []
    for values, constraints in resolve_conditions(conditions, set(frees) - inverted):
        m2 = {u: substitute_params(p, values) for u, p in miura.items()}
        h2 = substitute_params(hbar, values)
        rest_frees = tuple(n for n in frees if n not in values)
        results.append(GardnerDeformation(
            m2, h2, extension(h2), rest_frees, tuple(constraints)))
    return results


def specialize_deformation(
    d: GardnerDeformation, values: Mapping[str, Fraction]
) -> GardnerDeformation:
    miura = {u: substitute_params(p, values) for u, p in d.miura.items()}
    h = substitute_params(d.hamiltonian, values)
    ext = EvolutionSystem(
        d.extended.fields,
        {w: substitute_params(p, values) for w, p in d.extended.rhs.items()},
        d.extended.params,
    )
    rest = tuple(n for n in d.free_params if n not in values)
    constraints = tuple(c for c in (substitute_params(c, values) for c in d.constraints)
                        if not c.is_zero)
    return GardnerDeformation(miura, h, ext, rest, constraints)
