"""Determining equations: extraction and exact solution of linear systems.

Unknown constants are carried inside expressions as distinguished
parameter names, so building an ansatz, pushing it through the calculus
and reading off the determining system needs no special data flow.  The
system is a list of ``linsolve.LinearEquation``s keyed by those names,
whose entries extraction writes as elements of one domain, the Laurent
ring in the parameters that occur (the rationals when there are none);
extraction is the one reader of residuals into rows.  The elimination of
``linsolve`` reads and answers them, and a branch converts its answer to
``SuperPoly``s once.  A row left over with a nonzero right-hand side ends
the branch.  The numerator of every pivot whose non-vanishing is not
guaranteed is recorded, and optional case splitting re-solves with such
parameters pinned to zero: every term that holds one is dropped.  After
a pivot with several terms the elimination is fraction-free, so the later
ring pivots, and with them ``assumptions``, may carry factors of that
pivot; a basis vector is then the field's vector scaled by the numerator
of the last such pivot.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .algebra import SuperPoly, rat_div, term_order_key
from .jets import EvolutionSystem, Flow, check_symmetry, substitute_params
from .linsolve import (LinearEquation, NonlinearSystemError, RingElement, as_poly,
                       clearing_scale, gauss_jordan, numerator)
from .weights import WeightSystem, jets_up_to_weight, weighted_ansatz

Q = Fraction


# ---------------------------------------------------------------------------
# extraction


def extract_linear_system(residuals: Iterable[SuperPoly], unknowns: Sequence[str]) -> list:
    """Split residuals into per-monomial equations linear in the unknowns,
    in ``term_order_key`` order of the monomials, which breaks ties between
    pivot rows.  A term with two unknowns, or one to a power other than 1,
    raises ``NonlinearSystemError``."""
    uset = set(unknowns)
    eqs = []
    for p in residuals:
        grouped: dict = {}
        for (evens, odds, funcs, params), c in p.terms.items():
            slot, rest = None, params
            for i, (n, e) in enumerate(params):
                if n not in uset:
                    continue
                if e != 1 or slot is not None:
                    raise NonlinearSystemError(
                        f"residual is not linear in the unknowns: "
                        f"{[(n, e) for n, e in params if n in uset]}")
                slot, rest = n, params[:i] + params[i + 1:]
            # canonical keys differ, so no two terms meet here
            parts = grouped.setdefault((evens, odds, funcs), {})
            if slot in parts:
                parts[slot][rest] = c
            else:
                parts[slot] = RingElement({rest: c})
        for mono in sorted(grouped, key=lambda k: term_order_key((k[0], k[1], k[2], ()))):
            parts = grouped[mono]
            const = parts.pop(None, None) or RingElement()
            eqs.append(LinearEquation(parts, const))
    return eqs


# ---------------------------------------------------------------------------
# solving


@dataclass
class LinearSolution:
    """Affine solution set of a linear system over the parameter field."""

    unknowns: tuple
    particular: dict  # unknown -> SuperPoly (parameters only)
    basis: list  # list of {unknown: SuperPoly}
    assumptions: list = dc_field(default_factory=list)  # numerators of pivots assumed nonzero
    zero_params: frozenset = frozenset()  # parameters pinned to 0 in this branch

    @property
    def dim(self):
        return len(self.basis)


def solve_linear(
    eqs: Sequence[LinearEquation],
    unknowns: Sequence[str],
    assume_nonzero: Iterable[str] = (),
    case_split_limit: int = 0,
) -> list:
    """Solve exactly; returns the list of consistent solution branches.

    With ``case_split_limit == 0`` only the generic branch is returned
    (pivots recorded in ``assumptions``).  Otherwise each parameter whose
    non-vanishing the generic branch relied on is also pinned to zero in
    a separate branch, recursively up to the given depth.  A parameter
    that occurs with a negative power is nonzero by construction and is
    never pinned.

    Parameters are arbitrary symbols, so a leftover equation without
    unknowns that does not vanish identically ends its branch.
    """
    unknowns = tuple(unknowns)
    nonzero = frozenset(assume_nonzero)
    branches = [_solve_branch(eqs, unknowns, nonzero, frozenset())]
    inverted = {n for eq in eqs for a in (eq.const, *eq.coeffs.values())
                for key in a for n, e in key if e < 0}
    seen = {frozenset()}
    frontier = branches
    for _depth in range(case_split_limit):
        new = []
        for sol in frontier:
            if sol is None:
                continue
            split = {n for a in sol.assumptions for n in a.param_names()}
            for pname in sorted(split - nonzero - inverted):
                zp = sol.zero_params | {pname}
                if zp in seen:
                    continue
                seen.add(zp)
                new.append(_solve_branch(_pinned(eqs, zp), unknowns, nonzero, zp))
        branches.extend(new)
        frontier = new
    return [b for b in branches if b is not None]


def _pinned(eqs, names) -> list:
    """The equations with the parameters ``names``, none of them inverted,
    set to zero: every term whose key holds one of them vanishes."""

    def kept(a):
        return {k: c for k, c in a.items() if not any(nm in names for nm, _x in k)}

    return [LinearEquation({u: RingElement(v) for u, a in eq.coeffs.items() if (v := kept(a))},
                           RingElement(kept(eq.const))) for eq in eqs]


def _solve_branch(eqs, unknowns, assume_nonzero, zero_params):
    """The generic solution of one branch in ``SuperPoly``s, or None if it is inconsistent."""
    red = gauss_jordan(eqs, unknowns, assume_nonzero)
    if red.leftover:
        return None
    zero = dict.fromkeys(unknowns, SuperPoly.zero())
    return LinearSolution(
        unknowns,
        {**zero, **{u: as_poly(v) for u, v in red.particular.items()}},
        [{**zero, **{u: as_poly(v) for u, v in vec.items()}} for vec in red.basis],
        assumptions=[as_poly(numerator(a)) for a in red.assumed],
        zero_params=zero_params,
    )


def normalize_vector(vec: Mapping[str, SuperPoly], order: Sequence[str]) -> dict:
    """Clear denominators and negative parameter exponents, and make the
    leading coefficient equal to one."""
    scale = as_poly(clearing_scale({k[3]: c for k, c in v.terms.items()} for v in vec.values()))
    vec = {u: scale * v for u, v in vec.items()}
    for u in order:
        v = vec[u]
        if v.is_zero:
            continue
        lead = v.terms[min(v.terms, key=term_order_key)]
        return {w: x / lead for w, x in vec.items()}
    return dict(vec)


# ---------------------------------------------------------------------------
# symmetry search


@dataclass
class SymmetrySearchResult:
    flows: list  # list of Flow, one per basis solution (generic branch)
    ansatz_size: int
    solution: Optional[LinearSolution]
    branches: list = dc_field(default_factory=list)


def build_flow_ansatz(
    sys: EvolutionSystem,
    ws: WeightSystem,
    s_weight: Fraction,
    parameter_parity: int,
    zero_weight_cap: int = 2,
):
    """Homogeneous flow ansatz with unknown coefficients ``_c0``, ``_c1``,
    ..., names that no document can declare.

    Returns (components dict with unknown-laden values, unknown names,
    monomials per field).
    """
    comps, names, monos_by_field = {}, [], {}
    for u in sys.fields:
        target = ws.field_weight(u) - Q(s_weight)
        comps[u], new, monos_by_field[u] = weighted_ansatz(
            ws, jets_up_to_weight(ws, sys.fields, target), target,
            (u.parity + parameter_parity) % 2, "_c", len(names), zero_weight_cap)
        names += new
    return comps, names, monos_by_field


def find_symmetries(
    sys: EvolutionSystem,
    ws: WeightSystem,
    s_weight: Fraction,
    parameter_parity: int,
    assume_nonzero: Iterable[str] = (),
    zero_weight_cap: int = 2,
    case_split_limit: int = 0,
) -> SymmetrySearchResult:
    """All homogeneous symmetry flows of the given weight and parity."""
    comps, names, _ = build_flow_ansatz(sys, ws, s_weight, parameter_parity, zero_weight_cap)
    if not names:
        return SymmetrySearchResult([], 0, None)
    flow = Flow(comps, parameter_parity, name="symmetry ansatz")
    residual = check_symmetry(sys, flow)
    eqs = extract_linear_system(
        [residual.components[u] for u in sys.fields], names
    )
    branches = solve_linear(eqs, names, assume_nonzero, case_split_limit)
    if not branches:
        return SymmetrySearchResult([], len(names), None)
    sol = branches[0]
    flows = []
    for vec in sol.basis:
        nv = normalize_vector(vec, names)
        comps_v = {
            u: substitute_params(comps[u], nv) for u in sys.fields
        }
        flows.append(Flow(comps_v, parameter_parity))
    return SymmetrySearchResult(flows, len(names), sol, branches)


def proportional(a: SuperPoly, b: SuperPoly):
    """Return the scalar c with a == c*b (rational, parameters aside), or None."""
    if a.is_zero and b.is_zero:
        return Q(1)
    if a.is_zero or b.is_zero:
        return None
    if set(a.terms) != set(b.terms):
        return None
    ratios = {rat_div(a.terms[k], b.terms[k]) for k in a.terms}
    return ratios.pop() if len(ratios) == 1 else None


def flows_proportional(f1: Flow, f2: Flow):
    """A single common scalar ratio between two flows, or None."""
    keys = set(f1.components) | set(f2.components)
    ratio = None
    for u in keys:
        a = f1.components.get(u, SuperPoly.zero())
        b = f2.components.get(u, SuperPoly.zero())
        if a.is_zero and b.is_zero:
            continue
        r = proportional(a, b)
        if r is None:
            return None
        if ratio is None:
            ratio = r
        elif ratio != r:
            return None
    return ratio
