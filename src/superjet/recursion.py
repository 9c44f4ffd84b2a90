"""Recursion-operator shadows: verification, application, iteration,
composition and nilpotency.

A shadow is a flow on the phantom extension of a covering whose
components are linear in the phantom jets.  Applying a shadow to a
symmetry substitutes that symmetry for the phantoms; values of
non-local phantoms are produced by exact term-wise integration of their
linearized defining relations.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import ceil
from typing import Iterable, Optional, Sequence

from .algebra import D1, D2, DT, DX, JetVar, SuperPoly, linear_ansatz, poly_sum
from .coverings import PhantomFrame, is_phantom
from .jets import (
    EvolutionSystem,
    Flow,
    Nonlocality,
    apply_ops,
    dt_apply,
    evolutionary_apply,
    nonlocal_jet,
    super_derive,
)
from .determine import LinearEquation, extract_linear_system, solve_linear, unknown_names
from .weights import (
    WeightSystem,
    enumerate_monomials,
    items_from_gens,
    jets_up_to_weight,
    split_by_weight,
)

Q = Fraction


class NotIntegrableError(ValueError):
    pass


class NotLinearInPhantomsError(ValueError):
    pass


class NotLocalError(ValueError):
    """Raised when applying a shadow cannot produce a local flow.

    Carries the expression whose exact preimage could not be found."""

    def __init__(self, message, failing_integral=None):
        super().__init__(message)
        self.failing_integral = failing_integral


@dataclass
class Shadow:
    """A recursion-operator shadow over a phantom frame."""

    frame: PhantomFrame
    components: dict  # base field -> SuperPoly, linear in phantom jets
    parameter_parity: int = 0
    name: str = ""

    @property
    def is_zero(self):
        return all(p.is_zero for p in self.components.values())

    def scaled(self, c):
        return Shadow(
            self.frame,
            {u: c * p for u, p in self.components.items()},
            self.parameter_parity,
            self.name,
        )


def verify_shadow(shadow: Shadow) -> dict:
    """Residual of the shadow condition on the phantom extension."""
    frame = shadow.frame
    sys = frame.base
    flow = Flow(dict(shadow.components), shadow.parameter_parity, name=shadow.name)
    out = {}
    for u in sys.fields:
        out[u] = dt_apply(frame.system, shadow.components[u]) - evolutionary_apply(
            flow, sys.rhs[u]
        )
    return out


def shadow_is_valid(shadow: Shadow) -> bool:
    return all(r.is_zero for r in verify_shadow(shadow).values())


# ---------------------------------------------------------------------------
# exact term-wise integration


def d_integrate(
    target: SuperPoly,
    direction: str,
    ws: WeightSystem,
    gens: Sequence,
    zero_weight_cap: int = 2,
    assume_nonzero: Iterable[str] = (),
) -> SuperPoly:
    """An exact preimage of the target under D1, D2 or Dx.

    The preimage is sought as a homogeneous polynomial ansatz over jets
    of the given symbols; raises NotIntegrableError when no polynomial
    preimage exists.  Unknowns that the equations force to zero
    (``_forced_zero``) are dropped before the rest are solved for.
    """
    if target.is_zero:
        return SuperPoly.zero()
    shift = Q(1) if direction == DX else Q(1, 2)
    parts = []
    for wt, part in sorted(split_by_weight(ws, target).items()):
        par = part.parity()
        if par is None:
            even, odd = part.parity_report()
            for sub in (even, odd):
                if not sub.is_zero:
                    parts.append(d_integrate(
                        sub, direction, ws, gens, zero_weight_cap, assume_nonzero
                    ))
            continue
        want_par = par if direction == DX else (par + 1) % 2
        want_wt = wt - shift
        jets = [g for g in jets_up_to_weight(ws, gens, want_wt) if _is_new_coordinate(g)]
        items = items_from_gens(ws, jets, want_wt, zero_weight_cap)
        monos = enumerate_monomials(items, want_wt, want_par)
        if not monos:
            raise NotIntegrableError(
                f"no ansatz monomials of weight {want_wt} for {direction}-integration"
            )
        names = unknown_names(len(monos), "ci")
        residual = super_derive(linear_ansatz(names, monos), direction) - part
        eqs = extract_linear_system([residual], names)
        zero = _forced_zero(eqs)
        kept = [n for n in names if n not in zero]
        eqs = [LinearEquation({n: c for n, c in eq.coeffs.items() if n not in zero}, eq.const)
               for eq in eqs]
        branches = solve_linear([eq for eq in eqs if not eq.is_trivial()], kept, assume_nonzero)
        if not branches:
            raise NotIntegrableError(
                f"no exact {direction}-preimage of weight {wt} part"
            )
        mono_of = dict(zip(names, monos))
        parts.append(poly_sum(
            v * mono_of[n] for n, v in branches[0].particular.items() if not v.is_zero
        ))
    return poly_sum(parts)


def _forced_zero(eqs) -> set:
    """Unknowns that vanish in every solution, found by propagation.

    An unknown is forced to zero when, once the unknowns already forced
    are dropped, it is the only one left in an equation with no constant
    part and a rational coefficient.  A worklist of such equations keeps
    the pass linear in the size of the system.  The unit vector of every
    forced unknown lies in the row space, so it is a row of the reduced
    row echelon form, and the other rows are 0 in its column: solving
    for the remaining unknowns alone gives the same solution.
    """
    left = [len(eq.coeffs) for eq in eqs]
    where: dict = {}
    for i, eq in enumerate(eqs):
        for n in eq.coeffs:
            where.setdefault(n, []).append(i)
    todo = [i for i, eq in enumerate(eqs) if left[i] == 1 and eq.const.is_zero]
    zero: set = set()
    while todo:
        i = todo.pop()
        if left[i] != 1:  # its last unknown was forced meanwhile
            continue
        coeffs = eqs[i].coeffs
        n = next(n for n in coeffs if n not in zero)
        if coeffs[n].param_names():
            continue
        zero.add(n)
        for j in where[n]:
            left[j] -= 1
            if left[j] == 1 and eqs[j].const.is_zero:
                todo.append(j)
    return zero


def _is_new_coordinate(g: JetVar) -> bool:
    """Whether the jet is a genuine coordinate (not reducible by declarations)."""
    sym = g.fieldsym
    if not isinstance(sym, Nonlocality):
        return True
    return nonlocal_jet(sym, g.d1, g.d2, g.m) == SuperPoly.from_gen(g)


# ---------------------------------------------------------------------------
# applying a shadow to a symmetry


def _phantom_values(frame: PhantomFrame, flow: Flow, ws, zero_weight_cap, assume_nonzero):
    """Values of all phantoms when the linearization direction is the flow."""
    values = {}
    ext = dict(flow.components)
    for u in frame.base.fields:
        values[frame.phantoms[u]] = flow.components[u]
    gens = list(frame.base.fields) + list(frame.covering.nonlocals)
    for w in frame.covering.nonlocals:
        W = frame.phantom_nonlocals[w]
        lflow = Flow(dict(ext), flow.parameter_parity)
        if D1 in w.defs:
            direction, rel = D1, w.defs[D1]
        elif DX in w.defs:
            direction, rel = DX, w.defs[DX]
        else:
            raise NotIntegrableError(
                f"non-local variable {w.name} has no space-direction declaration"
            )
        rhs = evolutionary_apply(lflow, rel)
        try:
            val = d_integrate(rhs, direction, ws, gens, zero_weight_cap, assume_nonzero)
        except NotIntegrableError as exc:
            raise NotLocalError(
                f"value of phantom for {w.name} is not local: {exc}", rhs
            ) from exc
        values[W] = val
        ext[w] = val
    return values


def _substitute_phantoms(expr: SuperPoly, value_of) -> SuperPoly:
    """Replace the single phantom jet of every monomial by its value.

    The phantom factor is moved to the rightmost slot of the odd word
    (collecting signs) and the remaining monomial right-multiplies the
    value; ``value_of(jetvar)`` supplies the replacement.
    """
    def phantom(g):
        return isinstance(g, JetVar) and is_phantom(g.fieldsym)

    parts = []
    for (evens, odds, funcs, params), c in expr.terms.items():
        found = [(None, g, x) for g, x in evens if phantom(g)]
        found += [(j, g, 1) for j, g in enumerate(odds) if phantom(g)]
        if len(found) != 1:
            raise NotLinearInPhantomsError(
                f"monomial has {len(found)} phantom factors; shadows must be linear"
            )
        j, g, x = found[0]
        if x != 1:
            raise NotLinearInPhantomsError("phantom factor occurs squared")
        if j is None:
            key = (tuple(ge for ge in evens if ge[0] != g), odds, funcs, params)
        else:
            key = (evens, odds[:j] + odds[j + 1 :], funcs, params)
            c = -c if (len(odds) - 1 - j) % 2 else c
        parts.append(SuperPoly({key: c}) * value_of(g))
    return poly_sum(parts)


def apply_shadow(
    shadow: Shadow,
    flow: Flow,
    ws: WeightSystem,
    zero_weight_cap: int = 2,
    assume_nonzero: Iterable[str] = (),
) -> Flow:
    """Apply the shadow to a symmetry, producing a new flow."""
    frame = shadow.frame
    values = _phantom_values(frame, flow, ws, zero_weight_cap, assume_nonzero)

    def value_of(g: JetVar):
        base_val = values[g.fieldsym]
        return apply_ops(base_val, [DX] * g.m + [D2] * g.d2 + [D1] * g.d1)

    comps = {}
    for u in frame.base.fields:
        comps[u] = _substitute_phantoms(shadow.components[u], value_of)
    return Flow(
        comps, (shadow.parameter_parity + flow.parameter_parity) % 2
    )


def iterate(
    shadow: Shadow,
    seed: Flow,
    steps: int,
    ws: WeightSystem,
    zero_weight_cap: int = 2,
    assume_nonzero: Iterable[str] = (),
) -> list:
    """Repeatedly apply the shadow; returns the produced flows in order."""
    out = []
    cur = seed
    for _ in range(steps):
        cur = apply_shadow(shadow, cur, ws, zero_weight_cap, assume_nonzero)
        out.append(cur)
    return out


# ---------------------------------------------------------------------------
# composition and nilpotency


def compose(s1: Shadow, s2: Shadow) -> Shadow:
    """The shadow obtained by substituting s2's phantom values into s1.

    Both shadows must use only the phantoms of the local fields;
    composing through non-local phantoms is not supported.
    """
    frame = s1.frame
    values = {frame.phantoms[u]: s2.components[u] for u in frame.base.fields}
    nonlocal_phantoms = set(frame.phantom_nonlocals.values())
    for s in (s1, s2):
        for p in s.components.values():
            for g in p.generators():
                if isinstance(g, JetVar) and g.fieldsym in nonlocal_phantoms:
                    raise NotLocalError(
                        "composition of shadows through non-local phantoms "
                        "is not supported"
                    )

    def value_of(g: JetVar):
        return apply_ops(values[g.fieldsym], [DX] * g.m + [D2] * g.d2 + [D1] * g.d1)

    comps = {
        u: _substitute_phantoms(s1.components[u], value_of) for u in frame.base.fields
    }
    return Shadow(
        frame,
        comps,
        (s1.parameter_parity + s2.parameter_parity) % 2,
        name=f"{s1.name}*{s2.name}",
    )


def nilpotency_order(shadow: Shadow, max_power: int = 8) -> Optional[int]:
    """Least k with the k-th power of the shadow vanishing, or None."""
    cur = shadow
    for k in range(2, max_power + 1):
        cur = compose(cur, shadow)
        if cur.is_zero:
            return k
    return None


def shadow_power(shadow: Shadow, k: int) -> Shadow:
    cur = shadow
    for _ in range(k - 1):
        cur = compose(cur, shadow)
    return cur


# ---------------------------------------------------------------------------
# structural measures


def differential_order(p: SuperPoly) -> int:
    """Highest derivative count of any jet factor (odd directions count 1/2)."""
    best = Q(0)
    for g in p.generators():
        if isinstance(g, JetVar):
            best = max(best, g.m + Q(g.d1 + g.d2, 2))
    return ceil(best)


def flow_order(flow: Flow) -> int:
    return max(differential_order(p) for p in flow.components.values())


def is_local(flow: Flow) -> bool:
    """No non-local or phantom variables appear in any component."""
    for p in flow.components.values():
        for g in p.generators():
            if isinstance(g, JetVar) and (
                isinstance(g.fieldsym, Nonlocality) or is_phantom(g.fieldsym)
            ):
                return False
    return True
