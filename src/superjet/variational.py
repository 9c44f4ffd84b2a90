"""Variational calculus: graded partial derivatives, the Euler operator,
conserved-density tests and Hamiltonian structures."""

from __future__ import annotations

from typing import Sequence

from .algebra import EVEN, FieldSymbol, JetVar, SuperPoly, poly_sum
from .jets import EvolutionSystem, Flow, _derive, dt_apply, prolong, super_derive


def graded_partial(p: SuperPoly, v) -> SuperPoly:
    """Left partial derivative with respect to a single generator.

    It is the derivation, of v's parity and with the left Leibniz
    convention, that sends v to 1 and every other generator to 0: an odd
    v is anticommuted to the leftmost slot and removed, an even one
    follows the exponent rule, and function factors differentiate to
    their next derivative when v is their argument.
    """
    one, zero = SuperPoly.one(), SuperPoly.zero()
    return _derive(p, lambda g: one if g == v else zero, "left")


def euler(H: SuperPoly, fields: Sequence[FieldSymbol]) -> dict:
    """Variational derivatives of a density with respect to each field.

    Integration by parts follows the graded Leibniz rule; the operator
    annihilates every total Dx-, D1- or D2-divergence.
    """
    out = {}
    for u in fields:
        parts = []
        jets = {
            g
            for g in H.generators()
            if isinstance(g, JetVar) and g.fieldsym == u
        }
        for g in jets:
            pd = graded_partial(H, g)
            if pd.is_zero:
                continue
            sign = (-1) ** g.m
            if g.d1:
                sign *= (-1) ** (1 + u.parity)
            if g.d2:
                sign *= (-1) ** (1 + u.parity)
            parts.append(sign * prolong(pd, g.d1, g.d2, g.m))
        out[u] = poly_sum(parts)
    return out


def is_conserved(sys: EvolutionSystem, rho: SuperPoly) -> bool:
    """Whether the density is conserved along the system.

    A density is conserved iff its total t-derivative is a total
    divergence, i.e. iff all its variational derivatives vanish.
    """
    dtr = dt_apply(sys, rho)
    return all(v.is_zero for v in euler(dtr, sys.fields).values())


# ---------------------------------------------------------------------------
# Hamiltonian structures
#
# Each structure of the catalog is one total derivative that pairs field i
# with field n-1-i: the odd (0 D; D 0) of dbous and the (0 Dx; Dx 0) of the
# hydrodynamic Boussinesq form.  A structure is therefore named by its
# direction alone.


def hamiltonian_flow(fields: Sequence[FieldSymbol], direction: str, H: SuperPoly) -> Flow:
    """The evolutionary flow of the density ``H``: ``fields[i]`` evolves
    by ``direction`` applied to the variational derivative of ``H`` with
    respect to ``fields[n-1-i]`` (an odd-size list pairs its middle field
    with itself)."""
    grads = euler(H, fields)
    return Flow({u: super_derive(grads[v], direction)
                 for u, v in zip(fields, reversed(fields))}, EVEN)
