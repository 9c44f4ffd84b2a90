"""Variational calculus: graded partial derivatives, the Euler operator,
conserved-density tests and Hamiltonian structures."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .algebra import EVEN, FieldSymbol, JetVar, SuperPoly, poly_sum
from .jets import EvolutionSystem, Flow, _derive, apply_ops, dt_apply, prolong


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


@dataclass
class HamiltonianOperator:
    """A matrix of total-derivative operators acting on variational gradients.

    ``entries[u][v]`` is a list of (coefficient, operator word) pairs;
    the flow component of u is the sum over v of coeff * word(grad_v),
    words applied innermost first.
    """

    fields: tuple
    entries: Mapping  # u -> {v -> [(SuperPoly, tuple of directions)]}
    name: str = ""

    def apply_gradient(self, grads: Mapping) -> dict:
        comps = {}
        for u in self.fields:
            comps[u] = poly_sum(
                coeff * apply_ops(grads[v], list(word))
                for v, terms in self.entries.get(u, {}).items()
                for coeff, word in terms
            )
        return comps


def antidiagonal(fields: Sequence, direction, name: str = "") -> HamiltonianOperator:
    """The operator whose flow of ``fields[i]`` is ``direction`` applied to
    the gradient of ``fields[n-1-i]``."""
    one, n = SuperPoly.one(), len(fields)
    return HamiltonianOperator(
        tuple(fields), {fields[i]: {fields[n - 1 - i]: [(one, (direction,))]} for i in range(n)},
        name)


def hamiltonian_flow(op: HamiltonianOperator, H: SuperPoly) -> Flow:
    """The evolutionary flow generated by a Hamiltonian density."""
    grads = euler(H, op.fields)
    return Flow(op.apply_gradient(grads), EVEN)
