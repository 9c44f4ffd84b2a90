"""Coverings: non-local variables over an evolutionary system, their
consistency checks, and linearization (phantom) extensions."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .algebra import D1, D2, DT, DX, EVEN, JetVar, Phantom, SuperPoly
from .jets import (
    EvolutionSystem,
    Flow,
    Nonlocality,
    declare,
    dt_apply,
    evolutionary_apply,
    super_derive,
)


@dataclass
class Covering:
    """An evolutionary system together with layered non-local variables."""

    system: EvolutionSystem
    nonlocals: tuple = ()
    name: str = ""

    def __post_init__(self):
        self.nonlocals = tuple(self.nonlocals)


def check_covering(cov: Covering) -> dict:
    """Residuals of all compatibility conditions; all zero iff consistent.

    For every non-local variable and every pair of declared derivative
    directions the corresponding cross-derivative identity is formed:
    t-derivatives commute with everything, D1 D2 = -D2 D1, and
    Di Di = Dx.
    """
    out = {}
    sys = cov.system
    for w in cov.nonlocals:
        defs = w.defs
        if DT in defs:
            for d in (D1, D2, DX):
                if d in defs:
                    out[(w.name, d, DT)] = dt_apply(sys, defs[d]) - super_derive(
                        defs[DT], d
                    )
        if D1 in defs and D2 in defs:
            out[(w.name, D1, D2)] = super_derive(defs[D1], D2) + super_derive(
                defs[D2], D1
            )
        for d in (D1, D2):
            if d in defs and DX in defs:
                out[(w.name, d, DX)] = super_derive(defs[d], d) - defs[DX]
                out[(w.name, DX, d)] = super_derive(defs[DX], d) - super_derive(
                    defs[d], DX
                )
    return out


def covering_is_consistent(cov: Covering) -> bool:
    return all(r.is_zero for r in check_covering(cov).values())


def derived_equation_check(rhs_map: Mapping) -> dict:
    """Check that covering variables obey a stated derived evolution.

    ``rhs_map`` maps non-local variables to right-hand sides written in
    (automatically reduced) jets; the residual is the declared
    t-derivative minus the stated one.
    """
    out = {}
    for w, rhs in rhs_map.items():
        if DT not in w.defs:
            raise ValueError(f"{w.name} has no declared t-derivative")
        out[w] = w.defs[DT] - rhs
    return out


# ---------------------------------------------------------------------------
# linearization / phantoms


def phantom_name(name: str) -> str:
    return name.upper() if name.upper() != name else name + "^"


@dataclass
class PhantomFrame:
    """A covering enlarged by the linearizations of all its variables."""

    covering: Covering
    phantoms: dict  # field -> Phantom
    phantom_nonlocals: dict  # nonlocality -> phantom Nonlocality
    system: EvolutionSystem  # fields + phantom fields

    @property
    def base(self) -> EvolutionSystem:
        return self.covering.system


def is_phantom(sym) -> bool:
    if isinstance(sym, Phantom):
        return True
    return isinstance(sym, Nonlocality) and sym.base is not None


def linearize(cov: Covering) -> PhantomFrame:
    """Adjoin linearized counterparts of all fields and non-local variables.

    The phantom of u evolves by the linearization of the right-hand side
    of u; the phantom of a non-local variable carries the linearizations
    of all its declared derivatives.
    """
    sys = cov.system
    phantoms = {}
    comps = {}
    for u in sys.fields:
        U = Phantom(phantom_name(u.name), u.parity, u.n_susy, base=u)
        phantoms[u] = U
        comps[u] = SuperPoly.from_gen(JetVar(U))
    flow = Flow(dict(comps), EVEN, name="linearization")
    pn = {}
    for w in cov.nonlocals:
        W = Nonlocality(
            phantom_name(w.name),
            w.parity,
            w.n_susy,
            weight=w.weight,
            defs={},
            base=w,
        )
        comps[w] = SuperPoly.from_gen(JetVar(W))
        flow = Flow(dict(comps), EVEN, name="linearization")
        for d, e in w.defs.items():
            declare(W, d, evolutionary_apply(flow, e))
        pn[w] = W
    rhs = dict(sys.rhs)
    for u in sys.fields:
        rhs[phantoms[u]] = evolutionary_apply(flow, sys.rhs[u])
    psys = EvolutionSystem(
        tuple(sys.fields) + tuple(phantoms[u] for u in sys.fields),
        rhs,
        sys.params,
        name=(sys.name or "system") + "-linearized",
    )
    return PhantomFrame(cov, phantoms, pn, psys)
