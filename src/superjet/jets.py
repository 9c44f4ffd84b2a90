"""Jet-space calculus: super-derivatives, total t-derivatives, flows.

Sign conventions, fixed once and verified by the test suite:

* a jet variable is D1^d1 D2^d2 Dx^m (field); derivative indices are
  normalized in that application order, collecting transposition signs
  (D1 D2 = -D2 D1, Di^2 = Dx);
* odd directions act by the graded Leibniz rule
  ``D(ab) = D(a) b + (-1)^|a| a D(b)``;
* an evolutionary derivation of parameter parity q obeys
  ``X D = (-1)^q D X`` on the odd directions.

Non-local (covering) variables carry their declared derivative values;
jets of a non-local variable reduce through those declarations whenever
possible, so only genuinely new coordinates survive normalization.

``prolong`` keeps each jet it derives in the value's own table, so a value
is derived once in each direction; a Dt image along a system is a jet of a
right-hand side or declared ``_t`` value, read from that table.  The one
generator-image table, ``_SUPER_IMAGES``, keeps images under D1, D2 and Dx
by the generator's identity (equal non-locals of different documents declare
different values) and holds the generator, so its id is never reused.  A
declaration can change every jet that reduces through it, so after a
``Nonlocality`` is built ``declare`` is the only writer of its ``defs``: it
validates the value, stores it and moves the epoch.  ``_epoch_table``
empties each ``[epoch, table]`` memo, in any module, once the epoch has moved.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from operator import add, sub
from typing import Mapping, Optional

from .algebra import (
    D1,
    D2,
    DT,
    DX,
    EVEN,
    Clifford,
    FieldSymbol,
    JetVar,
    ParityError,
    SuperPoly,
    Theta,
    _accumulate,
    _merge_evens,
    _merge_funcs,
    _merge_odds,
    _merge_params,
    _placed,
    _sorted_funcs,
    _wrap,
)


class MissingDerivativeError(ValueError):
    """A derivative was demanded that was never declared: a field's evolution,
    a flow's component or a covering variable's derivative."""


class Nonlocality(FieldSymbol):
    """A covering (potential) variable with declared derivative values;
    equality and the hash read only its ``FieldSymbol`` fields."""

    def __init__(self, name: str, parity: int, n_susy: int = 1,
                 weight: Optional[Fraction] = None, defs: Mapping[str, SuperPoly] = None,
                 base: Optional[FieldSymbol] = None):
        super().__init__(name, parity, n_susy)
        vars(self).update(weight=weight, defs={} if defs is None else defs, base=base)
        for direction, value in self.defs.items():
            check_definition(self, direction, value)

    def __repr__(self):
        return f"Nonlocality({self.name!r})"


#: bumped by ``declare``; a jet or image table of an older epoch is emptied
_epoch = 0
#: per direction, [epoch, {id(g): (g, image)}]: D1, D2 and Dx on generators
_SUPER_IMAGES = {d: [None, {}] for d in (D1, D2, DX)}


def _epoch_table(memo: list) -> dict:
    """The table of an ``[epoch, table]`` memo, emptied once the epoch has moved."""
    if memo[0] != _epoch:
        memo[:] = [_epoch, {}]
    return memo[1]


def declare(w: Nonlocality, direction: str, value: SuperPoly) -> None:
    """Declare the derivative of w in direction to be value; every jet
    derived before may have reduced through the old declarations of w."""
    global _epoch
    check_definition(w, direction, value)
    w.defs[direction] = value
    _epoch += 1


def check_definition(w: Nonlocality, direction: str, value: SuperPoly):
    """Raise unless value can be the declared derivative of w in direction."""
    if direction not in (D1, D2, DX, DT):
        raise ValueError(f"unknown direction {direction!r} for {w.name}")
    q = value.parity()
    if q is None and not value.is_zero:
        raise ParityError(f"{direction}({w.name}) has mixed parity")
    want = (w.parity + (1 if direction in (D1, D2) else 0)) % 2
    if q is not None and q != want:
        raise ParityError(f"{direction}({w.name}) must have parity {want}, got {q}")


class EvolutionSystem:
    """An evolutionary super-system {u_t = rhs_u} with declared parameters."""

    def __init__(self, fields, rhs: dict, params=(), name: str = ""):
        self.fields = tuple(fields)
        self.rhs = rhs
        self.params = tuple(params)
        self.name = name
        for u in self.fields:
            p = rhs[u]
            q = p.parity()
            if q is not None and q != u.parity:
                raise ParityError(f"rhs of {u.name} has parity {q}, field is {u.parity}")

    def as_flow(self) -> "Flow":
        return Flow(dict(self.rhs), EVEN, name=f"{self.name}-t")


class Flow:
    """Components of a flow u_s = phi_u; the parameter s may be even or odd."""

    def __init__(self, components: dict, parameter_parity: int = EVEN, name: str = ""):
        self.components = components
        self.parameter_parity = parameter_parity
        self.name = name
        for u, p in components.items():
            q = p.parity()
            if q is not None and q != (u.parity + parameter_parity) % 2:
                raise ParityError(
                    f"component of {u.name} has parity {q}, expected "
                    f"{(u.parity + parameter_parity) % 2}"
                )

    @property
    def is_zero(self):
        return all(p.is_zero for p in self.components.values())

    def __add__(self, other):
        return self._combine(other, add)

    def __sub__(self, other):
        return self._combine(other, sub)

    def _combine(self, other, op):
        if self.parameter_parity != other.parameter_parity:
            raise ParityError("cannot add flows of different parameter parity")
        zero = SuperPoly.zero()
        return Flow({u: op(self.components.get(u, zero), other.components.get(u, zero))
                     for u in set(self.components) | set(other.components)},
                    self.parameter_parity)

    def scaled(self, c):
        return Flow(
            {u: c * p for u, p in self.components.items()},
            self.parameter_parity,
            name=self.name,
        )


# ---------------------------------------------------------------------------
# derivatives of single generators


def _flag_step(d1, d2, m, direction):
    """New indices and sign for one derivative applied to (d1, d2, m)."""
    if direction == DX:
        return d1, d2, m + 1, 1
    if direction == D1:
        if d1 == 0:
            return 1, d2, m, 1
        return 0, d2, m + 1, 1
    if direction == D2:
        sign = -1 if d1 else 1
        if d2 == 0:
            return d1, 1, m, sign
        return d1, 0, m + 1, sign
    raise ValueError(f"bad direction {direction!r}")


def reduction(w: Nonlocality, d1=0, d2=0, m=0):
    """The declared direction through which D1^d1 D2^d2 Dx^m (w) reduces,
    or None for a coordinate: a declared D1 or D2 that it applies, else Dx
    if it applies Dx and any direction is declared (D1^2 = D2^2 = Dx)."""
    defs = w.defs
    if d1 and D1 in defs:
        return D1
    if d2 and D2 in defs:
        return D2
    if m and (DX in defs or D1 in defs or D2 in defs):
        return DX
    return None


def nonlocal_jet(w: Nonlocality, d1=0, d2=0, m=0) -> SuperPoly:
    """D1^d1 D2^d2 Dx^m (w), reduced through the declared values of w."""
    defs, route = w.defs, reduction(w, d1, d2, m)
    if route is None:
        return SuperPoly.from_gen(JetVar(w, d1, d2, m))
    if route == D1:
        out = prolong(defs[D1], 0, d2, m)
        return -out if d2 else out
    if route == D2:
        return prolong(defs[D2], d1, 0, m)
    if DX in defs:
        dx = defs[DX]
    elif D1 in defs:
        dx = prolong(defs[D1], 1, 0, 0)  # D1^2 = Dx
    else:
        dx = prolong(defs[D2], 0, 1, 0)  # D2^2 = Dx
    return prolong(dx, d1, d2, m - 1)


def jet_poly(sym: FieldSymbol, d1=0, d2=0, m=0) -> SuperPoly:
    if isinstance(sym, Nonlocality):
        return nonlocal_jet(sym, d1, d2, m)
    return SuperPoly.from_gen(JetVar(sym, d1, d2, m))


def _derive_gen(g, direction) -> SuperPoly:
    if isinstance(g, Theta):
        if direction == DX:
            return SuperPoly.zero()
        want = 1 if direction == D1 else 2
        return SuperPoly.one() if g.index == want else SuperPoly.zero()
    if isinstance(g, Clifford):
        return SuperPoly.zero()
    sym = g.fieldsym
    idx = {D1: 1, D2: 2, DX: 0}[direction]
    if idx and sym.n_susy < idx:
        # D_i = D_theta^i + theta^i Dx on a theta^i-independent field
        return SuperPoly.from_gen(Theta(idx)) * _super_image(DX)(g)
    d1, d2, m, sign = _flag_step(g.d1, g.d2, g.m, direction)
    out = jet_poly(sym, d1, d2, m)
    return out if sign == 1 else -out


# ---------------------------------------------------------------------------
# graded derivations over whole polynomials


def _derive(p: SuperPoly, gen_image, side: str) -> SuperPoly:
    """Extend a rule on generators to a graded derivation.

    ``side`` selects the Leibniz convention for an odd derivation:

    * ``"even"``  -- no signs (left and right coincide);
    * ``"left"``  -- ``X(ab) = X(a) b + (-1)^|a| a X(b)`` (the super
      derivatives themselves);
    * ``"right"`` -- ``X(ab) = a X(b) + (-1)^|b| X(a) b`` (odd
      evolutionary derivations, which then commute with D).

    The written order of a monomial is evens, function factors, odd word;
    ``gen_image(g)`` returns the image of generator g, placed at g's slot.
    Each image is computed once per call.  An image term with odd word o2
    is placed by one merge: ``_merge_odds(rest, o2)``, where rest is the
    term's odd word without the slot's generator, times
    ``(-1)^(len(o2) * r - shared)`` for the r odd factors right of the
    slot, of which ``shared`` are Clifford factors that o2 squares.
    """
    return _wrap(_derive_into({}, p, gen_image, side))


def _derive_into(out: dict, p: SuperPoly, gen_image, side: str, negate=False) -> dict:
    """Add ``_derive(p, gen_image, side)``, negated if asked, into out."""
    images = {}
    for (evens, odds, funcs, params), c in p.terms.items():
        c = -c if negate else c
        n_odds = len(odds)
        even_sign = -1 if (side == "right" and n_odds % 2) else 1
        # each slot: (generator, evens, rest word, funcs, r, sign)
        slots = []
        for i, (g, x) in enumerate(evens):
            rest = evens[:i] + (((g, x - 1),) if x > 1 else ()) + evens[i + 1 :]
            slots.append((g, rest, odds, funcs, n_odds, x * even_sign))
        for i, (n, k, arg) in enumerate(funcs):
            rest = _sorted_funcs(funcs[:i] + ((n, k + 1, arg),) + funcs[i + 1 :])
            slots.append((arg, evens, odds, rest, n_odds, even_sign))
        for j, g in enumerate(odds):
            r = n_odds - 1 - j
            flips = j if side == "left" else (r if side == "right" else 0)
            slots.append((g, evens, odds[:j] + odds[j + 1 :], funcs, r, -1 if flips % 2 else 1))
        for g, e1, o1, f1, r, sign in slots:
            d = images.get(g)
            if d is None:
                d = images[g] = list(gen_image(g).terms.items())
            cs = c if sign == 1 else (-c if sign == -1 else c * sign)
            for (e2, o2, f2, p2), dc in d:
                v = cs if dc == 1 else (-cs if dc == -1 else dc * cs)
                ps, odd = _merge_params(params, p2), o1 or o2
                if o1 and o2:
                    s, sq, odd = _merge_odds(o1, o2)
                    if not s:
                        continue
                    ps = _merge_params(ps, sq)
                    flips = len(o2) * r
                    if len(odd) < len(o1) + len(o2):  # o2 squared a Clifford factor
                        flips -= len(set(o2).intersection(o1[len(o1) - r:]))
                    s = -s if flips % 2 else s
                    v = v if s == 1 else (-v if s == -1 else v * s)
                key = (_merge_evens(e1, e2), odd, _merge_funcs(f1, f2), ps)
                c0 = out.get(key)
                if c0 is not None and not (v := c0 + v):
                    del out[key]
                    continue
                out[key] = v if type(v) is int or v.denominator != 1 else v.numerator
    return out


def _kept(memo: list, image, g):
    """``image(g)``, built once per epoch and kept in ``memo``."""
    table = _epoch_table(memo)
    hit = table.get(id(g))
    if hit is None:
        hit = table[id(g)] = (g, image(g))
    return hit[1]


def super_derive(p: SuperPoly, direction: str) -> SuperPoly:
    """Apply D1, D2 or Dx as a (graded) derivation."""
    if direction == DT:
        raise ValueError("use dt_apply for total t-derivatives")
    side = "left" if direction in (D1, D2) else "even"
    return _derive(p, _super_image(direction), side)


def _super_image(direction: str):
    """The images of D1, D2 or Dx on generators, read from their table."""
    return partial(_kept, _SUPER_IMAGES[direction], lambda g: _derive_gen(g, direction))


def prolong(p: SuperPoly, d1=0, d2=0, m=0) -> SuperPoly:
    """D1^d1 D2^d2 Dx^m (p): the value at a jet of a field whose value is p.

    Each jet is derived once, from the next lower one in the order Dx, D2,
    D1 (so Dx is applied m times first and D1 last), and kept in p's
    table until the next ``declare``.
    """
    if not (d1 or d2 or m):
        return p
    if p._jets is None:
        p._jets = [None, {}]
    table = _epoch_table(p._jets)
    out = table.get((d1, d2, m))
    if out is None:
        if d1:
            out = super_derive(prolong(p, 0, d2, m), D1)
        elif d2:
            out = super_derive(prolong(p, 0, 0, m), D2)
        else:
            out = super_derive(prolong(p, 0, 0, m - 1), DX)
        table[(d1, d2, m)] = out
    return out


def _prolonged(value_of):
    """The generator images of an evolutionary derivation: thetas and
    Clifford auxiliaries go to 0, a jet to the prolonged value
    ``value_of(sym)`` of its symbol."""

    def image(g):
        if isinstance(g, (Theta, Clifford)):
            return SuperPoly.zero()
        return prolong(value_of(g.fieldsym), g.d1, g.d2, g.m)

    return image


def _dt_image(sys: EvolutionSystem):
    """The generator images of the total t-derivative along sys."""

    def value_of(sym):
        if isinstance(sym, Nonlocality):
            if DT not in sym.defs:
                raise MissingDerivativeError(
                    f"no t-derivative declared for non-local variable {(sym.base or sym).name}"
                )
            return sym.defs[DT]
        if sym not in sys.rhs:
            raise MissingDerivativeError(f"no evolution declared for {sym.name}")
        return sys.rhs[sym]

    return _prolonged(value_of)


def _flow_image(flow: Flow):
    """The generator images of X_phi and its Leibniz side."""

    def value_of(sym):
        if sym not in flow.components:
            raise MissingDerivativeError(
                f"flow {flow.name or '?'} has no component for {sym.name}"
            )
        return flow.components[sym]

    return _prolonged(value_of), "right" if flow.parameter_parity else "even"


def dt_apply(sys: EvolutionSystem, p: SuperPoly) -> SuperPoly:
    """Total t-derivative along the system (an even derivation)."""
    return _derive(p, _dt_image(sys), "even")


def evolutionary_apply(flow: Flow, p: SuperPoly) -> SuperPoly:
    """The evolutionary derivation X_phi of the flow's parameter parity.

    Odd-parameter derivations follow the right Leibniz convention and
    commute with the super derivatives: X(D^kappa u) = D^kappa(phi_u).
    """
    return _derive(p, *_flow_image(flow))


def _residual(sys: EvolutionSystem, flow: Flow, u, rhs_u: SuperPoly) -> SuperPoly:
    """``dt_apply(sys, flow.components[u]) - evolutionary_apply(flow, rhs_u)``,
    built in one dict."""
    out = _derive_into({}, flow.components[u], _dt_image(sys), "even")
    return _wrap(_derive_into(out, rhs_u, *_flow_image(flow), negate=True))


def commutator(phi: Flow, psi: Flow) -> Flow:
    """Graded commutator of two flows on a common field set."""
    fields = set(phi.components) | set(psi.components)
    op = add if (phi.parameter_parity and psi.parameter_parity) else sub
    comps = {}
    for u in fields:
        a = evolutionary_apply(phi, psi.components.get(u, SuperPoly.zero()))
        b = evolutionary_apply(psi, phi.components.get(u, SuperPoly.zero()))
        comps[u] = op(a, b)
    return Flow(comps, (phi.parameter_parity + psi.parameter_parity) % 2)


def check_symmetry(sys: EvolutionSystem, phi: Flow) -> Flow:
    """Residual of the symmetry condition; identically zero iff phi is a symmetry."""
    comps = {u: _residual(sys, phi, u, sys.rhs[u]) for u in sys.fields}
    return Flow(comps, phi.parameter_parity, name=f"sym-residual({phi.name})")


# ---------------------------------------------------------------------------
# substitution


def substitute(p: SuperPoly, mapping: Mapping, cap: Optional[tuple] = None) -> SuperPoly:
    """Graded homomorphic substitution; keys are fields or non-local
    variables.

    Each image is prolonged to all jets of its key and must have the
    key's parity.  With ``cap = (name, k)``, where no image has a negative
    power of the parameter ``name``, every product term with a power of
    ``name`` above k is dropped as it is formed.
    """
    for sym, img in mapping.items():
        q = img.parity()
        if q is not None and q != sym.parity:
            raise ParityError(
                f"cannot substitute parity-{q} value for parity-{sym.parity} symbol"
            )

    def image_of(g):
        if isinstance(g, JetVar) and g.fieldsym in mapping:
            return prolong(mapping[g.fieldsym], g.d1, g.d2, g.m)
        return SuperPoly.from_gen(g)

    out: dict = {}
    for (evens, odds, funcs, params), c in p.terms.items():
        for n, _k, arg in funcs:
            if arg.fieldsym in mapping:
                raise ValueError(
                    f"cannot substitute into the argument of function factor {n}"
                )
        # function factors are even, so they may lead
        t = SuperPoly({((), (), funcs, params): c})
        for g, x in (*evens, *((g, 1) for g in odds)):
            if cap is None:
                t = t * image_of(g) ** x
                continue
            img = [(key, cc, dict(key[3]).get(cap[0], 0)) for key, cc in image_of(g).terms.items()]
            for _ in range(x):
                acc: dict = {}
                for k1, c1 in t.terms.items():
                    room = cap[1] - dict(k1[3]).get(cap[0], 0)
                    _accumulate(acc, _placed(k1, [(k2, c2) for k2, c2, d in img if d <= room], c1))
                t = _wrap(acc)
        _accumulate(out, t.terms.items())
    return _wrap(out)


def substitute_params(p: SuperPoly, values: Mapping) -> SuperPoly:
    """Replace parameters by exact values: rationals or parameter-only
    polynomials.

    Any nonnegative power of a value is allowed; a negative power only
    of a nonzero rational.
    """
    vals = {n: v if isinstance(v, SuperPoly) else SuperPoly.scalar(v)
            for n, v in values.items()}
    out: dict = {}
    for (evens, odds, funcs, params), c in p.terms.items():
        kept = tuple((n, x) for n, x in params if n not in vals)
        val = SuperPoly({((), (), (), kept): c})
        for n, x in params:
            v = vals.get(n)
            if v is None:
                continue
            if x > 0:
                val = val * v**x
            elif v.is_zero:
                raise ZeroDivisionError(f"parameter {n} set to 0 with exponent {x}")
            elif not v.param_names():
                (r,) = v.terms.values()
                val = val * SuperPoly.scalar(Fraction(r) ** x)
            else:
                raise ValueError(f"negative power of non-scalar value for {n}")
        _accumulate(out, (((evens, odds, funcs, k[3]), cc) for k, cc in val.terms.items()))
    return _wrap(out)


# ---------------------------------------------------------------------------
# component expansions


def collect_odd_prefix(p: SuperPoly, classes) -> dict:
    """Group terms by their leading odd factors of the given classes.

    Returns {word: coefficient polynomial} with the word removed; the
    canonical order puts thetas and Clifford auxiliaries first, so the
    coefficient is the left coefficient of the word.
    """
    out: dict = {}
    for (evens, odds, funcs, params), c in p.terms.items():
        k = 0
        while k < len(odds) and isinstance(odds[k], classes):
            k += 1
        word, rest = odds[:k], odds[k:]
        _accumulate(out.setdefault(word, {}), (((evens, rest, funcs, params), c),))
    return {w: _wrap(t) for w, t in out.items() if t}


def component_fields(u: FieldSymbol):
    """Component fields of an N=2 superfield u = u0 + th1 u1 + th2 u2 + th1 th2 u12."""
    mk = lambda suffix, flip: FieldSymbol(u.name + suffix, (u.parity + flip) % 2, 0)
    return mk("0", 0), mk("1", 1), mk("2", 1), mk("12", 0)


def component_expand(sys: EvolutionSystem) -> tuple:
    """Expand an N=2 system into its theta components.

    Returns (component system, expansion mapping).
    """
    th1, th2 = SuperPoly.from_gen(Theta(1)), SuperPoly.from_gen(Theta(2))
    mapping = {}
    for u in sys.fields:
        if u.n_susy != 2:
            raise ValueError(f"field {u.name} is not an N=2 superfield")
        u0, u1, u2, u12 = component_fields(u)
        mapping[u] = (
            SuperPoly.from_gen(JetVar(u0))
            + th1 * JetVar(u1)
            + th2 * JetVar(u2)
            + th1 * th2 * JetVar(u12)
        )
    return _read_components(sys, mapping, Theta, "-components"), mapping


def clifford_expand(sys: EvolutionSystem, mapping: Mapping) -> EvolutionSystem:
    """Expand a system along a Clifford auxiliary, e.g. u = b + theta f.

    ``mapping`` sends each field of ``sys`` to its expansion.
    """
    return _read_components(sys, mapping, Clifford, "-expanded")


def _read_components(sys, mapping, odd_class, suffix) -> EvolutionSystem:
    """The system of the component fields of an expansion along the odd
    generators of ``odd_class``: each field's image names one component
    field per word of those generators (its left coefficient), and the
    same word's left coefficient in the expanded right-hand side is that
    component's evolution."""
    rhs = {}
    fields = []
    for u in sys.fields:
        expanded = substitute(sys.rhs[u], mapping)
        lhs_buckets = collect_odd_prefix(mapping[u], (odd_class,))
        rhs_buckets = collect_odd_prefix(expanded, (odd_class,))
        for word in set(rhs_buckets) - set(lhs_buckets):
            raise ValueError(f"expansion produced unmatched word {word!r}")
        for word, comp_poly in lhs_buckets.items():
            gens = comp_poly.generators()
            if len(gens) != 1 or comp_poly.terms != {
                next(iter(comp_poly.terms)): 1
            }:
                raise ValueError("expansion images must be linear with unit coefficients")
            (g,) = gens
            comp = g.fieldsym
            fields.append(comp)
            rhs[comp] = rhs_buckets.get(word, SuperPoly.zero())
    return EvolutionSystem(tuple(fields), rhs, sys.params, name=sys.name + suffix)
