"""Scaling weights: checking homogeneity, inferring weight systems, and
enumerating homogeneous monomial bases.

Conventions: [x] = -1, [theta] = -1/2, so Dx raises weight by 1 and an
odd super derivative by 1/2; time weights are negative for evolution in
positive-weight right-hand sides.  A Clifford auxiliary weighs half of
its declared even square.

An ansatz is built on integers: a ``WeightSystem`` keeps growing tables of
its jets and items, and ``enumerate_monomials`` keeps the reachable sums of
scaled weights as bitsets, so an unreachable target gives ``[]`` at once.
``weighted_ansatz`` builds every linear ansatz on these monomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from math import lcm
from typing import Mapping, Optional, Sequence

from .algebra import (
    _ONE_KEY,
    Clifford,
    FieldSymbol,
    JetVar,
    SuperPoly,
    Theta,
    UnknownNameError,
    _mul_keys,
    _scaled,
    _wrap,
    linear_ansatz,
    rat,
    term_order_key,
)
from .linsolve import gauss_jordan

Q = Fraction


class InhomogeneousError(ValueError):
    pass


@dataclass
class WeightSystem:
    """Assignment of weights to fields, parameters and the time variable; it
    caches generator weights, and what ``jets_up_to_weight`` and ``items_from_gens`` build."""

    fields: Mapping[FieldSymbol, Fraction]
    params: Mapping[str, Fraction] = dc_field(default_factory=dict)
    t: Optional[Fraction] = None
    _gen_weights: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)
    _jet_table: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)
    _items: dict = dc_field(default_factory=dict, init=False, repr=False, compare=False)

    def field_weight(self, sym: FieldSymbol) -> Fraction:
        if sym in self.fields:
            return self.fields[sym]
        w = getattr(sym, "weight", None)
        if w is not None:
            return w
        raise UnknownNameError(f"no weight assigned to {sym.name}")

    def param_weight(self, name: str) -> Fraction:
        if name in self.params:
            return self.params[name]
        raise UnknownNameError(f"no weight assigned to parameter {name}")

    def gen_weight(self, g) -> Fraction:
        """The weight of a generator, computed once per generator."""
        w = self._gen_weights.get(g)
        if w is None:
            w = self._gen_weights[g] = self._weigh(g)
        return w

    def _weigh(self, g) -> Fraction:
        if isinstance(g, Theta):
            return Q(-1, 2)
        if isinstance(g, Clifford):
            rat, params = g.square
            w = Q(0)
            for n, e in params:
                w += e * self.param_weight(n)
            return w / 2
        return self.field_weight(g.fieldsym) + g.m + Q(g.d1 + g.d2, 2)

    def key_weight(self, key) -> Fraction:
        evens, odds, funcs, params = key
        w = Q(0)
        for g, x in evens:
            w += x * self.gen_weight(g)
        for g in odds:
            w += self.gen_weight(g)
        for n, _k, arg in funcs:
            aw = self.gen_weight(arg)
            if aw != 0:
                raise InhomogeneousError(
                    f"function factor {n} has no weight: its argument weighs {aw}, "
                    "and only weight-0 arguments are weighted"
                )
        for n, e in params:
            w += e * self.param_weight(n)
        return w


def weight_of(ws: WeightSystem, p: SuperPoly) -> Optional[Fraction]:
    """The common weight of all monomials; None for zero, error if mixed."""
    if p.is_zero:
        return None
    seen = {ws.key_weight(k) for k in p.terms}
    if len(seen) != 1:
        raise InhomogeneousError(f"mixed weights {sorted(seen)}")
    return seen.pop()


def split_by_weight(ws: WeightSystem, p: SuperPoly) -> dict:
    """Split into weight-homogeneous parts {weight: polynomial}."""
    parts: dict = {}
    for k, c in p.terms.items():
        parts.setdefault(ws.key_weight(k), {})[k] = c
    return {w: SuperPoly(t) for w, t in parts.items()}


# ---------------------------------------------------------------------------
# weight inference


@dataclass
class WeightSolution:
    """Affine solution set of a weight-balance system.

    ``particular`` maps unknown names to weights (Fractions); ``basis``
    spans the homogeneous solutions (empty basis means the system is
    unique).
    """

    particular: dict
    basis: list

    @property
    def unique(self) -> bool:
        return not self.basis


def infer_weights(sys, fixed: Mapping = None, param_names: Sequence[str] = ()):
    """Infer a weight system from the balance [term] = [u] - [t].

    Unknowns are the field weights, [t], and the weights of the named
    parameters.  ``fixed`` may pin any of these, or weigh another symbol
    of the right-hand sides (keys: field symbols, their names, the string
    "t", or parameter names).  Returns a WeightSolution whose unknown
    names are field names, "t", and parameter names, or None if the
    balance is unsatisfiable.

    Each unknown weighs the linear form ``SuperPoly.param(name)``, so the
    rules of ``WeightSystem`` turn every monomial into a linear form in
    the unknowns; other symbols weigh their ``fixed`` or declared values.
    """
    fixed = {getattr(k, "name", k): v for k, v in (fixed or {}).items()}
    unknowns = [u.name for u in sys.fields] + ["t"] + list(param_names)
    forms = {n: SuperPoly.param(n) for n in unknowns}
    values = {**fixed, **forms}
    syms = {g.fieldsym for p in sys.rhs.values() for g in p.generators()
            if isinstance(g, JetVar)}
    ws = WeightSystem({s: values[s.name] for s in syms if s.name in values}, values)
    balances = [ws.key_weight(key) - forms[u.name] + forms["t"]
                for u in sys.fields for key in sys.rhs[u].terms]
    pins = [forms[n] - v for n, v in fixed.items() if n in forms]
    from .determine import extract_linear_system  # determine builds on this module

    red = gauss_jordan(extract_linear_system(balances + pins, unknowns), unknowns)
    if red.leftover:
        return None

    def rational(vec):
        return {n: Q(v.get((), 0)) for n, v in vec.items()}

    return WeightSolution(
        {**dict.fromkeys(unknowns, Q(0)), **rational(red.particular)},
        [rational(vec) for vec in red.basis],
    )


# ---------------------------------------------------------------------------
# homogeneous monomial enumeration


@dataclass(frozen=True)
class AnsatzItem:
    """One admissible factor for homogeneous enumeration."""

    factor: object  # a generator: Theta, Clifford or JetVar
    weight: Fraction
    parity: int
    max_exp: int  # 1 for odd factors


def items_from_gens(ws: WeightSystem, gens, max_weight, zero_weight_cap=2):
    """The gens with their caps (1 if odd, max_weight // weight if of positive
    weight, else zero_weight_cap) where positive; each item is built once."""
    mn, md, items = max_weight.numerator, max_weight.denominator, []
    for g in gens:
        entry = ws._items.get(id(g))
        if entry is None:  # the entry holds g, so the id stays g's
            w = ws.gen_weight(g)
            entry = ws._items[id(g)] = (g, w, w.numerator, w.denominator, g.parity, {})
        _g, w, wn, wd, q, made = entry
        cap = 1 if q else (mn * wd // (md * wn) if wn > 0 else zero_weight_cap)
        if cap > 0:
            items.append(made.get(cap) or made.setdefault(cap, AnsatzItem(g, w, q, cap)))
    return items


def jets_up_to_weight(ws: WeightSystem, fields, max_weight):
    """All jets of the fields with weight <= max_weight, by field, D-flag and
    x-order, cut on integers from the table of ``ws`` that holds for each
    field (by identity, as jets are keyed) each D-flag's weight at x-order
    0 and its jets by x-order, and grows on demand."""
    mn, md, out = max_weight.numerator, max_weight.denominator, []
    for u in fields:
        rows = ws._jet_table.get(id(u))
        if rows is None:
            firsts = [JetVar(u, *f) for f in ((0, 0), (1, 0), (0, 1), (1, 1))[: 2**u.n_susy]]
            rows = ws._jet_table[id(u)] = [(ws.gen_weight(g), [g]) for g in firsts]
        for w, jets in rows:  # x-orders 0 .. floor(max_weight - w)
            n = (mn * w.denominator - w.numerator * md) // (md * w.denominator) + 1
            while len(jets) < n:
                jets.append(JetVar(u, jets[0].d1, jets[0].d2, len(jets)))
            out += jets[: max(n, 0)]
    return out


def integer_weights(items: Sequence[AnsatzItem], weight) -> tuple:
    """The item weights and ``weight`` times the lcm of the item weights'
    denominators, as ints; None for ``weight`` if no sum of them equals it."""
    scale = lcm(*(it.weight.denominator for it in items))
    target, rest = divmod(weight.numerator * scale, weight.denominator)
    return [it.weight.numerator * (scale // it.weight.denominator) for it in items], (
        None if rest else target)


def _reach(weights, caps, parities, target) -> tuple:
    """``(off, reach)``: ``reach[i][p]`` has bit k set when items i.. can add the sum
    k + off of parity p, within the window of the weight still to find before item i."""
    lo, hi = [target], [target]
    for w, cap in zip(weights, caps):
        lo.append(lo[-1] - max(0, w * cap))
        hi.append(hi[-1] - min(0, w * cap))
    off = min(0, *lo)  # so that the empty sum has a bit
    reach = [(1 << -off, 0)]
    for i in range(len(weights) - 1, -1, -1):
        w, q, (b0, b1) = weights[i], parities[i], reach[-1]
        even, odd = b0, b1
        for _e in range(caps[i]):  # one more factor: shift by w, and swap if odd
            b0, b1 = (b1, b0) if q else (b0, b1)
            b0, b1 = (b0 << w, b1 << w) if w >= 0 else (b0 >> -w, b1 >> -w)
            even, odd = even | b0, odd | b1
        window = ((1 << (hi[i] - lo[i] + 1)) - 1) << (lo[i] - off)
        reach.append((even & window, odd & window))
    return off, reach[::-1]


def enumerate_monomials(items: Sequence[AnsatzItem], weight, parity):
    """All monomials of the exact weight and parity with at least one factor.

    Each item's factor occurs at most ``max_exp`` times.  A monomial is the
    product of its factors in the order of the items sorted by
    ``(weight <= 0, str(factor))``, so its coefficient is the sign of
    bringing the odd factors into canonical order, times the squares of
    repeated Clifford factors; products that vanish are left out.  The
    result is sorted by ``term_order_key``, ties in enumeration order.

    Weights are scaled to ints (``integer_weights``) and reachable sums kept
    as bitsets (``_reach``): an unreachable target gives ``[]`` before any sort
    or product, and the search takes only exponents that keep the rest reachable.
    """
    weights, target = integer_weights(items, weight)
    caps, parities = [it.max_exp for it in items], [it.parity for it in items]
    if target is None or not _reach(weights, caps, parities, target)[1][0][parity]:
        return []
    order = sorted(range(len(items)), key=lambda i: (weights[i] <= 0, str(items[i].factor)))
    weights, caps, parities = ([v[i] for i in order] for v in (weights, caps, parities))
    gen_keys = [next(iter(SuperPoly.from_gen(items[i].factor).terms)) for i in order]
    off, reach = _reach(weights, caps, parities, target)
    n, found = len(order), []

    def build(i, rest, par, chosen, scalar, key):
        """Extend the product (scalar, key) of the factors before item i."""
        while i < n:
            w, q, after = weights[i], parities[i], reach[i + 1]
            exps = [e for e in range(caps[i] + 1)
                    if (k := rest - w * e - off) >= 0 and after[(par + q * e) % 2] >> k & 1]
            if exps != [0]:
                break
            i += 1
        else:
            if chosen:
                found.append((key, rat(scalar)))
            return
        for e in range(exps[-1] + 1):
            if e:
                s, key = _mul_keys(key, gen_keys[i])
                if not s:
                    return
                scalar = _scaled(scalar, s)
            if e in exps:
                build(i + 1, rest - w * e, (par + q * e) % 2, chosen or e, scalar, key)

    build(0, target, parity, 0, 1, _ONE_KEY)
    found.sort(key=lambda kc: term_order_key(kc[0]))
    return [_wrap({key: c}) for key, c in found]


def weighted_ansatz(ws, gens, weight, parity, prefix, start, zero_weight_cap=2) -> tuple:
    """(ansatz, names, monomials): one unknown, ``prefix`` and an index
    from ``start`` on, per monomial of the weight and parity in the jets."""
    monos = enumerate_monomials(items_from_gens(ws, gens, weight, zero_weight_cap), weight, parity)
    names = [f"{prefix}{i}" for i in range(start, start + len(monos))]
    return linear_ansatz(names, monos), names, monos
