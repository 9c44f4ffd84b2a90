"""Exact linear algebra: one sparse, fraction-free Gauss-Jordan elimination.

The only domain is the Laurent ring ``QQ[p1^±1, ..., pk^±1]``
(``LaurentRing``) in the parameters that occur; with no parameters it is
``QQ`` itself.  An element is a dict from the parameter part of a key,
a sorted ``(name, exponent)`` tuple, to a nonzero coefficient.  A
one-term pivot is a unit of the ring, and its row is divided by it, so a
system whose pivots are all monomials reduces exactly as over the field.
A pivot with several terms is not a unit: it stays in its row, and from
then on the elimination is fraction-free (Bareiss), with exact division
by the previous such pivot and never a gcd.

That fixes the canonical form of a solution once a pivot has several
terms.  Every pivot row then has the last such pivot ``s`` in its pivot
column.  A particular value is the exact quotient of its row's right-hand
side by ``s``, and a quotient that is not a Laurent polynomial raises
``NonlinearSystemError``.  A basis vector is the field's vector, with 1 in
its free column, times the numerator of ``s`` if it reads any pivot row,
so all its entries are Laurent polynomials.  The assumed pivots are the
ring's, and may carry factors of earlier pivots; a leftover right-hand
side is the field's times ``s``, the pivot of any solved row (1 when no
row is solved).

The one system type is ``LinearEquation``, keyed by its unknowns, with
``RingElement`` entries, and ``Reduced`` answers in ring elements keyed
by them too; each caller converts what it keeps (``as_poly``) once.  The
caller lists the unknowns in column order.  Inside, each equation is a
sparse row from column index to nonzero element, so the loop costs
nothing for the zero entries that dominate determining systems.  Pivot
columns are taken in order.  While every pivot is a monomial, the pivot
row of a column is the sparsest eligible one: Markowitz's fill-reducing
choice (Management Science, 1957) with the column order fixed.  Over the
field the reduced row echelon form, and with it the pivot columns, the
particular solution and the basis, does not depend on which rows are
taken, so a system whose pivots are all monomials gets its canonical
solution whatever the order of its rows.  Which pivots are assumed, which
rows are left over and the scale ``s`` may depend on the rows taken; the
rule fixes them from the order of the input rows.
"""

from __future__ import annotations

import math
from operator import add, not_, sub
from typing import Iterable, NamedTuple, Optional, Sequence

from .algebra import SuperPoly, _accumulate, _merge_params, _wrap, rat_div


class NonlinearSystemError(ValueError):
    pass


class LaurentRing:
    """``QQ[p1^±1, ..., pk^±1]`` on dict elements.  ``revert`` inverts a
    monomial, the ring's only units.  No operation changes its operands."""

    zero, one = {}, {(): 1}
    is_zero = staticmethod(not_)

    @staticmethod
    def revert(a: dict) -> dict:
        ((key, c),) = a.items()
        return {tuple((nm, -x) for nm, x in key): rat_div(1, c)}

    @staticmethod
    def mul(a: dict, b: dict) -> dict:
        return LaurentRing.submul({}, a, {key: -c for key, c in b.items()})

    @staticmethod
    def submul(a: dict, f: dict, v: dict) -> dict:
        """``a - f*v``, accumulated into a copy of ``a``."""
        acc = dict(a)
        for pf, cf in f.items():
            for pv, cv in v.items():
                key = _merge_params(pf, pv)
                if c := acc.get(key, 0) - cf * cv:
                    acc[key] = c if type(c) is int or c.denominator != 1 else c.numerator
                else:
                    del acc[key]
        return acc


class RingElement(dict):
    """A ``LinearEquation`` entry: a ring element, never changed once built,
    that names its parameters.  Ring operations answer in plain dicts."""

    __slots__ = ()

    def param_names(self) -> set:
        return {nm for key in self for nm, _x in key}


def as_poly(a: dict) -> SuperPoly:
    """The parameter-only ``SuperPoly`` of a ring element."""
    return _wrap({((), (), (), key): c for key, c in a.items()})


class LinearEquation(NamedTuple):
    """``sum(coeffs[u] * u) + const == 0`` over the Laurent ring."""

    coeffs: dict  # unknown -> RingElement
    const: RingElement


class Reduced:
    """Solution set of a list of ``LinearEquation``s, keyed by their unknowns.

    Every value is a ring element.  ``solved`` maps each pivot unknown to
    its row's entry there and its row's right-hand side, ``-const`` reduced.
    Each ``basis`` vector maps unknowns to values and is nonzero in its own
    free unknown only among the free ones.  ``assumed`` lists the pivots
    that were not known to be nonzero, in elimination order.  ``leftover``
    holds the nonzero right-hand sides of rows that reduced to ``0 == rhs``.
    """

    def __init__(self, solved: dict, basis: list, assumed: list, leftover: list):
        self.solved = solved
        self.basis = basis
        self.assumed = assumed
        self.leftover = leftover

    @property
    def particular(self) -> dict:
        """Pivot unknowns to their values (free unknowns are 0).

        Raises NonlinearSystemError when a value is not a Laurent polynomial.
        """
        out = {}
        for u, (pivot, rhs) in self.solved.items():
            q = quotient(rhs, pivot) if rhs else {}
            if q is None:
                raise NonlinearSystemError(f"solution {as_poly(rhs)} / ({as_poly(pivot)}) is "
                                           "not a Laurent polynomial")
            out[u] = q
        return out


def gauss_jordan(
    eqs: Iterable[LinearEquation],
    unknowns: Sequence,
    assume_nonzero: Sequence[str] = (),
    K: LaurentRing = LaurentRing(),
) -> Reduced:
    """Reduce the equations, with ``unknowns`` (any hashable values) as the
    columns in order.  Zero coefficients are skipped, and so is every ring
    operation on a zero right-hand side, which stays zero.

    An entry is sure to be nonzero when it is one monomial in the
    parameters ``assume_nonzero`` (with none, a rational).  For each
    column the pivot row is taken among the remaining rows whose entry
    over the field is sure: the one with the fewest entries, the lower
    index on a tie, while every pivot so far is a monomial, and the first
    one from then on, since there the row taken sets the scale of the
    canonical form.  With no such row it is the first remaining row with
    any nonzero entry, whose entry in the ring is then recorded in
    ``assumed``.  ``K`` supplies the ring operations; ``revert`` is called
    on the monomial pivots alone.

    Up to the first pivot that is not a monomial, every pivot row ``v``
    is divided by its pivot and the rows ``a`` with an entry ``f`` in its
    column become ``a - f*v``.  From that pivot on, each pivot ``p``,
    monomial or not, turns every other row into ``(p*a - f*v) / s``, where
    ``s`` is the previous pivot taken this way (1 at first).  This is
    Bareiss's step: each row is then exactly the field's row times ``p``,
    the division is exact, and entries stay the size of minors.
    """
    zero, one, is_zero, mul, submul = K.zero, K.one, K.is_zero, K.mul, K.submul
    index = {u: c for c, u in enumerate(unknowns)}
    work = [({index[u]: v for u, v in eq.coeffs.items() if v},
             {key: -c for key, c in eq.const.items()}) for eq in eqs]
    col_rows: dict = {}  # column -> indices of the rows with an entry there
    for i, (row, _rhs) in enumerate(work):
        for c in row:
            col_rows.setdefault(c, set()).add(i)
    pivot_row: dict = {}  # column -> index of its pivot row
    used: set = set()
    assumed = []
    scale = one  # the pivot of the last fraction-free step
    for c in range(len(unknowns)):
        cands = sorted(i for i in col_rows.get(c, ()) if i not in used)
        if not cands:
            continue
        if scale is one:  # the sparsest eligible row, to keep the fill down
            p = min((i for i in cands if is_monomial_in(work[i][0][c], assume_nonzero)),
                    key=lambda i: len(work[i][0]), default=None)
        else:  # judge the field's entries, which are the ring's divided by scale
            p = next((i for i in cands if (v := quotient(work[i][0][c], scale)) is not None
                      and is_monomial_in(v, assume_nonzero)), None)
        if p is None:
            p = cands[0]
            assumed.append(work[p][0][c])
        row, rhs = work[p]
        pivot = row[c]
        unit = scale is one and len(pivot) == 1
        if unit:
            inv = K.revert(pivot)
            row = {cc: mul(v, inv) for cc, v in row.items()}
            rhs = rhs if is_zero(rhs) else mul(rhs, inv)
            work[p] = (row, rhs)
        used.add(p)
        pivot_row[c] = p
        for i in col_rows[c] - {p} if unit else set(range(len(work))) - {p}:
            orow, orhs = work[i]
            f = orow.get(c)
            if not unit:
                orow = {cc: mul(pivot, v) for cc, v in orow.items()}
                orhs = orhs if is_zero(orhs) else mul(pivot, orhs)
            if f is not None:
                for cc, v in row.items():
                    nv = submul(orow.get(cc, zero), f, v)
                    if not is_zero(nv):
                        orow[cc] = nv
                        col_rows.setdefault(cc, set()).add(i)
                    else:
                        del orow[cc]
                        col_rows[cc].discard(i)
                orhs = orhs if is_zero(rhs) else submul(orhs, f, rhs)
            if scale is not one:
                orow = {cc: quotient(v, scale) for cc, v in orow.items()}
                orhs = orhs if is_zero(orhs) else quotient(orhs, scale)
            work[i] = (orow, orhs)
        if not unit:
            scale = pivot
    leftover = [rhs for i, (_row, rhs) in enumerate(work) if i not in used and not is_zero(rhs)]
    solved = {unknowns[c]: (work[p][0][c], work[p][1]) for c, p in pivot_row.items()}
    # every pivot row now has ``scale`` in its pivot column
    minus_clear, head = {k: -c for k, c in clearing_scale((scale,)).items()}, numerator(scale)
    basis = []
    for fc, fu in enumerate(unknowns):
        if fc in pivot_row:
            continue
        reads = [(c, work[p][0][fc]) for c, p in pivot_row.items() if fc in work[p][0]]
        vec = {fu: head if reads else dict(one)}
        vec.update((unknowns[c], mul(minus_clear, v)) for c, v in reads)
        basis.append(vec)
    return Reduced(solved, basis, assumed, leftover)


def quotient(a: dict, b: dict) -> Optional[dict]:
    """``a / b`` when it is a Laurent polynomial, else None.

    Shifted by monomials to polynomials, with no monomial factor left in
    ``b``, ``b`` divides ``a`` in the Laurent ring exactly when it does in
    the polynomial ring.  Long division by the lex-leading term of ``b``
    decides that, since one polynomial is a Groebner basis of its ideal.
    """
    if len(b) == 1:
        return LaurentRing.mul(a, LaurentRing.revert(b))
    if not a:
        return a
    names = sorted({nm for key in (*a, *b) for nm, _x in key})

    def shifted(p):
        vecs = [tuple(dict(key).get(nm, 0) for nm in names) for key in p]
        low = [min(col) for col in zip(*vecs)]
        return {tuple(map(sub, v, low)): c for v, c in zip(vecs, p.values())}, low

    (rest, low_a), (den, low_b) = shifted(a), shifted(b)
    lead = max(den)
    out = {}
    while rest:
        top = max(rest)
        q = tuple(map(sub, top, lead))
        if min(q) < 0:
            return None
        out[q] = qc = rat_div(rest[top], den[lead])
        _accumulate(rest, ((tuple(map(add, q, v)), -qc * c) for v, c in den.items()))
    shift = list(map(sub, low_a, low_b))
    return {tuple((nm, x) for nm, x in zip(names, map(add, e, shift)) if x): c
            for e, c in out.items()}


def numerator(a: dict) -> dict:
    """``a`` times its ``clearing_scale``: the fraction field's numerator."""
    return LaurentRing.mul(clearing_scale((a,)), a)


def clearing_scale(values: Iterable[dict]) -> dict:
    """The lcm of the coefficient denominators of the ring elements ``values``
    times the monomial that clears their negative parameter exponents."""
    denom = 1
    clear: dict = {}
    for v in values:
        for key, c in v.items():
            denom = math.lcm(denom, c.denominator)
            for nm, x in key:
                if x < 0:
                    clear[nm] = max(clear.get(nm, 0), -x)
    return {tuple(sorted(clear.items())): denom}


def is_monomial_in(v: dict, names: Sequence[str]) -> bool:
    """Whether the ring element ``v`` is a single monomial in ``names``."""
    return len(v) == 1 and all(nm in names for key in v for nm, _x in key)
