"""Exact linear algebra: one sparse Gauss-Jordan elimination.

The working domain is always the Laurent ring ``QQ[p1^±1, ..., pk^±1]``
(``LaurentRing``) in the parameters that occur; with no parameters it is
``QQ`` itself.  Its elements are parameter-only ``SuperPoly`` values, and
its one-term pivots invert exactly, with no gcd.  At the first pivot with
more than one term the ring's ``revert`` raises ``NotInvertible``, and the
caller re-solves the original rows over the fraction field
``QQ(p1, ..., pk)``.  That fallback is sympy's ``QQ.frac_field``, and it is
the only place sympy is imported, when first needed.

Rows are sparse maps from column index to nonzero element, so the loop
costs nothing for the zero entries that dominate determining systems.
Pivots are taken in column order, which makes the reduced row echelon
form, and hence every returned solution, canonical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .algebra import SuperPoly, _accumulate, _merge_params, _wrap


class NonlinearSystemError(ValueError):
    pass


class NotInvertible(ArithmeticError):
    """A Laurent-ring pivot that is not a monomial."""


@dataclass
class Reduced:
    """Solution set of ``sum(row[c] * x[c]) == rhs`` over all rows.

    ``particular`` maps pivot columns to their value (free columns are
    0); each ``basis`` vector maps columns to values and has 1 in its own
    free column.  ``assumed`` lists the pivots that were not known to be
    nonzero, in elimination order.  ``leftover`` holds the nonzero
    right-hand sides of rows that reduced to ``0 == rhs``.
    """

    particular: dict
    basis: list
    assumed: list
    leftover: list


def gauss_jordan(
    rows: Iterable[tuple],
    n: int,
    K,
    sure_nonzero: Callable = lambda v: True,
) -> Reduced:
    """Reduce rows ``({column: value}, rhs)`` in ``n`` unknowns over ``K``.

    For each column the pivot is the first remaining row (in input order)
    whose entry satisfies ``sure_nonzero``, else the first remaining row
    with any nonzero entry, which is then recorded in ``assumed``.  The loop
    uses ``K``'s zero, one, is_zero, revert (which may raise NotInvertible),
    mul and the update ``a - f*v``.
    """
    zero, is_zero, mul = K.zero, K.is_zero, K.mul
    submul = K.submul if isinstance(K, LaurentRing) else (lambda a, f, v: a - f * v)
    work = [(dict(row), rhs) for row, rhs in rows]
    col_rows: dict = {}  # column -> indices of the rows with an entry there
    for i, (row, _rhs) in enumerate(work):
        for c in row:
            col_rows.setdefault(c, set()).add(i)
    pivot_row: dict = {}  # column -> index of its pivot row
    used: set = set()
    assumed = []
    for c in range(n):
        cands = sorted(i for i in col_rows.get(c, ()) if i not in used)
        if not cands:
            continue
        p = next((i for i in cands if sure_nonzero(work[i][0][c])), None)
        if p is None:
            p = cands[0]
            assumed.append(work[p][0][c])
        row, rhs = work[p]
        inv = K.revert(row[c])
        row = {cc: mul(v, inv) for cc, v in row.items()}
        rhs = mul(rhs, inv)
        work[p] = (row, rhs)
        used.add(p)
        pivot_row[c] = p
        for i in col_rows[c] - {p}:
            orow, orhs = work[i]
            f = orow[c]
            for cc, v in row.items():
                nv = submul(orow.get(cc, zero), f, v)
                if not is_zero(nv):
                    orow[cc] = nv
                    col_rows.setdefault(cc, set()).add(i)
                else:
                    del orow[cc]
                    col_rows[cc].discard(i)
            work[i] = (orow, submul(orhs, f, rhs))
    leftover = [rhs for i, (_row, rhs) in enumerate(work)
                if i not in used and not is_zero(rhs)]
    particular = {c: work[p][1] for c, p in pivot_row.items()}
    basis = []
    for fc in range(n):
        if fc in pivot_row:
            continue
        vec = {fc: K.one}
        for c, p in pivot_row.items():
            v = work[p][0].get(fc)
            if v is not None:
                vec[c] = -v
        basis.append(vec)
    return Reduced(particular, basis, assumed, leftover)


class LaurentRing:
    """``QQ[p1^±1, ..., pk^±1]`` with parameter-only SuperPolys as elements.

    Products work on the parameter part of the monomial keys alone.  Only
    monomials are invertible; ``revert`` raises ``NotInvertible`` on any
    other value, and ``fraction_field`` is the field to fall back to.
    """

    zero, one = SuperPoly.zero(), SuperPoly.one()

    def __init__(self, names: Sequence[str]):
        self.names = tuple(names)

    @cached_property
    def fraction_field(self):
        from sympy import QQ  # the only sympy import: the fallback is rare

        return QQ.frac_field(*self.names)

    @staticmethod
    def is_zero(a: SuperPoly) -> bool:
        return not a.terms

    @staticmethod
    def revert(a: SuperPoly) -> SuperPoly:
        if len(a.terms) != 1:
            raise NotInvertible(f"{a} is not a Laurent monomial")
        ((key, c),) = a.terms.items()
        return _wrap({((), (), (), tuple((nm, -x) for nm, x in key[3])): 1 / c})

    @staticmethod
    def mul(a: SuperPoly, b: SuperPoly) -> SuperPoly:
        return LaurentRing.submul(LaurentRing.zero, a, -b)

    @staticmethod
    def submul(a: SuperPoly, f: SuperPoly, v: SuperPoly) -> SuperPoly:
        """``a - f*v``, accumulated into a copy of ``a``'s terms."""
        acc = dict(a.terms)
        vt = [(key[3], -c) for key, c in v.terms.items()]
        for (_e, _o, _f, pf), c in f.terms.items():
            _accumulate(acc, ((((), (), (), _merge_params(pf, pv)), c * cv) for pv, cv in vt))
        return _wrap(acc)


# ---------------------------------------------------------------------------
# parameter-only SuperPoly values as domain elements


def domain_of(names: Iterable[str]) -> LaurentRing:
    """The Laurent ring in the given parameters (``QQ`` itself when none)."""
    return LaurentRing(sorted(set(names)))


def to_field(p: SuperPoly, K):
    """The element of ``K`` of a parameter-only polynomial (the polynomial
    itself in the Laurent ring)."""
    if isinstance(K, LaurentRing):
        return p
    gens = dict(zip(map(str, K.symbols), K.field.gens))
    return sum((K.field(K.domain.dtype(c.numerator, c.denominator))
                * math.prod((gens[nm] ** x for nm, x in key[3]), start=K.field.one)
                for key, c in p.terms.items()), K.field.zero)


def _poly_of(numer, K, shift=None) -> SuperPoly:
    """A polynomial of ``K`` as a SuperPoly, with ``shift`` subtracted from
    every exponent vector."""
    names = [str(g) for g in K.symbols]
    terms = {}
    for monom, c in numer.terms():
        if shift is not None:
            monom = [x - s for x, s in zip(monom, shift)]
        params = tuple((nm, x) for nm, x in zip(names, monom) if x)
        terms[((), (), (), params)] = Fraction(int(c.numerator), int(c.denominator))
    return SuperPoly(terms)


def from_field(v, K) -> SuperPoly:
    """An element of ``K`` as a parameter-only Laurent polynomial.

    Raises NonlinearSystemError when the denominator is not a monomial.
    """
    if isinstance(K, LaurentRing):
        return v
    if len(v.denom) != 1:
        raise NonlinearSystemError(
            f"solution denominator {v.denom.as_expr()} is not a parameter monomial"
        )
    ((monom, c),) = v.denom.terms()
    return _poly_of(v.numer, K, monom) / Fraction(int(c.numerator), int(c.denominator))


def numerator(v, K) -> SuperPoly:
    """The numerator of ``v`` as a parameter-only SuperPoly.

    In the Laurent ring this is ``v`` times its ``clearing_scale``, which
    is the numerator the fraction field keeps.
    """
    if isinstance(K, LaurentRing):
        return clearing_scale((v,)) * v
    return _poly_of(v.numer, K)


def clearing_scale(values: Iterable[SuperPoly]) -> SuperPoly:
    """The lcm of the coefficient denominators of ``values`` times the
    monomial that clears their negative parameter exponents."""
    denom = 1
    clear: dict = {}
    for v in values:
        for key, c in v.terms.items():
            denom = math.lcm(denom, c.denominator)
            for nm, x in key[3]:
                if x < 0:
                    clear[nm] = max(clear.get(nm, 0), -x)
    return SuperPoly({((), (), (), tuple(sorted(clear.items()))): Fraction(denom)})


def is_monomial_in(v, K, names: Sequence[str]) -> bool:
    """Whether numerator and denominator are single monomials in ``names``."""
    if isinstance(K, LaurentRing):
        ((key, _c), *more) = v.terms.items()
        return not more and all(nm in names for nm, _x in key[3])
    allowed = [str(g) in names for g in K.symbols]
    return all(
        len(part) == 1 and all(ok or not x for ok, x in zip(allowed, next(iter(part))))
        for part in (v.numer, v.denom)
    )


def clear_polynomial_denominators(vec: dict, K) -> dict:
    """Scale a vector of the fraction field by the lcm of its non-monomial
    denominators."""
    if isinstance(K, LaurentRing):
        return vec
    lcm = K.field.ring.one
    for v in vec.values():
        if len(v.denom) != 1:
            lcm = lcm.lcm(v.denom)
    if lcm == 1:
        return vec
    scale = K.field.new(lcm)
    return {c: v * scale for c, v in vec.items()}
