"""Exact linear algebra: one sparse Gauss-Jordan elimination over a field.

The field is a sympy polys domain ``K``: ``QQ`` for rational systems and
``QQ(p1, ..., pk)`` when parameters occur.  Rows are sparse maps from
column index to nonzero field element, so the loop costs nothing for the
zero entries that dominate determining systems.  Pivots are taken in
column order, which makes the reduced row echelon form, and hence every
returned solution, canonical.

Parameter-only ``SuperPoly`` values (Laurent polynomials in parameters with
rational coefficients) convert to and from elements of ``K``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from sympy import QQ

from .algebra import SuperPoly


class NonlinearSystemError(ValueError):
    pass


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
    with any nonzero entry, which is then recorded in ``assumed``.
    """
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
        pv = row[c]
        row = {cc: v / pv for cc, v in row.items()}
        rhs = rhs / pv
        work[p] = (row, rhs)
        used.add(p)
        pivot_row[c] = p
        for i in col_rows[c] - {p}:
            orow, orhs = work[i]
            f = orow[c]
            for cc, v in row.items():
                nv = orow.get(cc, K.zero) - f * v
                if nv:
                    orow[cc] = nv
                    col_rows.setdefault(cc, set()).add(i)
                else:
                    del orow[cc]
                    col_rows[cc].discard(i)
            work[i] = (orow, orhs - f * rhs)
    leftover = [rhs for i, (_row, rhs) in enumerate(work) if i not in used and rhs]
    particular = {c: work[p][1] for c, p in pivot_row.items()}
    basis = []
    for fc in range(n):
        if fc in pivot_row:
            continue
        vec = {fc: K.one}
        for c, p in pivot_row.items():
            v = work[p][0].get(fc)
            if v:
                vec[c] = -v
        basis.append(vec)
    return Reduced(particular, basis, assumed, leftover)


# ---------------------------------------------------------------------------
# parameter-only SuperPoly values as field elements


def field_of(names: Iterable[str]):
    """``QQ`` without parameters, else the rational function field in them."""
    names = sorted(set(names))
    return QQ.frac_field(*names) if names else QQ


def to_field(p: SuperPoly, K):
    """The field element of a parameter-only polynomial."""
    if K is QQ:
        return from_fraction(p.terms.get(((), (), (), ()), 0))
    index = {str(g): i for i, g in enumerate(K.symbols)}
    exps = []
    for (_e, _o, _f, params), c in p.terms.items():
        vec = [0] * len(index)
        for nm, x in params:
            vec[index[nm]] = x
        exps.append((vec, c))
    shift = [max([0] + [-vec[i] for vec, _c in exps]) for i in range(len(index))]
    ring = K.field.ring
    numer = ring({
        tuple(x + s for x, s in zip(vec, shift)): from_fraction(c)
        for vec, c in exps
    })
    return K.field.new(numer, ring({tuple(shift): QQ.one}))


def from_fraction(c):
    """A Fraction as an element of QQ."""
    return QQ.dtype(c.numerator, c.denominator)


def to_fraction(c) -> Fraction:
    """An element of QQ as a Fraction."""
    return Fraction(int(c.numerator), int(c.denominator))


def _poly_of(numer, K, shift=None) -> SuperPoly:
    """A polynomial of ``K`` as a SuperPoly, with ``shift`` subtracted from
    every exponent vector."""
    names = [str(g) for g in K.symbols]
    terms = {}
    for monom, c in numer.terms():
        if shift is not None:
            monom = [x - s for x, s in zip(monom, shift)]
        params = tuple((nm, x) for nm, x in zip(names, monom) if x)
        terms[((), (), (), params)] = to_fraction(c)
    return SuperPoly(terms)


def from_field(v, K) -> SuperPoly:
    """A field element as a parameter-only Laurent polynomial.

    Raises NonlinearSystemError when the denominator is not a monomial.
    """
    if K is QQ:
        return SuperPoly.scalar(to_fraction(v))
    if len(v.denom) != 1:
        raise NonlinearSystemError(
            f"solution denominator {v.denom.as_expr()} is not a parameter monomial"
        )
    ((monom, c),) = v.denom.terms()
    return _poly_of(v.numer, K, monom) / to_fraction(c)


def numerator(v, K) -> SuperPoly:
    """The numerator of a field element as a parameter-only SuperPoly."""
    return from_field(v, K) if K is QQ else _poly_of(v.numer, K)


def is_monomial_in(v, K, names: Sequence[str]) -> bool:
    """Whether numerator and denominator are single monomials in ``names``."""
    if K is QQ:
        return bool(v)
    allowed = [str(g) in names for g in K.symbols]
    return all(
        len(part) == 1 and all(ok or not x for ok, x in zip(allowed, next(iter(part))))
        for part in (v.numer, v.denom)
    )


def clear_polynomial_denominators(vec: dict, K) -> dict:
    """Scale a vector by the lcm of its non-monomial denominators."""
    if K is QQ:
        return vec
    lcm = K.field.ring.one
    for v in vec.values():
        if len(v.denom) != 1:
            lcm = lcm.lcm(v.denom)
    if lcm == 1:
        return vec
    scale = K.field.new(lcm)
    return {c: v * scale for c, v in vec.items()}
