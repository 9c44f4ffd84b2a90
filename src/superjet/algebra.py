"""Canonical arithmetic for Grassmann-graded differential polynomials.

Values are sparse sums of monomials with exact rational coefficients.  A
coefficient is an ``int`` when it is integral and a ``Fraction`` only when
its denominator is greater than 1 (``rat``), since ``int`` arithmetic is
many times cheaper; ``Fraction(3) == 3``, with equal hashes and ``str``,
so the canonical output is the same either way.  Coefficients are divided
only by ``rat_div``: ``/`` on two ints gives a float.  A monomial collects
four kinds of data:

* even factors with positive integer exponents,
* an ordered word of distinct odd factors (the canonical order is
  theta-variables, then Clifford-type auxiliaries, then jet variables,
  each sorted by name and derivative index),
* function factors ``Q^(k)(b)`` of a single even zeroth-order argument,
* a Laurent monomial in declared scalar parameters.

Reordering two odd factors flips the sign of the coefficient; a repeated
odd factor annihilates the monomial, except for Clifford auxiliaries
whose square reduces to a declared even parameter monomial.  All
operations return fully canonical values, and every value is immutable
after construction.  A ``SuperPoly``'s one other slot, ``_jets``, is a
table of its own total derivatives that ``jets.prolong`` fills on demand:
it only caches what the terms and the declared non-local values determine,
starts empty in every constructor, dies with its value and is left out of
pickles and copies.

Sums are accumulated in place in a plain dict (``_accumulate``), so a sum
or product costs time linear in the terms it produces.  Results built that
way skip the constructor's filtering (``_wrap``); two invariants make that
safe: no stored coefficient is zero, and no two values share a ``terms``
dict.  Generators are pooled (``_Pooled``): calling ``JetVar``, ``Theta`` or
``Clifford`` again with the same arguments returns the first instance, so
each is built, hashed and given its sort key once per process, and dict
lookups meet the same object.  A jet is keyed on the identity of its field
symbol, because equal non-locals may declare different values.  Equality
and hashes stay by value, so unpooled clones (pickles, copies) still match.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence, Union

EVEN = 0
ODD = 1

#: derivative direction labels
D1, D2, DX, DT = "D1", "D2", "Dx", "Dt"

Rat = Union[int, Fraction]


class ParityError(ValueError):
    pass


class UnknownNameError(KeyError):
    """A name given by the user (a catalog entry, a weight) is not defined."""

    __str__ = Exception.__str__  # the message, without the quotes KeyError adds


class _Cached:
    """Value equality, hash and sort key of an immutable generator.

    Two generators are equal when they have the same class and equal
    ``_compared`` fields; the hash, of the tuple of those fields, and the
    sort key are computed once.  Attributes are set only by ``__init__``,
    through ``vars``; assigning or deleting one raises ``AttributeError``.
    Pickles leave the caches out: string hashes differ by process.  Pooled
    generators compute both once per process.
    """

    _compared: tuple  # the names of the fields that equality and the hash read

    def _values(self):
        return tuple([getattr(self, n) for n in self._compared])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # the cached hashes tell most unequal pairs apart (the odd-word merge
        # compares neighbours) without building the two field tuples
        return self is other or (self._hash == other._hash and self._values() == other._values())

    @cached_property
    def _hash(self):
        return hash(self._values())

    def __hash__(self):
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def sort_key(self):
        return self._sort_key

    def __getstate__(self):
        return {k: v for k, v in vars(self).items() if k not in ("_hash", "_sort_key")}


class FieldSymbol(_Cached):
    """A dependent variable: bosonic or fermionic, with 0..2 susy directions."""

    _compared = ("name", "parity", "n_susy")

    def __init__(self, name: str, parity: int, n_susy: int = 1):
        vars(self).update(name=name, parity=parity, n_susy=n_susy)
        if parity not in (EVEN, ODD):
            raise ValueError(f"bad parity {parity!r} for field {name}")
        if n_susy not in (0, 1, 2):
            raise ValueError(f"bad susy count {n_susy!r} for field {name}")

    def __repr__(self):
        return f"FieldSymbol({self.name!r})"


class Phantom(FieldSymbol):
    """Linearized counterpart of a field; same parity, capitalized by convention."""

    _compared = ("name", "parity", "n_susy", "base")

    def __init__(self, name: str, parity: int, n_susy: int = 1, base: FieldSymbol = None):
        super().__init__(name, parity, n_susy)
        vars(self)["base"] = base

    def __repr__(self):
        return f"Phantom({self.name!r})"


_POOL: dict = {}


class _Pooled(type):
    """Maps the class and its ``_pool_key`` of the arguments to the first
    instance built, for the life of the process; a construction that raises
    leaves nothing behind."""

    def __call__(cls, *args, **kwargs):
        key = (cls, cls._pool_key(*args, **kwargs))
        g = _POOL.get(key)
        if g is None:
            g = _POOL[key] = super().__call__(*args, **kwargs)
        return g


class Theta(_Cached, metaclass=_Pooled):
    """An anticommuting independent variable theta^i (odd, squares to zero)."""

    _compared = ("index",)

    def __init__(self, index: int):
        vars(self)["index"] = index

    @staticmethod
    def _pool_key(index):
        return index

    @property
    def parity(self):
        return ODD

    @cached_property
    def _sort_key(self):
        return (0, self.index, "", 0, 0, 0)

    def __repr__(self):
        return f"Theta({self.index})"


class Clifford(_Cached, metaclass=_Pooled):
    """Odd auxiliary whose square is a declared even parameter monomial.

    ``square`` is a pair (rational, params) where params is a sorted tuple
    of (name, exponent).
    """

    _compared = ("name", "square")

    def __init__(self, name: str, square: tuple = (1, ())):
        vars(self).update(name=name, square=square)

    @staticmethod
    def _pool_key(name, square=(1, ())):
        return name, square

    @property
    def parity(self):
        return ODD

    @cached_property
    def _sort_key(self):
        return (1, 0, self.name, 0, 0, 0)

    def __repr__(self):
        return f"Clifford({self.name!r})"


class JetVar(_Cached, metaclass=_Pooled):
    """A derivative coordinate D1^d1 D2^d2 Dx^m (field)."""

    _compared = ("fieldsym", "d1", "d2", "m")

    def __init__(self, fieldsym: FieldSymbol, d1: int = 0, d2: int = 0, m: int = 0):
        vars(self).update(fieldsym=fieldsym, d1=d1, d2=d2, m=m)
        if d1 not in (0, 1) or d2 not in (0, 1) or m < 0:
            raise ValueError(f"bad jet indices ({d1},{d2},{m})")
        n = fieldsym.n_susy
        if (d1 and n < 1) or (d2 and n < 2):
            raise ValueError(f"field {fieldsym.name} has no direction D{2 if d2 else 1}")

    @staticmethod
    def _pool_key(fieldsym, d1=0, d2=0, m=0):
        # the pooled jet keeps fieldsym alive, so its id is never reused
        return id(fieldsym), d1, d2, m

    @property
    def parity(self):
        return (self.fieldsym.parity + self.d1 + self.d2) % 2

    @cached_property
    def _sort_key(self):
        return (2, 0, self.fieldsym.name, self.d1, self.d2, self.m)

    def __repr__(self):
        return f"JetVar({self.fieldsym.name},{self.d1},{self.d2},{self.m})"


Generator = Union[Theta, Clifford, JetVar]


def _merge_params(a, b):
    """The product of two parameter monomials: one linear merge of their
    sorted ``(name, exponent)`` tuples, dropping a zero exponent."""
    if not a or not b:
        return a or b
    if len(a) == 1 == len(b) and a[0][0] == b[0][0]:  # one name times itself
        return ((a[0][0], x),) if (x := a[0][1] + b[0][1]) else ()
    out, i, j = [], 0, 0
    while i < len(a) and j < len(b):
        (n, x), (m, y) = a[i], b[j]
        if n != m:
            out.append(a[i] if n < m else b[j])
        elif x + y:
            out.append((n, x + y))
        i, j = i + (n <= m), j + (m <= n)
    return (*out, *a[i:], *b[j:])


def _merge_odds(a: tuple, b: tuple):
    """Merge two canonical odd words, counting transposition sign.

    Returns (coeff, params, word) where coeff/params absorb signs and
    Clifford square reductions, or (0, (), ()) when the product vanishes;
    coeff is the int 1 or -1 unless a Clifford square was reduced.
    """
    sign = 1
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        if b[j]._sort_key < a[i]._sort_key:
            out.append(b[j])
            j += 1
            if (len(a) - i) % 2:
                sign = -sign
        else:
            out.append(a[i])
            i += 1
    out.extend(a[i:])
    out.extend(b[j:])
    coeff = sign
    params = ()
    k = 0
    reduced = []
    while k < len(out):
        if k + 1 < len(out) and out[k] == out[k + 1]:
            g = out[k]
            if isinstance(g, Clifford):
                sq_rat, sq_params = g.square
                coeff = coeff * sq_rat
                params = _merge_params(params, sq_params)
                k += 2
                continue
            return 0, (), ()
        reduced.append(out[k])
        k += 1
    return coeff, params, tuple(reduced)


def _merge_evens(a, b):
    if not a:
        return b
    if not b:
        return a
    if len(b) == 1:  # in place, after the factors of a that sort no later
        ((g, e),) = b
        for i, (h, x) in enumerate(a):
            if h._sort_key > g._sort_key:
                return (*a[:i], (g, e), *a[i:])
            if h == g:
                return (*a[:i], (h, x + e), *a[i + 1:])
        return (*a, (g, e))
    d = dict(a)
    for g, e in b:
        d[g] = d.get(g, 0) + e
    return tuple(sorted(d.items(), key=lambda ge: ge[0]._sort_key))


def _func_key(f):
    """Order of a function factor (name, order, arg): arguments have no ``<``."""
    return f[0], f[1], f[2].sort_key()


def _sorted_funcs(funcs) -> tuple:
    return tuple(sorted(funcs, key=_func_key))


def _merge_funcs(a, b):
    if not a:
        return b
    if not b:
        return a
    return _sorted_funcs(a + b)


#: monomial key layout: (evens, odds, funcs, params)
_ONE_KEY = ((), (), (), ())


def _key_parity(key):
    return len(key[1]) % 2


def _mul_keys(k1, k2):
    """Product of monomial keys, k1 on the left: (scalar, key); scalar 0 if it vanishes."""
    e1, o1, f1, p1 = k1
    e2, o2, f2, p2 = k2
    coeff, sq_params, odds = _merge_odds(o1, o2) if o1 and o2 else (1, (), o1 or o2)
    if not coeff:
        return 0, None
    params = _merge_params(p1, p2)
    params = _merge_params(params, sq_params) if sq_params else params
    return coeff, (_merge_evens(e1, e2), odds, _merge_funcs(f1, f2), params)


def rat(c) -> Rat:
    """The canonical coefficient of the exact rational c: an int when it is
    integral, else a Fraction.  Anything else (a float, a bool) is a TypeError."""
    if type(c) is int:
        return c
    if type(c) is Fraction:
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"a coefficient must be an int or a Fraction, got {c!r}")


def rat_div(a: Rat, b: Rat) -> Rat:
    """The exact quotient a / b of two coefficients, as ``rat`` gives it."""
    return rat(Fraction(a, b))


def _scaled(c, s):
    """Coefficient c times the scalar s of a key product."""
    if s == 1:
        return c
    return -c if s == -1 else c * s


def _accumulate(acc: dict, items) -> dict:
    """Add (key, coefficient) pairs into acc in place, dropping zero sums
    and storing an integral Fraction as an int (``rat``, inlined)."""
    get = acc.get
    for key, c in items:
        c0 = get(key)
        if c0 is not None:
            c = c0 + c
            if not c:
                del acc[key]
                continue
        elif not c:
            continue
        acc[key] = c if type(c) is int or c.denominator != 1 else c.numerator
    return acc


def _wrap(terms: dict) -> "SuperPoly":
    """A SuperPoly owning terms, which must be canonical, zero-free and unshared."""
    p = object.__new__(SuperPoly)
    p.terms = terms
    p._jets = None
    return p


class SuperPoly:
    """A canonical graded differential polynomial; its ``terms`` dict is
    never mutated after ``__init__`` or ``_wrap`` has built it.  ``_jets``
    is None or the jet table of ``jets.prolong``."""

    __slots__ = ("terms", "_jets")

    def __init__(self, terms: Mapping = ()):
        d = dict(terms)
        t = {k: c for k, c in zip(d, map(rat, d.values())) if c}
        object.__setattr__(self, "terms", t)
        object.__setattr__(self, "_jets", None)

    def __reduce__(self):
        # pickles and copies rebuild the terms and start a fresh jet table
        return SuperPoly, (self.terms,)

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "SuperPoly":
        return SuperPoly({})

    @staticmethod
    def scalar(c: Rat) -> "SuperPoly":
        c = rat(c)
        return _wrap({_ONE_KEY: c} if c else {})

    @staticmethod
    def one() -> "SuperPoly":
        return SuperPoly.scalar(1)

    @staticmethod
    def from_gen(g: Generator) -> "SuperPoly":
        key = ((), (g,), (), ()) if g.parity == ODD else (((g, 1),), (), (), ())
        return _wrap({key: 1})

    @staticmethod
    def param(name: str, exp: int = 1) -> "SuperPoly":
        if exp == 0:
            return SuperPoly.one()
        return _wrap({((), (), (), ((name, exp),)): 1})

    @staticmethod
    def func(name: str, order: int, arg: JetVar) -> "SuperPoly":
        """A function factor ``name^(order)(arg)`` of one even zeroth-order jet."""
        if arg.parity != EVEN or arg.d1 or arg.d2 or arg.m:
            raise ValueError(
                f"function {name} needs an even zeroth-order jet argument, got {arg!r}"
            )
        return _wrap({((), (), ((name, order, arg),), ()): 1})

    # -- predicates --------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def parity(self):
        """EVEN/ODD if homogeneous, None for zero or mixed."""
        if not self.terms:
            return None
        ps = {_key_parity(k) for k in self.terms}
        return ps.pop() if len(ps) == 1 else None

    def parity_report(self):
        """Split into (even part, odd part)."""
        even = {k: c for k, c in self.terms.items() if _key_parity(k) == EVEN}
        odd = {k: c for k, c in self.terms.items() if _key_parity(k) == ODD}
        return SuperPoly(even), SuperPoly(odd)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _wrap(_accumulate(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return _wrap({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict = {}
        items = other.terms.items()
        for k1, c1 in self.terms.items():
            _accumulate(out, _placed(k1, items, c1))
        return _wrap(out)

    def __rmul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return SuperPoly({k: rat_div(c, other) for k, c in self.terms.items()})
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers of polynomials are not defined")
        out = SuperPoly.one()
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        if not self.terms:
            return "SuperPoly(0)"
        bits = []
        for key in sorted(self.terms, key=term_order_key):
            bits.append(f"{self.terms[key]}*{_key_repr(key)}")
        return "SuperPoly(" + " + ".join(bits) + ")"

    # -- structure ---------------------------------------------------

    def generators(self):
        """All distinct generators occurring in this value."""
        seen = set()
        for e, o, f, _p in self.terms:
            for g, _exp in e:
                seen.add(g)
            seen.update(o)
            for _n, _k, arg in f:
                seen.add(arg)
        return seen

    def param_names(self):
        names = set()
        for key in self.terms:
            names.update(n for n, _ in key[3])
        return names

    def coefficient_of_param_power(self, name: str, exp: int) -> "SuperPoly":
        """Collect terms with the given power of a parameter, dividing it out."""
        out = {}
        for (e, o, f, p), c in self.terms.items():
            d = dict(p)
            if d.get(name, 0) != exp:
                continue
            d.pop(name, None)
            out[(e, o, f, tuple(sorted(d.items())))] = c
        return SuperPoly(out)

    def max_param_power(self, name: str) -> int:
        best = 0
        for key in self.terms:
            for n, e in key[3]:
                if n == name:
                    best = max(best, e)
        return best


def _placed(left, terms, c):
    """(key, coefficient) pairs of c * left * terms, left a monomial key."""
    for dk, dc in terms:
        s, key = _mul_keys(left, dk)
        if s:
            yield key, _scaled(dc * c, s)


def _coerce(x):
    if isinstance(x, SuperPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return SuperPoly.scalar(x)
    if isinstance(x, (Theta, Clifford, JetVar)):
        return SuperPoly.from_gen(x)
    return NotImplemented


def term_order_key(key):
    """Deterministic global ordering of monomial keys (used for normalization)."""
    e, o, f, p = key
    return (
        tuple(g.sort_key() for g in o),
        tuple((g.sort_key(), x) for g, x in e),
        tuple(map(_func_key, f)),
        p,
    )


def _key_repr(key):
    e, o, f, p = key
    bits = [f"{g!r}^{x}" if x != 1 else repr(g) for g, x in e]
    bits += [repr(g) for g in o]
    bits += [f"{n}^({k})({arg!r})" for n, k, arg in f]
    bits += [f"{n}^{x}" for n, x in p]
    return "*".join(bits) if bits else "1"


def poly_sum(polys: Iterable[SuperPoly]) -> SuperPoly:
    """Sum of polynomials, accumulated in place."""
    acc: dict = {}
    for p in polys:
        _accumulate(acc, p.terms.items())
    return _wrap(acc)


def linear_ansatz(names: Sequence[str], monomials: Sequence[SuperPoly]) -> SuperPoly:
    """The ansatz sum of param(names[i]) * monomials[i], built on the keys."""
    acc: dict = {}
    for n, m in zip(names, monomials):
        unknown = ((n, 1),)
        _accumulate(acc, (((e, o, f, _merge_params(p, unknown)), c)
                          for (e, o, f, p), c in m.terms.items()))
    return _wrap(acc)
