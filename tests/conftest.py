"""Shared fixtures and helpers: a deterministic RNG, ordered products,
repeated derivatives, a product oracle for the derivation kernel,
integration ansatz parts and a check on how coefficients are stored."""

import contextlib
import random
from fractions import Fraction

import pytest

from superjet import recursion
from superjet.algebra import DX, SuperPoly, _sorted_funcs
from superjet.jets import super_derive
from superjet.linsolve import LinearEquation, RingElement, as_poly, gauss_jordan
from superjet.weights import (
    enumerate_monomials,
    items_from_gens,
    jets_up_to_weight,
    split_by_weight,
)


@pytest.fixture()
def rng():
    return random.Random(20260824)


def prod(factors, coeff=1) -> SuperPoly:
    """Ordered product of generators or polynomials with a scalar prefactor."""
    out = SuperPoly.scalar(coeff)
    for g in factors:
        out = out * g
    return out


def apply_ops(p: SuperPoly, ops) -> SuperPoly:
    """Apply a sequence of directions, innermost first: the oracle for
    ``jets.prolong``, which derives each jet once."""
    for direction in ops:
        p = super_derive(p, direction)
    return p


def derive_oracle(p: SuperPoly, gen_image, side: str) -> SuperPoly:
    """The oracle for ``jets._derive``: the sum over the slots of every
    term c * key of sign * c * left * image * right, built from
    ``SuperPoly`` products, where left is the key up to the slot's
    generator (an even or function slot takes one factor off, with none
    of the odd word), image is ``gen_image`` of that generator and right
    is the odd word after the slot.  Slot signs follow ``side`` as the
    kernel's docstring gives them."""
    out = SuperPoly.zero()
    for (evens, odds, funcs, params), c in p.terms.items():
        n = len(odds)
        even_sign = -1 if side == "right" and n % 2 else 1
        slots = []
        for i, (g, x) in enumerate(evens):
            rest = evens[:i] + (((g, x - 1),) if x > 1 else ()) + evens[i + 1:]
            slots.append((g, (rest, (), funcs, params), odds, x * even_sign))
        for i, (name, k, arg) in enumerate(funcs):
            rest = _sorted_funcs(funcs[:i] + ((name, k + 1, arg),) + funcs[i + 1:])
            slots.append((arg, (evens, (), rest, params), odds, even_sign))
        for j, g in enumerate(odds):
            flips = {"left": j, "right": n - 1 - j}.get(side, 0)
            slots.append((g, (evens, odds[:j], funcs, params), odds[j + 1:], (-1) ** flips))
        for g, left, right, sign in slots:
            word = SuperPoly({((), right, (), ()): 1})
            out = out + SuperPoly({left: sign * c}) * gen_image(g) * word
    return out


def integration_ansatz_parts(target, direction, ws, gens, zero_weight_cap=2):
    """(part, monomials) for every weight and parity part of an integration
    target, in the order ``d_integrate`` takes the parts (weights ascending,
    even before odd).  The monomials are the whole homogeneous ansatz of the
    preimage's weight and parity in the admissible jets, whether or not they
    can reach the part."""
    shift = Fraction(1) if direction == DX else Fraction(1, 2)
    out = []
    for wt, whole in sorted(split_by_weight(ws, target).items()):
        for par, sub in enumerate(whole.parity_report()):
            if sub.is_zero:
                continue
            want_par = par if direction == DX else (par + 1) % 2
            jets = [g for g in jets_up_to_weight(ws, gens, wt - shift)
                    if recursion._is_new_coordinate(g)]
            items = items_from_gens(ws, jets, wt - shift, zero_weight_cap)
            out.append((sub, enumerate_monomials(items, wt - shift, want_par)))
    return out


def is_canonical(c) -> bool:
    """Whether c is stored as the engine stores a coefficient: a nonzero
    int, or a Fraction whose denominator is greater than 1; never a float,
    a bool or a Fraction with denominator 1."""
    return type(c) is int and c != 0 or type(c) is Fraction and c.denominator > 1


@contextlib.contextmanager
def stray_coefficients():
    """Collect the coefficients that break ``is_canonical`` in every
    SuperPoly built inside the block.  ``__init__`` and ``_wrap`` both set
    the ``terms`` slot, which a checking property replaces meanwhile."""
    slot = SuperPoly.__dict__["terms"]
    stray = []

    def check(p, terms):
        stray.extend(c for c in terms.values() if not is_canonical(c))
        slot.__set__(p, terms)

    SuperPoly.terms = property(slot.__get__, check)
    try:
        yield stray
    finally:
        SuperPoly.terms = slot


def ring(p: SuperPoly) -> RingElement:
    """The ring element of a parameter-only ``SuperPoly``."""
    return RingElement({key[3]: c for key, c in p.terms.items()})


def equation(coeffs: dict, const: SuperPoly) -> LinearEquation:
    """The ``LinearEquation`` of parameter-only ``SuperPoly`` entries."""
    return LinearEquation({u: ring(v) for u, v in coeffs.items()}, ring(const))


class PolyReduced:
    """A ``linsolve.Reduced`` with every value read back as a ``SuperPoly``."""

    def __init__(self, red):
        self.red = red
        self.solved = {u: (as_poly(p), as_poly(r)) for u, (p, r) in red.solved.items()}
        self.basis = [{u: as_poly(v) for u, v in vec.items()} for vec in red.basis]
        self.assumed = [as_poly(a) for a in red.assumed]
        self.leftover = [as_poly(a) for a in red.leftover]

    @property
    def particular(self) -> dict:
        return {u: as_poly(v) for u, v in self.red.particular.items()}


def poly_gauss_jordan(rows, unknowns, *args) -> PolyReduced:
    """``gauss_jordan`` on (coefficients, const) pairs of ``SuperPoly``s."""
    return PolyReduced(gauss_jordan([equation(*row) for row in rows], unknowns, *args))
