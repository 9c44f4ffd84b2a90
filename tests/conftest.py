"""Shared fixtures: cached catalog entries and deterministic RNG helpers."""

import functools
import random
from fractions import Fraction

import pytest

from superjet import catalog, recursion
from superjet.algebra import DX
from superjet.weights import (
    enumerate_monomials,
    items_from_gens,
    jets_up_to_weight,
    split_by_weight,
)


@functools.lru_cache(maxsize=None)
def cached_entry(entry_id: str):
    return catalog.get(entry_id)


@pytest.fixture(scope="session")
def entry():
    """Accessor for catalog entries, built at most once per session."""
    return cached_entry


@pytest.fixture()
def rng():
    return random.Random(20260824)


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
