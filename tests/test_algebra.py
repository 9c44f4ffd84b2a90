"""Core graded-algebra arithmetic, checked against an independent
sign-bookkeeping oracle.

The oracle multiplies generator words by bubble-sorting them into
canonical order while counting odd-odd transpositions, annihilating
repeated odd factors and reducing Clifford squares.  It shares no code
with the engine's merge-based product.
"""

import pickle
from fractions import Fraction

import pytest

from superjet import catalog
from superjet.algebra import (
    _ONE_KEY,
    _POOL,
    DX,
    EVEN,
    ODD,
    Clifford,
    FieldSymbol,
    JetVar,
    SuperPoly,
    Theta,
    _merge_evens,
    _merge_params,
    _wrap,
    poly_sum,
)
from superjet.grammar import parse_document
from superjet.jets import Nonlocality, jet_poly
from superjet.recursion import apply_shadow

from conftest import prod, stray_coefficients

Q = Fraction

b = FieldSymbol("b", EVEN, 1)
f = FieldSymbol("f", ODD, 1)
u2 = FieldSymbol("u", EVEN, 2)


def jp(sym, d1=0, d2=0, m=0):
    return SuperPoly.from_gen(JetVar(sym, d1, d2, m))


# ---------------------------------------------------------------------------
# independent oracle


def oracle_word(factors):
    """Canonicalize a generator word; returns (sign Fraction, params, word).

    A zero product is reported as (0, (), ()).  Implemented as a plain
    bubble sort with explicit transposition signs, independent of the
    engine's merge logic.
    """
    word = list(factors)
    coeff = Q(1)
    changed = True
    while changed:
        changed = False
        for i in range(len(word) - 1):
            if word[i + 1].sort_key() < word[i].sort_key():
                if word[i].parity == ODD and word[i + 1].parity == ODD:
                    coeff = -coeff
                word[i], word[i + 1] = word[i + 1], word[i]
                changed = True
    params = {}
    reduced = []
    i = 0
    while i < len(word):
        g = word[i]
        if i + 1 < len(word) and word[i + 1] == g and g.parity == ODD:
            if isinstance(g, Clifford):
                sq_rat, sq_params = g.square
                coeff *= sq_rat
                for n, e in sq_params:
                    params[n] = params.get(n, 0) + e
                i += 2
                continue
            return Q(0), (), ()
        reduced.append(g)
        i += 1
    if coeff == 0:
        return Q(0), (), ()
    return coeff, tuple(sorted(params.items())), tuple(reduced)


def oracle_product(factors):
    """SuperPoly for a product of single generators, via the oracle."""
    coeff, params, word = oracle_word(factors)
    if coeff == 0:
        return SuperPoly.zero()
    out = SuperPoly.scalar(coeff)
    for n, e in params:
        out = out * SuperPoly.param(n, e)
    for g in word:
        out = out * SuperPoly.from_gen(g)
    return out


# ---------------------------------------------------------------------------
# directed identities


def test_odd_jets_anticommute():
    a, c = jp(f), jp(f, m=1)
    assert (a * c + c * a).is_zero
    assert not (a * c).is_zero


def test_odd_square_vanishes():
    assert (jp(f) * jp(f)).is_zero
    assert (jp(f, m=3) * jp(f, m=3)).is_zero
    assert (jp(b, d1=1) * jp(b, d1=1)).is_zero  # D-derivative of even is odd


def test_theta_relations():
    t1, t2 = SuperPoly.from_gen(Theta(1)), SuperPoly.from_gen(Theta(2))
    assert (t1 * t1).is_zero
    assert (t1 * t2 + t2 * t1).is_zero


def test_clifford_square_is_declared_parameter():
    v = Clifford("v", (Q(1), (("alpha", 1),)))
    p = SuperPoly.from_gen(v)
    assert p * p == SuperPoly.param("alpha")


def test_clifford_conjugation_sign():
    # v * f * v = -alpha * f for odd f: one transposition then the square.
    v = Clifford("v", (Q(1), (("alpha", 1),)))
    pv = SuperPoly.from_gen(v)
    assert pv * jp(f) * pv == SuperPoly.scalar(-1) * SuperPoly.param("alpha") * jp(f)


def test_even_jets_commute():
    x, y = jp(b), jp(b, m=2)
    assert x * y == y * x
    assert (x * x) * y == x * (x * y)


def test_even_odd_commute():
    assert jp(b) * jp(f) == jp(f) * jp(b)


def test_laurent_parameters():
    a = SuperPoly.param("alpha")
    ainv = SuperPoly.param("alpha", -1)
    assert a * ainv == SuperPoly.one()
    assert SuperPoly.param("alpha", 2) * ainv == a


def test_scalar_arithmetic():
    two = SuperPoly.scalar(2)
    half = SuperPoly.scalar(Q(1, 2))
    assert two * half == SuperPoly.one()
    assert (two - two).is_zero
    assert (-two + two).is_zero
    assert two ** 3 == SuperPoly.scalar(8)


def test_parity_classification():
    assert jp(b).parity() == EVEN
    assert jp(f).parity() == ODD
    assert (jp(f) * jp(f, m=1)).parity() == EVEN
    assert (jp(b) + jp(f)).parity() is None
    even_part, odd_part = (jp(b) + jp(f)).parity_report()
    assert even_part == jp(b) and odd_part == jp(f)


def test_n2_jet_directions():
    g = JetVar(u2, 1, 1, 0)
    assert g.parity == EVEN
    with pytest.raises(ValueError):
        JetVar(b, 0, 1, 0)  # b has a single odd direction
    with pytest.raises(ValueError):
        JetVar(b, 2, 0, 0)  # direction indices are 0/1


def test_normalize_merges_raw_terms():
    g = JetVar(b)
    p = poly_sum(prod(factors, coeff) for coeff, factors in
                 [(Q(1), (g,)), (Q(2), (g,)), (Q(-3), (g,))])
    assert p.is_zero


def test_function_factor_requires_even_zero_order_argument():
    q = SuperPoly.func("Q", 0, JetVar(b))
    assert q.parity() == EVEN
    with pytest.raises(ValueError):
        SuperPoly.func("Q", 0, JetVar(f))
    with pytest.raises(ValueError):
        SuperPoly.func("Q", 0, JetVar(b, m=1))


# ---------------------------------------------------------------------------
# randomized cross-check against the oracle

GENS = [
    Theta(1),
    Theta(2),
    Clifford("v", (Q(1), (("alpha", 1),))),
    JetVar(f),
    JetVar(f, m=1),
    JetVar(f, d1=1),
    JetVar(b),
    JetVar(b, m=2),
    JetVar(b, d1=1),
    JetVar(u2, 1, 1, 0),
    JetVar(u2, 0, 1, 1),
]


def test_products_match_oracle(rng):
    for _ in range(400):
        k = rng.randint(0, 6)
        word = [rng.choice(GENS) for _ in range(k)]
        engine = prod(word)
        assert engine == oracle_product(word), word


def test_associativity_random(rng):
    for _ in range(200):
        a, b_, c = (prod([rng.choice(GENS) for _ in range(rng.randint(1, 3))])
                    for _ in range(3))
        assert (a * b_) * c == a * (b_ * c)


def test_distributivity_random(rng):
    for _ in range(200):
        a, b_, c = (prod([rng.choice(GENS) for _ in range(rng.randint(1, 3))])
                    for _ in range(3))
        assert a * (b_ + c) == a * b_ + a * c


def _dict_merge(a, b, sort_key):
    """Exponents added in a dict, zeros dropped, then a stable sort: the
    merge that key products made before they merged sorted tuples."""
    d = dict(a)
    for g, e in b:
        d[g] = d.get(g, 0) + e
    return tuple(sorted(((g, e) for g, e in d.items() if e), key=lambda ge: sort_key(ge[0])))


def test_key_merges_match_a_dict_and_a_stable_sort(rng):
    """Parameter words merge as in a dict, and even words too, where unequal
    jets of two fields named ``t`` tie in the sort and keep their order."""
    t1, t2 = FieldSymbol("t", EVEN, 1), FieldSymbol("t", EVEN, 2)
    evens = [JetVar(u, 0, 0, m) for u in (b, t1, t2) for m in range(2)]
    names = ["alpha", "beta", "gamma"]

    def word(pool, exponents, sort_key):
        picked = rng.sample(pool, rng.randint(0, 3))
        return _dict_merge((), [(g, rng.choice(exponents)) for g in picked], sort_key)

    for _ in range(400):
        p1, p2 = (word(names, [-2, -1, 1, 2], str) for _ in range(2))
        assert _merge_params(p1, p2) == _dict_merge(p1, p2, str), (p1, p2)
        e1, e2 = (word(evens, [1, 2], JetVar.sort_key) for _ in range(2))
        for e2 in (e2, e2[:1]):
            assert _merge_evens(e1, e2) == _dict_merge(e1, e2, JetVar.sort_key), (e1, e2)


def test_cached_hash_and_sort_key_stay_out_of_pickles():
    g = JetVar(f, 1, 0, 2)
    h, key = hash(g), g.sort_key()
    clone = pickle.loads(pickle.dumps(g))
    assert "_hash" not in vars(clone) and "_sort_key" not in vars(clone)
    assert "_hash" not in vars(clone.fieldsym)
    assert clone == g and hash(clone) == h and clone.sort_key() == key


# ---------------------------------------------------------------------------
# the generator pool


def test_a_generator_is_built_once_per_arguments():
    assert JetVar(u2, 1, 0, 2) is JetVar(u2, d1=1, m=2)
    assert JetVar(f, 1, m=3) is JetVar(f, 1, 0, 3)
    assert Theta(2) is Theta(index=2)
    assert Clifford("c", (2, ())) is Clifford("c", square=(2, ()))


def test_generators_cannot_be_changed():
    """A pooled jet, and the symbols it is keyed on, refuse every assignment
    and deletion, so the pool keeps handing out the instance it built."""
    w = Nonlocality("w", EVEN, 1, defs={DX: jp(b)})
    jet, jw = JetVar(f, 1, 0, 2), JetVar(w)
    for g, name in ((jet, "m"), (jet, "extra"), (f, "name"), (w, "defs"), (w, "weight")):
        with pytest.raises(AttributeError):
            setattr(g, name, 3)
        with pytest.raises(AttributeError):
            delattr(g, name)
    assert JetVar(f, 1, 0, 2) is jet and jet.m == 2 and not hasattr(jet, "extra")
    assert JetVar(w) is jw and jw.fieldsym.defs == {DX: jp(b)} and f.name == "f"


def test_equal_nonlocals_keep_their_own_jets():
    w1 = Nonlocality("w", EVEN, 1, defs={DX: jp(b)})
    w2 = Nonlocality("w", EVEN, 1, defs={DX: jp(b, 0, 0, 1)})
    j1, j2 = JetVar(w1), JetVar(w2)
    assert j1 == j2 and j1 is not j2
    assert j1.fieldsym is w1 and j2.fieldsym is w2
    assert jet_poly(j1.fieldsym, m=1) == jp(b)
    assert jet_poly(j2.fieldsym, m=1) == jp(b, 0, 0, 1)


@pytest.mark.parametrize("args", [(b, 2), (b, 0, 0, -1), (b, 0, 1), (FieldSymbol("c", EVEN, 0), 1)])
def test_a_rejected_jet_leaves_the_pool_unchanged(args):
    pooled = dict(_POOL)
    with pytest.raises(ValueError):
        JetVar(*args)
    assert _POOL == pooled


# ---------------------------------------------------------------------------
# the coefficient invariant


@pytest.mark.parametrize("value", [0.5, 0.0, True, "1", None])
def test_a_coefficient_is_an_int_or_a_fraction(value):
    with pytest.raises(TypeError):
        SuperPoly.scalar(value)
    with pytest.raises(TypeError):
        SuperPoly({_ONE_KEY: value})


def test_integral_coefficients_are_ints():
    """An integral coefficient is stored as an int, whatever built it; a
    Fraction stays only where its denominator is greater than 1."""
    half = SuperPoly.scalar(Q(1, 2)) * jp(b)
    for p, want in [(SuperPoly.scalar(Q(6, 3)), 2), (half + half, 1), (2 * half, 1),
                    (SuperPoly.scalar(4) / 2, 2), (SuperPoly.scalar(3) / 2, Q(3, 2)),
                    (half * half, Q(1, 4)), (half - 3 * half, -1)]:
        (c,) = p.terms.values()
        assert c == want and type(c) is type(want)


def test_the_catalog_builds_canonical_coefficients_only(monkeypatch):
    """Every value built while the catalog parses its documents, runs its
    self-checks and applies the dbous recursion three times from both
    seeds keeps int coefficients where they are integral.  An empty memo
    makes every entry parse its documents inside the block, however warm
    the shared one is."""
    parsed = set()

    def parse(text, name):
        parsed.add(name.partition(":")[0])
        return parse_document(text, name=name)

    monkeypatch.setattr(catalog, "parse_document", parse)
    with stray_coefficients() as stray:
        monkeypatch.setattr(catalog, "_ENTRIES", {})
        _wrap({_ONE_KEY: Q(1)})  # the check sees values that skip __init__
        assert stray == [Q(1)]
        stray.clear()
        for cid in catalog.ids():
            assert all(ok for _name, ok, _detail in catalog.verify(cid)), cid
        doc = catalog.get("dbous").doc
        ws = doc.weight_system()
        for seed in ("seed_x", "seed_t"):
            cur = doc.flows[seed]
            for _step in range(3):
                cur = apply_shadow(doc.shadows["R"], cur, ws)
    assert stray == []
    assert parsed == set(catalog.ids())
