"""Scaling weights: inference, homogeneity, ansatz enumeration."""

import random
from fractions import Fraction

from superjet import catalog
from superjet.algebra import EVEN, ODD, FieldSymbol, JetVar, SuperPoly
from superjet.grammar import parse_document
import pytest

from superjet.weights import (
    InhomogeneousError,
    WeightSystem,
    enumerate_monomials,
    infer_weights,
    items_from_gens,
    jets_up_to_weight,
    split_by_weight,
    weight_of,
)


Q = Fraction


def satisfies(sol, relation, rhs) -> bool:
    """Whether sum(coeff * weight) == rhs holds on every weight solution."""
    if sum(c * sol.particular[n] for n, c in relation.items()) != rhs:
        return False
    return all(sum(c * vec.get(n, 0) for n, c in relation.items()) == 0 for vec in sol.basis)


def test_unique_inference_for_odd_burgers_representation():
    sys = catalog.get("burgers-repr").doc.system()
    sol = infer_weights(sys)
    assert sol is not None and sol.unique
    assert sol.particular == {"f": Q(1, 2), "b": Q(1, 2), "t": Q(-1, 2)}


def test_inference_recovers_declared_weights_of_boussinesq_system():
    doc = catalog.get("dbous").doc
    sys = doc.system()
    # the unconstrained solution space is one-dimensional ...
    sol = infer_weights(sys)
    assert sol is not None and len(sol.basis) == 1
    # ... and fixing the time weight pins the declared assignment
    fixed = infer_weights(sys, fixed={"t": doc.t_weight})
    assert fixed is not None and fixed.unique
    declared = {u.name: w for u, w in doc.field_weights.items()}
    declared["t"] = doc.t_weight
    assert fixed.particular == declared


def test_dimensional_parameter_relation_in_fermionic_burgers():
    sys = catalog.get("superburg").doc.system()
    sol = infer_weights(sys, param_names=("alpha",))
    assert sol is not None and not sol.unique
    # every admissible assignment satisfies [f] + 1/2 [alpha] = 1
    assert satisfies(sol, {"f": Q(1), "alpha": Q(1, 2)}, Q(1))
    # but [f] alone is not fixed
    assert not satisfies(sol, {"f": Q(1)}, Q(1))


def test_weight_system_from_solution_round_trip():
    doc = catalog.get("superburg").doc
    sys = doc.system()
    sol = infer_weights(sys, fixed={"alpha": Q(0)}, param_names=("alpha",))
    assert sol is not None and sol.unique
    ws = WeightSystem({u: sol.particular[u.name] for u in sys.fields},
                      {"alpha": sol.particular["alpha"]}, sol.particular["t"])
    for u in sys.fields:
        assert weight_of(ws, sys.rhs[u]) == ws.field_weight(u) - ws.t


def test_clifford_square_weighs_an_inferred_parameter():
    """[th] is half the weight of its square alpha^2, so the balance fixes alpha."""
    sys = parse_document(
        "param alpha;\naux th clifford alpha^2;\n"
        "field b even susy 0;\nfield f odd susy 0;\n"
        "b_t = b_xx + th*f_x;\nf_t = f_xx + th*b_x;\n").system()
    sol = infer_weights(sys, param_names=("alpha",))
    assert sol is not None and len(sol.basis) == 1
    assert satisfies(sol, {"alpha": Q(1)}, Q(1))
    assert satisfies(sol, {"t": Q(1)}, Q(-2))
    assert satisfies(sol, {"b": Q(1), "f": Q(-1)}, Q(0))


def test_pin_keyed_by_field_symbol():
    doc = catalog.get("dbous").doc
    sys = doc.system()
    f = doc.fields["f"]
    sol = infer_weights(sys, fixed={f: doc.field_weights[f]})
    assert sol is not None and sol.unique
    assert sol.particular == {**{u.name: w for u, w in doc.field_weights.items()},
                              "t": doc.t_weight}


def test_declared_nonlocal_weight_enters_the_balance():
    sys = parse_document(
        "field b even susy 0;\nfield c even susy 0;\n"
        "nonlocal w even susy 0 weight 2: Dx(w) = b;\n"
        "b_t = b_xx;\nc_t = c_xx + w*b_x;\n").system()
    sol = infer_weights(sys)
    assert sol is not None and len(sol.basis) == 1
    assert satisfies(sol, {"t": Q(1)}, Q(-2))
    assert satisfies(sol, {"c": Q(1), "b": Q(-1)}, Q(1))  # [c] = [w] + [b] - 1
    pinned = infer_weights(sys, fixed={"w": Q(0)})  # a pin replaces the declared weight
    assert satisfies(pinned, {"c": Q(1), "b": Q(-1)}, Q(-1))


def test_function_factor_blocks_inference():
    sys = parse_document("field b even susy 0;\nfn Q of b;\nb_t = Q(b)*b_x;\n").system()
    with pytest.raises(InhomogeneousError):
        infer_weights(sys)


def test_mutated_equation_is_inhomogeneous():
    doc = catalog.get("skdv").doc
    ws = doc.weight_system()
    sys = doc.system()
    (f,) = sys.fields
    assert weight_of(ws, sys.rhs[f]) == ws.field_weight(f) - ws.t
    bad = sys.rhs[f] + SuperPoly.from_gen(JetVar(f, 0, 0, 1))
    with pytest.raises(InhomogeneousError):
        weight_of(ws, bad)
    parts = split_by_weight(ws, bad)
    assert len(parts) == 2
    assert sum(parts.values(), SuperPoly.zero()) == bad


def test_weight_of_respects_products_and_parameters():
    b = FieldSymbol("b", EVEN, 1)
    f = FieldSymbol("f", ODD, 1)
    ws = WeightSystem({b: Q(1), f: Q(3, 2)}, {"alpha": Q(-2)}, Q(-3))
    jb = SuperPoly.from_gen(JetVar(b))
    jf1 = SuperPoly.from_gen(JetVar(f, d1=1))
    assert weight_of(ws, jb * jb) == Q(2)
    assert weight_of(ws, jf1) == Q(2)  # the odd derivative adds 1/2
    assert weight_of(ws, SuperPoly.param("alpha", -1) * jb) == Q(3)
    with pytest.raises(InhomogeneousError):
        weight_of(ws, jb + jb * jb)


def test_monomial_enumeration_is_homogeneous_and_graded():
    doc = catalog.get("bous-embed").doc
    ws = doc.weight_system()
    sys = doc.system()
    for target, parity in ((Q(4), EVEN), (Q(9, 2), ODD), (Q(6), EVEN), (Q(11, 2), ODD)):
        gens = jets_up_to_weight(ws, sys.fields, target)
        items = items_from_gens(ws, gens, target)
        monos = enumerate_monomials(items, target, parity)
        assert monos, (target, parity)
        for m in monos:
            assert weight_of(ws, m) == target
            assert m.parity() == parity


def test_enumeration_has_no_duplicates():
    doc = catalog.get("dbous").doc
    ws = doc.weight_system()
    sys = doc.system()
    gens = jets_up_to_weight(ws, sys.fields, Q(4))
    items = items_from_gens(ws, gens, Q(4))
    monos = enumerate_monomials(items, Q(4), EVEN)
    keys = [tuple(sorted(m.terms)) for m in monos]
    assert len(keys) == len(set(keys))


def test_no_items_enumerate_nothing():
    for weight in (Q(-1), Q(0), Q(1, 2), Q(1)):
        for parity in (EVEN, ODD):
            assert enumerate_monomials([], weight, parity) == []


def _jets_by_definition(ws, fields, max_weight):
    """The jets of weight <= max_weight, by field, D-flag and x-order, each
    weighed on its own."""
    flags = ((0, 0), (1, 0), (0, 1), (1, 1))
    return [JetVar(u, d1, d2, m) for u in fields for d1, d2 in flags[: 2**u.n_susy]
            for m in range(40) if ws.gen_weight(JetVar(u, d1, d2, m)) <= max_weight]


@pytest.mark.parametrize("cid", ["bous-embed", "dbous", "hydro-bous"])
def test_the_jet_and_item_tables_are_never_stale(cid):
    """Weights asked for in increasing, decreasing and shuffled order, off
    the 1/2 grid and below every jet too, give the lists of a freshly built
    weight system, order included."""
    doc = catalog.get(cid).doc
    fields = doc.system().fields
    asked = [Q(n, 6) for n in range(-12, 61, 5)]
    orders = [asked, asked[::-1], random.Random(cid).sample(asked, len(asked))]
    for order in orders:
        ws = doc.weight_system()
        for i, w in enumerate(order):
            cap = 1 + i % 3
            fresh = doc.weight_system()
            jets = jets_up_to_weight(ws, fields, w)
            assert jets == jets_up_to_weight(fresh, fields, w)
            assert jets == _jets_by_definition(fresh, fields, w)
            assert items_from_gens(ws, jets, w, cap) == items_from_gens(fresh, jets, w, cap)
