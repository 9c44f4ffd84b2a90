"""Golden canonical outputs of catalog computations: symmetry searches
(with the generic pivots assumed nonzero, and as the CLI runs them),
the pivots those searches assume nonzero, the one-parameter searches of
``quad-alpha`` and ``hospital-alpha``, the signed monomials of a flow
ansatz and of an integration ansatz,
shadow iteration, the Gardner deformation search, the Gardner density
recurrence and weight inference.

The snapshot in ``golden/solver_outputs.json`` is compared in canonical
printed form.  Regenerate it only when an output is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

from superjet import catalog, recursion
from superjet.algebra import EVEN, ODD
from superjet.determine import build_flow_ansatz, find_symmetries
from superjet.gardner import density_recurrence, search_deformation
from superjet.grammar import print_flow, print_poly
from superjet.recursion import apply_shadow
from superjet.weights import infer_weights

from conftest import integration_ansatz_parts

Q = Fraction

SNAPSHOT = Path(__file__).parent / "golden" / "solver_outputs.json"

SEARCHES = ((Q(-1), EVEN), (Q(-2), EVEN), (Q(-4), EVEN), (Q(-7, 2), ODD))
# every weight from -1/2 down, in both parities
ASSUMED_SEARCHES = tuple((Q(-k, 2), parity) for k in range(1, 13) for parity in (EVEN, ODD))
CLI_SEARCHES = tuple((Q(-k, 2), parity) for k in range(1, 11) for parity in (EVEN, ODD))
ANSATZ_SEARCHES = ((Q(-4), EVEN), (Q(-7, 2), ODD))
PARAMETRIC_SEARCHES = tuple((Q(-k, 2), parity) for k in range(1, 7) for parity in (EVEN, ODD))


def _symmetry_searches():
    doc = catalog.get("bous-embed").doc
    sys, ws = doc.system(), doc.weight_system()
    out = {}
    for weight, parity in SEARCHES:
        res = find_symmetries(sys, ws, weight, parity,
                              assume_nonzero=("alpha", "beta", "gamma"))
        out[f"{weight} {'odd' if parity else 'even'}"] = [
            print_flow(f) for f in res.flows]
    return out


def _assumed_pivots():
    """The pivots the searches with alpha, beta and gamma nonzero still
    assume nonzero, or None where the search has no ansatz."""
    doc = catalog.get("bous-embed").doc
    sys, ws = doc.system(), doc.weight_system()
    out = {}
    for weight, parity in ASSUMED_SEARCHES:
        res = find_symmetries(sys, ws, weight, parity,
                              assume_nonzero=("alpha", "beta", "gamma"))
        out[f"{weight} {'odd' if parity else 'even'}"] = (
            [print_poly(a) for a in res.solution.assumptions] if res.solution else None)
    return out


def _cli_symmetry_searches():
    """No parameter assumed nonzero and one level of case splits, so the
    outputs depend on the pivot order and on how assumed pivots are
    normalised."""
    doc = catalog.get("bous-embed").doc
    sys, ws = doc.system(), doc.weight_system()
    out = {}
    for weight, parity in CLI_SEARCHES:
        res = find_symmetries(sys, ws, weight, parity, case_split_limit=1)
        out[f"{weight} {'odd' if parity else 'even'}"] = {
            "flows": [print_flow(f) for f in res.flows],
            "assumptions": [print_poly(a) for a in
                            (res.solution.assumptions if res.solution else [])],
            "branches": [[sorted(b.zero_params), b.dim] for b in res.branches],
        }
    return out


def _parametric_searches(entry_id):
    """Each search with alpha assumed nonzero, and with one level of case
    splits, whose generic branch is the search with no assumption."""
    doc = catalog.get(entry_id).doc
    sys, ws = doc.system(), doc.weight_system()
    out = {}
    for weight, parity in PARAMETRIC_SEARCHES:
        for mode, options in (("alpha assumed", {"assume_nonzero": ("alpha",)}),
                              ("case split 1", {"case_split_limit": 1})):
            res = find_symmetries(sys, ws, weight, parity, **options)
            out[f"{weight} {'odd' if parity else 'even'}, {mode}"] = {
                "flows": [print_flow(f) for f in res.flows],
                "assumptions": [print_poly(a) for a in
                                (res.solution.assumptions if res.solution else [])],
                "branches": [[sorted(b.zero_params), b.dim,
                              [print_poly(a) for a in b.assumptions]]
                             for b in res.branches],
            }
    return out


def _flow_ansatz_monomials():
    """The signed monomials of each component, in enumeration order."""
    doc = catalog.get("bous-embed").doc
    sys, ws = doc.system(), doc.weight_system()
    out = {}
    for weight, parity in ANSATZ_SEARCHES:
        _comps, _names, monos = build_flow_ansatz(sys, ws, weight, parity)
        out[f"{weight} {'odd' if parity else 'even'}"] = {
            u.name: [print_poly(m) for m in ms] for u, ms in monos.items()}
    return out


@contextmanager
def _recorded_integration_ansatz(log):
    """Extend log by the full ansatz of every ``d_integrate`` call."""
    real = recursion.d_integrate

    def integrate_and_record(target, direction, ws, gens, zero_weight_cap=2):
        log.extend([print_poly(m) for m in monos] for _part, monos in
                   integration_ansatz_parts(target, direction, ws, gens, zero_weight_cap))
        recursion.d_integrate = real  # a nested call belongs to this one
        try:
            return real(target, direction, ws, gens, zero_weight_cap)
        finally:
            recursion.d_integrate = integrate_and_record

    recursion.d_integrate = integrate_and_record
    try:
        yield
    finally:
        recursion.d_integrate = real


def _shadow_steps():
    """Ten R steps from each seed, and the integration ansatz of the
    third step from seed_x."""
    doc = catalog.get("dbous").doc
    ws = doc.weight_system()
    steps = {}
    ansatz = []
    for seed in ("seed_x", "seed_t"):
        flow = doc.flows[seed]
        steps[seed] = []
        for step in range(1, 11):
            if (seed, step) == ("seed_x", 3):
                with _recorded_integration_ansatz(ansatz):
                    flow = apply_shadow(doc.shadows["R"], flow, ws)
            else:
                flow = apply_shadow(doc.shadows["R"], flow, ws)
            steps[seed].append(print_flow(flow))
    return steps, ansatz


def _deformation_search():
    main = catalog.get("hydro-bous").doc
    found = search_deformation(main.system(), main.weight_system(),
                               main.functionals["H"], "eps", Q(-3), 2)
    return [
        {
            "miura": {u.name: print_poly(p) for u, p in sorted(
                d.miura.items(), key=lambda kv: kv[0].name)},
            "density": print_poly(d.hamiltonian),
            "free_params": list(d.free_params),
        }
        for d in found
    ]


def _density_recurrence():
    extras = catalog.get("hydro-bous").extras
    rows = density_recurrence(extras["miura"], extras["correspondence"], "eps", 4)
    return {w.name: [print_poly(rho) for rho in rhos] for w, rhos in rows.items()}


def _weight_inference():
    out = {}
    for entry_id in catalog.ids():
        doc = catalog.get(entry_id).doc
        try:
            sol = infer_weights(doc.system(), param_names=tuple(doc.param_weights))
        except (KeyError, ValueError) as exc:
            out[entry_id] = type(exc).__name__
            continue
        out[entry_id] = None if sol is None else {
            "particular": {n: str(v) for n, v in sol.particular.items()},
            "basis": [{n: str(v) for n, v in vec.items()} for vec in sol.basis],
        }
    return out


def snapshot():
    steps, ansatz = _shadow_steps()
    return {
        "bous-embed find_symmetries": _symmetry_searches(),
        "bous-embed find_symmetries, assumed pivots": _assumed_pivots(),
        "bous-embed find_symmetries, case split 1": _cli_symmetry_searches(),
        "bous-embed flow ansatz monomials": _flow_ansatz_monomials(),
        "quad-alpha find_symmetries": _parametric_searches("quad-alpha"),
        "hospital-alpha find_symmetries": _parametric_searches("hospital-alpha"),
        "dbous R steps from seed_x": steps["seed_x"][:4],
        "dbous R steps from seed_t": steps["seed_t"][:4],
        "dbous R steps 5-6 from seed_x": steps["seed_x"][4:6],
        "dbous R steps 5-6 from seed_t": steps["seed_t"][4:6],
        "dbous R steps 7-10 from seed_x": steps["seed_x"][6:],
        "dbous R steps 7-10 from seed_t": steps["seed_t"][6:],
        "dbous R step 3 from seed_x, integration ansatz": ansatz,
        "hydro-bous search_deformation": _deformation_search(),
        "hydro-bous density_recurrence": _density_recurrence(),
        "infer_weights": _weight_inference(),
    }


def test_outputs_match_the_golden_snapshot():
    golden = json.loads(SNAPSHOT.read_text())
    now = snapshot()
    for key in golden:
        assert now[key] == golden[key], key
    assert set(now) == set(golden)


if __name__ == "__main__":
    SNAPSHOT.parent.mkdir(exist_ok=True)
    SNAPSHOT.write_text(json.dumps(snapshot(), indent=1, sort_keys=True) + "\n")
