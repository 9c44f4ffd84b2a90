"""Command-line interface: parsing, derivation, verification and search
commands over documents and the built-in catalog.

Exit codes: 0 = verified / zero residual, 1 = nonzero residual or
negative result, 2 = usage error, 3 = internal error (with a traceback).
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import traceback
from fractions import Fraction

from . import catalog
from .algebra import D1, DX, EVEN, ODD, ParityError, UnknownNameError
from .coverings import check_covering
from .determine import find_symmetries
from .gardner import (
    density_recurrence,
    search_deformation,
    verify_deformation,
)
from .grammar import (
    DERIV_WORDS,
    SyntaxErrorWithPos,
    UndeclaredSymbolError,
    parse_document,
    parse_expression,
    print_flow,
    print_poly,
)
from .jets import (
    MissingDerivativeError,
    check_symmetry,
    clifford_expand,
    commutator,
    dt_apply,
    super_derive,
)
from .recursion import (
    NotIntegrableError,
    NotLocalError,
    apply_shadow,
    d_integrate,
    nilpotency_order,
    verify_shadow,
)
from .variational import euler, hamiltonian_flow
from .weights import InhomogeneousError, infer_weights

Q = Fraction


class UsageError(Exception):
    pass


def _norm_name(s: str) -> str:
    return re.sub(r"[^a-z0-9]+", "", s.lower())


def _lookup(table, name, what):
    for k, v in table.items():
        if _norm_name(k) == _norm_name(name):
            return v
    raise UsageError(f"unknown {what} {name!r}; known: {', '.join(table)}")


def _load_doc(args):
    if getattr(args, "catalog", None):
        entry = catalog.get(args.catalog)
        docs = entry.docs
        name = getattr(args, "doc", None) or "main"
        if name not in docs:
            raise UsageError(
                f"entry {args.catalog} has documents: {', '.join(docs)}"
            )
        return docs[name], entry
    if getattr(args, "file", None):
        with open(args.file) as fh:
            text = fh.read()
        return parse_document(text, name=args.file), None
    raise UsageError("provide --catalog ID or --file PATH")


def _fr(s):
    return str(s) if isinstance(s, Fraction) else s


def _emit(args, payload, code):
    payload = dict(payload)
    payload["status"] = "ok" if code == 0 else "fail"
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=2, sort_keys=True, default=str))
    else:
        for k, v in payload.items():
            for line in _plain_lines(k, v):
                print(line)
    return code


def _plain_lines(key, value):
    """``key: value`` lines: a dict adds ``.name`` to the key per entry and a
    list repeats the key per item, adding ``.i`` for an item that is itself
    a dict or a list, so that the lines of two items stay apart."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _plain_lines(f"{key}.{k}", v)
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _plain_lines(f"{key}.{i}" if isinstance(item, (dict, list)) else key, item)
    else:
        yield f"{key}: {value}"


def _flow_dict(flow):
    return {u.name: print_poly(p) for u, p in sorted(
        flow.components.items(), key=lambda kv: kv[0].name)}


# ---------------------------------------------------------------------------
# commands


def cmd_parse(args):
    doc, _ = _load_doc(args)
    if args.expr:
        p = parse_expression(args.expr, doc.scope)
        return _emit(args, {"canonical": print_poly(p)}, 0)
    out = {}
    eqs = {u.name + "_t": print_poly(rhs) for u, rhs in doc.equations.items()}
    if eqs:
        out["equations"] = eqs
    if doc.flows:
        out["flows"] = {n: print_flow(f) for n, f in doc.flows.items()}
    if doc.shadows:
        out["shadows"] = {n: print_flow(s) for n, s in doc.shadows.items()}
    if doc.functionals:
        out["functionals"] = {n: print_poly(p) for n, p in doc.functionals.items()}
    return _emit(args, out, 0)


def cmd_derive(args):
    doc, _ = _load_doc(args)
    p = parse_expression(args.expr, doc.scope)
    for _ in range(args.times):
        p = super_derive(p, DERIV_WORDS[args.dir])
    return _emit(args, {"result": print_poly(p)}, 0)


def cmd_dt(args):
    doc, _ = _load_doc(args)
    p = parse_expression(args.expr, doc.scope)
    out = dt_apply(doc.system(), p)
    return _emit(args, {"result": print_poly(out)}, 0)


def cmd_commute(args):
    doc, _ = _load_doc(args)
    a = _lookup(doc.flows, args.flows[0], "flow")
    b = _lookup(doc.flows, args.flows[1], "flow")
    c = commutator(a, b)
    code = 0 if c.is_zero else 1
    return _emit(args, {"commutator": _flow_dict(c)}, code)


def cmd_check_symmetry(args):
    doc, _ = _load_doc(args)
    flow = _lookup(doc.flows, args.flow, "flow")
    res = check_symmetry(doc.system(), flow)
    code = 0 if res.is_zero else 1
    return _emit(args, {"residual": _flow_dict(res)}, code)


def _rational(text: str) -> Fraction:
    """A rational number such as ``-7/2``; anything else is a usage error."""
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"bad rational number {text!r}") from None


def _count(text: str) -> int:
    """The argparse type of a count: a whole number, 0 or more."""
    if not re.fullmatch(r"[0-9]+", text):
        raise argparse.ArgumentTypeError(f"expected a whole number >= 0, got {text!r}")
    return int(text)


def _weights(spec: str) -> list:
    """A weight ``A``, or every weight of the range ``A..B`` in steps of -1/2."""
    bounds = [_rational(x) for x in spec.split("..")]
    steps = 2 * (bounds[0] - bounds[-1])
    if len(bounds) > 2 or steps < 0 or steps.denominator > 1:
        raise UsageError(f"bad weight range {spec!r}: give A..B with A >= B and A - B "
                         "a multiple of 1/2, e.g. -1/2..-5")
    return [bounds[0] - Q(i, 2) for i in range(int(steps) + 1)]


def cmd_find_symmetries(args):
    doc, _ = _load_doc(args)
    sys_, ws = doc.system(), doc.weight_system()
    parities = {"even": (EVEN,), "odd": (ODD,), "both": (EVEN, ODD)}[args.parity]
    nonzero = tuple(n for n in args.assume_nonzero.split(",") if n)
    for n in nonzero:
        if n not in sys_.params:
            raise UsageError(f"--assume-nonzero: {n!r} is not a declared parameter; "
                             f"declared: {', '.join(sys_.params) or 'none'}")
    rows = []
    for weight in _weights(args.weight):
        for parity in parities:
            res = find_symmetries(sys_, ws, weight, parity, assume_nonzero=nonzero,
                                  zero_weight_cap=args.max_degree,
                                  case_split_limit=args.case_split_limit)
            assumed = res.solution.assumptions if res.solution else []
            rows.append({
                "weight": str(weight), "parity": "odd" if parity else "even",
                "ansatz_size": res.ansatz_size, "dimension": len(res.flows),
                "flows": [_flow_dict(f) for f in res.flows],
                "assumptions": [print_poly(a) for a in assumed],
                "branches": [{"zero_params": sorted(b.zero_params), "dimension": b.dim}
                             for b in res.branches],
            })
    code = 0 if any(r["flows"] for r in rows) else 1
    if len(rows) == 1:  # one search: its generic branch and every case branch
        keys = ("dimension", "flows", "assumptions", "branches")
        return _emit(args, {k: rows[0][k] for k in keys}, code)
    keys = ("weight", "parity", "ansatz_size", "dimension", "flows", "assumptions")
    return _emit(args, {"rows": [{k: r[k] for k in keys} for r in rows]}, code)


def cmd_check_covering(args):
    doc, _ = _load_doc(args)
    res = check_covering(doc.covering())
    bad = {
        f"{w}:{a}:{b}": print_poly(p)
        for (w, a, b), p in res.items()
        if not p.is_zero
    }
    code = 0 if not bad else 1
    out = {"conditions": len(res)}
    if bad:
        out["violations"] = bad
    return _emit(args, out, code)


def cmd_verify_shadow(args):
    doc, _ = _load_doc(args)
    sh = _lookup(doc.shadows, args.shadow, "shadow")
    res = verify_shadow(sh)
    bad = {u.name: print_poly(p) for u, p in res.items() if not p.is_zero}
    code = 0 if not bad else 1
    out = {"shadow": sh.name}
    if bad:
        out["residual"] = bad
    return _emit(args, out, code)


def cmd_apply_recursion(args):
    doc, _ = _load_doc(args)
    sh = _lookup(doc.shadows, args.shadow, "shadow")
    seed = _lookup(doc.flows, args.seed, "flow")
    ws = doc.weight_system()
    results = []
    cur = seed
    try:
        for _ in range(args.iterations):
            cur = apply_shadow(sh, cur, ws, zero_weight_cap=args.max_degree)
            results.append(_flow_dict(cur))
    except NotLocalError as exc:
        return _emit(
            args,
            {"flows": results, "error": str(exc)},
            1,
        )
    return _emit(args, {"flows": results}, 0)


def cmd_nilpotency(args):
    doc, _ = _load_doc(args)
    sh = _lookup(doc.shadows, args.shadow, "shadow")
    try:
        k = nilpotency_order(sh, args.max)
    except NotLocalError as exc:
        return _emit(args, {"error": str(exc)}, 1)
    if k is None:
        return _emit(args, {"order": f"not nilpotent up to power {args.max}"}, 1)
    return _emit(args, {"order": k}, 0)


def cmd_euler(args):
    doc, _ = _load_doc(args)
    p = parse_expression(args.expr, doc.scope)
    fields = tuple(doc.fields.values())
    grads = euler(p, fields)
    return _emit(
        args, {"gradient": {u.name: print_poly(g) for u, g in grads.items()}}, 0
    )


def cmd_integrate(args):
    doc, _ = _load_doc(args)
    p = parse_expression(args.expr, doc.scope)
    gens = list(doc.fields.values()) + list(doc.nonlocals.values())
    try:
        out = d_integrate(p, DERIV_WORDS[args.dir], doc.weight_system(), gens, args.max_degree)
    except NotIntegrableError as exc:
        return _emit(args, {"error": str(exc)}, 1)
    return _emit(args, {"preimage": print_poly(out)}, 0)


def cmd_conserved(args):
    doc, _ = _load_doc(args)
    if args.expr in doc.functionals:
        rho = doc.functionals[args.expr]
    else:
        rho = parse_expression(args.expr, doc.scope)
    flux_src = dt_apply(doc.system(), rho)
    gens = list(doc.fields.values()) + list(doc.nonlocals.values())
    try:
        flux = d_integrate(flux_src, DERIV_WORDS[args.image], doc.weight_system(), gens,
                           args.max_degree)
    except NotIntegrableError as exc:
        return _emit(args, {"conserved": False, "error": str(exc)}, 1)
    return _emit(args, {"conserved": True, "flux": print_poly(flux)}, 0)


def cmd_hamiltonian_flow(args):
    doc, entry = _load_doc(args)
    if args.density in doc.functionals:
        H = _lookup(doc.functionals, args.density, "functional")
    else:
        H = parse_expression(args.density, doc.scope)
    sys = doc.system()
    direction = _operator(entry, {"dx": DX, "susy": D1}[args.operator])
    try:
        flow = hamiltonian_flow(sys.fields, direction, H)
    except ParityError as exc:
        raise UsageError(f"operator {args.operator} does not fit the fields: {exc}") from None
    res = check_symmetry(sys, flow)
    return _emit(
        args,
        {"flow": _flow_dict(flow), "is_symmetry": res.is_zero},
        0,
    )


def _operator(entry, default):
    """The direction of the entry's Hamiltonian structure, else ``default``."""
    return entry.extras.get("operator", default) if entry is not None else default


def _gardner_fixture(args):
    doc, entry = _load_doc(args)
    if entry is None or "miura" not in entry.extras:
        raise UsageError(
            "gardner verify and densities need a catalog entry with a recorded deformation"
        )
    base = doc.system()
    extended = entry.extras["extended"]
    miura = entry.extras["miura"]
    corr = entry.extras.get(
        "correspondence",
        tuple(zip(base.fields, extended.fields)),
    )
    return base, extended, miura, corr


def cmd_gardner(args):
    if args.action == "verify":
        base, extended, miura, _corr = _gardner_fixture(args)
        res = verify_deformation(base, extended, miura)
        bad = {u.name: print_poly(p) for u, p in res.items() if not p.is_zero}
        code = 0 if not bad else 1
        out = {"fields": [u.name for u in base.fields]}
        if bad:
            out["residual"] = bad
        return _emit(args, out, code)
    if args.action == "densities":
        _base, _ext, miura, corr = _gardner_fixture(args)
        rows = density_recurrence(miura, corr, "eps", args.order)
        out = {
            w.name: [print_poly(r) for r in rho_list]
            for w, rho_list in rows.items()
        }
        return _emit(args, {"densities": out}, 0)
    doc, entry = _load_doc(args)  # search
    H0 = next(iter(doc.functionals.values()), None)
    if H0 is None:
        raise UsageError("document declares no functional to deform")
    eps_weight = doc.param_weights.get("eps")
    if eps_weight is None:
        raise UsageError("document declares no weighted deformation parameter eps")
    results = search_deformation(
        doc.system(), doc.weight_system(), H0, "eps", eps_weight,
        args.max_order, _operator(entry, DX),
    )
    out = []
    for d in results:
        out.append({
            "miura": {u.name: print_poly(p) for u, p in d.miura.items()},
            "density": print_poly(d.hamiltonian),
            "free": list(d.free_params),
        })
        if d.constraints:
            out[-1]["constraints"] = [print_poly(c) for c in d.constraints]
    return _emit(args, {"deformations": out}, 0 if out else 1)


def cmd_theta_expand(args):
    doc, _ = _load_doc(args)
    sys = doc.system()
    field = _lookup(doc.fields, args.field, "field")
    if field not in sys.rhs:
        raise MissingDerivativeError(f"no evolution declared for {field.name}")
    mapping = {field: parse_expression(args.map, doc.scope)}
    sub = type(sys)(
        (field,), {field: sys.rhs[field]}, params=sys.params, name=sys.name
    )
    try:
        comp = clifford_expand(sub, mapping)
    except ParityError as exc:
        raise UsageError(f"--map does not fit field {field.name}: {exc}") from None
    out = {u.name + "_t": print_poly(rhs) for u, rhs in comp.rhs.items()}
    return _emit(args, {"components": out}, 0)


def cmd_infer_weights(args):
    doc, _ = _load_doc(args)
    declared = [*doc.fields, "t", *doc.param_weights]
    fixed = {}
    for item in args.fix or ():
        k, _, v = item.partition("=")
        if not v:
            raise UsageError("--fix needs name=value")
        if k not in declared:
            raise UsageError(f"--fix: {k!r} is not a declared field, t or parameter; "
                             f"declared: {', '.join(declared)}")
        fixed[k] = _rational(v)
    sol = infer_weights(doc.system(), fixed, tuple(doc.param_weights))
    if sol is None:
        return _emit(args, {"error": "weight balance unsatisfiable"}, 1)
    out = {
        "weights": {n: _fr(v) for n, v in sol.particular.items()},
        "unique": sol.unique,
    }
    if sol.basis:
        out["freedom"] = [
            {n: _fr(v) for n, v in vec.items()} for vec in sol.basis
        ]
    return _emit(args, out, 0)


def cmd_catalog(args):
    if args.action == "list":
        rows = {cid: catalog.get(cid).title for cid in catalog.ids()}
        return _emit(args, {"entries": rows}, 0)
    if args.action == "show":
        if not args.id:
            raise UsageError("catalog show needs an entry id")
        e = catalog.get(args.id)
        out = {"id": e.id, "title": e.title}
        for name, text in e.sources.items():
            out[f"source.{name}"] = text.strip()
        if e.scales:
            out["scales"] = {k: _fr(v) for k, v in e.scales.items()}
        out["checks"] = [name for name, _fn in e.checks]
        return _emit(args, out, 0)
    ids = list(catalog.ids()) if (args.all or not args.id) else [args.id]  # verify
    results = [(cid, *row) for cid in ids for row in catalog.verify(cid)]
    lines = [
        f"{'PASS' if ok else 'FAIL'} {cid}:{name} {detail}"
        for cid, name, ok, detail in results
    ]
    failures = sum(1 for _c, _n, ok, _d in results if not ok)
    return _emit(args, {"checks": lines, "failures": failures},
                 0 if failures == 0 else 1)


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(sp, expr=False):
    sp.add_argument("--catalog", help="catalog entry id")
    sp.add_argument("--doc", help="document name within the entry (default main)")
    sp.add_argument("--file", help="path to a source document")
    sp.add_argument("--json", action="store_true", help="structured output")
    if expr:
        sp.add_argument("--expr", required=True)


def _add_max_degree(sp):
    sp.add_argument("--max-degree", type=_count, default=2, dest="max_degree",
                    help="cap on powers of weight-zero factors in ansatze")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="superjet",
        description="exact computations for evolutionary super-systems",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse and print canonically")
    _add_common(sp)
    sp.add_argument("--expr", help="single expression instead of the document")
    sp.set_defaults(fn=cmd_parse)

    sp = sub.add_parser("derive", help="apply a derivation to an expression")
    _add_common(sp, expr=True)
    sp.add_argument("--dir", required=True, choices=list(DERIV_WORDS))
    sp.add_argument("--times", type=_count, default=1)
    sp.set_defaults(fn=cmd_derive)

    sp = sub.add_parser("dt", help="t-derivative along the system")
    _add_common(sp, expr=True)
    sp.set_defaults(fn=cmd_dt)

    sp = sub.add_parser("commute", help="graded commutator of two named flows")
    _add_common(sp)
    sp.add_argument("--flow", dest="flows", action="append", required=True,
                    help="flow name (give twice)")
    sp.set_defaults(fn=cmd_commute)

    sp = sub.add_parser("check-symmetry", help="verify a named flow")
    _add_common(sp)
    sp.add_argument("--flow", required=True)
    sp.set_defaults(fn=cmd_check_symmetry)

    sp = sub.add_parser("find-symmetries", help="solve for homogeneous flows")
    _add_common(sp)
    sp.add_argument("--weight", required=True,
                    help="flow weight, e.g. -7/2, or a range such as -1/2..-5 "
                         "(steps of -1/2)")
    sp.add_argument("--parity", choices=["even", "odd", "both"], default="even")
    sp.add_argument("--assume-nonzero", default="", dest="assume_nonzero",
                    help="comma-separated parameters taken to be nonzero")
    _add_max_degree(sp)
    sp.add_argument("--case-split-limit", type=_count, default=0, dest="case_split_limit")
    sp.set_defaults(fn=cmd_find_symmetries)

    sp = sub.add_parser("check-covering", help="cross-derivative consistency")
    _add_common(sp)
    sp.set_defaults(fn=cmd_check_covering)

    sp = sub.add_parser("verify-shadow", help="verify a named shadow")
    _add_common(sp)
    sp.add_argument("--shadow", required=True)
    sp.set_defaults(fn=cmd_verify_shadow)

    sp = sub.add_parser("apply-recursion", help="apply a shadow to a seed flow")
    _add_common(sp)
    sp.add_argument("--shadow", required=True)
    sp.add_argument("--seed", required=True)
    sp.add_argument("--iterations", type=_count, default=1)
    _add_max_degree(sp)
    sp.set_defaults(fn=cmd_apply_recursion)

    sp = sub.add_parser("nilpotency", help="least vanishing power of a shadow")
    _add_common(sp)
    sp.add_argument("--shadow", required=True)
    sp.add_argument("--max", type=_count, default=8)
    sp.set_defaults(fn=cmd_nilpotency)

    sp = sub.add_parser("euler", help="variational derivative of a density")
    _add_common(sp, expr=True)
    sp.set_defaults(fn=cmd_euler)

    sp = sub.add_parser("integrate", help="exact preimage under D or Dx")
    _add_common(sp, expr=True)
    sp.add_argument("--dir", required=True, choices=["D", "Dx"])
    _add_max_degree(sp)
    sp.set_defaults(fn=cmd_integrate)

    sp = sub.add_parser("conserved", help="check a density is conserved")
    _add_common(sp, expr=True)
    sp.add_argument("--image", required=True, choices=["D", "Dx"])
    _add_max_degree(sp)
    sp.set_defaults(fn=cmd_conserved)

    sp = sub.add_parser("hamiltonian-flow", help="flow of a functional")
    _add_common(sp)
    sp.add_argument("--density", required=True,
                    help="functional name or density expression")
    sp.add_argument("--operator", choices=["dx", "susy"], default="dx")
    sp.set_defaults(fn=cmd_hamiltonian_flow)

    sp = sub.add_parser("gardner", help="deformations of integrable systems")
    sp.add_argument("action", choices=["verify", "densities", "search"])
    _add_common(sp)
    sp.add_argument("--order", type=_count, default=2)
    sp.add_argument("--max-order", type=_count, default=2, dest="max_order")
    sp.set_defaults(fn=cmd_gardner)

    sp = sub.add_parser("theta-expand", help="expand through a Clifford auxiliary")
    _add_common(sp)
    sp.add_argument("--field", required=True)
    sp.add_argument("--map", required=True,
                    help="expression for the field in component fields")
    sp.set_defaults(fn=cmd_theta_expand)

    sp = sub.add_parser("infer-weights", help="solve the weight balance")
    _add_common(sp)
    sp.add_argument("--fix", action="append", help="name=value (repeatable)")
    sp.set_defaults(fn=cmd_infer_weights)

    sp = sub.add_parser("catalog", help="built-in systems")
    sp.add_argument("action", choices=["list", "show", "verify"])
    sp.add_argument("id", nargs="?")
    sp.add_argument("--all", action="store_true")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(fn=cmd_catalog)

    return ap


_PARSER = None  # built by the first main() call, reused by every later one


def main(argv=None):
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    args = _PARSER.parse_args(argv)
    if getattr(args, "command", None) == "commute" and len(args.flows or ()) != 2:
        print("commute needs exactly two --flow arguments", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (SyntaxErrorWithPos, UndeclaredSymbolError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except (UsageError, FileNotFoundError, UnknownNameError, InhomogeneousError,
            MissingDerivativeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # an engine fault, not a usage error
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
