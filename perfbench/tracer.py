"""Span tracer that wraps the public functions of every superjet layer.

The tracer lives entirely in the benchmark: it replaces module attributes
of the already imported ``superjet`` package with timing wrappers and
leaves the source untouched.  Two passes exist because the ``SuperPoly``
dunders are called millions of times and their wrapper overhead would
distort every other layer's self time:

* ``install_layers`` wraps every public module-level function of the
  layer modules, the ``sympy`` functions that ``determine`` and
  ``gardner`` call through their ``sympy`` module attribute, and each
  catalog check closure;
* ``install_algebra`` wraps only the ``SuperPoly`` constructor, add and
  multiply.

Self time is a span's duration minus the time covered by its child spans,
so a recursive call (``d_integrate`` on mixed-parity parts) is counted
once.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
import types
from collections import Counter

# layer modules of src/superjet/ besides algebra, which has its own pass
LAYER_MODULES = (
    "jets", "weights", "determine", "coverings", "recursion", "variational",
    "gardner", "grammar", "catalog", "cli",
)
LAYERS = ("algebra",) + LAYER_MODULES + ("sympy",)
SYMPY_FUNCTIONS = ("cancel", "factor", "together", "expand", "solve")

# functions whose calls and self time are reported as per-layer metrics
REPORTED_SPANS = {
    "jets": ("super_derive", "apply_ops", "dt_apply", "evolutionary_apply",
             "check_symmetry", "substitute"),
    "weights": ("enumerate_monomials", "infer_weights"),
    "determine": ("find_symmetries", "extract_linear_system",
                  "solve_linear.rational", "solve_linear.parametric"),
    "recursion": ("apply_shadow", "d_integrate", "verify_shadow", "compose"),
    "coverings": ("check_covering", "derived_equation_check", "linearize"),
    "variational": ("euler", "is_conserved", "hamiltonian_flow"),
    "gardner": ("verify_deformation", "density_recurrence", "search_deformation"),
    "grammar": ("parse_document", "parse_expression", "print_poly"),
    "catalog": ("get", "check"),
    "cli": ("main",),
}

# size counters gathered by post-call hooks (name -> unit)
SIZE_COUNTERS = {
    "jets.terms_out": "count",
    "weights.enumerate_monomials.monomials": "count",
    "determine.find_symmetries.ansatz": "count",
    "determine.extract_linear_system.equations": "count",
    "determine.solve_linear.rational.unknowns": "count",
    "determine.solve_linear.rational.equations": "count",
    "determine.solve_linear.parametric.unknowns": "count",
    "determine.solve_linear.parametric.equations": "count",
    "determine.solve_linear.assumptions": "count",
    "determine.solve_linear.branches": "count",
    "recursion.d_integrate.ansatz_unknowns": "count",
    "grammar.parse_document.chars": "chars",
}
# ratios derived from the counters: name -> (numerator, denominator)
RATIOS = {
    "determine.solve_linear.rank_ratio": (
        "determine.solve_linear.rank", "determine.solve_linear.ranked_equations"),
    "recursion.d_integrate.kept_ratio": (
        "recursion.d_integrate.preimage_terms", "recursion.d_integrate.ansatz_unknowns"),
}
ALGEBRA_COUNTERS = ("algebra.init.calls", "algebra.add.calls",
                    "algebra.add.terms_copied", "algebra.mul.calls",
                    "algebra.mul.term_pairs")



def per_layer_metrics() -> dict:
    """Every per-layer metric a traced run reports: name -> unit."""
    out = {}
    for layer, fns in REPORTED_SPANS.items():
        for fn in fns:
            out[f"{layer}.{fn}.calls"] = "count"
            out[f"{layer}.{fn}.self_s"] = "s"
    out.update({"sympy.calls": "count", "sympy.self_s": "s"})
    out.update({name: "count" for name in ALGEBRA_COUNTERS})
    out.update({"algebra.mul.kept_ratio": "ratio", "algebra.self_s": "s"})
    out.update(SIZE_COUNTERS)
    out.update(dict.fromkeys(RATIOS, "ratio"))
    out.update({f"{layer}.self_s": "s" for layer in LAYER_MODULES})
    out.update({f"share.{layer}": "ratio" for layer in LAYERS + ("unattributed",)})
    out["trace.overhead_s"] = "s"
    return out


_JETS_SIZED = {"super_derive", "apply_ops", "dt_apply", "evolutionary_apply",
               "check_symmetry", "substitute"}


class BindingError(RuntimeError):
    """A superjet module still holds an unwrapped original after install."""


def terms_of(obj) -> int:
    """Number of terms in a SuperPoly, a Flow or a dict of SuperPolys."""
    if hasattr(obj, "terms"):
        return len(obj.terms)
    comps = getattr(obj, "components", obj)
    if isinstance(comps, dict):
        return sum(len(p.terms) for p in comps.values() if hasattr(p, "terms"))
    return 0


def _n_terms(x) -> int:
    """Terms of a multiplication operand: a SuperPoly, a scalar or a generator."""
    if hasattr(x, "terms"):
        return len(x.terms)
    return 0 if x == 0 else 1


def _carries_parameter(eqs) -> bool:
    return any(
        p.param_names()
        for eq in eqs
        for p in (eq.const, *eq.coeffs.values())
    )


class Tracer:
    """Aggregates spans (calls, self time) and size counters in memory."""

    def __init__(self):
        self.spans: dict = {}  # span name -> [calls, self seconds]
        self.sizes = Counter()
        self.ansatz_log: list = []  # monomials per outermost d_integrate call
        self._children: list = []  # child-time accumulator per open span
        self._d_integrate = []  # ansatz accumulator per open d_integrate span

    # -- spans ---------------------------------------------------------

    def wrap(self, name, fn, post=None):
        record = self.spans.setdefault(name, [0, 0.0])
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                record[0] += 1
                record[1] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
            if post is not None:
                post(result, args, kwargs)
            return result

        return span

    # -- layer pass ----------------------------------------------------

    def _post_hook(self, layer, name):
        sizes = self.sizes
        if layer == "jets" and name in _JETS_SIZED:
            def post(result, args, kwargs):
                sizes["jets.terms_out"] += terms_of(result)
            return post
        if (layer, name) == ("weights", "enumerate_monomials"):
            def post(result, args, kwargs):
                sizes["weights.enumerate_monomials.monomials"] += len(result)
                if self._d_integrate:
                    self._d_integrate[0] += len(result)
            return post
        if (layer, name) == ("determine", "find_symmetries"):
            def post(result, args, kwargs):
                sizes["determine.find_symmetries.ansatz"] += result.ansatz_size
            return post
        if (layer, name) == ("determine", "extract_linear_system"):
            def post(result, args, kwargs):
                sizes["determine.extract_linear_system.equations"] += len(result)
            return post
        if (layer, name) == ("grammar", "parse_document"):
            def post(result, args, kwargs):
                text = args[0] if args else kwargs["text"]
                sizes["grammar.parse_document.chars"] += len(text)
            return post
        return None

    def _solve_linear(self, fn):
        sizes = self.sizes

        def post_for(kind):
            def post(branches, args, kwargs):
                eqs, unknowns = args[0], args[1]
                sizes[f"determine.solve_linear.{kind}.unknowns"] += len(unknowns)
                sizes[f"determine.solve_linear.{kind}.equations"] += len(eqs)
                sizes["determine.solve_linear.branches"] += len(branches)
                sizes["determine.solve_linear.assumptions"] += sum(
                    len(b.assumptions) for b in branches)
                if branches:
                    sizes["determine.solve_linear.rank"] += len(unknowns) - branches[0].dim
                    sizes["determine.solve_linear.ranked_equations"] += len(eqs)
            return post

        rational = self.wrap("determine.solve_linear.rational", fn, post_for("rational"))
        parametric = self.wrap("determine.solve_linear.parametric", fn, post_for("parametric"))

        @functools.wraps(fn)
        def solve_linear(eqs, unknowns, *args, **kwargs):
            kind = parametric if _carries_parameter(eqs) else rational
            return kind(eqs, unknowns, *args, **kwargs)

        return solve_linear

    def _d_integrate_span(self, fn):
        stack = self._d_integrate
        sizes = self.sizes
        inner = self.wrap("recursion.d_integrate", fn)

        @functools.wraps(fn)
        def d_integrate(*args, **kwargs):
            if stack:  # a recursive call: its ansatz adds to the outermost one
                return inner(*args, **kwargs)
            stack.append(0)
            try:
                result = inner(*args, **kwargs)
            finally:
                ansatz = stack.pop()
            self.ansatz_log.append(ansatz)
            sizes["recursion.d_integrate.ansatz_unknowns"] += ansatz
            sizes["recursion.d_integrate.preimage_terms"] += len(result.terms)
            return result

        return d_integrate

    def _catalog_get(self, fn):
        wrap = self.wrap

        def post(entry, args, kwargs):
            entry.checks[:] = [(n, wrap("catalog.check", check)) for n, check in entry.checks]

        return self.wrap("catalog.get", fn, post)

    def install_layers(self):
        """Wrap every public function of the layer modules, in every binding."""
        wrappers = {}  # original function -> its span
        for layer in LAYER_MODULES:
            mod = importlib.import_module(f"superjet.{layer}")
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                if (layer, name) == ("determine", "solve_linear"):
                    wrapper = self._solve_linear(obj)
                elif (layer, name) == ("recursion", "d_integrate"):
                    wrapper = self._d_integrate_span(obj)
                elif (layer, name) == ("catalog", "get"):
                    wrapper = self._catalog_get(obj)
                else:
                    wrapper = self.wrap(f"{layer}.{name}", obj, self._post_hook(layer, name))
                wrappers[obj] = wrapper
        modules = _superjet_modules()
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and val in wrappers:
                    setattr(mod, attr, wrappers[val])
        import sympy

        proxy = _SympyProxy(sympy, self)
        for mod in modules:
            if vars(mod).get("sympy") is sympy:
                mod.sympy = proxy
        check_bindings(modules, wrappers, sympy)

    # -- algebra pass --------------------------------------------------

    def install_algebra(self):
        """Count and time the SuperPoly constructor, add and multiply."""
        from superjet.algebra import SuperPoly

        sizes = self.sizes
        plus = SuperPoly.__add__

        def add_post(result, args, kwargs):
            if result is not NotImplemented:
                sizes["algebra.add.terms_copied"] += len(args[0].terms)

        def mul_post(result, args, kwargs):
            if result is not NotImplemented:
                sizes["algebra.mul.term_pairs"] += len(args[0].terms) * _n_terms(args[1])
                sizes["algebra.mul.result_terms"] += len(result.terms)

        wrappers = {
            SuperPoly.__init__: self.wrap("algebra.init", SuperPoly.__init__),
            plus: self.wrap("algebra.add", plus, add_post),  # also bound as __radd__
            SuperPoly.__mul__: self.wrap("algebra.mul", SuperPoly.__mul__, mul_post),
        }
        for attr, val in list(vars(SuperPoly).items()):
            if inspect.isfunction(val) and val in wrappers:
                setattr(SuperPoly, attr, wrappers[val])
        leftover = [a for a, v in vars(SuperPoly).items()
                    if inspect.isfunction(v) and v in wrappers]
        if leftover:
            raise BindingError(f"SuperPoly still holds unwrapped {leftover}")


class _SympyProxy(types.ModuleType):
    """Stands in for ``sympy`` inside determine and gardner; wraps five calls."""

    def __init__(self, real, tracer: Tracer):
        super().__init__(real.__name__)
        self._real = real
        for fn in SYMPY_FUNCTIONS:
            setattr(self, fn, tracer.wrap("sympy", getattr(real, fn)))

    def __getattr__(self, name):
        return getattr(self._real, name)


def _superjet_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "superjet" or n.startswith("superjet.")) and m is not None]


def check_bindings(modules, originals, sympy_module):
    """Raise BindingError if any superjet module still reaches an original,
    directly or through a module-level dict, list or tuple."""
    leftover = []
    for mod in modules:
        for attr, val in vars(mod).items():
            if val is sympy_module:
                leftover.append(f"{mod.__name__}.{attr} (sympy)")
                continue
            if isinstance(val, dict):
                inner = list(val.values())
            elif isinstance(val, (list, tuple)):
                inner = list(val)
            else:
                inner = [val]
            if any(inspect.isfunction(v) and v in originals for v in inner):
                leftover.append(f"{mod.__name__}.{attr}")
    if leftover:
        raise BindingError("unwrapped originals remain: " + ", ".join(leftover))


# ---------------------------------------------------------------------------
# turning pass records into metrics


def counts(record: dict) -> dict:
    """Everything in a traced pass that must repeat exactly for one seed."""
    out = {f"{name}.calls": calls for name, (calls, _s) in record["spans"].items()}
    out.update(record["sizes"])
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(plain: dict, layer_passes: list, algebra_pass: dict) -> dict:
    """Per-layer metric values from one untraced, two or more layer-traced
    and one algebra-traced pass of the same seed."""
    median = statistics.median
    first = layer_passes[0]
    sizes = Counter(first["sizes"])
    out = {}

    def span_self(name):
        return median([p["spans"].get(name, [0, 0.0])[1] for p in layer_passes])

    for layer, fns in REPORTED_SPANS.items():
        for fn in fns:
            name = f"{layer}.{fn}"
            out[f"{name}.calls"] = first["spans"].get(name, [0])[0]
            out[f"{name}.self_s"] = span_self(name)
    out["sympy.calls"] = first["spans"].get("sympy", [0])[0]
    out["sympy.self_s"] = span_self("sympy")

    alg_spans, alg_sizes = algebra_pass["spans"], Counter(algebra_pass["sizes"])
    out["algebra.init.calls"] = alg_spans["algebra.init"][0]
    out["algebra.add.calls"] = alg_spans["algebra.add"][0]
    out["algebra.add.terms_copied"] = alg_sizes["algebra.add.terms_copied"]
    out["algebra.mul.calls"] = alg_spans["algebra.mul"][0]
    out["algebra.mul.term_pairs"] = alg_sizes["algebra.mul.term_pairs"]
    out["algebra.mul.kept_ratio"] = _ratio(alg_sizes["algebra.mul.result_terms"],
                                           alg_sizes["algebra.mul.term_pairs"])
    algebra_self = sum(s for _c, s in alg_spans.values())
    out["algebra.self_s"] = algebra_self

    for name in SIZE_COUNTERS:
        out[name] = sizes[name]
    for name, (num, den) in RATIOS.items():
        if not name.startswith("algebra."):
            out[name] = _ratio(sizes[num], sizes[den])

    per_pass = []
    for p in layer_passes:
        own = dict.fromkeys(LAYERS, 0.0)
        for name, (_calls, self_s) in p["spans"].items():
            own[name.split(".", 1)[0]] += self_s
        per_pass.append(own)
    for layer in LAYER_MODULES:
        out[f"{layer}.self_s"] = median([own[layer] for own in per_pass])
    traced = median([p["traced_s"] for p in layer_passes])
    attributed = 0.0
    for layer in LAYERS:
        if layer == "algebra":
            share = _ratio(algebra_self, algebra_pass["traced_s"])
        else:
            share = _ratio(median([own[layer] for own in per_pass]), traced)
            attributed += share
        out[f"share.{layer}"] = share
    out["share.unattributed"] = 1.0 - attributed
    out["trace.overhead_s"] = median([p["wall_s"] for p in layer_passes]) - plain["wall_s"]
    return out
