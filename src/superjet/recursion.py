"""Recursion-operator shadows: verification, application, iteration,
composition and nilpotency.

A shadow is a flow on the phantom extension of a covering whose
components are linear in the phantom jets.  Applying a shadow to a
symmetry substitutes that symmetry for the phantoms; values of
non-local phantoms are produced by exact term-wise integration of their
linearized defining relations.

Integration (``d_integrate``) works one weight and parity part at a
time and takes one of three paths for each, every one giving the
preimage that solving the whole homogeneous ansatz would give:

* A local Dx-target is integrated by the homotopy operator (Hereman et
  al., "Continuous and discrete homotopy operators: a theoretical
  approach made concrete", Math. Comput. Simul., 2007), which solves no
  system.  Its answer is kept only where guards prove that Dx has no
  kernel on the ansatz.
* Otherwise the part's component of the integration system is solved.
  The system pairs every ansatz monomial with the monomials of its
  image, but only the connected component that touches the target
  carries a constant, so the component's monomials are grown from the
  target's through the images of single generators, and nothing else is
  enumerated.  Its rows are extracted (``extract_linear_system``) from
  the image of the component's ansatz minus the part; with its columns
  in term order, the component gives the whole system's preimage.
* Along an odd direction D, D^2 = Dx turns D(g) = f into Dx(g) = D(f),
  which the first two paths solve, and the answer is kept only where
  guards prove it is the direct D-preimage; elsewhere the part's D
  system's component is solved.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import (
    D1,
    D2,
    DX,
    JetVar,
    Phantom,
    SuperPoly,
    _accumulate,
    _wrap,
    linear_ansatz,
    poly_sum,
    rat_div,
    term_order_key,
)
from .coverings import PhantomFrame, is_phantom
from .determine import extract_linear_system
from .jets import (
    Flow,
    Nonlocality,
    _derive,
    _epoch_table,
    _residual,
    _super_image,
    evolutionary_apply,
    prolong,
    reduction,
    super_derive,
)
from .linsolve import NonlinearSystemError, gauss_jordan
from .variational import graded_partial
from .weights import (
    WeightSystem,
    integer_weights,
    items_from_gens,
    jets_up_to_weight,
    split_by_weight,
)

Q = Fraction


class NotIntegrableError(ValueError):
    pass


class NotLinearInPhantomsError(ValueError):
    pass


class NotLocalError(ValueError):
    """Raised when applying a shadow cannot produce a local flow."""


@dataclass
class Shadow:
    """A recursion-operator shadow over a phantom frame."""

    frame: PhantomFrame
    components: dict  # base field -> SuperPoly, linear in phantom jets
    parameter_parity: int = 0
    name: str = ""

    @property
    def is_zero(self):
        return all(p.is_zero for p in self.components.values())


def verify_shadow(shadow: Shadow) -> dict:
    """Residual of the shadow condition on the phantom extension."""
    frame = shadow.frame
    sys = frame.base
    flow = Flow(dict(shadow.components), shadow.parameter_parity, name=shadow.name)
    return {u: _residual(frame.system, flow, u, sys.rhs[u]) for u in sys.fields}


def shadow_is_valid(shadow: Shadow) -> bool:
    return all(r.is_zero for r in verify_shadow(shadow).values())


# ---------------------------------------------------------------------------
# exact term-wise integration


def d_integrate(
    target: SuperPoly,
    direction: str,
    ws: WeightSystem,
    gens: Sequence,
    zero_weight_cap: int = 2,
) -> SuperPoly:
    """An exact preimage of the target under D1, D2 or Dx.

    The preimage is sought as a homogeneous polynomial ansatz over the
    admissible jets of the given symbols (those of ``items_from_gens``);
    raises NotIntegrableError when no such preimage exists.  Each weight
    and parity part is integrated on its own (``_integrate_part``).

    Along Dx, the homotopy operator (``_homotopy``) integrates a part
    first, and its answer h is returned as the only preimage in the
    part's ansatz A when

    (a) the part has only local jets of fields: no non-local, phantom,
        theta, Clifford or function factor;
    (b) the preimage's weight is not 0;
    (c) each monomial of h lies in A: its factors are items, within
        their caps, and it has the preimage's weight and parity;
    (d) Dx(h) is the part;
    (e) each non-local item g_j has a local Dx-image q_j, and no nonzero
        combination of the q_j is Dx-exact (``_kernel_free``).

    Then ker Dx meets A only in 0, so A holds one preimage, the one the
    component solve finds, with no free column.  Write an a in A with
    Dx(a) = 0 as a polynomial in the g_j over local coefficients c.  The
    q_j are local, so the terms of Dx(a) of top degree d in the g_j come
    from the images of the top coefficients, which are therefore
    constants, the local kernel of Dx.  In degree d - 1 the coefficient
    of each g^b reads Dx(c_b) + sum_j +-(b_j + 1) c_(b+e_j) q_j = 0, so
    that combination of the q_j is Dx-exact, and (e) makes every top
    coefficient 0.  Down the degrees, a is local, hence a constant, and
    A, of nonzero weight (b), holds no constant.

    Along D (D1 or D2) a part is first integrated through the Dx system
    of its D-image, which is much smaller (``_through_dx``), and that
    solution h is returned only when it is provably the preimage the
    direct D path gives; otherwise the part takes the direct path.  Each
    part falls back on its own.  For one part f, both paths use the same
    ansatz A: D(f) has weight [f] + 1/2 and the other parity, so its
    Dx-preimages have the weight and parity of f's D-preimages.  The
    guards are

    (i) the Dx system of D(f) is consistent, its solution is a Laurent
        polynomial, and it has no free column;
    (ii) D(h) = f;
    (iii) D(D(g)) = Dx(g) for every non-local jet g of the ansatz.

    The argument, with C the Dx-component of D(f) and p the direct
    answer (the particular solution of f's D-component):

    * D^2 = Dx on A, since both are even derivations that agree on A's
      generators: local jets by the index rule, non-local ones by (iii).
      So ker D is inside ker Dx on A.
    * A vector of A splits into its part on C and the rest, whose
      Dx-images share no monomial (C is a whole component).  So a b in
      ker D has Dx(b) = 0, hence Dx(b on C) = 0, and (i) makes b vanish
      on C.
    * h lives on C and D(h) = f (ii), so the part of h off f's
      D-component is in ker D and on C, hence 0: h solves the direct
      system.  Then p - h is in ker D, so p = h on C, and the direct
      answer minus h lies outside C and in ker D.
    * Each column the direct solve leaves free carries a basis vector of
      ker D, which vanishes on C, so the column lies off C and h is 0
      there, like p.  Two solutions of the direct system that agree on
      every free column are equal, so p = h.

    Where the homotopy operator answers the Dx solve, no component is
    built, and the argument holds with C = A: from (i) it needs only h
    and that ker Dx meets C only in 0, which (b) and (e) prove for A.

    The argument treats the parameters as indeterminates, as both solves
    do, so an assumed pivot counts as nonzero; what holds for particular
    parameter values is left out, as on the direct path.  It needs
    nothing more on coverings such as ``D(v) = 0``, whose potentials have
    zero x-derivatives: a monomial with a zero Dx-image meets no equation
    and never joins C, and a kernel vector on C is a free column, which
    (i) refuses.  A failed guard proves nothing, so the route never
    decides that a target has no preimage; the direct path does.
    """
    if target.is_zero:
        return SuperPoly.zero()
    out = []
    for wt, whole in sorted(split_by_weight(ws, target).items()):
        want_wt = wt - _shift(direction)
        jets = [g for g in jets_up_to_weight(ws, gens, want_wt) if _is_new_coordinate(g)]
        items = items_from_gens(ws, jets, want_wt, zero_weight_cap)
        out += [_integrate_part(part, direction, wt, items)[0]
                for part in whole.parity_report() if not part.is_zero]
    return poly_sum(out)


def _shift(direction) -> Fraction:
    """The weight of the direction."""
    return Q(1) if direction == DX else Q(1, 2)


def _integrate_part(part: SuperPoly, direction, wt, items) -> tuple:
    """The preimage of one part of weight wt and one parity, and whether
    it is proven the only one in the part's component: along Dx from
    ``_homotopy`` and along D from ``_through_dx`` where their guards
    hold, otherwise from the part's component (``_solve_component``).  A
    routed D answer counts as not proven unique."""
    if direction == DX:
        h = _homotopy(part, wt, items)
    else:
        h = _through_dx(part, direction, wt, items)
    if h is not None:
        return h, direction == DX
    return _solve_component(part, direction, wt, items)


def _through_dx(part: SuperPoly, direction, wt, items) -> Optional[SuperPoly]:
    """The D-preimage of the part found as the Dx-preimage of its D-image,
    or None unless guards (i)-(iii) of ``d_integrate`` hold."""
    twice = (1, 0, 0) if direction == D1 else (0, 1, 0)
    for it in items:
        g = it.factor
        if (isinstance(g.fieldsym, Nonlocality)
                and prolong(_super_image(direction)(g), *twice) != _super_image(DX)(g)):
            return None
    image = super_derive(part, direction)
    if image.is_zero:
        return None
    try:
        h, unique = _integrate_part(image, DX, wt + _shift(direction), items)
    except NotIntegrableError:
        return None
    return h if unique and super_derive(h, direction) == part else None


def _homotopy(part: SuperPoly, wt, items) -> Optional[SuperPoly]:
    """The Dx-preimage of a local part by the homotopy operator, or None
    unless guards (a)-(e) of ``d_integrate`` hold.

    Each jet sequence u = D1^d1 D2^d2 (field) is its own dependent
    variable, with u_k = Dx^k u.  The operator sums
    u_i (-Dx)^(k-1-i) dp/du_k (left partials) over the sequences and
    0 <= i < k.  When p is Dx-exact, the Dx-image of that sum is p with
    each monomial times its degree, which the sum keeps, so each monomial
    of the sum is divided by its degree.
    """
    gens = part.generators()
    if (wt == _shift(DX) or not all(map(_is_local_jet, gens))
            or any(key[2] for key in part.terms) or not _kernel_free(items)):
        return None  # guards (b), (a) and (e)
    top: dict = {}
    for g in gens:
        seq = (g.fieldsym, g.d1, g.d2)
        top[seq] = max(top.get(seq, 0), g.m)
    acc: dict = {}
    for (sym, d1, d2), n in top.items():
        tail = SuperPoly.zero()  # sum over k > i of (-Dx)^(k-1-i) dp/du_k
        for i in range(n - 1, -1, -1):
            tail = graded_partial(part, JetVar(sym, d1, d2, i + 1)) - super_derive(tail, DX)
            _accumulate(acc, (SuperPoly.from_gen(JetVar(sym, d1, d2, i)) * tail).terms.items())
    h = _wrap({key: rat_div(c, sum(x for _g, x in key[0]) + len(key[1]))
               for key, c in acc.items()})
    want_wt, want_par = wt - _shift(DX), part.parity()
    item = {it.factor: it for it in items}
    for evens, odds, _funcs, _params in h.terms:  # guard (c)
        factors = [*evens, *((g, 1) for g in odds)]
        if (len(odds) % 2 != want_par
                or any(g not in item or item[g].max_exp < x for g, x in factors)
                or sum(x * item[g].weight for g, x in factors) != want_wt):
            return None
    if super_derive(h, DX) != part:  # guard (d)
        return None
    return h


def _is_local_jet(g) -> bool:
    return isinstance(g, JetVar) and not isinstance(g.fieldsym, (Nonlocality, Phantom))


#: [memo epoch, {ids of an ansatz's non-local jets: (guard (e), the jets)}]
_KERNEL_FREE: list = [None, {}]


def _kernel_free(items) -> bool:
    """Guard (e) of ``d_integrate``.  The Euler operator along Dx,
    sum_m (-Dx)^m d/du_m on each jet sequence u, annihilates every
    Dx-exact form, so the q_j are independent modulo Dx-exact forms when
    their Euler images are independent.

    The answer depends on the declared values, so it is kept for one
    epoch of the jet memos, keyed on the identity of the jets (equal
    non-locals may declare different values), which it keeps alive.
    """
    nonlocal_jets = tuple(it.factor for it in items if not _is_local_jet(it.factor))
    memo = _epoch_table(_KERNEL_FREE)
    key = tuple(map(id, nonlocal_jets))
    if key not in memo:
        memo[key] = (_images_independent(nonlocal_jets), nonlocal_jets)
    return memo[key][0]


def _images_independent(nonlocal_jets) -> bool:
    """Whether sum_j _q{j} * (Euler image of q_j) on each jet sequence
    vanishes only with every unknown _q{j} zero."""
    names = [f"_q{j}" for j in range(len(nonlocal_jets))]
    residuals: dict = {}  # jet sequence -> its terms
    for name, g in zip(names, nonlocal_jets):
        if not (isinstance(g, JetVar) and isinstance(g.fieldsym, Nonlocality)):
            return False
        q = _super_image(DX)(g)
        if not all(_is_local_jet(u) for u in q.generators()) or any(k[2] for k in q.terms):
            return False
        unknown = SuperPoly.param(name)
        for u in q.generators():
            d = prolong(graded_partial(q, u), 0, 0, u.m)
            residuals.setdefault((u.fieldsym, u.d1, u.d2), []).append(
                unknown * (-d if u.m % 2 else d))
    eqs = extract_linear_system(map(poly_sum, residuals.values()), names)
    return not gauss_jordan(eqs, names).basis


def _solve_component(part: SuperPoly, direction, wt, items) -> tuple:
    """The preimage of one part of weight wt and one parity from the
    part's component (``_component``), and whether it is the component's
    only one.

    Everything outside the component is homogeneous and shares no
    unknown or equation with it, and Gauss-Jordan takes pivots column by
    column, so with the columns in term order, as the whole ansatz had
    them, the preimage is the one the whole ansatz gives, and it is the
    component's only one exactly when no column is left free.  Raises
    NotIntegrableError when the component has no solution, or none with
    Laurent coefficients.
    """
    want_par = (part.parity() + (direction != DX)) % 2
    monos = sorted(_component(_monomials(part), direction, items, wt - _shift(direction),
                              want_par), key=term_order_key)
    names = [f"_c{i}" for i in range(len(monos))]
    image = super_derive(linear_ansatz(names, [_wrap({m: 1}) for m in monos]), direction)
    red = gauss_jordan(extract_linear_system([image - part], names), names)
    if red.leftover:
        raise NotIntegrableError(f"no exact {direction}-preimage of weight {wt} part")
    try:
        values = red.particular
    except NonlinearSystemError:
        raise NotIntegrableError(
            f"the {direction}-preimage of weight {wt} part has a coefficient "
            "that is not a Laurent polynomial in the parameters"
        ) from None
    mono = dict(zip(names, monos))
    return (_wrap({(*mono[u][:3], key): x for u, v in values.items() for key, x in v.items()}),
            not red.basis)


def _monomials(p: SuperPoly) -> set:
    """The keys of p's terms without their parameter part."""
    return {(e, o, f, ()) for e, o, f, _params in p.terms}


def _component(target: set, direction, items, weight, parity) -> set:
    """The ansatz monomials in the component of the integration system
    that holds the monomials ``target``; ``_solve_component`` extracts
    the component's rows from their ansatz.

    The system has one unknown per admissible monomial of the given
    weight and parity (every factor an item's, within its cap) and one
    equation per monomial of the images and of the target.  The
    component grows from the target's monomials.  A monomial m can have
    the equation monomial e in its image only if e = (m / g) * t for a
    factor g of m and a term t of the image of g, so the candidates for
    e are the admissible (e / t) * g.  A candidate joins when e really
    occurs in its image, and its image's monomials join the equations.
    Weights compare as the ints of ``integer_weights``, the scaling that
    ``enumerate_monomials`` uses too.
    """
    side = "left" if direction in (D1, D2) else "even"
    caps = {it.factor: it.max_exp for it in items}
    ints, weight = integer_weights(items, weight)
    weights = {it.factor: w for it, w in zip(items, ints)}
    gen_image = dict(zip(caps, map(_super_image(direction), caps)))
    steps: dict = {}  # a factor of t -> the (g, t) pairs, each filed under one factor
    for g, img in gen_image.items():
        for t in dict.fromkeys(key[:3] for key in img.terms):
            factors = [h for h, _x in t[0]] + list(t[1]) + list(t[2])
            steps.setdefault(factors[0] if factors else None, []).append((g, t))
    image_of: dict = {}  # candidate -> monomials of its image, or None if not admissible
    found: set = set()
    todo = list(target)
    seen = set(todo)
    while todo:
        e = todo.pop()
        for m in _predecessors(e, steps, caps):
            if m in found:
                continue
            if m not in image_of:
                admissible = (len(m[1]) % 2 == parity and weight == sum(
                    x * weights[g] for g, x in m[0]) + sum(weights[g] for g in m[1]))
                image_of[m] = (_monomials(_derive(_wrap({m: 1}), gen_image.get, side))
                               if admissible else None)
            image = image_of[m]
            if image is None or e not in image:
                continue
            found.add(m)
            for e2 in image:
                if e2 not in seen:
                    seen.add(e2)
                    todo.append(e2)
    return found


def _predecessors(e, steps, caps):
    """The candidates (e / t) * g over the steps (g, t) filed under a
    factor of e (or under no factor) whose t divides e."""
    for h in (None, *(g for g, _x in e[0]), *e[1], *e[2]):
        for g, t in steps.get(h, ()):
            m = _quotient_times(e, t, g, caps)
            if m is not None:
                yield m


def _quotient_times(e, t, g, caps):
    """The monomial key (e / t) * g, or None unless t divides e and every
    factor of the result is admissible within its cap."""
    evens = dict(e[0])
    for h, x in t[0]:
        left = evens.get(h, 0) - x
        if left < 0:
            return None
        if left:
            evens[h] = left
        else:
            del evens[h]
    if not set(t[1]) <= set(e[1]) or t[2] != e[2]:  # no item is a function factor
        return None
    odds = [h for h in e[1] if h not in t[1]]
    if g.parity:
        if g in odds:
            return None
        odds.append(g)
    else:
        evens[g] = evens.get(g, 0) + 1
    if any(caps.get(h, 0) < x for h, x in evens.items()) or any(h not in caps for h in odds):
        return None
    return (tuple(sorted(evens.items(), key=lambda hx: hx[0]._sort_key)),
            tuple(sorted(odds, key=lambda h: h._sort_key)), (), ())


def _is_new_coordinate(g: JetVar) -> bool:
    """Whether the jet is a genuine coordinate (not reducible by declarations)."""
    sym = g.fieldsym
    return not isinstance(sym, Nonlocality) or reduction(sym, g.d1, g.d2, g.m) is None


# ---------------------------------------------------------------------------
# applying a shadow to a symmetry


def _phantom_values(frame: PhantomFrame, flow: Flow, ws, zero_weight_cap):
    """Values of all phantoms when the linearization direction is the flow."""
    values = {}
    ext = dict(flow.components)
    for u in frame.base.fields:
        values[frame.phantoms[u]] = flow.components[u]
    gens = list(frame.base.fields) + list(frame.covering.nonlocals)
    for w in frame.covering.nonlocals:
        W = frame.phantom_nonlocals[w]
        lflow = Flow(dict(ext), flow.parameter_parity)
        direction = next((d for d in (D1, D2, DX) if d in w.defs), None)
        if direction is None:
            raise NotLocalError(
                f"non-local variable {w.name} has no space-direction declaration"
            )
        rhs = evolutionary_apply(lflow, w.defs[direction])
        try:
            val = d_integrate(rhs, direction, ws, gens, zero_weight_cap)
        except NotIntegrableError as exc:
            raise NotLocalError(
                f"value of phantom for {w.name} is not local: {exc}"
            ) from exc
        values[W] = val
        ext[w] = val
    return values


def _substitute_phantoms(comps: dict, values: dict, parity: int) -> dict:
    """Shadow components with every phantom jet replaced by its value.

    The components are linear in the phantoms, so this is the
    evolutionary derivation, of the values' parameter parity, that sends
    each phantom to its value and every other symbol to 0.
    """
    symbols = set()
    for p in comps.values():
        for evens, odds, _funcs, _params in p.terms:
            found = ([x for g, x in evens if _is_phantom_jet(g)]
                     + [1 for g in odds if _is_phantom_jet(g)])
            if len(found) != 1:
                raise NotLinearInPhantomsError(
                    f"monomial has {len(found)} phantom factors; shadows must be linear"
                )
            if found != [1]:
                raise NotLinearInPhantomsError("phantom factor occurs squared")
        symbols.update(g.fieldsym for g in p.generators() if isinstance(g, JetVar))
    flow = Flow({**dict.fromkeys(symbols, SuperPoly.zero()), **values}, parity)
    return {u: evolutionary_apply(flow, p) for u, p in comps.items()}


def _is_phantom_jet(g) -> bool:
    return isinstance(g, JetVar) and is_phantom(g.fieldsym)


def apply_shadow(
    shadow: Shadow,
    flow: Flow,
    ws: WeightSystem,
    zero_weight_cap: int = 2,
) -> Flow:
    """Apply the shadow to a symmetry, producing a new flow."""
    frame = shadow.frame
    values = _phantom_values(frame, flow, ws, zero_weight_cap)
    comps = _substitute_phantoms({u: shadow.components[u] for u in frame.base.fields},
                                 values, flow.parameter_parity)
    return Flow(
        comps, (shadow.parameter_parity + flow.parameter_parity) % 2
    )


def iterate(
    shadow: Shadow,
    seed: Flow,
    steps: int,
    ws: WeightSystem,
    zero_weight_cap: int = 2,
) -> list:
    """Repeatedly apply the shadow; returns the produced flows in order."""
    out = []
    cur = seed
    for _ in range(steps):
        cur = apply_shadow(shadow, cur, ws, zero_weight_cap)
        out.append(cur)
    return out


# ---------------------------------------------------------------------------
# composition and nilpotency


def compose(s1: Shadow, s2: Shadow) -> Shadow:
    """The shadow obtained by substituting s2's phantom values into s1.

    Both shadows must use only the phantoms of the local fields;
    composing through non-local phantoms is not supported.
    """
    frame = s1.frame
    values = {frame.phantoms[u]: s2.components[u] for u in frame.base.fields}
    nonlocal_phantoms = set(frame.phantom_nonlocals.values())
    for s in (s1, s2):
        for p in s.components.values():
            for g in p.generators():
                if isinstance(g, JetVar) and g.fieldsym in nonlocal_phantoms:
                    raise NotLocalError(
                        "composition of shadows through non-local phantoms "
                        "is not supported"
                    )

    comps = _substitute_phantoms({u: s1.components[u] for u in frame.base.fields},
                                 values, s2.parameter_parity)
    return Shadow(
        frame,
        comps,
        (s1.parameter_parity + s2.parameter_parity) % 2,
        name=f"{s1.name}*{s2.name}",
    )


def nilpotency_order(shadow: Shadow, max_power: int = 8) -> Optional[int]:
    """Least k <= max_power with the k-th power of the shadow vanishing, or
    None; the zero shadow has order 1."""
    if shadow.is_zero:
        return 1 if max_power >= 1 else None
    cur = shadow
    for k in range(2, max_power + 1):
        cur = compose(cur, shadow)
        if cur.is_zero:
            return k
    return None


def shadow_power(shadow: Shadow, k: int) -> Shadow:
    cur = shadow
    for _ in range(k - 1):
        cur = compose(cur, shadow)
    return cur


# ---------------------------------------------------------------------------
# structural measures


def differential_order(p: SuperPoly) -> int:
    """Highest derivative count of any jet factor (odd directions count 1/2), rounded up."""
    twice = [2 * g.m + g.d1 + g.d2 for g in p.generators() if isinstance(g, JetVar)]
    return (max(twice, default=0) + 1) // 2


def flow_order(flow: Flow) -> int:
    return max(differential_order(p) for p in flow.components.values())


def is_local(flow: Flow) -> bool:
    """No non-local or phantom variables appear in any component."""
    for p in flow.components.values():
        for g in p.generators():
            if isinstance(g, JetVar) and (
                isinstance(g.fieldsym, Nonlocality) or is_phantom(g.fieldsym)
            ):
                return False
    return True
