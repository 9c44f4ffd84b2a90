"""Expression and document grammar: parser and canonical printer.

Documents consist of declarations followed by equations and named
objects, e.g.::

    field f odd susy 1 weight 1/2;
    field b even susy 1 weight 1/2;
    f_t = D(b);
    b_t = b^2 + D(f);
    nonlocal w even weight 0: D(w) = -1*f, w_t = -1*b;
    shadow R: f = F_x - Df*F + f_x*W, b = B_x - Df*B + b_x*W;

Expressions use ``+ - * ^``, rationals ``p/q``, derivative calls
``D(..) D1(..) D2(..) Dx(..)``, fused derivative prefixes (``Df_x``)
and the suffix sugar ``f_x``, ``f_xx``.  The canonical printer emits
the normal form; parsing it back reproduces the object exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional

from .algebra import (
    D1,
    D2,
    DT,
    DX,
    EVEN,
    ODD,
    Clifford,
    FieldSymbol,
    JetVar,
    SuperPoly,
    Theta,
    poly_sum,
    term_order_key,
)
from .coverings import Covering, linearize
from .jets import (
    EvolutionSystem,
    Flow,
    Nonlocality,
    declare,
    jet_poly,
    prolong,
    super_derive,
)
from .recursion import Shadow
from .weights import WeightSystem

Q = Fraction


class SyntaxErrorWithPos(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class UndeclaredSymbolError(SyntaxErrorWithPos):
    pass


# ---------------------------------------------------------------------------
# lexer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<name>[A-Za-z][A-Za-z0-9_]*'*)
  | (?P<int>\d+)
  | (?P<op>[-+*^/()=:;,])
    """,
    re.VERBOSE,
)


class Token:
    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind  # "name", "int", "op", "end"
        self.text = text
        self.line = line
        self.col = col


def tokenize(text: str):
    out = []
    pos = 0
    line = 1
    linestart = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise SyntaxErrorWithPos(
                f"unexpected character {text[pos]!r}", line, pos - linestart + 1
            )
        kind = m.lastgroup
        tok = m.group()
        if kind != "ws":
            out.append(Token(kind, tok, line, pos - linestart + 1))
        nl = tok.count("\n")
        if nl:
            line += nl
            linestart = pos + tok.rindex("\n") + 1
        pos = m.end()
    out.append(Token("end", "", line, len(text) - linestart + 1))
    return out


# ---------------------------------------------------------------------------
# scopes

DERIV_WORDS = {"D": D1, "D1": D1, "D2": D2, "Dx": DX}


class Scope:
    """Name resolution context for expression parsing."""

    def __init__(self, symbols: dict, params: set, cliffords: dict, functions: dict):
        self.symbols = symbols  # name -> field-like symbol
        self.params = params
        self.cliffords = cliffords
        self.functions = functions  # name -> argument symbol

    def child(self):
        return Scope(
            dict(self.symbols), set(self.params), dict(self.cliffords), dict(self.functions)
        )

    def resolve(self, name: str) -> Optional[SuperPoly]:
        """The polynomial value of an identifier, or None if unknown."""
        if name in self.params:
            return SuperPoly.param(name)
        if name in self.cliffords:
            return SuperPoly.from_gen(self.cliffords[name])
        if name in self.symbols:
            return jet_poly(self.symbols[name])
        if name == "theta":
            return SuperPoly.from_gen(Theta(1))
        if name in ("theta1", "theta2"):
            return SuperPoly.from_gen(Theta(int(name[-1])))
        # suffix sugar: trailing _x..x
        m = 0
        base = name
        if "_" in name:
            stem, _, suffix = name.rpartition("_")
            if suffix and set(suffix) == {"x"}:
                base, m = stem, len(suffix)
            else:
                return None
        p = self._resolve_jet(base)
        return None if p is None else prolong(p, m=m)

    def _resolve_jet(self, base: str) -> Optional[SuperPoly]:
        if base in self.symbols:
            return jet_poly(self.symbols[base])
        for word in ("D1", "D2", "Dx"):
            if base.startswith(word):
                inner = self._resolve_jet(base[len(word) :])
                if inner is not None:
                    return super_derive(inner, DERIV_WORDS[word])
        if base.startswith("D"):
            inner = self._resolve_jet(base[1:])
            if inner is not None:
                return super_derive(inner, D1)
        return None


# ---------------------------------------------------------------------------
# expression parser

class _Parser:
    def __init__(self, tokens, scope: Scope):
        self.toks = tokens
        self.i = 0
        self.scope = scope

    @property
    def cur(self) -> Token:
        return self.toks[self.i]

    def error(self, msg):
        t = self.cur
        raise SyntaxErrorWithPos(msg, t.line, t.col)

    def undeclared(self, name):
        t = self.cur
        raise UndeclaredSymbolError(f"undeclared symbol {name!r}", t.line, t.col)

    def advance(self) -> Token:
        t = self.cur
        self.i += 1
        return t

    def at(self, kind, text=None) -> bool:
        t = self.cur
        return t.kind == kind and (text is None or t.text == text)

    def accept(self, kind, text=None) -> Optional[Token]:
        if self.at(kind, text):
            return self.advance()
        return None

    def expect(self, kind, text=None) -> Token:
        if not self.at(kind, text):
            self.error(f"expected {text or kind}, got {self.cur.text!r}")
        return self.advance()

    # expression grammar ----------------------------------------------------

    def expression(self) -> SuperPoly:
        terms = [self.term()]
        while self.at("op", "+") or self.at("op", "-"):
            op = self.advance().text
            q = self.term()
            terms.append(q if op == "+" else -q)
        return poly_sum(terms)

    def term(self) -> SuperPoly:
        p = self.unary()
        while self.accept("op", "*"):
            p = p * self.unary()
        return p

    def unary(self) -> SuperPoly:
        if self.accept("op", "-"):
            return -self.unary()
        return self.power()

    def power(self) -> SuperPoly:
        p = self.atom()
        if self.accept("op", "^"):
            neg = bool(self.accept("op", "-"))
            n = int(self.expect("int").text)
            if neg:
                # negative powers exist only for parameters
                keys = list(p.terms)
                if len(keys) != 1:
                    self.error("negative power of a non-parameter expression")
                evens, odds, funcs, params = keys[0]
                if evens or odds or funcs or len(params) != 1 or p.terms[keys[0]] != 1:
                    self.error("negative power of a non-parameter expression")
                return SuperPoly.param(params[0][0], -n * params[0][1])
            return p**n
        return p

    def atom(self) -> SuperPoly:
        if self.at("int"):
            return SuperPoly.scalar(self.number())
        if self.accept("op", "("):
            p = self.expression()
            self.expect("op", ")")
            return p
        if self.at("name"):
            name = self.advance().text
            if name.rstrip("'") in self.scope.functions and "(" == self.cur.text:
                return self.function_call(name)
            if name in DERIV_WORDS and self.at("op", "("):
                self.advance()
                inner = self.expression()
                self.expect("op", ")")
                return super_derive(inner, DERIV_WORDS[name])
            p = self.scope.resolve(name)
            if p is None:
                self.i -= 1
                self.undeclared(name)
            return p
        self.error(f"expected an expression, got {self.cur.text!r}")

    def function_call(self, name) -> SuperPoly:
        stem = name.rstrip("'")
        order = len(name) - len(stem)
        self.expect("op", "(")
        argname = self.expect("name").text
        self.expect("op", ")")
        sym = self.scope.symbols.get(argname)
        if sym is None or sym is not self.scope.functions[stem]:
            self.error(f"function {stem} expects argument {self.scope.functions[stem].name}")
        return SuperPoly.func(stem, order, JetVar(sym))

    def number(self) -> Fraction:
        num = int(self.expect("int").text)
        if self.at("op", "/") and self.toks[self.i + 1].kind == "int":
            self.advance()
            if not int(self.cur.text):
                self.error("zero denominator")
            return Q(num, int(self.advance().text))
        return Q(num)


def parse_expression(text: str, scope: Scope) -> SuperPoly:
    p = _Parser(tokenize(text), scope)
    e = p.expression()
    p.expect("end")
    return e


# ---------------------------------------------------------------------------
# documents

class SourceDocument:
    """Declarations, equations and named objects of one input file."""

    def __init__(self, name: str = ""):
        self.scope = Scope({}, set(), {}, {})
        self.fields = {}  # name -> FieldSymbol
        self.param_weights = {}  # name -> weight or None
        self.nonlocals = {}  # name -> Nonlocality
        self.field_weights = {}  # FieldSymbol -> weight
        self.equations = {}  # FieldSymbol -> SuperPoly
        self.flows = {}  # name -> Flow
        self.shadows = {}  # name -> Shadow
        self.functionals = {}  # name -> SuperPoly
        self.t_weight = None  # Fraction or None
        self.name = name

    # assembled objects -----------------------------------------------------

    def system(self) -> EvolutionSystem:
        fields = tuple(u for u in self.fields.values() if u in self.equations)
        return EvolutionSystem(
            fields,
            {u: self.equations[u] for u in fields},
            params=tuple(self.param_weights),
            name=self.name,
        )

    def weight_system(self) -> WeightSystem:
        params = {n: w for n, w in self.param_weights.items() if w is not None}
        return WeightSystem(dict(self.field_weights), params, self.t_weight)

    def covering(self, names=None) -> Covering:
        if names is None:
            nl = tuple(self.nonlocals.values())
        else:
            nl = tuple(self.nonlocals[n] for n in names)
        return Covering(self.system(), nl, name=self.name)

    def poly(self, text: str) -> SuperPoly:
        return parse_expression(text, self.scope)


def parse_document(text: str, name: str = "") -> SourceDocument:
    """The document's declarations and objects.  A statement that does not
    hold together (a parity that does not match, a repeated name) is a
    parse error at its first token."""
    doc = SourceDocument(name=name)
    p = _Parser(tokenize(text), doc.scope)
    while not p.at("end"):
        start = p.cur
        try:
            _statement(p, doc)
        except SyntaxErrorWithPos:
            raise
        except ValueError as exc:  # ParityError among them
            raise SyntaxErrorWithPos(str(exc), start.line, start.col) from None
    return doc


def _symbol_header(p: _Parser) -> tuple:
    """The name, parity, ``susy n`` (default 1) and optional weight that
    open a field or non-local declaration."""
    name = p.expect("name").text
    parity = _parity_word(p)
    n_susy = int(p.expect("int").text) if p.accept("name", "susy") else 1
    return name, parity, n_susy, _opt_weight(p)


def _parity_word(p: _Parser) -> int:
    w = p.expect("name").text
    if w == "odd":
        return ODD
    if w == "even":
        return EVEN
    p.error(f"expected 'odd' or 'even', got {w!r}")


def _opt_weight(p: _Parser) -> Optional[Fraction]:
    if p.at("name", "weight"):
        p.advance()
        neg = bool(p.accept("op", "-"))
        v = p.number()
        return -v if neg else v
    return None


def _register(doc: SourceDocument, name: str, sym=None, fn_of=None) -> None:
    """Declare a symbol, a Clifford auxiliary, a function of the field
    ``fn_of`` or, with ``sym`` and ``fn_of`` None, a parameter.  ``t``
    names the time variable and cannot be declared."""
    scope = doc.scope
    if any(name in t for t in (scope.symbols, scope.params, scope.cliffords, scope.functions)):
        raise ValueError(f"duplicate declaration of {name!r}")
    if name == "t":
        raise ValueError("'t' is reserved for the time variable")
    if fn_of is not None:
        scope.functions[name] = fn_of
    elif sym is None:
        scope.params.add(name)
    elif isinstance(sym, Clifford):
        scope.cliffords[name] = sym
    else:
        scope.symbols[name] = sym


def _statement(p: _Parser, doc: SourceDocument) -> None:
    t = p.expect("name")
    head = t.text
    if head == "field":
        name, parity, n_susy, w = _symbol_header(p)
        p.expect("op", ";")
        sym = FieldSymbol(name, parity, n_susy)
        _register(doc, name, sym)
        doc.fields[name] = sym
        if w is not None:
            doc.field_weights[sym] = w
    elif head == "param":
        name = p.expect("name").text
        w = _opt_weight(p)
        p.expect("op", ";")
        _register(doc, name)
        doc.param_weights[name] = w
    elif head == "aux":
        name = p.expect("name").text
        p.expect("name", "clifford")
        sq = p.expression()
        p.expect("op", ";")
        keys = list(sq.terms)
        if len(keys) != 1 or keys[0][0] or keys[0][1] or keys[0][2]:
            p.error("clifford square must be a rational multiple of a parameter monomial")
        cl = Clifford(name, (sq.terms[keys[0]], keys[0][3]))
        _register(doc, name, cl)
    elif head == "fn":
        name = p.expect("name").text
        p.expect("name", "of")
        arg = p.expect("name").text
        p.expect("op", ";")
        if arg not in doc.fields:
            p.error(f"function argument {arg!r} is not a declared field")
        _register(doc, name, fn_of=doc.fields[arg])
    elif head == "nonlocal":
        _nonlocal_statement(p, doc)
    elif head == "time":
        w = _opt_weight(p)
        if w is None:
            p.error("expected 'weight'")
        p.expect("op", ";")
        doc.t_weight = w
    elif head == "flow":
        _flow_statement(p, doc)
    elif head == "shadow":
        _shadow_statement(p, doc)
    elif head == "functional":
        name = p.expect("name").text
        p.expect("op", ":")
        e = p.expression()
        p.expect("op", ";")
        doc.functionals[name] = e
    elif head.endswith("_t") and head[:-2] in doc.fields:
        sym = doc.fields[head[:-2]]
        p.expect("op", "=")
        rhs = p.expression()
        p.expect("op", ";")
        EvolutionSystem((sym,), {sym: rhs})  # checks the parity of the right-hand side
        doc.equations[sym] = rhs
    else:
        p.i -= 1
        p.error(f"unknown statement {head!r}")


def _nonlocal_statement(p: _Parser, doc: SourceDocument) -> None:
    name, parity, n_susy, w = _symbol_header(p)
    p.expect("op", ":")
    sym = Nonlocality(name, parity, n_susy, weight=w, defs={})
    _register(doc, name, sym)
    doc.nonlocals[name] = sym
    while True:
        t = p.expect("name").text
        if t in DERIV_WORDS:
            p.expect("op", "(")
            inner = p.expect("name").text
            p.expect("op", ")")
            if inner != name:
                p.error(f"expected a derivative of {name!r}")
            direction = DERIV_WORDS[t]
        elif t == f"{name}_t":
            direction = DT
        elif t == f"{name}_x":
            direction = DX
        else:
            p.error(f"expected a derivative of {name!r}")
        p.expect("op", "=")
        declare(sym, direction, p.expression())
        if not p.accept("op", ","):
            break
    p.expect("op", ";")


def _components(p: _Parser, doc: SourceDocument, scope: Scope) -> dict:
    comps = {}
    while True:
        fname = p.expect("name").text
        if fname not in doc.fields:
            p.error(f"{fname!r} is not a declared field")
        p.expect("op", "=")
        sub = _Parser(p.toks, scope)
        sub.i = p.i
        comps[doc.fields[fname]] = sub.expression()
        p.i = sub.i
        if not p.accept("op", ","):
            break
    p.expect("op", ";")
    return comps


def _flow_statement(p: _Parser, doc: SourceDocument) -> None:
    name = p.expect("name").text
    parity = ODD if p.accept("name", "odd") else EVEN
    p.expect("op", ":")
    comps = _components(p, doc, doc.scope)
    for u in doc.fields.values():
        comps.setdefault(u, SuperPoly.zero())
    doc.flows[name] = Flow(comps, parity, name=name)


def _shadow_statement(p: _Parser, doc: SourceDocument) -> None:
    name = p.expect("name").text
    parity = ODD if p.accept("name", "odd") else EVEN
    using = None
    if p.accept("name", "using"):
        using = []
        while p.at("name") and p.cur.text in doc.nonlocals:
            using.append(p.advance().text)
            if not p.accept("op", ","):
                break
    p.expect("op", ":")
    frame = linearize(doc.covering(using))
    scope = doc.scope.child()
    for u, U in frame.phantoms.items():
        scope.symbols[U.name] = U
    for w, W in frame.phantom_nonlocals.items():
        scope.symbols[W.name] = W
    comps = _components(p, doc, scope)
    for u in frame.base.fields:
        comps.setdefault(u, SuperPoly.zero())
    doc.shadows[name] = Shadow(frame, comps, parity, name=name)


# ---------------------------------------------------------------------------
# canonical printer

def _gen_name(g) -> str:
    if isinstance(g, Theta):
        return f"theta{g.index}"
    if isinstance(g, Clifford):
        return g.name
    if isinstance(g, JetVar):
        sym = g.fieldsym
        if sym.n_susy >= 2:
            prefix = ("D1" if g.d1 else "") + ("D2" if g.d2 else "")
        else:
            prefix = "D" if g.d1 else ""
        suffix = "_" + "x" * g.m if g.m else ""
        return prefix + sym.name + suffix
    raise TypeError(f"cannot print generator {g!r}")


def _factor_strings(key) -> list:
    evens, odds, funcs, params = key
    out = []
    for n, e in params:
        out.append(n if e == 1 else f"{n}^{e}")
    for g, x in evens:
        nm = _gen_name(g)
        out.append(nm if x == 1 else f"{nm}^{x}")
    for n, k, arg in funcs:
        out.append(n + "'" * k + "(" + _gen_name(arg) + ")")
    for g in odds:
        out.append(_gen_name(g))
    return out


def print_poly(p: SuperPoly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for key in sorted(p.terms, key=term_order_key):
        c = p.terms[key]
        factors = _factor_strings(key)
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"{'+' if c > 0 else '-'} {body}")
    return " ".join(parts)


def print_flow(flow) -> str:
    """The components of a flow or a shadow, in the order of the field names."""
    comps = flow.components
    return ", ".join(f"{u.name} = {print_poly(comps[u])}"
                     for u in sorted(comps, key=lambda u: u.name))
