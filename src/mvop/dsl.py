"""Text DSL for weights, operators and checks.

Grammar (EBNF sketch; '#' starts a line comment, statements end at a newline,
but brackets and parentheses may span lines):

    document   := statement*
    statement  := param | weight | op | check
    param      := 'param' NAME '=' constexpr
    weight     := 'weight' NAME '=' ( family '(' kv (',' kv)* ')' ['*' matrix]
                                    | 'dsum' '(' NAME (',' NAME)* ')' )
    family     := 'hermite' | 'laguerre' | 'jacobi'
    op         := 'op' NAME '=' ['-'] opterm (('+'|'-') opterm)*
    opterm     := 'd' '^' INT ['*' opfactor] | opfactor
    opfactor   := matrix | polyterm
    matrix     := '[' row (';' row)* ']'
    row        := polyexpr (',' polyexpr)*
    polyexpr   := ['-'] polyterm (('+'|'-') polyterm)*
    polyterm   := polyfactor (('*'|'/') polyfactor)*
    polyfactor := ( INT | 'x' | NAME | '(' polyexpr ')' ) ['^' INT]
    check      := 'check' kind '(' args ')'

Division is only by subexpressions that evaluate to a nonzero constant, so
values stay polynomial. Parameter names are substituted the moment a
statement is parsed: the algebra layer never sees symbols. A scalar opterm
or opfactor means that polynomial times the identity of the operator's size.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exactalg import DomainError, MatRF, Poly, poly_str
from .diffop import DiffOp, MatPoly
from .weights import HermiteShifted, Jacobi, Laguerre, ScalarWeightFamily, Weight


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_RESERVED = {
    "param", "weight", "op", "check", "dsum", "hermite", "laguerre", "jacobi",
    "x", "d", "true", "false",
}

_FAMILIES = {"hermite", "laguerre", "jacobi"}

_CHECK_SIGS = {
    "in_algebra": ("op", "weight"),
    "symmetric": ("op", "weight"),
    "darboux": ("weight", "weight", "op", "op", "op"),
    "intertwine": ("op", "scalar", "scalar"),
    "search": ("scalar", "scalar"),
    "decompose": ("op", "scalar", "scalar"),
    "classify": ("scalar", "scalar"),
    "entry": ("name",),
}

# the largest exponent, derivative order, horizon or expression nesting a
# document may ask for (the catalog needs 8), so that no input starts
# unbounded work or exhausts the parser's stack; a power's degree is bounded
# by LIMIT and its coefficient bits by LIMIT squared
LIMIT = 64

# int options map to their (least, greatest) value, or None when unbounded
_COUNT = (0, LIMIT)
_CHECK_OPTIONS = {
    "search": {"order": _COUNT, "slack": (-LIMIT, LIMIT), "dim": None, "horizon": _COUNT},
    "classify": {"expect": "bool"},
    "intertwine": {"nmax": _COUNT},
    "in_algebra": {"nmax": _COUNT},
}


# ---------------------------------------------------------------------------
# lexer


@dataclass
class _Tok:
    kind: str  # NAME, INT, SYM, NEWLINE, EOF
    text: str
    line: int
    col: int


_SYMBOLS = set("=+-*/^()[],;")


def _lex(text: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, col = 1, 1
    depth = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "\n":
            if depth == 0 and toks and toks[-1].kind != "NEWLINE":
                toks.append(_Tok("NEWLINE", "", line, col))
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(_Tok("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(_Tok("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in _SYMBOLS:
            if ch in "([":
                depth += 1
            elif ch in ")]":
                depth = max(0, depth - 1)
            toks.append(_Tok("SYM", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(_Tok("NEWLINE", "", line, col))
    toks.append(_Tok("EOF", "", line, col))
    return toks


# ---------------------------------------------------------------------------
# document model


@dataclass
class CheckArg:
    text: str
    value: object


@dataclass
class CheckCommand:
    kind: str
    args: list[CheckArg]
    options: dict[str, object] = field(default_factory=dict)
    line: int = 0

    def label(self) -> str:
        inner = ", ".join(a.text for a in self.args)
        opts = ", ".join(f"{k}={_fmt_opt(v)}" for k, v in self.options.items())
        if opts:
            inner = f"{inner}, {opts}" if inner else opts
        return f"{self.kind}({inner})"

    def __eq__(self, other):
        if not isinstance(other, CheckCommand):
            return NotImplemented
        return (
            self.kind == other.kind
            and [a.value for a in self.args] == [a.value for a in other.args]
            and self.options == other.options
        )


def _fmt_opt(v):
    if isinstance(v, bool):
        return "true" if v else "false"
    return str(v)


@dataclass
class SpecDocument:
    params: dict[str, Fraction] = field(default_factory=dict)
    weights: dict[str, Weight] = field(default_factory=dict)
    ops: dict[str, DiffOp] = field(default_factory=dict)
    checks: list[CheckCommand] = field(default_factory=list)

    def __eq__(self, other):
        if not isinstance(other, SpecDocument):
            return NotImplemented
        return (
            self.params == other.params
            and self.weights == other.weights
            and self.ops == other.ops
            and self.checks == other.checks
        )


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, toks: list[_Tok], overrides: dict[str, Fraction] | None):
        self.toks = toks
        self.pos = 0
        self.doc = SpecDocument()
        self.overrides = dict(overrides or {})
        self.depth = 0

    # token helpers

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def err(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, tok.line, tok.col)

    def small_int(self, what, least=0, greatest=LIMIT) -> int:
        neg = bool(self.accept("SYM", "-"))
        tok = self.expect("INT")
        v = -int(tok.text) if neg else int(tok.text)
        if greatest is not None and not least <= v <= greatest:
            self.err(f"{what} {v} outside {least}..{greatest}", tok)
        return v

    def accept(self, kind, text=None):
        t = self.peek()
        if t.kind == kind and (text is None or t.text == text):
            return self.next()
        return None

    def expect(self, kind, text=None):
        t = self.accept(kind, text)
        if t is None:
            want = text or kind
            self.err(f"expected {want!r}, found {self.peek().text or self.peek().kind!r}")
        return t

    # document

    def parse(self) -> SpecDocument:
        while True:
            while self.accept("NEWLINE"):
                pass
            if self.peek().kind == "EOF":
                unknown = sorted(set(self.overrides) - set(self.doc.params))
                if unknown:
                    self.err(f"parameter override names no param statement: {', '.join(unknown)}")
                return self.doc
            head = self.expect("NAME")
            if head.text == "param":
                self.parse_param()
            elif head.text == "weight":
                self.parse_weight()
            elif head.text == "op":
                self.parse_op()
            elif head.text == "check":
                self.parse_check()
            else:
                self.err(f"unknown statement {head.text!r}", head)
            if self.peek().kind != "EOF":
                self.expect("NEWLINE")

    def fresh_name(self) -> str:
        t = self.expect("NAME")
        if t.text in _RESERVED:
            self.err(f"{t.text!r} is a reserved word", t)
        if t.text in self.doc.params or t.text in self.doc.weights or t.text in self.doc.ops:
            self.err(f"name {t.text!r} is already bound", t)
        return t.text

    def parse_param(self):
        name = self.fresh_name()
        self.expect("SYM", "=")
        value = self.const_expr()
        if name in self.overrides:
            value = self.overrides[name]
        self.doc.params[name] = value

    def parse_weight(self):
        name = self.fresh_name()
        self.expect("SYM", "=")
        self.doc.weights[name] = self.weight_expr()

    def weight_expr(self) -> Weight:
        t = self.expect("NAME")
        if t.text == "dsum":
            self.expect("SYM", "(")
            blocks = []
            while True:
                ref = self.expect("NAME")
                if ref.text not in self.doc.weights:
                    self.err(f"unbound weight {ref.text!r}", ref)
                blocks.append(self.doc.weights[ref.text])
                if not self.accept("SYM", ","):
                    break
            self.expect("SYM", ")")
            return self._guard(t, lambda: Weight.direct_sum(blocks))
        fam = self.family_call(t)
        if self.accept("SYM", "*"):
            mat = self.matrix()
            return self._guard(t, lambda: Weight.atomic(fam, mat.to_matrf()))
        return self._guard(t, lambda: fam.scalar_weight())

    def _guard(self, tok, build):
        try:
            return build()
        except DomainError as exc:
            self.err(str(exc), tok)

    def family_call(self, t: _Tok) -> ScalarWeightFamily:
        if t.text not in _FAMILIES:
            self.err(f"unknown weight family {t.text!r}", t)
        self.expect("SYM", "(")
        kv = {}
        if not self.accept("SYM", ")"):
            while True:
                key = self.expect("NAME").text
                self.expect("SYM", "=")
                kv[key] = self.const_expr()
                if not self.accept("SYM", ","):
                    break
            self.expect("SYM", ")")
        try:
            if t.text == "hermite":
                return HermiteShifted(**kv)
            if t.text == "laguerre":
                return Laguerre(**kv)
            return Jacobi(**kv)
        except TypeError:
            self.err(f"bad parameters for {t.text}: {sorted(kv)}", t)
        except DomainError as exc:
            self.err(str(exc), t)

    def parse_op(self):
        name = self.fresh_name()
        self.expect("SYM", "=")
        terms = []
        sign = -1 if self.accept("SYM", "-") else 1
        terms.append((sign, *self.op_term()))
        while True:
            if self.accept("SYM", "+"):
                terms.append((1, *self.op_term()))
            elif self.accept("SYM", "-"):
                terms.append((-1, *self.op_term()))
            else:
                break
        size = 1
        for _, _, factor in terms:
            if isinstance(factor, MatPoly):
                size = factor.size
                break
        op = DiffOp.zero(size)
        for sign, j, factor in terms:
            if isinstance(factor, Poly):
                factor = MatPoly.scalar(factor, size)
            if factor.size != size:
                self.err("matrix sizes differ between operator terms")
            coeffs = [MatPoly.zeros(size)] * j + [factor]
            term = DiffOp.from_matrices(size, [c.to_matrf() for c in coeffs])
            op = op + (term if sign > 0 else -term)
        self.doc.ops[name] = op

    def op_term(self):
        t = self.peek()
        if t.kind == "NAME" and t.text == "d":
            self.next()
            self.expect("SYM", "^")
            j = self.small_int("derivative order")
            if self.accept("SYM", "*"):
                return j, self.op_factor()
            return j, Poly((1,))
        return 0, self.op_factor()

    def op_factor(self):
        if self.peek().kind == "SYM" and self.peek().text == "[":
            return self.matrix()
        return self.poly_term()

    def matrix(self) -> MatPoly:
        start = self.expect("SYM", "[")
        rows = [[self.poly_expr()]]
        while True:
            if self.accept("SYM", ","):
                rows[-1].append(self.poly_expr())
            elif self.accept("SYM", ";"):
                rows.append([self.poly_expr()])
            else:
                break
        self.expect("SYM", "]")
        width = len(rows[0])
        if any(len(r) != width for r in rows) or width != len(rows):
            self.err("matrix must be square with equal-length rows", start)
        return MatPoly(rows)

    # polynomial expressions

    def const_expr(self) -> Fraction:
        tok = self.peek()
        p = self.poly_expr()
        if p.degree > 0:
            self.err("expected a constant expression", tok)
        return p[0]

    def poly_expr(self) -> Poly:
        sign = -1 if self.accept("SYM", "-") else 1
        acc = self.poly_term() * sign
        while True:
            if self.accept("SYM", "+"):
                acc = acc + self.poly_term()
            elif self.peek().kind == "SYM" and self.peek().text == "-":
                # minus binds as term separator only inside expressions
                self.next()
                acc = acc - self.poly_term()
            else:
                return acc

    def poly_term(self) -> Poly:
        acc = self.poly_factor()
        while True:
            if self.accept("SYM", "*"):
                acc = acc * self.poly_factor()
            elif self.peek().kind == "SYM" and self.peek().text == "/":
                tok = self.next()
                div = self.poly_factor()
                if div.degree > 0:
                    self.err("division by a non-constant expression", tok)
                if div.is_zero:
                    self.err("division by zero", tok)
                acc = acc * (1 / div[0])
            else:
                return acc

    def nested(self, parse, tok):
        # parentheses and prefix minus signs recurse; bounding their depth
        # keeps any input off the interpreter's recursion limit
        if self.depth == LIMIT:
            self.err(f"expression nested deeper than {LIMIT}", tok)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def poly_factor(self) -> Poly:
        t = self.peek()
        if t.kind == "INT":
            self.next()
            base = Poly.const(int(t.text))
        elif t.kind == "SYM" and t.text == "(":
            self.next()
            base = self.nested(self.poly_expr, t)
            self.expect("SYM", ")")
        elif t.kind == "SYM" and t.text == "-":
            self.next()
            return -self.nested(self.poly_factor, t)
        elif t.kind == "NAME":
            self.next()
            if t.text == "x":
                base = Poly((0, 1))
            elif t.text in self.doc.params:
                base = Poly.const(self.doc.params[t.text])
            else:
                self.err(f"unbound name {t.text!r}", t)
        else:
            self.err("expected a polynomial factor", t)
        hat = self.accept("SYM", "^")
        if hat:
            k = self.small_int("exponent")
            # nested powers multiply: bound the result before computing it
            if base.degree * k > LIMIT:
                self.err(f"power of degree {base.degree * k} exceeds {LIMIT}", hat)
            bits = max(
                (max(c.numerator.bit_length(), c.denominator.bit_length()) for c in base.coeffs), default=0
            )
            if bits * k > LIMIT * LIMIT:
                self.err(f"power of {bits}-bit coefficients to {k} exceeds {LIMIT * LIMIT} bits", hat)
            base = base**k
        return base

    # checks

    def parse_check(self):
        kind_tok = self.expect("NAME")
        kind = kind_tok.text
        if kind not in _CHECK_SIGS:
            self.err(f"unknown check kind {kind!r}", kind_tok)
        self.expect("SYM", "(")
        sig = _CHECK_SIGS[kind]
        args: list[CheckArg] = []
        options: dict[str, object] = {}
        allowed = _CHECK_OPTIONS.get(kind, {})
        first = True
        while not self.accept("SYM", ")"):
            if not first:
                self.expect("SYM", ",")
            first = False
            t = self.peek()
            if (
                t.kind == "NAME"
                and self.toks[self.pos + 1].kind == "SYM"
                and self.toks[self.pos + 1].text == "="
                and t.text in allowed
            ):
                self.next()
                self.next()
                options[t.text] = self.option_value(t.text, allowed[t.text])
                continue
            if len(args) >= len(sig):
                self.err(f"too many arguments for {kind}", t)
            args.append(self.check_arg(sig[len(args)]))
        if len(args) != len(sig):
            self.err(f"{kind} expects {len(sig)} arguments, got {len(args)}", kind_tok)
        if kind == "search" and "order" not in options:
            self.err("search requires an order=... option", kind_tok)
        self.doc.checks.append(CheckCommand(kind, args, options, kind_tok.line))

    def option_value(self, name, typ):
        if typ == "bool":
            tok = self.expect("NAME")
            if tok.text not in ("true", "false"):
                self.err("expected true or false", tok)
            return tok.text == "true"
        return self.small_int(name, *(typ or (None, None)))

    def check_arg(self, want: str) -> CheckArg:
        t = self.peek()
        if want == "name":
            tok = self.expect("NAME")
            return CheckArg(tok.text, tok.text)
        if t.kind == "NAME" and t.text in _FAMILIES:
            tok = self.next()
            fam = self.family_call(tok)
            if want == "op":
                self.err("expected an operator, found a weight", tok)
            return CheckArg(_family_text(fam), fam)
        tok = self.expect("NAME")
        name = tok.text
        if want == "op":
            if name not in self.doc.ops:
                self.err(f"unbound operator {name!r}", tok)
            return CheckArg(name, self.doc.ops[name])
        if name not in self.doc.weights:
            self.err(f"unbound weight {name!r}", tok)
        w = self.doc.weights[name]
        if want == "scalar":
            try:
                return CheckArg(name, w.scalar_family())
            except DomainError:
                self.err(f"weight {name!r} is not a plain scalar weight", tok)
        return CheckArg(name, w)


def parse_spec(text: str, param_overrides: dict[str, Fraction] | None = None) -> SpecDocument:
    """Parse a DSL document; ``param_overrides`` shadow param statements, and
    an override that names no param statement is a ParseError."""
    return _Parser(_lex(text), param_overrides).parse()


# ---------------------------------------------------------------------------
# printing


def _frac_text(v: Fraction) -> str:
    return str(v)


def _family_text(f: ScalarWeightFamily) -> str:
    if isinstance(f, HermiteShifted):
        return f"hermite(b={_frac_text(f.b)})"
    if isinstance(f, Laguerre):
        return f"laguerre(alpha={_frac_text(f.alpha)})"
    return f"jacobi(alpha={_frac_text(f.alpha)}, beta={_frac_text(f.beta)})"


def matrix_text(m) -> str:
    if isinstance(m, MatRF):
        m = MatPoly(m.poly_rows())
    return "[" + "; ".join(", ".join(poly_str(e) for e in row) for row in m.rows) + "]"


def op_str(d: DiffOp) -> str:
    """Canonical matrix-form text of an operator, parseable by the DSL."""
    if d.is_zero:
        return matrix_text(MatPoly.zeros(d.size))
    parts = []
    for j in range(d.order, -1, -1):
        c = d.coeff(j)
        if c.is_zero:
            continue
        body = matrix_text(c)
        parts.append(body if j == 0 else f"d^{j}*{body}")
    return " + ".join(parts)


def op_scalar_str(d: DiffOp) -> str:
    """Compact text for 1x1 operators, like 'd^1 - 1'."""
    if d.size != 1:
        return op_str(d)
    if d.is_zero:
        return "0"
    parts = []
    for j in range(d.order, -1, -1):
        e = d.coeff(j).entry(0, 0)
        if e.is_zero:
            continue
        p = e.as_poly()
        if j == 0:
            body = poly_str(p) if p.degree < 1 or len([c for c in p.coeffs if c]) == 1 else f"({poly_str(p)})"
        elif p == Poly((1,)):
            body = f"d^{j}"
        else:
            inner = poly_str(p)
            if p.degree >= 1 or (p.degree == 0 and p[0] < 0):
                inner = f"({inner})"
            body = f"d^{j}*{inner}"
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(f" - {body[1:]}")
        else:
            parts.append(f" + {body}")
    return "".join(parts)


def weight_text(w: Weight, block_names=None) -> str:
    if w.is_atomic:
        fam = _family_text(w.family)
        if w.size == 1 and w.M == MatRF.identity(1):
            return fam
        return f"{fam} * {matrix_text(w.M)}"
    if block_names is None:
        raise DomainError("direct sums print through previously named blocks")
    refs = []
    for b in w.blocks:
        name = block_names.get(b)
        if name is None:
            raise DomainError("direct sum block was not declared as a named weight")
        refs.append(name)
    return "dsum(" + ", ".join(refs) + ")"


def print_document(doc: SpecDocument) -> str:
    lines = []
    for k, v in doc.params.items():
        lines.append(f"param {k} = {_frac_text(v)}")
    if doc.params:
        lines.append("")
    block_names: dict[Weight, str] = {}
    for k, w in doc.weights.items():
        lines.append(f"weight {k} = {weight_text(w, block_names=block_names)}")
        block_names[w] = k
    if doc.weights:
        lines.append("")
    for k, d in doc.ops.items():
        lines.append(f"op {k} = {op_str(d)}")
    if doc.ops:
        lines.append("")
    for c in doc.checks:
        lines.append(f"check {c.label()}")
    return "\n".join(lines).rstrip() + "\n"
