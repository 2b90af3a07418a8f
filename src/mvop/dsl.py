"""Text DSL for weights, operators and checks.

Grammar (EBNF sketch; '#' starts a line comment, statements end at a newline,
but brackets and parentheses may span lines):

    document   := statement*
    statement  := param | weight | op | check
    param      := 'param' NAME '=' expr                        (a constant)
    weight     := 'weight' NAME '=' ( family '(' kv (',' kv)* ')' ['*' matrix]
                                    | 'dsum' '(' NAME (',' NAME)* ')' )
    family     := 'hermite' | 'laguerre' | 'jacobi'
    kv         := NAME '=' expr                                (a constant)
    op         := 'op' NAME '=' expr
    expr       := ['-'] term (('+'|'-') term)*
    term       := factor (('*'|'/') factor)*
    factor     := '-' factor | atom ['^' INT]
    atom       := INT | 'x' | NAME | 'd' '^' INT | 'delta' '(' scalar ')'
                | matrix | '(' expr ')'
    matrix     := '[' row (';' row)* ']'
    row        := expr (',' expr)*                             (polynomials)
    scalar     := NAME | family '(' kv (',' kv)* ')'
    check      := 'check' kind '(' args ')'

An expression's value is a polynomial or an operator. A NAME is a param (a
constant) or an earlier op; ``d^j`` is the j-th derivative, a matrix is
multiplication by it, and ``delta(w)`` is the classical second-order operator
of a plain scalar weight, named or written inline. ``+`` and ``-`` add,
``*`` composes with the left factor applied first (as ``diffop.compose``, so
``d^j*F`` puts F at d^j), and ``^k`` is a power. A 1x1 operator or polynomial
inside an N x N expression acts as itself times the identity. Division is
only by subexpressions that evaluate to a nonzero constant, so coefficients
stay polynomial. Parameter names are substituted the moment a statement is
parsed: the algebra layer never sees symbols.
"""

from __future__ import annotations

import math
import re
import string
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import NamedTuple

from .exactalg import DomainError, NonPolynomialError, Poly, X, int_form, poly_str
from .diffop import DiffOp, MatPoly, compose, op_power
from .weights import HermiteShifted, Jacobi, Laguerre, ScalarWeightFamily, Weight
from .dwalgebra import _search_horizon


class ParseError(ValueError):
    def __init__(self, message, line, col):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


_RESERVED = {
    "param", "weight", "op", "check", "dsum", "hermite", "laguerre", "jacobi",
    "x", "d", "delta", "true", "false",
}

_FAMILIES = {"hermite": HermiteShifted, "laguerre": Laguerre, "jacobi": Jacobi}
_FAMILY_NAMES = {c: name for name, c in _FAMILIES.items()}

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

# the largest exponent, derivative order, horizon, search order or
# expression nesting a document may ask for (the catalog needs 8), so that
# no input starts unbounded work or exhausts the parser's stack; a product's
# or power's order and coefficient degree are bounded by LIMIT and its
# coefficient bits by LIMIT squared
LIMIT = 64

# int options map to their (least, greatest) value, or None when unbounded
_COUNT = (0, LIMIT)
_CHECK_OPTIONS = {
    "search": {"order": _COUNT, "dim": None, "horizon": _COUNT},
    "classify": {"expect": "bool"},
    "intertwine": {"nmax": _COUNT},
    "in_algebra": {"nmax": _COUNT},
}


# ---------------------------------------------------------------------------
# lexer


class _Tok(NamedTuple):
    kind: str  # NAME, INT, SYM, NEWLINE, EOF
    text: str
    line: int
    col: int


# the text splits into pieces that cover it: a newline, with the comment
# before it on its line if any; a comment that ends the text; a run of
# blanks; an integer; a name; or any one other character. A piece's first
# character gives its kind: "\n" for a newline or a comment, None for a
# character no token starts with. ASCII only: str.isdigit and str.isalpha
# also accept other scripts' digits and letters, and superscripts, which
# int() then reads or refuses
_PIECES = re.compile(r"(?:#[^\n]*)?\n|#[^\n]*|[ \t\r]+|[0-9]+|[A-Za-z_][A-Za-z0-9_]*|.")
_KINDS = {
    **dict.fromkeys("=+-*/^()[],;", "SYM"),
    **dict.fromkeys(string.ascii_letters + "_", "NAME"),
    **dict.fromkeys(string.digits, "INT"),
    **dict.fromkeys(" \t\r", " "),
    "#": "\n",
    "\n": "\n",
}
_new = tuple.__new__  # a _Tok from its fields, without NamedTuple's Python-level __new__
# decimal digits of 2^(LIMIT^2), the most a literal within the bit bound has
_MAX_DIGITS = len(str(1 << LIMIT * LIMIT))


def _lex(text: str) -> list[_Tok]:
    """The tokens of ``text``, then NEWLINE and EOF. A newline outside
    brackets ends a statement (one NEWLINE for a run of them). Line and
    column count characters from 1; a comment takes no column, so a NEWLINE
    after one stands where it starts."""
    toks: list[_Tok] = []
    line, col, depth = 1, 1, 0
    for s in _PIECES.findall(text):
        kind = _KINDS.get(s[0])
        if kind == "NAME":
            toks.append(_new(_Tok, ("NAME", s, line, col)))
        elif kind == "SYM":
            if s in "([":
                depth += 1
            elif s in ")]":
                depth = max(0, depth - 1)
            toks.append(_new(_Tok, ("SYM", s, line, col)))
        elif kind == "INT":
            digits = s.lstrip("0") or "0"
            if len(digits) > _MAX_DIGITS or int(digits) >> LIMIT * LIMIT:
                raise ParseError(f"integer literal exceeds {LIMIT * LIMIT} bits", line, col)
            toks.append(_new(_Tok, ("INT", digits, line, col)))
        elif kind == "\n":
            if s[-1] == "\n":
                if depth == 0 and toks and toks[-1].kind != "NEWLINE":
                    toks.append(_new(_Tok, ("NEWLINE", "", line, col)))
                line, col = line + 1, 1
            continue
        elif kind is None:
            raise ParseError(f"unexpected character {s!r}", line, col)
        col += len(s)
    toks.append(_new(_Tok, ("NEWLINE", "", line, col)))
    toks.append(_new(_Tok, ("EOF", "", line, col)))
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
# expression values


_ONE = MatPoly.identity(1)


def _as_op(v) -> DiffOp:
    """A polynomial or constant as an operator: multiplication by it."""
    return v if isinstance(v, DiffOp) else DiffOp.scalar([_as_poly(v)])


def _as_poly(v):
    """A constant as a polynomial; any other value as it is."""
    if isinstance(v, Fraction):
        return Poly((v,))
    return v


def _const(v) -> Fraction | None:
    """The value of a constant or of a polynomial of degree <= 0, else None."""
    c = v[0] if isinstance(v, Poly) and v.degree <= 0 else v
    return c if isinstance(c, Fraction) else None


def _lift(op: DiffOp, n: int) -> DiffOp:
    """A 1x1 operator times the identity of size n."""
    return DiffOp(n, [MatPoly.scalar(c.entry(0, 0), n) for c in op.coeffs], op.den)


def _const_bits(c: Fraction) -> int:
    """The larger bit length of c's numerator and denominator, 0 for 0."""
    return (abs(c.numerator) | c.denominator).bit_length() if c else 0


def _poly_bits(p: Poly) -> int:
    """The largest ``_const_bits`` of p's coefficients, read off its integer
    form: n / den in lowest terms is (n / g) / (den / g), g = gcd(n, den)."""
    ints, den, bits = int_form(p)
    if den == 1:
        return bits
    return max(((abs(n) // (g := math.gcd(n, den))) | (den // g)).bit_length() for n in ints if n)


def _measure(v) -> tuple[int, int, int]:
    """Order, coefficient degree and coefficient bit length of a polynomial
    or an operator."""
    if isinstance(v, Poly):
        return 0, v.degree, _poly_bits(v)
    cells = [e for m in v.coeffs for row in m.rows for e in row]  # values are polynomial
    return v.order, max((p.degree for p in cells), default=-1), max(map(_poly_bits, cells), default=0)


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, toks: list[_Tok], overrides: dict[str, Fraction] | None):
        self.toks = toks
        self.pos = 0
        self.doc = SpecDocument()
        self.overrides = dict(overrides or {})
        self.depth = 0
        # by id, _measure of x, of each op and of each power of a name, None
        # until taken: the document or ``powers`` keeps them, so an id stays
        # theirs. Any other value is new and is measured once, where it is used
        self.named = {id(X): None}
        # (name, k): the k-th power of x, a param or an op, computed once
        self.powers = {}

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
        t = self.toks[self.pos]
        if t.kind == kind and (text is None or t.text == text):
            self.pos += 1
            return t
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
        self.doc.params[name] = self.overrides.get(name, value)

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
            return self._guard(t, lambda: Weight.atomic(fam, mat))
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
                key = self.expect("NAME")
                if key.text in kv:
                    self.err(f"repeated parameter {key.text!r}", key)
                self.expect("SYM", "=")
                kv[key.text] = self.const_expr()
                if not self.accept("SYM", ","):
                    break
            self.expect("SYM", ")")
        try:
            return _FAMILIES[t.text](**kv)
        except TypeError:
            self.err(f"bad parameters for {t.text}: {sorted(kv)}", t)
        except DomainError as exc:
            self.err(str(exc), t)

    def parse_op(self):
        name = self.fresh_name()
        self.expect("SYM", "=")
        op = self.doc.ops[name] = _as_op(self.expr())
        self.named[id(op)] = None

    def matrix(self) -> MatPoly:
        toks, start = self.toks, self.expect("SYM", "[")
        rows = [[]]
        while True:
            rows[-1].append(self.polynomial())
            sep = toks[self.pos].text
            if sep == ";":
                rows.append([])
            elif sep != ",":
                break
            self.pos += 1
        self.expect("SYM", "]")
        width = len(rows[0])
        if any(len(r) != width for r in rows) or width != len(rows):
            self.err("matrix must be square with equal-length rows", start)
        return MatPoly._of(rows)

    # expressions: a value is a constant (Fraction), a Poly or a DiffOp. The
    # evaluator reads the tokens directly and takes one path per kind

    def const_expr(self) -> Fraction:
        tok = self.toks[self.pos]
        c = _const(self.expr())
        if c is None:
            self.err("expected a constant expression", tok)
        return c

    def polynomial(self) -> Poly:
        tok = self.toks[self.pos]
        p = _as_poly(self.expr())
        if not isinstance(p, Poly):
            self.err("a matrix entry must be a polynomial, not an operator", tok)
        return p

    def expr(self):
        toks = self.toks
        neg = toks[self.pos].text == "-"
        if neg:
            self.pos += 1
        acc = self.term()
        if neg:
            acc = -acc
        while (tok := toks[self.pos]).text in ("+", "-"):
            self.pos += 1
            rhs = self.term()
            if isinstance(acc, DiffOp) or isinstance(rhs, DiffOp):
                acc, rhs = self.same_size(acc, rhs, tok)
            acc = acc + rhs if tok.text == "+" else acc - rhs
        return acc

    def term(self):
        toks = self.toks
        acc = self.factor()
        while (tok := toks[self.pos]).text in ("*", "/"):
            self.pos += 1
            rhs = self.factor()
            if tok.text == "/":
                if (rhs := _const(rhs)) is None:
                    self.err("division by a non-constant expression", tok)
                if not rhs:
                    self.err("division by zero", tok)
                rhs = 1 / rhs
            acc = self.product(acc, rhs, tok)
        return acc

    def nested(self, parse, tok):
        # parentheses, brackets, delta(...) and prefix minus signs recurse;
        # bounding their depth keeps any input off the interpreter's
        # recursion limit
        if self.depth == LIMIT:
            self.err(f"expression nested deeper than {LIMIT}", tok)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def factor(self):
        t = self.toks[self.pos]
        if t.text == "-":
            self.pos += 1
            return -self.nested(self.factor, t)
        base = self.atom()
        hat = self.toks[self.pos]
        if hat.text != "^":
            return base
        self.pos += 1
        k = self.small_int("exponent")
        # a name is bound once, so a power of x, a param or an op is kept
        key = (t.text, k) if t.kind == "NAME" and t.text not in ("d", "delta") else None
        if key in self.powers:
            return self.powers[key]
        o, d, b = self.measure(base)
        self.bound(hat, "power", o * k, d * k, b * k, "{}-bit coefficients to {}", b, k)
        value = op_power(base, k) if isinstance(base, DiffOp) else base**k
        if key:
            self.powers[key] = value
            self.named.setdefault(id(value), None)
        return value

    def atom(self):
        t = self.toks[self.pos]
        if t.text == "[":
            m = self.nested(self.matrix, t)
            return DiffOp(m.size, [m])
        self.pos += 1
        if t.kind == "INT":
            return Fraction(int(t.text))
        if t.text == "(":
            value = self.nested(self.expr, t)
            self.expect("SYM", ")")
            return value
        if t.kind != "NAME":
            self.err("expected an expression", t)
        if (value := self.doc.params.get(t.text)) is not None:
            return value
        if t.text == "x":
            return X
        if t.text == "d":
            self.expect("SYM", "^")
            j = self.small_int("derivative order")
            return DiffOp.scalar([Poly()] * j + [Poly((1,))])
        if t.text == "delta":
            self.expect("SYM", "(")
            _, fam = self.nested(self.scalar_weight, t)
            self.expect("SYM", ")")
            return fam.delta()
        if t.text in self.doc.ops:
            return self.doc.ops[t.text]
        if t.text in self.doc.weights:
            self.err(f"weight {t.text!r} is not an operator; delta({t.text}) is its classical operator", t)
        self.err(f"unbound name {t.text!r}", t)

    def measure(self, v) -> tuple[int, int, int]:
        """Order, coefficient degree and coefficient bit length of a value:
        ``_measure``'s, taken once per parse for a named value."""
        if type(v) is Fraction:
            return 0, 0 if v else -1, _const_bits(v)
        m = self.named.get(id(v))
        if m is None:
            m = _measure(v)
            if id(v) in self.named:
                self.named[id(v)] = m
        return m

    def bound(self, tok, what, order, degree, bits, bits_text, *args):
        # products and powers add or multiply orders, degrees and coefficient
        # sizes: bound the result before computing it
        if order > LIMIT:
            self.err(f"{what} of order {order} exceeds {LIMIT}", tok)
        if degree > LIMIT:
            self.err(f"{what} of degree {degree} exceeds {LIMIT}", tok)
        if bits > LIMIT * LIMIT:
            self.err(f"{what} of {bits_text.format(*args)} exceeds {LIMIT * LIMIT} bits", tok)

    def product(self, a, b, tok):
        """a * b: apply a, then b. Two constants or polynomials multiply as
        values; an operator operand composes."""
        (oa, da, ba), (ob, db, bb) = self.measure(a), self.measure(b)
        self.bound(tok, "product", oa + ob, da + db, ba + bb, "{}-bit and {}-bit coefficients", ba, bb)
        if not isinstance(a, DiffOp) and not isinstance(b, DiffOp):
            return a * b
        # constants commute with every operator
        if (c := _const(b)) is not None:
            return a * c
        if (c := _const(a)) is not None:
            return b * c
        a, b = _as_op(a), _as_op(b)
        if a.size == 1 and b.order <= 0:
            # sum_j d^j a_j, then multiplication by G, is sum_j d^j a_j G
            g = b.coeff(0)
            return DiffOp(b.size, [g if m == _ONE else MatPoly.zeros(b.size) if m.is_zero else g * m.entry(0, 0)
                                   for m in a.coeffs])
        return compose(*self.same_size(a, b, tok))

    def same_size(self, a, b, tok):
        """Two operators of one size, for a pair of values of which one at
        least is an operator: a 1x1 operator, polynomial or constant in an
        N x N expression acts as itself times the identity."""
        a, b = _as_op(a), _as_op(b)
        if a.size == b.size:
            return a, b
        if a.size == 1:
            return _lift(a, b.size), b
        if b.size == 1:
            return a, _lift(b, a.size)
        self.err(f"operator sizes {a.size} and {b.size} differ", tok)

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
        option_toks: dict[str, _Tok] = {}
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
            ):
                # no argument is written name = ..., so this is an option
                if t.text not in allowed:
                    self.err(f"unknown option {t.text!r} for {kind}", t)
                if t.text in options:
                    self.err(f"repeated option {t.text!r}", t)
                self.next()
                self.next()
                option_toks[t.text] = t
                options[t.text] = self.option_value(t.text, allowed[t.text])
                continue
            if len(args) >= len(sig):
                self.err(f"too many arguments for {kind}", t)
            args.append(self.check_arg(sig[len(args)]))
        if len(args) != len(sig):
            self.err(f"{kind} expects {len(sig)} arguments, got {len(args)}", kind_tok)
        if kind == "search":
            if "order" not in options:
                self.err("search requires an order=... option", kind_tok)
            try:
                _search_horizon(options["order"], options.get("horizon"))
            except DomainError as exc:
                first = next(k for k in range(LIMIT + 1) if _search_horizon(k, None) > LIMIT)
                self.err(f"{exc}; orders {first}..{LIMIT} admit no horizon= within 0..{LIMIT}", option_toks["horizon"])
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
            from .catalog import ENTRY_NAMES  # catalog imports this module

            if tok.text not in ENTRY_NAMES:
                self.err(f"unknown catalog entry {tok.text!r}", tok)
            return CheckArg(tok.text, tok.text)
        inline = t.kind == "NAME" and t.text in _FAMILIES
        if inline and want == "op":
            self.err("expected an operator, found a weight", t)
        if inline or want == "scalar":
            return CheckArg(*self.scalar_weight())
        tok = self.expect("NAME")
        bound = self.doc.ops if want == "op" else self.doc.weights
        if tok.text not in bound:
            self.err(f"unbound {'operator' if want == 'op' else 'weight'} {tok.text!r}", tok)
        return CheckArg(tok.text, bound[tok.text])

    def scalar_weight(self) -> tuple[str, ScalarWeightFamily]:
        """A scalar family written inline, or the name of a plain scalar
        weight, with its text."""
        tok = self.expect("NAME")
        if tok.text in _FAMILIES:
            fam = self.family_call(tok)
            return _family_text(fam), fam
        if tok.text not in self.doc.weights:
            self.err(f"unbound weight {tok.text!r}", tok)
        try:
            return tok.text, self.doc.weights[tok.text].scalar_family()
        except DomainError:
            self.err(f"weight {tok.text!r} is not a plain scalar weight", tok)


def parse_spec(text: str, param_overrides: dict[str, Fraction] | None = None) -> SpecDocument:
    """Parse a DSL document; ``param_overrides`` shadow param statements, and
    an override that names no param statement is a ParseError."""
    return _Parser(_lex(text), param_overrides).parse()


# ---------------------------------------------------------------------------
# printing


def _family_text(f: ScalarWeightFamily) -> str:
    return f"{_FAMILY_NAMES[type(f)]}(" + ", ".join(f"{v.name}={getattr(f, v.name)}" for v in fields(f)) + ")"


def matrix_text(m: MatPoly) -> str:
    """A MatPoly as text."""
    return "[" + "; ".join(", ".join(poly_str(e) for e in row) for row in m.rows) + "]"


def op_str(d: DiffOp) -> str:
    """Canonical matrix-form text of an operator, parseable by the DSL. Documents
    hold polynomial entries only, so a rational entry raises NonPolynomialError."""
    if not d.is_polynomial:
        raise NonPolynomialError("documents hold polynomial operators only")
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
    if d.size != 1 or not d.is_polynomial:
        return op_str(d)
    if d.is_zero:
        return "0"
    parts = []
    for j in range(d.order, -1, -1):
        p = d.coeffs[j].entry(0, 0)
        if p.is_zero:
            continue
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
        if w.size == 1 and w.is_identity:
            return fam
        return f"{fam} * {matrix_text(w.N)}"
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
        lines.append(f"param {k} = {v}")
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
