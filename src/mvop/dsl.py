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
from itertools import accumulate

from .exactalg import DomainError, NonPolynomialError, Poly, X, int_form, poly_over, poly_str
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


# a line without its comment splits into pieces that cover it: a symbol, a
# name, an integer, a run of blanks or any one other character. A piece's first
# character gives its kind, None for a character no token starts with.
# ASCII only: str.isdigit and str.isalpha also accept other scripts' digits
# and letters, and superscripts, which int() then reads or refuses
_PIECES = re.compile(r"[=+\-*/^()\[\],;]|[A-Za-z_][A-Za-z0-9_]*|[0-9]+|[ \t\r]+|.")
_KINDS = {
    **dict.fromkeys("=+-*/^()[],;", "SYM"),
    **dict.fromkeys(string.ascii_letters + "_", "NAME"),
    **dict.fromkeys(string.digits, "INT"),
    **dict.fromkeys(" \t\r", " "),
}
# decimal digits of 2^(LIMIT^2), the most a literal within the bit bound has
_MAX_DIGITS = len(str(1 << LIMIT * LIMIT))
# a line is read piece by piece when it holds a character no token starts
# with or a literal with a leading zero, or is long enough to hold a literal
# as long as 2^(LIMIT^2)
_IRREGULAR = re.compile(r"[^ \t\r0-9A-Za-z_=+\-*/^()\[\],;]|0(?<![0-9A-Za-z_]0)[0-9]")
_BRACKETS = re.compile(r"[][()]")


def _lex(text: str) -> list[tuple]:
    """The tokens of ``text``, (kind, text, line, column) with kind NAME,
    INT, SYM, NEWLINE or EOF, then NEWLINE and EOF. A newline outside
    brackets ends a statement (one NEWLINE for a run of them). Line and
    column count characters from 1; a comment takes no column, so a NEWLINE
    after one stands where it starts."""
    toks, depth = [], 0
    lines = text.split("\n")
    for line, code in enumerate(lines, 1):
        code = code.partition("#")[0]
        pieces = _PIECES.findall(code)
        cols = accumulate(map(len, pieces), initial=1)
        if len(code) >= _MAX_DIGITS or _IRREGULAR.search(code):
            for s, col in zip(pieces, cols):
                kind = _KINDS.get(s[0])
                if kind is None:
                    raise ParseError(f"unexpected character {s!r}", line, col)
                if kind == "INT":
                    s = s.lstrip("0") or "0"
                    if len(s) > _MAX_DIGITS or int(s) >> LIMIT * LIMIT:
                        raise ParseError(f"integer literal exceeds {LIMIT * LIMIT} bits", line, col)
                if kind != " ":
                    toks.append((kind, s, line, col))
        else:
            toks += [(kind, s, line, col) for s, col in zip(pieces, cols) if (kind := _KINDS[s[0]]) != " "]
        for b in _BRACKETS.findall(code):
            depth = depth + 1 if b in "([" else max(0, depth - 1)
        if line < len(lines) and depth == 0 and toks and toks[-1][0] != "NEWLINE":
            toks.append(("NEWLINE", "", line, len(code) + 1))
    return toks + [(kind, "", line, len(code) + 1) for kind in ("NEWLINE", "EOF")]


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
    if type(v) is Fraction:
        return poly_over((v.numerator,), v.denominator)
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


def _size(v, exact=False):
    """Order, coefficient degree and coefficient bit length of a constant, a
    polynomial or an operator, read off the integer forms it stores. Unless
    ``exact``, the bits are an upper bound: the larger bit length of the
    numerators and of their denominator den, as n / den in lowest terms is
    (n / g) / (den / g), g = gcd(n, den)."""
    if type(v) is Fraction:
        return 0, 0 if v else -1, _const_bits(v)
    if type(v) is not Poly:
        _, degrees, bits = zip((0, -1, 0), *(_size(e, exact) for m in v.coeffs for r in m.rows for e in r))
        return v.order, max(degrees), max(bits)
    ints, den, bits = int_form(v)
    if not exact:
        bits = max(bits, den.bit_length())
    elif den > 1:
        bits = max(((abs(n) // (g := math.gcd(n, den))) | (den // g)).bit_length() for n in ints if n)
    return 0, len(ints) - 1, bits


def _measure(v) -> tuple[int, int, int]:
    """Order, coefficient degree and coefficient bit length of a constant, a
    polynomial or an operator: ``_size`` with the exact bits."""
    return _size(v, True)


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, toks: list[tuple], overrides: dict[str, Fraction] | None):
        self.toks = toks
        self.pos = 0
        self.doc = SpecDocument()
        self.overrides = dict(overrides or {})
        self.depth = 0
        # the values a document computes once, as it binds each name once:
        # integer literals by their text, ("d", j), ("delta", the weight's
        # text), (x, a param, an op or a literal; k) for a k-th power and,
        # by its size, a zero matrix
        self.values = {}

    # token helpers: a token is (kind, text, line, column)

    def peek(self) -> tuple:
        return self.toks[self.pos]

    def err(self, message, tok=None):
        tok = tok or self.peek()
        raise ParseError(message, *tok[2:])

    def small_int(self, what, least=0, greatest=LIMIT) -> int:
        neg = bool(self.accept("SYM", "-"))
        tok = self.expect("INT")
        v = -int(tok[1]) if neg else int(tok[1])
        if greatest is not None and not least <= v <= greatest:
            self.err(f"{what} {v} outside {least}..{greatest}", tok)
        return v

    def accept(self, kind, text=None):
        t = self.toks[self.pos]
        if t[0] == kind and (text is None or t[1] == text):
            self.pos += 1
            return t
        return None

    def expect(self, kind, text=None):
        t = self.accept(kind, text)
        if t is None:
            self.err(f"expected {text or kind!r}, found {self.peek()[1] or self.peek()[0]!r}")
        return t

    # document

    def parse(self) -> SpecDocument:
        while True:
            while self.accept("NEWLINE"):
                pass
            if self.peek()[0] == "EOF":
                unknown = sorted(set(self.overrides) - set(self.doc.params))
                if unknown:
                    self.err(f"parameter override names no param statement: {', '.join(unknown)}")
                return self.doc
            head = self.expect("NAME")
            if head[1] not in ("param", "weight", "op", "check"):
                self.err(f"unknown statement {head[1]!r}", head)
            getattr(self, f"parse_{head[1]}")()
            if self.peek()[0] != "EOF":
                self.expect("NEWLINE")

    def fresh_name(self) -> str:
        t = self.expect("NAME")
        name = t[1]
        if name in _RESERVED:
            self.err(f"{name!r} is a reserved word", t)
        if name in self.doc.params or name in self.doc.weights or name in self.doc.ops:
            self.err(f"name {name!r} is already bound", t)
        return name

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
        if t[1] == "dsum":
            self.expect("SYM", "(")
            blocks = []
            while True:
                ref = self.expect("NAME")
                if ref[1] not in self.doc.weights:
                    self.err(f"unbound weight {ref[1]!r}", ref)
                blocks.append(self.doc.weights[ref[1]])
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

    def family_call(self, t: tuple) -> ScalarWeightFamily:
        family = t[1]
        if family not in _FAMILIES:
            self.err(f"unknown weight family {family!r}", t)
        self.expect("SYM", "(")
        kv = {}
        if not self.accept("SYM", ")"):
            while True:
                key = self.expect("NAME")
                if key[1] in kv:
                    self.err(f"repeated parameter {key[1]!r}", key)
                self.expect("SYM", "=")
                kv[key[1]] = self.const_expr()
                if not self.accept("SYM", ","):
                    break
            self.expect("SYM", ")")
        try:
            return _FAMILIES[family](**kv)
        except TypeError:
            self.err(f"bad parameters for {family}: {sorted(kv)}", t)
        except DomainError as exc:
            self.err(str(exc), t)

    def parse_op(self):
        name = self.fresh_name()
        self.expect("SYM", "=")
        self.doc.ops[name] = _as_op(self.expr())

    def matrix(self) -> MatPoly:
        toks, start = self.toks, self.expect("SYM", "[")
        rows = [[]]
        while True:
            rows[-1].append(self.polynomial())
            sep = toks[self.pos][1]
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
        neg = toks[self.pos][1] == "-"
        if neg:
            self.pos += 1
        acc = self.term()
        if neg:
            acc = -acc
        while (tok := toks[self.pos])[1] in ("+", "-"):
            self.pos += 1
            rhs = self.term()
            if isinstance(acc, DiffOp) or isinstance(rhs, DiffOp):
                acc, rhs = self.same_size(acc, rhs, tok)
            acc = acc + rhs if tok[1] == "+" else acc - rhs
        return acc

    def term(self):
        toks = self.toks
        acc = self.factor()
        while (tok := toks[self.pos])[1] in ("*", "/"):
            self.pos += 1
            rhs = self.factor()
            if tok[1] == "/":
                if (rhs := _const(rhs)) is None:
                    self.err("division by a non-constant expression", tok)
                if not rhs:
                    self.err("division by zero", tok)
                rhs = 1 / rhs
            if type(acc) is type(rhs) is Fraction:
                if _const_bits(acc) + _const_bits(rhs) > LIMIT * LIMIT:
                    self.bound(tok, acc, rhs)
                acc *= rhs
            else:
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
        if t[1] == "-":
            self.pos += 1
            return -self.nested(self.factor, t)
        base = self.atom()
        hat = self.toks[self.pos]
        if hat[1] != "^":
            return base
        # a one-token base is a name or a literal, bound once: its power is kept
        one = self.toks[self.pos - 1] is t
        self.pos += 1
        k = self.small_int("exponent")
        key = (t[1], k) if one else None
        value = self.values.get(key)
        if value is None:
            self.bound(hat, base, k=k)
            value = op_power(base, k) if isinstance(base, DiffOp) else base**k
            if key:
                self.values[key] = value
        return value

    def atom(self):
        t = self.toks[self.pos]
        kind, text = t[:2]
        if text == "[":
            m = self.nested(self.matrix, t)
            return DiffOp(m.size, [m])
        self.pos += 1
        if kind == "INT":
            if (value := self.values.get(text)) is None:
                value = self.values[text] = Fraction(int(text))
            return value
        if text == "(":
            value = self.nested(self.expr, t)
            self.expect("SYM", ")")
            return value
        if kind != "NAME":
            self.err("expected an expression", t)
        if (value := self.doc.params.get(text)) is not None:
            return value
        if text == "x":
            return X
        if text == "d":
            self.expect("SYM", "^")
            j = self.small_int("derivative order")
            return self.once(("d", j), lambda: DiffOp(1, [MatPoly.zeros(1)] * j + [_ONE]))
        if text == "delta":
            self.expect("SYM", "(")
            weight, fam = self.nested(self.scalar_weight, t)
            self.expect("SYM", ")")
            return self.once(("delta", weight), fam.delta)
        if text in self.doc.ops:
            return self.doc.ops[text]
        if text in self.doc.weights:
            self.err(f"weight {text!r} is not an operator; delta({text}) is its classical operator", t)
        self.err(f"unbound name {text!r}", t)

    def once(self, key, make):
        """The document's value for ``key``, made by ``make`` the first time."""
        if (value := self.values.get(key)) is None:
            value = self.values[key] = make()
        return value

    def bound(self, tok, a, b=None, k=1):
        """Refuse the product a * b, or the power a^k when b is None, whose
        order, coefficient degree or coefficient bits would exceed the
        limits, before it is computed. ``_size`` bounds the result's in
        O(1) per coefficient; only past a limit does ``_measure`` decide,
        and word the refusal, exactly."""
        for size in (_size, _measure):
            (oa, da, ba), (ob, db, bb) = size(a), (0, 0, 0) if b is None else size(b)
            order, degree, bits = oa * k + ob, da * k + db, ba * k + bb
            if order <= LIMIT and degree <= LIMIT and bits <= LIMIT * LIMIT:
                return
        sizes = f"{ba}-bit coefficients to {k}" if b is None else f"{ba}-bit and {bb}-bit coefficients"
        reason = (f"order {order} exceeds {LIMIT}" if order > LIMIT else f"degree {degree} exceeds {LIMIT}"
                  if degree > LIMIT else f"{sizes} exceeds {LIMIT * LIMIT} bits")
        self.err(f"{'power' if b is None else 'product'} of {reason}", tok)

    def product(self, a, b, tok):
        """a * b: apply a, then b. Two constants or polynomials multiply as
        values; an operator operand composes."""
        self.bound(tok, a, b)
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
            g, zero = b.coeff(0), self.once(b.size, lambda: MatPoly.zeros(b.size))
            return DiffOp(b.size, [g if m == _ONE else zero if m.is_zero else g * m.entry(0, 0) for m in a.coeffs])
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
        kind = kind_tok[1]
        if kind not in _CHECK_SIGS:
            self.err(f"unknown check kind {kind!r}", kind_tok)
        self.expect("SYM", "(")
        sig = _CHECK_SIGS[kind]
        args: list[CheckArg] = []
        options: dict[str, object] = {}
        option_toks: dict[str, tuple] = {}
        allowed = _CHECK_OPTIONS.get(kind, {})
        first = True
        while not self.accept("SYM", ")"):
            if not first:
                self.expect("SYM", ",")
            first = False
            t = self.peek()
            if t[0] == "NAME" and self.toks[self.pos + 1][:2] == ("SYM", "="):
                # no argument is written name = ..., so this is an option
                name = t[1]
                if name not in allowed:
                    self.err(f"unknown option {name!r} for {kind}", t)
                if name in options:
                    self.err(f"repeated option {name!r}", t)
                self.pos += 2
                option_toks[name] = t
                options[name] = self.option_value(name, allowed[name])
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
        self.doc.checks.append(CheckCommand(kind, args, options, kind_tok[2]))

    def option_value(self, name, typ):
        if typ == "bool":
            tok = self.expect("NAME")
            if tok[1] not in ("true", "false"):
                self.err("expected true or false", tok)
            return tok[1] == "true"
        return self.small_int(name, *(typ or (None, None)))

    def check_arg(self, want: str) -> CheckArg:
        t = self.peek()
        if want == "name":
            tok = self.expect("NAME")
            from .catalog import ENTRY_NAMES  # catalog imports this module

            if tok[1] not in ENTRY_NAMES:
                self.err(f"unknown catalog entry {tok[1]!r}", tok)
            return CheckArg(tok[1], tok[1])
        inline = t[0] == "NAME" and t[1] in _FAMILIES
        if inline and want == "op":
            self.err("expected an operator, found a weight", t)
        if inline or want == "scalar":
            return CheckArg(*self.scalar_weight())
        tok = self.expect("NAME")
        bound = self.doc.ops if want == "op" else self.doc.weights
        if tok[1] not in bound:
            self.err(f"unbound {'operator' if want == 'op' else 'weight'} {tok[1]!r}", tok)
        return CheckArg(tok[1], bound[tok[1]])

    def scalar_weight(self) -> tuple[str, ScalarWeightFamily]:
        """A scalar family written inline, or the name of a plain scalar
        weight, with its text."""
        tok = self.expect("NAME")
        name = tok[1]
        if name in _FAMILIES:
            fam = self.family_call(tok)
            return _family_text(fam), fam
        if name not in self.doc.weights:
            self.err(f"unbound weight {name!r}", tok)
        try:
            return name, self.doc.weights[name].scalar_family()
        except DomainError:
            self.err(f"weight {name!r} is not a plain scalar weight", tok)


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
