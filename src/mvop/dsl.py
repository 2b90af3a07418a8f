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
stay polynomial. A document compiles once to a program (``compile_spec``) that
evaluates it at each parameter point: the algebra layer never sees symbols.
"""

from __future__ import annotations

import math
import operator
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
        self.message = message
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
# instructions: an instruction's key k is (function, *arguments), an argument
# the slot of an earlier value or static data, and k[0](v, token, k) returns
# its value from the list v of a run's values, on one path per value kind. A
# refusal names the instruction's token.


def _refuse(message, tok):
    raise ParseError(message, *tok[2:])


def _call(v, tok, k):
    """k[1] of the values of the slots k[2:]; a DomainError refuses it."""
    try:
        return k[1](*map(v.__getitem__, k[2:]))
    except DomainError as exc:
        _refuse(str(exc), tok)


def _sum(v, tok, k):
    a, b = v[k[2]], v[k[3]]
    if isinstance(a, DiffOp) or isinstance(b, DiffOp):
        a, b = _same_size(a, b, tok)
    return a + b if k[1] == "+" else a - b


def _inverse(v, tok, k):
    """1 / a, for a divisor a that is a nonzero constant."""
    if (c := _const(v[k[1]])) is None:
        _refuse("division by a non-constant expression", tok)
    if not c:
        _refuse("division by zero", tok)
    return 1 / c


def _times(v, tok, k):
    """a * b: apply a, then b. Two constants or polynomials multiply as
    values; an operator operand composes."""
    a, b = v[k[1]], v[k[2]]
    if type(a) is type(b) is Fraction:
        if _const_bits(a) + _const_bits(b) > LIMIT * LIMIT:
            _bound(tok, a, b)
        return a * b
    _bound(tok, a, b)
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
        n, g = b.size, b.coeff(0)
        zero = MatPoly._of([(MatPoly._zero,) * n] * n)
        return DiffOp(n, [g if m == _ONE else zero if m.is_zero else g * m.entry(0, 0) for m in a.coeffs])
    return compose(*_same_size(a, b, tok))


def _power(v, tok, k):
    n, a = k[1], v[k[2]]
    _bound(tok, a, k=n)
    return op_power(a, n) if isinstance(a, DiffOp) else a**n


def _bound(tok, a, b=None, k=1):
    """Refuse the product a * b, or the power a^k when b is None, whose
    order, coefficient degree or coefficient bits would exceed the limits,
    before it is computed. ``_size`` bounds the result's in O(1) per
    coefficient; only past a limit does ``_measure`` decide, and word the
    refusal, exactly."""
    for size in (_size, _measure):
        (oa, da, ba), (ob, db, bb) = size(a), (0, 0, 0) if b is None else size(b)
        order, degree, bits = oa * k + ob, da * k + db, ba * k + bb
        if order <= LIMIT and degree <= LIMIT and bits <= LIMIT * LIMIT:
            return
    sizes = f"{ba}-bit coefficients to {k}" if b is None else f"{ba}-bit and {bb}-bit coefficients"
    reason = (f"order {order} exceeds {LIMIT}" if order > LIMIT else f"degree {degree} exceeds {LIMIT}"
              if degree > LIMIT else f"{sizes} exceeds {LIMIT * LIMIT} bits")
    _refuse(f"{'power' if b is None else 'product'} of {reason}", tok)


def _same_size(a, b, tok):
    """Two operators of one size, for a pair of values of which one at least
    is an operator: a 1x1 operator, polynomial or constant in an N x N
    expression acts as itself times the identity."""
    a, b = _as_op(a), _as_op(b)
    if a.size == b.size:
        return a, b
    if a.size == 1:
        return _lift(a, b.size), b
    if b.size == 1:
        return a, _lift(b, a.size)
    _refuse(f"operator sizes {a.size} and {b.size} differ", tok)


def _matrix(v, tok, k):
    n = k[1]  # the n x n matrix of the entries k[2:], row by row
    return MatPoly._of([[v[s] for s in k[i : i + n]] for i in range(2, n * n + 2, n)])


def _matrix_op(m: MatPoly) -> DiffOp:
    return DiffOp(m.size, [m])


def _entry(v, tok, k):
    if not isinstance(p := _as_poly(v[k[1]]), Poly):
        _refuse("a matrix entry must be a polynomial, not an operator", tok)
    return p


def _constant(v, tok, k):
    if (c := _const(v[k[1]])) is None:
        _refuse("expected a constant expression", tok)
    return c


def _param(v, tok, k):
    return v[k[2]].get(k[1], v[k[3]])  # the override of param k[1], if any


def _family(v, tok, k):
    family, keys = k[1:3]
    kv = dict(zip(keys, map(v.__getitem__, k[3:])))
    try:
        return _FAMILIES[family](**kv)
    except TypeError:
        _refuse(f"bad parameters for {family}: {sorted(kv)}", tok)
    except DomainError as exc:
        _refuse(str(exc), tok)


def _direct_sum(*blocks):
    return Weight.direct_sum(blocks)


def _end(v, tok, k):
    """The program's last instruction: the syntax refusal that ended its
    text, if any, else the refusal of overrides that name no param."""
    _, refusal, names, overrides = k
    if refusal:
        _refuse(refusal, tok)
    if unknown := sorted(set(v[overrides]) - set(names)):
        _refuse(f"parameter override names no param statement: {', '.join(unknown)}", tok)


def _scalar_family(v, tok, k):
    try:
        return v[k[1]].scalar_family()
    except DomainError:
        _refuse(f"weight {tok[1]!r} is not a plain scalar weight", tok)


# how many leading arguments of an instruction are static data, not slots
_STATIC = {_call: 1, _sum: 1, _power: 1, _matrix: 1, _param: 1, _family: 2, _end: 2}


class Program:
    """A document compiled to a straight-line program (``compile_spec``):
    one instruction per operation, in the order one pass over the text
    performs them, identical ones once; ``live`` holds those not kept, each
    as (slot, token, key). Slot 0 holds a run's overrides. A value that
    depends on no param (its instruction's argument slots come down to
    literals, x and d^j) is kept from the first run that computes it, and
    later runs skip it. A syntax refusal is the last instruction, so a value
    refusal above it comes first."""

    def __init__(self, c: "_Compiler"):
        self.live, self.kept = c.code, c.kept
        self.params, self.weights, self.ops, self.checks = c.params, c.weights, c.ops, c.checks
        # the slots of param-free instructions not yet kept
        self.pending = [i[0] for i in c.code if i[0] not in c.varying]

    def run(self, overrides: dict[str, Fraction] | None = None) -> SpecDocument:
        """The document at the params' values, overrides shadowing them; an
        override that names no param statement is a ParseError."""
        v = self.kept.copy()
        v[0] = overrides or {}
        try:
            for slot, tok, k in self.live:
                v[slot] = k[0](v, tok, k)
        finally:
            if kept := [s for s in self.pending if v[s] is not None]:
                for s in kept:
                    self.kept[s] = v[s]
                self.pending = [s for s in self.pending if v[s] is None]
                self.live = [i for i in self.live if self.kept[i[0]] is None]
        return SpecDocument(
            {k: v[s] for k, s in self.params.items()},
            {k: v[s] for k, s in self.weights.items()},
            {k: v[s] for k, s in self.ops.items()},
            [CheckCommand(kind, [CheckArg(_family_text(v[s]) if t is None else t, v[s]) for t, s in args],
                          dict(options), line) for kind, args, options, line in self.checks],
        )


class _Compiler:
    """The recursive descent over a document's tokens, emitting one
    instruction per operation instead of computing it."""

    def __init__(self, toks: list[tuple]):
        self.toks, self.pos, self.depth, self.code = toks, 0, 0, []
        # slot -> its value from the start (literals, x), else None, slot 0
        # holding a run's overrides; instruction or preset key -> slot; the
        # slots that depend on a param
        self.kept, self.seen, self.varying = [None], {}, {0}
        self.x = self.preset("x", X)
        # bound names -> slots; checks as (kind, [(text, slot)], options, line)
        self.params, self.weights, self.ops, self.checks = {}, {}, {}, []

    def emit(self, key, tok=None):
        """The slot of the instruction ``key``, new unless one is identical."""
        if (slot := self.seen.get(key)) is None:
            self.code.append((slot := self.preset(key, None), tok, key))
            if not self.varying.isdisjoint(key[_STATIC.get(key[0], 0) + 1 :]):
                self.varying.add(slot)
        return slot

    def preset(self, key, value):
        """A slot holding ``value`` from the start, unless ``key`` has one."""
        if (slot := self.seen.get(key)) is None:
            slot = self.seen[key] = len(self.kept)
            self.kept.append(value)
        return slot

    # token helpers: a token is (kind, text, line, column)

    def err(self, message, tok=None):
        _refuse(message, tok or self.toks[self.pos])

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
            found = self.toks[self.pos]
            self.err(f"expected {text or kind!r}, found {found[1] or found[0]!r}")
        return t

    # document

    def document(self):
        while True:
            while self.accept("NEWLINE"):
                pass
            if self.toks[self.pos][0] == "EOF":
                return
            head = self.expect("NAME")
            if head[1] not in ("param", "weight", "op", "check"):
                self.err(f"unknown statement {head[1]!r}", head)
            if head[1] == "check":
                self.check()
            else:
                self.binding(head[1])
            if self.toks[self.pos][0] != "EOF":
                self.expect("NEWLINE")

    def fresh_name(self) -> str:
        t = self.expect("NAME")
        name = t[1]
        if name in _RESERVED:
            self.err(f"{name!r} is a reserved word", t)
        if name in self.params or name in self.weights or name in self.ops:
            self.err(f"name {name!r} is already bound", t)
        return name

    def binding(self, kind):
        """A param, weight or op statement: its name bound to its value's slot."""
        name = self.fresh_name()
        self.expect("SYM", "=")
        if kind == "param":
            self.params[name] = self.emit((_param, name, 0, self.const_expr()))
        elif kind == "op":
            self.ops[name] = self.emit((_call, _as_op, self.expr()))
        else:
            self.weights[name] = self.weight_expr()

    def weight_expr(self) -> int:
        t = self.expect("NAME")
        if t[1] == "dsum":
            self.expect("SYM", "(")
            blocks = []
            while True:
                ref = self.expect("NAME")
                if ref[1] not in self.weights:
                    self.err(f"unbound weight {ref[1]!r}", ref)
                blocks.append(self.weights[ref[1]])
                if not self.accept("SYM", ","):
                    break
            self.expect("SYM", ")")
            return self.emit((_call, _direct_sum, *blocks), t)
        fam = self.family_call(t)
        if self.accept("SYM", "*"):
            mat = self.matrix()
            return self.emit((_call, Weight.atomic, fam, mat), t)
        return self.emit((_call, ScalarWeightFamily.scalar_weight, fam), t)

    def family_call(self, t: tuple) -> int:
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
        return self.emit((_family, family, tuple(kv), *kv.values()), t)

    def matrix(self) -> int:
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
        return self.emit((_matrix, width, *(s for r in rows for s in r)))

    # expressions: each returns the slot of its value, a constant
    # (Fraction), a Poly or a DiffOp

    def const_expr(self) -> int:
        tok = self.toks[self.pos]
        return self.emit((_constant, self.expr()), tok)

    def polynomial(self) -> int:
        tok = self.toks[self.pos]
        if tok[0] == "INT" and self.toks[self.pos + 1][1] in (",", ";", "]"):
            self.pos, key = self.pos + 1, ("poly", tok[1])
            return self.seen.get(key) or self.preset(key, poly_over((int(tok[1]),), 1))
        return self.emit((_entry, self.expr()), tok)

    def expr(self) -> int:
        toks = self.toks
        neg = toks[self.pos][1] == "-"
        if neg:
            self.pos += 1
        acc = self.term()
        if neg:
            acc = self.emit((_call, operator.neg, acc))
        while (tok := toks[self.pos])[1] in ("+", "-"):
            self.pos += 1
            acc = self.emit((_sum, tok[1], acc, self.term()), tok)
        return acc

    def term(self) -> int:
        toks = self.toks
        acc = self.factor()
        while (tok := toks[self.pos])[1] in ("*", "/"):
            self.pos += 1
            rhs = self.factor()
            if tok[1] == "/":
                rhs = self.emit((_inverse, rhs), tok)
            acc = self.emit((_times, acc, rhs), tok)
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

    def factor(self) -> int:
        t = self.toks[self.pos]
        if t[1] == "-":
            self.pos += 1
            return self.emit((_call, operator.neg, self.nested(self.factor, t)))
        base = self.atom()
        hat = self.toks[self.pos]
        if hat[1] != "^":
            return base
        self.pos += 1
        return self.emit((_power, self.small_int("exponent"), base), hat)

    def atom(self) -> int:
        t = self.toks[self.pos]
        kind, text = t[:2]
        if text == "[":
            return self.emit((_call, _matrix_op, self.nested(self.matrix, t)))
        self.pos += 1
        if kind == "INT":
            return self.seen.get(text) or self.preset(text, Fraction(int(text)))
        if text == "(":
            value = self.nested(self.expr, t)
            self.expect("SYM", ")")
            return value
        if kind != "NAME":
            self.err("expected an expression", t)
        if (slot := self.params.get(text)) is not None:
            return slot
        if text == "x":
            return self.x
        if text == "d":
            self.expect("SYM", "^")
            j = self.small_int("derivative order")
            return self.seen.get(("d", j)) or self.preset(("d", j), DiffOp(1, [MatPoly.zeros(1)] * j + [_ONE]))
        if text == "delta":
            self.expect("SYM", "(")
            _, fam = self.nested(self.scalar_weight, t)
            self.expect("SYM", ")")
            return self.emit((_call, ScalarWeightFamily.delta, fam))
        if text in self.ops:
            return self.ops[text]
        if text in self.weights:
            self.err(f"weight {text!r} is not an operator; delta({text}) is its classical operator", t)
        self.err(f"unbound name {text!r}", t)

    # checks

    def check(self):
        kind_tok = self.expect("NAME")
        kind = kind_tok[1]
        if kind not in _CHECK_SIGS:
            self.err(f"unknown check kind {kind!r}", kind_tok)
        self.expect("SYM", "(")
        sig = _CHECK_SIGS[kind]
        args: list[tuple] = []
        options: dict[str, object] = {}
        option_toks: dict[str, tuple] = {}
        allowed = _CHECK_OPTIONS.get(kind, {})
        first = True
        while not self.accept("SYM", ")"):
            if not first:
                self.expect("SYM", ",")
            first = False
            t = self.toks[self.pos]
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
        self.checks.append((kind, args, options, kind_tok[2]))

    def option_value(self, name, typ):
        if typ == "bool":
            tok = self.expect("NAME")
            if tok[1] not in ("true", "false"):
                self.err("expected true or false", tok)
            return tok[1] == "true"
        return self.small_int(name, *(typ or (None, None)))

    def check_arg(self, want: str) -> tuple:
        """(text, slot) of an argument, text None for an inline scalar family."""
        t = self.toks[self.pos]
        if want == "name":
            tok = self.expect("NAME")
            from .catalog import ENTRY_NAMES  # catalog imports this module

            if tok[1] not in ENTRY_NAMES:
                self.err(f"unknown catalog entry {tok[1]!r}", tok)
            return tok[1], self.preset(("entry", tok[1]), tok[1])
        inline = t[0] == "NAME" and t[1] in _FAMILIES
        if inline and want == "op":
            self.err("expected an operator, found a weight", t)
        if inline or want == "scalar":
            return self.scalar_weight()
        tok = self.expect("NAME")
        bound = self.ops if want == "op" else self.weights
        if tok[1] not in bound:
            self.err(f"unbound {'operator' if want == 'op' else 'weight'} {tok[1]!r}", tok)
        return tok[1], bound[tok[1]]

    def scalar_weight(self) -> tuple:
        """(text, slot) of a scalar family written inline, text None, or of
        the name of a plain scalar weight."""
        tok = self.expect("NAME")
        name = tok[1]
        if name in _FAMILIES:
            return None, self.family_call(tok)
        if name not in self.weights:
            self.err(f"unbound weight {name!r}", tok)
        return name, self.emit((_scalar_family, self.weights[name]), tok)


def compile_spec(text: str) -> Program:
    """The program of a DSL document; it refuses here only what the lexer
    refuses, and every other refusal when it runs."""
    c = _Compiler(_lex(text))
    try:
        c.document()
        refusal, tok = None, c.toks[c.pos]
    except ParseError as exc:
        refusal, tok = exc.message, (None, None, exc.line, exc.col)
    c.emit((_end, refusal, tuple(c.params), 0), tok)
    return Program(c)


def parse_spec(text: str, param_overrides: dict[str, Fraction] | None = None) -> SpecDocument:
    """Parse a DSL document; ``param_overrides`` shadow param statements, and
    an override that names no param statement is a ParseError."""
    return compile_spec(text).run(param_overrides)


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
