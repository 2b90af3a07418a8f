"""Exact arithmetic over Q: dense polynomials, rational functions, matrices.

Everything in this module is immutable and pure, and exact over Q: a ``Poly``
is stored once, as integer numerators over one denominator (``int_form``), and
does its arithmetic there, its ``fractions.Fraction`` coefficients made only
when read; constants are Fractions. Matrices share one skeleton, ``Matrix``:
``FracMat`` (constant rational entries, used for eigenvalues, recursion
coefficients and conjugating matrices), ``MatRF`` (square, rational-function
entries, used by no other module: operators and weight factors are numerators
over one denominator) and ``diffop.MatPoly``. Exact linear algebra runs
through two elimination kernels. ``bareiss`` eliminates dense square matrices
fraction-free: integer ones as they are, for leading minors, Gram blocks and
the singular-span test, and polynomial ones as the integers their entries pack
to, for symbol determinants and the adjugate of a weight factor. Every
determinant, inverse and ``solve_square`` over a field is read off it too: a
Fraction matrix goes over one denominator L to integers, a RatFunc matrix over
q, the monic lcm of its denominators, to polynomials. ``nullspace``, whose
callers are the searches' large sparse integer systems, reduces primitive
integer rows kept as maps of their nonzeros (``_echelon``, shared with
``read_off``) and forms one Fraction per basis entry. All polynomial products
run through packed integers (Kronecker
substitution): the numerators of polynomials over a common denominator
(``int_entries``) are packed as the digits of one Python integer each
(``pack``), at a width from one routine, ``pack_width``, that keeps every
digit of a sum of products in [-2^(w-1), 2^(w-1)). Packing is then injective:
a sum is unpacked once (``unpack``), read at one digit (``digit``) or tested
for zero as one integer. ``poly_dot`` sums products of pairs this way for
``Poly`` and ``MatPoly`` products; ``diffop.int_action`` multiplies whole
matrices of packed entries for the operator algebra and
``dwalgebra.relation``. Kernels that stay in Z[x] take plain integer
coefficient lists (``int_poly_dot``, ``int_poly_matmul``, ``int_poly_quo``):
the weight adjoint, the moment rows of ``weights.moment_ints``, and the Sturm
chain of ``nonneg_integer_roots`` and ``real_root_count``. Polynomial division
runs there too: ``poly_quo`` and ``exact_div`` divide numerators by a
primitive divisor, and ``poly_gcd`` follows the primitive remainder sequence
of the Sturm chain (Brown 1971).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import zip_longest


class DomainError(ArithmeticError):
    """Input left the domain of definition of an operation."""


class DivisionError(DomainError):
    """Exact division was requested but the remainder is nonzero."""


class SingularError(DomainError):
    """A matrix that must be invertible is singular."""


class ShapeError(ValueError):
    """Operand sizes do not match."""


class NonPolynomialError(DomainError):
    """A rational function had to be a polynomial and is not."""


class DecompositionError(DomainError):
    """An operator does not lie in the expected cyclic module."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


def frac(value) -> Fraction:
    """Coerce to Fraction. Accepts int, Fraction and strings like '3/2' or
    '1.5'; a float is inexact and raises TypeError. A string with an exponent
    or a digit separator raises ValueError: Fraction would read '1e30000000'
    as a 30-million-digit integer."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError(f"float {value!r} is not exact; pass an int, a Fraction or a string like '3/2'")
    if isinstance(value, str) and any(c in value for c in "eE_"):
        raise ValueError(f"{value!r} has an exponent or a digit separator; write an integer, a ratio like '3/2' or a decimal like '1.5'")
    return Fraction(value)


_F0 = Fraction(0)
_F1 = Fraction(1)


def _bits(ints) -> int:
    return (max(map(abs, ints)) if ints else 0).bit_length()


def _trim(ints) -> tuple[int, ...]:
    ints = list(ints)
    while ints and not ints[-1]:
        ints.pop()
    return tuple(ints)


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Dense univariate polynomial over Q, stored once as its integer form:
    numerators without trailing zeros, their least common denominator and
    the bit length of the largest numerator (``int_form``); zero is
    ((), 1, 0) and has degree -1. ``coeffs``, coeffs[k] the x^k coefficient
    as a Fraction, is a view made when first read; the checked constructor
    keeps the Fractions it was given as that view. Structure and arithmetic
    read only the integer form, so a kernel's result makes no Fraction
    until one is read."""

    __slots__ = ("_ints", "coeffs")

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else frac(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        den = math.lcm(*[c.denominator for c in cs])
        ints = tuple([c.numerator * (den // c.denominator) for c in cs])
        self._ints, self.coeffs = (ints, den, _bits(ints)), tuple(cs)

    def __getattr__(self, name):
        # the Fraction view of a Poly built from its integer form
        if name != "coeffs":
            raise AttributeError(name)
        ints, den, _ = self._ints
        self.coeffs = tuple(map(Fraction, ints) if den == 1 else (Fraction(c, den) for c in ints))
        return self.coeffs

    # -- construction helpers

    @staticmethod
    def const(c) -> "Poly":
        return _as_poly(frac(c))

    @staticmethod
    def monomial(k: int, c=1) -> "Poly":
        return Poly((0,) * k + (frac(c),))

    # -- structure

    @property
    def degree(self) -> int:
        return len(self._ints[0]) - 1

    @property
    def is_zero(self) -> bool:
        return not self._ints[0]

    def __bool__(self):
        return bool(self._ints[0])

    def __getitem__(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k <= self.degree else _F0

    @property
    def lc(self) -> Fraction:
        if not self:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self._ints == other._ints
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._ints)

    # -- arithmetic

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        if not (self and other):
            return other if other else self
        return _combine(self, other, operator.add)

    __radd__ = __add__

    def __neg__(self):
        ints, den, _ = self._ints
        return poly_over([-c for c in ints], den)

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return _combine(self, other, operator.sub) if other else self

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            (c, d), p = (other.numerator, other.denominator), self
        elif not isinstance(other, Poly):
            return NotImplemented
        elif self.degree > 0 < other.degree:
            return poly_dot(((self, other),))
        else:
            # a constant operand scales the other
            const, p = (self, other) if self.degree < 1 else (other, self)
            cs, d, _ = const._ints
            c = cs[0] if cs else 0
        ints, den, _ = p._ints
        return poly_over([c * v for v in ints], den * d)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative polynomial power")
        ints, den, _ = self._ints
        if not any(ints[:-1]):  # zero, a constant or c x^k: no products
            return poly_over((0,) * (len(ints) - 1) * n + (ints[-1] ** n,), den**n) if ints else _P0 if n else _P1
        out, base = _P1, self
        while True:
            if n & 1:
                out = out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def derivative(self) -> "Poly":
        ints, den, _ = self._ints
        return poly_over(int_poly_derivative(ints), den)

    def __call__(self, x) -> Fraction:
        x = frac(x)
        acc = _F0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "Poly":
        ints, _, _ = self._ints
        if not ints:
            return self
        return poly_over(ints, ints[-1]) if ints[-1] > 0 else poly_over([-c for c in ints], -ints[-1])

    def __repr__(self):
        return f"Poly({poly_str(self)!r})"

    def __str__(self):
        return poly_str(self)


def _combine(a: Poly, b: Poly, op) -> Poly:
    # a + b or a - b on the numerators over their common denominator
    (x, y), den, _ = int_entries((a, b))
    return poly_over([op(u, v) for u, v in zip_longest(x, y, fillvalue=0)], den)


def poly_over(ints, den: int) -> Poly:
    """The polynomial sum_k ints[k] x^k / den, den > 0, for a kernel's
    integer result, trailing zeros allowed: ints over den divided by their
    gcd, stored as they are, with no Fraction made."""
    ints = _trim(ints)
    g = math.gcd(den, *ints)
    if g > 1:
        ints, den = tuple([c // g for c in ints]), den // g
    p = Poly.__new__(Poly)
    p._ints = ints, den, _bits(ints)
    return p


_P0 = Poly()
_P1 = Poly((1,))
X = Poly((0, 1))


def int_form(p: Poly):
    """(numerators, their least common denominator, the largest numerator's
    bit length): the form p is stored in, ((), 1, 0) for zero. Equal
    polynomials have equal forms."""
    return p._ints


def int_entries(polys):
    """(numerator lists, L, b) of a list of polynomials over their common
    denominator L, zero polynomials as empty lists, with every numerator
    below 2^b in magnitude. b comes from each ``int_form``'s stored bit length
    and the bits of its scale; no coefficient is scanned."""
    forms = [p._ints for p in polys]
    den = math.lcm(*[d for _, d, _ in forms])
    nums, bits = [], 0
    for ints, d, b in forms:
        if d != den:
            s = den // d
            ints, b = tuple([s * c for c in ints]), b + (s - 1).bit_length()
        nums.append(ints)
        if ints and b > bits:
            bits = b
    return nums, den, bits


def int_matrix(rows):
    """(integer rows, L) of rows of Fractions over their common denominator L."""
    den = math.lcm(*(v.denominator for r in rows for v in r))
    return [[v.numerator * (den // v.denominator) for v in r] for r in rows], den


def pack_width(bits: int, step: int = 64) -> int:
    """The width w at which sums of products whose integer coefficients lie
    below 2^bits in magnitude pack injectively: every digit in
    [-2^(w-1), 2^(w-1)). One sign bit, rounded up to a multiple of ``step``,
    so that sums of nearby sizes share a width and what is packed at it."""
    return -(-(bits + 1) // step) * step


def pack(ints, w: int) -> int:
    """sum_k ints[k] 2^(w k), linear in ints; 0 for no digits."""
    v = 0
    for c in reversed(ints):
        v = (v << w) + c
    return v


def unpack(v, w, count):
    """The digits c_k of v = sum c_k 2^(w k), each in [-2^(w-1), 2^(w-1))."""
    mask, half, out = (1 << w) - 1, 1 << (w - 1), []
    for _ in range(count):
        c = v & mask
        v >>= w
        if c >= half:  # a negative digit borrows one from the next
            c -= 1 << w
            v += 1
        out.append(c)
    return out


def _kept(memo: dict, key, value):
    # memo[key] = value, a full memo emptied first: plain bounded dicts,
    # since a functools cache marks its function as wrapped
    if len(memo) >= 1024:
        memo.clear()
    memo[key] = value
    return value


_OFFSETS = {}  # (w, k): digit's offset


def digit(v: int, w: int, k: int) -> int:
    """Digit c_k of v = sum c_i 2^(w i), each c_i in [-2^(w-1), 2^(w-1)),
    without unpacking: adding 2^(w-1) to each of the digits 0..k makes them
    the ordinary base-2^w digits of the sum. The offset is kept per (w, k)."""
    offset = _OFFSETS.get((w, k)) or _kept(_OFFSETS, (w, k), ((1 << (w * k + w)) - 1) // ((1 << w) - 1) << (w - 1))
    return (((v + offset) >> (w * k)) & ((1 << w) - 1)) - (1 << (w - 1))


def poly_dot(pairs) -> Poly:
    """Sum of a * b over (Poly, Poly) pairs: the integer forms of each pair
    over the common denominator L of all products, one ``int_poly_dot``."""
    forms = [(a._ints, b._ints) for a, b in pairs]
    den = math.lcm(*(fa[1] * fb[1] for fa, fb in forms))
    ints, _ = int_poly_dot([(den // (fa[1] * fb[1]), (fa[0], fa[2]), (fb[0], fb[2])) for fa, fb in forms])
    return poly_over(ints, den)


def int_poly(ints):
    """The operand form of ``int_poly_dot`` and ``int_poly_matmul``: an
    integer coefficient tuple without trailing zeros and the bit length of
    its largest coefficient, (), 0 for zero. Results come in this form, so
    no operand is scanned for its width again."""
    ints = _trim(ints)
    return ints, _bits(ints)


def int_poly_dot(terms):
    """Sum of c a b over (c, a, b), c an integer and a, b ``int_poly``
    operands, as an ``int_poly``: each pair packed, the packed integers
    multiplied, scaled by c, summed and unpacked once, at a width with room
    for c, both operands, the terms of one coefficient and the number of
    terms, from the bit lengths the operands carry."""
    terms = [(c, a, b, ab + bb) for c, (a, ab), (b, bb) in terms if c and a and b]
    if not terms:
        return (), 0
    bits = (len(terms) - 1).bit_length() + max(s + (abs(c) * min(len(a), len(b)) - 1).bit_length() for c, a, b, s in terms)
    w = pack_width(bits, 1)
    acc = sum(c * pack(a, w) * pack(b, w) for c, a, b, _ in terms)
    return int_poly(unpack(acc, w, max(len(a) + len(b) for _, a, b, _ in terms) - 1))


def int_poly_matmul(a, b, n: int):
    """The product of n x n matrices of ``int_poly`` entries, each flattened
    by row, as ``int_poly`` entries: every entry packed once at one width,
    from the bit lengths the entries carry, each cell one sum of packed
    products."""
    (a, ba), (b, bb) = zip(*a), zip(*b)
    la, lb = max(map(len, a)), max(map(len, b))
    if not (la and lb):
        return [((), 0)] * (n * n)
    bits = (n - 1).bit_length() + (min(la, lb) - 1).bit_length()
    w = pack_width(bits + max(ba) + max(bb), 1)
    pa, pb = [pack(e, w) for e in a], [pack(e, w) for e in b]
    return [int_poly(unpack(sum(map(operator.mul, pa[r * n : (r + 1) * n], pb[c::n])), w, la + lb - 1))
            for r in range(n) for c in range(n)]


def int_poly_derivative(a) -> tuple[int, ...]:
    """The derivative of an integer coefficient list."""
    return tuple(k * c for k, c in enumerate(a) if k)


def int_poly_quo(a, b) -> tuple[int, ...] | None:
    """a / b for integer coefficient lists, b primitive and nonzero, or None
    when b does not divide a. By Gauss's lemma a quotient of an integer
    polynomial by a primitive one is integral, so each step of the long
    division divides exactly or decides that b does not divide a."""
    if not a:
        return ()
    db, lb, r = len(b) - 1, b[-1], list(a)
    quo = [0] * (len(r) - db)
    for k in range(len(r) - 1, db - 1, -1):
        if r[k]:
            f, rest = divmod(r[k], lb)
            if rest:
                return None
            quo[k - db] = f
            for i, v in enumerate(b):
                r[k - db + i] -= f * v
    return None if any(r[:db]) else tuple(quo)


def _as_poly(v):
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return poly_over((v.numerator,), v.denominator)
    return None


def poly_quo(a: Poly, b: Poly) -> Poly | None:
    """a / b, or None when b does not divide a, in Z[x]: ``int_poly_quo`` on
    a's numerators against the primitive part of b's (Gauss's lemma), the
    quotient then rescaled by both denominators and b's content."""
    if b.is_zero:
        raise DomainError("polynomial division by zero")
    if a.is_zero:
        return _P0
    (na, la, _), (nb, lb, _) = int_form(a), int_form(b)
    g = math.gcd(*nb)
    quo = int_poly_quo(na, [c // g for c in nb])
    return None if quo is None else poly_over([c * lb for c in quo], la * g)


def exact_div(a: Poly, b: Poly) -> Poly:
    """Divide a by b; b must divide a."""
    quo = poly_quo(a, b)
    if quo is None:
        raise DivisionError(f"{b} does not divide {a}")
    return quo


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd (0 for two zeros), by the primitive pseudo-remainder
    sequence of ``_sturm_rem`` on integer numerators."""
    if a.is_zero or b.is_zero:
        return (a or b).monic()
    x, y = (_primitive_coeffs(int_form(p)[0]) for p in (a, b))
    while len(y) > 1:
        x, y = y, _sturm_rem(x, y)
        if not y:
            return poly_over(x, 1).monic()
    return _P1


def poly_str(p: Poly) -> str:
    """Render like '3/2*x^2 - x + 1'; parseable by the DSL expression grammar."""
    if p.is_zero:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p[k]
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if k == 0:
            body = str(mag)
        else:
            xs = "x" if k == 1 else f"x^{k}"
            body = xs if mag == 1 else f"{mag}*{xs}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts)


def lowest_terms(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """num / den with gcd(num, den) = 1 and den monic; 0 is 0 / 1."""
    if den == _P1:
        return num, den
    g = poly_gcd(num, den) * den.lc
    return exact_div(num, g), exact_div(den, g)


def ratio_str(num: Poly, den: Poly) -> str:
    """num / den in ``lowest_terms``, rendered like '(x + 1)/(x^2 - 2)', or
    as ``poly_str`` when the denominator is 1."""
    num, den = lowest_terms(num, den)
    return poly_str(num) if den == _P1 else f"({poly_str(num)})/({poly_str(den)})"


def nonneg_integer_roots(p: Poly) -> list[int]:
    """All nonnegative integer roots of a nonzero polynomial, by exact root
    isolation.

    The Sturm sequence of the square-free part q counts q's distinct real
    roots in (a, b] as V(a) - V(b), V the number of sign changes. Bisecting
    (-1, B], B a Cauchy bound, down to unit intervals (k - 1, k] leaves the
    candidates k, each tested exactly. The work grows with the degree and
    log B, not with the size of the roots. Every polynomial here is a
    primitive integer coefficient list, and each remainder of the chain is
    scaled by positive integers only (``_sturm_rem``), which keeps its signs.
    """
    q, chain, bound = _sturm(p)
    roots, todo = [], [(-1, bound, _changes(chain, -1), _changes(chain, bound))]
    while todo:
        a, b, va, vb = todo.pop()
        if b - a == 1:
            if not _value(q, b):
                roots.append(b)
            continue
        m = (a + b) // 2
        vm = _changes(chain, m)
        for half in ((a, m, va, vm), (m, b, vm, vb)):
            if half[2] > half[3]:
                todo.append(half)
    return sorted(roots)


def real_root_count(p: Poly, lo=None, hi=None) -> int:
    """The number of distinct real roots of a nonzero polynomial in the open
    interval (lo, hi), each end an integer or None for an infinite one: V(lo)
    - V(hi) on ``nonneg_integer_roots``' Sturm chain counts (lo, hi]."""
    q, chain, bound = _sturm(p)
    lo, hi = -bound if lo is None else lo, bound if hi is None else hi
    return _changes(chain, lo) - _changes(chain, hi) - (not _value(q, hi))


def _sturm(p: Poly):
    """(q, chain, B): q the square-free part of p's primitive integer
    numerators, the Sturm chain of q and a Cauchy bound B > |every root|."""
    if p.is_zero:
        raise DomainError("zero polynomial has every integer as a root")
    q = _primitive_coeffs(int_form(p)[0])
    chain = _sturm_chain(q) if len(q) > 1 else [q]
    if len(chain[-1]) > 1:  # the chain of q, q' ends in their gcd
        q = int_poly_quo(q, chain[-1])
        chain = _sturm_chain(q)
    return q, chain, 1 + -(-max(map(abs, q[:-1]), default=0) // abs(q[-1]))


def _changes(chain, x: int) -> int:
    """Sign changes along the chain at x, zeros skipped."""
    out, last = 0, 0
    for cs in chain:
        v = _value(cs, x)
        if v:
            if last and (v > 0) != (last > 0):
                out += 1
            last = v
    return out


def _primitive_coeffs(ints) -> tuple[int, ...]:
    """Integer coefficients divided by their (positive) gcd."""
    g = math.gcd(*ints)
    return tuple(c // g for c in ints) if g > 1 else tuple(ints)


def _sturm_chain(q):
    """q, q', then -rem of the last two, each primitive, until a constant or
    a zero remainder; a zero remainder leaves gcd(q, q') last."""
    chain = [q, _primitive_coeffs(int_poly_derivative(q))]
    while len(chain[-1]) > 1:
        r = _sturm_rem(chain[-2], chain[-1])
        if not r:
            break
        chain.append(r)
    return chain


def _sturm_rem(a, b):
    """-rem(a, b) times a positive integer, primitive: each step clears the
    top of r as u r - v x^(k - deg b) b with u = |lc b| / g > 0."""
    r, db, lb = list(a), len(b) - 1, b[-1]
    for k in range(len(r) - 1, db - 1, -1):
        if r[k]:
            g = math.gcd(r[k], lb)
            u, v = abs(lb) // g, r[k] // g if lb > 0 else -r[k] // g
            if u != 1:
                r = [u * c for c in r]
            for i, c in enumerate(b):
                r[k - db + i] -= v * c
    return _primitive_coeffs([-c for c in _trim(r[:db])])


def _value(ints, x: int) -> int:
    # Horner on a coefficient list, lowest power first
    v = 0
    for c in reversed(ints):
        v = v * x + c
    return v


# ---------------------------------------------------------------------------
# rational functions


class RatFunc:
    """Quotient of two polynomials in canonical form: monic coprime denominator."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=_P1):
        num = _as_poly(num)
        den = _as_poly(den)
        if num is None or den is None:
            raise TypeError("RatFunc expects polynomial or rational arguments")
        if den.is_zero:
            raise DomainError("zero denominator")
        self.num, self.den = lowest_terms(num, den)
        self._hash = None

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self):
        return not self.num.is_zero

    def __eq__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __add__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        if self.den == _P1 and other.den == _P1:
            return RatFunc(self.num + other.num)
        return RatFunc(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = RatFunc.__new__(RatFunc)
        out.num = -self.num
        out.den = self.den
        out._hash = None
        return out

    def __sub__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        if self.den == _P1 and other.den == _P1:
            return RatFunc(self.num * other.num)
        return RatFunc(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise DomainError("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        other = _as_ratfunc(other)
        if other is None:
            return NotImplemented
        return other / self

    def __repr__(self):
        return f"RatFunc({self!s})"

    def __str__(self):
        return ratio_str(self.num, self.den)


_RF0 = RatFunc(_P0)


def _as_ratfunc(v):
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, Poly):
        return RatFunc(v)
    if isinstance(v, (int, Fraction)):
        return RatFunc(Poly.const(v))
    return None


def den_lcm(dens) -> Poly:
    """The monic lcm of monic polynomials."""
    q = _P1
    for e in set(dens):
        if e != q:
            q = exact_div(q * e, poly_gcd(q, e))
    return q


# ---------------------------------------------------------------------------
# elimination: bareiss (dense) and nullspace (sparse)


def solve_square(a_rows, b_rows):
    """Solve A X = B exactly, A square, over either field (Fraction,
    RatFunc): ``bareiss`` on [A | B] over one denominator gives det A and
    det(A) A^-1 B, and each entry of X is one quotient. Raises
    SingularError."""
    rows, _ = _cleared([list(a) + list(b) for a, b in zip(a_rows, b_rows)])
    det, rest = bareiss(rows)
    if rest is None:
        raise SingularError("singular linear system")
    quo = RatFunc if isinstance(det, Poly) else Fraction
    return [[quo(v, det) for v in r] for r in rest]


def _cleared(rows):
    """Rows of Fractions as (integer rows, L) over their common denominator
    L, or rows of RatFuncs as (Poly rows, q) over q, the monic lcm of their
    denominators: the entries ``bareiss`` takes."""
    if not isinstance(rows[0][0], RatFunc):
        return int_matrix(rows)
    q = den_lcm(f.den for r in rows for f in r)
    return [[e.num if e.den == q else e.num * exact_div(q, e.den) for e in r] for r in rows], q


def bareiss(rows):
    """det A and det(A) A^-1 B for rows [A | B], A the leading square block
    (with B = I, the adjugate of A), by fraction-free (Bareiss) elimination
    on integers (``_fraction_free``). Entries are all ints, all integer
    coefficient tuples (polynomials, lowest power first, zero as ()) or all
    Poly, and the results are of the same kind; (0, None) when A is
    singular. A polynomial matrix is eliminated as the integers its entries
    pack to, Poly entries over their common denominator L (which scales
    both results by L^n): packing at width w is evaluation at x = 2^w, a
    ring homomorphism, so every division stays exact, and at a width that
    holds every minor it is injective on all that elimination forms.
    ``FracMat.det``, ``MatRF.det`` and ``solve_square`` (and through it
    ``FracMat.inv`` and ``MatRF.inverse``) call it over one denominator.
    """
    first = rows[0][0]
    if isinstance(first, int):
        return _fraction_free(rows)
    n, width, poly = len(rows), len(rows[0]), isinstance(first, Poly)
    if poly:
        flat, den, _ = int_entries([e for r in rows for e in r])
        rows = [flat[i : i + width] for i in range(0, len(flat), width)]
    entries = [e for r in rows for e in r if e]
    # a minor of order m <= n sums m! products of m entries, each of degree
    # <= deg with coefficients below 2^bits in magnitude
    bits, deg = max(map(_bits, entries), default=0), max(map(len, entries), default=1) - 1
    w = pack_width(math.factorial(n).bit_length() + n * bits + (n - 1) * (deg + 1).bit_length())
    det, rest = _fraction_free([[pack(e, w) for e in r] for r in rows])
    if rest is None:
        return (_P0 if poly else ()), None
    scale = den**n if poly else 1

    def out(v):
        digits = unpack(v, w, n * deg + 1)
        return poly_over(digits, scale) if poly else _trim(digits)

    return out(det), [[out(v) for v in r] for r in rest]


def _fraction_free(rows):
    """``bareiss`` on integers: at step k each other row becomes (p a_i -
    a_ik a_k) / p', p the pivot a_kk and p' the one before, and every
    division is exact. With a B the rows above each pivot are cleared as
    well (Gauss-Jordan), which the determinant alone does not need.
    """
    n = len(rows)
    a = [list(r) for r in rows]
    prev, sign = 1, 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return 0, None
        if p != k:
            a[k], a[p], sign = a[p], a[k], -sign
        piv, pivot_row = a[k][k], a[k][k:]
        for i in range(n) if len(a[k]) > n else range(k + 1, n):
            if i != k:
                f = a[i][k]
                cells = (piv * v - f * w for v, w in zip(a[i][k:], pivot_row))
                a[i][k:] = [c // prev for c in cells] if prev != 1 else cells
        prev = piv
    return prev * sign, [[v * sign for v in r[n:]] for r in a]


def _primitive(r):
    """A sparse integer row {col: value} divided by the gcd of its values."""
    g = math.gcd(*r.values())
    return {k: v // g for k, v in r.items()} if g > 1 else r


def _clear(r, prow, p):
    """r := b r - a prow in place, a/b = r[p]/prow[p] in lowest terms, over the
    union of both rows' nonzeros; entries that cancel (p among them) are
    removed. Returns r."""
    g = math.gcd(r[p], prow[p])
    a, b = r[p] // g, prow[p] // g
    if b != 1:
        for k in r:
            r[k] *= b
    for k, v in prow.items():
        w = r.get(k, 0) - a * v
        if w:
            r[k] = w
        else:
            del r[k]
    return r


def _echelon(rows):
    """(pivots, rows) of the reduced row echelon form of a matrix over Q, each
    row an integer multiple of its RREF row, kept as {col: value}.

    Rows are sequences of ints or Fractions. Sparse and fraction-free: each
    row becomes a primitive integer row {col: value} of its nonzeros (over
    their common denominator when one is a Fraction) and is
    reduced, in turn, by the pivot rows kept before it, so it is zero at
    their pivots; a row left nonzero is kept, its pivot its first nonzero
    column. Back substitution then clears each pivot column in the rows
    above. Every step is an integer combination (``_clear``) over the union
    of two rows' nonzeros, pivot rows kept primitive.
    """
    pivots, echelon = [], []
    for row in rows:
        r = {k: c for k, c in enumerate(row) if c}
        if any(type(c) is Fraction for c in r.values()):
            r = dict(zip(r, int_matrix([r.values()])[0][0]))
        r = _primitive(r)
        for p, prow in zip(pivots, echelon):
            if p in r:
                r = _clear(r, prow, p)
        if r:
            pivots.append(min(r))
            echelon.append(_primitive(r))
    for i in range(len(echelon) - 1, 0, -1):
        p, r = pivots[i], echelon[i]
        for j in range(i):
            if p in echelon[j]:
                echelon[j] = _primitive(_clear(echelon[j], r, p))
    return pivots, echelon


def nullspace(rows, ncols) -> list[list[Fraction]]:
    """Basis of the right nullspace of a matrix over Q, read off its RREF
    (``_echelon``), one Fraction per entry: the basis elimination over Q
    gives, the RREF being unique."""
    pivots, echelon = _echelon(rows)
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [_F0] * ncols
        v[free] = _F1
        for p, prow in zip(pivots, echelon):
            c = prow.get(free)
            if c:
                v[p] = Fraction(-c, prow[p])
        basis.append(v)
    return basis


def read_off(basis, cols, ncols):
    """``nullspace``'s basis of the span of ``basis``, whose column k is column
    cols[k]: its vectors end at distinct columns, 1 there and 0 at the other
    ends, so it is the span's RREF with the columns reversed. As (integers,
    denominator) pairs, in the order of those ends."""
    back = sorted(range(ncols), key=cols.__getitem__, reverse=True)
    out = []
    for p, e in sorted(zip(*_echelon([[v[i] for i in back] for v in basis])), key=lambda pe: -pe[0]):
        s = -1 if e[p] < 0 else 1
        out.append(([s * e.get(ncols - 1 - k, 0) for k in range(ncols)], s * e[p]))
    return out


# ---------------------------------------------------------------------------
# matrices


class Matrix:
    """Immutable matrix, the shared skeleton of FracMat, MatRF and MatPoly.

    A subclass fixes its entry coercion ``_coerce`` (one call per entry,
    TypeError when it does not apply), its zero ``_zero``, the scalar types it
    multiplies by, and whether it must be square. Entries are tested for zero
    by truth value, so products skip zero terms.
    """

    __slots__ = ("rows", "_hash")
    _square = True

    def __init__(self, rows):
        coerce = self._coerce
        self.rows = tuple(tuple(coerce(c) for c in r) for r in rows)
        self._hash = None
        n = len(self.rows)
        if self._square:
            if n < 1 or any(len(r) != n for r in self.rows):
                raise ShapeError(f"{type(self).__name__} must be square, size >= 1")
        elif n and any(len(r) != len(self.rows[0]) for r in self.rows):
            raise ShapeError("ragged matrix")

    @classmethod
    def _of(cls, rows):
        """The matrix on ``rows`` without coercion or shape checks. Trusts
        that ``rows`` are equal-length rows of the class's entry type (square
        and nonempty where the class must be square)."""
        m = cls.__new__(cls)
        m.rows, m._hash = tuple(map(tuple, rows)), None
        return m

    @classmethod
    def identity(cls, n: int):
        return cls.diag(*([1] * n))

    @classmethod
    def zeros(cls, n: int, m: int | None = None):
        return cls([[cls._zero] * (n if m is None else m) for _ in range(n)])

    @classmethod
    def diag(cls, *entries):
        n = len(entries)
        return cls([[entries[i] if i == j else cls._zero for j in range(n)] for i in range(n)])

    @classmethod
    def blockdiag(cls, parts):
        """The matrix with ``parts`` down the diagonal and zeros elsewhere,
        built without coercion: trusts that the parts are matrices of the
        class's entry type, square where the class must be square."""
        width = sum(p.ncols for p in parts)
        rows, off = [], 0
        for p in parts:
            for r in p.rows:
                rows.append([cls._zero] * off + list(r) + [cls._zero] * (width - off - len(r)))
            off += p.ncols
        return cls._of(rows)

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, i, j):
        return self.rows[i][j]

    @property
    def is_zero(self) -> bool:
        return not any(c for r in self.rows for c in r)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.rows)
        return self._hash

    def _entrywise(self, other, op):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeError("matrix size mismatch")
        if op is operator.add and type(other) is type(self) and (self.is_zero or other.is_zero):
            return self if other.is_zero else other
        rows = [[op(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        return (type(self)._of if type(other) is type(self) else type(self))(rows)

    def __add__(self, other):
        return self._entrywise(other, operator.add)

    def __sub__(self, other):
        return self._entrywise(other, operator.sub)

    def __neg__(self):
        return type(self)._of((-c for c in r) for r in self.rows)

    def _dot(self, row, col):
        acc = self._zero
        for a, b in zip(row, col):
            if a and b:
                acc = acc + a * b
        return acc

    def __mul__(self, other):
        if isinstance(other, type(self)):
            if self.ncols != other.nrows:
                raise ShapeError("matrix size mismatch")
            cols = list(zip(*other.rows))
            dot = self._dot
            return type(self)._of([dot(row, col) for col in cols] for row in self.rows)
        if isinstance(other, self._scalars):
            s = self._coerce(other)
            return type(self)._of((c * s if c else c for c in r) for r in self.rows)
        return NotImplemented

    def __rmul__(self, other):
        # every scalar ring here is commutative
        return self * other if isinstance(other, self._scalars) else NotImplemented

    def transpose(self):
        return type(self)._of(zip(*self.rows))

    def __repr__(self):
        body = "; ".join(", ".join(str(c) for c in r) for r in self.rows)
        return f"{type(self).__name__}[{body}]"


class FracMat(Matrix):
    """Immutable matrix of Fractions (rectangular)."""

    __slots__ = ()
    _square = False
    _zero = _F0
    _scalars = (int, Fraction)
    _coerce = staticmethod(frac)

    def det(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ShapeError("determinant of a nonsquare matrix")
        ints, den = int_matrix(self.rows)
        return Fraction(bareiss(ints)[0], den**self.nrows)

    def inv(self) -> "FracMat":
        if self.nrows != self.ncols:
            raise ShapeError("inverse of a nonsquare matrix")
        return FracMat(solve_square(self.rows, FracMat.identity(self.nrows).rows))


class MatRF(Matrix):
    """Square matrix with RatFunc entries."""

    __slots__ = ()
    _zero = _RF0
    _scalars = (RatFunc, Poly, int, Fraction)

    @staticmethod
    def _coerce(v) -> RatFunc:
        if isinstance(v, RatFunc):
            return v
        if isinstance(v, (Poly, int, Fraction)):
            return RatFunc(v)
        raise TypeError(f"cannot coerce {v!r} to RatFunc")

    def det(self) -> RatFunc:
        polys, q = _cleared(self.rows)
        return RatFunc(bareiss(polys)[0], q**self.size)

    def inverse(self) -> "MatRF":
        return MatRF(solve_square(self.rows, MatRF.identity(self.size).rows))
