"""Matrix differential operators in normal form, acting on the right.

An operator ``sum_j d^j F_j(x)`` is stored as polynomial matrix numerators
N_j over one monic scalar denominator ``den``, F_j = N_j / den, with
gcd(den, every entry) = 1: a canonical form, so ``==`` and ``hash`` are
structural, and ``den`` is 1 on every polynomial operator. A rational
coefficient or action is returned the same way, as numerators and one
denominator. An operator acts on a matrix polynomial P from the right:

    P . D = sum_j P^(j)(x) F_j(x)

and consequently the product ``compose(A, B)`` is "apply A first, then B".
That convention matches the factorization D = V N in which V is applied
first, and it fixes all sign and ordering questions below:

    (d^i F)(d^j G) = sum_m binom(j, m) d^(i+m) F^(j-m) G.

So the d^k coefficient of A B collects apply(F_i, B_m) over i + m = k, with
B_m = sum_{j >= m} binom(j, m) d^(j-m) G_j. Both run through one integer
kernel, ``int_action``: the entries of P and its derivatives, formed on
integer numerators, and those of the N_j, each over one common denominator,
are packed at one width and kept per width by the matrix or operator they
came from (``IntForm``), and each cell is one row-by-column sum of packed
integers over the flattened (j, k) index. ``apply`` unpacks those
sums, ``compose`` sums over the concatenated (m, j) blocks of each d^k
coefficient, and ``dwalgebra.relation`` tests them for zero without
unpacking. The right operand's ``den`` divides the result, and a left
operand N / q is N o (1/q), so 1/q moves into the right operand first.

The weight adjoint is the twisted Leibniz sum on integer numerators, with
the non-rational scalar density cancelled through its logarithmic
derivative; the symbol determinant of ``degree_preserving`` is taken in Z[n].
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import zip_longest

from .exactalg import (
    _P1,  # one shared object: den == _P1 then compares one tuple with itself
    _kept,
    DomainError,
    FracMat,
    Matrix,
    NonPolynomialError,
    Poly,
    ShapeError,
    bareiss,
    exact_div,
    frac,
    int_entries,
    int_form,
    int_poly,
    int_poly_derivative,
    int_poly_dot,
    int_poly_matmul,
    int_poly_quo,
    nonneg_integer_roots,
    pack,
    pack_width,
    poly_dot,
    poly_gcd,
    poly_over,
    poly_quo,
    ratio_str,
    unpack,
)


# ---------------------------------------------------------------------------
# square matrices of polynomials


class IntForm:
    """The integer form of an immutable polynomial matrix or operator, kept
    by the object: ``degree`` and ``int_form`` once, ``packed`` and
    ``packed_cols`` once per width. A subclass lists its entries in
    ``_entries`` and has slots ``_deg``, ``_form`` and ``_packs``, left unset
    until first read so that making an object costs nothing more."""

    __slots__ = ()

    @property
    def degree(self) -> int:
        """The largest degree of an entry, -1 when every entry is zero."""
        if not hasattr(self, "_deg"):
            self._deg = max((e.degree for e in self._entries()), default=-1)
        return self._deg

    def int_form(self):
        """The ``int_entries`` form of the entries (by coefficient, row and
        column) over one denominator."""
        if not hasattr(self, "_form"):
            self._form = int_entries(self._entries())
        return self._form

    def packed(self, w: int, count: int):
        """By coefficient i and row r, row r of A_i, A_i', ...,
        A_i^(count-1) on the numerators of ``int_form``, concatenated and
        each entry packed at width w: entry (r, c) of A_i^(t) sits at
        t size + c, so a row's first (t + 1) size entries are those of the
        first t + 1 derivatives. A width kept with fewer derivatives packs
        only the missing ones; the derivatives themselves are not kept, since
        few objects are packed twice."""
        if not hasattr(self, "_packs"):
            self._packs = {}
        got, s = self._packs.get(w), self.size
        if got is None or (got and len(got[0][0]) < count * s):
            ints, nn, have = self.int_form()[0], s * s, len(got[0][0]) // s if got else 0
            chains = [int_derivatives(ints[i : i + nn], count)[have:] for i in range(0, len(ints), nn)]
            got = self._packs[w] = [[(got[i][r] if got else []) + [pack(e, w) for der in chain for e in der[r * s : (r + 1) * s]]
                                     for r in range(s)] for i, chain in enumerate(chains)]
        return got

    def packed_cols(self, w: int):
        """By column c, entry [k][c] of every coefficient A_j by (j, k), for
        ``int_action``: the ints of ``packed(w, 1)``'s rows, kept under -w."""
        got = getattr(self, "_packs", {}).get(-w)
        if got is None:
            rows = self.packed(w, 1)
            got = self._packs[-w] = [[row[c] for a in rows for row in a] for c in range(self.size)]
        return got


class MatPoly(IntForm, Matrix):
    """Square matrix with Poly entries (degree -1 when zero)."""

    __slots__ = ("_deg", "_form", "_packs", "_monic")
    _zero = Poly()
    _scalars = (Poly, int, Fraction)

    def _entries(self):
        return [e for r in self.rows for e in r]

    @staticmethod
    def _coerce(v) -> Poly:
        if isinstance(v, Poly):
            return v
        if isinstance(v, (int, Fraction)):
            return Poly.const(v)
        raise TypeError(f"cannot coerce {v!r} to Poly")

    @staticmethod
    def scalar(p: Poly, n: int) -> "MatPoly":
        return MatPoly.diag(*([p] * n))

    @property
    def monic_degree(self) -> int:
        """The degree d when the x^d coefficient is the identity, else -1;
        decided once, on the integer form."""
        try:
            return self._monic
        except AttributeError:
            d, (ints, den, _), s = self.degree, self.int_form(), self.size
            monic = d >= 0 and all(e[d:] == ((den,) if i % (s + 1) == 0 else ()) for i, e in enumerate(ints))
            self._monic = d if monic else -1
            return self._monic

    def coeff(self, k: int) -> FracMat:
        return FracMat._of((c[k] for c in r) for r in self.rows)

    def _dot(self, row, col):
        return poly_dot(zip(row, col))

    def lmul_const(self, m: FracMat) -> "MatPoly":
        """m . self with a constant matrix on the left."""
        if m.nrows != m.ncols or m.nrows != self.size:
            raise ShapeError("matrix size mismatch")
        return MatPoly([[Poly.const(c) for c in r] for r in m.rows]) * self

    def derivative(self) -> "MatPoly":
        return MatPoly._of((c.derivative() for c in r) for r in self.rows)


def ratio_matrix_str(num: MatPoly, den: Poly) -> str:
    """num / den as text, each entry by ``ratio_str``, as MatRF's repr shows it."""
    return "MatRF[" + "; ".join(", ".join(ratio_str(e, den) for e in r) for r in num.rows) + "]"


def _canonical(nums: list[MatPoly], den: Poly) -> tuple[list[MatPoly], Poly]:
    """nums / den with gcd(den, every entry) = 1 and den monic, by one gcd
    over all entries and one exact division of each, both in Z[x].
    ``Weight.atomic`` puts a rational factor in this form before it moves
    the denominator into the density."""
    g = den
    for e in (e for m in nums for r in m.rows for e in r):
        if g.degree < 1:
            break
        if e:
            g = poly_gcd(g, e)
    if g.degree > 0:
        den = exact_div(den, g)
        nums = [MatPoly([[exact_div(e, g) for e in r] for r in m.rows]) for m in nums]
    return [m * (1 / den.lc) for m in nums] if den.lc != 1 else nums, den.monic()


# ---------------------------------------------------------------------------
# operators


class DiffOp(IntForm):
    """Normal-form operator sum_j d^j F_j, stored as MatPoly numerators N_j
    (``coeffs``) over one monic scalar denominator ``den`` (module docstring).
    Its degree, integer form and packings (``IntForm``) are built once.

    The zero operator has an empty coefficient tuple and order -1.
    """

    __slots__ = ("size", "coeffs", "den", "_hash", "_deg", "_form", "_packs")

    def __init__(self, size: int, coeffs=(), den: Poly = _P1):
        """F_j = coeffs[j] / den, each coeffs[j] a polynomial matrix."""
        cs = [c if isinstance(c, MatPoly) else MatPoly(c.rows) for c in coeffs]
        for c in cs:
            if c.size != size:
                raise ShapeError("coefficient size mismatch")
        while cs and cs[-1].is_zero:
            cs.pop()
        if den != _P1:
            cs, den = _canonical(cs, den)
        self.size = size
        self.coeffs = tuple(cs)
        self.den = den
        self._hash = None

    # -- constructors

    @staticmethod
    def zero(size: int) -> "DiffOp":
        return DiffOp(size, ())

    @staticmethod
    def identity(size: int) -> "DiffOp":
        return DiffOp(size, (MatPoly.identity(size),))

    @staticmethod
    def from_matrices(size: int, coeffs) -> "DiffOp":
        return DiffOp(size, coeffs)

    @staticmethod
    def scalar(coeffs) -> "DiffOp":
        """1x1 operator from a list of Poly coefficients by d-power."""
        return DiffOp(1, [MatPoly([[c]]) for c in coeffs])

    @staticmethod
    def ddx(size: int = 1) -> "DiffOp":
        return DiffOp(size, (MatPoly.zeros(size), MatPoly.identity(size)))

    @staticmethod
    def const(m: FracMat) -> "DiffOp":
        return DiffOp(m.nrows, (MatPoly(m.rows),))

    # -- structure

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_polynomial(self) -> bool:
        return self.den == _P1

    def coeff(self, j: int) -> MatPoly:
        """The numerator N_j: F_j = N_j / ``den``, F_j itself when polynomial."""
        return self.coeffs[j] if 0 <= j < len(self.coeffs) else MatPoly.zeros(self.size)

    def _entries(self):
        return [e for f in self.coeffs for r in f.rows for e in r]

    def poly_coeffs(self) -> tuple[MatPoly, ...] | None:
        """Coefficients as MatPoly when every entry is polynomial, else None."""
        return self.coeffs if self.is_polynomial else None

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.size == other.size and self.den == other.den and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.size, self.coeffs, self.den))
        return self._hash

    # -- linear structure (scalar multiples commute with everything, so these
    #    are safe; any other product must go through compose)

    def __add__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        if self.size != other.size:
            raise ShapeError("operator size mismatch")
        a, b, den = _common(self, other)
        return DiffOp(self.size, [*map(operator.add, a, b), *a[len(b):], *b[len(a):]], den)

    def __sub__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        if self.size != other.size:
            raise ShapeError("operator size mismatch")
        a, b, den = _common(self, other)
        return DiffOp(self.size, [*map(operator.sub, a, b), *a[len(b):], *(-c for c in b[len(a):])], den)

    def __neg__(self):
        return DiffOp(self.size, [-c for c in self.coeffs], self.den)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = frac(other)
            return DiffOp(self.size, [m * c for m in self.coeffs], self.den)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        from .dsl import op_str  # local import; dsl depends on this module

        if self.is_polynomial:
            return f"DiffOp<{op_str(self)}>"
        # rational entries have no document form; show each in lowest terms
        return "DiffOp<" + " + ".join(f"d^{j}*{ratio_matrix_str(self.coeffs[j], self.den)}" for j in range(self.order, -1, -1)) + ">"


def _common(a: DiffOp, b: DiffOp):
    """The numerators of a and of b over one denominator, and it."""
    if a.den == b.den:
        return a.coeffs, b.coeffs, a.den
    return [c * b.den for c in a.coeffs], [c * a.den for c in b.coeffs], a.den * b.den


def int_derivatives(ints, count: int):
    """The numerator lists of p, p', ..., p^(count-1) for each list of ints
    (over the same denominator: [x^k] p^(j) is k (k-1) ... (k-j+1) [x^(k+j)] p)."""
    chain = [ints]
    for _ in range(1, count):
        chain.append([int_poly_derivative(e) for e in chain[-1]])
    return chain


_SCALES = {}  # (deg, order, top, mtop): int_action's scale


def int_action(a: IntForm, s: int, t: IntForm, extra_bits: int = 0, ks=(0,)):
    """The cells of the d^k coefficients, k in ``ks``, of A T as packed
    integers: A = sum_i d^i A_i, a MatPoly (one A_0) or a DiffOp, and T =
    sum_j d^j F_j a DiffOp, both of size s with ``int_form``s over L and L_T.
    Cell (r, c) is one C-level row-by-column sum over the concatenated (m, j)
    blocks, i = k - m: row r lists binom(j, m) A_i^(j-m)[r][l], column c
    F_j[l][c] (``packed_cols``), by l, and digit e over L L_T is [x^e] of the
    cell. For A = P and k = 0 the cells are P . T. The width w holds every
    digit and ``extra_bits`` more, room for a caller's own sums. Returns
    (sums by k, w, bits): every digit is below 2^bits.
    """
    (ints, _, abits), (tints, _, tbits) = a.int_form(), t.int_form()
    nn = s * s
    order, deg, torder, tdeg = len(ints) // nn - 1, a.degree, len(tints) // nn - 1, t.degree
    top, mtop = min(torder, deg), min(max(ks, default=0), torder)
    # A_i^(u) vanishes for u > deg and multiplies [x^e] A_i by at most
    # deg!/(deg-u)!; each cell's digit sums at most min(deg, deg F) + 1
    # products per (j, l). Kept per (deg, order of T, top, mtop).
    key = (deg, torder, top, mtop)
    scale = _SCALES.get(key)
    if scale is None:
        scale = _kept(_SCALES, key, max((sum(math.comb(j, m) * math.perm(deg, j - m) for m in range(max(0, j - top), min(j, mtop) + 1))
                                         for j in range(torder + 1)), default=0))
    bits = abits + tbits + ((torder + 1) * s * (min(deg, tdeg) + 1) * scale - 1).bit_length()
    w = pack_width(bits + extra_bits)
    packed, cols = a.packed(w, max(top, 0) + 1), t.packed_cols(w)
    out = []
    for k in ks:
        if k == 0 and order == 0:  # P . T: blocks (0, j), j <= top, binomials 1; a sum stops at the row's end
            rows = [row[: (top + 1) * s] for row in packed[0]]
            out.append([[sum(map(operator.mul, row, col)) for col in cols] for row in rows])
            continue
        blocks = [(m, j) for m in range(max(0, k - order), min(k, torder) + 1) for j in range(m, min(torder, m + top) + 1)]
        left = [(math.comb(j, m), packed[k - m], (j - m) * s) for m, j in blocks]
        rows = [[b * v if b > 1 else v for b, a_i, at in left for v in a_i[r][at : at + s]] for r in range(s)]
        bcols = [[v for _, j in blocks for v in col[j * s : (j + 1) * s]] for col in cols]
        out.append([[sum(map(operator.mul, row, col)) for col in bcols] for row in rows])
    return out, w, bits


def _unpacked(sums, w, a: IntForm, t: IntForm) -> list[MatPoly]:
    # int_action(a, s, t)'s sums by k, each cell's digits over L L_T
    den, count = a.int_form()[1] * t.int_form()[1], a.degree + t.degree + 1
    return [MatPoly._of((poly_over(unpack(v, w, count), den) for v in row) for row in cells) for cells in sums]


def quotient_chain(p: Poly, q: Poly, count: int) -> list[Poly]:
    """N_0, ..., N_{count-1} with (p/q)^(t) = N_t / q^(t+1), by the quotient
    rule N_{t+1} = N_t' q - (t+1) q' N_t."""
    dq, chain = q.derivative(), [p]
    for t in range(1, count):
        chain.append(chain[-1].derivative() * q - chain[-1] * (t * dq))
    return chain


def _under(q: Poly, d: DiffOp) -> DiffOp:
    """The operator (1/q) o d, with P . (1/q) o d = (P/q) . d: by Leibniz its
    d^m coefficient is sum_{j >= m} binom(j, m) (1/q)^(j-m) F_j, over q^(n+1)
    with n the order of d."""
    n = d.order
    chain, powers = quotient_chain(_P1, q, n + 1), [q**i for i in range(n + 2)]
    return DiffOp(d.size, [
        sum((d.coeffs[j] * (chain[j - m] * powers[n - j + m] * math.comb(j, m)) for j in range(m, n + 1)),
            MatPoly.zeros(d.size))
        for m in range(n + 1)
    ], powers[n + 1] * d.den)


def action(p: MatPoly, d: DiffOp) -> tuple[MatPoly, Poly]:
    """P . D = sum_j P^(j) F_j as (numerators, denominator), the denominator
    1 exactly when the action is polynomial.

    ``int_action``'s sums, unpacked, over the right operand's ``den``; an
    exact division by it decides whether the result is polynomial.
    """
    if p.size != d.size:
        raise ShapeError("size mismatch in apply")
    s = _unpacked(*int_action(p, p.size, d)[:2], p, d)[0]
    if d.is_polynomial:
        return s, _P1
    quos = [[poly_quo(e, d.den) for e in r] for r in s.rows]
    if any(None in r for r in quos):
        return s, d.den
    return MatPoly(quos), _P1


def apply(p: MatPoly, d: DiffOp) -> MatPoly:
    """Right action P . D = sum_j P^(j) F_j, which must be polynomial
    (``action`` returns a rational one)."""
    s, den = action(p, d)
    if den != _P1:
        raise NonPolynomialError("the action P . D is not polynomial")
    return s


def compose(first: DiffOp, second: DiffOp) -> DiffOp:
    """Operator product: apply ``first``, then ``second`` (module docstring).

    Each d^k coefficient is ``int_action``'s sums over the concatenated
    (m, j) blocks, unpacked, over the right operand's ``den``. A left operand
    N / q is N o (1/q), so 1/q moves into the right operand first (``_under``).
    """
    if first.size != second.size:
        raise ShapeError("size mismatch in compose")
    n = first.size
    if not first.is_polynomial:
        second = _under(first.den, second)
    sums, w = int_action(first, n, second, ks=range(first.order + second.order + 1))[:2]
    return DiffOp(n, _unpacked(sums, w, first, second), second.den)


def op_power(d: DiffOp, k: int) -> DiffOp:
    """d^k by squaring: at most 2 floor(log2 k) compositions."""
    if k < 0:
        raise DomainError("negative operator power")
    if k == 0:
        return DiffOp.identity(d.size)
    out = None
    while True:
        if k & 1:
            out = d if out is None else compose(out, d)
        k >>= 1
        if not k:
            return out
        d = compose(d, d)


def poly_of_op(p: Poly, d: DiffOp) -> DiffOp:
    """p(D) for a scalar polynomial p."""
    acc = DiffOp.zero(d.size)
    power = DiffOp.identity(d.size)
    for k in range(p.degree + 1):
        if p[k]:
            acc = acc + power * p[k]
        if k < p.degree:
            power = compose(power, d)
    return acc


def w_adjoint(d: DiffOp, weight) -> DiffOp:
    """Formal W-adjoint of d with respect to ``weight``: the d^k coefficient
    sum_{l >= k} (-1)^l binom(l, k) T^(l-k)(M F_l^T) M^-1, where
    T(R) = R' + sigma R is the derivative twisted by the density.

    ``weight.factor_data()`` gives (s, t, M, A, det): W = rho M with M
    polynomial, sigma = rho'/rho = s/t and M^-1 = A / det. The density rho
    never appears. On numerators, with F_l = N_l / q and q folded into sigma
    (T^i(R/q) is T^i(R)/q for sigma - q'/q), T^i(M N_l^T) = R_i / t^i with
    R_0 = M N_l^T and R_{i+1} = R_i' t + (s - i t') R_i. Every coefficient is
    put over q t^n det, n the order of d.

    All of it runs on integer coefficient lists (``int_poly_dot``): M, A,
    det, q and the N_l each over their own denominator, s and t over one,
    which leaves sigma unchanged. When the primitive part of q t^n det
    divides every numerator, the quotients are the coefficients of a
    polynomial adjoint; otherwise the adjoint is rational and is put in
    canonical form.
    """
    if d.size != weight.size:
        raise ShapeError("operator and weight sizes differ")
    if d.is_zero:
        return d
    s, t, m, adj, det = weight.factor_data()
    size, n, nn = d.size, d.order, d.size * d.size
    (s, t), _, _ = int_entries([s, t])
    s, t = int_poly(s), int_poly(t)
    (q, lq, qb), (di, ld, db) = int_form(d.den), int_form(det)
    q, di = (q, qb), (di, db)
    if d.den != _P1:
        s, t = int_poly_dot([(1, s, q), (-1, t, _derivative(q))]), int_poly_dot([(1, t, q)])
    # every entry of a matrix carries the matrix's bound
    (nums, ln, nb), (mi, lm, mb), (ai, la, ab) = d.int_form(), m.int_form(), adj.int_form()
    mi, ai = [(e, mb) for e in mi], [(e, ab) for e in ai]
    dt, powers = _derivative(t), [((1,), 1)]
    for _ in range(n):
        powers.append(int_poly_dot([(1, powers[-1], t)]))
    # entry e of the d^k numerator, before the product with A, sums
    # (-1)^l binom(l, i) R_i[e] t^(n-i) over l - i = k
    terms = [[[] for _ in range(nn)] for _ in range(n + 1)]
    for l in range(n + 1):
        nl = nums[l * nn : (l + 1) * nn]
        if not any(nl):
            continue
        r = int_poly_matmul(mi, [(nl[b * size + a], nb) for a in range(size) for b in range(size)], size)
        for i in range(l + 1):
            c = (-1) ** l * math.comb(l, i)
            for cell, e in zip(terms[l - i], r):
                cell.append((c, e, powers[n - i]))
            if i < l:
                r = [int_poly_dot([(1, _derivative(e), t), (1, e, s), (-i, e, dt)]) for e in r]
    nums = [[e for e, _ in int_poly_matmul([int_poly_dot(cell) for cell in by_k], ai, size)] for by_k in terms]
    den = int_poly_dot([(1, int_poly_dot([(1, q, powers[n])]), di)])[0]
    # the coefficients are nums / den times lq ld / (lm ln la)
    g = math.gcd(*den)
    prim = [v // g for v in den]
    quos = []
    for by_k in nums:
        quos.append([int_poly_quo(e, prim) for e in by_k])
        if None in quos[-1]:
            return DiffOp(size, [_matpoly([poly_over(e, 1) for e in by_k], size) for by_k in nums],
                          poly_over([v * lm * ln * la for v in den], lq * ld))
    num, den = lq * ld, lm * ln * la * g
    return DiffOp(size, [_matpoly([poly_over([v * num for v in e], den) for e in by_k], size) for by_k in quos])


def _derivative(a):
    # the derivative of an int_poly operand, as one
    return int_poly(int_poly_derivative(a[0]))


def _matpoly(entries, size) -> MatPoly:
    return MatPoly._of(entries[r * size : (r + 1) * size] for r in range(size))


@dataclass
class Verdict:
    """The outcome of one exact check, true or false as ``ok``.

    A failure carries its witness where the check has one: the first failing
    index n and the nonzero residual. ``eigs`` holds the constant matrices
    C_n a relation solved, the eigenvalues Lambda_n of a membership.
    """

    ok: bool
    detail: str = ""
    fail_n: int | None = None
    residual: object = None
    eigs: list[FracMat] = field(default_factory=list)

    def __bool__(self):
        return self.ok


def degree_preserving(d: DiffOp) -> Verdict:
    """Decide whether P . d always has the degree of P.

    Criterion: every coefficient F_j is polynomial with deg F_j <= j, and the
    symbol S_n = sum_j (n)_j [x^j]F_j is nonsingular for every integer n >= 0.
    The unbounded quantifier over n is decided by taking det S_n as a
    polynomial in n and ruling out nonnegative integer roots; the residual
    is det S_n, and a failure's n is a root. S_n is assembled on d's integer
    form over its one denominator L, and its determinant taken in Z[n] by
    ``bareiss``: det S_n is that determinant over L^N, N the size.
    """
    if d.is_zero:
        return Verdict(False, "zero operator")
    polys = d.poly_coeffs()
    if polys is None:
        return Verdict(False, "non-polynomial coefficient")
    for j, f in enumerate(polys):
        if f.degree > j:
            return Verdict(False, f"coefficient degree {f.degree} exceeds d-power {j}")
    size, nn, (nums, den, _) = d.size, d.size * d.size, d.int_form()
    falls = [((1,), 1)]  # n(n-1)...(n-j+1), lowest power of n first
    for j in range(d.order):
        falls.append(int_poly_dot([(1, falls[-1], int_poly((-j, 1)))]))
    one = ((1,), 1)
    sym = [int_poly_dot([(e[j], falls[j], one) for j, e in enumerate(nums[c::nn]) if len(e) > j])[0] for c in range(nn)]
    det = bareiss([sym[r * size : (r + 1) * size] for r in range(size)])[0]
    if not det:
        return Verdict(False, "symbol determinant vanishes identically", fail_n=0)
    det = poly_over(det, den**size)
    roots = nonneg_integer_roots(det)
    if roots:
        return Verdict(False, f"symbol singular at n = {roots[0]}", fail_n=roots[0], residual=det)
    return Verdict(True, residual=det)


# ---------------------------------------------------------------------------
# assembly helpers


def block_antidiagonal(v: DiffOp, n: DiffOp) -> DiffOp:
    """The operator (0 V / N 0), sized v.size + n.size."""
    if v.size != n.size:
        raise ShapeError("blocks must have equal size")
    s = v.size
    a, b, den = _common(v, n)
    fill = MatPoly.zeros(s) if len(a) != len(b) else None
    return DiffOp(2 * s, [MatPoly([[Poly()] * s + list(r) for r in x.rows] + [list(r) + [Poly()] * s for r in y.rows])
                          for x, y in zip_longest(a, b, fillvalue=fill)], den)


def coefficient_sites(d: DiffOp):
    """Yield (j, row, col, power) for every stored nonzero x-power coefficient."""
    if not d.is_polynomial:
        raise NonPolynomialError("coefficient sites require polynomial entries")
    yield from ((j, r, c, k) for j, f in enumerate(d.coeffs) for r, row in enumerate(f.rows)
                for c, p in enumerate(row) for k, v in enumerate(p.coeffs) if v)


def bump_coefficient(d: DiffOp, site, delta=1) -> DiffOp:
    """Return d with the rational coefficient at ``site`` shifted by delta."""
    j, r, c, k = site
    out = list(d.coeffs)
    if j < len(out):
        rows = [list(row) for row in out[j].rows]
        rows[r][c] = rows[r][c] + Poly.monomial(k, delta) * d.den
        out[j] = MatPoly(rows)
    return DiffOp(d.size, out, d.den)


def diff_cells(a: DiffOp, b: DiffOp) -> list[tuple[int, int, int]]:
    """Cells (d-power, row, col) where the two operators disagree."""
    if a.size != b.size:
        raise ShapeError("operator size mismatch")
    na, nb, _ = _common(a, b)
    fill = MatPoly.zeros(a.size) if len(na) != len(nb) else None
    return [(j, r, c) for j, (x, y) in enumerate(zip_longest(na, nb, fillvalue=fill))
            for r in range(a.size) for c in range(a.size) if x.entry(r, c) != y.entry(r, c)]


def compare_operators(a: DiffOp, b: DiffOp) -> Verdict:
    """a = b, or a failure naming the first four differing (d-power, row,
    col) cells with both sides; the residual is a - b."""
    if a == b:
        return Verdict(True)
    detail = "; ".join(
        f"d^{j} cell ({r},{c}): {ratio_str(a.coeff(j).entry(r, c), a.den)} vs {ratio_str(b.coeff(j).entry(r, c), b.den)}"
        for j, r, c in diff_cells(a, b)[:4]
    )
    return Verdict(False, detail, residual=a - b)
