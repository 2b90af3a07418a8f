"""Matrix differential operators in normal form, acting on the right.

An operator is stored as ``sum_j d^j F_j(x)`` with square matrix coefficients
``F_j``. It acts on a matrix polynomial P from the right:

    P . D = sum_j P^(j)(x) F_j(x)

and consequently the product ``compose(A, B)`` is "apply A first, then B".
That convention matches the factorization D = V N in which V is applied
first, and it fixes all sign and ordering questions below:

    (d^i F)(d^j G) = sum_m binom(j, m) d^(i+m) F^(j-m) G.

So the d^k coefficient of A B collects apply(F_i, B_m) over i + m = k, with
B_m = sum_{j >= m} binom(j, m) d^(j-m) G_j. On polynomial operands both run
through one integer kernel, ``int_action``: the entries of P and its
derivatives, formed on integer numerators, and those of the F_j, each over
one common denominator, are packed once at one width, and each cell is one
row-by-column sum of packed integers over the flattened (j, k) index.
``apply`` unpacks those sums, ``compose`` sums over the concatenated (m, j)
blocks of each d^k coefficient, and ``dwalgebra.relation`` tests them for
zero without unpacking.

The formal adjoint * is the involution fixing constant real matrices by
transposition and sending d to -d; the weight adjoint is computed from the
closed-form coefficient sum, with the non-rational scalar density cancelled
through its logarithmic derivative.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace

from .exactalg import (
    DomainError,
    FracMat,
    MatRF,
    Matrix,
    NonPolynomialError,
    Poly,
    RatFunc,
    ShapeError,
    frac,
    int_entries,
    nonneg_integer_roots,
    pack,
    pack_width,
    poly_dot,
    unpack,
)


# ---------------------------------------------------------------------------
# square matrices of polynomials


class MatPoly(Matrix):
    """Square matrix with Poly entries (degree -1 when zero)."""

    __slots__ = ()
    _zero = Poly()
    _scalars = (Poly, int, Fraction)

    @staticmethod
    def _coerce(v) -> Poly:
        if isinstance(v, Poly):
            return v
        if isinstance(v, (int, Fraction)):
            return Poly.const(v)
        if isinstance(v, RatFunc):
            return v.as_poly()
        raise TypeError(f"cannot coerce {v!r} to Poly")

    @staticmethod
    def scalar(p: Poly, n: int) -> "MatPoly":
        return MatPoly.diag(*([p] * n))

    @property
    def degree(self) -> int:
        return max(c.degree for r in self.rows for c in r)

    def coeff(self, k: int) -> FracMat:
        return FracMat([[c[k] for c in r] for r in self.rows])

    def _dot(self, row, col):
        return poly_dot(zip(row, col))

    def lmul_const(self, m: FracMat) -> "MatPoly":
        """m . self with a constant matrix on the left."""
        if m.nrows != m.ncols or m.nrows != self.size:
            raise ShapeError("matrix size mismatch")
        return MatPoly([[Poly.const(c) for c in r] for r in m.rows]) * self

    def derivative(self) -> "MatPoly":
        return MatPoly([[c.derivative() for c in r] for r in self.rows])

    def to_matrf(self) -> MatRF:
        return MatRF(self.rows)


def matrf_to_matpoly(m: MatRF) -> MatPoly:
    return MatPoly(m.poly_rows())


# ---------------------------------------------------------------------------
# operators


class DiffOp:
    """Normal-form operator sum_j d^j F_j with MatRF coefficients.

    The zero operator has an empty coefficient tuple and order -1.
    """

    __slots__ = ("size", "coeffs", "_hash", "_poly")

    def __init__(self, size: int, coeffs=()):
        cs = [c if isinstance(c, MatRF) else MatRF(c.rows) for c in coeffs]
        for c in cs:
            if c.size != size:
                raise ShapeError("coefficient size mismatch")
        while cs and cs[-1].is_zero:
            cs.pop()
        self.size = size
        self.coeffs = tuple(cs)
        self._hash = None
        self._poly = None

    # -- constructors

    @staticmethod
    def zero(size: int) -> "DiffOp":
        return DiffOp(size, ())

    @staticmethod
    def identity(size: int) -> "DiffOp":
        return DiffOp(size, (MatRF.identity(size),))

    @staticmethod
    def from_matrices(size: int, coeffs) -> "DiffOp":
        return DiffOp(size, coeffs)

    @staticmethod
    def scalar(coeffs) -> "DiffOp":
        """1x1 operator from a list of Poly/RatFunc coefficients by d-power."""
        return DiffOp(1, [MatRF([[c]]) for c in coeffs])

    @staticmethod
    def ddx(size: int = 1) -> "DiffOp":
        return DiffOp(size, (MatRF.zeros(size), MatRF.identity(size)))

    @staticmethod
    def const(m: FracMat) -> "DiffOp":
        return DiffOp(m.nrows, (MatRF([[Poly.const(c) for c in r] for r in m.rows]),))

    # -- structure

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coeff(self, j: int) -> MatRF:
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return MatRF.zeros(self.size)

    @property
    def is_polynomial(self) -> bool:
        return self.poly_coeffs() is not None

    def poly_coeffs(self) -> tuple[MatPoly, ...] | None:
        """Coefficients as MatPoly when every entry is polynomial, else None."""
        if self._poly is None:
            if all(c.is_polynomial for c in self.coeffs):
                self._poly = tuple(matrf_to_matpoly(c) for c in self.coeffs)
            else:
                self._poly = False
        return self._poly if self._poly is not False else None

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.size == other.size and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.size, self.coeffs))
        return self._hash

    # -- linear structure (scalar multiples commute with everything, so these
    #    are safe; any other product must go through compose)

    def __add__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        if self.size != other.size:
            raise ShapeError("operator size mismatch")
        n = max(len(self.coeffs), len(other.coeffs))
        return DiffOp(self.size, [self.coeff(j) + other.coeff(j) for j in range(n)])

    def __sub__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return DiffOp(self.size, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = frac(other)
            return DiffOp(self.size, [m * c for m in self.coeffs])
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self):
        from .dsl import op_str  # local import; dsl depends on this module

        if self.is_polynomial:
            return f"DiffOp<{op_str(self)}>"
        # rational entries have no document form; show them as str(RatFunc)
        return "DiffOp<" + " + ".join(f"d^{j}*{c!r}" for j, c in reversed(tuple(enumerate(self.coeffs)))) + ">"


class IntOp:
    """A polynomial operator's F_j for the length of one call: numerators over
    one denominator ``den``, below 2^``bits``; column c lists F_j[k][c] by
    (j, k), packed at most once per width."""

    __slots__ = ("order", "deg", "den", "bits", "cols", "_packed")

    def __init__(self, size: int, coeffs):
        ints, self.den, self.bits = int_entries([e for f in coeffs for r in f.rows for e in r])
        self.order = len(coeffs) - 1
        self.deg = max(map(len, ints), default=0) - 1
        self.cols = [ints[c::size] for c in range(size)]
        self._packed = {}

    def packed_cols(self, w: int):
        if w not in self._packed:
            self._packed[w] = [[pack(e, w) for e in col] for col in self.cols]
        return self._packed[w]


def int_derivatives(ints, count: int):
    """The numerator lists of p, p', ..., p^(count-1) for each list of ints
    (over the same denominator: [x^k] p^(j) is k (k-1) ... (k-j+1) [x^(k+j)] p)."""
    chain = [ints]
    for _ in range(1, count):
        chain.append([[k * a for k, a in enumerate(e) if k] for e in chain[-1]])
    return chain


def int_action(forms, s: int, op: IntOp, extra_bits: int = 0, ks=(0,)):
    """The cells of the d^k coefficients, k in ``ks``, of A T as packed
    integers: A = sum_i d^i A_i, whose s x s coefficients' entries (by i, row,
    column) have the ``int_entries`` ``forms`` over L. Cell (r, c) is one
    C-level row-by-column sum over the concatenated (m, j) blocks, i = k - m:
    row r lists binom(j, m) A_i^(j-m)[r][l], column c lists F_j[l][c], by l,
    and digit e over L ``op.den`` is [x^e] of the cell. For A = P and k = 0
    the cells are P . T. The width w holds every digit and ``extra_bits``
    more, room for a caller's own sums. Returns (sums by k, w, bits, packed):
    every digit is below 2^bits; packed[i][t] is A_i^(t) packed at w.
    """
    ints, _, abits = forms
    nn = s * s
    order, deg = len(ints) // nn - 1, max(map(len, ints), default=0) - 1
    top, mtop = min(op.order, deg), min(max(ks, default=0), op.order)
    # A_i^(t) vanishes for t > deg and multiplies [x^e] A_i by at most
    # deg!/(deg-t)!; each cell's digit sums at most min(deg, deg F) + 1
    # products per (j, l)
    scale = max((sum(math.comb(j, m) * math.perm(deg, j - m) for m in range(max(0, j - top), min(j, mtop) + 1))
                 for j in range(op.order + 1)), default=0)
    bits = abits + op.bits + ((op.order + 1) * s * (min(deg, op.deg) + 1) * scale - 1).bit_length()
    w = pack_width(bits + extra_bits)
    packed = [[[pack(e, w) for e in der] for der in int_derivatives(ints[i * nn : (i + 1) * nn], max(top, 0) + 1)]
              for i in range(order + 1)]
    cols = op.packed_cols(w)
    out = []
    for k in ks:
        blocks = [(m, j) for m in range(max(0, k - order), min(k, op.order) + 1) for j in range(m, min(op.order, m + top) + 1)]
        left = [(math.comb(j, m), packed[k - m][j - m]) for m, j in blocks]
        rows = [[b * v if b > 1 else v for b, der in left for v in der[r * s : (r + 1) * s]] for r in range(s)]
        bcols = [[v for _, j in blocks for v in col[j * s : (j + 1) * s]] for col in cols]
        out.append([[sum(map(operator.mul, row, col)) for col in bcols] for row in rows])
    return out, w, bits, packed


def _unpacked(sums, w, count, den) -> MatPoly:
    return MatPoly([[Poly([Fraction(c, den) for c in unpack(v, w, count)]) for v in row] for row in sums])


def apply(p: MatPoly | MatRF, d: DiffOp):
    """Right action P . D = sum_j P^(j) F_j; a MatPoly when the result is polynomial.

    A MatPoly P under a polynomial D takes the integer path: ``int_action``'s
    sums, unpacked. Anything else is summed over MatRF.
    """
    if p.size != d.size:
        raise ShapeError("size mismatch in apply")
    polys = d.poly_coeffs()
    if polys is not None and isinstance(p, MatPoly):
        op = IntOp(d.size, polys)
        ints, den, _ = forms = int_entries([e for r in p.rows for e in r])
        sums, w = int_action(forms, p.size, op)[:2]
        return _unpacked(sums[0], w, max(map(len, ints)) + op.deg, den * op.den)
    acc = MatRF.zeros(p.size)
    der = p if isinstance(p, MatRF) else p.to_matrf()
    for j, f in enumerate(d.coeffs):
        if j:
            der = der.derivative()
        if not f.is_zero:
            acc = acc + der * f
    if acc.is_polynomial:
        return matrf_to_matpoly(acc)
    return acc


def compose(first: DiffOp, second: DiffOp) -> DiffOp:
    """Operator product: apply ``first``, then ``second`` (module docstring).

    On polynomial operands each d^k coefficient is ``int_action``'s sums over
    the concatenated (m, j) blocks, unpacked. A rational operand sums
    ``apply`` results over MatRF.
    """
    if first.size != second.size:
        raise ShapeError("size mismatch in compose")
    n = first.size
    lefts, rights = first.poly_coeffs(), second.poly_coeffs()
    if lefts is not None and rights is not None:
        op = IntOp(n, rights)
        ints, den, _ = forms = int_entries([e for f in lefts for r in f.rows for e in r])
        sums, w = int_action(forms, n, op, ks=range(first.order + second.order + 1))[:2]
        count = max(map(len, ints), default=0) + op.deg
        return DiffOp(n, [_unpacked(cells, w, count, den * op.den) for cells in sums])
    bms = [
        DiffOp(n, [g * math.comb(j, m) for j, g in enumerate(second.coeffs[m:], m)]) if m else second
        for m in range(len(second.coeffs))
    ]
    out = [MatRF.zeros(n)] * (first.order + second.order + 1)
    for m, bm in enumerate(bms):
        for i, f in enumerate(lefts or first.coeffs):
            out[i + m] = out[i + m] + apply(f, bm)
    return DiffOp(n, out)


def op_power(d: DiffOp, k: int) -> DiffOp:
    if k < 0:
        raise DomainError("negative operator power")
    out = DiffOp.identity(d.size)
    for _ in range(k):
        out = compose(out, d)
    return out


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


def formal_star(d: DiffOp) -> DiffOp:
    """The involution sending d to -d and constant matrices to transposes.

    Over Q the Hermitian conjugate of a coefficient matrix is its transpose;
    this is the W-adjoint for the unit density with identity factor.
    """
    one = MatRF.identity(d.size)
    unit = SimpleNamespace(sigma=lambda: RatFunc(Poly()), factor_matrix=lambda: one, factor_inverse=lambda: one)
    return w_adjoint(d, unit)


def _twisted_derivative(r: MatRF, sigma: RatFunc) -> MatRF:
    # (rho R)' = rho (R' + sigma R) with sigma = rho'/rho
    return r.derivative() + r * sigma


def w_adjoint(d: DiffOp, weight) -> DiffOp:
    """Formal W-adjoint of d with respect to ``weight``.

    ``weight`` must expose ``sigma()`` (the logarithmic derivative of its
    scalar density, a RatFunc), ``factor_matrix()`` (the rational matrix
    factor M with W = rho M) and ``factor_inverse()`` (M^-1). The density rho
    never appears: every occurrence enters through sigma.
    """
    if d.is_zero:
        return d
    sigma: RatFunc = weight.sigma()
    m: MatRF = weight.factor_matrix()
    if m.size != d.size:
        raise ShapeError("weight size does not match operator size")
    minv = weight.factor_inverse()
    n = d.order
    # twisted[l][t] = T_t(M F_l^*), built incrementally per l
    out = []
    twisted_rows: list[list[MatRF]] = []
    for l in range(n + 1):
        f = d.coeffs[l]
        seq = [m * f.transpose()]
        for _ in range(l):
            seq.append(_twisted_derivative(seq[-1], sigma))
        twisted_rows.append(seq)
    for k in range(n + 1):
        acc = MatRF.zeros(d.size)
        for l in range(k, n + 1):
            if d.coeffs[l].is_zero:
                continue
            sign = Fraction(-1) ** l
            acc = acc + twisted_rows[l][l - k] * (sign * math.comb(l, k))
        out.append(acc * minv)
    return DiffOp(d.size, out)


def op_order_lead(d: DiffOp) -> tuple[int, MatRF]:
    if d.is_zero:
        raise DomainError("zero operator has no order")
    return d.order, d.coeffs[-1]


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


def _falling_factorial(j: int) -> Poly:
    # n(n-1)...(n-j+1) as a polynomial in n
    out = Poly((1,))
    for t in range(j):
        out = out * Poly((-t, 1))
    return out


def degree_preserving(d: DiffOp) -> Verdict:
    """Decide whether P . d always has the degree of P.

    Criterion: every coefficient F_j is polynomial with deg F_j <= j, and the
    symbol S_n = sum_j (n)_j [x^j]F_j is nonsingular for every integer n >= 0.
    The unbounded quantifier over n is decided by taking det S_n as a
    polynomial in n and ruling out nonnegative integer roots; the residual
    is det S_n, and a failure's n is a root.
    """
    if d.is_zero:
        return Verdict(False, "zero operator")
    polys = d.poly_coeffs()
    if polys is None:
        return Verdict(False, "non-polynomial coefficient")
    for j, f in enumerate(polys):
        if f.degree > j:
            return Verdict(False, f"coefficient degree {f.degree} exceeds d-power {j}")
    # entries of S_n are polynomials in n; reuse MatRF with x standing for n
    n = d.size
    rows = [[RatFunc(Poly()) for _ in range(n)] for _ in range(n)]
    for j, f in enumerate(polys):
        top = f.coeff(j)
        if top.is_zero:
            continue
        fall = _falling_factorial(j)
        for r in range(n):
            for c in range(n):
                if top.entry(r, c):
                    rows[r][c] = rows[r][c] + RatFunc(fall * top.entry(r, c))
    det = MatRF(rows).det().as_poly()
    if det.is_zero:
        return Verdict(False, "symbol determinant vanishes identically", fail_n=0)
    roots = nonneg_integer_roots(det)
    if roots:
        return Verdict(False, f"symbol singular at n = {roots[0]}", fail_n=roots[0], residual=det)
    return Verdict(True, residual=det)


# ---------------------------------------------------------------------------
# assembly helpers


def embed_scalar(t: DiffOp, size: int, i: int, j: int) -> DiffOp:
    """Place a 1x1 operator at cell (i, j) of a size x size operator."""
    if t.size != 1:
        raise ShapeError("embed_scalar expects a scalar operator")
    out = []
    for c in t.coeffs:
        rows = [[RatFunc(Poly()) for _ in range(size)] for _ in range(size)]
        rows[i][j] = c.entry(0, 0)
        out.append(MatRF(rows))
    return DiffOp(size, out)


def block_antidiagonal(v: DiffOp, n: DiffOp) -> DiffOp:
    """The operator (0 V / N 0), sized v.size + n.size."""
    if v.size != n.size:
        raise ShapeError("blocks must have equal size")
    s = v.size
    total = 2 * s
    out = []
    for j in range(max(len(v.coeffs), len(n.coeffs))):
        a = v.coeff(j)
        b = n.coeff(j)
        rows = [[RatFunc(Poly()) for _ in range(total)] for _ in range(total)]
        for r in range(s):
            for c in range(s):
                rows[r][s + c] = a.entry(r, c)
                rows[s + r][c] = b.entry(r, c)
        out.append(MatRF(rows))
    return DiffOp(total, out)


def coefficient_sites(d: DiffOp):
    """Yield (j, row, col, power) for every stored nonzero x-power coefficient."""
    for j, f in enumerate(d.coeffs):
        for r in range(d.size):
            for c in range(d.size):
                e = f.entry(r, c)
                if not e.is_polynomial:
                    raise NonPolynomialError("coefficient sites require polynomial entries")
                p = e.as_poly()
                for k in range(p.degree + 1):
                    if p[k]:
                        yield (j, r, c, k)


def bump_coefficient(d: DiffOp, site, delta=1) -> DiffOp:
    """Return d with the rational coefficient at ``site`` shifted by delta."""
    j, r, c, k = site
    out = []
    for jj, f in enumerate(d.coeffs):
        if jj != j:
            out.append(f)
            continue
        rows = [list(row) for row in f.rows]
        p = rows[r][c].as_poly()
        rows[r][c] = RatFunc(p + Poly.monomial(k, delta))
        out.append(MatRF(rows))
    return DiffOp(d.size, out)


def diff_cells(a: DiffOp, b: DiffOp) -> list[tuple[int, int, int]]:
    """Cells (d-power, row, col) where the two operators disagree."""
    if a.size != b.size:
        raise ShapeError("operator size mismatch")
    cells = []
    for j in range(max(len(a.coeffs), len(b.coeffs))):
        fa, fb = a.coeff(j), b.coeff(j)
        for r in range(a.size):
            for c in range(a.size):
                if fa.entry(r, c) != fb.entry(r, c):
                    cells.append((j, r, c))
    return cells


def compare_operators(a: DiffOp, b: DiffOp, limit: int = 4) -> Verdict:
    """a = b, or a failure naming the first ``limit`` differing (d-power,
    row, col) cells with both sides; the residual is a - b."""
    if a == b:
        return Verdict(True)
    detail = "; ".join(
        f"d^{j} cell ({r},{c}): {a.coeff(j).entry(r, c)} vs {b.coeff(j).entry(r, c)}"
        for j, r, c in diff_cells(a, b)[:limit]
    )
    return Verdict(False, detail, residual=a - b)
