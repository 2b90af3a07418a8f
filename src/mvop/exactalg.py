"""Exact arithmetic over Q: dense polynomials, rational functions, matrices.

Everything in this module is immutable and pure, and the coefficient field is
``fractions.Fraction`` throughout, so every computation downstream is exact.
Matrices come in two flavours: ``FracMat`` (constant rational entries, used
for eigenvalues, recursion coefficients and conjugating matrices) and
``MatRF`` (square, rational-function entries, used for operator
coefficients). Gaussian elimination is written three times: ``_field_det``
and ``solve_square`` (which also inverts) work over either field, and
``nullspace`` works over Fraction; ROADMAP item 2 folds them into one kernel.
"""

from __future__ import annotations

import math
from fractions import Fraction


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


def frac(value, den=None) -> Fraction:
    """Coerce to Fraction. Accepts int, Fraction, float-free strings like '3/2'."""
    if den is not None:
        return Fraction(value, den)
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


_F0 = Fraction(0)
_F1 = Fraction(1)


# ---------------------------------------------------------------------------
# polynomials


class Poly:
    """Dense univariate polynomial over Q; coeffs[k] is the x^k coefficient.

    The zero polynomial has an empty coefficient tuple and degree -1.
    """

    __slots__ = ("coeffs", "_hash")

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)
        self._hash = None

    # -- construction helpers

    @staticmethod
    def const(c) -> "Poly":
        return Poly((frac(c),))

    @staticmethod
    def monomial(k: int, c=1) -> "Poly":
        return Poly((0,) * k + (frac(c),))

    # -- structure

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return _F0

    @property
    def lc(self) -> Fraction:
        if not self.coeffs:
            raise DomainError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly.const(other)
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.coeffs)
        return self._hash

    # -- arithmetic

    def __add__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = frac(other)
            if not c:
                return _P0
            return Poly(tuple(c * a for a in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return _P0
        out = [_F0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if b:
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise DomainError("negative polynomial power")
        out = _P1
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def derivative(self) -> "Poly":
        return Poly(tuple(i * c for i, c in enumerate(self.coeffs) if i))

    def __call__(self, x) -> Fraction:
        x = frac(x)
        acc = _F0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        inv = 1 / self.lc
        return Poly(tuple(inv * c for c in self.coeffs))

    def __repr__(self):
        return f"Poly({poly_str(self)!r})"

    def __str__(self):
        return poly_str(self)


_P0 = Poly()
_P1 = Poly((1,))
X = Poly((0, 1))


def _as_poly(v):
    if isinstance(v, Poly):
        return v
    if isinstance(v, (int, Fraction)):
        return Poly.const(v)
    return None


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    if b.is_zero:
        raise DomainError("polynomial division by zero")
    q = [_F0] * max(0, a.degree - b.degree + 1)
    rem = list(a.coeffs)
    blc = b.lc
    bdeg = b.degree
    for k in range(len(rem) - 1, bdeg - 1, -1):
        c = rem[k]
        if not c:
            continue
        f = c / blc
        q[k - bdeg] = f
        for i, bc in enumerate(b.coeffs):
            rem[k - bdeg + i] -= f * bc
    return Poly(q), Poly(rem)


def exact_div(a: Poly, b: Poly) -> Poly:
    """Divide a by b; the remainder must be zero."""
    q, r = poly_divmod(a, b)
    if not r.is_zero:
        raise DivisionError(f"nonzero remainder in exact division: {r}")
    return q


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero:
        a, b = b, poly_divmod(a, b)[1]
    return a.monic()


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


def nonneg_integer_roots(p: Poly) -> list[int]:
    """All nonnegative integer roots of a nonzero polynomial.

    Integer roots of the denominator-cleared polynomial divide its trailing
    nonzero coefficient; candidates are those divisors plus, as a belt, every
    integer up to the degree.
    """
    if p.is_zero:
        raise DomainError("zero polynomial has every integer as a root")
    scale = math.lcm(*(c.denominator for c in p.coeffs))
    ints = [int(c * scale) for c in p.coeffs]
    low = 0
    while ints[low] == 0:
        low += 1
    roots = set()
    if low > 0:
        roots.add(0)
    a0 = abs(ints[low])
    candidates = set(range(p.degree + 1))
    d = 1
    while d * d <= a0:
        if a0 % d == 0:
            candidates.add(d)
            candidates.add(a0 // d)
        d += 1
    for r in sorted(candidates):
        if r > 0 and p(r) == 0:
            roots.add(r)
    return sorted(roots)


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
        if num.is_zero:
            den = _P1
        elif den.degree == 0:
            num = num * (1 / den.lc)
            den = _P1
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = exact_div(num, g)
                den = exact_div(den, g)
            lc = den.lc
            if lc != 1:
                inv = 1 / lc
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den
        self._hash = None

    @staticmethod
    def const(c) -> "RatFunc":
        return RatFunc(Poly.const(c))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def __bool__(self):
        return not self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den == _P1

    def as_poly(self) -> Poly:
        if not self.is_polynomial:
            raise NonPolynomialError(f"not a polynomial: {self}")
        return self.num

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

    def inverse(self) -> "RatFunc":
        if self.is_zero:
            raise DomainError("zero has no inverse")
        return RatFunc(self.den, self.num)

    def derivative(self) -> "RatFunc":
        if self.den == _P1:
            return RatFunc(self.num.derivative())
        return RatFunc(
            self.num.derivative() * self.den - self.num * self.den.derivative(),
            self.den * self.den,
        )

    def __call__(self, x) -> Fraction:
        d = self.den(x)
        if d == 0:
            raise DomainError(f"pole at x = {x}")
        return self.num(x) / d

    def __repr__(self):
        return f"RatFunc({self!s})"

    def __str__(self):
        if self.is_polynomial:
            return poly_str(self.num)
        return f"({poly_str(self.num)})/({poly_str(self.den)})"


_RF0 = RatFunc(_P0)
_RF1 = RatFunc(_P1)


def _as_ratfunc(v):
    if isinstance(v, RatFunc):
        return v
    if isinstance(v, Poly):
        return RatFunc(v)
    if isinstance(v, (int, Fraction)):
        return RatFunc(Poly.const(v))
    return None


def simplify(r: RatFunc) -> RatFunc:
    """Canonical form of a rational function (idempotent by construction)."""
    return RatFunc(r.num, r.den)


# ---------------------------------------------------------------------------
# generic Gaussian elimination over a field


def _field_det(rows, zero, one):
    n = len(rows)
    m = [list(r) for r in rows]
    det = one
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col] != zero:
                piv = r
                break
        if piv is None:
            return zero
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        pv = m[col][col]
        det = det * pv
        for r in range(col + 1, n):
            f = m[r][col] / pv
            if f == zero:
                continue
            for c in range(col, n):
                m[r][c] = m[r][c] - f * m[col][c]
    return det


def solve_square(a_rows, b_rows):
    """Solve A X = B exactly, A square, over any field whose elements support
    truth testing and division (Fraction, RatFunc). Raises SingularError."""
    n = len(a_rows)
    m = [list(ar) + list(br) for ar, br in zip(a_rows, b_rows)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if m[r][col]:
                piv = r
                break
        if piv is None:
            raise SingularError("singular linear system")
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        pv = m[col][col]
        m[col] = [e / pv for e in m[col]]
        for r in range(n):
            if r != col and m[r][col]:
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return [row[n:] for row in m]


def nullspace(rows, ncols) -> list[list[Fraction]]:
    """Basis of the right nullspace of a Fraction matrix, via RREF.

    Rows are reduced incrementally, so redundant rows are cheap.
    """
    pivots: list[int] = []
    reduced: list[list[Fraction]] = []
    for row in rows:
        r = list(row)
        for p, prow in zip(pivots, reduced):
            if r[p]:
                f = r[p]
                for c in range(p, ncols):
                    r[c] -= f * prow[c]
        lead = next((c for c in range(ncols) if r[c]), None)
        if lead is None:
            continue
        inv = 1 / r[lead]
        r = [c * inv for c in r]
        for p, prow in zip(pivots, reduced):
            if prow[lead]:
                f = prow[lead]
                for c in range(ncols):
                    prow[c] -= f * r[c]
        pivots.append(lead)
        reduced.append(r)
    pivset = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [_F0] * ncols
        v[free] = _F1
        for p, prow in zip(pivots, reduced):
            v[p] = -prow[free]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# constant rational matrices


class FracMat:
    """Immutable matrix of Fractions (rectangular)."""

    __slots__ = ("rows", "_hash")

    def __init__(self, rows):
        self.rows = tuple(tuple(frac(c) for c in r) for r in rows)
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ShapeError("ragged matrix")
        self._hash = None

    @staticmethod
    def identity(n: int) -> "FracMat":
        return FracMat([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(n: int, m: int | None = None) -> "FracMat":
        m = n if m is None else m
        return FracMat([[0] * m for _ in range(n)])

    @property
    def nrows(self):
        return len(self.rows)

    @property
    def ncols(self):
        return len(self.rows[0]) if self.rows else 0

    def entry(self, i, j) -> Fraction:
        return self.rows[i][j]

    @property
    def is_zero(self) -> bool:
        return all(not c for r in self.rows for c in r)

    def __eq__(self, other):
        if not isinstance(other, FracMat):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.rows)
        return self._hash

    def __add__(self, other):
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ShapeError("matrix size mismatch")
        return FracMat([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return FracMat([[-c for c in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FracMat([[c * other for c in r] for r in self.rows])
        if not isinstance(other, FracMat):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ShapeError("matrix size mismatch")
        bt = list(zip(*other.rows))
        return FracMat([[sum(a * b for a, b in zip(row, col)) for col in bt] for row in self.rows])

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * other
        return NotImplemented

    def transpose(self) -> "FracMat":
        return FracMat(list(zip(*self.rows)))

    def det(self) -> Fraction:
        if self.nrows != self.ncols:
            raise ShapeError("determinant of a nonsquare matrix")
        return _field_det(self.rows, _F0, _F1)

    def inv(self) -> "FracMat":
        if self.nrows != self.ncols:
            raise ShapeError("inverse of a nonsquare matrix")
        return FracMat(solve_square(self.rows, FracMat.identity(self.nrows).rows))

    def __repr__(self):
        body = "; ".join(", ".join(str(c) for c in r) for r in self.rows)
        return f"FracMat[{body}]"


# ---------------------------------------------------------------------------
# square matrices of rational functions


class MatRF:
    """Square matrix with RatFunc entries."""

    __slots__ = ("rows", "_hash")

    def __init__(self, rows):
        self.rows = tuple(tuple(_coerce_rf(c) for c in r) for r in rows)
        n = len(self.rows)
        if n < 1 or any(len(r) != n for r in self.rows):
            raise ShapeError("MatRF must be square, size >= 1")
        self._hash = None

    @staticmethod
    def identity(n: int) -> "MatRF":
        return MatRF([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(n: int) -> "MatRF":
        return MatRF([[0] * n for _ in range(n)])

    @staticmethod
    def diag(*entries) -> "MatRF":
        n = len(entries)
        return MatRF([[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def size(self) -> int:
        return len(self.rows)

    def entry(self, i, j) -> RatFunc:
        return self.rows[i][j]

    @property
    def is_zero(self) -> bool:
        return all(c.is_zero for r in self.rows for c in r)

    def __eq__(self, other):
        if not isinstance(other, MatRF):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self.rows)
        return self._hash

    def __add__(self, other):
        if self.size != other.size:
            raise ShapeError("matrix size mismatch")
        return MatRF([[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return MatRF([[-c for c in r] for r in self.rows])

    def __mul__(self, other):
        if isinstance(other, MatRF):
            if self.size != other.size:
                raise ShapeError("matrix size mismatch")
            bt = list(zip(*other.rows))
            return MatRF(
                [[_rf_dot(row, col) for col in bt] for row in self.rows]
            )
        scal = _as_ratfunc(other)
        if scal is None:
            return NotImplemented
        return MatRF([[c * scal for c in r] for r in self.rows])

    def __rmul__(self, other):
        scal = _as_ratfunc(other)
        if scal is None:
            return NotImplemented
        return MatRF([[scal * c for c in r] for r in self.rows])

    def transpose(self) -> "MatRF":
        return MatRF(list(zip(*self.rows)))

    def derivative(self) -> "MatRF":
        return MatRF([[c.derivative() for c in r] for r in self.rows])

    def det(self) -> RatFunc:
        return _field_det(self.rows, _RF0, _RF1)

    def inverse(self) -> "MatRF":
        return MatRF(solve_square(self.rows, MatRF.identity(self.size).rows))

    @property
    def is_polynomial(self) -> bool:
        return all(c.is_polynomial for r in self.rows for c in r)

    def poly_rows(self) -> tuple[tuple[Poly, ...], ...]:
        return tuple(tuple(c.as_poly() for c in r) for r in self.rows)

    def eval(self, x) -> FracMat:
        return FracMat([[c(x) for c in r] for r in self.rows])

    def __repr__(self):
        body = "; ".join(", ".join(str(c) for c in r) for r in self.rows)
        return f"MatRF[{body}]"


def _coerce_rf(v):
    r = _as_ratfunc(v)
    if r is None:
        raise TypeError(f"cannot coerce {v!r} to RatFunc")
    return r


def _rf_dot(row, col):
    acc = _RF0
    for a, b in zip(row, col):
        if a.is_zero or b.is_zero:
            continue
        acc = acc + a * b
    return acc
