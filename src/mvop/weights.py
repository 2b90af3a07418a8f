"""Classical scalar weight families, matrix weights, moments and monic
orthogonal polynomial sequences.

A matrix weight is stored as a classical scalar density rho times a square
polynomial matrix factor N (``Weight.atomic``, which moves a rational
factor's poles at the support's finite ends into rho), or a direct sum of
weights. All inner products are normalized by the zeroth moment of the
base density, which keeps every value in Q; orthogonality and
nonsingularity statements are unaffected by a positive global factor. The one contraction against moments is
``moment_rows``, R_k = <P, x^k I> from one product P M: an inner product is
sum_k R_k Q_k^T over the nonzero rows (``contract_rows``) and the sequence
step reads its rows k and k + 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields, replace
from fractions import Fraction

from .exactalg import (
    _F0,
    _P1,
    _bits,
    _trim,
    _value,
    DomainError,
    FracMat,
    NonPolynomialError,
    Poly,
    ShapeError,
    SingularError,
    X,
    bareiss,
    exact_div,
    frac,
    int_form,
    int_matrix,
    int_poly_matmul,
    int_poly_quo,
    lowest_terms,
    pack,
    pack_width,
    poly_gcd,
    poly_over,
    real_root_count,
    unpack,
)
from .diffop import DiffOp, MatPoly, _canonical, ratio_matrix_str


# ---------------------------------------------------------------------------
# scalar families


class ScalarWeightFamily:
    """Base for the three classical families (shifted Hermite, Laguerre,
    Jacobi). A family writes its fields, its Pearson pair (t, s), rho'/rho =
    s/t with deg t <= 2 and deg(t' + s) = 1 (``pearson``), its ``recursion``
    and its ends: ``_ENDS`` holds, lower end first, each end's position (None
    when infinite) and the field that holds the density's exponent there.
    Validation and the density and Darboux classes derive from these."""

    _ENDS = ((None, None), (None, None))

    def __post_init__(self):
        # exact fields; the density is integrable where each end exponent exceeds -1
        names = [f.name for f in fields(self)]
        for name in names:
            object.__setattr__(self, name, frac(getattr(self, name)))
        if any(name and getattr(self, name) <= -1 for _, name in self._ENDS):
            got = ", ".join(str(getattr(self, name)) for name in names)
            if len(names) > 1:
                raise DomainError(f"{type(self).__name__} parameters must exceed -1, got ({got})")
            raise DomainError(f"{type(self).__name__} parameter must exceed -1, got {got}")

    def scalar_weight(self) -> "Weight":
        return Weight.atomic(self, MatPoly.identity(1))

    def ends(self):
        """(end, the density's exponent there) at each end, None when infinite."""
        return tuple((e, name and getattr(self, name)) for e, name in self._ENDS)

    def density_class(self) -> tuple:
        """The family, its fields away from the finite ends and each end's
        exponent mod 1: equal for two families exactly when their density
        ratio is rational (``density_ratio``)."""
        exps = {name for _, name in self._ENDS}
        vals = ((f.name, getattr(self, f.name)) for f in fields(self))
        return (type(self), *(v % 1 if name in exps else v for name, v in vals))

    def darboux_class(self) -> tuple:
        """The density class and u1, the x coefficient of t' + s: two
        families are Darboux related exactly when these are equal, as u1
        fixes delta's eigenvalues n (u1 + (n - 1) t2)."""
        t, s = self.pearson()
        return (*self.density_class(), (t.derivative() + s)[1])

    def delta(self) -> DiffOp:
        """Bochner's operator t d^2 + (t' + s) d."""
        t, s = self.pearson()
        return DiffOp.scalar([Poly(), t.derivative() + s, t])

    def sigma(self) -> tuple[Poly, Poly]:
        """rho'/rho = s/t in lowest terms."""
        t, s = self.pearson()
        return lowest_terms(s, t)


@dataclass(frozen=True)
class HermiteShifted(ScalarWeightFamily):
    """exp(-x^2 + 2 b x) on the real line."""

    b: Fraction

    def pearson(self) -> tuple[Poly, Poly]:
        return _P1, Poly((2 * self.b, -2))

    def recursion(self, n: int) -> tuple[Fraction, Fraction]:
        return self.b, Fraction(n, 2)


@dataclass(frozen=True)
class Laguerre(ScalarWeightFamily):
    """exp(-x) x^alpha on (0, infinity), alpha > -1."""

    alpha: Fraction

    _ENDS = ((0, "alpha"), (None, None))

    def pearson(self) -> tuple[Poly, Poly]:
        return X, Poly((self.alpha, -1))

    def recursion(self, n: int) -> tuple[Fraction, Fraction]:
        # 2n + a + 1 and n (n + a), a = p / q, each one Fraction
        p, q = self.alpha.numerator, self.alpha.denominator
        return Fraction((2 * n + 1) * q + p, q), Fraction(n * (n * q + p), q)


@dataclass(frozen=True)
class Jacobi(ScalarWeightFamily):
    """(1-x)^alpha (1+x)^beta on (-1, 1), alpha, beta > -1."""

    alpha: Fraction
    beta: Fraction

    _ENDS = ((-1, "beta"), (1, "alpha"))

    def pearson(self) -> tuple[Poly, Poly]:
        a, b = self.alpha, self.beta
        return Poly((1, 0, -1)), Poly((b - a, -(a + b)))

    def recursion(self, n: int) -> tuple[Fraction, Fraction]:
        # over l, the lcm of the parameters' denominators, with A = a l,
        # B = b l and s = (2n + a + b) l, each coefficient is one Fraction
        a, b = self.alpha, self.beta
        l = math.lcm(a.denominator, b.denominator)
        A, B = a.numerator * (l // a.denominator), b.numerator * (l // b.denominator)
        s = 2 * n * l + A + B
        if n == 0:
            return Fraction(B - A, s + 2 * l), Fraction(0)
        bn = Fraction((B - A) * (B + A), s * (s + 2 * l))
        if n == 1:
            # the (n + a + b) factor cancels (2n + a + b - 1) at n = 1
            return bn, Fraction(4 * (l + A) * (l + B) * l, s * s * (s + l))
        return bn, Fraction(4 * n * (n * l + A) * (n * l + B) * (n * l + A + B) * l, s * s * (s + l) * (s - l))


def _finite_ends(family: ScalarWeightFamily) -> list[tuple[int, str, Poly]]:
    """(e, the exponent's field, the factor x - e at the lower end and e - x
    at the upper, each positive inside the support) at each finite end."""
    return [(e, name, Poly((-e * sign, sign))) for (e, name), sign in zip(family._ENDS, (1, -1)) if e is not None]


def density_ratio(f1: ScalarWeightFamily, f2: ScalarWeightFamily) -> tuple[Poly, Poly] | None:
    """f1/f2 as (numerator, denominator), or None when it is not rational,
    that is when the density classes differ (``density_class``). An integer
    difference k in the exponent at a finite end puts that end's factor to
    the power |k| above or below."""
    if f1.density_class() != f2.density_class():
        return None
    num = den = _P1
    for _, name, p in _finite_ends(f1):
        k = int(getattr(f1, name) - getattr(f2, name))
        num, den = (num * p**k, den) if k >= 0 else (num, den * p**-k)
    return num, den


# ---------------------------------------------------------------------------
# normalized moments


# the module caches keep the CACHE_SIZE most recently used weights or
# families; a dict holds its keys in insertion order, so a hit moves its key
# to the end and the first key is the one dropped
CACHE_SIZE = 32


def _cached(cache: dict, key, make):
    value = cache.pop(key, None)
    if value is None:
        value = make()
    cache[key] = value
    if len(cache) > CACHE_SIZE:
        del cache[next(iter(cache))]
    return value


# normalized power moments nu_s = mu_s / mu_0 as far as any caller has asked:
# family -> [numerators, L, (T, U)] (``_moments``)
_MOMENT_CACHE: dict[ScalarWeightFamily, list] = {}


def _moments(family: ScalarWeightFamily, s_max: int) -> list:
    """The family's entry of ``_MOMENT_CACHE``, grown to hold nu_0..nu_s_max
    as numerators over L, the lcm of their denominators.

    (x^k t rho)' = k x^(k-1) t rho + x^k (t' + s) rho integrates to 0, as t rho
    vanishes at both ends: with t = t0 + t1 x + t2 x^2 and t' + s = u0 + u1 x,
    k (t0 nu_{k-1} + t1 nu_k + t2 nu_{k+1}) + u0 nu_k + u1 nu_{k+1} = 0. Over
    integers T, U (t and u times one denominator), nu_{k+1} = num / (d L) for
    the numerators n_k of nu_k over L; L grows to the lcm with the reduced
    denominator, and the numerators with it."""
    entry = _cached(_MOMENT_CACHE, family, lambda: [[1], 1, _recurrence(family)])
    nums, den, (t0, t1, t2, u0, u1) = entry
    while len(nums) <= s_max:
        # Laguerre has t0 = t2 = 0 and Hermite t1 = t2 = 0: skip zero terms
        k = len(nums) - 1
        num = -(k * t1 + u0 if t1 else u0) * nums[k]
        if t0 and k:
            num -= k * t0 * nums[k - 1]
        d = k * t2 + u1 if t2 else u1
        g = math.gcd(num, d * den) * (1 if d > 0 else -1)
        num, d = num // g, d * den // g
        if den % d:
            scale = d // math.gcd(den, d)
            nums, den = [v * scale for v in nums], den * scale
        nums.append(num * (den // d))
    entry[:2] = nums, den
    return entry


def _recurrence(family: ScalarWeightFamily) -> tuple[int, ...]:
    # t0, t1, t2, u0, u1 of ``_moments`` over one denominator
    t, s = family.pearson()
    u = t.derivative() + s
    return int_matrix([[t[0], t[1], t[2], u[0], u[1]]])[0][0]


# ---------------------------------------------------------------------------
# weights


class Weight:
    """Either atomic, W = rho_family * N (module docstring), or a direct sum
    of ``blocks``."""

    __slots__ = ("family", "N", "blocks", "_hash", "_atomic", "_factor")

    def __init__(self, family=None, N=None, blocks=None):
        self.family = family
        self.N = N
        self.blocks = blocks
        self._hash = self._atomic = self._factor = None

    @staticmethod
    def atomic(family: ScalarWeightFamily, N: MatPoly, m: Poly = _P1) -> "Weight":
        """rho N / m, N a symmetric polynomial matrix, as rho' N' with N'
        polynomial (``_absorb``); refused unless positive definite almost
        everywhere on the support, decided exactly (``_check_positive``)."""
        if N != N.transpose():
            raise DomainError("matrix factor must be symmetric")
        if m != _P1:
            (N,), m = _canonical([N], m)
            family, N = _absorb(family, N, m)
        w = Weight(family=family, N=N)
        w._check_positive()
        return w

    @staticmethod
    def direct_sum(blocks) -> "Weight":
        blocks = tuple(blocks)
        if not blocks:
            raise ShapeError("direct sum needs at least one block")
        keys = {b.support_key() for b in blocks}
        if len(keys) != 1:
            raise DomainError("direct sum blocks must share a support interval")
        if len(blocks) == 1:
            return blocks[0]
        return Weight(blocks=blocks)

    @staticmethod
    def of_scalars(*families: ScalarWeightFamily) -> "Weight":
        return Weight.direct_sum([f.scalar_weight() for f in families])

    # -- structure

    @property
    def is_atomic(self) -> bool:
        return self.blocks is None

    @property
    def is_identity(self) -> bool:
        """Atomic with the identity factor: W = rho I."""
        return self.is_atomic and self.N.monic_degree == 0

    @property
    def size(self) -> int:
        if self.is_atomic:
            return self.N.size
        return sum(b.size for b in self.blocks)

    def support_key(self) -> tuple:
        """The ends of the support interval."""
        if self.is_atomic:
            return tuple(e for e, _ in self.family.ends())
        return self.blocks[0].support_key()

    def flat_blocks(self) -> list["Weight"]:
        if self.is_atomic:
            return [self]
        out = []
        for b in self.blocks:
            out.extend(b.flat_blocks())
        return out

    def scalar_family(self) -> ScalarWeightFamily:
        """The family of a 1x1 weight with trivial factor."""
        if not (self.size == 1 and self.is_identity):
            raise DomainError("not a plain scalar classical weight")
        return self.family

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return (self.family, self.N, self.blocks) == (other.family, other.N, other.blocks)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.family, self.N, self.blocks))
        return self._hash

    def __repr__(self):
        if self.is_atomic:
            return f"Weight({self.family!r} * {ratio_matrix_str(self.N, _P1)})"
        return "Weight(" + " (+) ".join(repr(b) for b in self.blocks) + ")"

    # -- common atomic form

    def as_atomic(self) -> tuple[ScalarWeightFamily, MatPoly]:
        """Rewrite as a single (family, N) with one base density.

        A direct sum is merged over the base with the least parameters, so
        each block's density ratio to it (``density_ratio``) is a polynomial;
        a block whose ratio is not rational (another family, another Hermite
        shift, a non-integer parameter difference) raises NonPolynomialError.
        """
        if self._atomic is not None:
            return self._atomic
        if self.is_atomic:
            self._atomic = (self.family, self.N)
            return self._atomic
        parts = self.flat_blocks()
        kind = type(parts[0].family)
        fams = [p.family for p in parts if type(p.family) is kind]
        base = kind(*(min(getattr(f, v.name) for f in fams) for v in fields(kind)))
        ratios = [density_ratio(part.family, base) for part in parts]
        if None in ratios:
            raise NonPolynomialError("direct sum blocks have no common rational density")
        self._atomic = (base, MatPoly.blockdiag([part.N * r[0] for part, r in zip(parts, ratios)]))
        return self._atomic

    def factor_data(self) -> tuple[Poly, Poly, MatPoly, MatPoly, Poly]:
        """(s, t, M, A, det) of the atomic form, computed once per weight:
        W = rho M with M a polynomial matrix, s/t = rho'/rho, and
        M^-1 = A / det, A the adjugate."""
        if self._factor is None:
            fam, num = self.as_atomic()
            s, t = fam.sigma()
            det, adj = bareiss([r + e for r, e in zip(num.rows, MatPoly.identity(num.size).rows)])
            self._factor = (s, t, num, MatPoly(adj), det)
        return self._factor

    # -- validation

    def _check_positive(self):
        """Refuse N unless it is positive definite at all but finitely many
        points of the open support. By Sylvester's criterion that is so
        exactly when each leading k x k minor Delta_k of N (``bareiss`` on
        its integer form) is positive there but at finitely many points:
        Delta_k is not zero, has no root of odd multiplicity inside the
        support, where it would change sign (``_odd_part``), and Delta_k > 0
        at an interior integer c once the (even) multiplicity of c is
        divided out."""
        (lo, _), (hi, _) = self.family.ends()
        c = 0 if lo is None else lo + 1 if hi is None else (lo + hi) // 2
        cells, n = self.N.int_form()[0], self.N.size
        for k in range(1, n + 1):
            d = bareiss([cells[r * n : r * n + k] for r in range(k)])[0]
            if not d:
                if k == n:
                    raise DomainError("matrix factor is singular as a rational matrix")
                raise DomainError(f"weight factor not positive definite: leading minor {k} is zero")
            if len(d) > 1 and real_root_count(odd := _odd_part(poly_over(d, 1)), lo, hi):
                raise DomainError(
                    f"weight factor not positive definite: leading minor {k} changes sign at a root of {odd.monic()}"
                )
            while not _value(d, c):
                d = int_poly_quo(d, (c * c, -2 * c, 1))
            if _value(d, c) < 0:
                raise DomainError(f"weight factor not positive definite: leading minor {k} is negative")


def _absorb(family: ScalarWeightFamily, N: MatPoly, m: Poly) -> tuple[ScalarWeightFamily, MatPoly]:
    """rho N / m, in canonical form, as (family', N'): each power k of the
    factor x - e (lower end) or e - x (upper end) dividing m at a finite end
    e, where rho has the exponent a, moves into that exponent as a - k; what
    is left of m is then the constant (-1)^k of the upper end, and divides N.
    Refused when a - k <= -1: gcd(m, N) = 1, so for N positive semidefinite
    some diagonal entry of N is not zero at e and the weight is not
    integrable there. Any other factor of m is refused, since the moments of
    rho / m are not rational multiples of rho's (e^-x / (1 + x) integrates to
    an exponential integral)."""
    exps = {}
    for e, name, p in _finite_ends(family):
        a = getattr(family, name)
        while not m(e):
            m, a = exact_div(m, p), a - 1
        if a <= -1:
            raise DomainError(f"weight is not integrable at the pole x = {e}")
        exps[name] = a
    if m.degree > 0:
        raise DomainError(f"weight factor has a pole off the support's finite ends, at a root of {m.monic()}")
    return replace(family, **exps), N * (1 / m.lc)


def _odd_part(p: Poly) -> Poly:
    """The product of the irreducible factors of odd multiplicity in a
    nonconstant p, by the square-free split: with c = gcd(p, p') and w =
    p / c, the factors of multiplicity i = 1, 2, ... are w / y, y = gcd(w, c),
    before w, c := y, c / y."""
    c = poly_gcd(p, p.derivative())
    w, odd, i = exact_div(p, c), _P1, 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        if i % 2:
            odd = odd * exact_div(w, y)
        w, c, i = y, exact_div(c, y), i + 1
    return odd


# ---------------------------------------------------------------------------
# monic orthogonal polynomial sequences


class OPSequence:
    """Monic orthogonal polynomials of a weight, with recursion data.

    An atomic weight's sequence is built by the block three-term recursion
    P_{k+1} = x P_k - B_k P_k - C_k P_{k-1}. A scalar weight with the
    identity factor takes its family's closed-form b_k and c_k, on the
    integer numerators of p_k and p_{k-1} (``_scalar_step``). Otherwise B_k
    and C_k are read off the moment rows R_{k,j} = <P_k, x^j I> of one
    integer product P_k M (``moment_ints``, the matrix form of the modified
    Chebyshev algorithm): P_k is monic and orthogonal to lower degrees, so
    H_k = <P_k, P_k> = R_{k,k} and <x P_k, P_k> = R_{k,k+1} + H_k P_{k,k-1}^T,
    with P_{k,k-1} the x^(k-1) coefficient of P_k; B_k = <x P_k, P_k> H_k^-1,
    C_k = H_k H_{k-1}^-1, C_0 = 0. The update runs in Z (``_update``), and
    B_k and C_k are kept as the integer rows over one denominator it used.
    A direct sum assembles its blocks' sequences, and a size-s identity
    weight, the direct sum of s copies of its family's scalar weight,
    assembles s copies of that sequence. ``recursion_pair`` makes FracMats
    only when read: from the kept rows, the family's two Fractions or the
    blocks' pairs.

    Construction memoizes inside the object (build-then-share: one thread
    extends, any number may read afterwards).
    """

    def __init__(self, weight: Weight):
        self.weight = weight
        self._polys: list[MatPoly] = []
        self._recs: list[tuple] = []  # (B_k, C_k) of the moment path as (integer rows, denominator), C_0 None
        self._h_inv = None  # H_k^-1 of the last step: (integer matrix, denominator)
        self._closed = weight.is_identity
        self._children: list[OPSequence] | None = None
        if not weight.is_atomic:
            self._children = [sequence_for(b) for b in weight.blocks]
        elif self._closed and weight.size > 1:
            self._children = [sequence_for(weight.family.scalar_weight())] * weight.size

    # -- public access

    def poly(self, n: int) -> MatPoly:
        if n < 0:
            return MatPoly.zeros(self.weight.size)
        self._extend(n)
        return self._polys[n]

    def recursion_pair(self, n: int) -> tuple[FracMat, FracMat]:
        if self._children is not None:
            pairs = [child.recursion_pair(n) for child in self._children]
            return FracMat.blockdiag([p[0] for p in pairs]), FracMat.blockdiag([p[1] for p in pairs])
        if self._closed:
            b, c = self.weight.family.recursion(n)
            return FracMat._of([[b]]), FracMat._of([[c]])
        self._extend(n + 1)
        bk, ck = self._recs[n]
        return _over(*bk), _over(*ck) if ck else FracMat.zeros(self.weight.size)

    # -- construction

    def _extend(self, n: int):
        while len(self._polys) <= n:
            k = len(self._polys)
            if self._children is not None:
                self._polys.append(MatPoly.blockdiag([child.poly(k) for child in self._children]))
            elif k == 0:
                self._polys.append(MatPoly.identity(self.weight.size))
            else:
                self._step(k - 1)

    def _step(self, k: int):
        """Append P_{k+1}, keeping B_k and C_k unless closed-form."""
        w, n = self.weight, self.weight.size
        pk, pk1 = self._polys[k], self._polys[k - 1]
        if self._closed:
            p = _scalar_step(w.family, k, pk.entry(0, 0), pk1.entry(0, 0))
            self._polys.append(MatPoly._of([[p]]))
            return
        (h, r), dh = moment_ints(pk, w, k + 1, k)
        det, adj = bareiss([row + [int(i == j) for j in range(n)] for i, row in enumerate(h)])
        if not det:
            raise SingularError(f"degenerate moment system at degree {k + 1}")
        # with H_k^-1 = dh adj / det and P_{k,k-1} = pn / pd (zero at k = 0),
        # pd the denominator of P_k's integer form, <x P_k, P_k> =
        # (r pd + h pn^T) / (dh pd), so B_k = (r pd + h pn^T) adj / (pd det);
        # C_k = H_k H_{k-1}^-1
        ints, pd, _ = pk.int_form()
        pn = [[e[k - 1] if len(e) >= k > 0 else 0 for e in ints[i : i + n]] for i in range(0, n * n, n)]
        r = [[a * pd + b for a, b in zip(ra, rb)] for ra, rb in zip(r, _int_product(h, list(zip(*pn))))]
        bk = (_int_product(r, adj), pd * det)
        ck = (_int_product(h, self._h_inv[0]), dh * self._h_inv[1]) if k else None
        self._h_inv = [[v * dh for v in row] for row in adj], det
        self._polys.append(_update(pk, pk1, bk, ck))
        self._recs.append((bk, ck))


def _scalar_step(family: ScalarWeightFamily, k: int, p: Poly, q: Poly) -> Poly:
    """x p - b_k p - c_k q for the family's (b_k, c_k), on the integer
    numerators of p and q (q's terms drop out when c_k = 0, as at k = 0):
    one integer list over the lcm of the denominators of p b_k and q c_k."""
    b, c = family.recursion(k)
    pi, pd, _ = int_form(p)
    qi, qd, _ = int_form(q)
    den = math.lcm(pd * b.denominator, qd * c.denominator)
    out = [0] + [den // pd * v for v in pi]
    for f, ints, d in ((b, pi, pd), (c, qi, qd)):
        if f:
            v = den // (d * f.denominator) * f.numerator
            for j, e in enumerate(ints):
                out[j] -= v * e
    return poly_over(out, den)


def _update(pk: MatPoly, pk1: MatPoly, bk, ck) -> MatPoly:
    """P_{k+1} = x P_k - B_k P_k - C_k P_{k-1}, B_k and C_k given as
    (integer rows, denominator) and C_k as None at k = 0, on the integer
    forms of P_k and P_{k-1} over their common denominator D: each entry of
    P_k and P_{k-1} is packed once, at a width with room for every term and
    for their number, and cell (r, c), x P_k[r][c] - sum_t B_k[r][t] P_k[t][c]
    - sum_t C_k[r][t] P_{k-1}[t][c] times D, is one sum of packed integers.
    The result's integer form is seeded from those sums over D, all divided
    by their one gcd."""
    n = pk.size
    terms = [(pk.int_form(), bk)] + ([(pk1.int_form(), ck)] if ck else [])
    den = math.lcm(*(f[1] * c[1] for f, c in terms))
    scale = den // terms[0][0][1]
    consts = [[[-v * (den // (f[1] * cd)) for v in row] for row in rows] for f, (rows, cd) in terms]
    big = max(scale, *(abs(v) for m in consts for row in m for v in row))
    w = pack_width((2 * n).bit_length() + big.bit_length() + max(f[2] for f, _ in terms), 1)
    packed = [[pack(e, w) for e in f[0]] for f, _ in terms]
    count = max(map(len, terms[0][0][0])) + 1
    cells = []
    for r in range(n):
        for c in range(n):
            acc = packed[0][r * n + c] * scale << w
            for p, m in zip(packed, consts):
                acc += sum(map(operator.mul, m[r], p[c::n]))
            cells.append(_trim(unpack(acc, w, count)))
    g = math.gcd(den, *(v for e in cells for v in e))
    cells, den = [tuple(v // g for v in e) for e in cells], den // g
    out = MatPoly._of([poly_over(e, den) for e in cells[i : i + n]] for i in range(0, n * n, n))
    out._form = cells, den, max(_bits(e) for e in cells if e)
    return out


_SEQUENCE_CACHE: dict[Weight, OPSequence] = {}


def sequence_for(weight: Weight) -> OPSequence:
    """The weight's sequence, shared while it is among the CACHE_SIZE most
    recently used; a direct sum's sequence holds its blocks' own."""
    return _cached(_SEQUENCE_CACHE, weight, lambda: OPSequence(weight))


def monic_ops(weight: Weight, n_max: int = 8) -> OPSequence:
    """The unique monic orthogonal sequence, materialized up to n_max."""
    seq = sequence_for(weight)
    seq.poly(n_max)
    return seq


def classical_monic(family: ScalarWeightFamily, n: int) -> Poly:
    """Monic classical polynomial of the scalar family (zero for n < 0)."""
    if n < 0:
        return Poly()
    p = sequence_for(family.scalar_weight()).poly(n)
    return p.entry(0, 0)


# ---------------------------------------------------------------------------
# inner products


def inner_product(p: MatPoly, q: MatPoly, weight: Weight) -> FracMat:
    """<P, Q> = integral P W Q^T, normalized by the base density's mass,
    contracted from P's moment rows up to deg Q (``contract_rows``)."""
    if p.size != q.size:
        raise ShapeError("inner product size mismatch")
    rows = moment_rows(p, weight, max(q.degree, 0))
    return contract_rows([(k, r) for k, r in enumerate(rows) if not r.is_zero], q)


def moment_rows(p: MatPoly, weight: Weight, k_max: int, k_min: int = 0) -> list[FracMat]:
    """<P, x^k I> = integral x^k P W for k = k_min..k_max: the FracMat view
    of ``moment_ints``."""
    rows, den = moment_ints(p, weight, k_max, k_min)
    return [FracMat._of([Fraction(v, den) if v else _F0 for v in r] for r in row) for row in rows]


def moment_ints(p: MatPoly, weight: Weight, k_max: int, k_min: int = 0) -> tuple[list, int]:
    """(rows, den): rows[k - k_min] is <P, x^k I> as an integer matrix over
    den, the least denominator of all the rows, for k = k_min..k_max. P M is
    one ``int_poly_matmul`` of the integer forms P and N keep, and each entry
    of row k one integer dot of an entry of P M against the numerators of
    nu_k, nu_{k+1}, ... in the family's moment table (``_moments``)."""
    if k_max < 0:
        raise DomainError("k_max must be nonnegative")
    if p.size != weight.size:
        raise ShapeError("inner product size mismatch")
    fam, num = weight.as_atomic()
    (pi, pd, pb), (ni, nd, nb), n = p.int_form(), num.int_form(), p.size
    pm = [e for e, _ in int_poly_matmul([(e, pb) for e in pi], [(e, nb) for e in ni], n)]
    # nu_k.. must be as long as every entry of P M, since a dot stops at the shorter
    top = max(1, *map(len, pm)) - 1 + k_max
    nums, den, _ = _moments(fam, top)
    nums = nums[: top + 1]
    rows = [[sum(map(operator.mul, e, nums[k:])) for e in pm] for k in range(k_min, k_max + 1)]
    g = math.gcd(den * pd * nd, *(v for row in rows for v in row))
    return [[[v // g for v in row[i : i + n]] for i in range(0, n * n, n)] for row in rows], den * pd * nd // g


def contract_rows(rows: list[tuple[int, FracMat]], q: MatPoly) -> FracMat:
    """<P, Q> = sum_k R_k Q_k^T over the pairs (k, R_k) of P's nonzero moment
    rows R_k = <P, x^k I>, k <= deg Q; a zero row adds nothing, so a caller
    that contracts one P's rows with several Q finds them once."""
    return sum((r * q.coeff(k).transpose() for k, r in rows if k <= q.degree), FracMat.zeros(q.size))


def _int_product(a, b) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def _over(rows, den) -> FracMat:
    return FracMat([[Fraction(v, den) for v in row] for row in rows])
