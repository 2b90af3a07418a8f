"""Classical scalar weight families, matrix weights, moments and monic
orthogonal polynomial sequences.

A matrix weight is stored as a classical scalar density rho times a square
rational matrix factor M (``Atomic``), or a direct sum of weights. All inner
products are normalized by the zeroth moment of the base density, which keeps
every value in Q; orthogonality and nonsingularity statements are unaffected
by a positive global factor.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction

from .exactalg import (
    DomainError,
    FracMat,
    MatRF,
    NonPolynomialError,
    Poly,
    RatFunc,
    ShapeError,
    SingularError,
    X,
    frac,
    int_const,
    int_dot,
    int_form,
)
from .diffop import DiffOp, MatPoly, matrf_to_matpoly


# ---------------------------------------------------------------------------
# scalar families


class ScalarWeightFamily:
    """Base for the three classical families (shifted Hermite, Laguerre, Jacobi)."""

    def scalar_weight(self) -> "Weight":
        return Weight.atomic(self, MatRF.identity(1))


@dataclass(frozen=True)
class HermiteShifted(ScalarWeightFamily):
    """exp(-x^2 + 2 b x) on the real line."""

    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "b", frac(self.b))

    def delta(self) -> DiffOp:
        return DiffOp.scalar([Poly(), Poly((2 * self.b, -2)), Poly((1,))])

    def sigma(self) -> RatFunc:
        return RatFunc(Poly((2 * self.b, -2)))

    def recursion(self, n: int) -> tuple[Fraction, Fraction]:
        return self.b, Fraction(n, 2)

    def support_key(self) -> str:
        return "real-line"

    def sample_points(self, k: int = 16):
        return [Fraction(-3) + Fraction(6 * i, k + 1) for i in range(1, k + 1)]

    def moment_step(self, s: int, values) -> Fraction:
        # mu_{s+1} = b mu_s + (s/2) mu_{s-1}, from d/dx[x^s rho] integrating to 0
        prev = values[s - 1] if s >= 1 else Fraction(0)
        return self.b * values[s] + Fraction(s, 2) * prev


@dataclass(frozen=True)
class Laguerre(ScalarWeightFamily):
    """exp(-x) x^alpha on (0, infinity), alpha > -1."""

    alpha: Fraction

    def __post_init__(self):
        a = frac(self.alpha)
        if a <= -1:
            raise DomainError(f"Laguerre parameter must exceed -1, got {a}")
        object.__setattr__(self, "alpha", a)

    def delta(self) -> DiffOp:
        return DiffOp.scalar([Poly(), Poly((self.alpha + 1, -1)), X])

    def sigma(self) -> RatFunc:
        return RatFunc(Poly((self.alpha, -1)), X)

    def recursion(self, n: int) -> tuple[Fraction, Fraction]:
        a = self.alpha
        return 2 * n + a + 1, Fraction(n) * (n + a)

    def support_key(self) -> str:
        return "half-line"

    def sample_points(self, k: int = 16):
        return [Fraction(8 * i, k + 1) for i in range(1, k + 1)]

    def moment_step(self, s: int, values) -> Fraction:
        # Gamma recursion: mu_{s+1} = (alpha + 1 + s) mu_s
        return (self.alpha + 1 + s) * values[s]


@dataclass(frozen=True)
class Jacobi(ScalarWeightFamily):
    """(1-x)^alpha (1+x)^beta on (-1, 1), alpha, beta > -1."""

    alpha: Fraction
    beta: Fraction

    def __post_init__(self):
        a, b = frac(self.alpha), frac(self.beta)
        if a <= -1 or b <= -1:
            raise DomainError(f"Jacobi parameters must exceed -1, got ({a}, {b})")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    def delta(self) -> DiffOp:
        a, b = self.alpha, self.beta
        return DiffOp.scalar([Poly(), Poly((b - a, -(a + b + 2))), Poly((1, 0, -1))])

    def sigma(self) -> RatFunc:
        a, b = self.alpha, self.beta
        return RatFunc(Poly((b - a, -(a + b))), Poly((1, 0, -1)))

    def recursion(self, n: int) -> tuple[Fraction, Fraction]:
        a, b = self.alpha, self.beta
        if n == 0:
            bn = (b - a) / (a + b + 2)
        else:
            bn = (b - a) * (b + a) / ((2 * n + a + b) * (2 * n + a + b + 2))
        if n == 0:
            cn = Fraction(0)
        elif n == 1:
            # the (n + a + b) factor cancels (2n + a + b - 1) at n = 1
            cn = 4 * (1 + a) * (1 + b) / ((2 + a + b) ** 2 * (3 + a + b))
        else:
            cn = (
                4
                * n
                * (n + a)
                * (n + b)
                * (n + a + b)
                / ((2 * n + a + b) ** 2 * (2 * n + a + b + 1) * (2 * n + a + b - 1))
            )
        return bn, cn

    def support_key(self) -> str:
        return "interval"

    def sample_points(self, k: int = 16):
        return [Fraction(-1) + Fraction(2 * i, k + 1) for i in range(1, k + 1)]

    def moment_step(self, s: int, values) -> Fraction:
        # integration by parts of d/dx[(1-x)^(a+1) (1+x)^(b+1) x^s]
        a, b = self.alpha, self.beta
        prev = values[s - 1] if s >= 1 else Fraction(0)
        return ((b - a) * values[s] + s * prev) / (a + b + 2 + s)


def classical_delta(family: ScalarWeightFamily) -> DiffOp:
    return family.delta()


def scalar_recursion(family: ScalarWeightFamily, n: int) -> tuple[Fraction, Fraction]:
    if n < 0:
        raise DomainError("recursion index must be nonnegative")
    return family.recursion(n)


def density_ratio(f1: ScalarWeightFamily, f2: ScalarWeightFamily) -> RatFunc | None:
    """f1/f2 as a rational function, or None when the ratio is not rational."""
    if type(f1) is not type(f2):
        return None
    if isinstance(f1, HermiteShifted):
        return RatFunc(Poly((1,))) if f1.b == f2.b else None
    if isinstance(f1, Laguerre):
        d = f1.alpha - f2.alpha
        if d.denominator != 1:
            return None
        k = int(d)
        return RatFunc(X**k) if k >= 0 else RatFunc(Poly((1,)), X ** (-k))
    da = f1.alpha - f2.alpha
    db = f1.beta - f2.beta
    if da.denominator != 1 or db.denominator != 1:
        return None
    ka, kb = int(da), int(db)
    num, den = Poly((1,)), Poly((1,))
    one_minus, one_plus = Poly((1, -1)), Poly((1, 1))
    num = (one_minus ** max(ka, 0)) * (one_plus ** max(kb, 0))
    den = (one_minus ** max(-ka, 0)) * (one_plus ** max(-kb, 0))
    return RatFunc(num, den)


# ---------------------------------------------------------------------------
# normalized moments


@dataclass(frozen=True)
class MomentTable:
    """Normalized power moments nu_s = mu_s / mu_0 of a scalar family."""

    family: ScalarWeightFamily
    values: tuple[Fraction, ...]

    def __getitem__(self, s: int) -> Fraction:
        return self.values[s]


# family -> (nu_0..nu_s, the row vector e_0 J^s, recursion coefficients b_i, c_i)
_MOMENT_CACHE: dict[ScalarWeightFamily, tuple[list[Fraction], list[Fraction], list, list]] = {}


def _moments_list(family: ScalarWeightFamily, s_max: int) -> list[Fraction]:
    # nu_s is the first entry of e_0 J^s, J the monic Jacobi matrix; e_0 J^s
    # is nonzero only in its first s + 1 entries, so the table extends from
    # the cached row vector at O(s) per step
    values, u, bs, cs = _MOMENT_CACHE.setdefault(family, ([Fraction(1)], [Fraction(1)], [], []))
    while len(values) <= s_max:
        while len(bs) < len(u):
            b, c = family.recursion(len(bs))
            bs.append(b)
            cs.append(c)
        nxt = [Fraction(0)] * (len(u) + 1)
        for i, ui in enumerate(u):
            if not ui:
                continue
            nxt[i] += ui * bs[i]
            nxt[i + 1] += ui  # superdiagonal 1 in the monic normalization
            if i:
                nxt[i - 1] += ui * cs[i]
        u[:] = nxt
        values.append(nxt[0])
    return values


def normalized_moments(family: ScalarWeightFamily, s_max: int) -> MomentTable:
    if s_max < 0:
        raise DomainError("s_max must be nonnegative")
    return MomentTable(family, tuple(_moments_list(family, s_max)[: s_max + 1]))


def closed_moments(family: ScalarWeightFamily, s_max: int) -> list[Fraction]:
    """Moments from the family's closed one-step recurrence (cross-check path)."""
    values = [Fraction(1)]
    for s in range(s_max):
        values.append(family.moment_step(s, values))
    return values


# ---------------------------------------------------------------------------
# weights


class Weight:
    """Either Atomic(family, M) with W = rho_family * M, or a direct sum."""

    __slots__ = ("family", "M", "blocks", "_hash", "_atomic", "_minv")

    def __init__(self, family=None, M=None, blocks=None):
        self.family = family
        self.M = M
        self.blocks = blocks
        self._hash = None
        self._atomic = None
        self._minv = None

    @staticmethod
    def atomic(family: ScalarWeightFamily, M: MatRF) -> "Weight":
        if M.size < 1:
            raise ShapeError("weight matrix factor must have size >= 1")
        if M != M.transpose():
            raise DomainError("matrix factor must be symmetric")
        w = Weight(family=family, M=M)
        try:
            # a positive last leading minor at a sample point proves det M != 0
            w._positivity_spot_check()
        except DomainError:
            if M.det().is_zero:
                raise DomainError("matrix factor is singular as a rational matrix") from None
            raise
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
    def size(self) -> int:
        if self.is_atomic:
            return self.M.size
        return sum(b.size for b in self.blocks)

    def support_key(self) -> str:
        if self.is_atomic:
            return self.family.support_key()
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
        if not (self.is_atomic and self.size == 1 and self.M == MatRF.identity(1)):
            raise DomainError("not a plain scalar classical weight")
        return self.family

    def __eq__(self, other):
        if not isinstance(other, Weight):
            return NotImplemented
        return (self.family, self.M, self.blocks) == (other.family, other.M, other.blocks)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.family, self.M, self.blocks))
        return self._hash

    def __repr__(self):
        if self.is_atomic:
            return f"Weight({self.family!r} * {self.M!r})"
        return "Weight(" + " (+) ".join(repr(b) for b in self.blocks) + ")"

    # -- common atomic form

    def as_atomic(self) -> tuple[ScalarWeightFamily, MatRF]:
        """Rewrite as a single (family, M) pair with one base density.

        Direct sums are merged through rational density ratios relative to
        the minimal parameters; Hermite blocks with distinct shifts have a
        non-rational ratio and raise NonPolynomialError.
        """
        if self._atomic is not None:
            return self._atomic
        if self.is_atomic:
            self._atomic = (self.family, self.M)
            return self._atomic
        parts = self.flat_blocks()
        fams = [p.family for p in parts]
        kinds = {type(f) for f in fams}
        if len(kinds) != 1:
            raise NonPolynomialError("direct sum mixes weight families")
        kind = kinds.pop()
        if kind is HermiteShifted:
            shifts = {f.b for f in fams}
            if len(shifts) != 1:
                raise NonPolynomialError(
                    "Hermite blocks with distinct shifts have no common rational density"
                )
            base = fams[0]
        elif kind is Laguerre:
            amin = min(f.alpha for f in fams)
            if any((f.alpha - amin).denominator != 1 for f in fams):
                raise NonPolynomialError("Laguerre parameters differ by a non-integer")
            base = Laguerre(amin)
        else:
            amin = min(f.alpha for f in fams)
            bmin = min(f.beta for f in fams)
            if any(
                (f.alpha - amin).denominator != 1 or (f.beta - bmin).denominator != 1
                for f in fams
            ):
                raise NonPolynomialError("Jacobi parameters differ by a non-integer")
            base = Jacobi(amin, bmin)
        blocks = [part.M * density_ratio(part.family, base) for part in parts]
        self._atomic = (base, MatRF.blockdiag(blocks))
        return self._atomic

    def sigma(self) -> RatFunc:
        return self.as_atomic()[0].sigma()

    def factor_matrix(self) -> MatRF:
        return self.as_atomic()[1]

    def factor_inverse(self) -> MatRF:
        """M^-1 of the atomic form, inverted once per weight."""
        if self._minv is None:
            self._minv = self.factor_matrix().inverse()
        return self._minv

    # -- validation

    def _positivity_spot_check(self):
        # ratio > 0 on the open support, so positive definiteness of W(x) at a
        # rational sample point is exactly positivity of M(x)'s leading minors
        pts = self.family.sample_points()
        if all(c.is_polynomial and c.num.degree < 1 for row in self.M.rows for c in row):
            pts = pts[:1]  # a constant factor has the same minors everywhere
        for x in pts:
            try:
                m = self.M.eval(x)
            except DomainError:
                m = self.M.eval(x + Fraction(1, 997))
            n = m.nrows
            for k in range(1, n + 1):
                sub = FracMat([row[:k] for row in m.rows[:k]])
                if sub.det() <= 0:
                    raise DomainError(
                        f"weight factor not positive definite at sample x = {x}"
                    )


# ---------------------------------------------------------------------------
# monic orthogonal polynomial sequences


class OPSequence:
    """Monic orthogonal polynomials of a weight, with recursion data.

    An atomic weight's sequence is built by the block three-term recursion
    P_{k+1} = x P_k - B_k P_k - C_k P_{k-1}. With an identity factor B_k and
    C_k are the family's closed forms times I; otherwise they are read off
    the moment rows R_{k,j} = <P_k, x^j I> of one product P_k M (the matrix
    form of the modified Chebyshev algorithm): P_k is monic and orthogonal
    to lower degrees, so H_k = <P_k, P_k> = R_{k,k} and
    <x P_k, P_k> = R_{k,k+1} + H_k P_{k,k-1}^T, with P_{k,k-1} the x^(k-1)
    coefficient of P_k; B_k = <x P_k, P_k> H_k^-1, C_k = H_k H_{k-1}^-1,
    C_0 = 0. Each cell of P_{k+1} is one integer sum, ``exactalg.int_dot``.
    A direct sum assembles its blocks' sequences.

    Construction memoizes inside the object (build-then-share: one thread
    extends, any number may read afterwards).
    """

    def __init__(self, weight: Weight):
        self.weight = weight
        self._polys: list[MatPoly] = []
        self._B: list[FracMat] = []
        self._C: list[FracMat] = []
        self._h_prev_inv: FracMat | None = None  # H_{k-1}^-1 of the last step
        # an identity factor takes the family's closed forms; decided once,
        # since building MatRF.identity costs a RatFunc per entry
        self._closed = weight.is_atomic and weight.M == MatRF.identity(weight.size)
        self._children: list[OPSequence] | None = None
        if not weight.is_atomic:
            self._children = [sequence_for(b) for b in weight.blocks]

    # -- public access

    def poly(self, n: int) -> MatPoly:
        if n < 0:
            return MatPoly.zeros(self.weight.size)
        self._extend(n)
        return self._polys[n]

    def recursion_pair(self, n: int) -> tuple[FracMat, FracMat]:
        self._extend(n + 1)
        return self._B[n], self._C[n]

    # -- construction

    def _extend(self, n: int):
        while len(self._polys) <= n:
            k = len(self._polys)
            if self._children is not None:
                self._extend_blocks(k)
            elif k == 0:
                self._polys.append(MatPoly.identity(self.weight.size))
            else:
                self._step(k - 1)

    def _extend_blocks(self, k: int):
        parts = [child.poly(k) for child in self._children]
        recs = [child.recursion_pair(k) for child in self._children]
        self._polys.append(MatPoly.blockdiag(parts))
        self._B.append(FracMat.blockdiag([r[0] for r in recs]))
        self._C.append(FracMat.blockdiag([r[1] for r in recs]))

    def _step(self, k: int):
        """Append P_{k+1}, B_k and C_k."""
        w = self.weight
        pk = self._polys[k]
        if self._closed:
            b, c = w.family.recursion(k)
            bk, ck = FracMat.identity(w.size) * b, FracMat.identity(w.size) * c
        else:
            # rows k and k + 1; nu_(k+1).. must be as long as every entry of
            # P_k M, since contraction stops at the shorter input
            fam, pm = _times_factor(pk, w)
            nums, den = _moment_numerators(fam, max(pm.degree, 0) + k + 1)
            h, xh = (_moment_row(pm, nums[j:], den) for j in (k, k + 1))
            try:
                h_inv = h.inv()
            except SingularError as exc:
                raise SingularError(f"degenerate moment system at degree {k + 1}") from exc
            if k:
                xh = xh + h * pk.coeff(k - 1).transpose()
            bk = xh * h_inv
            ck = h * self._h_prev_inv if k else FracMat.zeros(w.size)
            self._h_prev_inv = h_inv
        # cell (r, c) of x P_k - B_k P_k - C_k P_{k-1} is one int_dot over
        # (x, P_k[r][c]), (-B_k[r][t], P_k[t][c]) and (-C_k[r][t], P_{k-1}[t][c])
        terms = [(bk, pk)] + ([(ck, self._polys[k - 1])] if k else [])
        terms = [
            ([[int_const(-v) if v else None for v in r] for r in m.rows],
             [[int_form(e) if e else None for e in col] for col in zip(*p.rows)])
            for m, p in terms
        ]
        xf, pcols, cells = int_form(X), terms[0][1], range(w.size)
        self._polys.append(MatPoly([
            [int_dot(([(xf, pcols[c][r])] if pcols[c][r] else [])
                     + [(a, b) for consts, cols in terms for a, b in zip(consts[r], cols[c]) if a and b])
             for c in cells]
            for r in cells
        ]))
        self._B.append(bk)
        self._C.append(ck)


_SEQUENCE_CACHE: dict[Weight, OPSequence] = {}


def sequence_for(weight: Weight) -> OPSequence:
    seq = _SEQUENCE_CACHE.get(weight)
    if seq is None:
        seq = OPSequence(weight)
        _SEQUENCE_CACHE[weight] = seq
    return seq


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
    """<P, Q> = integral P W Q^T, normalized by the base density's mass.

    Requires the merged factor matrix to be polynomial, so that the integrand
    expands into power moments.
    """
    if p.size != q.size:
        raise ShapeError("inner product size mismatch")
    fam, pm = _times_factor(p, weight)
    integrand = pm * q.transpose()
    # each entry's integer numerators against nu_0..nu_deg over their common
    # denominator: one integer dot and one Fraction per entry
    nums, den = _moment_numerators(fam, integrand.degree)
    return FracMat([[_contract(e, nums, den) for e in row] for row in integrand.rows])


def moment_rows(p: MatPoly, weight: Weight, k_max: int) -> list[FracMat]:
    """<P, x^k I> for k = 0..k_max, from one product P M.

    <P, x^k I> = integral x^k P W, so row k contracts each entry of P M
    against nu_k, nu_{k+1}, ...: the moment table is the one inner_product
    fills to the same degree. By bilinearity <P, Q> = sum_k <P, x^k I> Q_k^T,
    Q_k the x^k coefficient of Q, so these rows decide orthogonality to every
    Q of degree <= k_max without a product per Q.
    """
    if k_max < 0:
        raise DomainError("k_max must be nonnegative")
    fam, pm = _times_factor(p, weight)
    nums, den = _moment_numerators(fam, max(pm.degree, 0) + k_max)
    return [_moment_row(pm, nums[k:], den) for k in range(k_max + 1)]


def _moment_row(pm: MatPoly, nums, den) -> FracMat:
    """Each entry of P M contracted against the moments from nu_k on, i.e.
    <P, x^k I> when ``nums`` starts at nu_k's numerator."""
    return FracMat([[_contract(e, nums, den) for e in row] for row in pm.rows])


def _times_factor(p: MatPoly, weight: Weight) -> tuple[ScalarWeightFamily, MatPoly]:
    """The base family and P M of the weight's atomic form, M polynomial."""
    if p.size != weight.size:
        raise ShapeError("inner product size mismatch")
    fam, mat = weight.as_atomic()
    if not mat.is_polynomial:
        raise NonPolynomialError("weight factor has non-polynomial entries after merging")
    return fam, p * matrf_to_matpoly(mat)


def _moment_numerators(fam: ScalarWeightFamily, top: int) -> tuple[list[int], int]:
    """nu_0..nu_top as integers over their common denominator, and it."""
    nu = _moments_list(fam, top)[: top + 1]
    den = math.lcm(*(v.denominator for v in nu))
    return [v.numerator * (den // v.denominator) for v in nu], den


def _contract(e: Poly, nums, den) -> Fraction:
    if not e:
        return Fraction(0)
    ints, d, _ = int_form(e)
    return Fraction(sum(map(operator.mul, ints, nums)), d * den)
