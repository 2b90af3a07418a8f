"""Membership in the eigenoperator algebra of a weight, symmetry, Darboux
certificates, intertwiner search, module generators and decomposition, and
the classification of direct sums of classical scalar weights.

Every verification here is an exact statement about rational data: a check
either holds coefficient-for-coefficient or fails with a witness (the first
offending index n and the nonzero residual). Each check returns one result
type, ``diffop.Verdict``; a ``Report`` lists named verdicts in order. The
statements about the algebra and Darboux transformations are instances of
one checker, ``relation``, which decides each n on one packed integer matrix
product (``diffop.int_action``) and builds both sides only where it fails.
Operators are read in their numerator form: a rational T acts through
``diffop.action``, whose denominator says whether P_n . T is polynomial.
There is one intertwiner search, linear algebra over Q whose ansatz holds
every intertwiner of bounded order; the scalar search runs it on 1x1
weights. An empty result is bounded evidence, never a nonexistence proof.
"""

from __future__ import annotations

import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, permutations

from .exactalg import (
    _F0,
    DecompositionError,
    DomainError,
    FracMat,
    Poly,
    ShapeError,
    X,
    digit,
    int_matrix,
    nullspace,
    pack_width,
)
from .diffop import (
    DiffOp,
    IntOp,
    MatPoly,
    Verdict,
    action,
    apply,
    block_antidiagonal,
    compare_operators,
    compose,
    degree_preserving,
    int_action,
    int_derivatives,
    op_power,
    w_adjoint,
)
from .weights import (
    HermiteShifted,
    Jacobi,
    Laguerre,
    ScalarWeightFamily,
    Weight,
    density_ratio,
    sequence_for,
)


# ---------------------------------------------------------------------------
# report plumbing


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str = ""
    seconds: float = field(default=0.0, compare=False)

    def __bool__(self):
        return self.ok


@dataclass
class Report:
    """Checks in the order they were added. Each check is stamped with the
    time since the previous one was added (or since the report was made)."""

    checks: list[CheckResult] = field(default_factory=list)
    _stamp: float = field(default_factory=time.monotonic, repr=False, compare=False)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def _lap(self) -> float:
        now = time.monotonic()
        elapsed, self._stamp = now - self._stamp, now
        return elapsed

    def add(self, name: str, v: Verdict | bool):
        """Add a check: a verdict, or a bool for a check without a witness."""
        detail = v.detail if isinstance(v, Verdict) else ""
        self.checks.append(CheckResult(name, bool(v), detail, self._lap()))

    def extend(self, other: "Report", prefix: str = ""):
        # the sub-report's checks carry their own times; its run is not
        # counted a second time against the next check added here
        self._lap()
        for c in other.checks:
            self.checks.append(CheckResult(prefix + c.name, c.ok, c.detail, c.seconds))

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]

    def __bool__(self):
        return self.ok


def _family_of(w) -> ScalarWeightFamily:
    if isinstance(w, ScalarWeightFamily):
        return w
    if isinstance(w, Weight):
        return w.scalar_family()
    raise TypeError(f"expected a scalar weight, got {w!r}")


def _weight_of(w) -> Weight:
    if isinstance(w, ScalarWeightFamily):
        return w.scalar_weight()
    return w


# ---------------------------------------------------------------------------
# membership and eigenvalues


def check_horizon(n_max: int):
    # a negative horizon checks no n at all, so its pass would claim too much
    if n_max < 0:
        raise DomainError(f"negative horizon n_max = {n_max}")


def relation(ps, t: DiffOp, qs, n_max: int, cs=None) -> Verdict:
    """Check P_n . T = C_n Q_n for n <= n_max.

    ``ps``, ``qs`` and ``cs`` map n to P_n, Q_n (matrix polynomials of degree
    n) and C_n (constant matrices). Without ``cs``, C_n is solved from the
    degree-n coefficients: [x^n](P_n . T) times the inverse of Q_n's leading
    coefficient, which must then be nonsingular. ``eigs`` holds C_0, ...,
    C_{k-1} for the first failing n = k (all of them when the relation holds).
    A negative ``n_max`` is a DomainError.

    When P_n, Q_n and T are polynomial, neither side is built: ``_decide``
    tests each n on one packed integer matrix product, from the integer
    forms P_n, Q_n and T keep (``diffop.IntForm``). Only an n that fails
    materialises P_n . T and C_n Q_n, for the residual. A rational T acts
    through ``action``.
    """
    check_horizon(n_max)
    op = t.int_op() if t.is_polynomial else None
    eigs: list[FracMat] = []
    for n in range(n_max + 1):
        p = ps(n)
        r = None
        if op is None or p.size != t.size:
            r, den = action(p, t)
            if den.degree > 0:
                return Verdict(False, f"non-polynomial action at n={n}", n, (r, den), eigs)
        q = qs(n)
        lead = None
        if cs is None and q.monic_degree != n:
            lead = q.coeff(n)
            if lead.det() == 0:
                return Verdict(False, f"leading coefficient of Q_n singular at n={n}", n, lead, eigs)
        c, ok = cs(n) if cs is not None else None, False
        if r is None:
            c, ok = _decide(p, op, q, n, c, lead)
        elif c is None:
            c = r.coeff(n) if lead is None else r.coeff(n) * lead.inv()
        if not ok:
            r = apply(p, t) if r is None else r
            expected = q.lmul_const(c)
            if r != expected:
                return Verdict(False, f"P_n . T != C_n Q_n at n={n}", n, r - expected, eigs)
        eigs.append(c)
    return Verdict(True, eigs=eigs)


def _decide(p: MatPoly, op: IntOp, q, n: int, c, lead) -> tuple[FracMat, bool]:
    """(C_n, whether P_n . T = C_n Q_n), decided exactly on the packed sums S
    of P_n . T (``int_action``), L_P, L_Q, L_T the denominators of P_n, Q_n
    and T and Q^ = L_Q Q_n. With C_n solved and Q_n's lead I, S_n = L_P L_T C_n
    is digit n of S and a cell holds iff L_Q S - S_n Q^ is 0, at a width sized
    for it up front. Otherwise, C^ = L_C C_n over C_n's denominator, a cell
    holds iff L_C L_Q S - L_P L_T C^ Q^ is 0, S widened first if need be.
    False when Q_n or C_n is not P_n's size, for the caller's check to report.
    """
    s = p.size
    fits = isinstance(q, MatPoly) and q.size == s
    qf = q.int_form() if fits else None
    fast = fits and c is None and lead is None
    # both terms of L_Q S - S_n Q^ lie below 2^(bits + extra - 1)
    extra = max((qf[1] - 1).bit_length(), qf[2] + (s - 1).bit_length()) + 1 if fast else 0
    (sums,), w, bits = int_action(p, s, op, extra)
    den = p.int_form()[1] * op.den
    if c is None:
        chat = [[digit(v, w, n) for v in row] for row in sums]
        c = FracMat._of((Fraction(v, den) if v else _F0 for v in row) for row in chat)
        if lead is not None:
            c = c * lead.inv()
    if not fits or c.nrows != s or c.ncols != s:
        return c, False
    if fast:
        s1, s2 = qf[1], 1
    else:
        chat, lc = int_matrix(c.rows)
        s1, s2 = lc * qf[1], den
        cbits = max(abs(v) for row in chat for v in row).bit_length()
        need = 1 + max((s1 - 1).bit_length() + bits, (s2 - 1).bit_length() + cbits + qf[2] + (s - 1).bit_length())
        if pack_width(need) > w:
            (sums,), w = int_action(p, s, op, need - bits)[:2]
    qrows = q.packed(w, 1)[0]
    qcols = [[row[k] for row in qrows] for k in range(s)]
    return c, not any(
        s1 * v - s2 * sum(map(operator.mul, crow, qcol)) for crow, row in zip(chat, sums) for v, qcol in zip(row, qcols)
    )


def verify_in_DW(d: DiffOp, weight: Weight, n_max: int = 8) -> Verdict:
    """Check P_n . d = Lambda_n P_n for n <= n_max (the sequence is monic)."""
    weight = _weight_of(weight)
    if d.size != weight.size:
        raise ShapeError("operator and weight sizes differ")
    seq = sequence_for(weight)
    rep = relation(seq.poly, d, seq.poly, n_max)
    if isinstance(rep.residual, MatPoly):
        rep.detail = f"not an eigenfunction at n={rep.fail_n}"
    return rep


# ---------------------------------------------------------------------------
# symmetry


def symmetry_check(d: DiffOp, weight: Weight) -> Verdict:
    """W-symmetry: d equals its W-adjoint. The residual is the operator
    w_adjoint(d, W) - d; a failure names its nonzero d-powers k."""
    resid = w_adjoint(d, _weight_of(weight)) - d
    ks = [k for k, c in enumerate(resid.coeffs) if not c.is_zero]
    return Verdict(not ks, f"residual at coefficient index k in {ks}" if ks else "", residual=resid)


# ---------------------------------------------------------------------------
# intertwiners


def intertwiner_verify(t: DiffOp, w1, w2, n_max: int = 8) -> Verdict:
    """Check P_n . t = C_n Pt_n for n <= n_max with constant matrices C_n (0
    allowed), P_n and Pt_n the monic sequences of w1 and w2: weights of t's
    size, or scalar families when t is 1x1. ``eigs`` holds the C_n."""
    w1, w2 = _weight_of(w1), _weight_of(w2)
    if not t.size == w1.size == w2.size:
        raise ShapeError("operator and weight sizes differ")
    return relation(sequence_for(w1).poly, t, sequence_for(w2).poly, n_max)


def matrix_intertwiner_verify(v: DiffOp, w1: Weight, w2: Weight, n_max: int = 8) -> bool:
    """Whether ``intertwiner_verify`` passes."""
    return intertwiner_verify(v, w1, w2, n_max).ok


@dataclass
class IntertwinerBasis:
    w1: ScalarWeightFamily
    w2: ScalarWeightFamily
    order_bound: int
    basis: tuple[DiffOp, ...]
    refused: bool = False
    reason: str = ""
    horizon: int = 0

    @property
    def dim(self) -> int:
        return len(self.basis)

    def describe(self) -> str:
        if self.refused:
            return f"refused structurally: {self.reason}"
        if not self.basis:
            return (
                f"no intertwiner up to order {self.order_bound} "
                "(bounded evidence, not a nonexistence proof)"
            )
        from .dsl import op_scalar_str

        return "basis [" + "; ".join(op_scalar_str(t) for t in self.basis) + "]"


def _search_horizon(order_bound: int, n_horizon: int | None) -> int:
    # below order + 3 the system leaves operators free that fail just past
    # the horizon, and the nullspace vectors that pass re-verification then
    # need not span the intertwiners that do
    least = order_bound + 3
    if n_horizon is None:
        return least
    if n_horizon < least:
        raise DomainError(f"search horizon {n_horizon} below order + 3 = {least}")
    return n_horizon


def _search_system(seq1, seq2, size: int, order_bound: int, horizon: int):
    """The homogeneous system of ``matrix_intertwiner_search`` as dense
    integer rows, and the offset of each order's block of variables.

    The ansatz is T = sum_j F_j d^j, j <= K, with deg F_j <= j, and it holds
    every T of order <= K with P_n . T = C_n Pt_n for n <= K. For P_n . T =
    sum_{j <= n} P_n^(j) F_j, and P_n^(n) = n! I as P_n is monic: if deg F_j
    <= j for j < n, every other term has degree <= n, and so has C_n Pt_n,
    so deg F_n <= n. Likewise P_n . T has degree <= n, so only the rows t < n
    constrain T.

    Variable (j, i, e, c), the x^i coefficient of F_j at entry (e, c), sits at
    offsets[j] + (i size + e) size + c. Row (n, t, r, c), t < n, states
    [x^t](P_n . T)_{rc} = [x^t](C_n Pt_n)_{rc} with C_n = [x^n](P_n . T). For
    each n the derivatives P_n^(j) are put over one denominator L and Pt_n
    over one denominator Lt, and the row is the rational one times L Lt. Rows
    are filled at their nonzeros only; all-zero rows are dropped.
    """
    offsets = list(accumulate(((j + 1) * size * size for j in range(order_bound + 1)), initial=0))
    nvars = offsets[-1]
    rows = []
    for n in range(horizon + 1):
        # P_n^(j) and Pt_n, entries row by row over their denominators
        derivs = int_derivatives(seq1.poly(n).int_form()[0], order_bound + 1)
        pt, lt, _ = seq2.poly(n).int_form()

        def terms(r, t):
            # [x^t](P_n . T)_{r,c} as (variable - c, integer coefficient) pairs;
            # P_n^(j) has degree <= n - j, so only i >= t - n + j can contribute
            return [
                (offsets[j] + (i * size + e) * size, q[t - i])
                for j, dj in enumerate(derivs)
                for i in range(max(0, t - n + j), min(j, t) + 1)
                for e, q in enumerate(dj[r * size : (r + 1) * size])
                if t - i < len(q) and q[t - i]
            ]

        top = [terms(r, n) for r in range(size)]
        for t in range(n):
            for r in range(size):
                cur = terms(r, t)
                for c in range(size):
                    row = [0] * nvars
                    for base, a in cur:
                        row[base + c] = lt * a
                    for cc in range(size):
                        q = pt[cc * size + c]
                        b = q[t] if t < len(q) else 0
                        if b:
                            for base, a in top[r]:
                                row[base + cc] -= b * a
                    if any(row):
                        rows.append(row)
    return rows, offsets


def matrix_intertwiner_search(
    w1: Weight, w2: Weight, order_bound: int, *, n_horizon: int | None = None
) -> list[DiffOp]:
    """Operators T of order <= K with P_n . T = C_n Pt_n, found exactly.

    The extraction C_n := [x^n](P_n . T) is itself linear in T, so the
    condition for n <= n_horizon is one homogeneous linear system over Q,
    assembled as an integer system over one denominator per n
    (``_search_system``) and solved by ``nullspace``. The horizon defaults to
    K + 3, and a smaller one is a DomainError. The basis operators that hold
    up to n_horizon + 3 are returned, each scaled so that the last nonzero
    entry of its leading coefficient is monic. An empty list is bounded
    evidence, not a nonexistence proof.
    """
    if w1.size != w2.size:
        raise ShapeError("weights must have equal size")
    n_horizon = _search_horizon(order_bound, n_horizon)
    size, step = w1.size, w1.size * w1.size
    rows, offsets = _search_system(sequence_for(w1), sequence_for(w2), size, order_bound, n_horizon)
    ops = []
    for v in nullspace(rows, offsets[-1]):
        # entry (r, c) of F_j, coefficients by power of x, from j's block
        blocks = [v[offsets[j] : offsets[j + 1]] for j in range(order_bound + 1)]
        coeffs = [[[Poly(b[r * size + c :: step]) for c in range(size)] for r in range(size)] for b in blocks]
        op = DiffOp(size, [MatPoly(f) for f in coeffs])
        if not op.is_zero:
            scale = [e for r in op.coeffs[-1].rows for e in r if e][-1].lc
            ops.append(op if scale == 1 else op * (1 / scale))
    return [v for v in ops if matrix_intertwiner_verify(v, w1, w2, n_horizon + 3)]


def intertwiner_search(
    w1, w2, order_bound: int, degree_slack: int = 0, *, n_horizon: int | None = None
) -> IntertwinerBasis:
    """``matrix_intertwiner_search`` between two scalar families, on their
    1x1 weights. Pairs whose density ratio is not a rational function are
    refused structurally: their module is zero.

    ``degree_slack`` is accepted and ignored, for callers that still pass
    it: no degree bound wider than the ansatz's deg F_j <= j finds more
    (``_search_system``).
    """
    f1, f2 = _family_of(w1), _family_of(w2)
    n_horizon = _search_horizon(order_bound, n_horizon)
    if density_ratio(f1, f2) is None:
        return IntertwinerBasis(
            f1, f2, order_bound, (), refused=True,
            reason="density ratio is not rational: the module is zero",
            horizon=n_horizon,
        )
    ops = matrix_intertwiner_search(f1.scalar_weight(), f2.scalar_weight(), order_bound, n_horizon=n_horizon)
    return IntertwinerBasis(f1, f2, order_bound, tuple(ops), horizon=n_horizon)


# ---------------------------------------------------------------------------
# module generators and decomposition


def module_generator(w1, w2) -> DiffOp:
    """Cyclic generator of the intertwiner right-module between two classical
    scalar weights: the zero operator when they are not Darboux related, the
    identity when equal, and the explicit first-order ladder products
    otherwise."""
    f1, f2 = _family_of(w1), _family_of(w2)
    zero = DiffOp.zero(1)
    if type(f1) is not type(f2):
        return zero
    if f1 == f2:
        return DiffOp.identity(1)
    if isinstance(f1, HermiteShifted):
        return zero
    if isinstance(f1, Laguerre):
        d = f2.alpha - f1.alpha
        if d.denominator != 1:
            return zero
        k = int(d)
        if k > 0:
            step = DiffOp.scalar([Poly((-1,)), Poly((1,))])
            return op_power(step, k)
        k = -k
        out = None
        for j in range(k, 0, -1):
            nj = DiffOp.scalar([Poly((f2.alpha + j,)), X])
            out = nj if out is None else compose(out, nj)
        return out
    if f1.alpha + f1.beta != f2.alpha + f2.beta:
        return zero
    d = f2.alpha - f1.alpha
    if d.denominator != 1:
        return zero
    k = int(d)
    out = None
    if k > 0:
        for j in range(k, 0, -1):
            vj = DiffOp.scalar([Poly((f2.beta + j,)), Poly((1, 1))])
            out = vj if out is None else compose(out, vj)
        return out
    for j in range(-k, 0, -1):
        nj = DiffOp.scalar([Poly((f2.alpha + j,)), Poly((-1, 1))])
        out = nj if out is None else compose(out, nj)
    return out


def module_decompose(a: DiffOp, w1, w2) -> Poly:
    """Write a = T p(delta_{w2}) with T the module generator; degree descent
    on leading coefficients, raising DecompositionError with the residual
    when a leaves the cyclic module."""
    f1, f2 = _family_of(w1), _family_of(w2)
    t = module_generator(f1, f2)
    if t.is_zero:
        raise DecompositionError("module generator is zero for this pair")
    if a.size != 1:
        raise ShapeError("module decomposition applies to scalar operators")
    delta = f2.delta()
    coeffs: dict[int, Fraction] = {}
    r = a
    torder = t.order
    while not r.is_zero:
        o = r.order
        if o < torder or (o - torder) % 2 != 0:
            raise DecompositionError(
                f"residual of order {o} cannot be matched by generator of order {torder}",
                residual=r,
            )
        m = (o - torder) // 2
        base = compose(t, op_power(delta, m))
        # the leads are proportional when r's numerator is c times r.den times base's
        lead_r, lead_b = r.coeffs[-1].entry(0, 0), base.coeffs[-1].entry(0, 0) * r.den
        c = lead_r.lc / lead_b.lc
        if lead_r != lead_b * c:
            raise DecompositionError("leading coefficients are not proportional", residual=r)
        coeffs[m] = c
        r = r - base * c
        if not r.is_zero and r.order >= o:
            raise DecompositionError("descent failed to reduce the order", residual=r)
    if not coeffs:
        return Poly()
    deg = max(coeffs)
    return Poly([coeffs.get(m, Fraction(0)) for m in range(deg + 1)])


# ---------------------------------------------------------------------------
# Darboux certificates


@dataclass
class DarbouxCertificate:
    """The data realizing a Darboux transformation: D = V N in the algebra of
    W, with P_n . V = A_n Pt_n carrying the sequence of W onto that of Wt."""

    W: Weight
    Wt: Weight
    V: DiffOp
    Nn: DiffOp
    D: DiffOp
    n_max: int = 8
    conjugators: list[FracMat] = field(default_factory=list)


def darboux_verify(cert: DarbouxCertificate) -> Report:
    """The seven Darboux checks, for n <= n_max. Checks 1, 2 and 4 (D = V N,
    P_n . D = Lambda_n P_n, P_n . V = A_n Pt_n with A_n nonsingular) imply the
    rest, as P . (V N) = (P . V) . N: A_n (Pt_n . N) = Lambda_n P_n (check 6),
    Pt_n . (N V) = A_n^-1 Lambda_n A_n Pt_n (check 5), and diag(P_n, Pt_n) .
    (0 V / N 0) = (0 A_n / A_n^-1 Lambda_n 0) diag(P_n, Pt_n) (check 7). So
    checks 5-7 scan only when one of checks 1, 2 and 4 fails."""
    rep = Report()
    w, wt = _weight_of(cert.W), _weight_of(cert.Wt)
    seq = sequence_for(w)
    seqt = sequence_for(wt)
    n_max = cert.n_max

    factor = compare_operators(compose(cert.V, cert.Nn), cert.D)
    rep.add("factorization D = V N", factor)

    mem = verify_in_DW(cert.D, w, n_max)
    rep.add("D in algebra of W", mem)

    dv = degree_preserving(cert.V)
    dn = degree_preserving(cert.Nn)
    rep.add(
        "V and N degree-preserving",
        Verdict(dv.ok and dn.ok, "; ".join(s for s in (dv.detail, dn.detail) if s)),
    )

    fwd = relation(seq.poly, cert.V, seqt.poly, n_max)
    singular = [n for n, a in enumerate(fwd.eigs) if a.det() == 0]
    conj = fwd.eigs[: singular[0]] if singular else fwd.eigs
    ok4 = fwd.ok and not singular
    detail4 = f"conjugator A_{singular[0]} is singular" if singular else fwd.detail
    rep.add("P_n . V = A_n Pt_n with A_n nonsingular", Verdict(ok4, detail4))
    cert.conjugators = conj
    derived = factor.ok and mem.ok and ok4

    memt = Verdict(True) if derived else verify_in_DW(compose(cert.Nn, cert.V), wt, n_max)
    rep.add("N V in algebra of Wt", memt)

    if derived:
        rev = Verdict(True)
    elif ok4 and mem.ok:
        rev = relation(
            seqt.poly, cert.Nn, seq.poly, n_max, cs=lambda n: conj[n].inv() * mem.eigs[n]
        )
    else:
        rev = Verdict(False, "skipped: prerequisites failed")
    rep.add("Pt_n . N = A_n^-1 Lambda_n(D) P_n", rev)

    # the direct sum is formed even when check 7 is derived, so that blocks
    # on different supports are refused as they are when it scans
    bw = Weight.direct_sum([w, wt])
    memb = Verdict(True) if derived else verify_in_DW(block_antidiagonal(cert.V, cert.Nn), bw, n_max)
    rep.add("antidiagonal block operator in algebra of W (+) Wt", memb)
    return rep


# ---------------------------------------------------------------------------
# classification of scalar weights and their direct sums


def scalar_darboux_class(f1, f2) -> bool:
    """Same Darboux-equivalence class: a rational density ratio
    (``density_ratio``: one family, equal Hermite shifts, integer parameter
    differences) and, for Jacobi, an equal parameter sum."""
    f1, f2 = _family_of(f1), _family_of(f2)
    if density_ratio(f1, f2) is None:
        return False
    return not isinstance(f1, Jacobi) or f1.alpha + f1.beta == f2.alpha + f2.beta


def _scalar_blocks(w: Weight) -> list[ScalarWeightFamily]:
    out = []
    for b in w.flat_blocks():
        out.append(b.scalar_family())
    return out


def diag_darboux_match(w: Weight, wt: Weight) -> tuple[int, ...] | None:
    """A permutation sigma with wt_j ~ w_{sigma(j)} for all j, or None.

    First-found matching in lexicographic order; any valid permutation
    certifies the pairing condition.
    """
    fs = _scalar_blocks(_weight_of(w))
    fts = _scalar_blocks(_weight_of(wt))
    if len(fs) != len(fts):
        raise ShapeError("direct sums have different lengths")
    n = len(fs)
    used = [False] * n
    sigma: list[int] = []

    def backtrack(j: int) -> bool:
        if j == n:
            return True
        for i in range(n):
            if not used[i] and scalar_darboux_class(fts[j], fs[i]):
                used[i] = True
                sigma.append(i)
                if backtrack(j + 1):
                    return True
                used[i] = False
                sigma.pop()
        return False

    if backtrack(0):
        return tuple(sigma)
    return None


def commutativity_predicate(w: Weight) -> bool:
    """The algebra of a direct sum of classical scalar weights is commutative
    exactly when no two blocks are Darboux related."""
    fams = _scalar_blocks(_weight_of(w))
    for i in range(len(fams)):
        for j in range(len(fams)):
            if i != j and scalar_darboux_class(fams[i], fams[j]):
                return False
    return True


# ---------------------------------------------------------------------------
# fullness


def fullness_check(ds: list[DiffOp], generators: list[DiffOp]) -> Report:
    """Orthogonal system evidence: pairwise products vanish, the sum is
    central against the supplied generators, and the sum is not a zero
    divisor.

    The last is decided exactly: the sum D has polynomial coefficients with
    deg F_j <= j and det S_n, S_n its symbol (``degree_preserving``), is not
    the zero polynomial in n. Then D X = 0 or X D = 0 forces X = 0 for X in
    the algebra: Lambda_n(D X) = Lambda_n(D) Lambda_n(X) with Lambda_n(D) =
    S_n, so Lambda_n(X) vanishes wherever det S_n does not, and a matrix
    polynomial in n that vanishes at all but finitely many n is zero.
    """
    rep = Report()
    for i, j in permutations(range(len(ds)), 2):
        rep.add(f"product D{i + 1} D{j + 1} = 0", compose(ds[i], ds[j]).is_zero)
    total = sum(ds[1:], ds[0])
    for k, g in enumerate(generators):
        rep.add(f"sum commutes with generator {k + 1}", compose(total, g) == compose(g, total))
    dp = degree_preserving(total)
    if dp.ok:
        dp = Verdict(True, "symbol nonsingular for every n >= 0")
    elif dp.residual is not None:
        # degree_preserving leaves det S_n as the residual only when every
        # deg F_j <= j and det S_n != 0; here it has a nonnegative integer root
        dp = Verdict(True, f"symbol singular at finitely many n, the first n = {dp.fail_n}")
    rep.add("sum is not a zero divisor", dp)
    return rep
