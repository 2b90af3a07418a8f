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
from functools import reduce
from itertools import accumulate, permutations

from .exactalg import (
    _F0,
    DecompositionError,
    DomainError,
    FracMat,
    Poly,
    ShapeError,
    digit,
    int_matrix,
    nullspace,
    pack_width,
    poly_over,
    read_off,
)
from .diffop import (
    DiffOp,
    MatPoly,
    Verdict,
    action,
    apply,
    compare_operators,
    compose,
    degree_preserving,
    int_action,
    int_derivatives,
    op_power,
    w_adjoint,
)
from .weights import ScalarWeightFamily, Weight, _finite_ends, sequence_for


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


def relation(ps, t: DiffOp, qs, n_max: int, cs=None, *, n_min: int = 0) -> Verdict:
    """Check P_n . T = C_n Q_n for n_min <= n <= n_max.

    ``ps``, ``qs`` and ``cs`` map n to P_n, Q_n (matrix polynomials of degree
    n) and C_n (constant matrices). Without ``cs``, C_n is solved from the
    degree-n coefficients: [x^n](P_n . T) times the inverse of Q_n's leading
    coefficient, which must then be nonsingular. ``eigs`` holds C_{n_min},
    ..., C_{k-1} for the first failing n = k (all of them when the relation
    holds). ``n_max`` < 0 or ``n_min`` outside 0..n_max is a DomainError.

    When P_n, Q_n and T are polynomial, neither side is built: ``_decide``
    tests each n on one packed integer matrix product, from the integer
    forms P_n, Q_n and T keep (``diffop.IntForm``). Only an n that fails
    materialises P_n . T and C_n Q_n, for the residual. A rational T acts
    through ``action``.
    """
    check_horizon(n_max)
    if not 0 <= n_min <= n_max:
        raise DomainError(f"n_min = {n_min} outside 0..{n_max}")
    eigs: list[FracMat] = []
    poly = t.is_polynomial
    for n in range(n_min, n_max + 1):
        p = ps(n)
        r = None
        if not poly or p.size != t.size:
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
            c, ok = _decide(p, t, q, n, c, lead)
        elif c is None:
            c = r.coeff(n) if lead is None else r.coeff(n) * lead.inv()
        if not ok:
            r = apply(p, t) if r is None else r
            expected = q.lmul_const(c)
            if r != expected:
                return Verdict(False, f"P_n . T != C_n Q_n at n={n}", n, r - expected, eigs)
        eigs.append(c)
    return Verdict(True, eigs=eigs)


def _decide(p: MatPoly, t: DiffOp, q, n: int, c, lead) -> tuple[FracMat, bool]:
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
    (sums,), w, bits = int_action(p, s, t, extra)
    den = p.int_form()[1] * t.int_form()[1]
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
            (sums,), w = int_action(p, s, t, need - bits)[:2]
    qcols = q.packed_cols(w)
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
    # need not span the intertwiners that do. The search solves first at
    # order + 1, the rows' square core, and re-verifies each operator from
    # order + 2 to this horizon + 3, the rows solved holding exactly; only
    # when a core operator fails there does the whole system run
    if order_bound < 0:
        raise DomainError(f"search order bound {order_bound} is negative")
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

    ``nullspace`` takes the columns in triangular order, every [x^i]F_j with
    i < j by (j, i) and then every [x^j]F_j, in which the rows n <= K are
    block triangular, and ``read_off`` gives its basis back as the one
    ``nullspace`` reads off in the ansatz's order.

    The system is first solved on its square core, the rows n <= K + 1 (as
    many as unknowns), which its operators hold exactly. If every one holds
    for K + 1 < n <= n_horizon + 3, each satisfies every row up to n_horizon,
    so the core's nullspace and basis are the whole system's. Otherwise the
    whole system is solved and filtered for n_horizon < n <= n_horizon + 3.
    """
    if w1.size != w2.size:
        raise ShapeError("weights must have equal size")
    n_horizon = _search_horizon(order_bound, n_horizon)
    size, step = w1.size, w1.size * w1.size
    seq1, seq2 = sequence_for(w1), sequence_for(w2)

    def solve(horizon):
        rows, offsets = _search_system(seq1, seq2, size, order_bound, horizon)
        js = range(order_bound + 1)
        cols = [offsets[j] + i * step + k for j in js for i in range(j) for k in range(step)]
        cols += [offsets[j] + j * step + k for j in js for k in range(step)]
        ops = []
        for ints, _ in read_off(nullspace([[row[k] for k in cols] for row in rows], offsets[-1]), cols, offsets[-1]):
            # entry (r, c) of F_j, coefficients by power of x, from j's block,
            # over the lead of the top nonzero block's last nonzero entry
            blocks = [ints[offsets[j] : offsets[j + 1]] for j in js]
            lead = next(v for b in reversed(blocks) for k in reversed(range(step)) for v in reversed(b[k::step]) if v)
            if lead < 0:
                blocks, lead = [[-v for v in b] for b in blocks], -lead
            ops.append(DiffOp(size, [MatPoly._of([[poly_over(b[r * size + c :: step], lead) for c in range(size)] for r in range(size)])
                                     for b in blocks]))
        return ops

    ops = solve(order_bound + 1)
    if all(relation(seq1.poly, v, seq2.poly, n_horizon + 3, n_min=order_bound + 2) for v in ops):
        return ops
    return [v for v in solve(n_horizon) if relation(seq1.poly, v, seq2.poly, n_horizon + 3, n_min=n_horizon + 1)]


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
    if f1.density_class() != f2.density_class():
        return IntertwinerBasis(
            f1, f2, order_bound, (), refused=True,
            reason="density ratio is not rational: the module is zero",
        )
    ops = matrix_intertwiner_search(f1.scalar_weight(), f2.scalar_weight(), order_bound, n_horizon=n_horizon)
    return IntertwinerBasis(f1, f2, order_bound, tuple(ops))


# ---------------------------------------------------------------------------
# module generators and decomposition


def _exponent_changes(f1: ScalarWeightFamily, f2: ScalarWeightFamily) -> list[tuple[int, Fraction, int]]:
    """(e, f1's exponent a there, the integer change k from f1 to f2) at each
    finite end e of two Darboux related families."""
    return [(e, getattr(f1, name), int(getattr(f2, name) - getattr(f1, name))) for e, name, _ in _finite_ends(f1)]


def module_generator(w1, w2) -> DiffOp:
    """Cyclic generator of the intertwiner right-module between two classical
    scalar weights: zero unless they are Darboux related; else the ladders
    (a - i) + (x - e) d, i = 0, ..., k - 1 in that order, at the finite end e
    whose exponent falls from a by k, or (d + s1)^k, s1 the x coefficient of
    s, when none falls (Laguerre with alpha rising by k; k = 0 if equal)."""
    f1, f2 = _family_of(w1), _family_of(w2)
    if not scalar_darboux_class(f1, f2):
        return DiffOp.zero(1)
    changes = _exponent_changes(f1, f2)
    for e, a, k in changes:
        if k < 0:
            return reduce(compose, [DiffOp.scalar([Poly((a - i,)), Poly((-e, 1))]) for i in range(-k)])
    k = max((k for *_, k in changes), default=0)
    return op_power(DiffOp.scalar([Poly((f1.pearson()[1][1],)), Poly((1,))]), k)


def module_decompose(a: DiffOp, w1, w2) -> Poly:
    """Write a = T p(delta_{w2}) with T the module generator; degree descent
    on leading coefficients, raising DecompositionError with the residual
    when a leaves the cyclic module."""
    f1, f2 = _family_of(w1), _family_of(w2)
    if not scalar_darboux_class(f1, f2):
        raise DecompositionError("module generator is zero for this pair")
    if a.size != 1:
        raise ShapeError("module decomposition applies to scalar operators")
    # the generator's order is the largest exponent change at a finite end,
    # and the loop refuses an a of lower order before the generator is needed
    torder = max((abs(k) for *_, k in _exponent_changes(f1, f2)), default=0)
    t = module_generator(f1, f2) if a.order >= torder else None
    delta = f2.delta()
    coeffs: dict[int, Fraction] = {}
    r = a
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
    (0 V / N 0) = (0 A_n / A_n^-1 Lambda_n 0) diag(P_n, Pt_n) (check 7).

    When one of them fails, the reverse relation Pt_n . N = B_n P_n, B_n
    solved, runs as far as the forward one holds, and checks 5-7 are read off
    the two: check 7 fails where either first does, check 5 holds when both
    do (Pt_n . (N V) = B_n A_n Pt_n) and scans N V otherwise, and check 6
    fails at the first n with A_n B_n != Lambda_n, Pt_n . N = C P_n only for
    C = B_n as P_n is monic."""
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
    # with P_n and Pt_n monic and deg F_j <= j, A_n = [x^n](P_n . V) is V's
    # symbol S_n, and V's part of check 3 rules out det S_n = 0 for all n >= 0
    singular = [] if dv.ok else [n for n, a in enumerate(fwd.eigs) if a.det() == 0]
    conj = fwd.eigs[: singular[0]] if singular else fwd.eigs
    ok4 = fwd.ok and not singular
    detail4 = f"conjugator A_{singular[0]} is singular" if singular else fwd.detail
    rep.add("P_n . V = A_n Pt_n with A_n nonsingular", Verdict(ok4, detail4))
    cert.conjugators = conj

    # Pt_n . N = B_n P_n, B_n solved, as far as check 7 needs it
    sound = factor.ok and mem.ok and ok4
    back = Verdict(True) if sound else relation(seqt.poly, cert.Nn, seq.poly, n_max if fwd.ok else fwd.fail_n)
    memt = Verdict(True) if fwd.ok and back.ok else verify_in_DW(compose(cert.Nn, cert.V), wt, n_max)
    rep.add("N V in algebra of Wt", memt)

    if ok4 and mem.ok:
        bad = next((n for n, b in enumerate(back.eigs) if conj[n] * b != mem.eigs[n]), None)
        rev = back if bad is None else Verdict(False, f"P_n . T != C_n Q_n at n={bad}", bad)
    else:
        rev = Verdict(False, "skipped: prerequisites failed")
    rep.add("Pt_n . N = A_n^-1 Lambda_n(D) P_n", rev)

    # the direct sum is formed so that blocks on different supports are refused
    Weight.direct_sum([w, wt])
    k = min((v.fail_n for v in (fwd, back) if not v.ok), default=None)
    pole = f"non-polynomial action at n={k}" in (fwd.detail, back.detail)
    how = "non-polynomial action" if pole else "not an eigenfunction"
    memb = Verdict(True) if k is None else Verdict(False, f"{how} at n={k}", k)
    rep.add("antidiagonal block operator in algebra of W (+) Wt", memb)
    return rep


# ---------------------------------------------------------------------------
# classification of scalar weights and their direct sums


def scalar_darboux_class(f1, f2) -> bool:
    """Same Darboux-equivalence class (``ScalarWeightFamily.darboux_class``):
    a rational density ratio and equal u1, which for Jacobi is an equal
    parameter sum."""
    return _family_of(f1).darboux_class() == _family_of(f2).darboux_class()


def _block_classes(w) -> list[tuple]:
    return [b.scalar_family().darboux_class() for b in _weight_of(w).flat_blocks()]


def diag_darboux_match(w: Weight, wt: Weight) -> tuple[int, ...] | None:
    """A permutation sigma with wt_j ~ w_{sigma(j)} for all j, or None.

    Each target block takes the first free block of its class. Darboux
    relatedness is an equivalence, so this is the lexicographically first
    matching, and a target whose class has no free block left has none.
    """
    cs, cts = _block_classes(w), _block_classes(wt)
    if len(cs) != len(cts):
        raise ShapeError("direct sums have different lengths")
    free: dict[tuple, list[int]] = {}
    for i, c in reversed(list(enumerate(cs))):
        free.setdefault(c, []).append(i)
    sigma = []
    for c in cts:
        if not free.get(c):
            return None
        sigma.append(free[c].pop())
    return tuple(sigma)


def commutativity_predicate(w: Weight) -> bool:
    """The algebra of a direct sum of classical scalar weights is commutative
    exactly when no two blocks are Darboux related."""
    cs = _block_classes(w)
    return len(set(cs)) == len(cs)


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
