"""The integer kernels of ``w_adjoint``, ``degree_preserving``,
``nonneg_integer_roots`` and polynomial division against the
Fraction-polynomial code they replaced, kept here as oracles: every result
must be repr-identical. The field elimination that ``det``, ``inverse`` and
``solve_square`` ran before they read their results off ``bareiss``, the
division and gcd over Q that ``poly_quo`` and ``poly_gcd`` replaced, and the
MatRF entry form of operators and weight factors are kept here too, for the
oracles of ``test_exactalg``, ``test_diffop`` and ``test_weights``."""

import math
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from mvop import exactalg
from mvop.diffop import DiffOp, MatPoly, Verdict, degree_preserving, w_adjoint
from mvop.exactalg import (
    DivisionError,
    DomainError,
    MatRF,
    Poly,
    RatFunc,
    SingularError,
    X,
    den_lcm,
    exact_div,
    int_form,
    nonneg_integer_roots,
    poly_gcd,
    poly_quo,
)
from mvop.weights import HermiteShifted, Jacobi, Laguerre, Weight

_P1 = Poly((1,))


# ---------------------------------------------------------------------------
# the oracles: the code before the integer kernels


def adjoint_oracle(d, weight):
    """The twisted Leibniz sum on Poly numerators: R_0 = M N_l^T,
    R_{i+1} = R_i' t + (s - i t') R_i, over q t^n det, reduced once by
    ``DiffOp``'s canonical form."""
    if d.is_zero:
        return d
    s, t, m, adj, det = weight.factor_data()
    q, n = d.den, d.order
    if q != _P1:
        s, t = s * q - t * q.derivative(), t * q
    dt, powers = t.derivative(), [t**i for i in range(n + 1)]
    out = [MatPoly.zeros(d.size)] * (n + 1)
    for l, f in enumerate(d.coeffs):
        if f.is_zero:
            continue
        r = m * f.transpose()
        for i in range(l + 1):
            out[l - i] = out[l - i] + r * (powers[n - i] * ((-1) ** l * math.comb(l, l - i)))
            if i < l:
                r = r.derivative() * t + r * (s - dt * i)
    return DiffOp(d.size, [c * adj for c in out], q * powers[n] * det)


def field_divmod(a, b):
    """(quotient, remainder) of a by b, by long division over Q."""
    if b.is_zero:
        raise DomainError("polynomial division by zero")
    q = [F(0)] * max(0, a.degree - b.degree + 1)
    rem = list(a.coeffs)
    for k in range(len(rem) - 1, b.degree - 1, -1):
        if rem[k]:
            f = rem[k] / b.lc
            q[k - b.degree] = f
            for i, c in enumerate(b.coeffs):
                rem[k - b.degree + i] -= f * c
    return Poly(q), Poly(rem)


def field_exact_div(a, b):
    q, r = field_divmod(a, b)
    if not r.is_zero:
        raise DivisionError(f"nonzero remainder in exact division: {r}")
    return q


def field_gcd(a, b):
    """The monic gcd by Euclid's algorithm over Q."""
    while not b.is_zero:
        a, b = b, field_divmod(a, b)[1]
    return a.monic()


def sturm_oracle(p):
    """The square-free part q of p and its Sturm chain, over Q."""
    q = field_exact_div(p, field_gcd(p, p.derivative()))
    chain = [q, q.derivative()]
    while chain[-1].degree > 0:
        chain.append(-field_divmod(chain[-2], chain[-1])[1])
    return q, chain


def roots_oracle(p):
    """Sturm bisection with the square-free part and the chain over Q."""
    q, chain = sturm_oracle(p)
    if q.degree < 1:
        return []
    ints = []
    for s in chain:
        scale = math.lcm(*(c.denominator for c in s.coeffs))
        ints.append([int(c * scale) for c in reversed(s.coeffs)])

    def changes(x):
        out, last = 0, 0
        for cs in ints:
            v = 0
            for c in cs:
                v = v * x + c
            if v:
                if last and (v > 0) != (last > 0):
                    out += 1
                last = v
        return out

    bound = 1 + math.ceil(max(abs(c) for c in q.coeffs[:-1]) / abs(q.lc))
    roots, todo = [], [(-1, bound, changes(-1), changes(bound))]
    while todo:
        a, b, va, vb = todo.pop()
        if b - a == 1:
            if q(b) == 0:
                roots.append(b)
            continue
        m = (a + b) // 2
        vm = changes(m)
        for half in ((a, m, va, vm), (m, b, vm, vb)):
            if half[2] > half[3]:
                todo.append(half)
    return sorted(roots)


def symbol_oracle(d):
    """S_n = sum_j (n)_j [x^j]F_j over Q[n], its determinant by the
    RatFunc elimination kernel, roots by ``roots_oracle``."""
    if d.is_zero:
        return Verdict(False, "zero operator")
    polys = d.poly_coeffs()
    if polys is None:
        return Verdict(False, "non-polynomial coefficient")
    for j, f in enumerate(polys):
        if f.degree > j:
            return Verdict(False, f"coefficient degree {f.degree} exceeds d-power {j}")
    n = d.size
    rows = [[Poly() for _ in range(n)] for _ in range(n)]
    for j, f in enumerate(polys):
        top, fall = f.coeff(j), _P1
        for t in range(j):
            fall = fall * Poly((-t, 1))
        for r in range(n):
            for c in range(n):
                if top.entry(r, c):
                    rows[r][c] = rows[r][c] + fall * top.entry(r, c)
    det = field_det(MatRF(rows))
    assert det.den == _P1
    det = det.num
    if det.is_zero:
        return Verdict(False, "symbol determinant vanishes identically", fail_n=0)
    roots = roots_oracle(det)
    if roots:
        return Verdict(False, f"symbol singular at n = {roots[0]}", fail_n=roots[0], residual=det)
    return Verdict(True, residual=det)


def field_eliminate(rows, ncols):
    """Row echelon form by incremental elimination over a field (Fraction,
    RatFunc), pivoting in the first ``ncols`` columns only.

    Row operations span the whole row, so columns past ``ncols`` (an augmented
    right-hand side) are carried along; a row that vanishes on the first
    ``ncols`` columns is dropped. Each row is reduced only by multiples of the
    rows kept before it, so it is zero at their pivots and left of its own.
    Returns the pivot columns and the rows, unscaled.
    """
    pivots, echelon = [], []
    for row in rows:
        r = list(row)
        width = len(r)
        for p, prow in zip(pivots, echelon):
            if r[p]:
                f = r[p] / prow[p]
                for c in range(p, width):
                    if prow[c]:
                        r[c] = r[c] - f * prow[c]
        lead = next((c for c in range(ncols) if r[c]), None)
        if lead is not None:
            pivots.append(lead)
            echelon.append(r)
    return pivots, echelon


def field_reduce(pivots, echelon):
    """The reduced row echelon form of ``field_eliminate``'s output, by back
    substitution: each row scaled to 1 at its pivot, that column cleared in
    the rows before it. The rows are changed in place."""
    for i in range(len(echelon) - 1, -1, -1):
        p, r = pivots[i], echelon[i]
        inv = 1 / r[p]
        r[:] = [c * inv if c else c for c in r]
        for prow in echelon[:i]:
            f = prow[p]
            if f:
                for c in range(p, len(r)):
                    if r[c]:
                        prow[c] = prow[c] - f * r[c]
    return echelon


def field_det(m):
    """det of a FracMat or MatRF: sign(pivot permutation) times the product
    of the pivots, or zero when the rank is short. Elimination adds to each
    row only multiples of earlier rows, which keeps the determinant."""
    n = m.nrows
    pivots, echelon = field_eliminate(m.rows, n)
    if len(pivots) < n:
        return m._zero
    det = m._coerce(1)
    for p, r in zip(pivots, echelon):
        det = det * r[p]
    swaps = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1 :])
    return -det if swaps % 2 else det


def field_solve(a_rows, b_rows):
    """Solve A X = B, A square, by reducing [A | B]. Raises SingularError."""
    n = len(a_rows)
    pivots, echelon = field_eliminate([list(a) + list(b) for a, b in zip(a_rows, b_rows)], n)
    if len(pivots) < n:
        raise SingularError("singular linear system")
    return [row[n:] for _, row in sorted(zip(pivots, field_reduce(pivots, echelon)))]


def field_inverse(m):
    """The inverse of a square FracMat or MatRF by ``field_solve``."""
    return type(m)(field_solve(m.rows, type(m).identity(m.nrows).rows))


def numerator_form(ms):
    """([N_j], q) with the MatRF ms[j] = N_j / q, q the monic lcm of their
    denominators: the entry form that ``DiffOp`` and ``Weight`` took."""
    q = den_lcm(f.den for m in ms for r in m.rows for f in r)
    return [MatPoly([[e.num * exact_div(q, e.den) for e in r] for r in m.rows]) for m in ms], q


def matrf_op(size, ms):
    """The operator sum_j d^j ms[j] of MatRF coefficients."""
    nums, q = numerator_form(ms)
    return DiffOp(size, nums, q)


def matrf_weight(family, m):
    """rho_family times the MatRF factor m."""
    (num,), q = numerator_form([m])
    return Weight.atomic(family, num, q)


def rf_derivative(r):
    """The derivative of a RatFunc, by the quotient rule."""
    return RatFunc(r.num.derivative() * r.den - r.num * r.den.derivative(), r.den * r.den)


def matrf_derivative(m):
    return MatRF([[rf_derivative(c) for c in r] for r in m.rows])


def matrf_coeffs(d):
    """The coefficients F_j = N_j / den of an operator as MatRFs."""
    return [MatRF([[RatFunc(e, d.den) for e in r] for r in d.coeff(j).rows]) for j in range(d.order + 1)]


# ---------------------------------------------------------------------------
# strategies

coeffs = st.one_of(st.integers(-3, 3).map(F), st.builds(F, st.integers(-3, 3), st.integers(1, 4)))
params = st.builds(F, st.integers(0, 6), st.integers(1, 3))


def _polys(max_degree):
    return st.lists(coeffs, max_size=max_degree + 1).map(Poly)


def _matpoly(draw, size, max_degree):
    return MatPoly([[draw(_polys(max_degree)) for _ in range(size)] for _ in range(size)])


@st.composite
def operators(draw, size, symbol_shaped=False):
    """Order <= 4 over polynomial entries of degree <= 2 (<= j for d^j when
    ``symbol_shaped``), polynomial or over a denominator (x + c) or
    (x + c)(x + e)."""
    order = draw(st.integers(0, 4))
    cs = [_matpoly(draw, size, j if symbol_shaped else 2) for j in range(order + 1)]
    den = _P1
    if not symbol_shaped:
        for _ in range(draw(st.integers(0, 2))):
            den = den * (X + draw(st.integers(-2, 3)))
    return DiffOp(size, cs, den)


def _family(draw, kind):
    if kind == "hermite":
        return HermiteShifted(draw(st.builds(F, st.integers(-3, 3), st.integers(1, 2))))
    if kind == "laguerre":
        return Laguerre(draw(params))
    return Jacobi(draw(params), draw(params))


@st.composite
def weights(draw, size):
    """rho times L L^T (L unit lower triangular, polynomial), a rational
    factor L diag(1/q_i) L^T with q_i = x^k_i on Laguerre or (1 - x)^a_i
    (1 + x)^b_i on Jacobi, exponents <= 1, over the family with its
    exponents raised by 2 (admission moves the poles into the density), or
    a direct sum of scalar weights whose parameters differ by integers."""
    kind = draw(st.sampled_from(["hermite", "laguerre", "jacobi"]))
    shape = draw(st.sampled_from(["factor", "rational", "sum"]))
    if shape == "sum" and size > 1:
        fam = _family(draw, kind)
        if kind == "hermite":
            parts = [fam] * size
        elif kind == "laguerre":
            parts = [Laguerre(fam.alpha + draw(st.integers(0, 2))) for _ in range(size)]
        else:
            parts = [Jacobi(fam.alpha + draw(st.integers(0, 2)), fam.beta + draw(st.integers(0, 2))) for _ in range(size)]
        return Weight.of_scalars(*parts)
    lower = MatRF([[1 if r == c else draw(_polys(1)) if r > c else 0 for c in range(size)] for r in range(size)])
    if shape == "rational" and kind != "hermite":
        fam, ends = (Laguerre(draw(params) + 2), [X]) if kind == "laguerre" else (
            Jacobi(draw(params) + 2, draw(params) + 2), [1 - X, 1 + X])
        dens = [math.prod((e ** draw(st.integers(0, 1)) for e in ends), start=_P1) for _ in range(size)]
        scale = MatRF.diag(*(RatFunc(_P1, q) for q in dens))
        return matrf_weight(fam, lower * scale * lower.transpose())
    return matrf_weight(_family(draw, kind), lower * lower.transpose())


pairs = st.integers(1, 3).flatmap(lambda n: st.tuples(operators(n), weights(n)))


@st.composite
def root_polys(draw):
    """A constant or a dense integer polynomial times (x - r)^m over roots
    that repeat, include 0, negative, rational and near-10^15 values, times
    x^2 + c factors without real roots."""
    roots = st.one_of(
        st.integers(-20, 40),
        st.just(0),
        st.integers(0, 3).map(lambda k: 10**15 + k),
        st.builds(F, st.integers(-30, 30), st.integers(1, 5)),
    )
    if draw(st.booleans()):  # a dense integer polynomial, any signs
        p = Poly(draw(st.lists(st.integers(-9, 9), min_size=1, max_size=7))) or _P1
    else:
        p = Poly.const(draw(st.sampled_from([F(1), F(-1), F(-2), F(3, 5), F(10**15)])))
    for _ in range(draw(st.integers(0, 4))):
        p = p * (X - draw(roots)) ** draw(st.integers(1, 3))
    for _ in range(draw(st.integers(0, 2))):
        p = p * (X**2 + draw(st.integers(1, 10**15)))
    return p


# ---------------------------------------------------------------------------
# the comparisons


class TestAdjointOracle:
    @given(pairs)
    @settings(max_examples=80, deadline=None)
    def test_random_pairs(self, pair):
        d, w = pair
        got = w_adjoint(d, w)
        assert repr(got) == repr(adjoint_oracle(d, w)) and got == adjoint_oracle(d, w)

    def test_catalog_pairs(self):
        # every catalog operator against every weight of its size
        from mvop.catalog import ENTRY_NAMES, entry

        entries = [entry(name) for name in ENTRY_NAMES]
        ws = [w for e in entries for w in e.doc.weights.values()]
        for e in entries:
            for d in (*e.ops.values(), *e.verbatim_ops.values()):
                for w in ws:
                    if w.size == d.size:
                        assert repr(w_adjoint(d, w)) == repr(adjoint_oracle(d, w))


class TestSymbolOracle:
    @given(st.tuples(st.integers(1, 3), st.sampled_from([True, True, True, False])).flatmap(lambda a: operators(*a)))
    @settings(max_examples=120, deadline=None)
    @example(DiffOp.scalar([Poly((-2,)), X]))
    @example(DiffOp.scalar([Poly(), Poly(), _P1]))
    def test_random_operators(self, d):
        assert repr(degree_preserving(d)) == repr(symbol_oracle(d))

    def test_catalog_operators(self):
        from mvop.catalog import ENTRY_NAMES, entry

        for name in ENTRY_NAMES:
            e = entry(name)
            for d in (*e.ops.values(), *e.verbatim_ops.values()):
                assert repr(degree_preserving(d)) == repr(symbol_oracle(d))


class TestRootsOracle:
    @given(root_polys())
    @settings(max_examples=150, deadline=None)
    @example((X - 10**15) ** 3 * X**2 * (X - 2))
    @example(Poly.const(7))
    @example(Poly((2, 0, -2)))
    def test_random_polynomials(self, p):
        assert nonneg_integer_roots(p) == roots_oracle(p)
        # each element of the integer chain is a positive multiple of the
        # oracle's, so every sign count agrees
        q, chain = sturm_oracle(p)
        if q.degree > 0:
            got = exactalg._sturm_chain(exactalg._primitive_coeffs(int_form(q)[0]))
            assert len(got) == len(chain)
            for a, b in zip(got, chain):
                ratio = F(a[-1]) / b.lc
                assert ratio > 0 and Poly(a) == b * ratio


# polynomial division: Z[x] against Q[x] and sympy

big_coeffs = st.builds(F, st.integers(-(2**100), 2**100), st.integers(1, 10**6))
division_coeffs = st.one_of(coeffs, big_coeffs)


def _division_polys(max_degree):
    return st.lists(division_coeffs, max_size=max_degree + 1).map(Poly)


@st.composite
def division_pairs(draw):
    """(g u, g v): a common factor g and cofactors u, v, each possibly zero
    or constant, with small Fraction coefficients or numerators up to 2^100;
    v is often a constant, and then b divides a."""
    g, u = draw(_division_polys(3)), draw(_division_polys(3))
    v = draw(st.one_of(_division_polys(2), division_coeffs.map(Poly.const)))
    return g * u, g * v


def _sympy_coeffs(p, x):
    sympy = pytest.importorskip("sympy")
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)] or [0], x, domain=sympy.QQ)


def _from_sympy(sp):
    cs = [F(int(c.p), int(c.q)) for c in reversed(sp.all_coeffs())]
    return Poly(cs)


class TestDivisionOracle:
    @given(division_pairs())
    @settings(max_examples=200, deadline=None)
    @example((Poly(), X + 1))
    @example((X * 0, Poly()))
    @example((Poly.const(F(3, 2)), Poly.const(F(-(2**100), 7))))
    @example(((X + F(2**100, 3)) * (X - 1) * F(5, 7), (X + F(2**100, 3)) * F(2**99, 11)))
    def test_against_field_oracle_and_sympy(self, pair):
        sympy = pytest.importorskip("sympy")
        a, b = pair
        x = sympy.Symbol("x")
        sa, sb = _sympy_coeffs(a, x), _sympy_coeffs(b, x)
        g = poly_gcd(a, b)
        assert repr(g) == repr(field_gcd(a, b))
        if a or b:
            assert g == _from_sympy(sympy.gcd(sa, sb).monic())
        if b.is_zero:
            for divide in (poly_quo, exact_div):
                with pytest.raises(DomainError, match="division by zero"):
                    divide(a, b)
            return
        q, r = field_divmod(a, b)
        sq, sr = sympy.div(sa, sb)
        assert (q, r) == (_from_sympy(sq), _from_sympy(sr))
        got = poly_quo(a, b)
        if r:
            assert got is None
            with pytest.raises(DivisionError):
                exact_div(a, b)
        else:
            assert repr(got) == repr(q) and repr(exact_div(a, b)) == repr(q)
