"""The integer kernels of ``w_adjoint``, ``degree_preserving`` and
``nonneg_integer_roots`` against the Fraction-polynomial code they replaced,
kept here as oracles: every result must be repr-identical. The field
elimination that ``det``, ``inverse`` and ``solve_square`` ran before they
read their results off ``bareiss`` is kept here too, for the symbol oracle
and for ``test_exactalg`` and ``test_diffop``."""

import math
from fractions import Fraction as F

from hypothesis import example, given, settings, strategies as st

from mvop import exactalg
from mvop.diffop import DiffOp, MatPoly, Verdict, degree_preserving, w_adjoint
from mvop.exactalg import MatRF, Poly, RatFunc, SingularError, X, exact_div, int_form, nonneg_integer_roots, poly_divmod, poly_gcd
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


def sturm_oracle(p):
    """The square-free part q of p and its Sturm chain, over Q."""
    q = exact_div(p, poly_gcd(p, p.derivative()))
    chain = [q, q.derivative()]
    while chain[-1].degree > 0:
        chain.append(-poly_divmod(chain[-2], chain[-1])[1])
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
    det = field_det(MatRF(rows)).as_poly()
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
    factor B diag(1/(x + c_i)) B^T on Laguerre, or a direct sum of scalar
    weights whose parameters differ by integers."""
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
    if shape == "rational":
        scale = MatRF.diag(*(RatFunc(_P1, X + draw(st.integers(1, 3))) for _ in range(size)))
        return Weight.atomic(Laguerre(draw(params)), lower * scale * lower.transpose())
    return Weight.atomic(_family(draw, kind), lower * lower.transpose())


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
