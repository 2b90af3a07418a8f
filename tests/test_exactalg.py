"""Exact arithmetic foundation: examples plus algebraic property tests."""

import math
from fractions import Fraction as F
from itertools import zip_longest

import pytest
from hypothesis import example, given, settings, strategies as st

from mvop.diffop import DiffOp, MatPoly, apply, compose, int_action
from mvop.exactalg import (
    DivisionError,
    DomainError,
    FracMat,
    MatRF,
    Poly,
    RatFunc,
    ShapeError,
    SingularError,
    X,
    bareiss,
    digit,
    exact_div,
    frac,
    int_form,
    nonneg_integer_roots,
    nullspace,
    pack,
    poly_dot,
    poly_gcd,
    poly_over,
    poly_quo,
    poly_str,
    read_off,
    solve_square,
    unpack,
)
from test_integer_kernels import field_det, field_divmod, field_eliminate, field_inverse, field_reduce, field_solve

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
polys = st.lists(fractions, max_size=5).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


class TestPoly:
    def test_derivative_power_rule(self):
        assert (X**2 - Poly.const(1)).derivative() == 2 * X

    def test_product(self):
        assert (X - 1) * (X + 1) == X**2 - Poly.const(1)

    def test_exact_divide(self):
        assert exact_div(X**2 - Poly.const(1), X - 1) == X + 1

    def test_exact_divide_rejects_remainder(self):
        with pytest.raises(DivisionError):
            exact_div(X**2 + Poly.const(1), X - 1)

    def test_zero_degree(self):
        assert Poly().degree == -1
        assert Poly((0, 0)).is_zero

    def test_eval(self):
        assert (X**3 - 2 * X)(F(1, 2)) == F(1, 8) - 1

    def test_str_parseable_shapes(self):
        assert poly_str(F(3, 2) * X**2 - X + Poly.const(1)) == "3/2*x^2 - x + 1"
        assert poly_str(Poly()) == "0"

    @given(polys, polys, polys)
    @settings(max_examples=40, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a

    @given(polys, nonzero_polys)
    @settings(max_examples=30, deadline=None)
    def test_divmod_reconstructs(self, a, b):
        # the Q[x] oracle divides, and poly_quo divides exactly the multiples
        q, r = field_divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree or r.is_zero
        assert poly_quo(q * b, b) == q
        assert (poly_quo(a, b) is None) == (not r.is_zero)

    def test_gcd_monic(self):
        g = poly_gcd(2 * (X - 1) * (X + 2), 4 * (X - 1))
        assert g == X - 1

    def test_nonneg_integer_roots(self):
        p = (X - 2) * (X + 3) * X
        assert nonneg_integer_roots(p) == [0, 2]
        assert nonneg_integer_roots(X**2 + Poly.const(1)) == []
        # a0 is about 3e30: trial division up to its square root would take
        # about 1.7e15 steps
        big = 10**15
        p = (X - big) * (X - (big + 2)) * (X**2 + 3)
        assert nonneg_integer_roots(p) == [big, big + 2]
        assert nonneg_integer_roots(X**2 + Poly.const(10**30 + 1)) == []
        assert nonneg_integer_roots(F(1, 3) * (X - big) ** 2 * (3 * X - 1)) == [big]

    @given(
        st.lists(st.integers(-50, 10**12), max_size=4),
        st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=7), max_size=2),
        st.lists(st.integers(1, 10**6), max_size=2),
        st.integers(1, 3),
        st.sampled_from([F(1), F(-2), F(3, 5)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_integer_roots_found_exactly(self, ints, rats, quads, mult, lead):
        # a product of chosen linear factors (repeated), rational roots and
        # quadratics x^2 + c without real roots
        p = Poly.const(lead)
        for r in ints:
            p = p * (X - r) ** mult
        for r in rats:
            p = p * (X - r)
        for c in quads:
            p = p * (X**2 + c)
        expected = sorted({r for r in ints if r >= 0} | {int(r) for r in rats if r >= 0 and r.denominator == 1})
        assert nonneg_integer_roots(p) == expected


class TestRatFunc:
    def test_constant_cancellation(self):
        r = RatFunc(2 * X + Poly.const(2), Poly.const(2))
        assert r == RatFunc(X + 1)

    def test_common_factor(self):
        assert RatFunc(X**2 - Poly.const(1), X - 1) == RatFunc(X + 1)

    def test_zero_normal_form(self):
        r = RatFunc(Poly(), X**3)
        assert r.num.is_zero and r.den == Poly((1,))

    def test_zero_denominator(self):
        with pytest.raises(DomainError):
            RatFunc(X, Poly())

    def test_monic_denominator(self):
        r = RatFunc(X, 2 * X + Poly.const(2))
        assert r.den.lc == 1

    @given(polys, nonzero_polys)
    @settings(max_examples=40, deadline=None)
    def test_simplify_idempotent(self, num, den):
        # the canonical form is a fixed point of the constructor
        r = RatFunc(num, den)
        assert RatFunc(r.num, r.den) == r

    @given(polys, nonzero_polys, polys, nonzero_polys)
    @settings(max_examples=30, deadline=None)
    def test_field_axioms(self, a, b, c, d):
        x = RatFunc(a, b)
        y = RatFunc(c, d)
        assert x + y == y + x
        assert x * y == y * x
        if not y.is_zero:
            assert (x / y) * y == x


class TestMatRF:
    def test_diag_inverse(self):
        m = MatRF.diag(Poly((1,)), Poly((1, 1)))
        inv = m.inverse()
        assert inv.entry(1, 1) == RatFunc(Poly((1,)), Poly((1, 1)))
        assert m * inv == MatRF.identity(2)

    def test_unitriangular_det(self):
        m = MatRF([[Poly((1,)), X], [Poly(), Poly((1,))]])
        assert m.det() == RatFunc(Poly((1,)))

    def test_jac2_factor_inverse_roundtrip(self):
        # direct multiplication check on the 2x2 Jacobi-type matrix factor
        from mvop.catalog import entry

        w = entry("JAC2").weight_Wt
        m = MatRF([[RatFunc(e) for e in r] for r in w.N.rows])
        assert m * m.inverse() == MatRF.identity(2)

    def test_singular_raises(self):
        m = MatRF([[Poly((1,)), Poly((1,))], [Poly((1,)), Poly((1,))]])
        with pytest.raises(SingularError):
            m.inverse()

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            MatRF([[Poly((1,)), Poly((1,))]])

    @given(st.integers(1, 3), st.data())
    @settings(max_examples=25, deadline=None)
    def test_inverse_roundtrip(self, n, data):
        rows = [
            [
                Poly(data.draw(st.lists(st.integers(-3, 3), min_size=0, max_size=3)))
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        m = MatRF(rows)
        if m.det().is_zero:
            with pytest.raises(SingularError):
                m.inverse()
        else:
            assert m * m.inverse() == MatRF.identity(n)


class TestMatrixBase:
    def test_blockdiag(self):
        a, b = FracMat([[1, 2], [3, 4]]), FracMat([[5, 6, 7]])
        assert FracMat.blockdiag([a, b]) == FracMat(
            [[1, 2, 0, 0, 0], [3, 4, 0, 0, 0], [0, 0, 5, 6, 7]]
        )
        m = MatRF.blockdiag([MatRF([[X]]), MatRF.identity(2)])
        assert m == MatRF.diag(X, 1, 1)

    def test_coercion_and_shape_errors(self):
        from mvop.diffop import MatPoly

        with pytest.raises(TypeError):
            MatRF([["x"]])
        with pytest.raises(TypeError):
            MatPoly([[1.5]])
        with pytest.raises(TypeError):
            # MatPoly takes no RatFunc: a rational matrix is a MatRF
            MatPoly([[RatFunc(Poly((1,)), X)]])
        with pytest.raises(ShapeError):
            FracMat([[1, 2], [3]])
        with pytest.raises(ShapeError):
            FracMat([[1, 2]]) * FracMat([[1, 2]])
        with pytest.raises(ShapeError):
            MatPoly.identity(2) + MatPoly.identity(3)

    def test_products_and_scalars(self):
        from mvop.diffop import MatPoly

        m = FracMat([[1, 2, 3]])
        assert m * m.transpose() == FracMat([[14]])
        assert 2 * m == m * F(2) == m + m
        p = MatPoly([[X, 1], [0, X]])
        assert X * p == p * X == MatPoly([[X**2, X], [0, X**2]])
        assert (p - p).is_zero and -p + p == MatPoly.zeros(2)
        inv_x = RatFunc(Poly((1,)), X)
        assert MatRF.identity(2) * inv_x == MatRF.diag(inv_x, inv_x)


_scalars = st.one_of(st.just(F(0)), st.integers(-3, 3), st.fractions(max_denominator=5))


class TestScalarProduct:
    """A matrix times a scalar skips its zero entries and equals the
    entrywise product, repr for repr."""

    @given(st.integers(1, 3), st.data(), _scalars)
    @settings(max_examples=100, deadline=None)
    def test_fracmat(self, n, data, s):
        m = FracMat(data.draw(st.lists(st.lists(st.one_of(st.just(F(0)), fractions), min_size=n, max_size=n), min_size=n, max_size=n)))
        want = FracMat([[c * s for c in r] for r in m.rows])
        assert repr(m * s) == repr(s * m) == repr(want) and m * s == want

    @given(st.integers(1, 3), st.data(), st.one_of(_scalars, polys))
    @settings(max_examples=100, deadline=None)
    def test_matpoly(self, n, data, s):
        m = MatPoly(data.draw(st.lists(st.lists(st.one_of(st.just(Poly()), polys), min_size=n, max_size=n), min_size=n, max_size=n)))
        want = MatPoly([[c * s for c in r] for r in m.rows])
        assert repr(m * s) == repr(s * m) == repr(want) and m * s == want
        assert all(p._ints == Poly(p.coeffs)._ints for r in (m * s).rows for p in r)


class TestLinearAlgebra:
    def test_nullspace_simple(self):
        rows = [[F(1), F(1), F(0)], [F(0), F(0), F(1)]]
        basis = nullspace(rows, 3)
        assert len(basis) == 1
        v = basis[0]
        assert v[0] + v[1] == 0 and v[2] == 0

    def test_fracmat_inverse(self):
        m = FracMat([[1, 2], [3, 4]])
        assert m * m.inv() == FracMat.identity(2)
        assert m.det() == -2


# small integers with extra zeros, so that row exchanges and singular
# matrices are common
int_square_rows = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.one_of(st.just(0), st.integers(-3, 3)), min_size=n, max_size=n), min_size=n, max_size=n)
)


class TestIntegerBareiss:
    """``bareiss`` on integers: exact floor division, the field
    elimination's determinant and inverse, leading minors through
    ``admit``."""

    @given(int_square_rows)
    @example([[0, 1], [1, 0]])
    @settings(max_examples=300, deadline=None)
    def test_matches_fracmat_det_and_inv(self, rows):
        n, m = len(rows), FracMat(rows)
        det, adj = bareiss([r + [int(i == j) for j in range(n)] for i, r in enumerate(rows)])
        assert type(det) is int and det == field_det(m) == bareiss(rows)[0]
        if det:
            assert all(type(v) is int for r in adj for v in r)
            assert FracMat(adj) * F(1, det) == field_inverse(m)
        else:
            assert adj is None

    @given(int_square_rows)
    @settings(max_examples=200, deadline=None)
    def test_leading_blocks_give_leading_minors(self, rows):
        # weight admission reads each leading principal minor off the
        # leading k x k block
        got = [bareiss([r[:k] for r in rows[:k]])[0] for k in range(1, len(rows) + 1)]
        assert got == [field_det(FracMat([r[:k] for r in rows[:k]])) for k in range(1, len(rows) + 1)]


# small rationals with extra zeros, so that singular matrices are common
entries = st.one_of(st.just(F(0)), st.fractions(min_value=-3, max_value=3, max_denominator=4))
square_rows = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
)
# wider and taller than square, like the 252 x 81 LAG3 search system
rect_rows = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda s: st.lists(st.lists(entries, min_size=s[1], max_size=s[1]), min_size=s[0], max_size=s[0])
)


huge = st.builds(F, st.integers(-(2**100), 2**100), st.integers(1, 10**6))
null_entries = st.one_of(st.just(F(0)), entries, huge)


@st.composite
def null_rows(draw):
    """Rectangular matrices with zero, repeated and scaled rows mixed in."""
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(null_entries, min_size=ncols, max_size=ncols), min_size=1, max_size=6))
    for _ in range(draw(st.integers(0, 3))):
        src = draw(st.sampled_from(rows))
        scale = draw(st.one_of(st.just(F(1)), huge.filter(bool)))
        row = draw(st.sampled_from(([F(0)] * ncols, [scale * c for c in src])))
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


def _nullspace_over_q(rows, ncols):
    """Oracle: the Fraction route, the RREF of the field elimination read off."""
    pivots, echelon = field_eliminate(rows, ncols)
    reduced = field_reduce(pivots, echelon)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [F(0)] * ncols
        v[free] = F(1)
        for p, prow in zip(pivots, reduced):
            v[p] = -prow[free]
        basis.append(v)
    return basis


nonzero_ints = st.one_of(st.integers(1, 2**70), st.integers(-(2**70), -1))
sparse_values = st.one_of(
    nonzero_ints,
    st.builds(F, nonzero_ints, st.integers(1, 10**6)),
    st.builds(F, st.integers(-3, 3).filter(bool), st.integers(1, 4)),
)


@st.composite
def sparse_rows(draw):
    """Wide int and Fraction rows, at most a fifth of each nonzero, like the
    search systems, with zero, repeated and scaled rows mixed in."""
    ncols = draw(st.integers(10, 40))
    nonzeros = st.dictionaries(st.integers(0, ncols - 1), sparse_values, max_size=ncols // 5)
    rows = []
    for cells in draw(st.lists(nonzeros, min_size=1, max_size=24)):
        row = [draw(st.sampled_from((0, F(0))))] * ncols
        for c, v in cells.items():
            row[c] = v
        rows.append(row)
    for _ in range(draw(st.integers(0, 5))):
        src = draw(st.sampled_from(rows))
        scale = draw(st.one_of(st.just(1), sparse_values))
        row = draw(st.sampled_from(([0] * ncols, [scale * c for c in src])))
        rows.insert(draw(st.integers(0, len(rows))), row)
    return rows


class TestNullspaceOracle:
    @given(null_rows())
    @settings(max_examples=150, deadline=None)
    def test_nullspace_matches_field_kernel(self, rows):
        ncols = len(rows[0])
        assert repr(nullspace(rows, ncols)) == repr(_nullspace_over_q(rows, ncols))

    @given(sparse_rows())
    @settings(max_examples=150, deadline=None)
    def test_sparse_nullspace_matches_field_kernel(self, rows):
        ncols = len(rows[0])
        want = _nullspace_over_q([[F(c) for c in r] for r in rows], ncols)
        assert repr(nullspace(rows, ncols)) == repr(want)


@st.composite
def permuted_int_systems(draw):
    """A sparse integer system and a column order: rows of a few nonzeros,
    zero rows among them, and a drawn set of columns pinned by one-cell rows,
    so that full rank and empty nullspaces occur."""
    ncols = draw(st.integers(1, 16))
    cells = st.dictionaries(st.integers(0, ncols - 1), nonzero_ints, max_size=max(1, ncols // 3))
    rows = []
    for row_cells in draw(st.lists(cells, max_size=ncols + 4)):
        row = [0] * ncols
        for c, v in row_cells.items():
            row[c] = v
        rows.append(row)
    for c in draw(st.sets(st.integers(0, ncols - 1))):
        rows.insert(draw(st.integers(0, len(rows))), [draw(nonzero_ints) if k == c else 0 for k in range(ncols)])
    return rows or [[0] * ncols], draw(st.permutations(range(ncols)))


class TestReadOff:
    """``read_off`` gives back, in the original column order, the basis
    ``nullspace`` reads off for that order, from the nullspace of the
    system with its columns permuted."""

    @given(permuted_int_systems())
    @example(([[0, 0, 0]], [2, 0, 1]))
    @example(([[3, 0], [0, -5]], [1, 0]))
    @example(([[1, 2, 3], [2, 4, 6]], [0, 1, 2]))
    @settings(max_examples=200, deadline=None)
    def test_read_off_undoes_a_column_permutation(self, case):
        rows, cols = case
        ncols = len(cols)
        permuted = [[r[k] for k in cols] for r in rows]
        pairs = read_off(nullspace(permuted, ncols), cols, ncols)
        assert all(type(c) is int for ints, _ in pairs for c in ints) and all(den > 0 for _, den in pairs)
        got = [[F(c, den) for c in ints] for ints, den in pairs]
        assert repr(got) == repr(nullspace(rows, ncols))


@st.composite
def dense_rows(draw, values, max_size=4):
    """Square matrices of ``values``; in about half of them one row is a
    multiple of another (a zero multiple too), so that singular ones are
    common."""
    n = draw(st.integers(1, max_size))
    rows = draw(st.lists(st.lists(values, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.permutations(range(n)))[:2]
        scale = draw(values)
        rows[i] = [scale * c for c in rows[j]]
    return rows


# small and huge Fractions; RatFuncs over (x + c)^k with repeated factors
dense_fracs = st.one_of(entries, huge)
dense_ratfuncs = st.builds(
    lambda p, c, k: RatFunc(p, (X + c) ** k),
    st.lists(fractions, max_size=3).map(Poly),
    st.integers(-2, 2),
    st.integers(0, 2),
)


def _to_sympy(rows):
    sympy = pytest.importorskip("sympy")
    return sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in r] for r in rows])


def _from_sympy(m):
    return [[F(int(m[i, j].p), int(m[i, j].q)) for j in range(m.cols)] for i in range(m.rows)]


class TestAgainstSympy:
    """sympy as an independent oracle for the exact elimination kernels."""

    @given(dense_rows(dense_fracs))
    @settings(max_examples=100, deadline=None)
    def test_det_and_inverse(self, rows):
        ref, m = _to_sympy(rows), FracMat(rows)
        det = ref.det()
        assert m.det() == F(int(det.p), int(det.q))
        assert repr(m.det()) == repr(field_det(m))
        if det == 0:
            for inverse in (FracMat.inv, field_inverse):
                with pytest.raises(SingularError):
                    inverse(m)
        else:
            assert m.inv() == FracMat(_from_sympy(ref.inv()))
            assert repr(m.inv()) == repr(field_inverse(m))

    @given(dense_rows(dense_fracs), st.data())
    @settings(max_examples=100, deadline=None)
    def test_solve_square(self, rows, data):
        width = data.draw(st.integers(1, 3))
        rhs = [data.draw(st.lists(dense_fracs, min_size=width, max_size=width)) for _ in rows]
        ref = _to_sympy(rows)
        if ref.det() == 0:
            for solve in (solve_square, field_solve):
                with pytest.raises(SingularError):
                    solve(rows, rhs)
        else:
            got = solve_square(rows, rhs)
            assert got == _from_sympy(ref.solve(_to_sympy(rhs)))
            assert repr(got) == repr(field_solve(rows, rhs))

    @given(st.one_of(square_rows, rect_rows))
    @settings(max_examples=120, deadline=None)
    def test_nullspace_span_and_dimension(self, rows):
        sympy = pytest.importorskip("sympy")
        a = _to_sympy(rows)
        ref = a.nullspace()
        basis = nullspace(rows, len(rows[0]))
        assert len(basis) == len(ref)
        if basis:
            ours = _to_sympy(basis).T
            assert (a * ours).is_zero_matrix and ours.rank() == len(basis)
            assert sympy.Matrix.hstack(ours, *ref).rank() == len(ref)

    @given(dense_rows(st.one_of(st.lists(st.integers(-3, 3), max_size=3).map(Poly), dense_ratfuncs), 3))
    @settings(max_examples=30, deadline=None)
    def test_matrf_det_and_inverse(self, rows):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        ours, n = MatRF(rows), len(rows)
        ref = sympy.Matrix([[_sympy_poly(e.num, x).as_expr() / _sympy_poly(e.den, x).as_expr() for e in r] for r in ours.rows])
        det = _canonical(ref.det(), x)
        assert _parts(ours.det()) == det
        assert repr(ours.det()) == repr(field_det(ours))
        if not det[0]:
            for inverse in (MatRF.inverse, field_inverse):
                with pytest.raises(SingularError):
                    inverse(ours)
        else:
            inv, ref_inv = ours.inverse(), ref.inv()
            for i in range(n):
                for j in range(n):
                    assert _parts(inv.entry(i, j)) == _canonical(ref_inv[i, j], x)
            assert repr(inv) == repr(field_inverse(ours))

    @given(polys, nonzero_polys)
    @settings(max_examples=40, deadline=None)
    def test_poly_product_division_and_gcd(self, a, b):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        sa, sb = _sympy_poly(a, x), _sympy_poly(b, x)
        assert (a * b).coeffs == _coeffs(sa * sb)
        sq, sr = sympy.div(sa, sb)
        quo = poly_quo(a, b)
        assert quo is None if not sr.is_zero else quo.coeffs == _coeffs(sq)
        assert poly_quo(a * b, b).coeffs == _coeffs(sa)
        assert poly_gcd(a, b).coeffs == _coeffs(sympy.gcd(sa, sb).monic())

    @given(polys, nonzero_polys)
    @settings(max_examples=40, deadline=None)
    def test_ratfunc_canonical_form(self, num, den):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        expr = _sympy_poly(num, x).as_expr() / _sympy_poly(den, x).as_expr()
        assert _parts(RatFunc(num, den)) == _canonical(expr, x)


def _sympy_poly(p, x):
    sympy = pytest.importorskip("sympy")
    terms = [sympy.Rational(c.numerator, c.denominator) * x**k for k, c in enumerate(p.coeffs)]
    return sympy.Poly(sum(terms, sympy.Integer(0)), x, domain=sympy.QQ)


def _coeffs(sp):
    # low degree first, trailing zeros dropped, as Poly.coeffs
    cs = [F(int(c.p), int(c.q)) for c in reversed(sp.all_coeffs())]
    while cs and not cs[-1]:
        cs.pop()
    return tuple(cs)


def _parts(r):
    return r.num.coeffs, r.den.coeffs


def _canonical(expr, x):
    """sympy's reduced numerator and denominator, scaled to a monic denominator."""
    sympy = pytest.importorskip("sympy")
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    num, den = sympy.Poly(num, x, domain=sympy.QQ), sympy.Poly(den, x, domain=sympy.QQ)
    lc = den.LC()
    return _coeffs(num.quo_ground(lc)), _coeffs(den.quo_ground(lc))


# ---------------------------------------------------------------------------
# the integer product kernel against Fraction schoolbook oracles


def _schoolbook(pairs):
    out = {}
    for a, b in pairs:
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                out[i + j] = out.get(i + j, F(0)) + x * y
    return Poly([out.get(k, F(0)) for k in range(max(out, default=-1) + 1)])


def _matmul(p, q):
    cols = list(zip(*q.rows))
    return MatPoly([[_schoolbook(zip(row, col)) for col in cols] for row in p.rows])


def _apply_per_j(p, d):
    """The right action as one full matrix product per d-power, summed."""
    acc, der = MatPoly.zeros(p.size), p
    for j, f in enumerate(d.poly_coeffs()):
        if j:
            der = der.derivative()
        if not f.is_zero:
            acc = acc + _matmul(der, f)
    return acc


big_fractions = st.builds(F, st.integers(-(2**200), 2**200), st.integers(1, 10**6))
big_polys = st.lists(big_fractions, max_size=21).map(Poly)
small_big_polys = st.lists(big_fractions, max_size=4).map(Poly)


edge_polys = st.one_of(st.just(Poly()), big_fractions.map(Poly.const), small_big_polys)


def _matpolys(n, entries=small_big_polys):
    return st.lists(entries, min_size=n * n, max_size=n * n).map(
        lambda cs: MatPoly([cs[r * n : (r + 1) * n] for r in range(n)])
    )


class TestProductKernel:
    @given(st.lists(st.tuples(big_polys, big_polys), max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_poly_dot_matches_schoolbook(self, pairs):
        assert poly_dot(pairs) == _schoolbook(pairs)

    @given(big_polys, big_polys)
    @settings(max_examples=60, deadline=None)
    def test_product_matches_schoolbook(self, a, b):
        assert a * b == b * a == _schoolbook([(a, b)])

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(_matpolys(n), _matpolys(n))))
    @settings(max_examples=30, deadline=None)
    def test_matpoly_product_matches_schoolbook(self, pq):
        p, q = pq
        assert p * q == _matmul(p, q)
        c = p.coeff(0)
        assert q.lmul_const(c) == _matmul(MatPoly([[Poly.const(v) for v in r] for r in c.rows]), q)

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(_matpolys(n, edge_polys), st.lists(_matpolys(n, edge_polys), max_size=7))))
    @settings(max_examples=50, deadline=None)
    def test_apply_matches_per_power_sum(self, args):
        # zero and constant entries, sizes 1..3, d-powers up to 6 above entry
        # degrees up to 3
        p, fs = args
        d = DiffOp.from_matrices(p.size, fs)
        assert apply(p, d) == _apply_per_j(p, d)

    def test_apply_order_above_degree(self):
        big = F(2**90 + 1, 7)
        p = MatPoly([[big * X**2 - 1]])
        assert apply(p, DiffOp.scalar([Poly(), Poly(), Poly(), Poly((1,))])) == MatPoly([[Poly()]])
        assert apply(p, DiffOp.scalar([Poly(), Poly(), X])) == MatPoly([[2 * big * X]])
        q = MatPoly([[Poly.const(big), Poly()], [X**3, Poly.const(3)]])
        d = DiffOp.from_matrices(2, [MatPoly.zeros(2), MatPoly.identity(2), MatPoly.zeros(2), MatPoly.identity(2)])
        assert apply(q, d) == MatPoly([[Poly(), Poly()], [3 * X**2 + 6, Poly()]]) == _apply_per_j(q, d)

    def test_sum_cancels_to_zero(self):
        a, b = Poly((F(1, 3), -7, F(2**90, 11))), Poly((5, F(-1, 2)))
        assert poly_dot([(a, b), (-a, b)]) == Poly()
        assert poly_dot([(a, b), (b, -a)]).is_zero
        assert poly_dot([]) == poly_dot([(Poly(), a)]) == Poly()

    def test_leading_cancellation_trims_degree(self):
        got = poly_dot([(X**2 + 1, X + 1), (X**2, -X)])
        assert got == X**2 + X + 1 and got.degree == 2
        assert (X + 1) * (X - 1) - X * X == Poly.const(-1)

    def test_all_negative_coefficients_borrow_through(self):
        a = Poly([-(2**100 + k) for k in range(20)])
        b = Poly([F(k + 1, 3) for k in range(20)])
        got = poly_dot([(a, b), (a, a)])
        assert got == _schoolbook([(a, b), (a, a)])
        assert all(c < 0 for c in (a * b).coeffs)

    def test_digits_at_the_ends_of_the_signed_range(self):
        w = 13
        digits = [-(2 ** (w - 1)), 2 ** (w - 1) - 1, -1, 0, -(2 ** (w - 1)), 1, -(2 ** (w - 1))]
        assert unpack(pack(digits, w), w, len(digits)) == digits
        assert unpack(pack([-1] * 9, w), w, 9) == [-1] * 9

    def test_width_bound_is_tight(self):
        # numerator sums of 1253 * (2^61 - 1)^2 sit within a factor 2 of the
        # packed digit range: three pairs, scales 60, 56, 63 to L = 2520,
        # seven terms per coefficient, all at the largest magnitude
        m = 2**61 - 1
        for sign in (1, -1):
            pairs = [(Poly([F(sign * m, d)] * 7), Poly([m] * 7)) for d in (42, 45, 40)]
            got = poly_dot(pairs)
            assert got == _schoolbook(pairs)
            assert got[6] == sign * F(1253 * m * m, 2520)

    @given(
        st.integers(1, 3).flatmap(lambda n: st.tuples(_matpolys(n, edge_polys), st.lists(_matpolys(n, edge_polys), max_size=4))),
        st.integers(0, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_coefficient_and_zero_test_on_packed_sums(self, args, k):
        # int_action's cell sums against the schoolbook right action: digit k
        # over the common denominator is [x^k], a sum is 0 exactly when its
        # cell is, and the sums of -P cancel those of P
        p, fs = args
        d = DiffOp.from_matrices(p.size, fs)
        (sums,), w = int_action(p, p.size, d)[:2]
        want = _apply_per_j(p, d)
        for row, wrow in zip(sums, want.rows):
            for v, e in zip(row, wrow):
                assert F(digit(v, w, k), p.int_form()[1] * d.int_form()[1]) == e[k]
                assert (v == 0) == e.is_zero
        (negated,), w2 = int_action(-p, p.size, d)[:2]
        assert w2 == w and all(a + b == 0 for row, nrow in zip(sums, negated) for a, b in zip(row, nrow))

    def test_digit_below_a_run_of_most_negative_digits(self):
        for w in (2, 13, 64):
            h = 1 << (w - 1)
            for top in (-h, -1, 0, 1, h - 1):
                digits = [-h] * 9 + [top, -h, h - 1]
                v = pack(digits, w)
                assert [digit(v, w, k) for k in range(len(digits) + 2)] == digits + [0, 0]

    def test_action_width_is_tight(self):
        # one product (2^32 - 1)^2 per digit reaches 2^(bits - 1), so a bound
        # one bit short, or a width without the sign bit, misreads every digit
        m = 2**32 - 1
        t = DiffOp(1, [MatPoly([[Poly.const(m)]])])
        for sign in (1, -1):
            (sums,), w, bits = int_action(MatPoly([[Poly([sign * m] * 3)]]), 1, t)
            assert (bits, w) == (64, 128)
            got = [digit(sums[0][0], w, k) for k in range(4)]
            assert got == [sign * m * m] * 3 + [0]
            assert 2 ** (bits - 1) <= m * m < 2**bits

    fast_path_polys = st.one_of(
        st.just(Poly()),
        fractions.map(Poly.const),
        st.builds(Poly.monomial, st.integers(0, 4), fractions),
        st.just(X),
        polys,
    )

    @given(fast_path_polys, fast_path_polys, st.integers(0, 5))
    @settings(max_examples=80, deadline=None)
    def test_constant_and_monomial_fast_paths(self, a, b, k):
        assert a * b == b * a == _schoolbook([(a, b)])
        want = Poly((1,))
        for _ in range(k):
            want = _schoolbook([(want, a)])
        assert a**k == want

    def test_reused_poly_keeps_its_integer_form(self):
        p = Poly((F(1, 2), F(-3, 4), F(2**70, 9)))
        before = p.coeffs
        for q in (p, X - 1, Poly((F(5, 6),)), p * p):
            assert p * q == _schoolbook([(p, q)])
            assert poly_dot([(p, q), (q, p)]) == _schoolbook([(p, q), (q, p)])
        assert p.coeffs == before
        assert p._ints == ((18, -27, 2**72), 36, 73)


class TestExactCoercion:
    def test_frac_refuses_float(self):
        with pytest.raises(TypeError, match="0.1"):
            frac(0.1)
        assert frac(3) == 3 and frac(F(1, 2)) == F(1, 2) and frac("3/2") == F(3, 2)

    @pytest.mark.parametrize("text", ["1e30000000", "1E3", "2.5e-1", "1_000", "3/1_0"])
    def test_frac_refuses_exponent_and_separator(self, text):
        # Fraction reads these, and '1e30000000' as a 30-million-digit integer
        with pytest.raises(ValueError, match="exponent or a digit separator"):
            frac(text)
        assert frac("3/2") == F(3, 2) and frac("-7") == -7 and frac("1.5") == F(3, 2)

    def test_poly_refuses_float(self):
        with pytest.raises(TypeError, match="0.1"):
            Poly((1, 0.1))
        assert Poly((1, "3/2", F(1, 2))).coeffs == (1, F(3, 2), F(1, 2))

    def test_fracmat_refuses_float(self):
        with pytest.raises(TypeError, match="0.5"):
            FracMat([[0.5]])
        assert FracMat([["1/2"]]) == FracMat([[F(1, 2)]])


def assert_canonical(p, coeffs=None):
    """p is stored in the one form: integer numerators without trailing
    zeros over a positive denominator that shares no factor with them, the
    largest numerator's exact bit length, zero as ((), 1, 0). Its Fraction
    view is those numerators over the denominator and, where given, the
    Fraction (schoolbook) result ``coeffs``."""
    ints, den, bits = int_form(p)
    assert type(ints) is tuple and all(type(v) is int for v in ints)
    assert type(den) is int and den > 0 and math.gcd(den, *ints) == 1
    assert not ints or ints[-1] != 0
    assert bits == max(map(abs, ints), default=0).bit_length()
    assert ints or (den, bits) == (1, 0)
    assert type(p.coeffs) is tuple and all(type(c) is F for c in p.coeffs)
    assert p.coeffs == tuple(F(v, den) for v in ints)
    assert Poly(p.coeffs) == p and int_form(Poly(p.coeffs)) == int_form(p)
    if coeffs is not None:
        coeffs = list(coeffs)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        assert p.coeffs == tuple(coeffs)


def _unset(obj, name):
    # True when the slot is empty; object.__getattribute__ skips __getattr__
    try:
        object.__getattribute__(obj, name)
    except AttributeError:
        return True
    return False


def _trusted_matrix(m, entry):
    assert type(m.rows) is tuple and all(type(r) is tuple for r in m.rows)
    assert all(type(e) is entry for r in m.rows for e in r)
    assert type(m)(m.rows) == m
    if entry is Poly:
        for r in m.rows:
            for e in r:
                assert_canonical(e)


def _fracmats(r, c):
    return st.lists(st.lists(fractions, min_size=c, max_size=c), min_size=r, max_size=r).map(FracMat)


class TestTrustedConstruction:
    """``poly_over`` and ``Matrix._of`` skip coercion, trimming and shape
    checks; every result built through them must equal the checked
    constructor's, and every Poly, from either, is in the one canonical
    form (``assert_canonical``)."""

    @given(polys, polys, fractions)
    @example(X**2 + 1, 1 - X**2, F(0))
    @example(Poly([F(-1, 2), F(3, 4)]), Poly([F(1, 2), F(1, 4)]), F(-2, 3))
    @settings(max_examples=80, deadline=None)
    def test_poly_arithmetic(self, a, b, c):
        # each result against schoolbook arithmetic on Fraction coefficients
        ca, cb = a.coeffs, b.coeffs
        added = lambda x, y, s: [u + s * v for u, v in zip_longest(x, y, fillvalue=F(0))]
        scaled = [c * v for v in ca]
        want = [
            (a + b, added(ca, cb, 1)), (a - b, added(ca, cb, -1)), (b - a, added(cb, ca, -1)),
            (-a, [-v for v in ca]), (a + (-a), []), (a * c, scaled), (c * a, scaled),
            (a * 3, [3 * v for v in ca]), (a * Poly.const(c), scaled), (Poly.const(c) * a, scaled),
            (a.derivative(), [k * v for k, v in enumerate(ca) if k]),
            (a.monic(), [v / ca[-1] for v in ca] if ca else []),
        ]
        for r, coeffs in want:
            assert_canonical(r, coeffs)
        assert a + 0 is a and 0 + a is a and a + Poly() is a and a - Poly() is a
        assert Poly() + a is a or a.is_zero

    @given(st.lists(st.integers(-(2**80), 2**80), max_size=6), st.integers(0, 3), st.integers(1, 10**6))
    @example([4, 6, 0, 2], 2, 2)
    @example([0, 0], 1, 5)
    @settings(max_examples=80, deadline=None)
    def test_poly_over_seeds_int_form(self, ints, zeros, den):
        p = poly_over(ints + [0] * zeros, den)
        assert p == Poly([F(c, den) for c in ints])
        assert_canonical(p, [F(c, den) for c in ints])

    @given(st.lists(st.integers(-(2**70), 2**70), max_size=6), st.integers(0, 2), st.integers(1, 10**5),
           st.lists(st.integers(-(2**40), 2**40), max_size=5), st.integers(1, 10**4), fractions)
    @example([], 0, 7, [], 1, F(0))
    @example([0, 0], 1, 3, [1], 2, F(1))
    @example([5], 0, 10, [-5], 10, F(-2, 3))
    @example([-4, 0, 0, 6], 1, 4, [4, 0, 0, -6], 4, F(3, 4))
    @settings(max_examples=80, deadline=None)
    def test_integer_operands_make_no_fraction(self, ints, zeros, den, other, oden, c):
        # a poly_over result and the same polynomial built from Fractions
        # agree everywhere; structure and +, -, negation, constant scaling
        # and derivative read no Fraction of operands that have none and
        # build none for their results
        lazy, eager = poly_over(ints + [0] * zeros, den), Poly([F(v, den) for v in ints])
        b, const = poly_over(other, oden), poly_over([c.numerator], c.denominator)
        assert lazy.degree == eager.degree and bool(lazy) == bool(eager) and lazy.is_zero == eager.is_zero
        assert lazy == eager and eager == lazy and not lazy != eager
        assert hash(lazy) == hash(eager)
        table = {eager: "eager"}
        table[lazy] = "lazy"
        assert table == {eager: "lazy"} and table[lazy] == "lazy"
        assert lazy == poly_over(ints, den) and hash(lazy) == hash(poly_over(ints, den))
        results = [lazy + b, b + lazy, lazy - b, b - lazy, -lazy, lazy * c, c * lazy, lazy * 3, -2 * lazy,
                   lazy * const, const * lazy, lazy.derivative(), lazy + 1, 1 - lazy]
        assert all(_unset(p, "coeffs") for p in (lazy, b, const, *results))
        eb = Poly([F(v, oden) for v in other])
        want = [eager + eb, eb + eager, eager - eb, eb - eager, -eager, eager * c, c * eager, eager * 3, -2 * eager,
                eager * Poly.const(c), Poly.const(c) * eager, eager.derivative(), eager + 1, 1 - eager]
        assert results == want
        for r, w in zip(results, want):
            assert_canonical(r, w.coeffs)
        assert [lazy[k] for k in range(-1, len(ints) + 2)] == [eager[k] for k in range(-1, len(ints) + 2)]
        assert (repr(lazy), str(lazy)) == (repr(eager), str(eager))
        if eager:
            assert lazy.lc == eager.lc and type(lazy.lc) is F
        assert lazy.coeffs == eager.coeffs
        assert_canonical(lazy)

    @given(st.lists(st.sampled_from([F(0), F(0), F(1), F(-3, 2), F(7, 5)]), max_size=7),
           st.sampled_from([0, 1, -2, F(0), F(3, 4), F(-1, 6)]))
    @example([F(1), F(0), F(0), F(2)], F(3, 4))
    @example([], 5)
    @example([F(-3, 2)], F(3, 4))
    @example([F(0), F(0), F(1)], 0)
    @settings(max_examples=80, deadline=None)
    def test_constant_scaling(self, coeffs, c):
        # scaling skips zero coefficients; the product is unchanged: each
        # coefficient times c, in either order and with c as a constant Poly
        p = Poly(coeffs)
        want = Poly([c * v for v in coeffs])
        for r in (p * c, c * p, p * Poly.const(c), Poly.const(c) * p):
            assert r == want and repr(r) == repr(want)
            assert_canonical(r)
        for q in (p, Poly.const(c)):
            assert q * Poly() == Poly() * q == Poly()

    @given(st.lists(st.tuples(big_polys, big_polys), max_size=4), nonzero_polys)
    @settings(max_examples=40, deadline=None)
    def test_kernel_results_seed_int_form(self, pairs, b):
        dot = poly_dot(pairs)
        assert_canonical(dot)
        for a, c in pairs:
            # a constant operand scales the other without the kernel
            assert_canonical(a * c, _schoolbook([(a, c)]).coeffs)
        quo = poly_quo(dot * b, b)
        assert quo == dot
        assert_canonical(quo)
        det, adj = bareiss([[b, X], [Poly.const(3), b * b]])
        assert_canonical(det)
        for r in adj:
            for e in r:
                assert_canonical(e)

    @given(
        st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3)).flatmap(
            lambda d: st.tuples(_fracmats(d[0], d[1]), _fracmats(d[0], d[1]), _fracmats(d[1], d[2]))
        ),
        fractions,
    )
    @settings(max_examples=60, deadline=None)
    def test_fracmat_results(self, mats, c):
        a, b, m = mats
        for r in (a + b, a - b, -a, a * m, a * c, c * a, 2 * a, a.transpose(), a + (-a)):
            _trusted_matrix(r, F)
        zero = FracMat.zeros(a.nrows, a.ncols)
        assert a + zero is a
        assert zero + a is a or a.is_zero

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(_matpolys(n, edge_polys), _matpolys(n, edge_polys))), fractions)
    @settings(max_examples=40, deadline=None)
    def test_matpoly_results(self, pq, c):
        p, q = pq
        for r in (p + q, p - q, -p, p * q, p * c, c * p, X * p, p * X, p.transpose(), p.derivative()):
            _trusted_matrix(r, Poly)
        for r in (p * q, p.lmul_const(q.coeff(0))):
            for e in (e for row in r.rows for e in row):
                assert_canonical(e)
        for k in range(3):
            _trusted_matrix(p.coeff(k), F)
        zero = MatPoly.zeros(p.size)
        assert p + zero is p
        assert zero + p is p or p.is_zero
        with pytest.raises(ShapeError):
            MatPoly.zeros(p.size + 1) + p

    @given(st.lists(st.builds(RatFunc, polys, nonzero_polys), min_size=4, max_size=4), fractions)
    @settings(max_examples=20, deadline=None)
    def test_matrf_results(self, entries, c):
        a = MatRF([entries[:2], entries[2:]])
        b = a.transpose()
        for r in (a + b, a - b, -a, a * b, a * c, c * a, X * a, a.transpose()):
            _trusted_matrix(r, RatFunc)

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(_matpolys(n, edge_polys), st.lists(_matpolys(n, edge_polys), max_size=4))))
    @settings(max_examples=40, deadline=None)
    def test_unpacked_results(self, args):
        # apply and compose unpack int_action's sums straight into MatPoly
        p, fs = args
        d = DiffOp.from_matrices(p.size, fs)
        for m in (apply(p, d), *compose(d, d).coeffs):
            _trusted_matrix(m, Poly)
            for e in (e for row in m.rows for e in row):
                assert_canonical(e)

    @given(st.integers(1, 3).flatmap(lambda n: st.lists(_fracmats(n, n), min_size=1, max_size=4)))
    @settings(max_examples=40, deadline=None)
    def test_relation_c_n(self, fs):
        # T = sum_j d^j x^j F_j maps x^n I to (sum_j (n)_j F_j) x^n, so C_n
        # is that sum
        from mvop.dwalgebra import relation

        size = fs[0].nrows
        d = DiffOp.from_matrices(size, [MatPoly([[Poly.monomial(j, v) for v in r] for r in f.rows]) for j, f in enumerate(fs)])
        powers = lambda n: MatPoly.scalar(X**n, size)
        rep = relation(powers, d, powers, 4)
        assert rep.ok
        for n, c in enumerate(rep.eigs):
            _trusted_matrix(c, F)
            want = FracMat.zeros(size)
            for j, f in enumerate(fs):
                want = want + f * F(math.perm(n, j))
            assert c == want
