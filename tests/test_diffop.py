"""Operators: right action, composition, adjoints, degree preservation."""

import math
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from mvop.dsl import op_str
from mvop import diffop
from mvop.exactalg import DomainError, MatRF, NonPolynomialError, Poly, RatFunc, ShapeError, X, bareiss
from mvop.diffop import (
    DiffOp,
    MatPoly,
    action,
    apply,
    block_antidiagonal,
    bump_coefficient,
    coefficient_sites,
    compose,
    degree_preserving,
    op_power,
    quotient_chain,
    w_adjoint,
)
from mvop.weights import Jacobi, Laguerre, Weight, classical_monic, sequence_for
from test_integer_kernels import (
    field_det,
    field_inverse,
    matrf_coeffs,
    matrf_derivative,
    matrf_op,
    matrf_weight,
    rf_derivative,
)

ALPHA = F(1, 2)


def embed_scalar(t: DiffOp, size: int, i: int, j: int) -> DiffOp:
    """The 1x1 operator t placed at cell (i, j) of a size x size operator."""
    assert t.size == 1
    out = []
    for c in t.coeffs:
        rows = [[Poly() for _ in range(size)] for _ in range(size)]
        rows[i][j] = c.entry(0, 0)
        out.append(MatPoly(rows))
    return DiffOp(size, out, t.den)


def lag_v():
    return DiffOp.scalar([Poly((-1,)), Poly((1,))])  # d - 1


def lag_n(alpha=ALPHA):
    return DiffOp.scalar([Poly((alpha + 1,)), X])  # d x + alpha + 1


class TestApply:
    def test_identity_action(self):
        p = MatPoly([[X**2, X], [Poly((1,)), Poly()]])
        assert apply(p, DiffOp.identity(2)) == p

    def test_scalar_example(self):
        # x . (d - 1) = 1 - x
        out = apply(MatPoly([[X]]), lag_v())
        assert out == MatPoly([[Poly((1, -1))]])

    def test_laguerre_ladder_degree_one(self):
        # l_1 with parameter alpha maps to minus l_1 with parameter alpha + 1
        l1 = classical_monic(Laguerre(ALPHA), 1)
        assert l1 == Poly((-(ALPHA + 1), 1))
        out = apply(MatPoly([[l1]]), lag_v()).entry(0, 0)
        assert out == -1 * classical_monic(Laguerre(ALPHA + 1), 1)

    def test_size_mismatch(self):
        with pytest.raises(ShapeError):
            apply(MatPoly.identity(2), lag_v())


class TestCompose:
    def test_laguerre_factorization(self):
        # (d - 1)(d x + alpha + 1) = delta_alpha - (alpha + 1)
        got = compose(lag_v(), lag_n())
        want = Laguerre(ALPHA).delta() - (ALPHA + 1) * DiffOp.identity(1)
        assert got == want

    def test_laguerre_reverse_factorization(self):
        # (d x + alpha + 1)(d - 1) = delta_{alpha+1} - (alpha + 1)
        got = compose(lag_n(), lag_v())
        want = Laguerre(ALPHA + 1).delta() - (ALPHA + 1) * DiffOp.identity(1)
        assert got == want

    def test_identity_neutral(self):
        d = Jacobi(F(1, 2), F(3, 4)).delta()
        assert compose(d, DiffOp.identity(1)) == d
        assert compose(DiffOp.identity(1), d) == d

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_apply_compose_consistency(self, data):
        size = data.draw(st.integers(1, 3))
        p = _random_matpoly(data, size, 4)
        a = _random_op(data, size, 3)
        b = _random_op(data, size, 3)
        lhs = apply(p, compose(a, b))
        rhs = apply(apply(p, a), b)
        assert lhs == rhs

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_compose_associative(self, data):
        size = data.draw(st.integers(1, 2))
        a = _random_op(data, size, 2)
        b = _random_op(data, size, 2)
        c = _random_op(data, size, 2)
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


# ---------------------------------------------------------------------------
# compose against the Leibniz rule on MatRF coefficients, the way products
# were formed before they went through apply; a rational operator's
# coefficients are its numerators over its den (``matrf_coeffs``)


def _leibniz(first, second):
    n = first.size
    out = [MatRF.zeros(n)] * (first.order + second.order + 1)
    for j, g in enumerate(matrf_coeffs(second)):
        for i, f in enumerate(matrf_coeffs(first)):
            ders = [f]
            for _ in range(j):
                ders.append(matrf_derivative(ders[-1]))
            for m in range(j + 1):
                out[i + m] = out[i + m] + ders[j - m] * g * math.comb(j, m)
    return matrf_op(n, out)


def _compose_summed(first, second):
    # the d^k coefficient as a MatPoly sum of apply(F_i, B_m) over i + m = k,
    # the way compose formed it before one int_dot per cell
    n = first.size
    out = [MatPoly.zeros(n)] * (first.order + second.order + 1)
    lefts = first.poly_coeffs() or first.coeffs
    for m in range(len(second.coeffs)):
        bm = DiffOp(n, [g * math.comb(j, m) for j, g in enumerate(second.coeffs[m:], m)]) if m else second
        for i, f in enumerate(lefts):
            out[i + m] = out[i + m] + apply(f, bm)
    return DiffOp(n, out)


big_coeffs = st.builds(F, st.integers(-(2**100), 2**100), st.integers(1, 10**6))
small_coeffs = st.builds(F, st.integers(-3, 3), st.integers(1, 3))
big_polys = st.lists(big_coeffs, max_size=4).map(Poly)
small_polys = st.lists(small_coeffs, max_size=3).map(Poly)
# a denominator x + c, nonconstant before any cancellation
ratfuncs = st.builds(lambda num, c: RatFunc(num, X + c), small_polys, st.integers(-2, 2))


def _ops(size, entries, max_order=4):
    cells = size * size
    return st.lists(
        st.lists(entries, min_size=cells, max_size=cells), min_size=1, max_size=max_order + 1
    ).map(lambda cs: matrf_op(size, [MatRF([c[r * size : (r + 1) * size] for r in range(size)]) for c in cs]))


class TestComposeOracle:
    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(_ops(n, big_polys), _ops(n, big_polys))))
    @settings(max_examples=25, deadline=None)
    def test_polynomial_big_coefficients(self, ab):
        a, b = ab
        assert compose(a, b) == _leibniz(a, b)

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(_ops(n, ratfuncs), _ops(n, ratfuncs))))
    @settings(max_examples=15, deadline=None)
    def test_rational_coefficients(self, ab):
        a, b = ab
        assert compose(a, b) == _leibniz(a, b)

    @given(
        st.integers(1, 3).flatmap(lambda n: st.tuples(_ops(n, small_polys), _ops(n, ratfuncs))),
        st.booleans(),
    )
    @settings(max_examples=15, deadline=None)
    def test_mixed_polynomial_and_rational(self, ab, swap):
        a, b = ab[::-1] if swap else ab
        assert compose(a, b) == _leibniz(a, b)

    @given(st.integers(1, 3).flatmap(lambda n: st.tuples(_ops(n, big_polys, 3), _ops(n, big_polys, 3))))
    @settings(max_examples=25, deadline=None)
    def test_polynomial_against_summed_applies(self, ab):
        a, b = ab
        got, want = compose(a, b), _compose_summed(a, b)
        assert got == want and repr(got) == repr(want)

    def test_zero_operands(self):
        a = lag_n()
        for z in (DiffOp.zero(1), DiffOp.scalar([Poly(), Poly()])):
            assert compose(a, z) == compose(z, a) == DiffOp.zero(1) == _leibniz(a, z)


class TestRepr:
    def test_rational_operator_repr(self):
        # repr must not raise, though op_str refuses: documents hold
        # polynomial entries only
        w = Weight.atomic(Laguerre(0), MatPoly([[1 + X, X], [X, 1 + X**2]]))
        adj = w_adjoint(DiffOp.ddx(2), w)
        assert not adj.is_polynomial
        text = repr(adj)
        assert text.startswith("DiffOp<d^1*MatRF[") and ")/(" in text
        with pytest.raises(NonPolynomialError):
            op_str(adj)
        assert repr(lag_v()) == "DiffOp<d^1*[1] + [-1]>"


def _random_matpoly(data, size, maxdeg):
    rows = [
        [Poly(data.draw(st.lists(st.integers(-2, 2), max_size=maxdeg + 1))) for _ in range(size)]
        for _ in range(size)
    ]
    return MatPoly(rows)


def _random_op(data, size, maxorder):
    order = data.draw(st.integers(0, maxorder))
    return DiffOp(
        size,
        [_random_matpoly(data, size, 2) for _ in range(order + 1)],
    )


class TestOpPower:
    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_power_by_squaring(self, data):
        # equal to k-fold composition, in at most 2 floor(log2 k) compositions
        size = data.draw(st.integers(1, 3))
        d = DiffOp.zero(size) if data.draw(st.booleans()) else _random_op(data, size, 3 - size)
        calls = []

        def counted(a, b):
            calls.append(1)
            return compose(a, b)

        want = DiffOp.identity(size)
        for k in range(10):
            calls.clear()
            with mock.patch.object(diffop, "compose", counted):
                assert op_power(d, k) == want
            assert len(calls) <= (2 * (k.bit_length() - 1) if k else 0), (k, len(calls))
            want = compose(want, d)
        with pytest.raises(DomainError):
            op_power(d, -1)


class _UnitWeight:
    """Unit density and identity factor: the W-adjoint is then the formal
    adjoint *, sending d to -d and constant matrices to their transposes."""

    def __init__(self, size):
        self.size = size

    def factor_data(self):
        one = MatPoly.identity(self.size)
        return Poly(), Poly((1,)), one, one, Poly((1,))


def _formal_star(d):
    return w_adjoint(d, _UnitWeight(d.size))


class TestFormalStar:
    def test_d_negates(self):
        assert _formal_star(DiffOp.ddx(2)) == -1 * DiffOp.ddx(2)

    def test_constant_transposes(self):
        c = DiffOp(2, [MatPoly([[Poly((1,)), X * 0 + Poly((2,))], [Poly((3,)), Poly((4,))]])])
        got = _formal_star(c)
        assert got.coeff(0).entry(0, 1) == Poly((3,))

    def test_square_of_ladder(self):
        # ((d-1)^2)* = (d+1)^2 = d^2 + 2d + 1
        got = _formal_star(op_power(lag_v(), 2))
        want = DiffOp.scalar([Poly((1,)), Poly((2,)), Poly((1,))])
        assert got == want

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_involution_and_antihomomorphism(self, data):
        size = data.draw(st.integers(1, 2))
        a = _random_op(data, size, 2)
        b = _random_op(data, size, 2)
        assert _formal_star(_formal_star(a)) == a
        assert _formal_star(compose(a, b)) == compose(_formal_star(b), _formal_star(a))


class TestWAdjoint:
    def test_zero_operator_size_checked(self):
        # a zero operator is refused against a weight of another size, as
        # any other operator is, and so is its symmetry check
        from mvop.dwalgebra import symmetry_check

        w = Weight.atomic(Laguerre(0), MatPoly([[1 + X, X], [X, 1 + X**2]]))
        for z in (DiffOp.zero(1), DiffOp.zero(3)):
            with pytest.raises(ShapeError):
                w_adjoint(z, w)
            with pytest.raises(ShapeError):
                symmetry_check(z, w)
        assert w_adjoint(DiffOp.zero(2), w) == DiffOp.zero(2)

    def test_classical_operator_self_adjoint(self):
        fam = Laguerre(ALPHA)
        assert w_adjoint(fam.delta(), fam.scalar_weight()) == fam.delta()

    def test_block_adjoint_shape(self):
        # adjoint of (0 T / 0 0) over w_a (+) w_{a+1} puts w2 T* w1^{-1} in the
        # lower corner: here -(d x + alpha + 1)
        t = lag_v()
        block = embed_scalar(t, 2, 0, 1)
        w = Weight.of_scalars(Laguerre(ALPHA), Laguerre(ALPHA + 1))
        dag = w_adjoint(block, w)
        want = embed_scalar(-1 * lag_n(), 2, 1, 0)
        assert dag == want

    def test_constant_diagonal_fixed(self):
        c = DiffOp(2, [MatPoly.diag(Poly((2,)), Poly((3,)))])
        w = Weight.of_scalars(Laguerre(ALPHA), Laguerre(ALPHA))
        assert w_adjoint(c, w) == c

    def test_results_are_in_canonical_form(self):
        # w_adjoint and degree_preserving build their polynomials from
        # integer numerators, in the one form the checked constructor gives
        from mvop.catalog import ENTRY_NAMES, entry
        from test_exactalg import assert_canonical

        for name in ENTRY_NAMES:
            e = entry(name)
            for op in e.ops.values():
                for w in (e.weight_W, e.weight_Wt):
                    if w is None or op.size != w.size:
                        continue
                    adj = w_adjoint(op, w)
                    for p in [adj.den] + [x for c in adj.coeffs for r in c.rows for x in r]:
                        assert_canonical(p)
                v = degree_preserving(op)
                if v.residual is not None:
                    assert_canonical(v.residual)

    def test_involution_on_catalog_operators(self):
        from mvop.catalog import ENTRY_NAMES, entry

        for name in ENTRY_NAMES:
            e = entry(name)
            for op in e.ops.values():
                if op.size != e.weight_W.size:
                    continue
                assert w_adjoint(w_adjoint(op, e.weight_W), e.weight_W) == op
                if e.weight_Wt is not None:
                    assert w_adjoint(w_adjoint(op, e.weight_Wt), e.weight_Wt) == op

    def test_antihomomorphism_on_catalog_pairs(self):
        from mvop.catalog import entry

        e = entry("JAC2")
        w = e.weight_Wt
        d1, d2 = e.ops["D1"], e.ops["D2"]
        assert w_adjoint(compose(d1, d2), w) == compose(w_adjoint(d2, w), w_adjoint(d1, w))
        lag2 = entry("LAG2DIAG")
        g5, g6 = lag2.ops["G5"], lag2.ops["G6"]
        ww = lag2.weight_W
        assert w_adjoint(compose(g5, g6), ww) == compose(w_adjoint(g6, ww), w_adjoint(g5, ww))

    @given(st.data())
    @settings(max_examples=10, deadline=None)
    def test_involution_on_random_operators(self, data):
        # the double adjoint is the identity for arbitrary coefficients, not
        # just algebra members
        w = Weight.atomic(
            Jacobi(F(1, 2), F(3, 4)),
            MatPoly([[Poly((2,)), X], [X, Poly((1, 0, 1))]]),
        )
        d = _random_op(data, 2, 2)
        assert w_adjoint(w_adjoint(d, w), w) == d


class TestOrderLead:
    def test_jacobi_delta(self):
        d = Jacobi(F(1, 2), F(3, 4)).delta()
        assert d.order == 2
        assert d.coeff(d.order) == MatPoly([[Poly((1, 0, -1))]])

    def test_laguerre_ladder_products(self):
        from mvop.dwalgebra import module_generator

        for k in (1, 2, 3):
            t = module_generator(Laguerre(ALPHA + k), Laguerre(ALPHA))
            assert t.order == k
            assert t.coeff(t.order) == MatPoly([[X**k]])

    def test_constant(self):
        d = DiffOp.identity(2)
        assert d.order == 0 and d.coeff(d.order) == MatPoly.identity(2)

    def test_zero_rejected(self):
        # the zero operator has no leading coefficient and no symbol
        z = DiffOp.zero(1)
        assert z.order == -1 and z.coeffs == ()
        rep = degree_preserving(z)
        assert not rep.ok and rep.detail == "zero operator"


class TestDegreePreserving:
    def test_ladder_down(self):
        rep = degree_preserving(lag_v())
        assert rep.ok

    def test_ladder_up(self):
        rep = degree_preserving(lag_n())
        assert rep.ok

    def test_bare_second_derivative(self):
        rep = degree_preserving(DiffOp.scalar([Poly(), Poly(), Poly((1,))]))
        assert not rep.ok

    def test_witness_for_integer_root(self):
        # symbol n - 2 vanishes at the nonnegative integer 2
        op = DiffOp.scalar([Poly((-2,)), X])
        rep = degree_preserving(op)
        assert not rep.ok and rep.fail_n == 2

    def test_degree_violation(self):
        op = DiffOp.scalar([X**2])
        rep = degree_preserving(op)
        assert not rep.ok and "degree" in rep.detail

    def test_catalog_factors_preserve_degrees(self):
        # consequence: monomials keep their degree and monic images keep a
        # nonsingular leading coefficient, up to degree 12
        from mvop.catalog import entry
        from mvop.weights import sequence_for

        for name in ("JAC2", "GEG2", "LAG3", "HER3"):
            e = entry(name)
            seq = sequence_for(e.weight_W)
            for op in (e.ops["V"], e.ops["N"]):
                assert degree_preserving(op).ok
                for n in range(13):
                    xn = MatPoly.scalar(X**n, op.size)
                    img = apply(xn, op)
                    assert img.degree == n
                    pn = apply(seq.poly(n), op)
                    assert pn.coeff(n).det() != 0


    def test_huge_symbol_determinant_decided(self):
        # the symbol determinant of HER3's N at these parameters has a
        # cleared constant term near 8.5e17: trial division up to its square
        # root did not finish in 30 s, exact root isolation takes milliseconds
        from mvop.catalog import entry

        e = entry("HER3", {"a": F(17, 6), "b": F(-5, 6)})
        rep = degree_preserving(e.ops["N"])
        assert rep.ok and rep.residual.degree == 6


class TestAssembly:
    def test_block_antidiagonal_layout(self):
        b = block_antidiagonal(lag_v(), lag_n())
        assert b.size == 2
        assert b.coeff(1).entry(0, 1) == Poly((1,))
        assert b.coeff(1).entry(1, 0) == X

    def test_bump_round_trip(self):
        d = lag_n()
        sites = list(coefficient_sites(d))
        assert sites
        mutated = bump_coefficient(d, sites[0])
        assert mutated != d
        assert bump_coefficient(mutated, sites[0], -1) == d


# ---------------------------------------------------------------------------
# the numerator form against the MatRF arithmetic it replaced, kept here as
# the oracle


def _apply_matrf(p, d):
    acc, der = MatRF.zeros(p.size), p
    for j, f in enumerate(matrf_coeffs(d)):
        if j:
            der = matrf_derivative(der)
        acc = acc + der * f
    return acc


def _w_adjoint_matrf(d, fam, m):
    """sum_{l >= k} (-1)^l binom(l, k) T^(l-k)(M F_l^T) M^-1 with T(R) =
    R' + sigma R, sigma that of the family's density and M the MatRF m,
    each entry a RatFunc normalised by gcd at every step."""
    sigma, minv, fs = RatFunc(*fam.sigma()), field_inverse(m), matrf_coeffs(d)
    out = []
    for k in range(d.order + 1):
        acc = MatRF.zeros(d.size)
        for l in range(k, d.order + 1):
            r = m * fs[l].transpose()
            for _ in range(l - k):
                r = matrf_derivative(r) + r * sigma
            acc = acc + r * (F(-1) ** l * math.comb(l, k))
        out.append(acc * minv)
    return matrf_op(d.size, out)


nonconstant_polys = small_polys.filter(lambda g: g.degree > 0)
symbols = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(small_polys, min_size=n, max_size=n), min_size=n, max_size=n)
)


@st.composite
def rational_factors(draw):
    """(Laguerre(alpha + 2), B diag(1/x^k_i) B^T), k_i <= 2, or
    (Jacobi(alpha + 2, beta + 2), B diag(1/((1 - x)^a_i (1 + x)^b_i)) B^T),
    a_i, b_i <= 2, B unit lower triangular: a factor with non-polynomial
    entries, positive definite on the support, whose poles admission moves
    into the density."""
    b = MatRF([[Poly((1,)), Poly()], [draw(small_polys), Poly((1,))]])
    base = st.sampled_from([F(0), F(1, 2), F(2)])
    if draw(st.booleans()):
        fam, dens = Laguerre(draw(base) + 2), [X ** draw(st.integers(0, 2)) for _ in range(2)]
    else:
        fam = Jacobi(draw(base) + 2, draw(base) + 2)
        dens = [(1 - X) ** draw(st.integers(0, 2)) * (1 + X) ** draw(st.integers(0, 2)) for _ in range(2)]
    return fam, b * MatRF.diag(*(RatFunc(Poly((1,)), q) for q in dens)) * b.transpose()


def _over(den, *coeffs):
    """The scalar operator sum_j d^j coeffs[j] / den."""
    return DiffOp(1, [MatPoly([[c]]) for c in coeffs], den)


class TestNumeratorForm:
    @given(st.integers(1, 2).flatmap(lambda n: _ops(n, st.one_of(small_polys, ratfuncs), 3)), nonconstant_polys)
    @settings(max_examples=30, deadline=None)
    def test_canonical_form(self, d, g):
        # numerators times g over den times g reduce to the same operator
        scaled = DiffOp(d.size, [c * g for c in d.coeffs], d.den * g)
        assert scaled == d and hash(scaled) == hash(d)
        assert scaled.den.lc == 1 and (scaled.den == Poly((1,))) == d.is_polynomial

    @given(st.integers(1, 2).flatmap(lambda n: st.tuples(*[_ops(n, st.one_of(small_polys, ratfuncs), 3)] * 2)))
    @settings(max_examples=60, deadline=None)
    @example((lag_n(), lag_v()))
    @example((lag_v(), DiffOp.scalar([Poly((1,)), X, X * X]) * F(1, 3)))
    @example((_over(X + 1, Poly((2,)), Poly((1,))), _over(X - 1, X, Poly(), Poly((5,)))))
    @example((_over(X + 1, Poly((2,)), Poly((1,))), _over(X + 1, Poly((2,)), Poly((1,)))))
    @example((_over(X + 1, X), _over(X + 1, X, X)))
    def test_difference_is_sum_with_negation(self, ab):
        # a - b subtracts on the numerators over one denominator, orders and
        # denominators differing or not, the zero operator included
        a, b = ab
        assert repr(a - b) == repr(a + (-b)) and a - b == a + (-b)

    @given(symbols)
    @settings(max_examples=40, deadline=None)
    def test_bareiss_against_matrf_det(self, rows):
        det, _ = bareiss(rows)
        assert RatFunc(det) == field_det(MatRF(rows))
        # [A | I] leaves the adjugate: A adj(A) = det(A) I
        n = len(rows)
        adet, adj = bareiss([[*r, *e] for r, e in zip(rows, MatPoly.identity(n).rows)])
        assert adet == det
        if det:
            assert MatPoly(rows) * MatPoly(adj) == MatPoly.scalar(det, n)
        else:
            assert adj is None

    @given(small_polys, nonconstant_polys, st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_quotient_chain_against_ratfunc_derivative(self, p, q, count):
        r = RatFunc(p, q)
        for t, num in enumerate(quotient_chain(p, q, count)):
            assert RatFunc(num, q ** (t + 1)) == r
            r = rf_derivative(r)

    @given(st.integers(1, 2).flatmap(lambda n: st.tuples(
        st.lists(st.lists(small_polys, min_size=n, max_size=n), min_size=n, max_size=n).map(MatPoly),
        _ops(n, st.one_of(small_polys, ratfuncs), 3),
    )))
    @settings(max_examples=30, deadline=None)
    def test_rational_action(self, pd):
        # action returns (numerators, den), den 1 exactly when P . D is
        # polynomial; apply returns that polynomial or refuses
        p, d = pd
        (num, den), want = action(p, d), _apply_matrf(MatRF(p.rows), d)
        assert MatRF([[RatFunc(e, den) for e in r] for r in num.rows]) == want
        polynomial = all(e.den == Poly((1,)) for r in want.rows for e in r)
        assert (den == Poly((1,))) == polynomial
        if polynomial:
            assert apply(p, d) == num
        else:
            with pytest.raises(NonPolynomialError):
                apply(p, d)

    @given(rational_factors(), _ops(2, st.one_of(small_polys, ratfuncs), 2))
    @settings(max_examples=20, deadline=None)
    def test_rational_factor_adjoint(self, factor, d):
        # the adjoint depends on W = rho M alone, so the absorbed weight's
        # adjoint is the one on the family and the rational M as drawn
        fam, m = factor
        assert w_adjoint(d, matrf_weight(fam, m)) == _w_adjoint_matrf(d, fam, m)


class TestPolynomialPath:
    def test_no_rational_arithmetic(self, monkeypatch):
        # every operator the catalog builds is polynomial, and so is all of
        # its work once the weights are set up
        from mvop.catalog import ENTRY_NAMES, check_entry, entry

        entries = [entry(name) for name in ENTRY_NAMES]
        for e in entries:
            for w in e.doc.weights.values():
                w.as_atomic()
                w.factor_data()
                sequence_for(w)

        def refuse(*args):
            raise AssertionError("rational arithmetic on the polynomial path")

        for name in ("__init__", "__add__", "__mul__", "__truediv__"):
            monkeypatch.setattr(RatFunc, name, refuse)
        monkeypatch.setattr(MatRF, "__mul__", refuse)
        for e in entries:
            assert check_entry(e, 8).ok
            for d in (*e.ops.values(), *e.verbatim_ops.values()):
                degree_preserving(d)
                for w in e.doc.weights.values():
                    if w.size == d.size:
                        w_adjoint(d, w)

    def test_integer_kernels(self, monkeypatch):
        # degree_preserving on every catalog operator and w_adjoint on every
        # (operator, same-size weight) pair with a polynomial adjoint run in
        # Z[x]: no Poly product, division or gcd once the weights are set up
        from mvop import diffop, exactalg
        from mvop.catalog import ENTRY_NAMES, entry

        ops, adjoints = [], []
        for e in (entry(name) for name in ENTRY_NAMES):
            for w in e.doc.weights.values():
                w.factor_data()
            for d in (*e.ops.values(), *e.verbatim_ops.values()):
                ops.append(d)
                adjoints += [(d, w) for w in e.doc.weights.values() if w.size == d.size and w_adjoint(d, w).is_polynomial]
        assert len(adjoints) > 20

        def refuse(*args):
            raise AssertionError("Q[x] arithmetic on an integer kernel")

        for module in (exactalg, diffop):
            monkeypatch.setattr(module, "poly_quo", refuse)
            monkeypatch.setattr(module, "poly_gcd", refuse)
        monkeypatch.setattr(Poly, "__mul__", refuse)
        monkeypatch.setattr(Poly, "__rmul__", refuse)
        verdicts = [degree_preserving(d) for d in ops]
        assert any(v.ok for v in verdicts) and any(not v.ok for v in verdicts)
        for d, w in adjoints:
            w_adjoint(d, w)
        with pytest.raises(AssertionError):
            Poly((1, 1)) * Poly((1, 1))
