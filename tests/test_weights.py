"""Weights, moments, inner products and monic orthogonal sequences.

The recursion coefficients and moments are checked against independent
oracles: the moments of the closed one-step recurrences (Gamma recursion,
integration by parts) feed a Gram-Schmidt construction that checks the
closed-form recursion coefficients, and the first entries of e_0 J^s, J the
monic Jacobi matrix of those coefficients, check the moments.
"""

import operator
import re
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mvop import weights
from mvop.catalog import entry
from mvop.dsl import ParseError, parse_spec
from mvop.exactalg import (
    DomainError, FracMat, MatRF, NonPolynomialError, Poly, RatFunc, ShapeError, SingularError, X, int_form, int_matrix,
)
from mvop.diffop import DiffOp, MatPoly, apply, w_adjoint
from test_integer_kernels import numerator_form
from mvop.weights import (
    HermiteShifted,
    Jacobi,
    Laguerre,
    OPSequence,
    Weight,
    classical_monic,
    density_ratio,
    inner_product,
    moment_rows,
    monic_ops,
    sequence_for,
)

FAMILIES = [
    HermiteShifted(F(0)),
    HermiteShifted(F(1, 3)),
    HermiteShifted(F(-2)),
    Laguerre(F(1, 2)),
    Laguerre(F(3)),
    Laguerre(F(7, 5)),
    Jacobi(F(1, 2), F(3, 4)),
    Jacobi(F(0), F(0)),
    Jacobi(F(-1, 2), F(3)),
]


def moments_list(family, s_max):
    """nu_0..nu_s_max as Fractions, read off the family's integer moment
    table."""
    nums, den, _ = weights._moments(family, s_max)
    return [F(v, den) for v in nums[: s_max + 1]]


def row_moments(family, s_max):
    """Oracle: nu_s as the first entry of the row vector e_0 J^s, J the monic
    Jacobi matrix of the family's recursion coefficients; e_0 J^s is nonzero
    only in its first s + 1 entries."""
    values, u = [F(1)], [F(1)]
    coeffs = [family.recursion(i) for i in range(s_max)]
    for _ in range(s_max):
        nxt = [F(0)] * (len(u) + 1)
        for i, ui in enumerate(u):
            b, c = coeffs[i]
            nxt[i] += ui * b
            nxt[i + 1] += ui  # superdiagonal 1 in the monic normalization
            if i:
                nxt[i - 1] += ui * c
        u = nxt
        values.append(u[0])
    return values


def gram_schmidt_recursion(family, n_max):
    """Oracle: monic orthogonal polynomials from closed-recurrence moments by
    Gram-Schmidt, and the three-term coefficients they induce."""
    nu = moments_list(family, 2 * n_max + 2)

    def ip(p, q):
        prod = p * q
        return sum((prod[s] * nu[s] for s in range(prod.degree + 1)), F(0))

    ps = [Poly((1,))]
    for n in range(1, n_max + 2):
        p = X ** n
        for q in ps:
            p = p - (ip(X ** n, q) / ip(q, q)) * q
        ps.append(p)
    out = []
    for n in range(n_max + 1):
        xp = X * ps[n]
        bn = ip(xp, ps[n]) / ip(ps[n], ps[n])
        cn = ip(xp, ps[n - 1]) / ip(ps[n - 1], ps[n - 1]) if n >= 1 else F(0)
        out.append((bn, cn))
    return ps, out


class TestClassicalDelta:
    def test_laguerre(self):
        d = Laguerre(F(1, 2)).delta()
        assert d == DiffOp.scalar([Poly(), Poly((F(3, 2), -1)), X])

    def test_jacobi(self):
        a, b = F(1, 2), F(3, 4)
        d = Jacobi(a, b).delta()
        assert d == DiffOp.scalar([Poly(), Poly((b - a, -(a + b + 2))), Poly((1, 0, -1))])

    def test_hermite_zero_shift(self):
        d = HermiteShifted(F(0)).delta()
        assert d == DiffOp.scalar([Poly(), Poly((0, -2)), Poly((1,))])


class TestScalarRecursion:
    def test_laguerre_base_case(self):
        a = F(1, 2)
        assert Laguerre(a).recursion(0) == (a + 1, F(0))

    def test_hermite_base_case(self):
        b = F(1, 3)
        assert HermiteShifted(b).recursion(1) == (b, F(1, 2))

    def test_symmetric_jacobi_centered(self):
        for n in range(6):
            bn, _ = Jacobi(F(1, 2), F(1, 2)).recursion(n)
            assert bn == 0

    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    def test_against_gram_schmidt_oracle(self, family):
        _, oracle = gram_schmidt_recursion(family, 6)
        for n in range(7):
            assert family.recursion(n) == oracle[n]

    @given(st.fractions(min_value=F(-6, 7), max_value=9, max_denominator=12),
           st.fractions(min_value=F(-6, 7), max_value=9, max_denominator=12))
    @example(F(-1, 2), F(-1, 2))
    @settings(max_examples=60, deadline=None)
    def test_jacobi_integer_form_equals_fraction_formula(self, a, b):
        # the closed forms as Fraction expressions, as Jacobi.recursion
        # evaluated them before it went over one integer denominator
        def by_fractions(n):
            if n == 0:
                return (b - a) / (a + b + 2), F(0)
            bn = (b - a) * (b + a) / ((2 * n + a + b) * (2 * n + a + b + 2))
            if n == 1:
                return bn, 4 * (1 + a) * (1 + b) / ((2 + a + b) ** 2 * (3 + a + b))
            return bn, 4 * n * (n + a) * (n + b) * (n + a + b) / (
                (2 * n + a + b) ** 2 * (2 * n + a + b + 1) * (2 * n + a + b - 1))

        family = Jacobi(a, b)
        assert [family.recursion(n) for n in range(10)] == [by_fractions(n) for n in range(10)]


class TestMoments:
    def test_laguerre_gamma_recursion_values(self):
        a = F(1, 2)
        nu = moments_list(Laguerre(a), 2)
        assert nu[1] == a + 1
        assert nu[2] == (a + 1) * (a + 2)

    def test_hermite_odd_vanishes(self):
        nu = moments_list(HermiteShifted(F(0)), 5)
        assert nu[1] == 0 and nu[3] == 0 and nu[5] == 0

    def test_jacobi_first_moment(self):
        a, b = F(1, 2), F(3, 4)
        nu = moments_list(Jacobi(a, b), 1)
        assert nu[1] == (b - a) / (a + b + 2)

    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    def test_consistency_with_closed_recurrence(self, family):
        closed_route = moments_list(family, 20)
        jacobi_route = row_moments(family, 20)
        assert list(closed_route) == jacobi_route

    def test_zeroth_is_one(self):
        assert moments_list(Jacobi(F(0), F(0)), 0)[0] == 1

    _PARAM = st.fractions(min_value=F(-6, 7), max_value=F(5), max_denominator=7)

    @given(
        st.one_of(
            st.sampled_from(FAMILIES),
            st.builds(HermiteShifted, _PARAM),
            st.builds(Laguerre, _PARAM),
            st.builds(Jacobi, _PARAM, _PARAM),
        ),
        st.lists(st.integers(0, 30), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_extended_table_equals_cold_build(self, family, requests):
        # the cached table grows by extension; in any order of requests it
        # must hold what one cold build to the largest request holds
        weights._MOMENT_CACHE.pop(family, None)
        for s in requests:
            assert moments_list(family, s) == row_moments(family, s)
        extended = weights._MOMENT_CACHE.pop(family)
        weights._moments(family, max(requests))
        assert weights._MOMENT_CACHE[family] == extended

    @given(
        st.one_of(
            st.sampled_from(FAMILIES),
            st.builds(HermiteShifted, _PARAM),
            st.builds(Laguerre, _PARAM),
            st.builds(Jacobi, _PARAM, _PARAM),
        ),
        st.lists(st.integers(0, 30), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_integer_table_is_int_matrix_of_moments(self, family, requests):
        # the table holds nu_0, nu_1, ... as numerators over the lcm of their
        # denominators: int_matrix of the Fraction moments, as far as it
        # reaches, whether extended request by request or built fresh
        def check(entry, s):
            nums, den, _ = entry
            assert len(nums) > s
            assert ([nums], den) == int_matrix([row_moments(family, len(nums) - 1)])

        weights._MOMENT_CACHE.pop(family, None)
        for s in requests:
            check(weights._moments(family, s), s)
        for s in requests:
            weights._MOMENT_CACHE.pop(family)
            check(weights._moments(family, s), s)


class TestInnerProduct:
    def test_unit_mass(self):
        w = Laguerre(F(1, 2)).scalar_weight()
        one = MatPoly.identity(1)
        assert inner_product(one, one, w) == FracMat([[1]])

    def test_degree_one_norm(self):
        a = F(1, 2)
        w = Laguerre(a).scalar_weight()
        l1 = MatPoly([[classical_monic(Laguerre(a), 1)]])
        assert inner_product(l1, l1, w) == FracMat([[a + 1]])

    def test_orthogonality(self):
        a = F(1, 2)
        w = Laguerre(a).scalar_weight()
        l1 = MatPoly([[classical_monic(Laguerre(a), 1)]])
        assert inner_product(l1, MatPoly.identity(1), w) == FracMat([[0]])

    def test_hermitian_symmetry(self):
        e = Weight.atomic(
            Jacobi(F(1, 2), F(3, 4)),
            MatPoly([[Poly((2,)), X], [X, Poly((1, 0, 1))]]),
        )
        p = MatPoly([[X, Poly((1,))], [Poly(), X**2]])
        q = MatPoly([[Poly((1,)), X], [X**2, Poly((2,))]])
        assert inner_product(p, q, e) == inner_product(q, p, e).transpose()

    def test_hermite_mixed_shifts_rejected(self):
        w = Weight.of_scalars(HermiteShifted(F(0)), HermiteShifted(F(1)))
        with pytest.raises(NonPolynomialError):
            inner_product(MatPoly.identity(2), MatPoly.identity(2), w)


def _inner_product_by_fracmat(p, q, weight):
    """Oracle: the integrand's coefficient matrices times the moments, summed
    as FracMats."""
    fam, num = weight.as_atomic()
    integrand = p * num * q.transpose()
    nu = moments_list(fam, max(integrand.degree, 0))
    acc = FracMat.zeros(p.size)
    for s in range(integrand.degree + 1):
        c = integrand.coeff(s)
        if not c.is_zero:
            acc = acc + c * nu[s]
    return acc


BASE_FAMILIES = {
    "hermite": lambda k: HermiteShifted(F(1, 3)),
    "laguerre": lambda k: Laguerre(F(1, 2) + k),
    "jacobi": lambda k: Jacobi(F(-1, 2) + k, F(3, 4) + (k + 1) // 2),
}
small_polys = st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=5), max_size=4).map(Poly)


@st.composite
def factors(draw, n):
    """A A^T with A lower triangular, constant nonzero diagonal: positive
    definite for every x."""
    a = MatPoly([
        [Poly((draw(st.integers(1, 3)),)) if i == j else draw(small_polys) if j < i else Poly() for j in range(n)]
        for i in range(n)
    ])
    return a * a.transpose()


@st.composite
def gram_cases(draw):
    kind = draw(st.sampled_from(sorted(BASE_FAMILIES)))
    n = draw(st.integers(1, 3))
    sizes = draw(st.sampled_from([s for s in ([n], [1] * n, [1, 2], [2, 1]) if sum(s) == n]))
    blocks = [Weight.atomic(BASE_FAMILIES[kind](k), draw(factors(m))) for k, m in enumerate(sizes)]
    w = Weight.direct_sum(blocks)
    operand = st.one_of(
        st.just(MatPoly.zeros(n)),
        st.lists(st.lists(small_polys, min_size=n, max_size=n), min_size=n, max_size=n).map(MatPoly),
    )
    return draw(operand), draw(operand), w


class TestInnerProductOracle:
    @given(gram_cases())
    @settings(max_examples=80, deadline=None)
    def test_matches_fracmat_contraction(self, case):
        p, q, w = case
        got, want = inner_product(p, q, w), _inner_product_by_fracmat(p, q, w)
        assert got == want and repr(got) == repr(want)


def _moment_rows_per_entry(p, weight, k_max, k_min=0):
    """Oracle: moment rows as ``moment_rows`` formed them before its integer
    kernel, from the Fraction product P M, one integer form and one Fraction
    per entry."""
    fam, num = weight.as_atomic()
    pm = p * num
    top = max(pm.degree, 0) + k_max
    (nums,), den = int_matrix([moments_list(fam, top)])
    forms = [[int_form(e)[:2] if e else ((), 1) for e in row] for row in pm.rows]
    out = []
    for k in range(k_min, k_max + 1):
        tail = nums[k:]
        dots = [[(sum(map(operator.mul, ints, tail)), d * den) for ints, d in row] for row in forms]
        out.append(FracMat([[F(v, d) if v else F(0) for v, d in row] for row in dots]))
    return out


wide_polys = st.lists(st.fractions(min_value=-10**12, max_value=10**12, max_denominator=10**6), max_size=7).map(Poly)


class TestMomentRows:
    @given(gram_cases(), st.data(), st.integers(0, 6), st.integers(0, 6))
    @settings(max_examples=80, deadline=None)
    def test_equals_per_entry_fraction_path(self, case, data, k_min, span):
        w, n = case[2], case[2].size
        row = st.lists(st.one_of(small_polys, wide_polys), min_size=n, max_size=n)
        p = MatPoly(data.draw(st.lists(row, min_size=n, max_size=n)))
        got = moment_rows(p, w, k_min + span, k_min)
        want = _moment_rows_per_entry(p, w, k_min + span, k_min)
        assert [repr(r) for r in got] == [repr(r) for r in want]

    @given(gram_cases(), st.integers(0, 5))
    @example((MatPoly.zeros(2), None, Weight.of_scalars(Laguerre(F(1, 2)), Laguerre(F(3, 2)))), 3)
    @example((MatPoly.zeros(1), None, HermiteShifted(F(1, 3)).scalar_weight()), 0)
    @settings(max_examples=80, deadline=None)
    def test_rows_are_inner_products_with_powers(self, case, k):
        p, _, w = case
        rows = moment_rows(p, w, k)
        assert len(rows) == k + 1
        for j, row in enumerate(rows):
            want = _inner_product_by_fracmat(p, MatPoly.scalar(X**j, w.size), w)
            assert row == want and repr(row) == repr(want)

    @given(gram_cases(), st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=40, deadline=None)
    def test_row_range_is_slice_of_full_rows(self, case, k_min, span):
        p, _, w = case
        k_max = k_min + span
        part = moment_rows(p, w, k_max, k_min)
        assert [repr(r) for r in part] == [repr(r) for r in moment_rows(p, w, k_max)[k_min:]]

    def test_refusals(self):
        w = Laguerre(F(1, 2)).scalar_weight()
        with pytest.raises(ShapeError):
            moment_rows(MatPoly.identity(2), w, 1)
        with pytest.raises(DomainError):
            moment_rows(MatPoly.identity(1), w, -1)
        with pytest.raises(NonPolynomialError):
            moment_rows(MatPoly.identity(2), Weight.of_scalars(Laguerre(F(1, 2)), Laguerre(F(1))), 1)


class TestMonicSequences:
    def test_hermite_degree_one(self):
        b = F(1, 3)
        seq = monic_ops(HermiteShifted(b).scalar_weight(), 1)
        assert seq.poly(1) == MatPoly([[Poly((-b, 1))]])

    def test_diagonal_laguerre_sum(self):
        a = F(1, 2)
        w = Weight.of_scalars(Laguerre(a + 2), Laguerre(a + 1), Laguerre(a))
        seq = monic_ops(w, 4)
        for n in range(5):
            p = seq.poly(n)
            for i, fam in enumerate((Laguerre(a + 2), Laguerre(a + 1), Laguerre(a))):
                assert p.entry(i, i) == classical_monic(fam, n)
                for j in range(3):
                    if j != i:
                        assert p.entry(i, j).is_zero

    @pytest.mark.parametrize(
        "weight",
        [
            Weight.atomic(
                Laguerre(F(1, 2)),
                MatPoly([[Poly((0, 0, 1)), X], [X, Poly((2,))]]),
            ),
            Weight.atomic(
                Jacobi(F(1, 2), F(3, 4)),
                MatPoly([[Poly((2,)), X], [X, Poly((1, 0, 1))]]),
            ),
            entry("LAG3").weight_Wt,
            entry("HER3").weight_Wt,
        ],
        ids=["laguerre-2x2", "jacobi-2x2", "lag3-Wt", "her3-W"],
    )
    def test_hankel_sequences_are_orthogonal_with_recursion(self, weight):
        seq = monic_ops(weight, 8)
        # Gram property
        for n in range(9):
            gn = inner_product(seq.poly(n), seq.poly(n), weight)
            assert gn.det() != 0
            for m in range(n):
                assert inner_product(seq.poly(n), seq.poly(m), weight).is_zero
        # three-term recursion holds exactly
        xop = MatPoly.scalar(X, weight.size)
        for n in range(7):
            bn, cn = seq.recursion_pair(n)
            lhs = xop * seq.poly(n)
            rhs = seq.poly(n + 1) + seq.poly(n).lmul_const(bn)
            if n >= 1:
                rhs = rhs + seq.poly(n - 1).lmul_const(cn)
            assert lhs == rhs

    def test_monic_and_correct_degree(self):
        w = Weight.atomic(
            Laguerre(F(1, 2)),
            MatPoly([[Poly((0, 0, 1)), X], [X, Poly((2,))]]),
        )
        seq = monic_ops(w, 5)
        for n in range(6):
            assert seq.poly(n).coeff(n) == FracMat.identity(2)
            assert seq.poly(n).degree == n


def _step_gram_products(self, k):
    """Oracle: the recursion step from Gram products, H_k = <P_k, P_k> and
    <x P_k, P_k> by ``_inner_product_by_fracmat`` and the update by MatPoly
    arithmetic."""
    w = self.weight
    pk = self._polys[k]
    xpk = X * pk
    if w.N == MatPoly.identity(w.size):
        # a closed-form sequence keeps no recursion data: recursion_pair
        # reads the family's
        b, c = w.family.recursion(k)
        bk, ck = FracMat.identity(w.size) * b, FracMat.identity(w.size) * c
    else:
        h = _inner_product_by_fracmat(pk, pk, w)
        try:
            h_inv = h.inv()
        except SingularError as exc:
            raise SingularError(f"degenerate moment system at degree {k + 1}") from exc
        bk = _inner_product_by_fracmat(xpk, pk, w) * h_inv
        ck = h * self._h_prev_inv if k else FracMat.zeros(w.size)
        self._h_prev_inv = h_inv
        # kept as the step keeps them: integer rows over one denominator, C_0 None
        self._recs.append((int_matrix(bk.rows), int_matrix(ck.rows) if k else None))
    nxt = xpk - pk.lmul_const(bk)
    if k:
        nxt = nxt - self._polys[k - 1].lmul_const(ck)
    self._polys.append(nxt)


def _no_inner_product(*args):
    raise AssertionError("OPSequence._step called inner_product")


def _sequence_reprs(weight, n_max, step=None):
    """repr of P_n and of (B_n, C_n) for n <= n_max, built on a fresh
    sequence cache (so a direct sum's blocks are rebuilt too), with
    ``OPSequence._step`` replaced by ``step`` when given."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(weights, "_SEQUENCE_CACHE", {})
        if step is None:
            m.setattr(weights, "inner_product", _no_inner_product)
        else:
            m.setattr(OPSequence, "_step", step)
        seq = OPSequence(weight)
        return [(repr(seq.poly(n)), repr(seq.recursion_pair(n))) for n in range(n_max + 1)]


def _assert_step_matches_oracle(weight, n_max=16):
    got = _sequence_reprs(weight, n_max)
    assert got == _sequence_reprs(weight, n_max, _step_gram_products)


def _entry_weights():
    from test_catalog import ROBUSTNESS_PARAMS

    for name, sets in ROBUSTNESS_PARAMS.items():
        for k, params in enumerate(sets):
            yield pytest.param(name, params, id=f"{name}-params{k}")


@st.composite
def classical_families(draw):
    """A Hermite, Laguerre or Jacobi family at drawn parameters."""
    par = st.fractions(min_value=F(-6, 7), max_value=6, max_denominator=7)
    kind = draw(st.sampled_from(["hermite", "laguerre", "jacobi"]))
    if kind == "hermite":
        return HermiteShifted(draw(st.fractions(min_value=-3, max_value=3, max_denominator=7)))
    if kind == "laguerre":
        return Laguerre(draw(par))
    return Jacobi(draw(par), draw(par))


@st.composite
def mixed_direct_sums(draw):
    """A direct sum holding a scalar block and a 2x2 block (an identity or a
    polynomial factor), in either order, and maybe one more block of size 1
    or 2; every block's family shares one support."""
    kind = draw(st.sampled_from(sorted(BASE_FAMILIES)))
    shifts = iter(draw(st.permutations(range(3))))
    blocks = [BASE_FAMILIES[kind](next(shifts)).scalar_weight(),
              Weight.atomic(BASE_FAMILIES[kind](next(shifts)), draw(st.one_of(st.just(MatPoly.identity(2)), factors(2))))]
    if draw(st.booleans()):
        size = draw(st.integers(1, 2))
        blocks.append(Weight.atomic(BASE_FAMILIES[kind](next(shifts)),
                                    draw(st.one_of(st.just(MatPoly.identity(size)), factors(size)))))
    return Weight.direct_sum(draw(st.permutations(blocks)))


class TestStepOracle:
    """``_step`` reads H_k and B_k off moment rows and sums each cell of the
    update as integers; every P_n, B_n and C_n must equal, by repr, what the
    Gram-product step gives."""

    @pytest.mark.parametrize("name, params", _entry_weights())
    def test_catalog_weights(self, name, params):
        for w in entry(name, params).doc.weights.values():
            _assert_step_matches_oracle(w)

    @given(gram_cases())
    @example((None, None, Weight.atomic(Laguerre(F(1, 2)), MatPoly([[Poly((0, 0, 1)), X], [X, Poly((2,))]]))))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_polynomial_factors(self, case):
        _assert_step_matches_oracle(case[2])

    def test_step_never_calls_inner_product(self, monkeypatch):
        w = Weight.atomic(Jacobi(F(1, 2), F(3, 4)), MatPoly([[Poly((2,)), X], [X, Poly((1, 0, 1))]]))
        monkeypatch.setattr(weights, "inner_product", _no_inner_product)
        assert OPSequence(w).poly(6).degree == 6

    @given(classical_families(), st.integers(1, 3))
    @settings(max_examples=30, deadline=None)
    def test_identity_factors(self, family, size):
        w = Weight.atomic(family, MatPoly.identity(size))
        assert w.is_identity
        _assert_step_matches_oracle(w)

    @given(mixed_direct_sums())
    @settings(max_examples=20, deadline=None)
    def test_direct_sums_of_scalar_and_matrix_blocks(self, w):
        _assert_step_matches_oracle(w, 10)


def _raise_fracmat(*args, **kwargs):
    raise AssertionError("a FracMat was made while building a sequence")


def _block_sequences(seq):
    for child in seq._children or ():
        yield child
        yield from _block_sequences(child)


class TestNoUnusedWork:
    """Building a sequence makes no recursion data that no caller reads: a
    direct sum's blocks stop at the degree asked for, and no FracMat is made
    until ``recursion_pair`` is read."""

    @pytest.mark.parametrize("name, params", _entry_weights())
    def test_catalog_weights_to_degree_12(self, name, params, monkeypatch):
        monkeypatch.setattr(weights, "_SEQUENCE_CACHE", {})
        monkeypatch.setattr(weights, "_MOMENT_CACHE", {})
        seqs = []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(FracMat, "__init__", _raise_fracmat)
            m.setattr(FracMat, "_of", _raise_fracmat)
            for w in entry(name, params).doc.weights.values():
                seq = sequence_for(w)
                assert seq.poly(12).degree == 12
                seqs.append(seq)
        for seq in seqs:
            for block in _block_sequences(seq):
                assert len(block._polys) == 13, repr(block.weight)
            # x P_n = P_{n+1} + B_n P_n + C_n P_{n-1} with P_n monic: B_n and
            # C_n are read off the x^n and x^(n-1) coefficients
            ps = [seq.poly(n) for n in range(13)]
            for n in range(12):
                bn = ps[n].coeff(n - 1) - ps[n + 1].coeff(n)
                cn = ps[n].coeff(n - 2) - ps[n + 1].coeff(n - 1) - bn * ps[n].coeff(n - 1) if n else FracMat.zeros(seq.weight.size)
                assert seq.recursion_pair(n) == (bn, cn)


class TestScalarStep:
    @given(classical_families())
    @settings(max_examples=40, deadline=None)
    def test_integer_step_is_poly_arithmetic(self, family):
        p, q = Poly((1,)), Poly()
        for k in range(12):
            b, c = family.recursion(k)
            got, want = weights._scalar_step(family, k, p, q), X * p - b * p - c * q
            assert got == want and repr(got) == repr(want) and got.degree == k + 1
            p, q = got, p


class TestSingularGram:
    """The raw constructor skips admission, so a Gram block can be singular."""

    def test_singular_at_degree_two(self):
        # H_1 = <P_1, P_1> has (2,2) entry nu_3 - 10 nu_2 + 28 nu_1 - 24 = 0
        seq = OPSequence(Weight(family=Laguerre(F(2)), N=MatPoly.diag(1, X - 6)))
        assert seq.poly(1).degree == 1
        with pytest.raises(SingularError, match="degenerate moment system at degree 2"):
            seq.poly(2)

    def test_singular_at_degree_one(self):
        # H_0 = diag(1, nu_1 - 3/2) = diag(1, 0)
        seq = OPSequence(Weight(family=Laguerre(F(1, 2)), N=MatPoly.diag(1, X - F(3, 2))))
        with pytest.raises(SingularError, match="degenerate moment system at degree 1"):
            seq.poly(1)


class TestAdjointPairing:
    def test_pairing_on_catalog_members(self):
        # <P . D, Q> = <P, Q . Ddagger> on monomials up to degree 5
        from mvop.catalog import entry

        pairs = []
        jac2 = entry("JAC2")
        pairs.append((jac2.ops["D1"], jac2.weight_Wt))
        pairs.append((jac2.ops["D2"], jac2.weight_Wt))
        pairs.append((jac2.ops["D"], jac2.weight_W))
        lag3 = entry("LAG3")
        pairs.append((lag3.ops["E"], lag3.weight_Wt))
        pairs.append((lag3.ops["D"], lag3.weight_W))
        her3 = entry("HER3")
        pairs.append((her3.ops["E"], her3.weight_Wt))
        pairs.append((her3.ops["D"], her3.weight_W))
        geg2 = entry("GEG2")
        pairs.append((geg2.ops["D"], geg2.weight_W))
        lag2 = entry("LAG2DIAG")
        pairs.append((lag2.ops["G5"], lag2.weight_W))
        pairs.append((lag2.ops["G6"], lag2.weight_W))
        for d, w in pairs:
            dag = w_adjoint(d, w)
            polys = dag.poly_coeffs()
            assert polys is not None, "adjoint of an algebra member must be polynomial"
            dagp = DiffOp.from_matrices(d.size, polys)
            for i in range(6):
                for j in range(6):
                    p = MatPoly.scalar(X**i, d.size)
                    q = MatPoly.scalar(X**j, d.size)
                    lhs = inner_product(apply(p, d), q, w)
                    rhs = inner_product(p, apply(q, dagp), w)
                    assert lhs == rhs


def _admission_by_sympy(fam, m):
    """Oracle: admission's refusal of the MatRF M on the family's open
    support, with the root named in a sign change left out, or None. Each
    leading minor of M is p / q in lowest terms over sympy's field Q(x); it
    must not be zero, p may have no factor of odd multiplicity (``sqf_list``)
    with a real root inside (``real_roots``), and p / q must be positive at
    the first of 63 interior points where p is not zero."""
    sympy = pytest.importorskip("sympy")
    from sympy.polys.fields import field
    from sympy.polys.matrices import DomainMatrix

    qx, t = field("x", sympy.QQ)
    x = sympy.Symbol("x")

    def as_field(p: Poly):
        return sum((sympy.QQ(c.numerator, c.denominator) * t**i for i, c in enumerate(p.coeffs)), qx.zero)

    (lo, _), (hi, _) = fam.ends()
    if lo is None:
        pts = [sympy.Rational(j - 32, 8) for j in range(1, 64)]
    elif hi is None:
        pts = [lo + sympy.Rational(j, 8) for j in range(1, 64)]
    else:
        pts = [lo + (hi - lo) * sympy.Rational(j, 64) for j in range(1, 64)]
    n = m.size
    a = DomainMatrix([[as_field(c.num) / as_field(c.den) for c in row] for row in m.rows], (n, n), qx.to_domain())
    for k in range(1, n + 1):
        minor = a[:k, :k].det()
        p = minor.numer.as_expr()
        if p == 0:
            if k == n:
                return "matrix factor is singular as a rational matrix"
            return f"weight factor not positive definite: leading minor {k} is zero"
        odd = [f for f, e in sympy.sqf_list(p, x)[1] if e % 2]
        roots = [r for f in odd for r in sympy.real_roots(sympy.Poly(f, x))]
        if any((lo is None or r > lo) and (hi is None or r < hi) for r in roots):
            return f"weight factor not positive definite: leading minor {k} changes sign"
        y = next(y for y in pts if p.subs(x, y))
        if minor.as_expr().subs(x, y) < 0:
            return f"weight factor not positive definite: leading minor {k} is negative"
    return None


# (family, points inside its support, the factors x - e or e - x at its
# finite ends, positive inside)
ADMISSION_FAMILIES = [
    (Laguerre(F(1, 2)), st.fractions(F(1, 3), 6, max_denominator=3), [X]),
    (Jacobi(F(1, 2), F(3, 4)), st.fractions(F(-2, 3), F(2, 3), max_denominator=3), [1 - X, 1 + X]),
    (HermiteShifted(F(1, 3)), st.fractions(-3, 3, max_denominator=3), []),
]


def _raised(fam, k):
    """The family with the density's exponent at each finite end raised by k."""
    if isinstance(fam, Laguerre):
        return Laguerre(fam.alpha + k)
    if isinstance(fam, Jacobi):
        return Jacobi(fam.alpha + k, fam.beta + k)
    return fam


@st.composite
def admission_factors(draw):
    """(family, M) with M = g D^-1 (B B^T + diag(c)) D^-1 / r, size 1-4: B of
    small polynomials and c of small constants, so the minors pass or fail
    anywhere; D = diag(d_i) and r products of powers of the factors at the
    support's finite ends (up to 2 in each d_i, 1 in r), r of either sign,
    over the family with those exponents raised by 5, so admission absorbs
    them into an integrable density; g = 1, x - a or (x - a)^2 with a inside,
    often the interior point that admission reads the sign at, so a minor
    has a root there of either parity."""
    fam, inside, ends = draw(st.sampled_from(ADMISSION_FAMILIES))

    def end_powers(top):
        p = Poly((1,))
        for e in ends:
            p = p * e ** draw(st.integers(0, top))
        return p

    n = draw(st.integers(1, 4))
    b = MatPoly(draw(st.lists(st.lists(small_polys, min_size=n, max_size=n), min_size=n, max_size=n)))
    s = b * b.transpose() + MatPoly.diag(*(Poly((draw(st.fractions(-2, 2, max_denominator=3)),)) for _ in range(n)))
    d = [end_powers(2) for _ in range(n)]
    r = end_powers(1) * draw(st.sampled_from([1, -1]))
    a = draw(st.one_of(inside, st.just(F(1) if isinstance(fam, Laguerre) else F(0))))
    g = draw(st.sampled_from([Poly((1,)), X - a, (X - a) ** 2]))
    return _raised(fam, 5), MatRF([[RatFunc(g * s.entry(i, j), r * d[i] * d[j]) for j in range(n)] for i in range(n)])


class TestAdmissionOracle:
    """Admission decides positive definiteness almost everywhere on the
    support from N's leading minors; it must refuse exactly what sympy's
    square-free split and real roots of M's minors refuse, with the same
    message."""

    @given(admission_factors())
    # a sign change at x = 20, between and past every point a sampled check
    # would read
    @example((Laguerre(F(0)), MatRF([[RatFunc((X - 20) ** 2 - 1)]])))
    # an even root at the point admission reads the sign at
    @example((Jacobi(F(1, 2), F(3, 4)), MatRF.diag(RatFunc(Poly((1,))), RatFunc(X**2, -X - 1))))
    # m = x - 1 < 0 on the support: N = -I over m is I over 1 - x, so the
    # absorbed factor flips N's sign
    @example((Jacobi(F(1, 2), F(3, 4)), MatRF.diag(RatFunc(Poly((1,)), 1 - X), RatFunc(Poly((1,)), 1 - X))))
    # r < 0 on the support: the factor is negative definite
    @example((Jacobi(F(1, 2), F(3, 4)), MatRF([[RatFunc(Poly((1,)), X - 1)] * 2, [RatFunc(Poly((1,)), X - 1), RatFunc(Poly((3,)), X - 1)]])))
    @settings(max_examples=100, deadline=None)
    def test_matches_sympy_minors(self, case):
        fam, m = case
        (num,), q = numerator_form([m])
        try:
            Weight.atomic(fam, num, q)
            got = None
        except DomainError as exc:
            got = re.sub(r" at a root of .*$", "", str(exc))
        assert got == _admission_by_sympy(fam, m)

    @pytest.mark.parametrize(
        "alpha, beta", [(F(1, 2), F(3, 4)), (F(-1, 2), F(1, 2)), (F(2), F(-1, 3))], ids=["default", "notes", "wide"]
    )
    def test_jac2_positivity_rule_agrees_with_admission(self, alpha, beta):
        # the document is parsed without the catalog's rules: W's minors are
        # 4 (alpha + 1) - 2 kappa (1 - x), which changes sign on (-1, 1) for
        # kappa > alpha + 1, and 2 kappa (alpha + 1 - kappa) (1 - x)^2 (1 + x),
        # zero at kappa = alpha + 1; so admission alone refuses kappa >= alpha + 1
        text = (Path(__file__).resolve().parents[1] / "src" / "mvop" / "data" / "jac2.mvop").read_text()
        for kappa in (alpha + 1 - F(1, 100), alpha + 1, alpha + 1 + F(1, 3), 2 * alpha + 2):
            rule = kappa < alpha + 1
            try:
                parse_spec(text, {"alpha": alpha, "beta": beta, "kappa": kappa})
                admitted = True
            except ParseError as exc:
                admitted = False
                want = "singular as a rational matrix" if kappa == alpha + 1 else "leading minor 1 changes sign"
                assert exc.line == 10 and want in str(exc)
            assert admitted == rule

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_congruence_keeps_the_verdict(self, data):
        # S N S^T is positive definite exactly where N is, for S invertible
        fam, inside, _ = data.draw(st.sampled_from(ADMISSION_FAMILIES))
        n = data.draw(st.integers(1, 3))
        b = MatPoly(data.draw(st.lists(st.lists(small_polys, min_size=n, max_size=n), min_size=n, max_size=n)))
        c = [data.draw(st.fractions(-2, 2, max_denominator=3)) for _ in range(n)]
        a = data.draw(inside)
        num = (b * b.transpose() + MatPoly.diag(*(Poly((v,)) for v in c))) * data.draw(st.sampled_from([Poly((1,)), X - a]))
        entries = st.fractions(-3, 3, max_denominator=4)
        s = data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n).filter(
            lambda rows: FracMat(rows).det() != 0
        ))
        s = MatPoly([[Poly((v,)) for v in row] for row in s])

        def admitted(factor):
            try:
                Weight.atomic(fam, factor)
                return True
            except DomainError:
                return False

        assert admitted(s * num * s.transpose()) == admitted(num)


class TestWeightValidation:
    def test_indefinite_constant_rejected(self):
        # diag(1, -1) is symmetric and nonsingular but not positive
        with pytest.raises(DomainError, match=r"^weight factor not positive definite: leading minor 2 is negative$"):
            Weight.atomic(Laguerre(F(1, 2)), MatPoly.diag(Poly((1,)), Poly((-1,))))

    def test_constant_factor_checked_once(self, monkeypatch):
        # one elimination per leading minor of the factor's integer form, and
        # a constant minor's sign is read at one point, with no root count
        calls, eliminate = [], weights.bareiss
        monkeypatch.setattr(weights, "bareiss", lambda rows: calls.append(rows) or eliminate(rows))
        monkeypatch.setattr(weights, "real_root_count", lambda *args: pytest.fail("root count of a constant minor"))
        Weight.atomic(Jacobi(F(1, 2), F(3, 4)), MatPoly([[Poly((2,)), Poly((1,))], [Poly((1,)), Poly((2,))]]))
        assert calls == [[[(2,)]], [[(2,), (1,)], [(1,), (2,)]]]
        with pytest.raises(DomainError, match=r"^weight factor not positive definite: leading minor 2 is negative$"):
            Weight.atomic(Laguerre(F(1, 2)), MatPoly([[Poly((1,)), Poly((2,))], [Poly((2,)), Poly((1,))]]))

    def test_nonconstant_factor_checked_at_every_point(self):
        # a minor that changes sign anywhere inside the support is refused,
        # however far out; one that only touches zero there, or changes sign
        # outside it, is admitted
        for root in (F(15, 2), F(100), F(1, 10**6)):
            with pytest.raises(DomainError, match=rf"^weight factor not positive definite: leading minor 2 changes sign at a root of x - {root}$"):
                Weight.atomic(Laguerre(F(1, 2)), MatPoly.diag(Poly((1,)), X - root))
        Weight.atomic(Laguerre(F(1, 2)), MatPoly.diag(Poly((1,)), (X - 8) ** 2))
        Weight.atomic(Laguerre(F(1, 2)), MatPoly.diag(Poly((1,)), (X - 3) ** 2 * X))
        Weight.atomic(Jacobi(F(1, 2), F(3, 4)), MatPoly.diag(Poly((1,)), (X - 1) * (X - 2)))

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            Weight.atomic(Laguerre(F(1, 2)), MatPoly([[Poly((1,)), X], [Poly(), Poly((1,))]]))

    def test_singular_factor_rejected(self):
        with pytest.raises(DomainError, match="^matrix factor is singular as a rational matrix$"):
            Weight.atomic(Laguerre(F(1, 2)), MatPoly([[X, X], [X, X]]))

    @pytest.mark.parametrize(
        "family, m, message",
        [
            (Jacobi(F(0), F(0)), MatPoly([[Poly((1,)), Poly((2,))], [Poly((2,)), Poly((4,))]]),
             "matrix factor is singular as a rational matrix"),
            (HermiteShifted(F(0)), MatPoly([[Poly((1,)), X], [X, X * X]]), "matrix factor is singular as a rational matrix"),
            (HermiteShifted(F(0)), MatPoly.diag(Poly((1,)), X),
             "weight factor not positive definite: leading minor 2 changes sign at a root of x"),
            (Laguerre(F(0)), MatPoly([[Poly(), Poly((1,))], [Poly((1,)), Poly()]]),
             "weight factor not positive definite: leading minor 1 is zero"),
        ],
        ids=["singular-constant", "singular-hermite", "indefinite", "zero-minor"],
    )
    def test_rejection_messages(self, family, m, message):
        # each refusal names the first leading minor that fails; a zero last
        # minor after positive ones means a singular factor
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            Weight.atomic(family, m)

    def test_mixed_support_direct_sum_rejected(self):
        with pytest.raises(DomainError):
            Weight.of_scalars(Laguerre(F(1, 2)), Jacobi(F(0), F(0)))

    def test_laguerre_range(self):
        with pytest.raises(DomainError):
            Laguerre(F(-3, 2))

    @pytest.mark.parametrize(
        "cls, args, message",
        [
            (Laguerre, (-1,), "Laguerre parameter must exceed -1, got -1"),
            (Jacobi, (-1, 0), "Jacobi parameters must exceed -1, got (-1, 0)"),
            (Jacobi, (0, "-3/2"), "Jacobi parameters must exceed -1, got (0, -3/2)"),
        ],
        ids=["laguerre", "jacobi-alpha", "jacobi-beta"],
    )
    def test_family_admission_messages(self, cls, args, message):
        # the library path, where no DSL parse comes first
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            cls(*args)

    def test_family_fields_made_exact(self):
        # an int or a string field becomes a Fraction; a float is inexact
        for fam, want in (
            (HermiteShifted("-1/3"), (F(-1, 3),)),
            (HermiteShifted(2), (F(2),)),
            (Laguerre("1/2"), (F(1, 2),)),
            (Laguerre(0), (F(0),)),
            (Jacobi("1/2", 3), (F(1, 2), F(3))),
        ):
            got = tuple(getattr(fam, f) for f in type(fam).__dataclass_fields__)
            assert got == want and all(type(v) is F for v in got)
            assert fam == type(fam)(*want) and hash(fam) == hash(type(fam)(*want))
        for cls, args in ((HermiteShifted, (0.5,)), (Laguerre, (0.5,)), (Jacobi, (0, 0.5))):
            with pytest.raises(TypeError, match="0.5"):
                cls(*args)

    def test_density_ratio(self):
        one = Poly((1,))
        assert density_ratio(Laguerre(F(3, 2)), Laguerre(F(1, 2))) == (X, one)
        assert density_ratio(Laguerre(F(5, 2)), Laguerre(F(1, 2))) == (X**2, one)
        assert density_ratio(Laguerre(F(1, 2)), Laguerre(F(5, 2))) == (one, X**2)
        assert density_ratio(Jacobi(F(3, 2), F(1, 2)), Jacobi(F(1, 2), F(3, 2))) == (Poly((1, -1)), Poly((1, 1)))
        assert density_ratio(Laguerre(F(1, 2)), Laguerre(F(1, 3))) is None
        assert density_ratio(HermiteShifted(F(0)), HermiteShifted(F(1))) is None

    def test_common_atomic_merge(self):
        a, b = F(1, 2), F(3, 4)
        w = Weight.of_scalars(Jacobi(a + 1, b), Jacobi(a + 1, b + 1))
        fam, num = w.as_atomic()
        assert fam == Jacobi(a + 1, b)
        assert num == MatPoly.diag(Poly((1,)), Poly((1, 1)))

    def test_rational_blocks_merge_to_canonical_form(self):
        # blocks 1/x over Laguerre(5/2) and x^2/x over Laguerre(1/2) are
        # Laguerre(3/2) and Laguerre(1/2) x: on the base Laguerre(1/2),
        # diag(x, x); then -1/(x - 1) over Jacobi(3/2, 1/2) and (1 - x)/(x + 1)^2
        # over Jacobi(1/2, 5/2) are Jacobi(1/2, 1/2) and Jacobi(1/2, 1/2) (1 - x)
        w = Weight.direct_sum([
            Weight.atomic(Laguerre(F(5, 2)), MatPoly.identity(1), X),
            Weight.atomic(Laguerre(F(1, 2)), MatPoly([[X**2]]), X),
        ])
        assert w.as_atomic() == (Laguerre(F(1, 2)), MatPoly.diag(X, X))
        w = Weight.direct_sum([
            Weight.atomic(Jacobi(F(3, 2), F(1, 2)), MatPoly.identity(1) * -1, X - 1),
            Weight.atomic(Jacobi(F(1, 2), F(5, 2)), MatPoly([[1 - X]]), (X + 1) ** 2),
        ])
        assert w.as_atomic() == (Jacobi(F(1, 2), F(1, 2)), MatPoly.diag(Poly((1,)), 1 - X))

    def test_numerator_form_once_per_weight(self, monkeypatch):
        # the weight keeps (N, m); admission, as_atomic and factor_data read
        # it, and a polynomial factor takes no canonical form; past admission,
        # whose square-free split of the minors divides, it takes no exact
        # division
        from mvop import diffop

        calls, canonical = [], weights._canonical
        monkeypatch.setattr(weights, "_canonical", lambda *args: calls.append(args) or canonical(*args))
        w = Weight.atomic(Laguerre(F(1, 2)), MatPoly([[Poly((0, 0, 1)), X], [X, Poly((2,))]]))
        for module in (diffop, weights):
            monkeypatch.setattr(module, "exact_div", lambda *args: pytest.fail("exact division"))
        w.factor_data()
        assert not calls
        assert w.as_atomic() == (Laguerre(F(1, 2)), MatPoly([[Poly((0, 0, 1)), X], [X, Poly((2,))]]))
        assert w.as_atomic()[1] is w.N and w.factor_data()[2] is w.N
        monkeypatch.undo()
        # a rational factor is put in canonical form at admission, and its
        # pole at 0 moves into the density: diag(x^2 + x, 2 x) / (2 x^2) =
        # diag((x + 1)/2, 1) / x, so Laguerre(3/2) becomes Laguerre(1/2)
        w = Weight.atomic(Laguerre(F(3, 2)), MatPoly.diag(X**2 + X, 2 * X), 2 * X**2)
        assert (w.family, w.N) == (Laguerre(F(1, 2)), MatPoly.diag((X + 1) * F(1, 2), 1))


class TestPoles:
    """A rational factor N / m is admitted only as a polynomial one: each
    power of x - e in m at a finite end e of the support moves into the
    density's exponent a_e there, which must stay above -1; any other factor
    of m is refused, as the moments of rho / m are not rational multiples of
    rho's."""

    @pytest.mark.parametrize(
        "family, m, message",
        [
            (Laguerre(0), X, "weight is not integrable at the pole x = 0"),
            (Jacobi(0, 0), X + 1, "weight is not integrable at the pole x = -1"),
            (Laguerre(0), (X - 1) ** 2,
             "weight factor has a pole off the support's finite ends, at a root of x^2 - 2*x + 1"),
            (Jacobi(F(1, 2), F(1, 2)), X**2, "weight factor has a pole off the support's finite ends, at a root of x^2"),
        ],
        ids=["laguerre-end", "jacobi-end", "laguerre-inside", "jacobi-inside"],
    )
    def test_non_integrable_refused(self, family, m, message):
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            Weight.atomic(family, MatPoly.identity(1), m)

    @pytest.mark.parametrize(
        "family, m, rest",
        [
            (HermiteShifted(0), X**2 + 1, "x^2 + 1"),
            (Laguerre(2), X + 2, "x + 2"),
            (Laguerre(2), (X - 1) ** 2, "x^2 - 2*x + 1"),
            # the power of x moves into the density, the rest is named
            (Laguerre(2), X * (X + 2), "x + 2"),
            (Jacobi(F(1, 2), F(1, 2)), (X - 2) * (X + 1), "x - 2"),
        ],
        ids=["hermite", "laguerre-outside", "laguerre-inside", "laguerre-end-and-outside", "jacobi-outside"],
    )
    def test_off_end_poles_refused(self, family, m, rest):
        message = f"weight factor has a pole off the support's finite ends, at a root of {rest}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            Weight.atomic(family, MatPoly.identity(1), m)

    @pytest.mark.parametrize(
        "family, sign, m, absorbed",
        [
            (Laguerre(2), 1, X, Laguerre(1)),
            (Jacobi(0, 1), 1, X + 1, Jacobi(0, 0)),
            # (x - 1)^k = (-1)^k (1 - x)^k: -1 / (x - 1) is 1 / (1 - x)
            (Jacobi(F(1, 2), 0), -1, X - 1, Jacobi(F(-1, 2), 0)),
        ],
        ids=["laguerre-end", "jacobi-end", "jacobi-other-end"],
    )
    def test_integrable_admitted(self, family, sign, m, absorbed):
        w = Weight.atomic(family, MatPoly.identity(1) * sign, m)
        assert (w.family, w.N) == (absorbed, MatPoly.identity(1))
        assert w == absorbed.scalar_weight() and repr(w) == repr(absorbed.scalar_weight())

    def test_jacobi_sign_flips_with_the_power_at_one(self):
        # N / ((x - 1)^2 (x + 1)) keeps N's sign, N / ((x - 1) (x + 1)^2) flips it
        n = MatPoly([[Poly((2,)), X], [X, Poly((1,))]])
        w = Weight.atomic(Jacobi(F(5, 2), F(3, 2)), n, (X - 1) ** 2 * (X + 1))
        assert (w.family, w.N) == (Jacobi(F(1, 2), F(1, 2)), n)
        w = Weight.atomic(Jacobi(F(3, 2), F(5, 2)), n * -1, (X - 1) * (X + 1) ** 2)
        assert (w.family, w.N) == (Jacobi(F(1, 2), F(1, 2)), n)
        with pytest.raises(DomainError, match="^weight factor not positive definite: leading minor 1 is negative$"):
            Weight.atomic(Jacobi(F(3, 2), F(5, 2)), n, (X - 1) * (X + 1) ** 2)

    def test_order_of_the_numerator_counts(self):
        # diag(x^2 + x^3, x) / x^2 is diag(x + x^2, 1) / x: at x = 0 the
        # (1, 1) entry 1/x is not integrable against Laguerre(0), the (0, 0)
        # entry 1 + x is; on Laguerre(1/2) both are, and the weight is
        # Laguerre(-1/2) diag(x + x^2, 1)
        n = MatPoly.diag(X**2 + X**3, X)
        with pytest.raises(DomainError, match="^weight is not integrable at the pole x = 0$"):
            Weight.atomic(Laguerre(0), n, X**2)
        w = Weight.atomic(Laguerre(F(1, 2)), n, X**2)
        assert (w.family, w.N) == (Laguerre(F(-1, 2)), MatPoly.diag(X + X**2, Poly((1,))))

    def test_absorbed_factor_builds_the_shifted_sequence(self):
        # Laguerre(2) / x is Laguerre(1): the same weight, sequence and
        # membership verdicts; the same holds for a size-2 factor
        from mvop.dwalgebra import verify_in_DW

        w = Weight.atomic(Laguerre(2), MatPoly.identity(1), X)
        assert w == Laguerre(1).scalar_weight()
        seq, want = OPSequence(w), OPSequence(Laguerre(1).scalar_weight())
        assert [seq.poly(n) for n in range(8)] == [want.poly(n) for n in range(8)]
        assert verify_in_DW(DiffOp.identity(1), w, 3).ok
        assert verify_in_DW(Laguerre(1).delta(), w, 6).ok
        assert not verify_in_DW(Laguerre(2).delta(), w, 6).ok
        n = MatPoly([[Poly((2,)), X], [X, X**2 + 2]])
        w = Weight.atomic(Jacobi(F(3, 2), F(1, 2)), n * -1, X - 1)
        assert w == Weight.atomic(Jacobi(F(1, 2), F(1, 2)), n)
        assert inner_product(MatPoly.identity(2), MatPoly.identity(2), w) == inner_product(
            MatPoly.identity(2), MatPoly.identity(2), Weight.atomic(Jacobi(F(1, 2), F(1, 2)), n)
        )


class TestCacheBound:
    """The module caches keep the CACHE_SIZE most recently used weights and
    families; an evicted sequence rebuilds to the same polynomials."""

    @staticmethod
    def _others(k):
        return [Laguerre(F(100 + i, 7)) for i in range(k)]

    @pytest.fixture(autouse=True)
    def _empty_caches(self, monkeypatch):
        monkeypatch.setattr(weights, "_SEQUENCE_CACHE", {})
        monkeypatch.setattr(weights, "_MOMENT_CACHE", {})

    def test_at_most_cache_size(self):
        first, *rest = self._others(weights.CACHE_SIZE + 8)
        seq = sequence_for(first.scalar_weight())
        weights._moments(first, 3)
        for i, fam in enumerate(rest):
            if i == weights.CACHE_SIZE // 2:
                # a hit makes the first the most recently used again
                assert sequence_for(first.scalar_weight()) is seq
                weights._moments(first, 3)
            sequence_for(fam.scalar_weight())
            weights._moments(fam, 3)
            assert len(weights._SEQUENCE_CACHE) <= weights.CACHE_SIZE
            assert len(weights._MOMENT_CACHE) <= weights.CACHE_SIZE
        assert len(weights._SEQUENCE_CACHE) == len(weights._MOMENT_CACHE) == weights.CACHE_SIZE
        assert first.scalar_weight() in weights._SEQUENCE_CACHE and first in weights._MOMENT_CACHE
        assert rest[0].scalar_weight() not in weights._SEQUENCE_CACHE and rest[0] not in weights._MOMENT_CACHE

    def test_evicted_sequence_rebuilds_equal(self):
        # JAC2's W has a non-identity factor, so its steps read the moment table
        w = entry("JAC2").weight_W
        seq = sequence_for(w)
        polys = [seq.poly(n) for n in range(9)]
        for fam in self._others(weights.CACHE_SIZE + 1):
            sequence_for(fam.scalar_weight())
            weights._moments(fam, 3)
        assert w not in weights._SEQUENCE_CACHE and w.as_atomic()[0] not in weights._MOMENT_CACHE
        rebuilt = sequence_for(w)
        assert rebuilt is not seq
        assert [rebuilt.poly(n) for n in range(9)] == polys

    def test_direct_sum_reads_evicted_children(self):
        a, b = Laguerre(F(1, 2)).scalar_weight(), Laguerre(F(3, 2)).scalar_weight()
        seq = sequence_for(Weight.direct_sum([a, b]))
        seq.poly(1)
        for fam in self._others(weights.CACHE_SIZE):
            sequence_for(fam.scalar_weight())
        assert a not in weights._SEQUENCE_CACHE and b not in weights._SEQUENCE_CACHE
        got = [seq.poly(n) for n in range(9)]
        fresh = [OPSequence(a), OPSequence(b)]
        assert got == [MatPoly.blockdiag([s.poly(n) for s in fresh]) for n in range(9)]
