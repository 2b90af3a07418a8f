"""Weights, moments, inner products and monic orthogonal sequences.

The recursion coefficients and moments are checked against independent
oracles: closed one-step moment recurrences (Gamma recursion, integration by
parts) feeding a Gram-Schmidt construction, entirely separate from the
recursion-based production path.
"""

from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from mvop import weights
from mvop.catalog import entry
from mvop.exactalg import DomainError, FracMat, MatRF, NonPolynomialError, Poly, ShapeError, SingularError, X
from mvop.diffop import DiffOp, MatPoly, apply, matrf_to_matpoly, w_adjoint
from mvop.weights import (
    HermiteShifted,
    Jacobi,
    Laguerre,
    OPSequence,
    Weight,
    classical_delta,
    classical_monic,
    closed_moments,
    density_ratio,
    inner_product,
    moment_rows,
    monic_ops,
    normalized_moments,
    scalar_recursion,
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


def gram_schmidt_recursion(family, n_max):
    """Oracle: monic orthogonal polynomials from closed-recurrence moments by
    Gram-Schmidt, and the three-term coefficients they induce."""
    nu = closed_moments(family, 2 * n_max + 2)

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
        d = classical_delta(Laguerre(F(1, 2)))
        assert d == DiffOp.scalar([Poly(), Poly((F(3, 2), -1)), X])

    def test_jacobi(self):
        a, b = F(1, 2), F(3, 4)
        d = classical_delta(Jacobi(a, b))
        assert d == DiffOp.scalar([Poly(), Poly((b - a, -(a + b + 2))), Poly((1, 0, -1))])

    def test_hermite_zero_shift(self):
        d = classical_delta(HermiteShifted(F(0)))
        assert d == DiffOp.scalar([Poly(), Poly((0, -2)), Poly((1,))])


class TestScalarRecursion:
    def test_laguerre_base_case(self):
        a = F(1, 2)
        assert scalar_recursion(Laguerre(a), 0) == (a + 1, F(0))

    def test_hermite_base_case(self):
        b = F(1, 3)
        assert scalar_recursion(HermiteShifted(b), 1) == (b, F(1, 2))

    def test_symmetric_jacobi_centered(self):
        for n in range(6):
            bn, _ = scalar_recursion(Jacobi(F(1, 2), F(1, 2)), n)
            assert bn == 0

    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    def test_against_gram_schmidt_oracle(self, family):
        _, oracle = gram_schmidt_recursion(family, 6)
        for n in range(7):
            assert scalar_recursion(family, n) == oracle[n]

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError):
            scalar_recursion(Laguerre(F(1, 2)), -1)


class TestMoments:
    def test_laguerre_gamma_recursion_values(self):
        a = F(1, 2)
        nu = normalized_moments(Laguerre(a), 2)
        assert nu[1] == a + 1
        assert nu[2] == (a + 1) * (a + 2)

    def test_hermite_odd_vanishes(self):
        nu = normalized_moments(HermiteShifted(F(0)), 5)
        assert nu[1] == 0 and nu[3] == 0 and nu[5] == 0

    def test_jacobi_first_moment(self):
        a, b = F(1, 2), F(3, 4)
        nu = normalized_moments(Jacobi(a, b), 1)
        assert nu[1] == (b - a) / (a + b + 2)

    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    def test_consistency_with_closed_recurrence(self, family):
        jacobi_route = normalized_moments(family, 20).values
        closed_route = closed_moments(family, 20)
        assert list(jacobi_route) == closed_route

    def test_zeroth_is_one(self):
        assert normalized_moments(Jacobi(F(0), F(0)), 0)[0] == 1

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
            assert weights._moments_list(family, s)[: s + 1] == closed_moments(family, s)
        extended = weights._MOMENT_CACHE.pop(family)
        weights._moments_list(family, max(requests))
        assert weights._MOMENT_CACHE[family] == extended


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
            MatRF([[Poly((2,)), X], [X, Poly((1, 0, 1))]]),
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
    fam, mat = weight.as_atomic()
    integrand = p * matrf_to_matpoly(mat) * q.transpose()
    nu = normalized_moments(fam, max(integrand.degree, 0))
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
    return (a * a.transpose()).to_matrf()


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


class TestMomentRows:
    @given(gram_cases(), st.integers(0, 5))
    @example((MatPoly.zeros(2), None, Weight.of_scalars(Laguerre(F(1, 2)), Laguerre(F(3, 2)))), 3)
    @example((MatPoly.zeros(1), None, HermiteShifted(F(1, 3)).scalar_weight()), 0)
    @settings(max_examples=80, deadline=None)
    def test_rows_are_inner_products_with_powers(self, case, k):
        p, _, w = case
        rows = moment_rows(p, w, k)
        assert len(rows) == k + 1
        for j, row in enumerate(rows):
            want = inner_product(p, MatPoly.scalar(X**j, w.size), w)
            assert row == want and repr(row) == repr(want)

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
                MatRF([[Poly((0, 0, 1)), X], [X, Poly((2,))]]),
            ),
            Weight.atomic(
                Jacobi(F(1, 2), F(3, 4)),
                MatRF([[Poly((2,)), X], [X, Poly((1, 0, 1))]]),
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
            MatRF([[Poly((0, 0, 1)), X], [X, Poly((2,))]]),
        )
        seq = monic_ops(w, 5)
        for n in range(6):
            assert seq.poly(n).coeff(n) == FracMat.identity(2)
            assert seq.poly(n).degree == n


def _step_gram_products(self, k):
    """Oracle: the recursion step from Gram products, H_k = <P_k, P_k> and
    <x P_k, P_k> by ``inner_product`` and the update by MatPoly arithmetic."""
    w = self.weight
    pk = self._polys[k]
    xpk = X * pk
    if w.M == MatRF.identity(w.size):
        b, c = w.family.recursion(k)
        bk, ck = FracMat.identity(w.size) * b, FracMat.identity(w.size) * c
    else:
        h = inner_product(pk, pk, w)
        try:
            h_inv = h.inv()
        except SingularError as exc:
            raise SingularError(f"degenerate moment system at degree {k + 1}") from exc
        bk = inner_product(xpk, pk, w) * h_inv
        ck = h * self._h_prev_inv if k else FracMat.zeros(w.size)
        self._h_prev_inv = h_inv
    nxt = xpk - pk.lmul_const(bk)
    if k:
        nxt = nxt - self._polys[k - 1].lmul_const(ck)
    self._polys.append(nxt)
    self._B.append(bk)
    self._C.append(ck)


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


class TestStepOracle:
    """``_step`` reads H_k and B_k off moment rows and sums each cell of the
    update as integers; every P_n, B_n and C_n must equal, by repr, what the
    Gram-product step gives."""

    @pytest.mark.parametrize("name, params", _entry_weights())
    def test_catalog_weights(self, name, params):
        for w in entry(name, params).doc.weights.values():
            _assert_step_matches_oracle(w)

    @given(gram_cases())
    @example((None, None, Weight.atomic(Laguerre(F(1, 2)), MatRF([[Poly((0, 0, 1)), X], [X, Poly((2,))]]))))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_polynomial_factors(self, case):
        _assert_step_matches_oracle(case[2])

    def test_step_never_calls_inner_product(self, monkeypatch):
        w = Weight.atomic(Jacobi(F(1, 2), F(3, 4)), MatRF([[Poly((2,)), X], [X, Poly((1, 0, 1))]]))
        monkeypatch.setattr(weights, "inner_product", _no_inner_product)
        assert OPSequence(w).poly(6).degree == 6


class TestSingularGram:
    """The raw constructor skips admission, so a Gram block can be singular."""

    def test_singular_at_degree_two(self):
        # H_1 = <P_1, P_1> has (2,2) entry nu_3 - 10 nu_2 + 28 nu_1 - 24 = 0
        seq = OPSequence(Weight(family=Laguerre(F(2)), M=MatRF.diag(1, X - 6)))
        assert seq.poly(1).degree == 1
        with pytest.raises(SingularError, match="degenerate moment system at degree 2"):
            seq.poly(2)

    def test_singular_at_degree_one(self):
        # H_0 = diag(1, nu_1 - 3/2) = diag(1, 0)
        seq = OPSequence(Weight(family=Laguerre(F(1, 2)), M=MatRF.diag(1, X - F(3, 2))))
        with pytest.raises(SingularError, match="degenerate moment system at degree 1"):
            seq.poly(1)


class TestAdjointPairing:
    def test_pairing_on_catalog_members(self):
        # <P . D, Q> = <P, Q . Ddagger> on monomials up to degree 5
        from mvop.catalog import entry
        from mvop.diffop import matrf_to_matpoly

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


class TestWeightValidation:
    def test_positivity_spot_check_rejects(self):
        # diag(1, -1) is symmetric and nonsingular but not positive
        with pytest.raises(DomainError, match=r"^weight factor not positive definite at sample x = 8/17$"):
            Weight.atomic(Laguerre(F(1, 2)), MatRF.diag(Poly((1,)), Poly((-1,))))

    def test_constant_factor_checked_once(self, monkeypatch):
        calls, evaluate = [], MatRF.eval
        monkeypatch.setattr(MatRF, "eval", lambda m, x: calls.append(x) or evaluate(m, x))
        Weight.atomic(Jacobi(F(1, 2), F(3, 4)), MatRF([[Poly((2,)), Poly((1,))], [Poly((1,)), Poly((2,))]]))
        assert calls == [F(-15, 17)]
        with pytest.raises(DomainError, match=r"^weight factor not positive definite at sample x = 8/17$"):
            Weight.atomic(Laguerre(F(1, 2)), MatRF([[Poly((1,)), Poly((2,))], [Poly((2,)), Poly((1,))]]))

    def test_nonconstant_factor_checked_at_every_point(self):
        # 15/2 - x is positive at every Laguerre sample point but the last
        with pytest.raises(DomainError, match=r"^weight factor not positive definite at sample x = 128/17$"):
            Weight.atomic(Laguerre(F(1, 2)), MatRF.diag(Poly((1,)), Poly((F(15, 2), -1))))
        Weight.atomic(Laguerre(F(1, 2)), MatRF.diag(Poly((1,)), Poly((F(8), -1))))

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            Weight.atomic(Laguerre(F(1, 2)), MatRF([[Poly((1,)), X], [Poly(), Poly((1,))]]))

    def test_singular_factor_rejected(self):
        with pytest.raises(DomainError, match="^matrix factor is singular as a rational matrix$"):
            Weight.atomic(Laguerre(F(1, 2)), MatRF([[X, X], [X, X]]))

    @pytest.mark.parametrize(
        "family, m, message",
        [
            (Jacobi(F(0), F(0)), MatRF([[Poly((1,)), Poly((2,))], [Poly((2,)), Poly((4,))]]),
             "matrix factor is singular as a rational matrix"),
            (HermiteShifted(F(0)), MatRF([[Poly((1,)), X], [X, X * X]]), "matrix factor is singular as a rational matrix"),
            (HermiteShifted(F(0)), MatRF.diag(Poly((1,)), X), "weight factor not positive definite at sample x = -45/17"),
        ],
        ids=["singular-constant", "singular-hermite", "indefinite"],
    )
    def test_rejection_messages(self, family, m, message):
        # admission runs the spot check first and computes det M only when
        # it fails, so each refusal must keep its message
        with pytest.raises(DomainError, match=f"^{message}$"):
            Weight.atomic(family, m)

    def test_admission_skips_determinant(self, monkeypatch):
        # the spot check's positive last minor already proves det M != 0
        monkeypatch.setattr(MatRF, "det", lambda m: pytest.fail("det computed for an admitted factor"))
        Weight.atomic(Laguerre(F(1, 2)), MatRF([[Poly((0, 0, 1)), X], [X, Poly((2,))]]))

    def test_mixed_support_direct_sum_rejected(self):
        with pytest.raises(DomainError):
            Weight.of_scalars(Laguerre(F(1, 2)), Jacobi(F(0), F(0)))

    def test_laguerre_range(self):
        with pytest.raises(DomainError):
            Laguerre(F(-3, 2))

    def test_density_ratio(self):
        assert density_ratio(Laguerre(F(3, 2)), Laguerre(F(1, 2))).as_poly() == X
        assert density_ratio(Laguerre(F(5, 2)), Laguerre(F(1, 2))).as_poly() == X**2
        assert density_ratio(Laguerre(F(1, 2)), Laguerre(F(1, 3))) is None
        assert density_ratio(HermiteShifted(F(0)), HermiteShifted(F(1))) is None

    def test_common_atomic_merge(self):
        a, b = F(1, 2), F(3, 4)
        w = Weight.of_scalars(Jacobi(a + 1, b), Jacobi(a + 1, b + 1))
        fam, m = w.as_atomic()
        assert fam == Jacobi(a + 1, b)
        assert m == MatRF.diag(Poly((1,)), Poly((1, 1)))
