"""Algebra membership, symmetry, intertwiners, Darboux machinery and the
classification of direct sums."""

import math
import random
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mvop import catalog, dwalgebra
from mvop.exactalg import DecompositionError, DomainError, FracMat, Poly, RatFunc, ShapeError, X, nullspace
from mvop.diffop import (
    DiffOp,
    MatPoly,
    Verdict,
    action,
    apply,
    block_antidiagonal,
    bump_coefficient,
    coefficient_sites,
    compose,
    embed_scalar,
    op_power,
    poly_of_op,
    w_adjoint,
)
from mvop.weights import HermiteShifted, Jacobi, Laguerre, Weight, inner_product, sequence_for
from mvop.dwalgebra import (
    DarbouxCertificate,
    _search_system,
    commutativity_predicate,
    darboux_verify,
    diag_darboux_match,
    fullness_check,
    intertwiner_search,
    intertwiner_verify,
    matrix_intertwiner_search,
    matrix_intertwiner_verify,
    module_decompose,
    module_generator,
    relation,
    scalar_darboux_class,
    symmetry_check,
    verify_in_DW,
)

ALPHA = F(1, 2)
LAG = Laguerre(ALPHA)
DDX = DiffOp.ddx(1)


class TestMembership:
    def test_laguerre_delta_eigenvalues(self):
        rep = verify_in_DW(LAG.delta(), LAG.scalar_weight(), 10)
        assert rep.ok
        assert [m.entry(0, 0) for m in rep.eigs] == [-n for n in range(11)]

    def test_jac2_second_order_lower_triangular(self):
        from mvop.catalog import entry

        e = entry("JAC2")
        rep = verify_in_DW(e.ops["D1"], e.weight_Wt, 8)
        assert rep.ok
        for lam in rep.eigs:
            assert lam.entry(0, 1) == 0  # lower triangular 2x2

    def test_bare_derivative_rejected(self):
        rep = verify_in_DW(DDX, LAG.scalar_weight(), 4)
        assert not rep.ok and rep.fail_n == 1

    def test_size_mismatch(self):
        with pytest.raises(ShapeError):
            verify_in_DW(DiffOp.identity(2), LAG.scalar_weight(), 2)


class TestNegativeHorizon:
    """A negative horizon checks no n; each of these used to return ok."""

    def test_membership(self):
        with pytest.raises(DomainError, match="horizon n_max = -1"):
            verify_in_DW(DDX, LAG.scalar_weight(), -1)

    def test_relation(self):
        seq = sequence_for(LAG.scalar_weight())
        with pytest.raises(DomainError, match="horizon"):
            relation(seq.poly, DDX, seq.poly, -2)

    def test_scalar_intertwiner(self):
        with pytest.raises(DomainError, match="horizon"):
            intertwiner_verify(DDX, LAG, Laguerre(ALPHA + 1), -1)

    def test_matrix_intertwiner(self):
        w1, w2 = LAG.scalar_weight(), Laguerre(ALPHA + 1).scalar_weight()
        with pytest.raises(DomainError, match="horizon"):
            matrix_intertwiner_verify(DDX, w1, w2, -1)

    def test_zero_horizon_still_checks_n_zero(self):
        rep = verify_in_DW(DiffOp.scalar([Poly((1,)), Poly((1,))]), LAG.scalar_weight(), 0)
        assert rep.ok and rep.eigs == [FracMat([[1]])]


def _eigenvalues_multiply(d1, d2, weight, n_max):
    """Lambda_n(d1 d2) = Lambda_n(d1) Lambda_n(d2), a consequence of the
    right action, as a product of verify_in_DW eigenvalues."""
    r1, r2, rp = (verify_in_DW(d, weight, n_max) for d in (d1, d2, compose(d1, d2)))
    return r1.ok and r2.ok and rp.ok and all(rp.eigs[n] == r1.eigs[n] * r2.eigs[n] for n in range(n_max + 1))


class TestLambdaMultiplicativity:
    def test_delta_squared(self):
        w = LAG.scalar_weight()
        assert _eigenvalues_multiply(LAG.delta(), LAG.delta(), w, 8)
        rep = verify_in_DW(compose(LAG.delta(), LAG.delta()), w, 8)
        assert [m.entry(0, 0) for m in rep.eigs] == [n * n for n in range(9)]

    def test_identity_neutral(self):
        w = LAG.scalar_weight()
        assert _eigenvalues_multiply(LAG.delta(), DiffOp.identity(1), w, 6)

    def test_commuting_catalog_pair(self):
        from mvop.catalog import entry

        e = entry("JAC2")
        assert _eigenvalues_multiply(e.ops["D1"], e.ops["D2"], e.weight_Wt, 6)


class TestSymmetry:
    def test_jacobi_delta_symmetric(self):
        fam = Jacobi(F(1, 2), F(3, 4))
        assert symmetry_check(fam.delta(), fam.scalar_weight()).ok

    def test_catalog_second_order_symmetric(self):
        from mvop.catalog import entry

        e = entry("JAC2")
        assert symmetry_check(e.ops["D2"], e.weight_Wt).ok

    def test_shifted_derivative_not_symmetric(self):
        op = DiffOp.scalar([X, Poly((1,))])  # d + x
        rep = symmetry_check(op, LAG.scalar_weight())
        assert not rep.ok and not rep.residual.coeff(1).is_zero

    def test_agrees_with_adjoint_fixed_point(self):
        from mvop.catalog import entry

        e = entry("JAC2")
        for name in ("D1", "D2"):
            op = e.ops[name]
            fixed = w_adjoint(op, e.weight_Wt) == op
            assert symmetry_check(op, e.weight_Wt).ok == fixed


class TestSymmetryPairing:
    """W-symmetry read independently of any adjoint: <P . D, Q>_W equals
    <P, Q . D>_W for P = x^i I and Q = x^j I with i, j <= 5. The (a, c) entry
    of that pairing is the one of the row vectors x^i e_a and x^j e_c, so
    these pairs cover every monomial row vector up to degree 5."""

    @staticmethod
    def pairing_holds(d, w):
        mons = [MatPoly.scalar(Poly.monomial(i), d.size) for i in range(6)]
        return all(
            inner_product(apply(p, d), q, w) == inner_product(p, apply(q, d), w)
            for p in mons
            for q in mons
        )

    @pytest.mark.parametrize("name", ["D1", "D2"])
    def test_jac2_generators_symmetric(self, name):
        from mvop.catalog import entry

        e = entry("JAC2")
        op, w = e.ops[name], e.weight_Wt
        assert self.pairing_holds(op, w)
        assert symmetry_check(op, w).ok

    def test_shifted_derivative_asymmetric(self):
        op = DiffOp.scalar([X, Poly((1,))])  # d + x
        w = LAG.scalar_weight()
        assert not self.pairing_holds(op, w)
        assert not symmetry_check(op, w).ok


class TestRelation:
    def test_stated_constants_wrong_at_two(self):
        seq = sequence_for(LAG.scalar_weight())
        stated = lambda n: FracMat([[7 if n == 2 else -n]])  # the true value is -n
        rep = relation(seq.poly, LAG.delta(), seq.poly, 5, cs=stated)
        assert not rep.ok and rep.fail_n == 2
        assert rep.eigs == [FracMat([[0]]), FracMat([[-1]])]

    def test_non_monic_family_constants_solved(self):
        seq = sequence_for(LAG.scalar_weight())
        scaled = lambda n: seq.poly(n) * 3
        rep = relation(scaled, LAG.delta(), scaled, 6)
        assert rep.ok and [m.entry(0, 0) for m in rep.eigs] == [-n for n in range(7)]

    def test_singular_leading_coefficient_fails(self):
        family = [MatPoly.identity(2), MatPoly([[X, 0], [0, 1]])]  # lead diag(1, 0)
        rep = relation(family.__getitem__, DiffOp.identity(2), family.__getitem__, 1)
        assert not rep.ok and rep.fail_n == 1 and rep.eigs == [FracMat.identity(2)]
        assert "n=1" in rep.detail


# ---------------------------------------------------------------------------
# relation against its materialising form: P_n . T and C_n Q_n built as
# MatPolys and compared, the way every n was checked before the integer zero
# test


def _relation_materialised(ps, t, qs, n_max, cs=None):
    eigs = []
    for n in range(n_max + 1):
        r, den = action(ps(n), t)
        if den.degree > 0:
            return Verdict(False, f"non-polynomial action at n={n}", n, (r, den), eigs)
        q = qs(n)
        if cs is not None:
            c = cs(n)
        else:
            c = r.coeff(n)
            lead = q.coeff(n)
            if lead != FracMat.identity(q.size):
                if lead.det() == 0:
                    return Verdict(False, f"leading coefficient of Q_n singular at n={n}", n, lead, eigs)
                c = c * lead.inv()
        expected = q.lmul_const(c)
        if r != expected:
            return Verdict(False, f"P_n . T != C_n Q_n at n={n}", n, r - expected, eigs)
        eigs.append(c)
    return Verdict(True, eigs=eigs)


def _same_verdict(ps, t, qs, n_max, cs=None) -> Verdict:
    with mock.patch.object(dwalgebra, "apply", wraps=dwalgebra.apply) as spy:
        got = relation(ps, t, qs, n_max, cs)
    want = _relation_materialised(ps, t, qs, n_max, cs)
    assert got == want and repr(got) == repr(want)
    if t.is_polynomial and isinstance(ps(0), MatPoly):
        # a passing n builds neither side; the first failing n builds both
        assert spy.call_count == got.detail.startswith("P_n . T != C_n Q_n")
    return got


def _entry_cases():
    from test_catalog import ROBUSTNESS_PARAMS

    for name, sets in ROBUSTNESS_PARAMS.items():
        for k, params in enumerate(sets):
            yield pytest.param(name, params, id=f"{name}-params{k}")


# (entry, operator, side) of memberships the catalog asserts, for the random
# operators and mutants below; HER3's D (order 8) is left out for time
_MEMBERS = (("JAC2", "D1", "Wt"), ("JAC2", "D2", "Wt"), ("GEG2", "D", "W"), ("LAG3", "E", "Wt"),
            ("HER3", "E", "Wt"), ("LAG2DIAG", "G3", "W"), ("LAG2DIAG", "G6", "W"))


def _member(k):
    name, op, side = _MEMBERS[k]
    e = catalog.entry(name)
    return e.ops[op], sequence_for(e.weight_W if side == "W" else e.weight_Wt)


def _degree_bounded_op(data, size):
    # deg F_j <= j, small integer coefficients
    coeffs = []
    for j in range(data.draw(st.integers(0, 2)) + 1):
        entry = lambda: Poly(data.draw(st.lists(st.integers(-2, 2), max_size=j + 1)))
        coeffs.append(MatPoly([[entry() for _ in range(size)] for _ in range(size)]))
    return DiffOp(size, coeffs)


class TestRelationOracle:
    """relation returns the materialising check's Verdict, field for field."""

    @pytest.mark.parametrize("name, params", _entry_cases())
    def test_every_relation_of_verify_entry(self, name, params, monkeypatch):
        verdicts = []

        def checked(*args, **kwargs):
            verdicts.append(_same_verdict(*args, **kwargs))
            return verdicts[-1]

        monkeypatch.setattr(dwalgebra, "relation", checked)
        monkeypatch.setattr(catalog, "relation", checked)
        assert catalog.verify_entry(name, params).ok
        assert verdicts

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_degree_bounded_operators_on_catalog_sequences(self, data):
        op, seq = _member(data.draw(st.integers(0, len(_MEMBERS) - 1)))
        t = _degree_bounded_op(data, op.size)
        # a member plus a random operator: passes when the random part is a
        # multiple of I, fails at a drawn n otherwise
        t = t + op * data.draw(st.integers(-2, 2))
        _same_verdict(seq.poly, t, seq.poly, 5)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_bumped_members(self, data):
        op, seq = _member(data.draw(st.integers(0, len(_MEMBERS) - 1)))
        sites = list(coefficient_sites(op))
        site = sites[data.draw(st.integers(0, len(sites) - 1))]
        mutant = bump_coefficient(op, site, data.draw(st.sampled_from([-1, 1, F(1, 3)])))
        _same_verdict(seq.poly, mutant, seq.poly, 5)

    def test_members_pass(self):
        for k in range(len(_MEMBERS)):
            op, seq = _member(k)
            assert _same_verdict(seq.poly, op, seq.poly, 6).ok

    def test_non_monic_q(self):
        op, seq = _member(0)
        m = FracMat([[2, 1], [1, 1]])
        qs = lambda n: seq.poly(n).lmul_const(m)  # lead m, C_n = Lambda_n m^-1
        rep = _same_verdict(seq.poly, op, qs, 6)
        assert rep.ok and rep.eigs[3] == _same_verdict(seq.poly, op, seq.poly, 6).eigs[3] * m.inv()

    def test_singular_lead(self):
        op, seq = _member(0)
        qs = lambda n: seq.poly(n).lmul_const(FracMat([[1, 0], [0, 0]])) if n == 2 else seq.poly(n)
        rep = _same_verdict(seq.poly, op, qs, 5)
        assert not rep.ok and rep.fail_n == 2 and "singular" in rep.detail

    def test_wrong_stated_constants(self):
        e = catalog.entry("LAG2DIAG")
        seq = sequence_for(e.weight_W)
        for g in ("G3", "G5", "G6"):
            stated = e.expected["eigs"][g]
            for n, (r, c) in ((0, (0, 0)), (3, (1, 0)), (5, (0, 1))):
                def wrong(m, n=n, r=r, c=c):
                    rows = [list(row) for row in stated(m).rows]
                    rows[r][c] += m == n
                    return FracMat(rows)
                rep = _same_verdict(seq.poly, e.ops[g], seq.poly, 6, cs=wrong)
                assert not rep.ok and rep.fail_n == n and isinstance(rep.residual, MatPoly)

    def test_rational_operator(self):
        seq = sequence_for(LAG.scalar_weight())
        # F_1 = 1/(x + 1): the action is polynomial at n = 0 only
        two, one, zero = MatPoly([[2 * (X + 1)]]), MatPoly.identity(1), MatPoly.zeros(1)
        t = DiffOp(1, [two, one], X + 1)
        rep = _same_verdict(seq.poly, t, seq.poly, 4)
        assert not rep.ok and rep.fail_n == 1
        # the residual is the action (numerators, den): P_1 . T = 2 P_1 + 1/(x + 1)
        (num, den), p1 = rep.residual, seq.poly(1).entry(0, 0)
        assert isinstance(num, MatPoly) and RatFunc(num.entry(0, 0), den) == RatFunc(2 * p1 * (X + 1) + 1, X + 1)
        # F_5 = 1/(x + 1) does not act below degree 5, so T acts as 2 there
        t = DiffOp(1, [two, zero, zero, zero, zero, one], X + 1)
        assert not t.is_polynomial
        assert _same_verdict(seq.poly, t, seq.poly, 4).eigs == [FracMat([[2]])] * 5

    def test_wrong_shapes_still_raise(self):
        op, seq = _member(0)
        for cs in (lambda n: FracMat.identity(3), lambda n: FracMat([[1, 0]])):
            with pytest.raises(ShapeError):
                relation(seq.poly, op, seq.poly, 2, cs=cs)
        with pytest.raises(ShapeError):
            relation(seq.poly, op, lambda n: MatPoly.identity(3), 2, cs=lambda n: FracMat.identity(2))

    def test_cell_test_fits_its_width(self):
        # each false relation below packs to 0 at width 64: P_0 . T = x
        # against a stated C_0 = 2^64, and a residual x^2 - 2^128 at n = 1 with
        # C_1 solved; the cell test must widen past a stated C_n and size its
        # width for Q_n up front
        one = lambda n: MatPoly([[Poly((1,))]])
        rep = _same_verdict(one, DiffOp.scalar([X]), one, 0, cs=lambda n: FracMat([[2**64]]))
        assert not rep.ok and rep.fail_n == 0
        t = DiffOp.scalar([Poly((1,)), Poly((0, 2**40 - 1, 1))])
        ps, qs = [MatPoly([[Poly((1,))]]), MatPoly([[X]])], [MatPoly([[Poly((1,))]]), MatPoly([[X + 2**88]])]
        rep = _same_verdict(ps.__getitem__, t, qs.__getitem__, 1)
        assert not rep.ok and rep.fail_n == 1 and rep.residual == MatPoly([[X**2 - 2**128]])

    def test_zero_operator(self):
        for k in (0, 3):
            op, seq = _member(k)
            zero = DiffOp.zero(op.size)
            rep = _same_verdict(seq.poly, zero, seq.poly, 6)
            assert rep.ok and rep.eigs == [FracMat.zeros(op.size)] * 7
            rep = _same_verdict(seq.poly, zero, seq.poly, 3, cs=lambda n: FracMat.identity(op.size))
            assert not rep.ok and rep.fail_n == 0

    @pytest.mark.parametrize("name", ["LAG3", "HER3"])
    def test_block_operator_on_a_direct_sum(self, name):
        # the 6x6 antidiagonal operator of a Darboux certificate on W (+) Wt
        e = catalog.entry(name)
        block = block_antidiagonal(e.ops["V"], e.ops["N"])
        seq = sequence_for(Weight.direct_sum([e.weight_W, e.weight_Wt]))
        assert block.size == 6 and _same_verdict(seq.poly, block, seq.poly, 8).ok
        sites = list(coefficient_sites(block))
        for site in (sites[0], sites[len(sites) // 2], sites[-1]):
            assert not _same_verdict(seq.poly, bump_coefficient(block, site), seq.poly, 8).ok



def _fresh(d: DiffOp) -> DiffOp:
    # a copy that shares no kept integer form with d
    return DiffOp(d.size, [MatPoly(c.rows) for c in d.coeffs], d.den)


class TestKeptForms:
    """P_n and operators keep their integer forms; what reads them must give
    what freshly built copies give."""

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_warm_equals_fresh(self, data):
        op, seq = _member(data.draw(st.integers(0, len(_MEMBERS) - 1)))
        # copies of P_n that keep forms only from the uses below
        ps = [MatPoly(seq.poly(n).rows) for n in range(6)]
        fresh = lambda n: MatPoly(ps[n].rows)
        m = FracMat([[2, 1], [1, 1]]) if op.size == 2 else FracMat.identity(op.size) * 3
        non_monic = lambda n: ps[n].lmul_const(m)
        narrow = op + _degree_bounded_op(data, op.size) * data.draw(st.integers(0, 1))
        wide = narrow * data.draw(st.sampled_from([2**100, -(3**90)]))
        # x^(j+1) d^j raises the degree of P_n's image from n = j on
        j, r, c = (data.draw(st.integers(0, k)) for k in (op.order, op.size - 1, op.size - 1))
        bumped = bump_coefficient(op, (j, r, c, j + 1))
        assert wide.int_op().bits > narrow.int_op().bits + 64
        # P_n's derivatives to order 0, then to narrow's order at a narrow
        # width, at a wide one, then at the narrow one again
        for t in (DiffOp(op.size, narrow.coeffs[:1]), narrow, wide, narrow, bumped):
            for qs, fresh_qs in ((ps.__getitem__, fresh), (non_monic, lambda n: fresh(n).lmul_const(m))):
                warm, cold = relation(ps.__getitem__, t, qs, 5), relation(fresh, _fresh(t), fresh_qs, 5)
                assert warm == cold and repr(warm) == repr(cold)
            assert apply(ps[5], t) == apply(fresh(5), _fresh(t))
            assert compose(t, op) == compose(_fresh(t), _fresh(op))
            assert compose(op, t) == compose(_fresh(op), _fresh(t))
        rep = relation(ps.__getitem__, bumped, ps.__getitem__, 5)
        assert rep.fail_n == j and isinstance(rep.residual, MatPoly)

    def test_forms_built_once_per_p_n(self, monkeypatch):
        from mvop import diffop, weights

        e = catalog.entry("JAC2")
        monkeypatch.setattr(weights, "_SEQUENCE_CACHE", {})
        counts = dict.fromkeys(("int_entries", "int_derivatives"), 0)
        for name in counts:
            def counted(*args, real=getattr(diffop, name), name=name):
                counts[name] += 1
                return real(*args)

            monkeypatch.setattr(diffop, name, counted)
        # the build reads the integer forms of P_0..P_7 in its steps
        sequence_for(e.weight_Wt).poly(8)
        d = _fresh(e.ops["D1"])
        for _ in range(3):
            assert verify_in_DW(d, e.weight_Wt, 8).ok
            # P_0..P_8 once each, and the operator once
            assert counts == {"int_entries": 10, "int_derivatives": 9}

class TestIntertwinerVerify:
    def test_laguerre_ladder(self):
        t = DiffOp.scalar([Poly((-1,)), Poly((1,))])
        rep = intertwiner_verify(t, LAG, Laguerre(ALPHA + 1), 10)
        assert rep.ok and {c.entry(0, 0) for c in rep.eigs} == {F(-1)}

    def test_jacobi_ladder(self):
        a, b = F(1, 2), F(3, 4)
        t = DiffOp.scalar([Poly((b + 1,)), Poly((1, 1))])
        rep = intertwiner_verify(t, Jacobi(a, b + 1), Jacobi(a + 1, b), 10)
        assert rep.ok
        assert [c.entry(0, 0) for c in rep.eigs] == [n + b + 1 for n in range(11)]

    def test_identity(self):
        rep = intertwiner_verify(DiffOp.identity(1), LAG, LAG, 6)
        assert rep.ok and {c.entry(0, 0) for c in rep.eigs} == {F(1)}

    def test_rejects_non_intertwiner(self):
        rep = intertwiner_verify(DDX, LAG, Laguerre(ALPHA + 1), 6)
        assert not rep.ok

    def test_vanishing_scalar_eigenvalue_allowed(self):
        # composing the ladder with the classical operator makes lambda_0 = 0
        t = compose(DiffOp.scalar([Poly((-1,)), Poly((1,))]), Laguerre(ALPHA + 1).delta())
        rep = intertwiner_verify(t, LAG, Laguerre(ALPHA + 1), 8)
        lambdas = [c.entry(0, 0) for c in rep.eigs]
        assert rep.ok and lambdas[0] == 0 and lambdas[1] != 0


class TestIntertwinerSearch:
    def test_laguerre_single_step(self):
        basis = intertwiner_search(LAG, Laguerre(ALPHA + 1), 1, 0)
        assert basis.dim == 1
        assert basis.basis[0] == DiffOp.scalar([Poly((-1,)), Poly((1,))])

    def test_laguerre_double_step(self):
        basis = intertwiner_search(LAG, Laguerre(ALPHA + 2), 2, 0)
        assert basis.dim == 1
        want = op_power(DiffOp.scalar([Poly((-1,)), Poly((1,))]), 2)
        assert basis.basis[0] == want

    def test_jacobi_alpha_shift_empty(self):
        a, b = F(1, 2), F(3, 4)
        basis = intertwiner_search(Jacobi(a, b), Jacobi(a + 1, b), 4, 1)
        assert not basis.refused
        assert basis.dim == 0

    def test_hermite_distinct_shifts_refused(self):
        basis = intertwiner_search(HermiteShifted(F(0)), HermiteShifted(F(1)), 3, 0)
        assert basis.refused and basis.dim == 0
        assert module_generator(HermiteShifted(F(0)), HermiteShifted(F(1))).is_zero

    def test_generator_agreement_with_delta_multiples(self):
        # within order bound ord(T) + 2 the space is exactly T and T.delta
        cases = [
            (LAG, Laguerre(ALPHA + 1)),
            (Laguerre(ALPHA + 1), LAG),
            (Jacobi(F(1, 2), F(7, 4)), Jacobi(F(3, 2), F(3, 4))),
            (Jacobi(F(3, 2), F(3, 4)), Jacobi(F(1, 2), F(7, 4))),
        ]
        for w1, w2 in cases:
            t = module_generator(w1, w2)
            basis = intertwiner_search(w1, w2, t.order, 0)
            assert basis.dim == 1
            basis2 = intertwiner_search(w1, w2, t.order + 2, 0)
            assert basis2.dim == 2
            for el in basis2.basis:
                p = module_decompose(el, w1, w2)
                assert p.degree <= 1

    def test_two_step_generators(self):
        a, b = F(1, 2), F(3, 4)
        for k in (1, 2):
            t = module_generator(LAG, Laguerre(ALPHA + k))
            basis = intertwiner_search(LAG, Laguerre(ALPHA + k), k, 0)
            assert basis.dim == 1 and basis.basis[0] == t
            tj = module_generator(Jacobi(a, b + k), Jacobi(a + k, b))
            bj = intertwiner_search(Jacobi(a, b + k), Jacobi(a + k, b), k, 0)
            # the ladder product has leading coefficient (1+x)^k, already monic
            assert bj.dim == 1 and bj.basis[0] == tj

    def test_horizon_precondition(self):
        from mvop.exactalg import DomainError

        with pytest.raises(DomainError):
            intertwiner_search(LAG, Laguerre(ALPHA + 1), 2, 0, n_horizon=3)

    def test_slack_argument_ignored(self):
        # slack -5 used to drop d^1 - 1 from the ansatz and report that no
        # intertwiner of order 1 exists; the argument is now ignored
        basis = intertwiner_search(LAG, Laguerre(ALPHA + 1), 1, -5)
        assert basis.basis == (DiffOp.scalar([Poly((-1,)), Poly((1,))]),)
        # the matrix search takes its horizon by keyword, so a stale slack fails
        w1, w2 = LAG.scalar_weight(), Laguerre(ALPHA + 1).scalar_weight()
        with pytest.raises(TypeError):
            matrix_intertwiner_search(w1, w2, 1, 1)

    def test_matrix_search_horizon_precondition(self):
        # horizons 1, 2 and 3 used to return 1, 2 and 5 of the 7 operators
        # of order <= 3 carrying LAG3's W onto Wt
        from mvop.catalog import entry

        e = entry("LAG3")
        for h in range(6):
            with pytest.raises(DomainError, match=f"search horizon {h} below order \\+ 3 = 6"):
                matrix_intertwiner_search(e.weight_W, e.weight_Wt, 3, n_horizon=h)
        assert len(matrix_intertwiner_search(e.weight_W, e.weight_Wt, 3)) == 7


def _search_system_over_q(seq1, seq2, size, order_bound, degree_slack, horizon):
    """Oracle: the search system with deg F_j <= j + degree_slack and rows
    t <= n + degree_slack, assembled in Fractions one variable at a time,
    rows in (n, t, r, c) order with all-zero rows dropped; and the
    variables (j, i, r, c) in column order."""
    variables = [
        (j, i, r, c)
        for j in range(order_bound + 1)
        for i in range(j + degree_slack + 1)
        for r in range(size)
        for c in range(size)
    ]
    index = {v: k for k, v in enumerate(variables)}
    nvars = len(variables)
    rows = []
    for n in range(horizon + 1):
        p = seq1.poly(n)
        pt = seq2.poly(n)
        derivs = [p]
        for _ in range(order_bound):
            derivs.append(derivs[-1].derivative())

        def coeff_rows(t):
            # linear form of [x^t](P_n . T), entry (r, c), as a vector over vars
            out = [[None] * size for _ in range(size)]
            for r in range(size):
                for c in range(size):
                    vec = [F(0)] * nvars
                    for (j, i, e, cc), k in index.items():
                        if cc == c and t - i >= 0:
                            vec[k] = derivs[j].entry(r, e)[t - i]
                    out[r][c] = vec
            return out

        top = coeff_rows(n)  # C_n entries
        for t in range(n + degree_slack + 1):
            if t == n:
                continue
            cur = coeff_rows(t)
            for r in range(size):
                for c in range(size):
                    vec = list(cur[r][c])
                    # subtract (C_n Pt_n)_{rc} coefficient of x^t
                    for e in range(size):
                        q = pt.entry(e, c)[t]
                        if q:
                            for k, a in enumerate(top[r][e]):
                                if a:
                                    vec[k] -= q * a
                    if any(vec):
                        rows.append(vec)
    return rows, variables


def _primitive_ints(row):
    den = math.lcm(*(F(c).denominator for c in row))
    ints = [F(c).numerator * (den // F(c).denominator) for c in row]
    g = math.gcd(*ints)
    return [v // g for v in ints]


def _search_cases():
    from mvop.catalog import entry
    from test_catalog import ROBUSTNESS_PARAMS

    for k, params in enumerate(ROBUSTNESS_PARAMS["LAG3"]):
        e = entry("LAG3", params)
        W, Wt = e.weight_W, e.weight_Wt
        for label, args in (("fwd", (W, Wt, 2)), ("rev", (Wt, W, 2)), ("ctrl", (W, Wt, 3))):
            yield pytest.param(*args, id=f"LAG3-params{k}-{label}")
    for name in ("JAC2", "GEG2"):
        e = entry(name)
        yield pytest.param(e.weight_W, e.weight_Wt, 2, id=name)
    a = F(1, 2)
    for k, (w1, w2, order) in enumerate((
        (Laguerre(a), Laguerre(a + 1), 1),
        (Laguerre(a), Laguerre(a + 2), 2),
        (Jacobi(F(1, 2), F(3, 4)), Jacobi(F(3, 2), F(3, 4)), 4),
        (HermiteShifted(F(0)), HermiteShifted(F(1)), 3),
    )):
        yield pytest.param(w1.scalar_weight(), w2.scalar_weight(), order, id=f"scalar{k}")


class TestSearchSystemOracle:
    """The integer search system is the Fraction one, row for row, up to a
    positive scale per row; and a wider ansatz adds nothing to it."""

    @pytest.mark.parametrize("w1, w2, order", _search_cases())
    def test_rows_match_fraction_assembly(self, w1, w2, order):
        s1, s2 = sequence_for(w1), sequence_for(w2)
        horizon = order + 3
        rows, offsets = _search_system(s1, s2, w1.size, order, horizon)
        want, variables = _search_system_over_q(s1, s2, w1.size, order, 0, horizon)
        assert offsets[-1] == len(variables)
        assert all(type(c) is int for r in rows for c in r)
        assert [_primitive_ints(r) for r in rows] == [_primitive_ints(r) for r in want]

    @pytest.mark.parametrize("w1, w2, order", _search_cases())
    def test_slack_adds_nothing(self, w1, w2, order):
        # if P_n . T = C_n Pt_n for n <= order, then deg F_j <= j: every
        # solution of a slack-s system vanishes at x^i of F_j for i > j, so
        # its nullspace is the slack-0 one
        s1, s2 = sequence_for(w1), sequence_for(w2)
        dims = []
        for slack in (0, 1, 2):
            rows, variables = _search_system_over_q(s1, s2, w1.size, order, slack, order + 3)
            basis = nullspace(rows, len(variables))
            assert all(not c for v in basis for c, (j, i, _, _) in zip(v, variables) if i > j)
            dims.append(len(basis))
        assert dims[0] == dims[1] == dims[2]


class TestModuleGenerator:
    def test_laguerre_up_three(self):
        t = module_generator(LAG, Laguerre(ALPHA + 3))
        want = op_power(DiffOp.scalar([Poly((-1,)), Poly((1,))]), 3)
        assert t == want

    def test_jacobi_two_step(self):
        a, b = F(1, 2), F(3, 4)
        t = module_generator(Jacobi(a, b + 2), Jacobi(a + 2, b))
        v2 = DiffOp.scalar([Poly((b + 2,)), Poly((1, 1))])
        v1 = DiffOp.scalar([Poly((b + 1,)), Poly((1, 1))])
        assert t == compose(v2, v1)

    def test_equal_weights(self):
        assert module_generator(LAG, LAG) == DiffOp.identity(1)

    def test_generators_verify_as_intertwiners(self):
        a, b = F(1, 2), F(3, 4)
        cases = [
            (LAG, Laguerre(ALPHA + 2)),
            (Laguerre(ALPHA + 2), LAG),
            (Jacobi(a, b + 1), Jacobi(a + 1, b)),
            (Jacobi(a + 1, b), Jacobi(a, b + 1)),
        ]
        for w1, w2 in cases:
            t = module_generator(w1, w2)
            assert intertwiner_verify(t, w1, w2, 8).ok


class TestModuleDecompose:
    def test_round_trip_single(self):
        t = module_generator(LAG, Laguerre(ALPHA + 1))
        a = compose(t, Laguerre(ALPHA + 1).delta())
        p = module_decompose(a, LAG, Laguerre(ALPHA + 1))
        assert p == X

    def test_round_trip_quadratic(self):
        t = module_generator(LAG, Laguerre(ALPHA + 1))
        delta = Laguerre(ALPHA + 1).delta()
        a = compose(t, 2 * op_power(delta, 2) - 3 * DiffOp.identity(1))
        p = module_decompose(a, LAG, Laguerre(ALPHA + 1))
        assert p == 2 * X**2 - Poly.const(3)

    def test_bare_derivative_fails(self):
        with pytest.raises(DecompositionError):
            module_decompose(DDX, LAG, Laguerre(ALPHA + 1))

    def test_random_round_trips(self):
        rng = random.Random(7)
        a, b = F(1, 2), F(3, 4)
        pairs = [
            (LAG, Laguerre(ALPHA + 1)),
            (LAG, Laguerre(ALPHA + 2)),
            (Jacobi(a, b + 1), Jacobi(a + 1, b)),
            (Jacobi(a + 2, b), Jacobi(a, b + 2)),
        ]
        for w1, w2 in pairs:
            t = module_generator(w1, w2)
            delta = w2.delta()
            for _ in range(5):
                p = Poly([F(rng.randint(-5, 5)) for _ in range(rng.randint(1, 4))])
                got = module_decompose(compose(t, poly_of_op(p, delta)), w1, w2)
                assert got == p


class TestDarbouxVerify:
    def test_identity_certificate(self):
        w = LAG.scalar_weight()
        one = DiffOp.identity(1)
        cert = DarbouxCertificate(w, w, one, one, one, 6)
        assert darboux_verify(cert).ok

    def test_laguerre_step_certificate(self):
        v = DiffOp.scalar([Poly((-1,)), Poly((1,))])
        nn = DiffOp.scalar([Poly((ALPHA + 1,)), X])
        cert = DarbouxCertificate(
            LAG.scalar_weight(),
            Laguerre(ALPHA + 1).scalar_weight(),
            v,
            nn,
            compose(v, nn),
            8,
        )
        rep = darboux_verify(cert)
        assert rep.ok
        assert all(a.entry(0, 0) == -1 for a in cert.conjugators)

    def test_jacobi_transitivity_composite(self):
        # composing the one-step ladders (a, b+2) -> (a+1, b+1) -> (a+2, b)
        # yields a certificate for the two-step relation
        a, b = F(1, 2), F(3, 4)
        v1 = DiffOp.scalar([Poly((b + 2,)), Poly((1, 1))])
        n1 = DiffOp.scalar([Poly((a + 1,)), Poly((-1, 1))])
        v2 = DiffOp.scalar([Poly((b + 1,)), Poly((1, 1))])
        n2 = DiffOp.scalar([Poly((a + 2,)), Poly((-1, 1))])
        v = compose(v1, v2)
        nn = compose(n2, n1)
        cert = DarbouxCertificate(
            Jacobi(a, b + 2).scalar_weight(),
            Jacobi(a + 2, b).scalar_weight(),
            v,
            nn,
            compose(v, nn),
            8,
        )
        assert darboux_verify(cert).ok

    def test_perturbed_certificate_fails(self):
        v = DiffOp.scalar([Poly((-1,)), Poly((1,))])
        nn = DiffOp.scalar([Poly((ALPHA + 1,)), X])
        bad = compose(v, nn) + DiffOp.identity(1)
        cert = DarbouxCertificate(
            LAG.scalar_weight(), Laguerre(ALPHA + 1).scalar_weight(), v, nn, bad, 6
        )
        rep = darboux_verify(cert)
        assert not rep.ok
        assert any("factorization" in c.name for c in rep.failures())


    def test_mutant_conjugators_stop_at_first_failure(self):
        from mvop.catalog import entry

        e = entry("GEG2")
        # x^3 d^2 in cell (0, 0) leaves n = 0, 1 alone and raises the degree from n = 2
        v = e.ops["V"] + embed_scalar(DiffOp.scalar([Poly(), Poly(), X**3]), 2, 0, 0)
        cert = DarbouxCertificate(e.weight_W, e.weight_Wt, v, e.ops["N"], e.ops["D"], 6)
        rep = darboux_verify(cert)
        check4 = next(c for c in rep.checks if c.name.startswith("P_n . V = A_n Pt_n"))
        assert not check4.ok and "n=2" in check4.detail
        seq, seqt = sequence_for(e.weight_W), sequence_for(e.weight_Wt)
        expected = []
        for n in range(2):
            q = apply(seq.poly(n), v)
            assert q == seqt.poly(n).lmul_const(q.coeff(n))
            expected.append(q.coeff(n))
        assert cert.conjugators == expected


def _direct_darboux_checks(cert: DarbouxCertificate, rep) -> list[tuple]:
    """(name, ok, detail) of all seven checks, with checks 5-7 computed by
    their own scans, as darboux_verify ran them before it derived them."""
    w, wt, n_max, v, nn = cert.W, cert.Wt, cert.n_max, cert.V, cert.Nn
    mem = verify_in_DW(cert.D, w, n_max)
    seq, seqt = sequence_for(w), sequence_for(wt)
    if rep.checks[3].ok and mem.ok:
        rev = relation(seqt.poly, nn, seq.poly, n_max, cs=lambda n: cert.conjugators[n].inv() * mem.eigs[n])
    else:
        rev = Verdict(False, "skipped: prerequisites failed")
    implied = [
        ("N V in algebra of Wt", verify_in_DW(compose(nn, v), wt, n_max)),
        ("Pt_n . N = A_n^-1 Lambda_n(D) P_n", rev),
        ("antidiagonal block operator in algebra of W (+) Wt",
         verify_in_DW(block_antidiagonal(v, nn), Weight.direct_sum([w, wt]), n_max)),
    ]
    return [(c.name, c.ok, c.detail) for c in rep.checks[:4]] + [(k, r.ok, r.detail) for k, r in implied]


class TestDerivedDarboux:
    """Checks 5-7 are decided from checks 1, 2 and 4 when those pass; the
    report must equal the one their own scans give."""

    @pytest.mark.parametrize("n_max", [8, 16])
    @pytest.mark.parametrize("name", ["JAC2", "LAG3", "HER3"])
    def test_derived_report_equals_direct(self, name, n_max):
        from mvop import weights
        from mvop.catalog import entry
        from test_catalog import ROBUSTNESS_PARAMS

        for params in ROBUSTNESS_PARAMS[name]:
            e = entry(name, params)
            w, wt, ops = e.weight_W, e.weight_Wt, e.ops
            weights._SEQUENCE_CACHE.pop(Weight.direct_sum([w, wt]), None)
            calls = []

            def counted(*args, **kwargs):
                calls.append(args)
                return relation(*args, **kwargs)

            cert = DarbouxCertificate(w, wt, ops["V"], ops["N"], ops["D"], n_max)
            with mock.patch.object(dwalgebra, "relation", counted):
                rep = darboux_verify(cert)
            assert rep.ok and len(calls) == 2
            assert Weight.direct_sum([w, wt]) not in weights._SEQUENCE_CACHE
            assert [(c.name, c.ok, c.detail) for c in rep.checks] == _direct_darboux_checks(cert, rep)
            certs = []
            for k in ("D", "V", "N"):
                sites = list(coefficient_sites(ops[k]))
                bumped = {**ops, k: bump_coefficient(ops[k], sites[len(sites) // 2])}
                certs.append(DarbouxCertificate(w, wt, bumped["V"], bumped["N"], bumped["D"], n_max))
            # exactly one of checks 1, 2 and 4 fails
            one, outsider = DiffOp.identity(w.size), certs[0].D
            certs.append(DarbouxCertificate(w, wt, ops["V"], ops["N"], ops["D"] + ops["D"], n_max))
            certs.append(DarbouxCertificate(w, w, one, outsider, outsider, n_max))
            certs.append(DarbouxCertificate(w, wt, one, ops["D"], ops["D"], n_max))
            for cert in certs:
                rep = darboux_verify(cert)
                assert not rep.ok
                assert [(c.name, c.ok, c.detail) for c in rep.checks] == _direct_darboux_checks(cert, rep)
            assert [[c.ok for c in (r.checks[0], r.checks[1], r.checks[3])]
                    for r in map(darboux_verify, certs[3:])] == [[False, True, True], [True, False, True], [True, True, False]]

    def test_block_operator_built_only_when_check_7_scans(self, monkeypatch):
        from mvop.catalog import entry

        e = entry("JAC2")
        w, wt, ops = e.weight_W, e.weight_Wt, e.ops
        built = []

        def counted(v, nn):
            built.append((v, nn))
            return block_antidiagonal(v, nn)

        monkeypatch.setattr(dwalgebra, "block_antidiagonal", counted)
        assert darboux_verify(DarbouxCertificate(w, wt, ops["V"], ops["N"], ops["D"], 4)).ok
        assert built == []
        rep = darboux_verify(DarbouxCertificate(w, wt, ops["V"], ops["N"], ops["D"] + ops["D"], 4))
        assert not rep.ok and built == [(ops["V"], ops["N"])]

    def test_mixed_support_still_refused(self):
        one = DiffOp.identity(1)
        cert = DarbouxCertificate(Laguerre(F(1, 2)).scalar_weight(), HermiteShifted(0).scalar_weight(), one, one, one, 0)
        with pytest.raises(DomainError, match="direct sum blocks must share a support interval"):
            darboux_verify(cert)


class TestSandwichClosure:
    def test_catalog_certificates(self):
        # V A N stays in the algebra of the base for generators A of the
        # algebra of the transformed weight
        from mvop.catalog import entry

        cases = []
        jac2 = entry("JAC2")
        cases.append(
            (jac2.weight_W, jac2.ops["V"], jac2.ops["N"],
             [DiffOp.identity(2), jac2.ops["D1"], jac2.ops["D2"]])
        )
        lag3 = entry("LAG3")
        cases.append(
            (lag3.weight_W, lag3.ops["V"], lag3.ops["N"],
             [DiffOp.identity(3), lag3.ops["E"]])
        )
        her3 = entry("HER3")
        cases.append(
            (her3.weight_W, her3.ops["V"], her3.ops["N"],
             [DiffOp.identity(3), her3.ops["E"]])
        )
        geg2 = entry("GEG2")
        cases.append((geg2.weight_W, geg2.ops["V"], geg2.ops["N"], [DiffOp.identity(2)]))
        for w, v, nn, gens in cases:
            for a in gens:
                assert verify_in_DW(compose(v, compose(a, nn)), w, 8).ok


class TestReverseModuleAdjoint:
    def test_block_adjoint_is_reverse_intertwiner(self):
        a, b = F(1, 2), F(3, 4)
        pairs = [
            (LAG, Laguerre(ALPHA + 1)),
            (Jacobi(a, b + 1), Jacobi(a + 1, b)),
        ]
        for w1, w2 in pairs:
            t = module_generator(w1, w2)
            block = embed_scalar(t, 2, 0, 1)
            ws = Weight.of_scalars(w1, w2)
            dag = w_adjoint(block, ws)
            polys = dag.poly_coeffs()
            assert polys is not None
            rev = DiffOp.scalar([c.entry(1, 0) for c in polys])
            assert not rev.is_zero
            assert intertwiner_verify(rev, w2, w1, 8).ok


class TestScalarClassification:
    TABLE = [
        (Laguerre(F(1, 2)), Laguerre(F(7, 2)), True),
        (Laguerre(F(1, 2)), Laguerre(F(1, 2)), True),
        (Laguerre(F(1, 2)), Laguerre(F(1, 3)), False),
        (Laguerre(F(3)), Laguerre(F(0)), True),
        (Jacobi(F(1, 2), F(3, 2)), Jacobi(F(3, 2), F(1, 2)), True),
        (Jacobi(F(1, 2), F(3, 2)), Jacobi(F(3, 2), F(3, 2)), False),
        (Jacobi(F(0), F(0)), Jacobi(F(2), F(-1, 2)), False),
        (Jacobi(F(0), F(3)), Jacobi(F(2), F(1)), True),
        (Jacobi(F(1, 2), F(3, 2)), Jacobi(F(1), F(1)), False),
        (HermiteShifted(F(0)), HermiteShifted(F(0)), True),
        (HermiteShifted(F(1)), HermiteShifted(F(0)), False),
        (HermiteShifted(F(0)), Laguerre(F(1, 2)), False),
    ]

    @pytest.mark.parametrize("f1,f2,want", TABLE, ids=lambda v: str(v))
    def test_table(self, f1, f2, want):
        assert scalar_darboux_class(f1, f2) is want

    def test_symmetric_relation(self):
        for f1, f2, want in self.TABLE:
            assert scalar_darboux_class(f2, f1) is want


class TestDiagMatch:
    def test_jacobi_pairs_match(self):
        a, b = F(1, 2), F(3, 4)
        w = Weight.of_scalars(Jacobi(a + 1, b), Jacobi(a + 1, b + 1))
        wt = Weight.of_scalars(Jacobi(a, b + 1), Jacobi(a + 2, b))
        sigma = diag_darboux_match(w, wt)
        assert sigma is not None
        fams = [Jacobi(a + 1, b), Jacobi(a + 1, b + 1)]
        tfams = [Jacobi(a, b + 1), Jacobi(a + 2, b)]
        for j, i in enumerate(sigma):
            assert scalar_darboux_class(tfams[j], fams[i])

    def test_multiplicity_counterexample(self):
        w1, w2 = Laguerre(F(1, 2)), Laguerre(F(1, 4))
        w = Weight.of_scalars(w1, w1, w1, w2)
        wt = Weight.of_scalars(w1, w1, w2, w2)
        assert diag_darboux_match(w, wt) is None

    def test_identity_permutation(self):
        w = Weight.of_scalars(Laguerre(F(1, 2)), Laguerre(F(3, 2)))
        assert diag_darboux_match(w, w) == (0, 1)

    def test_length_mismatch(self):
        w = Weight.of_scalars(Laguerre(F(1, 2)), Laguerre(F(3, 2)))
        wt = Laguerre(F(1, 2)).scalar_weight()
        with pytest.raises(ShapeError):
            diag_darboux_match(w, wt)


class TestCommutativity:
    def test_jac2_diagonal_side(self):
        a, b = F(1, 2), F(3, 4)
        w = Weight.of_scalars(Jacobi(a + 1, b), Jacobi(a + 1, b + 1))
        assert commutativity_predicate(w)

    def test_laguerre_ladder_not_commutative(self):
        w = Weight.of_scalars(LAG, Laguerre(ALPHA + 1))
        assert not commutativity_predicate(w)

    def test_single_block(self):
        assert commutativity_predicate(LAG.scalar_weight())


class TestFullness:
    def test_trivial_idempotents_on_inequivalent_sum(self):
        w = Weight.of_scalars(Laguerre(F(1, 2)), Laguerre(F(1, 3)))
        d1 = DiffOp.const(FracMat([[1, 0], [0, 0]]))
        d2 = DiffOp.const(FracMat([[0, 0], [0, 1]]))
        gens = [d1, d2, DiffOp.identity(2)]
        assert fullness_check([d1, d2], gens).ok

    def test_identity_pair_fails_product(self):
        one = DiffOp.identity(2)
        rep = fullness_check([one, one], [one])
        assert not rep.ok

    def test_catalog_orthogonal_system(self):
        from mvop.catalog import entry

        e = entry("JAC2")
        gens = [DiffOp.identity(2), e.ops["D1"], e.ops["D2"]]
        assert fullness_check([e.ops["FD1"], e.ops["FD2"]], gens).ok

    @staticmethod
    def zero_divisor_line(ds):
        rep = fullness_check(ds, [])
        return next(c for c in rep.checks if c.name == "sum is not a zero divisor")

    def test_symbol_root_passes(self):
        # det S_n = n - 2 vanishes at n = 2 but is not the zero polynomial,
        # whatever horizon a caller has in mind
        line = self.zero_divisor_line([DiffOp.scalar([Poly((-2,)), X])])
        assert line.ok and "n = 2" in line.detail

    def test_symbol_identically_singular_fails(self):
        line = self.zero_divisor_line([DiffOp.const(FracMat([[1, 0], [0, 0]]))])
        assert not line.ok and "vanishes identically" in line.detail

    def test_coefficient_degree_above_power_fails(self):
        line = self.zero_divisor_line([DiffOp.scalar([X])])
        assert not line.ok and "exceeds" in line.detail
