"""Exactness gate: a faster path must return bit-identical results.

The first sha256 pins two outputs at default parameters: the monic orthogonal
polynomials P_0..P_16 and the recursion pairs (B_n, C_n), n = 0..15, of both
certificate weights of every catalog entry, and every ``verify_entry`` check
(name, ok, detail) at n_max = 8. The digest was recorded by running this file
on commit 3e7294a, before polynomial products moved to the integer kernel.

The second sha256 pins the operator algebra: ``op_str`` of every entry's
operators and verbatim readings at each ``ROBUSTNESS_PARAMS`` set, and the
checks (name, ok, detail) and conjugators A_0..A_16 of ``darboux_verify`` at
n_max = 16 and default parameters for JAC2, LAG3 and HER3. It was recorded by
running this file on commit 7f6ada3, before composition and the right action
moved onto one integer kernel.

The third sha256 pins the exact searches: ``op_str`` of every basis operator
of LAG3's three ``matrix_intertwiner_search`` calls at each
``ROBUSTNESS_PARAMS`` set, and of the acceptance gate's four
``intertwiner_search`` pairs. It was recorded by running this file on commit
9bf7937, before ``nullspace`` moved onto fraction-free integer elimination.
Two of LAG3's calls then searched with degree slack 1; the search has no
slack now, and its ansatz holds every operator that one did, so they return
the same bases. The scalar pairs still pass, and print, their old slack
argument, which ``intertwiner_search`` ignores.

The fourth sha256 pins ``relation``: the ``repr`` of every Verdict it returns
inside ``darboux_verify`` (memberships with their Lambda_n, the forward and
reverse conjugations, the block operator on W (+) Wt) and inside
``matrix_intertwiner_verify`` for V and N, at n_max = 16 and default
parameters for JAC2, LAG3 and HER3. The failing-n path is pinned by
(fail_n, detail, residual) of three ``bump_coefficient`` mutants per entry:
D in ``verify_in_DW``, V in ``matrix_intertwiner_verify`` and N in a whole
``darboux_verify``, whose reverse relation runs with stated constants. It was
recorded by running this file on commit 554ad6d, before ``relation``'s cells
moved onto one packed integer matrix product. Since ``darboux_verify`` decides
its last three checks from the first, second and fourth when those pass, it
calls ``relation`` twice on a sound certificate; the test then runs the three
relations those checks stood for (N V on Wt, the reverse conjugation, the
block operator on W (+) Wt) itself, in their old order, so the digest is the
one recorded on 554ad6d.

The fifth sha256 pins adjoints and symbols, at default parameters and at each
``ROBUSTNESS_PARAMS`` set: the ``repr`` of every ``symmetry_check`` and
``degree_preserving`` Verdict that ``check_entry`` makes, ``degree_preserving``
of every operator of the entry (verbatim readings included), the W-adjoint of
each of those operators against every weight of its entry of the same size,
and, so that rational coefficients print as before, the adjoints of
``DiffOp.ddx(2)`` and of every 2x2 operator against the rational-inverse
weight Laguerre(0) * [1+x, x; x, 1+x^2]. It was recorded by running this file
on commit 6244517, while operators still stored ``MatRF`` coefficients.
"""

import hashlib
from unittest import mock
from fractions import Fraction as F

from mvop.catalog import ENTRY_NAMES, check_entry, entry, verify_entry
from mvop import catalog, dwalgebra
from mvop.diffop import (
    DiffOp,
    MatPoly,
    block_antidiagonal,
    bump_coefficient,
    coefficient_sites,
    compose,
    degree_preserving,
    w_adjoint,
)
from mvop.exactalg import X
from mvop.dsl import op_str
from mvop.dwalgebra import (
    DarbouxCertificate,
    darboux_verify,
    intertwiner_search,
    matrix_intertwiner_search,
    matrix_intertwiner_verify,
    verify_in_DW,
)
from mvop.weights import HermiteShifted, Jacobi, Laguerre, Weight, sequence_for
from test_catalog import ROBUSTNESS_PARAMS

DIGEST = "22f7c226ee2f2940fceba777755f847ed45def935b4c7d4cbff4faff952b25de"
OPERATOR_DIGEST = "9bfcfb56e955e5de8d4b56cac8a69e705c9bac0273a71a82eee2474ed4215d3e"
SEARCH_DIGEST = "12a97444b698b6f2f31d7abbcc6da141de1a3db6644af2690866cd710b3041c4"
RELATION_DIGEST = "7990d526a56fe5abe051e76b69cd034266df769f29e5062530bbd2d3a95497ef"
ADJOINT_DIGEST = "ea2dba74817ec4a7262c76d56f4faec3d173889d8dbdbe7e55d30f5d1c0d561c"


def _outputs():
    for name in ENTRY_NAMES:
        e = entry(name)
        for w in (e.weight_W, e.weight_Wt):
            if w is not None:
                seq = sequence_for(w)
                yield from (repr(seq.poly(n)) for n in range(17))
                yield from (repr(m) for n in range(16) for m in seq.recursion_pair(n))
        for c in verify_entry(name, None, 8).checks:
            yield repr((name, c.name, c.ok, c.detail))


def test_outputs_bit_identical_to_recorded_digest():
    assert hashlib.sha256("\n".join(_outputs()).encode()).hexdigest() == DIGEST


def _operator_outputs():
    for name in ENTRY_NAMES:
        for params in ROBUSTNESS_PARAMS[name]:
            e = entry(name, params)
            for ops in (e.ops, e.verbatim_ops):
                yield from (f"{name} {params} {k} = {op_str(d)}" for k, d in ops.items())
    for name in ("JAC2", "LAG3", "HER3"):
        e = entry(name)
        cert = DarbouxCertificate(e.weight_W, e.weight_Wt, e.ops["V"], e.ops["N"], e.ops["D"], 16)
        for c in darboux_verify(cert).checks:
            yield repr((name, c.name, c.ok, c.detail))
        yield from (repr(a) for a in cert.conjugators)


def test_operator_outputs_bit_identical_to_recorded_digest():
    assert hashlib.sha256("\n".join(_operator_outputs()).encode()).hexdigest() == OPERATOR_DIGEST


def _search_outputs():
    for params in ROBUSTNESS_PARAMS["LAG3"]:
        e = entry("LAG3", params)
        W, Wt = e.weight_W, e.weight_Wt
        for label, args in (("fwd", (W, Wt, 2)), ("rev", (Wt, W, 2)), ("ctrl", (W, Wt, 3))):
            yield from (f"LAG3 {params} {label} = {op_str(v)}" for v in matrix_intertwiner_search(*args))
    a = F(1, 2)
    pairs = (
        (Laguerre(a), Laguerre(a + 1), 1, 0),
        (Laguerre(a), Laguerre(a + 2), 2, 0),
        (Jacobi(F(1, 2), F(3, 4)), Jacobi(F(3, 2), F(3, 4)), 4, 1),
        (HermiteShifted(F(0)), HermiteShifted(F(1)), 3, 0),
    )
    for w1, w2, order, slack in pairs:
        b = intertwiner_search(w1, w2, order, slack)
        yield f"{w1} {w2} {order} {slack} refused={b.refused} dim={b.dim}"
        yield from (op_str(t) for t in b.basis)


def test_search_outputs_bit_identical_to_recorded_digest():
    assert hashlib.sha256("\n".join(_search_outputs()).encode()).hexdigest() == SEARCH_DIGEST


def _relation_outputs():
    verdicts = []

    def recorded(*args, **kwargs):
        verdicts.append(relation(*args, **kwargs))
        return verdicts[-1]

    relation = dwalgebra.relation
    with mock.patch.object(dwalgebra, "relation", recorded):
        for name in ("JAC2", "LAG3", "HER3"):
            e = entry(name)
            W, Wt, ops = e.weight_W, e.weight_Wt, e.ops
            verdicts.clear()
            cert = DarbouxCertificate(W, Wt, ops["V"], ops["N"], ops["D"], 16)
            darboux_verify(cert)
            # checks 5-7 follow from checks 1, 2 and 4 and scan nothing, so the
            # three relations they stood for run here, in their old order
            assert len(verdicts) == 2
            seq, seqt, mem = sequence_for(W), sequence_for(Wt), verdicts[0]
            verify_in_DW(compose(ops["N"], ops["V"]), Wt, 16)
            dwalgebra.relation(seqt.poly, ops["N"], seq.poly, 16,
                               cs=lambda n: cert.conjugators[n].inv() * mem.eigs[n])
            verify_in_DW(block_antidiagonal(ops["V"], ops["N"]), Weight.direct_sum([W, Wt]), 16)
            matrix_intertwiner_verify(ops["V"], W, Wt, 16)
            matrix_intertwiner_verify(ops["N"], Wt, W, 16)
            yield from (f"{name} {v!r}" for v in verdicts)
            mutants = {k: bump_coefficient(ops[k], site(list(coefficient_sites(ops[k]))))
                       for k, site in (("D", lambda s: s[len(s) // 2]), ("V", lambda s: s[len(s) // 2]),
                                       ("N", lambda s: s[-1]))}
            verdicts.clear()
            verify_in_DW(mutants["D"], W, 16)
            matrix_intertwiner_verify(mutants["V"], W, Wt, 16)
            darboux_verify(DarbouxCertificate(W, Wt, ops["V"], mutants["N"], ops["D"], 16))
            assert sum(not v.ok for v in verdicts) >= 3
            yield from (f"{name} mutant {v.ok} {v.fail_n} {v.detail} {v.residual!r}" for v in verdicts)


def test_relation_verdicts_bit_identical_to_recorded_digest():
    assert hashlib.sha256("\n".join(_relation_outputs()).encode()).hexdigest() == RELATION_DIGEST


def _adjoint_outputs():
    verdicts = []

    def recorded(fn):
        def call(*args, **kwargs):
            verdicts.append(fn(*args, **kwargs))
            return verdicts[-1]

        return call

    rational = Weight.atomic(Laguerre(0), MatPoly([[1 + X, X], [X, 1 + X**2]]))
    yield f"ddx(2) {w_adjoint(DiffOp.ddx(2), rational)!r}"
    for name in ENTRY_NAMES:
        for params in ROBUSTNESS_PARAMS[name]:
            e = entry(name, params)
            verdicts.clear()
            with mock.patch.object(catalog, "symmetry_check", recorded(dwalgebra.symmetry_check)), \
                    mock.patch.object(dwalgebra, "degree_preserving", recorded(dwalgebra.degree_preserving)):
                check_entry(e, 8)
            yield from (f"{name} {params} check {v!r}" for v in verdicts)
            for k, d in {**e.ops, **{k + "_printed": v for k, v in e.verbatim_ops.items()}}.items():
                yield f"{name} {params} {k} {degree_preserving(d)!r}"
                for wname, w in e.doc.weights.items():
                    if w.size == d.size:
                        yield f"{name} {params} {k}* on {wname} = {w_adjoint(d, w)!r}"
                if d.size == 2:
                    yield f"{name} {params} {k}* on rational = {w_adjoint(d, rational)!r}"


def test_adjoints_and_symbols_bit_identical_to_recorded_digest():
    assert hashlib.sha256("\n".join(_adjoint_outputs()).encode()).hexdigest() == ADJOINT_DIGEST
