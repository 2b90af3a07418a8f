"""Catalog entries: data fidelity, end-to-end verification, robustness."""

import itertools
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mvop import catalog
from mvop.exactalg import DomainError, FracMat, Poly, X, bareiss
from mvop.catalog import ENTRY_NAMES, _gram_orthogonal, check_entry, default_params, entry, entry_document_text, verify_entry
from mvop.cli import main, run
from mvop.diffop import DiffOp, MatPoly, Verdict, apply, bump_coefficient, coefficient_sites
from mvop.dsl import parse_spec
from mvop.weights import moment_ints, moment_rows, sequence_for
from test_weights import _inner_product_by_fracmat

DATA_DIR = Path(__file__).resolve().parents[1] / "src" / "mvop" / "data"

ROBUSTNESS_PARAMS = {
    "JAC2": [
        {},
        {"alpha": F(1), "beta": F(2), "kappa": F(1, 2)},
        {"alpha": F(3, 2), "beta": F(1, 2), "kappa": F(5, 4)},
    ],
    "LAG3": [
        {},
        {"alpha": F(3), "a1": F(1, 2), "a2": F(1, 3)},
        {"alpha": F(7, 5), "a1": F(2), "a2": F(1)},
    ],
    "GEG2": [
        {},
        {"r": F(4), "a": F(1)},
        {"r": F(5), "a": F(2)},
    ],
    "HER3": [
        {},
        {"a": F(1), "b": F(1, 2)},
        {"a": F(2), "b": F(1)},
    ],
    "LAG2DIAG": [
        {},
        {"alpha": F(1, 2)},
        {"alpha": F(3)},
    ],
}


class TestEntryData:
    def test_unknown_name(self):
        with pytest.raises(LookupError):
            entry("NOPE")

    def test_jac2_d1_constant_term(self):
        e = entry("JAC2")
        a, b, k = e.params["alpha"], e.params["beta"], e.params["kappa"]
        d1 = e.ops["D1"]
        assert d1.order == 2
        const = d1.coeff(0)
        assert const.entry(0, 0) == Poly((a + b - k + 2,))
        assert const.entry(1, 0) == Poly((a + 1 - k,))
        assert const.entry(0, 1).is_zero and const.entry(1, 1).is_zero

    def test_geg2_factor_display(self):
        e = entry("GEG2")
        r, a = e.params["r"], e.params["a"]
        v = e.ops["V"]
        assert v.coeff(1) == MatPoly([[Poly((-1,)), -X], [-X, Poly((-1,))]])
        assert v.coeff(0) == MatPoly([[Poly(), Poly((a - r,))], [Poly((-a,)), Poly()]])

    def test_lag3_conjugator_corner(self):
        e = entry("LAG3")
        a, a1 = e.params["alpha"], e.params["a1"]
        for n in range(5):
            an = e.expected["A_n"](n)
            assert an.entry(0, 1) == -a1 * (a + n + 2)

    def test_admissibility(self):
        with pytest.raises(DomainError):
            entry("JAC2", {"kappa": F(5)})  # kappa >= beta + 1
        with pytest.raises(DomainError):
            entry("JAC2", {"kappa": F(3, 2)})  # kappa = alpha + 1 degenerates
        with pytest.raises(DomainError):
            entry("GEG2", {"a": F(2)})  # a >= r/2
        with pytest.raises(DomainError):
            entry("LAG3", {"alpha": F(-2)})
        with pytest.raises(DomainError):
            entry("LAG2DIAG", {"alpha": F(0)})

    def test_stated_rule_checked_before_template(self):
        # kappa = 5 also makes the template's weight factor indefinite; the
        # refusal names the entry's rule, not a line of its template
        with pytest.raises(DomainError, match=r"JAC2 requires 0 < kappa < beta \+ 1") as exc:
            entry("JAC2", {"kappa": F(5)})
        assert "line" not in str(exc.value)

    def test_jac2_positivity_rule_named(self):
        # kappa >= alpha + 1 makes the weight factor indefinite at x = -1; the
        # stated rules used to miss it, so the refusal named a file line
        with pytest.raises(
            DomainError, match=r"JAC2 requires kappa < alpha \+ 1 \(weight positive definite\)"
        ) as exc:
            entry("JAC2", {"alpha": F(-1, 2), "beta": F(1, 2), "kappa": F(1)})
        assert "line" not in str(exc.value)

    def test_provenance_present(self):
        for name in ENTRY_NAMES:
            assert entry(name).provenance

    def test_default_params(self):
        assert default_params("JAC2") == {
            "alpha": F(1, 2),
            "beta": F(3, 4),
            "kappa": F(1, 4),
        }


class TestDataFiles:
    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_file_matches_generator(self, name):
        path = DATA_DIR / f"{name.lower()}.mvop"
        assert path.read_text() == entry_document_text(name)

    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_file_objects_match_entry(self, name):
        path = DATA_DIR / f"{name.lower()}.mvop"
        doc = parse_spec(path.read_text())
        e = entry(name)
        for opname, op in e.ops.items():
            assert doc.ops[opname] == op, opname
        assert doc.params == e.params
        assert e.weight_W in doc.weights.values()

    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_rendered_document_carries_params(self, name):
        # only the param lines change; the file's operator expressions,
        # LAG3's and HER3's D and JAC2's FD1 and FD2 among them, are
        # evaluated at these values
        p = ROBUSTNESS_PARAMS[name][1]
        text = entry_document_text(name, p)
        for k, v in p.items():
            assert f"param {k} = {v}" in text
        doc = parse_spec(text)
        assert doc.ops == entry(name, p).ops
        report = run(doc, n_max=4)
        assert report["ok"], [c["name"] for c in report["checks"] if c["status"] != "pass"]

    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_data_file_verifies_at_robustness_params(self, name, capsys):
        # the files used to store LAG3's and HER3's D in normal form at
        # their defaults, so `mvop verify` failed D = V N at other values
        # while `mvop entry` passed
        path = str(DATA_DIR / f"{name.lower()}.mvop")
        for p in ROBUSTNESS_PARAMS[name]:
            params = ["--params", ",".join(f"{k}={v}" for k, v in p.items())] if p else []
            assert main(["verify", path, "--nmax", "4"] + params) == 0, (p, capsys.readouterr().out)
            assert check_entry(entry(name, p), 4).ok

    def test_data_files_found_from_any_directory(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)
        assert entry("GEG2").params == {"r": F(3), "a": F(1)}
        assert entry_document_text("GEG2") == (DATA_DIR / "geg2.mvop").read_text()


# per entry, parameters its stated rules refuse, and parameters they admit
# whose document is refused (a 4096-bit value overflows a product or power)
_BIG = F(2**4096 - 1)
REFUSED_PARAMS = {
    "JAC2": [{"kappa": F(5)}, {"alpha": _BIG}],
    "LAG3": [{"alpha": F(-2)}, {"a1": _BIG}],
    "GEG2": [{"a": F(2)}, {"r": _BIG}],
    "HER3": [{"a": F(0)}, {"a": _BIG}],
    "LAG2DIAG": [{"alpha": F(0)}, {"alpha": _BIG}],
}


def _outcome(call, *args):
    try:
        call(*args)
    except (DomainError, ValueError) as exc:
        return type(exc), str(exc)
    return None


class TestRenderedDocument:
    """``entry_document_text`` renders from the data file's own statements:
    it refuses exactly what ``entry`` refuses, with the same message, and
    parses no verbatim reading."""

    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_refuses_what_entry_refuses(self, name):
        rule, admission = (_outcome(entry, name, p) for p in REFUSED_PARAMS[name])
        assert f"{name} requires" in rule[1] and f"inadmissible parameters for {name}: line" in admission[1]
        for p in ROBUSTNESS_PARAMS[name] + REFUSED_PARAMS[name]:
            assert _outcome(entry_document_text, name, p) == _outcome(entry, name, p), p

    @pytest.mark.parametrize("name", ["LAG3", "HER3"])
    def test_verbatim_readings_not_parsed(self, name, monkeypatch):
        import dataclasses

        spec = catalog._ENTRIES[name]
        monkeypatch.setitem(catalog._ENTRIES, name, dataclasses.replace(spec, printed="op N_printed = )\n"))
        with pytest.raises(DomainError, match="inadmissible parameters"):
            entry(name)
        assert entry_document_text(name) == (DATA_DIR / f"{name.lower()}.mvop").read_text()

    def test_exponent_parameters_refused(self):
        # Fraction reads '1e3'; a large exponent used to expand before refusal
        with pytest.raises(ValueError, match="exponent"):
            entry("GEG2", {"r": "1e3"})
        with pytest.raises(ValueError, match="exponent"):
            entry_document_text("GEG2", {"r": "1e30000000"})


class TestKeptPrograms:
    """``entry`` runs each entry's kept programs at every parameter point:
    the data file is read once, and what depends on no param is kept."""

    def test_data_file_lexed_once(self, monkeypatch):
        from mvop import dsl

        texts, lex = [], dsl._lex
        monkeypatch.setattr(dsl, "_lex", lambda text: texts.append(text) or lex(text))
        monkeypatch.setattr(catalog, "_PROGRAMS", {}, raising=False)
        a, b = entry("HER3", {"a": F(1), "b": F(2)}), entry("HER3", {"a": F(3), "b": F(1, 2)})
        assert len(texts) == len(set(texts)) == 2  # the param lines, then the rest
        assert a.doc.weights["h"] is b.doc.weights["h"] and a.weight_Wt != b.weight_Wt
        assert a.verbatim_ops["D"] != b.verbatim_ops["D"]

    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_runs_equal_one_pass(self, name):
        text = "".join(ln for ln in (DATA_DIR / f"{name.lower()}.mvop").read_text().splitlines(True)
                       if not ln.startswith("check ")) + catalog._ENTRIES[name].printed
        for params in ROBUSTNESS_PARAMS[name] * 2:
            e = entry(name, params)
            doc = parse_spec(text, params)
            assert {k.removesuffix("_printed"): doc.ops.pop(k) for k in list(doc.ops) if k.endswith("_printed")} == e.verbatim_ops
            assert doc == e.doc and doc.params == e.params


class TestVerification:
    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_default_parameters_pass(self, name):
        rep = verify_entry(name, None, 6)
        assert rep.ok, [c.name for c in rep.failures()]

    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_parameter_robustness(self, name):
        # every entry passes at three admissible tuples (smaller horizon)
        for params in ROBUSTNESS_PARAMS[name]:
            rep = verify_entry(name, params, 4)
            assert rep.ok, (params, [c.name for c in rep.failures()])

    @pytest.mark.parametrize("name", ENTRY_NAMES)
    def test_negative_horizon_refused(self, name):
        # JAC2 at n_max = -1 used to pass every check
        with pytest.raises(DomainError, match="horizon n_max = -1"):
            check_entry(entry(name), -1)

    def test_jac2_eigenvalue_families_commute(self):
        from mvop.dwalgebra import verify_in_DW

        e = entry("JAC2")
        r1 = verify_in_DW(e.ops["D1"], e.weight_Wt, 8)
        r2 = verify_in_DW(e.ops["D2"], e.weight_Wt, 8)
        assert r1.ok and r2.ok
        for l1, l2 in zip(r1.eigs, r2.eigs):
            assert l1 * l2 == l2 * l1

    def test_large_constant_term_span_refused(self):
        # seven operators with zero constant term: the span is refused before
        # any lattice point is tried, since the exact test is bounded to
        # dimension 6 and sampling instead would only be evidence
        from mvop.catalog import _const_term_singular_on_span

        with pytest.raises(DomainError, match="dimension 7"):
            _const_term_singular_on_span([DiffOp.ddx(1)] * 7, 1)

    def test_lag3_printed_readings_reported(self):
        rep = verify_entry("LAG3", None, 4)
        line = next(c for c in rep.checks if "printed readings" in c.name)
        assert line.ok and "disagree" in line.detail

    def test_lag3_positive_control_checks_containment(self, monkeypatch):
        # a nonempty order-3 space without V fails the control: here the
        # order-2 space, whose operators are all of lower order than V
        real = catalog.matrix_intertwiner_search
        monkeypatch.setattr(catalog, "matrix_intertwiner_search", lambda w1, w2, k: real(w1, w2, min(k, 2)))
        rep = verify_entry("LAG3", None, 4)
        line = next(c for c in rep.checks if c.name == "positive control: order-3 space contains V")
        assert not line.ok and line.detail == "order-3 search dimension 3"

    def test_her3_printed_readings_reported(self):
        rep = verify_entry("HER3", None, 4)
        line = next(c for c in rep.checks if "printed readings" in c.name)
        assert line.ok and "sign" in line.detail


def _gram_orthogonal_pairwise(polys, weight, bound):
    """Oracle: every Gram block <Q_n, Q_m>, m <= n, formed from the integrand
    P W Q^T and tested."""
    for n in range(bound + 1):
        gn = _inner_product_by_fracmat(polys[n], polys[n], weight)
        if gn.det() == 0:
            return Verdict(False, f"Gram block at n={n} is singular", n, gn)
        for m in range(n):
            g = _inner_product_by_fracmat(polys[n], polys[m], weight)
            if not g.is_zero:
                return Verdict(False, f"nonzero Gram block at (n, m) = ({n}, {m})", n, g)
    return Verdict(True)


class TestGramOracle:
    """_gram_orthogonal decides from moment rows; its Verdict must equal the
    pairwise check's, field for field."""

    def assert_same(self, qs, weight, bound):
        got, want = _gram_orthogonal(qs, weight, bound), _gram_orthogonal_pairwise(qs, weight, bound)
        assert got == want and repr(got) == repr(want)
        return got

    @staticmethod
    def jac2_images(n_max=6, op=None):
        e = entry("JAC2")
        seq = sequence_for(e.weight_W)
        return [apply(seq.poly(n), op or e.ops["V"]) for n in range(n_max + 1)], e.weight_Wt

    @staticmethod
    def count_moment_rows(monkeypatch):
        counted = []
        monkeypatch.setattr(catalog, "moment_rows", lambda *a: counted.append(a) or moment_rows(*a))
        return counted

    @pytest.mark.parametrize("name", [n for n in ENTRY_NAMES if n != "LAG2DIAG"])
    def test_every_catalog_call(self, name, monkeypatch):
        # a passing check takes one product of integer moment rows per n,
        # and no Fraction rows
        counted = self.count_moment_rows(monkeypatch)
        ints = []
        monkeypatch.setattr(catalog, "moment_ints", lambda *a: ints.append(a) or moment_ints(*a))
        seen = []

        def checked(qs, weight, bound):
            del counted[:], ints[:]
            got = self.assert_same(qs, weight, bound)
            assert counted == [] and [a[0] for a in ints] == qs[: bound + 1]
            seen.append(got.ok)
            return got

        monkeypatch.setattr(catalog, "_gram_orthogonal", checked)
        for params in ROBUSTNESS_PARAMS[name]:
            assert verify_entry(name, params).ok
        assert seen and all(seen)

    def test_bumped_operator(self):
        e = entry("JAC2")
        for site in coefficient_sites(e.ops["V"]):
            qs, w = self.jac2_images(op=bump_coefficient(e.ops["V"], site))
            got = self.assert_same(qs, w, 6)
            assert not got.ok and got.detail.startswith("nonzero Gram block"), site

    def test_neighbour_added(self):
        # Q_3 + Q_2 is orthogonal to x^k for k < 2 but not to Q_2: only the
        # moment row k = n - 1 shows it
        qs, w = self.jac2_images()
        qs[3] = qs[3] + qs[2]
        got = self.assert_same(qs, w, 6)
        assert not got.ok and got.detail == "nonzero Gram block at (n, m) = (3, 2)"

    def test_singular_constant_multiple(self):
        qs, w = self.jac2_images()
        qs[4] = qs[4].lmul_const(FracMat([[1, 2], [2, 4]]))
        got = self.assert_same(qs, w, 6)
        assert not got.ok and got.detail == "Gram block at n=4 is singular"

    def test_degree_above_n(self, monkeypatch):
        # rows of Q_n reach the largest degree among Q_0..Q_n, here 3 from n = 2
        counted = self.count_moment_rows(monkeypatch)
        qs, w = self.jac2_images()
        qs[2] = qs[2] + MatPoly.scalar(X**3, 2)
        got = self.assert_same(qs, w, 6)
        assert not got.ok and [a[2] for a in counted] == [0, 1, 3][: got.fail_n + 1]


def _singular_on_grid(consts, size):
    """Oracle: det(sum u_i C_i) by ``FracMat.det`` at every point of the
    full grid {0..size}^dim."""
    for point in itertools.product(range(size + 1), repeat=len(consts)):
        acc = FracMat.zeros(size)
        for u, c in zip(point, consts):
            if u:
                acc = acc + c * F(u)
        if acc.det() != 0:
            return False
    return True


@st.composite
def constant_spans(draw):
    """(C_1..C_dim, size), dim 1-4, size 1-3: random constant terms, or
    spans singular by construction (a common kernel vector, or fewer
    rank-one terms than size), or unit diagonals, whose determinant
    vanishes on the lattice one level below size but not identically."""
    size, dim = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    entries = st.fractions(-2, 2, max_denominator=3)
    square = st.lists(st.lists(entries, min_size=size, max_size=size), min_size=size, max_size=size).map(FracMat)
    kind = draw(st.sampled_from(["random", "common-kernel", "rank-one", "unit-diagonal"]))
    if kind == "unit-diagonal":
        return [FracMat.diag(*(int(j == i % size) for j in range(size))) for i in range(dim)], size
    consts = [draw(square) for _ in range(dim)]
    if kind == "common-kernel":
        # every C_i kills the first column's direction
        consts = [FracMat([[0, *row[1:]] for row in c.rows]) for c in consts]
    elif kind == "rank-one":
        consts = [FracMat([[a * b for b in c.rows[1 % size]] for a in c.rows[0]]) for c in consts]
    return consts, size


class TestConstTermLattice:
    """LAG3's bounded no-smaller-factorization check tests det(sum u_i C_i)
    on the simplex lattice sum u = size instead of the full grid; both must
    decide the same."""

    @given(constant_spans())
    # det(u1 E11 + u2 E22) = u1 u2 vanishes at (1, 0) and (0, 1) only
    @example(([FracMat([[1, 0], [0, 0]]), FracMat([[0, 0], [0, 1]])], 2))
    @settings(max_examples=300, deadline=None)
    def test_lattice_matches_full_grid(self, case):
        consts, size = case
        basis = [DiffOp(size, [MatPoly([[Poly((v,)) for v in row] for row in c.rows])]) for c in consts]
        assert catalog._const_term_singular_on_span(basis, size) == _singular_on_grid(consts, size)

    def test_lag3_spans_take_ten_points(self, monkeypatch):
        # the lattice's calls only: the Gram check eliminates with bareiss too
        calls = []
        lattice = catalog._const_term_singular_on_span.__code__

        def counted(rows):
            if sys._getframe(1).f_code is lattice:
                calls.append(rows)
            return bareiss(rows)

        monkeypatch.setattr(catalog, "bareiss", counted)
        report = verify_entry("LAG3", None, 2)
        line = next(c for c in report.checks if c.name.startswith("no certificate factor"))
        assert line.ok and "forward dim 3, reverse dim 3" in line.detail
        # C(3 + 3 - 1, 2) = 10 lattice points per 3-dimensional span
        assert len(calls) == 20
