"""Explicit weights and operators from the worked examples, as data, plus
end-to-end verification of every stated identity.

Each entry's only text is its DSL document under data/, read with the
package: its weights, its operators and its structural checks. Operators that
the sources write as polynomials in the classical second-order operators (the
D of LAG3 and HER3, JAC2's FD1 and FD2) are written so in the file, as DSL
operator expressions, and hold at any admissible parameters. Python keeps only
the stated parameter rules, the closed forms the checks compare against, the
verbatim readings and the provenance. Where a printed source token is visibly
corrupt the entry keeps both readings: the emended operator is primary and the
verbatim one is re-checked and reported, so source typos and engine bugs stay
distinguishable. A Gram check reads every block <Q_n, Q_m> off Q_n's moment
rows (``weights.moment_ints``), one product per image.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field
from fractions import Fraction
from importlib import resources
from typing import Callable

from .exactalg import DomainError, FracMat, Poly, X, bareiss, frac, int_matrix, nullspace
from .diffop import DiffOp, MatPoly, Verdict, apply, compare_operators, compose, diff_cells
from .weights import Laguerre, Weight, contract_rows, moment_ints, moment_rows, sequence_for
from .dwalgebra import (
    DarbouxCertificate,
    Report,
    check_horizon,
    commutativity_predicate,
    darboux_verify,
    fullness_check,
    matrix_intertwiner_search,
    matrix_intertwiner_verify,
    relation,
    symmetry_check,
    verify_in_DW,
)
from .dsl import ParseError, Program, SpecDocument, compile_spec


@dataclass
class CatalogEntry:
    name: str
    params: dict[str, Fraction]
    doc: SpecDocument
    weight_W: Weight
    weight_Wt: Weight | None
    ops: dict[str, DiffOp]
    expected: dict
    provenance: str
    verbatim_ops: dict[str, DiffOp] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# JAC2: irreducible 2x2 Jacobi-type weight from the spherical-pair family,
# Darboux-related to w_{a+1,b} (+) w_{a+1,b+1}

def _jac2_expected(p: dict) -> dict:
    a, b, k = p["alpha"], p["beta"], p["kappa"]
    # N V = c1 D1 + c2 D2 + c0 I
    return {"combo": (-(a + 1 - k), a - 3 * k + 1, (k + 1) * (a + 1 - k) * (a + b - k + 2))}


# ---------------------------------------------------------------------------
# LAG3: 3x3 Laguerre-type weight reached through a sixth-order factorization

# The printed source of N carries three corrupt cells, all in its third
# column: the d^2 cell (3,3) has a broken exponent token (a2 2 for a2^2), the
# d^1 cell (1,3) lost a factor of x (present in the parallel (3,3) cell), and
# the d^0 cell (3,3) lost the trailing +1 that makes the reverse relation
# close. The printed D matrix likewise lost the trailing +1 of its (3,3)
# entry, which its (1,1) and (2,2) entries do carry, and the expanded middle
# entry of the printed A_n lost a factor 2 on its n(n-1) term (the closed
# forms of the images pin the true value a2^2 n(n+alpha)(n+alpha+1) + a1^2 n
# + 1). The entry's primary reading is the emended one; the literal reading
# is re-checked and reported, never silently dropped.
_LAG3_PRINTED = """\
op N_printed = d^3*[0, 0, a1*a2*x^3; 0, 0, a2*x^2; 0, a2*x, a2^2*x^3] + d^2*[0, 0, a1*a2*x^2*(2*alpha+7); 0, 0, 2*a2*x*(alpha+2); 0, a2*(alpha-3*x+2), 2*a2*x^2*(2*alpha+7)] + d^1*[a1^2*x, a1*x, a1*a2*(alpha+5)*(alpha+2); a1, 0, a2*(alpha+2)*(alpha+1); a1*a2*x, -a2*(2*alpha-3*x+4), a2^2*x*(alpha+5)*(alpha+2)] + [a1^2+1, a1*(alpha+2), a1*a2*(alpha+2)*(alpha+1); 0, 1, 0; a1*a2, a2*(alpha+2), a2^2*(alpha+2)*(alpha+1)]
op D_printed = (a1^2+1 - a1^2*delta(w1))*[1, 0, 0; 0, 0, 0; 0, 0, 0] + (1 - a1^2*delta(w2) - a2^2*delta(w2)*(alpha+1 - delta(w2))*(alpha - delta(w2)))*[0, 0, 0; 0, 1, 0; 0, 0, 0] + a2^2*(1 - delta(w3))*(alpha+2 - delta(w3))*(alpha+1 - delta(w3))*[0, 0, 0; 0, 0, 0; 0, 0, 1] + a1*a2*(alpha+2 + d^1*x)*(alpha+1 + d^1*x)*(1 - delta(w3))*[0, 0, 1; 0, 0, 0; 0, 0, 0] + a1*a2*(d^1 - 1)^2*(1 - delta(w1))*[0, 0, 0; 0, 0, 0; 1, 0, 0]
"""


def _lag3_expected(p: dict) -> dict:
    a, a1, a2 = p["alpha"], p["a1"], p["a2"]

    def a_n(n: int) -> FracMat:
        # middle entry in the form the closed-form images pin down; the
        # printed expansion lost a factor 2 on its n(n-1) term
        mid = a2**2 * n * (n + a) * (n + a + 1) + a1**2 * n + 1
        return FracMat(
            [[1, -a1 * (a + n + 2), 0], [0, mid, 0], [0, -a2 * (a + 2 + 3 * n), 1]]
        )

    def a_n_printed(n: int) -> FracMat:
        mid = (
            n * (n - 1) * (n - 2) * a2**2
            + n * (n - 1) * a2**2 * (a + 2)
            + n * (a2**2 * (a + 2) * (a + 1) + a1**2)
            + 1
        )
        return FracMat(
            [[1, -a1 * (a + n + 2), 0], [0, mid, 0], [0, -a2 * (a + 2 + 3 * n), 1]]
        )

    seqs = []  # the Laguerre sequences of alpha, alpha + 1, alpha + 2, built on first use

    def q_n(n: int) -> MatPoly:
        if not seqs:
            seqs.extend(sequence_for(Laguerre(a + i).scalar_weight()) for i in range(3))
        l0, l1, l2 = (lambda m, s=s: s.poly(m).entry(0, 0) for s in seqs)
        c = (n + a + 1) * (n + a) * n
        return MatPoly(
            [
                [l2(n), a1 * (l1(n + 1) - X * l2(n)), Poly()],
                [
                    -a1 * n * l2(n - 1),
                    a1**2 * n * X * l2(n - 1) + l1(n) + a2**2 * c * X * l0(n - 1),
                    -a2 * c * l0(n - 1),
                ],
                [Poly(), a2 * (l1(n + 1) - X * l0(n)), l0(n)],
            ]
        )

    return {"A_n": a_n, "A_n_printed": a_n_printed, "Q_n": q_n}


# ---------------------------------------------------------------------------
# HER3: 3x3 Hermite-type weight with an eighth-order factorization

# Two printed sign typos, both single tokens: the (2,2) entry of the cubic
# matrix coefficient of D is printed +4(...) where the factorization forces
# -4(...), and the (1,1) constant of E is printed +4 where membership in the
# algebra forces -4. Primary reading is emended; the literal one is re-run
# and reported.
_HER3_PRINTED = """\
op D_printed = delta(h)^4 + delta(h)^3*[2*(3*a^2*b^2+8*a^2-8*b^2)/(a^2*b^2), 0, -16/(a*b); 0, 4*(a^2*b^2+4*a^2+4*b^2)/(a^2*b^2), 0; -16/(a*b), 0, -2*(3*a^2*b^2+8*a^2+32)/(a^2*b^2)] + delta(h)^2*C2 + delta(h)*C1 + C0
op E_printed = d^2*[1, 0, 0; 0, 1, 0; 0, 0, 1] + d^1*[-2*x, 2*a, 0; 0, -2*x, 2*b; 0, 0, -2*x] + [4, 0, a*b; 0, -2, 0; 0, 0, 0]
"""


# ---------------------------------------------------------------------------
# LAG2DIAG: generators of the algebra of w_{alpha-1} (+) w_alpha

def _lag2diag_expected(p: dict) -> dict:
    a = p["alpha"]
    # expected eigenvalue matrices, as functions of n
    eigs = {
        "G1": lambda n: FracMat([[1, 0], [0, 0]]),
        "G2": lambda n: FracMat([[0, 0], [0, 1]]),
        "G3": lambda n: FracMat([[-n, 0], [0, 0]]),
        "G4": lambda n: FracMat([[0, 0], [0, -n]]),
        "G5": lambda n: FracMat([[0, -1], [0, 0]]),
        "G6": lambda n: FracMat([[0, 0], [n + a, 0]]),
    }
    return {"eigs": eigs}


def _data_text(name: str) -> str:
    return resources.files(__package__).joinpath("data", f"{name.lower()}.mvop").read_text(encoding="utf-8")


# by (entry spec, part), the program of its param lines ("head"), of its data
# file without checks ("body") or of that and its verbatim readings
# ("printed"): compiled once, run at every parameter point
_PROGRAMS: dict[tuple["_EntrySpec", str], Program] = {}


def _program(name: str, part: str) -> Program:
    spec = _ENTRIES[name]
    if (prog := _PROGRAMS.get((spec, part))) is None:
        lines = _data_text(name).splitlines(True)
        head = "".join(ln for ln in lines if ln.startswith("param "))
        # the file's checks are structural and not part of the entry; the
        # verbatim readings follow, after the file's names
        body = "".join(ln for ln in lines if not ln.startswith("check "))
        prog = _PROGRAMS[spec, part] = compile_spec({"head": head, "body": body, "printed": body + spec.printed}[part])
    return prog


def _document(name: str, params: dict | None, printed: bool) -> SpecDocument:
    """The entry's data file without its checks, then its verbatim readings
    when ``printed``, at default or overridden parameters after the stated
    rules admit them."""
    if name not in _ENTRIES:
        raise LookupError(f"unknown catalog entry {name!r}; have {ENTRY_NAMES}")
    overrides = {k: frac(v) for k, v in (params or {}).items()}
    try:
        params = _program(name, "head").run(overrides).params
        for rule, holds in _ENTRIES[name].rules:
            if not holds(params):
                raise DomainError(f"{name} requires {rule}")
        return _program(name, "printed" if printed else "body").run(overrides)
    except ParseError as exc:
        # the data file is fixed, so a parse failure is a parameter problem
        raise DomainError(f"inadmissible parameters for {name}: {exc}") from exc


def entry(name: str, params: dict | None = None) -> CatalogEntry:
    """The fully populated catalog entry, at default or overridden parameters."""
    doc = _document(name, params, printed=True)
    spec = _ENTRIES[name]
    verbatim = {k.removesuffix("_printed"): doc.ops.pop(k) for k in list(doc.ops) if k.endswith("_printed")}
    w, wt = spec.weights
    return CatalogEntry(
        name=name,
        params=dict(doc.params),
        doc=doc,
        weight_W=doc.weights[w],
        weight_Wt=doc.weights[wt] if wt else None,
        ops=dict(doc.ops),
        expected=spec.expected(doc.params),
        provenance=spec.provenance,
        verbatim_ops=verbatim,
    )


def default_params(name: str) -> dict[str, Fraction]:
    return dict(entry(name).params)


def entry_document_text(name: str, params: dict | None = None) -> str:
    """The entry's data file with the entry's parameter values. At default
    parameters this is the file itself. It refuses what ``entry`` refuses,
    with its message; the verbatim readings are not part of it, so they are
    not parsed."""
    p = _document(name, params, printed=False).params
    return re.sub(r"^param (\w+) = .*$", lambda m: f"param {m[1]} = {p[m[1]]}", _data_text(name), flags=re.MULTILINE)


# ---------------------------------------------------------------------------
# verification


def _const_term_singular_on_span(basis, size: int) -> bool:
    """True when det of the constant coefficient vanishes identically on the
    span of the given operators.

    f(u) = det(sum u_i C_i), C_i the constant terms, is homogeneous of degree
    ``size``: with u_dim = size - (u_1 + ... + u_(dim-1)) it has total degree
    <= size in dim - 1 variables, so it is zero when zero on the unisolvent
    simplex lattice u >= 0, sum u = size, and then f vanishes wherever sum u
    != 0, hence everywhere. Each lattice point is a multiset of ``size`` C_i.
    """
    if not basis:
        return True
    dim = len(basis)
    if dim > 6:
        raise DomainError(f"span of dimension {dim} exceeds the exact lattice test's limit of 6")
    ints = int_matrix([row for b in basis for row in b.coeff(0).coeff(0).rows])[0]
    consts = [ints[i : i + size] for i in range(0, len(ints), size)]
    for picks in itertools.combinations_with_replacement(consts, size):
        if bareiss([[sum(cells) for cells in zip(*rows)] for rows in zip(*picks)])[0]:
            return False
    return True


def _in_span(v: DiffOp, basis) -> bool:
    """Whether the polynomial operator v lies in the span of ``basis``: a null
    vector of the stacked ``int_form`` numerators (multiples of the
    coefficients, by d-power, row, column and x-power) that uses v's."""
    forms = [t.int_form()[0] for t in (*basis, v)]
    deg, length = max(len(e) for f in forms for e in f), max(map(len, forms))
    vecs = [[c for e in f for c in e + (0,) * (deg - len(e))] + [0] * (deg * (length - len(f))) for f in forms]
    return any(u[-1] for u in nullspace(list(zip(*vecs)), len(vecs)))


def _gram_by_rows(q: MatPoly, weight: Weight, n: int) -> bool:
    """Whether Q has degree n and a nonsingular x^n coefficient C, and its
    integer moment rows R_k = <Q, x^k I> (one ``moment_ints``) vanish for
    k < n with det R_n != 0."""
    s, ints = q.size, q.int_form()[0]
    lead = [e[n] if len(e) > n else 0 for e in ints]
    if q.degree != n or not bareiss([lead[i : i + s] for i in range(0, s * s, s)])[0]:
        return False
    rows = moment_ints(q, weight, n)[0]
    return not any(v for row in rows[:n] for r in row for v in r) and bool(bareiss(rows[n])[0])


def _gram_orthogonal(polys, weight: Weight, bound: int) -> Verdict:
    """Q_0..Q_bound are orthogonal for the weight with nonsingular Gram
    blocks <Q_n, Q_n>.

    When ``_gram_by_rows`` holds for every n, <Q_n, Q_m> = sum_{k <= m}
    R_{n,k} Q_{m,k}^T = 0 for m < n, and <Q_n, Q_n> = R_{n,n} C_n^T is
    nonsingular. Otherwise one ``moment_rows`` call per n gives R_{n,k} up
    to the largest deg Q_m, m <= n, and every block <Q_n, Q_m>
    (``contract_rows``) is read off the nonzero ones, found once per n: the
    diagonal block first, then m = 0, 1, ..., so a failure names the first
    (n, m) and its block.
    """
    if all(_gram_by_rows(polys[n], weight, n) for n in range(bound + 1)):
        return Verdict(True)
    top = 0
    for n in range(bound + 1):
        top = max(top, polys[n].degree)
        rows = [(k, r) for k, r in enumerate(moment_rows(polys[n], weight, top)) if not r.is_zero]
        gn = contract_rows(rows, polys[n])
        if gn.det() == 0:
            return Verdict(False, f"Gram block at n={n} is singular", n, gn)
        for m in range(n):
            g = contract_rows(rows, polys[m])
            if not g.is_zero:
                return Verdict(False, f"nonzero Gram block at (n, m) = ({n}, {m})", n, g)
    return Verdict(True)


def _eigen_family(polys, op: DiffOp, bound: int) -> tuple[bool, str]:
    """(ok, detail) of ``relation`` on (polys, op, polys), for tests/test_acceptance.py."""
    rep = relation(polys.__getitem__, op, polys.__getitem__, bound)
    return rep.ok, rep.detail


def verify_entry(name: str, params: dict | None = None, n_max: int = 8) -> Report:
    return check_entry(entry(name, params), n_max)


def check_entry(e: CatalogEntry, n_max: int = 8) -> Report:
    """Every stated identity of an already admitted entry."""
    check_horizon(n_max)
    rep = Report()
    _ENTRIES[e.name].verify(e, rep, n_max)
    return rep


def _verify_jac2(e: CatalogEntry, rep: Report, n_max: int):
    w, W = e.weight_W, e.weight_Wt
    ops = e.ops
    cert = DarbouxCertificate(w, W, ops["V"], ops["N"], ops["D"], n_max)
    rep.extend(darboux_verify(cert), prefix="darboux: ")
    c1, c2, c0 = e.expected["combo"]
    combo = c1 * ops["D1"] + c2 * ops["D2"] + c0 * DiffOp.identity(2)
    nv = compose(ops["N"], ops["V"])
    rep.add("N V equals the stated combination of D1, D2, I", compare_operators(nv, combo))
    rep.add("D1 D2 = D2 D1", compose(ops["D1"], ops["D2"]) == compose(ops["D2"], ops["D1"]))
    rep.add("D2 is W-symmetric", symmetry_check(ops["D2"], W))
    m1 = verify_in_DW(ops["D1"], W, n_max)
    m2 = verify_in_DW(ops["D2"], W, n_max)
    rep.add("D1 in algebra of W", m1)
    rep.add("D2 in algebra of W", m2)
    if m1.ok and m2.ok:
        comm = all(
            m1.eigs[n] * m2.eigs[n] == m2.eigs[n] * m1.eigs[n] for n in range(n_max + 1)
        )
        rep.add("eigenvalue families of D1, D2 commute", comm)
    full = fullness_check([ops["FD1"], ops["FD2"]], [DiffOp.identity(2), ops["D1"], ops["D2"]])
    rep.extend(full, prefix="fullness: ")
    rep.add("diagonal side has a commutative algebra", commutativity_predicate(w))
    seq = sequence_for(w)
    qs = [apply(seq.poly(n), ops["V"]) for n in range(n_max + 1)]
    rep.add("images P_n . V are Gram-orthogonal under W", _gram_orthogonal(qs, W, n_max))


def _verify_lag3(e: CatalogEntry, rep: Report, n_max: int):
    W, Wt = e.weight_W, e.weight_Wt
    ops = e.ops
    eq = compare_operators(compose(ops["V"], ops["N"]), ops["D"])
    rep.add("D = V N exactly", eq)
    rep.add("D has order six", ops["D"].order == 6)
    verb = compose(ops["V"], e.verbatim_ops["N"])
    verb_cells = diff_cells(verb, e.verbatim_ops["D"])
    detail = (
        "verbatim N, D "
        + ("also match" if not verb_cells else f"disagree at {len(verb_cells)} cells, first {verb_cells[0]}")
        + "; emended reading is primary"
    )
    rep.add("printed readings re-checked", Verdict(eq.ok, detail))
    seq = sequence_for(W)
    seqt = sequence_for(Wt)
    qs = [apply(seq.poly(n), ops["V"]) for n in range(n_max + 1)]
    ok = all(qs[n] == e.expected["Q_n"](n) for n in range(n_max + 1))
    rep.add("P_n . V matches the closed-form images", ok)
    stated = relation(seq.poly, ops["V"], seqt.poly, n_max, cs=e.expected["A_n"])
    singular = [n for n in range(n_max + 1) if e.expected["A_n"](n).det() == 0]
    ok = stated.ok and not singular
    detail = f"stated A_{singular[0]} singular" if singular else stated.detail
    printed_diverges = [
        n for n in range(n_max + 1) if e.expected["A_n_printed"](n) != e.expected["A_n"](n)
    ]
    if printed_diverges and ok:
        detail = (
            f"literal printed middle entry diverges for n in {printed_diverges[:3]}...;"
            " emended closed form used"
        )
    rep.add("P_n . V = A_n Pt_n with the stated A_n", Verdict(ok, detail))
    # a degree-n family of eigenfunctions, Lambda_n solved from leading coefficients
    rep.add("images are eigenfunctions of E", relation(qs.__getitem__, ops["E"], qs.__getitem__, n_max))
    rep.add("E in algebra of Wt", verify_in_DW(ops["E"], Wt, n_max))
    rep.add("images are Gram-orthogonal under Wt", _gram_orthogonal(qs, Wt, n_max))
    # bounded evidence that no factorization with ord V' + ord N' < 6 exists:
    # such a pair has a factor of order <= 2, and a certificate factor needs a
    # nonsingular conjugator already at n = 0 (A_0 is the constant term), so
    # it is enough that det A_0 vanishes identically on both searched spaces
    fwd = matrix_intertwiner_search(W, Wt, 2)
    rev = matrix_intertwiner_search(Wt, W, 2)
    ok = _const_term_singular_on_span(fwd, 3) and _const_term_singular_on_span(rev, 3)
    # the label keeps "(slack 1)": the benchmark's recorded digests hash each
    # check's (name, ok), so it changes when they are next re-recorded; it
    # stays true, as the search's ansatz holds every operator that a slack-1
    # ansatz does (``dwalgebra._search_system``)
    rep.add(
        "no certificate factor of order <= 2 in either direction (slack 1)",
        Verdict(
            ok,
            f"forward dim {len(fwd)}, reverse dim {len(rev)}, every element has singular A_0;"
            " order-drop compositions outside searched region",
        ),
    )
    control = matrix_intertwiner_verify(ops["V"], W, Wt, n_max)
    ctrl_space = matrix_intertwiner_search(W, Wt, 3)
    rep.add(
        "positive control: order-3 space contains V",
        Verdict(control and _in_span(ops["V"], ctrl_space), f"order-3 search dimension {len(ctrl_space)}"),
    )


def _verify_geg2(e: CatalogEntry, rep: Report, n_max: int):
    w, W = e.weight_W, e.weight_Wt
    ops = e.ops
    rep.add("D = V N exactly", compare_operators(compose(ops["V"], ops["N"]), ops["D"]))
    rep.add("D in algebra of the diagonal side", verify_in_DW(ops["D"], w, n_max))
    seq = sequence_for(w)
    qs = [apply(seq.poly(n), ops["V"]) for n in range(n_max + 1)]
    rep.add("images are Gram-orthogonal under W", _gram_orthogonal(qs, W, n_max))


def _verify_her3(e: CatalogEntry, rep: Report, n_max: int):
    w, W = e.weight_W, e.weight_Wt
    ops = e.ops
    seq = sequence_for(w)
    bound = min(n_max, 6)
    qs = [apply(seq.poly(n), ops["V"]) for n in range(max(bound, 2) + 1)]
    composed = compose(ops["V"], ops["N"])
    eq = compare_operators(composed, ops["D"])
    rep.add("D = V N exactly", eq)
    rep.add("D has order eight", ops["D"].order == 8)
    verb_cells = diff_cells(composed, e.verbatim_ops["D"])
    detail = (
        "verbatim D "
        + ("also matches" if not verb_cells else f"disagrees at {len(verb_cells)} cells (sign of the cubic (2,2) term)")
        + "; verbatim E "
        + ("passes" if relation(qs.__getitem__, e.verbatim_ops["E"], qs.__getitem__, 2) else "fails (sign of the constant (1,1) term)")
    )
    rep.add("printed readings re-checked", Verdict(eq.ok, detail))
    rep.add("images are Gram-orthogonal under W", _gram_orthogonal(qs, W, bound))
    rep.add("images are eigenfunctions of E", relation(qs.__getitem__, ops["E"], qs.__getitem__, bound))
    rep.add("E in algebra of W", verify_in_DW(ops["E"], W, bound))
    rep.add("E is W-symmetric", symmetry_check(ops["E"], W))


def _verify_lag2diag(e: CatalogEntry, rep: Report, n_max: int):
    seq = sequence_for(e.weight_W)
    for gname in ("G1", "G2", "G3", "G4", "G5", "G6"):
        rel = relation(seq.poly, e.ops[gname], seq.poly, n_max, cs=e.expected["eigs"][gname])
        rep.add(f"{gname} in algebra with the stated eigenvalues", rel)


# ---------------------------------------------------------------------------
# the entries, in catalog order


@dataclass(frozen=True)
class _EntrySpec:
    """How an entry is read from its data file, admitted and verified."""

    # the certificate's two weights (or one) by their names in the file
    weights: tuple[str, str | None]
    provenance: str
    # stated parameter rules, checked on the file's param lines before any
    # weight is built, so that a refusal names the rule, not a file line
    rules: tuple[tuple[str, Callable[[dict], bool]], ...]
    verify: Callable[[CatalogEntry, Report, int], None]
    expected: Callable[[dict], dict] = lambda p: {}
    # verbatim readings, as op statements named <op>_printed
    printed: str = ""


_ENTRIES = {
    "JAC2": _EntrySpec(
        ("w", "W"),
        "2x2 Jacobi-type weight from matrix spherical functions on complex projective space",
        (
            ("alpha, beta > -1", lambda p: p["alpha"] > -1 and p["beta"] > -1),
            ("0 < kappa < beta + 1", lambda p: 0 < p["kappa"] < p["beta"] + 1),
            ("kappa < alpha + 1 (weight positive definite)", lambda p: p["kappa"] < p["alpha"] + 1),
        ),
        _verify_jac2,
        _jac2_expected,
    ),
    "LAG3": _EntrySpec(
        ("W", "Wt"),
        "3x3 Laguerre-type weight reached only through a sixth-order factorization",
        (
            ("alpha > -1", lambda p: p["alpha"] > -1),
            ("nonzero a1, a2", lambda p: p["a1"] != 0 and p["a2"] != 0),
        ),
        _verify_lag3,
        _lag3_expected,
        _LAG3_PRINTED,
    ),
    "GEG2": _EntrySpec(
        ("w", "W"),
        "2x2 Gegenbauer-type weight from spherical functions on the three-sphere",
        (("r > 0 and 0 < a < r/2", lambda p: p["r"] > 0 and 0 < p["a"] < p["r"] / 2),),
        _verify_geg2,
    ),
    "HER3": _EntrySpec(
        ("w", "W"),
        "3x3 Hermite-type weight solving the second-order eigenfunction problem",
        (("nonzero a, b", lambda p: p["a"] != 0 and p["b"] != 0),),
        _verify_her3,
        printed=_HER3_PRINTED,
    ),
    "LAG2DIAG": _EntrySpec(
        ("W", None),
        "generator table for the operator algebra of a two-block Laguerre direct sum",
        (("alpha > 0", lambda p: p["alpha"] > 0),),
        _verify_lag2diag,
        _lag2diag_expected,
    ),
}

ENTRY_NAMES = tuple(_ENTRIES)
