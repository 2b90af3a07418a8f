"""Seeded inputs with known answers for the three benchmark workloads.

Parameters come from the pools in ``golden.json``: small rationals drawn with
a fixed seed and admitted by ``catalog.entry`` (a draw it rejects with
``DomainError`` is redrawn and counted). A run's seed picks and orders the
jobs from these pools; a job's place in the run decides whether it is a
mutant, so runs of the same length hold the same mix. A mutant adds a
degree-raising term ``x^(j+1) d^j`` to one operator cell with
``diffop.bump_coefficient``; a degree-raising term breaks every relation the
checks test (the factorization D = V N, membership, P_n . V = A_n Pt_n), so
its known answer is FAIL. Every other job's known answer is PASS.

Each job also yields an exact-output digest, compared with the digest
recorded in ``golden.json`` for the same job.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from mvop import catalog, cli, diffop, dsl, dwalgebra, weights
from mvop.exactalg import DomainError

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"

WORKLOADS = ("verify-docs", "catalog-sweep", "horizon-warm")
ENTRIES = catalog.ENTRY_NAMES
HORIZON_ENTRIES = ("JAC2", "LAG3", "HER3")
N_MAX = 8
HORIZON_N = 16

# rotations per second of --seconds; a run does a fixed number of rotations
# so that the same seed gives the same jobs and the tail percentile keeps its
# rank. On the reference machine (2 cores, Python 3.11) verify-docs takes
# about --seconds and horizon-warm 0.85 of it; catalog-sweep takes about 1.7
# times as long, since fewer of its LAG3 jobs left its figures too noisy.
# horizon-warm's tail is the 11th slowest job: at 1.5 rotations per second
# that was the second fastest of HER3's six original Darboux jobs, too noisy;
# at 1.8 it is the third slowest of eight.
ROTATION_RATE = {"verify-docs": 0.5, "catalog-sweep": 0.3, "horizon-warm": 1.8}

# the operators a mutant may change: every operator that a check names
MUTABLE_OPS = {
    "JAC2": ("V", "N", "D", "D1", "D2"),
    "LAG3": ("V", "N", "D", "E"),
    "GEG2": ("V", "N", "D"),
    "HER3": ("V", "N", "D", "E"),
    "LAG2DIAG": ("G1", "G2", "G3", "G4", "G5", "G6"),
}

# horizon-warm: (first weight, second weight) of each Darboux certificate,
# the (operator, weight) pairs for membership, and the W-symmetric operators
# the catalog states, for the adjoint jobs
HORIZON_PAIR = {"JAC2": ("w", "W"), "LAG3": ("W", "Wt"), "HER3": ("w", "W")}
HORIZON_MEMBERS = {
    "JAC2": (("D1", "W"), ("D2", "W"), ("D", "w")),
    "LAG3": (("E", "Wt"), ("D", "W")),
    "HER3": (("E", "W"), ("D", "w")),
}
HORIZON_SYMMETRIC = {"JAC2": ("D2", "W"), "HER3": ("E", "W")}
HORIZON_KINDS = ("darboux", "member", "intertwine", "gram", "adjoint")
MUTABLE_KINDS = HORIZON_KINDS[:3]
GRAM_DEGREES = range(10, HORIZON_N + 1)
# horizon-warm targets are taken in these fixed orders, each (entry, kind,
# mutant) group from its own start: so every run with the same number of
# rotations holds the same jobs up to parameters and order. Darboux mutants
# cost 0.1-0.6 s by target and Gram blocks 0.002-0.16 s by degree, so
# seeded targets made the runs' total cost differ by seed.
DARBOUX_MUTANT_ORDER = ("D", "V", "N")
GRAM_ORDER = tuple((i % 2, GRAM_DEGREES[3 * i % len(GRAM_DEGREES)]) for i in range(2 * len(GRAM_DEGREES)))

# nonneg_integer_roots trial-divides up to the square root of a coefficient;
# beyond this many divisions one degree-preservation decision takes seconds
# to hours, so such parameters are kept out of the pools (see NOTES.md)
MAX_TRIAL_DIVISIONS = 10**6


# ---------------------------------------------------------------------------
# parameters


def params_text(params: dict) -> str:
    return ",".join(f"{k}={v}" for k, v in params.items())


def parse_params(text: str) -> dict[str, Fraction]:
    return {k: Fraction(v) for k, v in (p.split("=") for p in text.split(","))}


def small_rational(rng: random.Random) -> Fraction:
    den = rng.randint(1, 6)
    return Fraction(rng.randint(-4 * den, 4 * den), den)


def trial_divisions(e: catalog.CatalogEntry) -> int:
    """The most trial divisions ``nonneg_integer_roots`` makes when the
    workloads decide degree preservation of this entry's operators (the
    square root of the symbol determinant's cleared trailing coefficient)."""
    ops = [e.ops[k] for k in ("V", "N") if k in e.ops]
    if e.name == "JAC2":
        ops.append(e.ops["FD1"] + e.ops["FD2"])
    seen = []

    def probe(p):
        scale = math.lcm(*(c.denominator for c in p.coeffs))
        ints = [int(c * scale) for c in p.coeffs]
        seen.append(math.isqrt(abs(next(v for v in ints if v))))
        return []

    saved, diffop.nonneg_integer_roots = diffop.nonneg_integer_roots, probe
    try:
        for op in ops:
            diffop.degree_preserving(op)
    finally:
        diffop.nonneg_integer_roots = saved
    return max(seen, default=0)


def draw_pool(name: str, size: int, rng: random.Random) -> tuple[list[str], dict[str, int]]:
    """``size`` distinct admissible parameter sets, and how many draws were
    rejected: by the positivity check of a weight, by any other domain rule,
    or because deciding degree preservation would take more than
    MAX_TRIAL_DIVISIONS trial divisions (unbounded work, not a verdict)."""
    keys = list(catalog.default_params(name))
    accepted: list[str] = []
    rejected = {"positivity": 0, "domain": 0, "trial_division": 0}
    for _ in range(1000 * size):
        if len(accepted) == size:
            return accepted, rejected
        p = {k: small_rational(rng) for k in keys}
        text = params_text(p)
        if text in accepted:
            continue
        try:
            e = catalog.entry(name, p)
        except DomainError as exc:
            rejected["positivity" if "not positive definite" in str(exc) else "domain"] += 1
            continue
        if trial_divisions(e) > MAX_TRIAL_DIVISIONS:
            rejected["trial_division"] += 1
            continue
        accepted.append(text)
    raise RuntimeError(f"could not draw {size} admissible parameter sets for {name}")


# ---------------------------------------------------------------------------
# jobs


@dataclass(frozen=True)
class Job:
    workload: str
    entry: str
    params: str
    kind: str = "verify"
    target: str = ""  # operator name, "op/weight", or "weight:n"
    mutant: bool = False

    def key(self) -> str:
        return "|".join(
            (self.workload, self.entry, self.params, self.kind, self.target, "mutant" if self.mutant else "")
        )


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def rotations(workload: str, seconds: float) -> int:
    """At least 3; for horizon-warm a multiple of 6, so that each kind
    visits each of its two or three entries equally often."""
    n = max(3, round(seconds * ROTATION_RATE[workload]))
    return max(6, 6 * round(n / 6)) if workload == "horizon-warm" else n


def _mutant_target(entry: str, params: str) -> str:
    ops = MUTABLE_OPS[entry]
    return ops[int(hashlib.sha256(params.encode()).hexdigest(), 16) % len(ops)]


def make_jobs(workload: str, seed: int, n_rot: int, pools: dict) -> list[Job]:
    """The job list of one run: ``n_rot`` rotations of five jobs each."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "horizon-warm":
        return _horizon_jobs(rng, n_rot, pools["horizon"])
    order = {e: stratified(pools["main"][e], n_rot, rng) for e in ENTRIES}
    jobs = []
    for r in range(n_rot):
        entries = rng.sample(ENTRIES, len(ENTRIES))
        # mutants take the entries in turn: a HER3 mutant saves 0.5 s, so a
        # seeded choice made the runs' total cost differ by seed
        mutant = ENTRIES[r % len(ENTRIES)] if workload == "verify-docs" else None
        for e in entries:
            p = order[e][r]
            if e == mutant:
                jobs.append(Job(workload, e, p, target=_mutant_target(e, p), mutant=True))
            else:
                jobs.append(Job(workload, e, p))
    return jobs


def stratified(pool: list[str], n: int, rng: random.Random) -> list[str]:
    """``n`` distinct parameter sets, one from each of ``n`` strata of the
    pool, which ``golden.json`` stores in order of recorded job time; so every
    run spans the same range of costs. The strata are visited in random order."""
    if n > len(pool):
        raise ValueError(f"{n} rotations need more than the {len(pool)} pooled parameter sets")
    picks = [rng.choice(pool[k * len(pool) // n:(k + 1) * len(pool) // n]) for k in range(n)]
    rng.shuffle(picks)
    return picks


def _horizon_jobs(rng: random.Random, n_rot: int, pools: dict) -> list[Job]:
    """Rotations of one job of each kind. Each kind visits its entries in a
    seeded cyclic order. Rotations 3k..3k+2 turn their job of one mutable kind
    (darboux, member, intertwine in turn) into a mutant. Targets follow the
    fixed orders above. So every run holds the same mix of entries, kinds and
    targets; the seed decides their order."""
    chosen = {e: rng.choice(pools[e]) for e in HORIZON_ENTRIES}
    cycles = {}
    for kind in HORIZON_KINDS:
        entries = tuple(HORIZON_SYMMETRIC) if kind == "adjoint" else HORIZON_ENTRIES
        cycles[kind] = rng.sample(entries, len(entries))
    seen: dict[tuple, int] = {}
    jobs = []
    for r in range(n_rot):
        rot = []
        for kind in HORIZON_KINDS:
            entry = cycles[kind][r % len(cycles[kind])]
            mutant = kind == MUTABLE_KINDS[r // 3 % 3]
            k = seen[entry, kind, mutant] = seen.get((entry, kind, mutant), -1) + 1
            rot.append(Job("horizon-warm", entry, chosen[entry], kind, _horizon_target(kind, entry, mutant, k), mutant))
        rng.shuffle(rot)
        jobs.extend(rot)
    return jobs


def _horizon_target(kind: str, entry: str, mutant: bool, k: int) -> str:
    """The target of the k-th job of this kind, entry and mutant flag in a run."""
    if kind == "darboux":
        return DARBOUX_MUTANT_ORDER[k % 3] if mutant else ""
    if kind == "member":
        members = HORIZON_MEMBERS[entry]
        return "/".join(members[k % len(members)])
    if kind == "intertwine":
        return "V"
    if kind == "gram":
        w, n = GRAM_ORDER[k % len(GRAM_ORDER)]
        return f"{HORIZON_PAIR[entry][w]}:{n}"
    return "/".join(HORIZON_SYMMETRIC[entry])


def all_jobs(pools: dict) -> list[Job]:
    """Every job any seed can produce, for recording digests."""
    out = []
    for e in ENTRIES:
        for p in pools["main"][e]:
            out.append(Job("catalog-sweep", e, p))
            out.append(Job("verify-docs", e, p))
            out.append(Job("verify-docs", e, p, target=_mutant_target(e, p), mutant=True))
    for e in HORIZON_ENTRIES:
        for p in pools["horizon"][e]:
            out.append(Job("horizon-warm", e, p, "darboux"))
            out.extend(Job("horizon-warm", e, p, "darboux", t, True) for t in ("V", "N", "D"))
            for op, w in HORIZON_MEMBERS[e]:
                out.append(Job("horizon-warm", e, p, "member", f"{op}/{w}"))
                out.append(Job("horizon-warm", e, p, "member", f"{op}/{w}", True))
            out.append(Job("horizon-warm", e, p, "intertwine", "V"))
            out.append(Job("horizon-warm", e, p, "intertwine", "V", True))
            for w in HORIZON_PAIR[e]:
                out.extend(Job("horizon-warm", e, p, "gram", f"{w}:{n}") for n in GRAM_DEGREES)
            if e in HORIZON_SYMMETRIC:
                out.append(Job("horizon-warm", e, p, "adjoint", "/".join(HORIZON_SYMMETRIC[e])))
    return out


# ---------------------------------------------------------------------------
# mutation and digests


def mutate(op: diffop.DiffOp, label: str) -> diffop.DiffOp:
    """Add x^(j+1) d^j to one cell; the cell is fixed by ``label``."""
    h = int(hashlib.sha256(label.encode()).hexdigest(), 16)
    j = h % (op.order + 1)
    r, c = (h >> 8) % op.size, (h >> 16) % op.size
    return diffop.bump_coefficient(op, (j, r, c, j + 1))


def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _mat(m) -> list:
    return [[str(v) for v in row] for row in m.rows]


def _op(d: diffop.DiffOp) -> list:
    return [_mat(c) for c in d.coeffs]


# ---------------------------------------------------------------------------
# set-up and execution


class Outcome:
    """What one job returned: verdict (True = PASS), error flag, digest payload."""

    __slots__ = ("verdict", "error", "payload")

    def __init__(self, verdict: bool, error: bool, payload):
        self.verdict, self.error, self.payload = verdict, error, payload


class DocsSession:
    """verify-docs: documents rendered in set-up, one CLI call per job."""

    def __init__(self, jobs: list[Job], workdir: Path):
        self.jobs = jobs
        docs = workdir / "docs"
        self.reports = workdir / "reports"
        docs.mkdir(parents=True, exist_ok=True)
        self.reports.mkdir(parents=True, exist_ok=True)
        self.paths = []
        for i, job in enumerate(jobs):
            params = parse_params(job.params)
            text = catalog.entry_document_text(job.entry, params)
            if job.mutant:
                doc = dsl.parse_spec(text, params)
                bumped = mutate(doc.ops[job.target], job.key())
                prefix = f"op {job.target} = "
                text = "".join(
                    prefix + dsl.op_str(bumped) + "\n" if line.startswith(prefix) else line
                    for line in text.splitlines(keepends=True)
                )
            path = docs / f"job{i}.mvop"
            path.write_text(text, encoding="utf-8")
            self.paths.append(path)
        if weights._SEQUENCE_CACHE:
            raise RuntimeError("rendering documents built orthogonal sequences; jobs would not start cold")

    def call(self, i: int):
        job = self.jobs[i]
        out = self.reports / f"job{i}.json"
        argv = ["verify", str(self.paths[i]), "--params", job.params, "--nmax", str(N_MAX),
                "--format", "json", "--out", str(out)]
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse and --params errors
            return exc.code if isinstance(exc.code, int) else 2

    def judge(self, i: int, code, schema_check) -> Outcome:
        if code == 2:
            return Outcome(False, True, None)
        out = self.reports / f"job{i}.json"
        report = json.loads(out.read_text(encoding="utf-8"))
        out.unlink()
        schema_check(report)
        statuses = [(c["name"], c["status"]) for c in report["checks"]]
        error = any(s == "error" for _, s in statuses) or code != (0 if report["ok"] else 1)
        return Outcome(report["ok"], error, statuses)


class SweepSession:
    """catalog-sweep: one ``verify_entry`` per job."""

    def __init__(self, jobs: list[Job], workdir: Path):
        self.jobs = jobs
        self.params = [parse_params(j.params) for j in jobs]

    def call(self, i: int):
        return catalog.verify_entry(self.jobs[i].entry, self.params[i], N_MAX)

    def judge(self, i: int, rep, schema_check) -> Outcome:
        return Outcome(rep.ok, False, [(c.name, c.ok) for c in rep.checks])


class HorizonSession:
    """horizon-warm: sequences built to degree 16 in set-up; jobs read them."""

    def __init__(self, jobs: list[Job], workdir: Path):
        self.jobs = jobs
        self.entries = {}
        for job in jobs:
            if job.entry not in self.entries:
                self.entries[job.entry] = catalog.entry(job.entry, parse_params(job.params))
        for name, e in self.entries.items():
            a, b = (e.doc.weights[k] for k in HORIZON_PAIR[name])
            for w in (a, b, weights.Weight.direct_sum([a, b])):
                weights.monic_ops(w, HORIZON_N)
        self.calls = [self._prepare(job) for job in jobs]

    def _prepare(self, job: Job):
        e = self.entries[job.entry]
        ws = e.doc.weights
        w1, w2 = (ws[k] for k in HORIZON_PAIR[job.entry])
        ops = e.ops

        def op(name):
            return mutate(ops[name], job.key()) if job.mutant else ops[name]

        if job.kind == "darboux":
            t = job.target
            cert = dwalgebra.DarbouxCertificate(
                w1, w2, op("V") if t == "V" else ops["V"], op("N") if t == "N" else ops["N"],
                op("D") if t == "D" else ops["D"], HORIZON_N,
            )
            return lambda: (dwalgebra.darboux_verify(cert), cert)
        if job.kind == "member":
            name, wname = job.target.split("/")
            d, w = op(name), ws[wname]
            return lambda: dwalgebra.verify_in_DW(d, w, HORIZON_N)
        if job.kind == "intertwine":
            v = op("V")
            return lambda: dwalgebra.matrix_intertwiner_verify(v, w1, w2, HORIZON_N)
        if job.kind == "gram":
            wname, n = job.target.split(":")
            n, w = int(n), ws[wname]
            seq = weights.sequence_for(w)

            def gram():
                pn = seq.poly(n)
                h = weights.inner_product(pn, pn, w)
                off = weights.inner_product(pn, seq.poly(n - 1), w)
                return h, off, off.is_zero and h.det() != 0

            return gram
        name, wname = job.target.split("/")
        d, w = ops[name], ws[wname]

        def adjoint():
            adj = diffop.w_adjoint(d, w)
            return adj, adj == d

        return adjoint

    def call(self, i: int):
        return self.calls[i]()

    def judge(self, i: int, result, schema_check) -> Outcome:
        kind = self.jobs[i].kind
        if kind == "darboux":
            rep, cert = result
            return Outcome(rep.ok, False, ([(c.name, c.ok) for c in rep.checks], [_mat(a) for a in cert.conjugators]))
        if kind == "member":
            eigs = [_mat(m) for m in result.eigs] if result.ok else (result.fail_n, result.detail)
            return Outcome(result.ok, False, eigs)
        if kind == "intertwine":
            return Outcome(result, False, result)
        if kind == "gram":
            h, off, ok = result
            return Outcome(ok, False, (_mat(h), _mat(off)))
        adj, ok = result
        return Outcome(ok, False, _op(adj))


SESSIONS = {"verify-docs": DocsSession, "catalog-sweep": SweepSession, "horizon-warm": HorizonSession}


def reset_program_caches() -> None:
    """Empty mvop's module caches, as a fresh process would have them."""
    weights._SEQUENCE_CACHE.clear()
    weights._MOMENT_CACHE.clear()
