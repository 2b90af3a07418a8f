"""Tests of the benchmark itself: seeding, verdict accounting, tracing.

    python3 -m pytest perfbench -q

The layer tests run each workload traced for one or two rotations (about a
minute in all).
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import mvop  # noqa: E402
from mvop import catalog, cli, diffop, dwalgebra, exactalg, weights  # noqa: E402

import layertrace as lt  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402

GOLDEN = wl.load_golden()

# reachable only through a `search` check or `mvop search`, which none of
# the three workloads issues
UNREACHED = {"dwalgebra.intertwiner_search"}


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_same_seed_same_jobs(workload):
    a = wl.make_jobs(workload, 7, 4, GOLDEN["pools"])
    assert a == wl.make_jobs(workload, 7, 4, GOLDEN["pools"])
    assert a != wl.make_jobs(workload, 8, 4, GOLDEN["pools"])
    assert sum(j.mutant for j in a) == (0 if workload == "catalog-sweep" else 4)


@pytest.mark.parametrize("workload", ("verify-docs", "horizon-warm"))
def test_runs_hold_the_same_mix_of_jobs(workload):
    def mix(seed):
        jobs = wl.make_jobs(workload, seed, 12, GOLDEN["pools"])
        return sorted((j.entry, j.kind, j.target if workload == "horizon-warm" else "", j.mutant) for j in jobs)

    assert all(mix(seed) == mix(0) for seed in range(1, 10))


def test_horizon_darboux_mutants_take_every_target():
    darboux_mutants = [j for j in wl.make_jobs("horizon-warm", 0, 27, GOLDEN["pools"]) if j.kind == "darboux" and j.mutant]
    assert sorted(j.target for j in darboux_mutants if j.entry == "LAG3") == ["D", "N", "V"]


@pytest.mark.parametrize("workload", ("verify-docs", "catalog-sweep"))
def test_parameters_are_fresh_within_a_run(workload):
    jobs = wl.make_jobs(workload, 3, 12, GOLDEN["pools"])
    assert len({(j.entry, j.params) for j in jobs}) == len(jobs)


def test_every_generated_job_has_a_recorded_digest():
    for workload in wl.WORKLOADS:
        for seed in range(20):
            for job in wl.make_jobs(workload, seed, 8, GOLDEN["pools"]):
                assert job.key() in GOLDEN["digests"], job.key()


class _Stub:
    def __init__(self, verdict):
        self.verdict = verdict

    def call(self, i):
        return None

    def judge(self, i, result, schema_check):
        return wl.Outcome(self.verdict, False, "payload")


def _count(job, verdict, payload_digest):
    golden = {"digests": {job.key(): payload_digest}}
    _, _, errors, wrong, failed = run.run_jobs(_Stub(verdict), [job], float("inf"), golden, None)
    return errors, wrong, failed


def test_mutant_judged_pass_is_a_wrong_verdict():
    job = wl.Job("verify-docs", "JAC2", "alpha=1", target="D", mutant=True)
    assert _count(job, True, wl.digest("payload")) == (0, 1, 1)
    assert _count(job, False, wl.digest("payload")) == (0, 0, 0)


def test_digest_mismatch_is_a_wrong_verdict():
    job = wl.Job("catalog-sweep", "GEG2", "r=3,a=1")
    assert _count(job, True, "0" * 16) == (0, 1, 1)


def _originals():
    return {
        "nullspace": exactalg.nullspace,
        "apply": diffop.apply,
        "verify_in_DW": dwalgebra.verify_in_DW,
        "mul": exactalg.Poly.__mul__,
        "poly": weights.OPSequence.poly,
    }


def test_install_rebinds_every_alias_and_undo_restores():
    before = _originals()
    assert not lt.any_installed()
    installed = lt.Installation(lt.Tracer())
    try:
        assert dwalgebra.nullspace is exactalg.nullspace is not before["nullspace"]
        assert catalog.apply is dwalgebra.apply is diffop.apply is mvop.apply is not before["apply"]
        assert cli._dw.verify_in_DW is catalog.verify_in_DW is not before["verify_in_DW"]
        assert exactalg.Poly.__rmul__ is exactalg.Poly.__mul__ is not before["mul"]
        assert lt.any_installed()
    finally:
        installed.undo()
    assert _originals() == before
    assert dwalgebra.nullspace is before["nullspace"] and catalog.apply is before["apply"]
    assert not lt.any_installed()


def _traced(workload, n_rot, tmp_dir):
    jobs = wl.make_jobs(workload, 1, n_rot, GOLDEN["pools"])
    schema = run._schema_check() if workload == "verify-docs" else None
    tracer, times, _, errors, wrong, failed = run.traced_pass(
        wl.SESSIONS[workload], jobs, tmp_dir, 600, GOLDEN, schema
    )
    assert (errors, wrong, len(times)) == (0, 0, len(jobs))
    return tracer, lt.layer_metrics(tracer)


@pytest.fixture(scope="module")
def layers(tmp_path_factory):
    out = {}
    for workload, n_rot in (("verify-docs", 1), ("catalog-sweep", 1), ("horizon-warm", 2)):
        out[workload] = _traced(workload, n_rot, tmp_path_factory.mktemp(workload))
    assert not lt.any_installed()
    return out


def test_every_wrapped_function_is_reached(layers):
    names = {t[0] for t in lt.TARGETS} | {a[0] for a in lt.AGGREGATES}
    for name in sorted(names):
        calls = [m[f"{name}.calls"] for _, m in layers.values()]
        if name in UNREACHED:
            assert calls == [0, 0, 0], name
        else:
            assert max(calls) > 0, name


def test_layer_isolation_predictions(layers):
    assert layers["verify-docs"][1]["exactalg.nullspace.calls"] == 0
    assert layers["horizon-warm"][1]["exactalg.nullspace.calls"] == 0
    assert layers["catalog-sweep"][1]["exactalg.nullspace.calls"] > 0
    assert layers["horizon-warm"][1]["weights.sequence_for.hit_ratio"] == 1


def test_self_time_excludes_child_spans():
    import time

    tracer = lt.Tracer()
    inner = tracer.span_wrapper("inner", lambda: time.sleep(0.02), None)

    def body():
        time.sleep(0.01)
        inner()

    tracer.span_wrapper("outer", body, None)()
    spans = {s[2]: s for s in tracer.spans}
    assert spans["inner"][1] == spans["outer"][0]
    assert 0.02 <= spans["inner"][5] < 0.03
    assert 0.01 <= spans["outer"][5] < 0.02
