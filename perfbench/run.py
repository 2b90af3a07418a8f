"""The mvop benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload verify-docs --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; mvop is imported from ``src/``. Every job's
verdict and exact-output digest are checked against known answers. The last
line of standard output is one JSON object: with ``--trace 0`` the end-to-end
metrics, with ``--trace 1`` the per-layer metrics of a traced run (after an
untraced pass over the same jobs, for the tracing overhead). Times are
scaled to the reference machine by a reference kernel timed before every job
and after set-up. See NOTES.md.
"""

import time

T0 = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_SAMPLES = 3  # this process plus two child processes
GUARD = 4  # stop starting rotations after GUARD x --seconds of jobs
# The speed of a shared host drifts: the same 150 horizon-warm jobs took 10.0 s
# and 14.5 s of job time within one minute. So each job time is scaled by
# REF_KERNEL_S over the median time of the reference kernel in the REF_WINDOW
# samples around the job, and each set-up time by REF_KERNEL_S over the
# median of SETUP_REF_SAMPLES samples taken right after it. Times are then in
# seconds of the reference machine, where the kernel's median is REF_KERNEL_S.
REF_KERNEL_S = 0.005
REF_WINDOW = 9
SETUP_REF_SAMPLES = 9


def ref_kernel_seconds() -> float:
    """The time of one pass of a fixed sum of rationals: exact arithmetic of
    the kind the program does, with no mvop code in it."""
    t = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 700):
        total += Fraction(i, i * i + 1)
    return time.perf_counter() - t


def scaled(times, refs):
    """Each time in seconds of the reference machine (see REF_KERNEL_S)."""
    h = REF_WINDOW // 2
    return [t * REF_KERNEL_S / statistics.median(refs[max(0, i - h):i + h + 1]) for i, t in enumerate(times)]


def scaled_setup(seconds: float) -> float:
    refs = [ref_kernel_seconds() for _ in range(SETUP_REF_SAMPLES)]
    return seconds * REF_KERNEL_S / statistics.median(refs)


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("verify-docs", "catalog-sweep", "horizon-warm"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help="set up, print the set-up time and exit")
    return p.parse_args(argv)


def _import_program():
    if not (SRC / "mvop" / "__init__.py").is_file():
        raise SystemExit(f"error: no mvop sources under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import mvop

    if Path(mvop.__file__).resolve().parent != (SRC / "mvop").resolve():
        raise SystemExit(f"error: imported mvop from {mvop.__file__}, not from {SRC}")


def _schema_check():
    import jsonschema

    with open(SRC / "mvop" / "data" / "report-schema.json", encoding="utf-8") as fh:
        return jsonschema.Draft7Validator(json.load(fh)).validate


def _child_setup_seconds(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return float(done.stdout.strip().splitlines()[-1])


def run_jobs(session, jobs, deadline, golden, schema_check, tracer=None):
    """One pass: time every job from call to verdict and judge it outside
    the timed region. Stops at a rotation boundary after ``deadline``.

    Returns the job times, the reference kernel time before each job and the
    counts of errors, wrong verdicts and failed jobs."""
    import workloads as wl

    times, refs, errors, wrong, failed = [], [], 0, 0, 0
    for i, job in enumerate(jobs):
        if i % 5 == 0 and i and time.perf_counter() > deadline:
            print(f"# guard: stopped after {i} of {len(jobs)} jobs", flush=True)
            break
        refs.append(ref_kernel_seconds())
        if tracer:
            tracer.job = i
        t = time.perf_counter()
        try:
            result = session.call(i)
            raised = None
        except Exception as exc:  # an engine crash is a failed job, counted below
            raised = exc
        times.append(time.perf_counter() - t)
        if tracer:
            tracer.job = -1
        if raised is not None:
            print(f"# job {i} {job.key()} raised {type(raised).__name__}: {raised}", flush=True)
            errors, wrong, failed = errors + 1, wrong + 1, failed + 1
            continue
        outcome = session.judge(i, result, schema_check)
        ok_digest = wl.digest(outcome.payload) == golden["digests"].get(job.key())
        is_wrong = outcome.verdict != (not job.mutant) or not ok_digest
        if is_wrong:
            print(f"# job {i} {job.key()}: verdict {outcome.verdict}, digest match {ok_digest}", flush=True)
        errors += outcome.error
        wrong += is_wrong
        failed += outcome.error or is_wrong
    return times, refs, errors, wrong, failed


def traced_pass(session_type, jobs, workdir, seconds, golden, schema_check):
    """Set up again from empty program caches and run the same jobs traced."""
    import layertrace as lt
    import workloads as wl

    wl.reset_program_caches()
    tracer = lt.Tracer()
    installed = lt.Installation(tracer)
    try:
        session = session_type(jobs, workdir)
        deadline = time.perf_counter() + GUARD * seconds
        return (tracer, *run_jobs(session, jobs, deadline, golden, schema_check, tracer))
    finally:
        installed.undo()


def tail(times):
    """The highest-percentile time with at least ten samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    k = max(0, n - 11)
    return ordered[k], 100.0 * (k + 1) / n, n


def main(argv=None) -> int:
    args = _args(argv)
    _import_program()
    import workloads as wl
    import layertrace as lt

    golden = wl.load_golden()
    jobs = wl.make_jobs(args.workload, args.seed, wl.rotations(args.workload, args.seconds), golden["pools"])
    workdir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}-{'child' if args.setup_only else 'main'}"
    schema_check = _schema_check() if args.workload == "verify-docs" else None
    session_type = wl.SESSIONS[args.workload]
    try:
        if lt.any_installed():
            raise SystemExit("error: mvop functions are wrapped before an untraced run")
        session = session_type(jobs, workdir)
        own_setup = time.perf_counter() - T0
        own_setup_scaled = scaled_setup(own_setup)
        if args.setup_only:
            print(own_setup_scaled)
            return 0
        if args.trace == 0:
            setups = [own_setup_scaled] + [_child_setup_seconds(args) for _ in range(SETUP_SAMPLES - 1)]
        deadline = time.perf_counter() + GUARD * args.seconds
        wall, refs, errors, wrong, failed = run_jobs(session, jobs, deadline, golden, schema_check)
        times = scaled(wall, refs)
        attempted = len(times)
        if args.trace == 1:
            tracer, t_wall, t_refs, t_errors, t_wrong, t_failed = traced_pass(
                session_type, jobs, workdir, args.seconds, golden, schema_check
            )
            t_times = scaled(t_wall, t_refs)
            errors, wrong, failed = errors + t_errors, wrong + t_wrong, failed + t_failed
            attempted += len(t_times)
            metrics = lt.layer_metrics(tracer)
            metrics["trace.overhead_ratio"] = sum(times) / sum(t_times)  # traced / untraced jobs_per_s
            lines = lt.src_lines(SRC)
            for mod, n in lines.items():
                metrics[f"{mod}.src_lines"] = n
            metrics["src_lines_total"] = sum(lines.values())
            lt.write_spans(tracer, OUT / f"trace-{args.workload}-seed{args.seed}.jsonl")
            units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
            shares = sorted(((v, k) for k, v in metrics.items() if k.endswith(".self_s")), reverse=True)
            total_self = sum(v for v, _ in shares)
            for v, k in shares[:8]:
                print(f"# self time {k:45s} {v:9.4f} s  {v / total_self:6.1%}")
            out_metrics = {k: {"value": metrics[k], "unit": units[k]} for k in units}
        else:
            value, pct, n = tail(times)
            e2e = {
                "jobs_per_s": (len(times) / sum(times), "1/s"),
                "verdict_p50_s": (statistics.median(times), "s"),
                "verdict_tail_s": (value, "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                "ok_job_share": (1 - errors / attempted, "share"),
                "right_verdict_share": (1 - wrong / attempted, "share"),
            }
            print(f"# {args.workload} seed {args.seed}: {n} jobs in {sum(times):.2f} s "
                  f"({sum(wall):.2f} s wall clock, reference kernel median {statistics.median(refs) * 1e3:.2f} ms, "
                  f"wall-clock p50 {statistics.median(wall):.4f} s, set-up {own_setup:.3f} s); "
                  f"tail = p{pct:.1f} of {n} jobs (10 beyond); "
                  f"set-up samples {', '.join(f'{s:.3f}' for s in setups)} s; "
                  f"error_share {errors / attempted:.4f}, wrong_verdict_share {wrong / attempted:.4f}")
            out_metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": wrong == 0 and errors == 0, "attempted": attempted,
                      "failed": failed, "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
