"""Record the parameter pools and the exact-output digest of every job.

    python3 perfbench/record.py [--keep-main]

Writes ``perfbench/golden.json``, with each entry's main pool sorted by the
time its jobs took here. Run it from the root of a checkout, on the
commit whose outputs the benchmark should guard; it takes several minutes.
``--keep-main`` keeps the pools and digests of verify-docs and catalog-sweep
from the current ``golden.json`` and records horizon-warm only.

horizon-warm has one parameter set per entry: with four, the seed's choice
among them moved a run's tail time by 20%. Choosing the four by recorded
cost did not help, since two recordings of one set differed by up to 27%.

A job whose verdict differs from its known answer is listed and recorded
as computed, so the benchmark keeps reporting it as a wrong verdict.
"""

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from run import ref_kernel_seconds, scaled  # noqa: E402

POOL_SEED = 20231127
MAIN_POOL = 40
HORIZON_POOL = 1


def run_group(key, group, work, schema, digests, mismatched, costs):
    """Set up from empty caches, run every job of ``group`` and record its
    digest; returns the job times, scaled to the reference machine as the
    benchmark scales them."""
    wl.reset_program_caches()
    session = wl.SESSIONS[key[0]](group, work)
    wall, refs = [], []
    for i, job in enumerate(group):
        refs.append(ref_kernel_seconds())
        t_job = time.perf_counter()
        result = session.call(i)
        wall.append(time.perf_counter() - t_job)
        out = session.judge(i, result, schema)
        digests[job.key()] = wl.digest(out.payload)
        if out.error or out.verdict != (not job.mutant):
            mismatched.append(job.key())
            print(f"MISMATCH {job.key()}: verdict {out.verdict}, error {out.error}", flush=True)
    times = scaled(wall, refs)
    for job, cost in zip(group, times):
        costs.setdefault((job.workload, job.entry, job.kind, job.mutant), []).append(cost)
    return times


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--keep-main", action="store_true",
                   help="keep verify-docs and catalog-sweep from the current golden.json")
    args = p.parse_args(argv)
    rng = random.Random(POOL_SEED)
    pools = {"main": {}, "horizon": {}}
    rejected = {}
    for e in wl.ENTRIES:
        pools["main"][e], rejected[e] = wl.draw_pool(e, MAIN_POOL, rng)
    for e in wl.HORIZON_ENTRIES:
        pools["horizon"][e], more = wl.draw_pool(e, HORIZON_POOL, rng)
        rejected[e] = {k: n + more[k] for k, n in rejected[e].items()}
    digests, mismatched = {}, []
    work = ROOT / ".perfbench_out" / "record"
    costs = {}
    if args.keep_main:
        old = wl.load_golden()
        pools["main"] = old["pools"]["main"]
        digests = {k: v for k, v in old["digests"].items() if not k.startswith("horizon-warm|")}
        mismatched = [k for k in old["mismatched_at_recording"] if not k.startswith("horizon-warm|")]
    else:
        import jsonschema

        with open(ROOT / "src" / "mvop" / "data" / "report-schema.json", encoding="utf-8") as fh:
            schema = jsonschema.Draft7Validator(json.load(fh)).validate
        pool_cost = {}  # (entry, parameters) -> verify_entry time + document time
        main_jobs = wl.all_jobs({"main": pools["main"], "horizon": {e: [] for e in wl.HORIZON_ENTRIES}})
        for workload in ("catalog-sweep", "verify-docs"):
            group = [j for j in main_jobs if j.workload == workload]
            t = time.perf_counter()
            times = run_group((workload,), group, work, schema, digests, mismatched, costs)
            for job, cost in zip(group, times):
                if not job.mutant:
                    pool_cost[job.entry, job.params] = pool_cost.get((job.entry, job.params), 0.0) + cost
            print(f"{workload}: {len(group)} jobs in {time.perf_counter() - t:.1f} s", flush=True)
        for e in wl.ENTRIES:
            pools["main"][e].sort(key=lambda p: pool_cost[e, p])
    horizon_jobs = wl.all_jobs({"main": {e: [] for e in wl.ENTRIES}, "horizon": pools["horizon"]})
    for e in wl.HORIZON_ENTRIES:
        for params in pools["horizon"][e]:
            group = [j for j in horizon_jobs if (j.entry, j.params) == (e, params)]
            t = time.perf_counter()
            run_group(("horizon-warm",), group, work, None, digests, mismatched, costs)
            print(f"horizon-warm {e} {params}: {len(group)} jobs in {time.perf_counter() - t:.1f} s", flush=True)
    print("per-job seconds (workload, entry, kind, mutant): min / median / max")
    for k, ts in sorted(costs.items()):
        print(f"  {k}: {min(ts):.3f} / {statistics.median(ts):.3f} / {max(ts):.3f}")
    golden = {"pool_seed": POOL_SEED, "pools": pools, "rejected_draws": rejected,
              "mismatched_at_recording": mismatched, "digests": digests}
    with open(wl.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if mismatched else 0


if __name__ == "__main__":
    sys.exit(main())
