"""One benchmark process: set up one workload, then (unless only timing
set-up) run its rounds and print one JSON result line.

Started by ``run.py``; not meant to be run by hand.  Protocol on stdout:
a ``{"ready": <unix time>}`` line when set-up is done, then, in measure
mode, a result line.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter, time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from tracer import Tracer, layer_metrics  # noqa: E402
from probe import SETUP_PROBES, speed_probe, to_reference  # noqa: E402
from workloads import WORKLOADS, RoundResult, combined_fingerprint, run_cli, warm_tables  # noqa: E402

#: the seed whose first-rotation fingerprints are pinned in fingerprints.json
PINNED_SEED = 0


def run_round(workload, work: Path, seed: int, r: int) -> tuple[float, RoundResult]:
    """Run round ``r``; only the CLI calls are timed, the checks are not."""
    gc.collect()
    stdouts: list[str] = []
    start = perf_counter()
    for argv in workload.commands(work, seed, r):
        rc, out = run_cli(argv)
        if rc != 0:
            elapsed = perf_counter() - start
            return elapsed, RoundResult(
                workload.items, workload.items, f"exit:{argv[0]}:{rc}", [f"{argv[0]} exited {rc}"]
            )
        stdouts.append(out)
    elapsed = perf_counter() - start
    return elapsed, workload.check(work, r, stdouts)


def environment() -> dict[str, object]:
    import numpy

    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            commit = ref
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--mode", choices=("setup", "measure"), required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args()

    import qsrbench.cli  # noqa: F401  (the import is part of set-up)

    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    table_s, tables = warm_tables(workload)
    workload.prepare(work, args.seed)
    print(json.dumps({"ready": time()}), flush=True)
    # machine speed right after set-up, for scaling the set-up time
    ready_probes = [speed_probe() for _ in range(SETUP_PROBES)]
    if args.mode == "setup":
        print(json.dumps({"probes": ready_probes}), flush=True)
        return 0

    problems: list[str] = []
    timed: list[tuple[float, RoundResult]] = []
    if args.trace:
        # alternate untraced and traced replays of each round, so drift in
        # machine speed does not land on one side of the overhead estimate
        tracer = Tracer()
        traced = []
        for r in range(workload.trace_rounds):
            timed.append(run_round(workload, work, args.seed, r))
            with tracer:
                traced.append(run_round(workload, work, args.seed, r))
        if [res.fingerprint for _, res in traced] != [res.fingerprint for _, res in timed]:
            problems.append("traced rounds differ from the untraced rounds")
        problems += [p for _, res in traced for p in res.problems]
        untraced_s = sum(t for t, _ in timed)
        metrics = layer_metrics(tracer.spans)
        metrics["solver.table_build_s"] = table_s
        metrics["solver.tables_built"] = tables
        metrics["trace.overhead_frac"] = sum(t for t, _ in traced) / untraced_s - 1
        extra = {"missing_hooks": tracer.missing, "spans": len(tracer.spans)}
    else:
        # a probe before the first round and one after every round
        probes = [ready_probes[-1]]
        elapsed, r = 0.0, 0
        while elapsed < args.seconds or r % workload.rotation:
            timed.append(run_round(workload, work, args.seed, r))
            probes.append(speed_probe())
            elapsed += timed[-1][0]
            r += 1
        # the median round of each kind, so one rare costly input or one
        # slow moment of the machine does not decide the run
        ref_s = [to_reference(t, (probes[i] + probes[i + 1]) / 2) for i, (t, _) in enumerate(timed)]
        kinds = range(workload.rotation)
        typical_s = sum(statistics.median(ref_s[k::workload.rotation]) for k in kinds)
        metrics = {
            "items_per_ref_s": workload.items * workload.rotation / typical_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        extra = {
            "items_per_wall_s": sum(res.items for _, res in timed) / elapsed,
            "probe_s": [round(p, 5) for p in probes],
        }

    for _, res in timed:
        problems += res.problems
    first = timed[0][1]
    fingerprint = combined_fingerprint([res.fingerprint for _, res in timed[:workload.rotation]])
    if args.seed == PINNED_SEED:
        pinned = json.loads((HERE / "fingerprints.json").read_text())[workload.name]
        if fingerprint != pinned:
            problems.append(f"first-rotation fingerprint {fingerprint} != pinned {pinned}")
    result = {
        "attempted": sum(res.items for _, res in timed),
        "failed": sum(res.failed for _, res in timed),
        "problems": problems,
        "metrics": metrics,
        "setup_probes_s": ready_probes,
        "info": {
            "rounds": len(timed),
            "round_s": [round(t, 4) for t, _ in timed],
            "fingerprint": fingerprint,
            **first.info,
            **extra,
            "env": environment(),
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
