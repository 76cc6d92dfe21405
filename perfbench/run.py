"""qsrbench benchmark: one workload, one seed, one JSON result line.

Usage, from the repository root:

    python3 perfbench/run.py --workload gen-yn --seed 0 --seconds 25 --trace 0

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` the per-layer metrics of a separate traced replay.
``--workload all`` runs every workload in turn.  Each workload runs in
fresh processes (``worker.py``), because the solver's relation tables are
module-global caches: a shared process would let workload order leak into
set-up time.  Set-up is timed from process start to the first timed item,
in ``SETUP_SAMPLES`` fresh processes, and the median is reported; times are
in reference-machine seconds (see ``probe.py``).  The last stdout line is
the result; the line before it holds run information (rounds,
fingerprints, raw wall times, environment).  The exit code is non-zero when
an output check fails or the program cannot run.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic, time

from probe import SETUP_PROBES, speed_probe, to_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gen-yn", "eval-grade-fr", "sweep-std", "gen-fr-d576")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0


def run_worker(args, mode: str, work: Path, deadline: float) -> tuple[float, float, dict | None]:
    """Start one worker and wait for it.

    Returns the set-up time in wall seconds and in reference seconds (scaled
    by the median of speed probes just before the start and just after
    set-up), and the result line in measure mode.
    """
    argv = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mode", mode, "--work", str(work),
    ]
    probes = [speed_probe() for _ in range(SETUP_PROBES)]
    started = time()
    proc = subprocess.run(
        argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - monotonic()),
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} worker exited {proc.returncode}")
    setup_s = json.loads(lines[0])["ready"] - started
    result = json.loads(lines[-1])
    probes += result["probes" if mode == "setup" else "setup_probes_s"]
    return setup_s, to_reference(setup_s, statistics.median(probes)), (
        result if mode == "measure" else None
    )


def run_one(args) -> int:
    """Run one workload; print its information line and result line."""
    deadline = monotonic() + DEADLINE_S
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        samples, wall_samples = [], []
        for mode in ["setup"] * (0 if args.trace else SETUP_SAMPLES - 1) + ["measure"]:
            wall_s, ref_s, result = run_worker(args, mode, work, deadline)
            wall_samples.append(wall_s)
            samples.append(ref_s)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"run.py: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    metrics = result["metrics"]
    correct = not result["problems"]
    attempted = result["attempted"]
    failed = result["failed"] if correct else attempted
    if args.trace:
        units = {k: _layer_unit(k) for k in metrics}
    else:
        metrics["setup_s"] = statistics.median(samples)
        metrics["ok_frac"] = 1 - failed / attempted
        units = {"items_per_ref_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "frac"}
    info = dict(result["info"], workload=args.workload, seed=args.seed,
                setup_wall_s=[round(s, 4) for s in wall_samples],
                setup_ref_s=[round(s, 4) for s in samples], problems=result["problems"])
    print(json.dumps({"info": info}))
    for problem in result["problems"]:
        print(f"run.py: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in sorted(metrics.items())},
    }), flush=True)
    return 0 if correct else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "qsrbench" / "__init__.py").is_file():
        print(f"run.py: no qsrbench sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload != "all":
        return run_one(args)
    status = 0
    for name in WORKLOADS:
        status |= run_one(argparse.Namespace(**{**vars(args), "workload": name}))
    return status


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bytes_read") or name.endswith("bytes_written"):
        return "B"
    if name.endswith(("_ratio", "_frac", "_per_answer")):
        return "frac"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
