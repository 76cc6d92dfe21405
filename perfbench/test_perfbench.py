"""Self-checks of the benchmark's tracer and workloads.

They run shrunken rounds of three workloads in-process (``gen-fr-d576``
differs from ``gen-yn`` only in its grid, whose table build alone takes
seconds, so it is left to the benchmark runs).
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import qsrbench.cli  # noqa: E402,F401
import tracer as tr  # noqa: E402
import workloads as wl  # noqa: E402
from worker import run_round  # noqa: E402


def small(name: str) -> wl.Workload:
    if name == "gen-yn":
        return wl.Generate("gen-yn", "YN", "O2+D2", 144, count=12, trace_rounds=1)
    if name == "eval-grade-fr":
        w = wl.EvalGrade()
        w.items, w.chunks = 24, 1
        return w
    return wl.WORKLOADS[name]


# spans each workload must record: the layers it runs
EXPECTED_SPANS = {
    "gen-yn": {
        "cli.main", "netgen.generate_dataset", "netgen.instance", "netgen.attempt",
        "scene.sample", "scene.extract", "textgen.render", "dataio.write", "dataio.read",
        "solve@netgen",
    },
    "eval-grade-fr": {
        "cli.main", "dataio.read", "dataio.write", "evalharness.run_eval",
        "evalharness.parse", "textgen.render", "grade.grade", "grade.aggregate", "solve@grade",
    },
    "sweep-std": {
        "cli.main", "stats.run_sweeps", "stats.cell", "stats.probe", "solve@stats",
        "solve@solver", "netgen.generate_dataset", "netgen.instance", "solve@netgen",
    },
}

DETERMINISTIC = ("solver.calls", "solver.nodes", "solver.backtracks", "solver.sat_calls",
                 "solver.unsat_calls", "solver.unsat_nodes", "netgen.attempts",
                 "netgen.instances", "stats.cells", "stats.probe_calls", "stats.probe_nodes",
                 "grade.calls", "dataio.bytes_read", "dataio.bytes_written")


@pytest.mark.parametrize("name", sorted(EXPECTED_SPANS))
def test_traced_run_matches_untraced_and_repeats(name, tmp_path):
    workload = small(name)
    wl.warm_tables(workload)
    workload.prepare(tmp_path, 3)
    _, plain = run_round(workload, tmp_path, 3, 0)
    assert not plain.problems and plain.failed == 0

    counters = []
    for _ in range(2):
        with tr.Tracer() as tracer:
            _, traced = run_round(workload, tmp_path, 3, 0)
        assert tracer.missing == []
        assert (traced.fingerprint, traced.items, traced.failed) == (
            plain.fingerprint, plain.items, plain.failed
        )
        assert EXPECTED_SPANS[name] <= {span[tr.NAME] for span in tracer.spans}
        metrics = tr.layer_metrics(tracer.spans)
        counters.append({k: metrics[k] for k in DETERMINISTIC})
    assert counters[0] == counters[1]
    assert counters[0]["solver.calls"] > 0


def test_tracer_restores_every_hook():
    import importlib

    before = {(m, a): getattr(importlib.import_module(m), a) for m, a, _ in tr.HOOKS}
    with tr.Tracer():
        patched = {(m, a): getattr(sys.modules[m], a) for m, a, _ in tr.HOOKS}
    assert all(patched[k] is not before[k] for k in before)
    # the package attribute `qsrbench.grade` is a function; the module is patched
    assert callable(sys.modules["qsrbench"].grade)
    assert {(m, a): getattr(sys.modules[m], a) for m, a, _ in tr.HOOKS} == before


def test_self_time_subtracts_direct_children():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["netgen.generate_dataset", 1.0, 9.0, 0, None],
        ["netgen.instance", 2.0, 5.0, 1, None],
        ["solve@netgen", 3.0, 4.0, 2, (False, 7, 6)],
        ["solve@netgen", 6.0, 8.0, 1, (True, 5, 0)],
    ]
    m = tr.layer_metrics(spans)
    assert m["cli.self_s"] == 2.0
    assert m["netgen.self_s"] == (8.0 - 3.0 - 2.0) + (3.0 - 1.0)
    assert m["netgen.count_solve_s"] == 2.0
    assert (m["solver.calls"], m["solver.unsat_calls"], m["solver.unsat_nodes"]) == (2, 1, 7)
    assert m["solver.unsat_s"] == 1.0
    assert m["netgen.instance_p50_ms"] == 3000.0


def test_layer_metrics_cover_the_declared_per_layer_metrics():
    from run import _layer_unit

    declared = {
        m["name"]: m["unit"]
        for m in json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    }
    added_by_worker = {"solver.table_build_s", "solver.tables_built", "trace.overhead_frac"}
    assert set(tr.layer_metrics([])) | added_by_worker == set(declared)
    assert {name: _layer_unit(name) for name in declared} == declared
