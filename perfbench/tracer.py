"""Outside-in span tracer for the qsrbench layers.

The tracer never edits the program.  It replaces public functions at the
module attribute their caller looks them up through, records one span per
call (name, start, end, parent) in memory, and restores the originals on
exit.  Per-layer metrics are computed from the spans afterwards.

Two lookups need care:

* ``netgen``, ``grade`` and ``stats`` each import ``solve`` by name, and
  ``solver.probe_directions`` calls ``solver.solve``; each binding is
  patched on its own and named after the caller (``solve@netgen`` ...).
* the package attribute ``qsrbench.grade`` is the re-exported *function*,
  so modules are always resolved through ``sys.modules``.
"""
from __future__ import annotations

import os
import sys
from time import perf_counter

# (module, attribute, span name): every hook the tracer installs.
HOOKS: tuple[tuple[str, str, str], ...] = (
    ("qsrbench.cli", "main", "cli.main"),
    # netgen
    ("qsrbench.cli", "generate_dataset", "netgen.generate_dataset"),
    ("qsrbench.stats", "generate_dataset", "netgen.generate_dataset"),
    ("qsrbench.netgen", "build_instance", "netgen.instance"),
    ("qsrbench.netgen", "select_objects", "netgen.attempt"),
    # scene and textgen, as netgen and evalharness call them
    ("qsrbench.netgen", "sample_scene", "scene.sample"),
    ("qsrbench.netgen", "extract_unary", "scene.extract"),
    ("qsrbench.netgen", "extract_binary", "scene.extract"),
    ("qsrbench.netgen", "render_story", "textgen.render"),
    ("qsrbench.netgen", "render_question", "textgen.render"),
    ("qsrbench.evalharness", "render_prompt", "textgen.render"),
    # dataio, as the CLI calls it
    ("qsrbench.cli", "write_dataset", "dataio.write"),
    ("qsrbench.cli", "write_eval_records", "dataio.write"),
    ("qsrbench.cli", "write_json", "dataio.write"),
    ("qsrbench.cli", "read_dataset", "dataio.read"),
    ("qsrbench.cli", "read_answers", "dataio.read"),
    ("qsrbench.cli", "dataset_sha256", "dataio.read"),
    # evalharness and grade
    ("qsrbench.cli", "run_eval", "evalharness.run_eval"),
    ("qsrbench.cli", "parse_answer", "evalharness.parse"),
    ("qsrbench.evalharness", "parse_answer", "evalharness.parse"),
    ("qsrbench.cli", "grade", "grade.grade"),
    ("qsrbench.evalharness", "grade", "grade.grade"),
    ("qsrbench.cli", "aggregate", "grade.aggregate"),
    ("qsrbench.evalharness", "aggregate", "grade.aggregate"),
    # stats
    ("qsrbench.cli", "run_sweeps", "stats.run_sweeps"),
    ("qsrbench.stats", "measure_cell", "stats.cell"),
    ("qsrbench.stats", "probe_directions", "stats.probe"),
    # every binding of the solver's entry point
    ("qsrbench.solver", "solve", "solve@solver"),
    ("qsrbench.netgen", "solve", "solve@netgen"),
    ("qsrbench.grade", "solve", "solve@grade"),
    ("qsrbench.stats", "solve", "solve@stats"),
)

# span fields
NAME, START, END, PARENT, INFO = range(5)


def _solve_info(args, kwargs, outcome):
    return (outcome.verdict.value == "Sat", outcome.stats.nodes, outcome.stats.backtracks)


def _path_bytes(args, kwargs, result):
    path = args[0] if args else kwargs.get("path")
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _info_for(span_name: str):
    if span_name.startswith("solve@"):
        return _solve_info
    if span_name.startswith("dataio."):
        return _path_bytes
    return None


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, info=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter()
                stack.pop()
            if info is not None:
                span[INFO] = info(args, kwargs, result)
            return result

        return traced

    def __enter__(self) -> "Tracer":
        self.missing = []
        for module_name, attr, span_name in HOOKS:
            module = sys.modules.get(module_name)
            if module is None or not callable(getattr(module, attr, None)):
                self.missing.append(f"{module_name}.{attr}")
                continue
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(span_name, original, _info_for(span_name)))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


def _quantile_ms(durations: list[float], q: float) -> float:
    """Nearest-rank quantile of ``durations`` (seconds), in milliseconds."""
    if not durations:
        return 0.0
    ordered = sorted(durations)
    rank = max(1, -(-len(ordered) * q // 1))  # ceil(n * q), at least 1
    return ordered[int(rank) - 1] * 1e3


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times from a list of spans.

    Self time is a span's duration minus the durations of its direct
    children.  A solve is attributed to the layer named after its binding
    (``solve@netgen`` to netgen, ...); netgen's count solve is the one
    ``generate_dataset`` runs outside ``build_instance``, and stats' probe
    solves are the ``solver.solve`` calls under ``stats.probe``.
    """
    dur = [s[END] - s[START] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            child[s[PARENT]] += dur[i]
    self_t = [d - c for d, c in zip(dur, child)]

    def parent_name(i: int) -> str:
        p = spans[i][PARENT]
        return spans[p][NAME] if p >= 0 else ""

    out: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0) + value

    keys = (
        "solver.calls", "solver.nodes", "solver.backtracks", "solver.sat_calls",
        "solver.unsat_calls", "solver.unsat_nodes", "solver.self_s", "solver.unsat_s",
        "netgen.instances", "netgen.attempts", "netgen.self_s", "netgen.solve_s",
        "netgen.solve_nodes", "netgen.count_solve_s", "scene.sample_s", "scene.extract_s",
        "textgen.render_s", "dataio.read_s", "dataio.write_s", "dataio.bytes_read",
        "dataio.bytes_written", "evalharness.parse_s", "evalharness.self_s", "grade.calls",
        "grade.self_s", "grade.solve_s", "grade.aggregate_s", "stats.cells",
        "stats.probe_calls", "stats.probe_nodes", "stats.probe_s", "stats.base_solve_s",
        "cli.self_s",
    )
    for key in keys:
        out[key] = 0
    grade_solves = 0
    instance_durations: list[float] = []

    for i, s in enumerate(spans):
        name = s[NAME]
        layer = name.split(".", 1)[0]
        if name.startswith("solve@"):
            sat, nodes, backtracks = s[INFO]
            add("solver.calls", 1)
            add("solver.nodes", nodes)
            add("solver.backtracks", backtracks)
            add("solver.self_s", self_t[i])
            if sat:
                add("solver.sat_calls", 1)
            else:
                add("solver.unsat_calls", 1)
                add("solver.unsat_nodes", nodes)
                add("solver.unsat_s", dur[i])
            caller = name[len("solve@"):]
            if caller == "netgen":
                add("netgen.solve_s", dur[i])
                add("netgen.solve_nodes", nodes)
                if parent_name(i) == "netgen.generate_dataset":
                    add("netgen.count_solve_s", dur[i])
            elif caller == "grade":
                add("grade.solve_s", dur[i])
                grade_solves += 1
            elif caller == "stats":
                add("stats.base_solve_s", dur[i])
            elif parent_name(i) == "stats.probe":
                add("stats.probe_calls", 1)
                add("stats.probe_nodes", nodes)
                add("stats.probe_s", dur[i])
            continue
        if layer in ("netgen", "evalharness", "grade", "cli"):
            add(f"{layer}.self_s", self_t[i])
        if name == "netgen.instance":
            add("netgen.instances", 1)
            instance_durations.append(dur[i])
        elif name == "netgen.attempt":
            add("netgen.attempts", 1)
        elif name == "scene.sample":
            add("scene.sample_s", dur[i])
        elif name == "scene.extract":
            add("scene.extract_s", dur[i])
        elif name == "textgen.render":
            add("textgen.render_s", dur[i])
        elif name == "dataio.read":
            add("dataio.read_s", dur[i])
            add("dataio.bytes_read", s[INFO])
        elif name == "dataio.write":
            add("dataio.write_s", dur[i])
            add("dataio.bytes_written", s[INFO])
        elif name == "evalharness.parse":
            add("evalharness.parse_s", dur[i])
        elif name == "grade.grade":
            add("grade.calls", 1)
        elif name == "grade.aggregate":
            add("grade.aggregate_s", dur[i])
        elif name == "stats.cell":
            add("stats.cells", 1)

    out["netgen.accept_ratio"] = (
        out["netgen.instances"] / out["netgen.attempts"] if out["netgen.attempts"] else 0.0
    )
    out["netgen.instance_p50_ms"] = _quantile_ms(instance_durations, 0.50)
    out["netgen.instance_p99_ms"] = _quantile_ms(instance_durations, 0.99)
    out["grade.solves_per_answer"] = (
        grade_solves / out["grade.calls"] if out["grade.calls"] else 0.0
    )
    return out
