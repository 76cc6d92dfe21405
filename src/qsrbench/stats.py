"""Sweep statistics over generated benchmark instances.

Two standard sweeps drive the difficulty analysis: object count ``n`` rising
with ``m = n - 1`` story constraints, and constraint count ``m`` rising at
fixed ``n = 5``.  For every (setting, grid size, n, m) cell this module
generates instances, probes all nine candidate directions for the query
pair, and aggregates the outcome mix (no / single / multiple feasible
answers) together with search-effort numbers.

Each room's story is solved by the generator (its fixpoint, base solve and,
when the story is Sat, gold probe), by :func:`probe_directions` (nine
probes, which give the outcome mix) and three more times by
:func:`time_cells` (the timed base solves).  Effort is reported
three ways per cell: the base solve's nodes and backtracks; the cost of
probing all nine directions (what a find-relation grader pays); and the
cost of the single gold-direction probe (what a yes/no check pays on the
same network).

Base-solve times are taken by :func:`time_cells` for all cells of one sweep
together, visiting the cells round-robin, so a change in machine speed
during the sweep lands on every cell alike instead of on whichever cell was
running at the time.
"""
from __future__ import annotations

import csv
import gc
import io
import statistics
from dataclasses import dataclass, field

from .calculus import ViewFrame
from .netgen import GenConfig, QType, Setting, generate_dataset
from .network import ConstraintNetwork
from .solver import Verdict, probe_directions, solve

#: object-count sweep: n rises, m = n - 1
N_SWEEP: tuple[int, ...] = (3, 4, 5, 6, 7)
#: constraint-count sweep: m rises at fixed n = 5
M_SWEEP: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9)
M_SWEEP_N = 5
#: grid sizes (cell counts) the standard report covers
D_VALUES: tuple[int, ...] = (81, 144)

CSV_HEADER: tuple[str, ...] = (
    "sweep",
    "setting",
    "d",
    "n",
    "m",
    "count",
    "no",
    "single",
    "multiple",
    "no_rate",
    "mean_time",
    "std_time",
    "mean_nodes",
    "mean_backtracks",
    "mean_fr_nodes",
    "mean_yn_nodes",
)


@dataclass
class CellStats:
    """Aggregated solver behaviour for one sweep cell."""

    sweep: str
    setting: Setting
    d: int
    n: int
    m: int
    count: int = 0
    no_count: int = 0
    single_count: int = 0
    multiple_count: int = 0
    mean_time: float = 0.0
    std_time: float = 0.0
    mean_nodes: float = 0.0
    mean_backtracks: float = 0.0
    mean_fr_nodes: float = 0.0
    mean_yn_nodes: float = 0.0
    #: the rooms' networks, kept until :func:`time_cells` times their base solves
    networks: list[ConstraintNetwork] = field(default_factory=list, repr=False)

    @property
    def no_rate(self) -> float:
        return self.no_count / self.count if self.count else 0.0

    def row(self) -> list[str]:
        return [
            self.sweep,
            self.setting.value,
            str(self.d),
            str(self.n),
            str(self.m),
            str(self.count),
            str(self.no_count),
            str(self.single_count),
            str(self.multiple_count),
            f"{self.no_rate:.4f}",
            f"{self.mean_time:.6f}",
            f"{self.std_time:.6f}",
            f"{self.mean_nodes:.2f}",
            f"{self.mean_backtracks:.2f}",
            f"{self.mean_fr_nodes:.2f}",
            f"{self.mean_yn_nodes:.2f}",
        ]


@dataclass
class StatsReport:
    """All cells of a sweep run, in a stable row order."""

    master_seed: int
    rooms_per_cell: int
    rows: list[CellStats] = field(default_factory=list)

    def cells(self, setting: Setting, d: int | None = None) -> list[CellStats]:
        return [
            r
            for r in self.rows
            if r.setting is setting and (d is None or r.d == d)
        ]

    def pooled_no_rate(self, setting: Setting, d: int) -> float:
        picked = self.cells(setting, d)
        total = sum(r.count for r in picked)
        no = sum(r.no_count for r in picked)
        return no / total if total else 0.0


def measure_cell(master_seed: int, rooms: int, config: GenConfig, sweep: str) -> CellStats:
    """Generate ``rooms`` instances for one cell, classify each room by its
    nine direction probes and aggregate their effort.

    The nine directions partition every cell pair, so a room with no
    feasible direction is exactly one whose story is Unsat.  The cell's
    solve times and base-solve effort stay zero until :func:`time_cells`
    is run on it.
    """
    build = generate_dataset(master_seed, rooms, config)
    cell = CellStats(
        sweep=sweep, setting=config.setting, d=config.d, n=config.n, m=config.m
    )
    fr_nodes: list[int] = []
    yn_nodes: list[int] = []
    for inst in build.instances:
        cell.networks.append(inst.network)
        pair = (inst.query.subject, inst.query.reference)
        probes = probe_directions(inst.network, pair)
        fr_nodes.append(sum(p.stats.nodes for p in probes.values()))
        yn_nodes.append(probes[inst.gold_direction].stats.nodes)

        cell.count += 1
        feasible = sum(1 for p in probes.values() if p.verdict is Verdict.SAT)
        if feasible == 0:
            cell.no_count += 1
        elif feasible == 1:
            cell.single_count += 1
        else:
            cell.multiple_count += 1

    if fr_nodes:
        cell.mean_fr_nodes = statistics.fmean(fr_nodes)
        cell.mean_yn_nodes = statistics.fmean(yn_nodes)
    return cell


def time_cells(cells: list[CellStats]) -> None:
    """Set each cell's solve-time mean and spread from the fastest of three
    timed base solves per room, and its base-solve effort, then drop the
    cells' networks.

    The three runs are three passes, each visiting room i of every cell
    before room i + 1, so cells timed together share the machine's speed.
    The search is deterministic, so every pass takes the same nodes and
    backtracks and the minimum strips scheduler spikes; the cyclic garbage
    collector is paused while timing, as ``timeit`` does, so no collection
    of the caller's objects lands inside a sub-millisecond solve.
    """
    fastest = [[float("inf")] * len(cell.networks) for cell in cells]
    effort = [[(0, 0)] * len(cell.networks) for cell in cells]
    rounds = max((len(cell.networks) for cell in cells), default=0)
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(3):
            for i in range(rounds):
                for cell, times, counts in zip(cells, fastest, effort):
                    if i < len(times):
                        stats = solve(cell.networks[i], solution_cap=2).stats
                        times[i] = min(times[i], stats.elapsed)
                        counts[i] = (stats.nodes, stats.backtracks)
    finally:
        if collecting:
            gc.enable()
    for cell, times, counts in zip(cells, fastest, effort):
        if times:
            cell.mean_time = statistics.fmean(times)
            cell.std_time = statistics.pstdev(times)
            cell.mean_nodes = statistics.fmean(n for n, _ in counts)
            cell.mean_backtracks = statistics.fmean(b for _, b in counts)
        cell.networks = []


def run_sweeps(
    master_seed: int,
    rooms_per_cell: int = 100,
    settings: tuple[Setting, ...] = tuple(Setting),
    d_values: tuple[int, ...] = D_VALUES,
) -> StatsReport:
    """Run both standard sweeps for every requested setting and grid size."""
    report = StatsReport(master_seed=master_seed, rooms_per_cell=rooms_per_cell)
    for setting in settings:
        for d in d_values:
            for sweep, shapes in (
                ("n", [(n, n - 1) for n in N_SWEEP]),
                ("m", [(M_SWEEP_N, m) for m in M_SWEEP]),
            ):
                configs = [
                    GenConfig(n, d, m, setting, ViewFrame.TOP_DOWN, QType.FR) for n, m in shapes
                ]
                cells = [measure_cell(master_seed, rooms_per_cell, c, sweep) for c in configs]
                time_cells(cells)
                report.rows.extend(cells)
    return report


def report_to_csv(report: StatsReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in report.rows:
        writer.writerow(row.row())
    return buf.getvalue()
