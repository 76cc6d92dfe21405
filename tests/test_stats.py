"""Tests for sweep statistics aggregation."""

from __future__ import annotations

import csv
import hashlib
import io

import pytest

from qsrbench.calculus import ViewFrame
from qsrbench.netgen import GenConfig, QType, Setting
from qsrbench.stats import (
    CSV_HEADER,
    M_SWEEP,
    M_SWEEP_N,
    N_SWEEP,
    CellStats,
    StatsReport,
    measure_cell,
    report_to_csv,
    run_sweeps,
    time_cells,
)

import qsrbench.stats as stats


@pytest.fixture(scope="module")
def small_report():
    return run_sweeps(
        master_seed=2,
        rooms_per_cell=5,
        settings=(Setting.O2, Setting.O2_D3),
        d_values=(81,),
    )


@pytest.fixture(scope="module")
def cell():
    cfg = GenConfig(
        n=4,
        d=81,
        m=3,
        setting=Setting.O2_D3,
        view=ViewFrame.TOP_DOWN,
        qtype=QType.FR,
    )
    cell = measure_cell(master_seed=2, rooms=6, config=cfg, sweep="n")
    time_cells([cell])
    return cell


class TestMeasureCell:
    def test_outcome_counts_partition_cell(self, cell):
        assert cell.count == 6
        assert cell.no_count + cell.single_count + cell.multiple_count == 6

    def test_no_rate(self, cell):
        assert cell.no_rate == pytest.approx(cell.no_count / 6)

    def test_fr_probe_cost_dominates_yn(self, cell):
        # The gold-direction probe is one of the nine find-relation probes.
        assert cell.mean_fr_nodes >= cell.mean_yn_nodes

    def test_effort_fields_positive(self, cell):
        assert cell.mean_time > 0
        assert cell.mean_nodes > 0

    def test_empty_cell_is_all_zero(self):
        cfg = GenConfig(
            n=3,
            d=81,
            m=2,
            setting=Setting.O2,
            view=ViewFrame.TOP_DOWN,
            qtype=QType.FR,
        )
        cell = measure_cell(master_seed=2, rooms=0, config=cfg, sweep="n")
        assert cell.count == 0
        assert cell.no_rate == 0.0
        assert cell.mean_time == 0.0


class TestTimeCells:
    def test_cells_are_timed_round_robin(self, monkeypatch):
        cfg = GenConfig(
            n=3, d=81, m=2, setting=Setting.O2, view=ViewFrame.TOP_DOWN, qtype=QType.FR
        )
        cells = [measure_cell(master_seed=s, rooms=3, config=cfg, sweep="n") for s in (2, 3)]
        assert all(c.mean_time == 0.0 and len(c.networks) == 3 for c in cells)
        owner = {id(nw): (k, i) for k, c in enumerate(cells) for i, nw in enumerate(c.networks)}
        visits = []
        solve = stats.solve

        def recording(network, solution_cap=2):
            visits.append(owner[id(network)])
            return solve(network, solution_cap)

        monkeypatch.setattr(stats, "solve", recording)
        time_cells(cells)
        one_pass = [(k, i) for i in range(3) for k in range(2)]
        assert visits == one_pass * 3
        assert all(c.mean_time > 0 and c.networks == [] for c in cells)


class TestRunSweeps:
    def test_row_grid_is_complete(self, small_report):
        # Two settings, one grid size, both sweeps.
        per_setting = len(N_SWEEP) + len(M_SWEEP)
        assert len(small_report.rows) == 2 * per_setting
        for setting in (Setting.O2, Setting.O2_D3):
            rows = small_report.cells(setting, 81)
            n_rows = [r for r in rows if r.sweep == "n"]
            m_rows = [r for r in rows if r.sweep == "m"]
            assert [(r.n, r.m) for r in n_rows] == [(n, n - 1) for n in N_SWEEP]
            assert [(r.n, r.m) for r in m_rows] == [(M_SWEEP_N, m) for m in M_SWEEP]

    def test_every_cell_counts_rooms(self, small_report):
        assert all(r.count == 5 for r in small_report.rows)

    def test_cells_filter(self, small_report):
        assert small_report.cells(Setting.O2_D2) == []
        o2 = small_report.cells(Setting.O2)
        assert all(r.setting is Setting.O2 for r in o2)

    def test_pooled_no_rate_matches_manual_pool(self, small_report):
        rows = small_report.cells(Setting.O2_D3, 81)
        expected = sum(r.no_count for r in rows) / sum(r.count for r in rows)
        assert small_report.pooled_no_rate(Setting.O2_D3, 81) == pytest.approx(
            expected
        )

    def test_pooled_no_rate_empty_selection(self, small_report):
        assert small_report.pooled_no_rate(Setting.TPP, 81) == 0.0

    def test_fr_cost_at_least_yn_cost_everywhere(self, small_report):
        assert all(r.mean_fr_nodes >= r.mean_yn_nodes for r in small_report.rows)

    def test_deterministic(self):
        kwargs = dict(
            master_seed=2,
            rooms_per_cell=3,
            settings=(Setting.O2,),
            d_values=(81,),
        )
        a = run_sweeps(**kwargs)
        b = run_sweeps(**kwargs)
        assert [r.row()[:10] for r in a.rows] == [r.row()[:10] for r in b.rows]

    def test_non_timing_columns_are_pinned(self):
        # every column but the two timing ones; measured when measure_cell
        # still base-solved each room itself, so it also pins the effort
        # columns time_cells now fills
        rows = list(csv.reader(io.StringIO(report_to_csv(
            run_sweeps(0, rooms_per_cell=3, d_values=(81,))
        ))))
        timing = {CSV_HEADER.index("mean_time"), CSV_HEADER.index("std_time")}
        text = "".join(
            ",".join(v for i, v in enumerate(row) if i not in timing) + "\n" for row in rows
        )
        assert len(rows) == 1 + len(Setting) * (len(N_SWEEP) + len(M_SWEEP))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "1e08759bda465f2a5b6c1deded4893019de3957ffc40951339816d463bdaf1b9"
        )


class TestCsvExport:
    def test_header_and_shape(self, small_report):
        text = report_to_csv(small_report)
        rows = list(csv.reader(io.StringIO(text)))
        assert tuple(rows[0]) == CSV_HEADER
        assert len(rows) == 1 + len(small_report.rows)
        assert all(len(r) == len(CSV_HEADER) for r in rows[1:])

    def test_row_values_round_trip(self, small_report):
        text = report_to_csv(small_report)
        parsed = list(csv.DictReader(io.StringIO(text)))
        first = parsed[0]
        cell = small_report.rows[0]
        assert first["sweep"] == cell.sweep
        assert first["setting"] == cell.setting.value
        assert int(first["count"]) == cell.count
        assert float(first["no_rate"]) == pytest.approx(cell.no_rate, abs=1e-4)

    def test_row_formatting(self):
        cell = CellStats(
            sweep="n", setting=Setting.O2, d=81, n=3, m=2, count=4, no_count=1
        )
        row = cell.row()
        assert row[0] == "n"
        assert row[1] == "O2"
        assert row[9] == "0.2500"
