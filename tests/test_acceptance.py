"""Acceptance suite: the eight binding end-to-end checks for this package.

One test per criterion; each prints a single ``criterion N ...: PASS/FAIL``
line with the measured numbers, and every tolerance is pinned in the
assertion itself.  Heavy artifacts (the standard sweeps, the per-setting
soundness datasets) are computed once per session and shared.

All expected values are either exact (rational arithmetic, byte equality),
solver-verified, or carry an explicitly pinned tolerance; the master seed
for every generated artifact is 0 unless a second, different stream is
required, so reruns are machine-stable.
"""

from __future__ import annotations

import os
import random
import time
from pathlib import Path

import pytest

from qsrbench.calculus import (
    Band,
    Direction9,
    DistanceBand,
    DistanceScheme,
    Region9,
    TopoWall,
    ViewFrame,
)
from qsrbench.dataio import write_dataset, write_eval_records, write_json
from qsrbench.evalharness import (
    ModelEndpoint,
    gold_stub,
    random_stub,
    run_eval,
)
from qsrbench.grade import metrics_to_csv
from qsrbench.netgen import GenConfig, QType, Setting, generate_dataset
from qsrbench.network import Binary, ConstraintNetwork, Unary
from qsrbench.solver import Verdict, brute_force_solve, solve, tightness_table
from qsrbench.stats import run_sweeps
from qsrbench.textgen import parse_story, render_story

GOLDEN_DIR = Path(__file__).parent / "goldens"

MASTER_SEED = 0
ROOMS_PER_CELL = 100
SOUNDNESS_COUNT = 1000


def report(label: str, ok: bool, detail: str) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


# --- shared heavy artifacts ---------------------------------------------------


@pytest.fixture(scope="module")
def sweep():
    start = time.monotonic()
    rep = run_sweeps(MASTER_SEED, rooms_per_cell=ROOMS_PER_CELL)
    return rep, time.monotonic() - start


def _soundness_config(setting: Setting, qtype: QType) -> GenConfig:
    return GenConfig(
        n=5,
        d=144,
        m=4,
        setting=setting,
        view=ViewFrame.TOP_DOWN,
        qtype=qtype,
    )


@pytest.fixture(scope="module")
def soundness_builds():
    builds = {}
    for setting in Setting:
        yn = generate_dataset(
            MASTER_SEED, SOUNDNESS_COUNT, _soundness_config(setting, QType.YN)
        )
        fr = generate_dataset(
            MASTER_SEED, SOUNDNESS_COUNT, _soundness_config(setting, QType.FR)
        )
        builds[setting] = (yn, fr)
    return builds


# --- criterion 1: search equals exhaustive enumeration -------------------------


def _random_network(seed: int) -> ConstraintNetwork:
    rng = random.Random(seed)
    n = rng.choice([2, 3])
    names = ("the bed", "the desk", "the rug")[:n]
    unary: list[Unary] = []
    for name in names:
        if rng.random() < 0.5:
            unary.append(Unary(name, rng.choice(list(Region9))))
        if rng.random() < 0.4:
            unary.append(Unary(name, rng.choice(list(TopoWall))))
    binary: list[Binary] = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.6:
                binary.append(
                    Binary(names[j], rng.choice(list(Direction9)), names[i])
                )
            if rng.random() < 0.4:
                scheme = rng.choice(list(DistanceScheme))
                bands = (
                    [Band.CLOSE, Band.FAR]
                    if scheme is DistanceScheme.D2
                    else [Band.CLOSE, Band.MEDIUM, Band.FAR]
                )
                binary.append(
                    Binary(names[j], DistanceBand(scheme, rng.choice(bands)), names[i])
                )
    return ConstraintNetwork(
        variables=names, unary=tuple(unary), binary=tuple(binary), s=3, w=12.0
    )


def test_criterion_1_solver_oracle_equivalence():
    start = time.monotonic()
    agreements = 0
    for seed in range(500):
        network = _random_network(seed)
        searched = solve(network, solution_cap=None)
        enumerated = brute_force_solve(network)
        assert searched.verdict is enumerated.verdict, f"seed {seed}"
        assert searched.n_solutions == enumerated.n_solutions, f"seed {seed}"
        agreements += 1
    elapsed = time.monotonic() - start
    report(
        "criterion 1 solver-vs-enumeration",
        agreements == 500 and elapsed < 60.0,
        f"{agreements}/500 exact verdict+count matches in {elapsed:.1f}s (limit 60s)",
    )


# --- criterion 2: analytic tightness vs exhaustive measurement -----------------


def test_criterion_2_tightness_cross_check():
    exact_checked = 0
    worst_band_error = 0.0
    for d in (81, 144):
        for row in tightness_table(d):
            if ":" in row.kind:
                worst_band_error = max(worst_band_error, row.abs_error)
                assert row.abs_error <= 0.10, (row.kind, d, row.abs_error)
            else:
                assert row.analytic == row.empirical, (row.kind, d)
                exact_checked += 1
    report(
        "criterion 2 tightness",
        exact_checked == 42 and worst_band_error <= 0.10,
        f"{exact_checked} exact rational matches; worst distance-band error "
        f"{worst_band_error:.4f} (limit 0.10)",
    )


# --- criterion 3: difficulty trends over the standard sweeps -------------------


def _n_sweep_rate(rep, setting: Setting, d: int) -> float:
    rows = [r for r in rep.cells(setting, d) if r.sweep == "n"]
    return sum(r.no_count for r in rows) / sum(r.count for r in rows)


def test_criterion_3_sweep_trends(sweep):
    rep, elapsed = sweep

    layout_rate = _n_sweep_rate(rep, Setting.LAYOUT, 81)
    o2_rate = _n_sweep_rate(rep, Setting.O2, 81)
    ok_a = layout_rate <= 0.01 and o2_rate <= 0.01

    small = rep.pooled_no_rate(Setting.O2_D3, 81)
    large = rep.pooled_no_rate(Setting.O2_D3, 144)
    ok_b = small > large

    times = {}
    for d in (81, 144):
        cells = [r for r in rep.cells(Setting.O2, d) if r.sweep == "n"]
        times[d] = [r.mean_time for r in cells]
    ok_c = all(
        a <= b for ts in times.values() for a, b in zip(ts, ts[1:])
    )
    time_text = "; ".join(
        f"d={d}: " + " ".join(f"{t:.1e}" for t in ts) for d, ts in times.items()
    )

    ok_d = all(r.mean_fr_nodes >= r.mean_yn_nodes for r in rep.rows)
    ok_time = elapsed < 600.0

    report(
        "criterion 3 sweep trends",
        ok_a and ok_b and ok_c and ok_d and ok_time,
        f"(a{'+' if ok_a else '-'}) no-solution rate on rising object count: "
        f"Layout@81 {layout_rate:.3%}, O2@81 {o2_rate:.3%} (limit 1%); "
        f"(b{'+' if ok_b else '-'}) O2+D3 pooled no-rate {small:.3%}@81 vs "
        f"{large:.3%}@144 (need strictly higher); "
        f"(c{'+' if ok_c else '-'}) O2 mean solve time over n=3..7: {time_text}; "
        f"(d{'+' if ok_d else '-'}) nine-direction probe cost >= single-probe "
        f"cost in all {len(rep.rows)} cells; runtime {elapsed:.0f}s (limit 600s)",
    )


# --- criterion 4: generation soundness -----------------------------------------


def test_criterion_4_generation_soundness(soundness_builds):
    balance = {}
    gold_misses = 0
    query_stated = 0
    sat_bases = 0
    for setting, (yn, fr) in soundness_builds.items():
        balance[setting.value] = yn.yes_fraction
        assert 0.45 <= yn.yes_fraction <= 0.55, (setting, yn.yes_fraction)
        for inst in yn.instances + fr.instances:
            pair = {inst.query.subject, inst.query.reference}
            query_stated += sum(
                {b.subject, b.reference} == pair for b in inst.network.binary
            )
        for inst in fr.instances:
            if solve(inst.network, solution_cap=1).verdict is Verdict.UNSAT:
                continue
            sat_bases += 1
            probe = inst.network.extended(
                Binary(inst.query.subject, inst.gold_direction, inst.query.reference)
            )
            gold_misses += solve(probe, solution_cap=1).verdict is Verdict.UNSAT
    worst = max(abs(v - 0.5) for v in balance.values())
    report(
        "criterion 4 generation soundness",
        worst <= 0.05 and gold_misses == 0 and query_stated == 0,
        f"YN yes-fraction within 0.5±{worst:.3f} (limit ±0.05) over "
        f"{len(balance)} settings x {SOUNDNESS_COUNT}; ground-truth direction "
        f"feasible on {sat_bases}/{sat_bases} satisfiable stories; "
        f"{query_stated} stories state the query relation",
    )


# --- criterion 5: determinism and prefix stability ------------------------------


def test_criterion_5_determinism_and_prefix(tmp_path):
    cfg = GenConfig(
        n=4,
        d=81,
        m=3,
        setting=Setting.O2_D2,
        view=ViewFrame.TOP_DOWN,
        qtype=QType.YN,
    )
    big_a = tmp_path / "big_a.jsonl"
    big_b = tmp_path / "big_b.jsonl"
    small = tmp_path / "small.jsonl"
    write_dataset(big_a, generate_dataset(MASTER_SEED, 1000, cfg).instances)
    write_dataset(big_b, generate_dataset(MASTER_SEED, 1000, cfg).instances)
    write_dataset(small, generate_dataset(MASTER_SEED, 100, cfg).instances)

    identical = big_a.read_bytes() == big_b.read_bytes()
    big_lines = big_a.read_text(encoding="utf-8").splitlines(keepends=True)
    small_lines = small.read_text(encoding="utf-8").splitlines(keepends=True)
    prefix = big_lines[:100] == small_lines and len(small_lines) == 100
    report(
        "criterion 5 determinism",
        identical and prefix,
        f"repeated count=1000 runs byte-identical: {identical}; "
        f"count=100 equals the first 100 of count=1000 byte-for-byte: {prefix}",
    )


# --- criterion 6: text fidelity --------------------------------------------------


CANONICAL_NET = ConstraintNetwork(
    variables=("the bed", "the desk", "the rug"),
    unary=(
        Unary("the bed", Region9.SR),
        Unary("the bed", TopoWall.TPP),
        Unary("the desk", Region9.NWR),
        Unary("the desk", TopoWall.NTPP),
        Unary("the rug", Region9.CR),
        Unary("the rug", TopoWall.NTPP),
    ),
    binary=(
        Binary("the desk", Direction9.NW, "the bed"),
        Binary("the desk", DistanceBand(DistanceScheme.D2, Band.FAR), "the bed"),
        Binary("the rug", Direction9.N, "the bed"),
    ),
    s=12,
)

GOLDEN_FILES = {
    ViewFrame.TOP_DOWN: "story_top_down.txt",
    ViewFrame.NORTH_FACING: "story_north_facing.txt",
}


def test_criterion_6_text_round_trip():
    mismatches = 0
    checked = {view: 0 for view in ViewFrame}
    for view in ViewFrame:
        for setting in (Setting.O2_D2_LAYOUT, Setting.O2_D3_LAYOUT):
            cfg = GenConfig(
                n=5, d=144, m=4, setting=setting, view=view, qtype=QType.FR
            )
            build = generate_dataset(MASTER_SEED, 500, cfg)
            for inst in build.instances:
                parsed = parse_story(inst.story)
                want = set(inst.network.unary) | set(inst.network.binary)
                if set(parsed) != want or len(parsed) != len(want):
                    mismatches += 1
                checked[view] += 1

    goldens_ok = True
    for view, name in GOLDEN_FILES.items():
        golden = (GOLDEN_DIR / name).read_text(encoding="utf-8").rstrip("\n")
        rendered = render_story(CANONICAL_NET, view)
        goldens_ok = goldens_ok and rendered == golden
        goldens_ok = goldens_ok and golden.startswith(
            "This room contains a collection of furniture"
        )
    nf_golden = (GOLDEN_DIR / GOLDEN_FILES[ViewFrame.NORTH_FACING]).read_text(
        encoding="utf-8"
    )
    goldens_ok = goldens_ok and (
        "Imagine yourself at the southern wall's door" in nf_golden
    )

    report(
        "criterion 6 text fidelity",
        mismatches == 0 and all(c == 1000 for c in checked.values()) and goldens_ok,
        f"story->constraint round trip exact on "
        f"{checked[ViewFrame.TOP_DOWN]}+{checked[ViewFrame.NORTH_FACING]} networks "
        f"(both views, {mismatches} mismatches); golden files match renders",
    )


# --- criterion 7: grading soundness ----------------------------------------------


def test_criterion_7_grading_soundness():
    cfg = GenConfig(
        n=5,
        d=144,
        m=4,
        setting=Setting.O2_D3,
        view=ViewFrame.TOP_DOWN,
        qtype=QType.FR,
    )
    build = generate_dataset(MASTER_SEED, 500, cfg)
    run = run_eval(build.instances, random_stub(1), mode="random", concurrency=1)

    violations = 0
    accepted = rejected = fallback = 0
    for inst, rec, res in zip(build.instances, run.records, run.results):
        assert rec.parsed.direction is not None  # stub replies always parse
        if "base-unsatisfiable" in res.flags:
            fallback += 1
            expected = rec.parsed.direction is inst.gold_direction
            violations += res.correct is not expected
            continue
        probe = inst.network.extended(
            Binary(inst.query.subject, rec.parsed.direction, inst.query.reference)
        )
        sat = solve(probe, solution_cap=1).verdict is Verdict.SAT
        if res.correct:
            accepted += 1
            violations += not sat
        else:
            rejected += 1
            violations += sat
    report(
        "criterion 7 grading soundness",
        violations == 0 and accepted > 0 and rejected > 0,
        f"500 graded answers re-verified against the solver: {accepted} accepted "
        f"all satisfiable, {rejected} rejected all unsatisfiable, {fallback} "
        f"unsatisfiable-story fallbacks consistent; {violations} violations",
    )


# --- criterion 8: harness sanity ---------------------------------------------------


def test_criterion_8_harness_sanity(soundness_builds, tmp_path):
    yn_build, fr_build = soundness_builds[Setting.O2_D2]

    gold_yn = run_eval(yn_build.instances, gold_stub(), mode="gold")
    gold_fr = run_eval(fr_build.instances, gold_stub(), mode="gold")
    ok_gold = gold_yn.accuracy == 1.0 and gold_fr.accuracy == 1.0

    rand = run_eval(yn_build.instances, random_stub(0), mode="random", concurrency=1)
    ok_random = 0.45 <= rand.accuracy <= 0.55

    first = tmp_path / "run1.jsonl"
    second = tmp_path / "run2.jsonl"
    for out in (first, second):
        rerun = run_eval(
            yn_build.instances[:200], random_stub(0), mode="random", concurrency=1
        )
        write_eval_records(out, rerun.records)
    ok_repeat = first.read_bytes() == second.read_bytes()

    sentinel = "sk-test-never-serialize-me"
    os.environ["QSRBENCH_API_KEY"] = sentinel
    try:
        endpoint = ModelEndpoint(
            base_url="https://api.example.test/v1", model="demo"
        )
        assert endpoint.api_key() == sentinel
        run = run_eval(
            yn_build.instances[:50],
            gold_stub(),
            mode="endpoint-sim",
            manifest_extra=endpoint.public_manifest(),
        )
        artifact_dir = tmp_path / "artifacts"
        write_eval_records(artifact_dir / "records.jsonl", run.records)
        write_json(artifact_dir / "manifest.json", run.manifest)
        write_json(
            artifact_dir / "metrics.json",
            [m.as_row() for m in run.metrics],
        )
        (artifact_dir / "metrics.csv").write_text(
            metrics_to_csv(run.metrics), encoding="utf-8"
        )
        write_dataset(artifact_dir / "dataset.jsonl", yn_build.instances[:50])
        leaked = [
            p.name
            for p in artifact_dir.iterdir()
            if sentinel in p.read_text(encoding="utf-8")
        ]
    finally:
        del os.environ["QSRBENCH_API_KEY"]
    ok_secret = leaked == []

    report(
        "criterion 8 harness sanity",
        ok_gold and ok_random and ok_repeat and ok_secret,
        f"gold stub accuracy YN {gold_yn.accuracy:.3f} / FR {gold_fr.accuracy:.3f} "
        f"(need 1.000); random YN stub {rand.accuracy:.3f} on "
        f"{SOUNDNESS_COUNT} balanced (limit 0.50±0.05); repeated stub runs "
        f"byte-identical: {ok_repeat}; artifacts containing the key: {leaked}",
    )
