"""The four benchmark workloads and the checks on their outputs.

Every workload drives the public CLI in-process through
``qsrbench.cli.main(argv)``.  A workload is split into *rounds*: one round
is one fixed batch of CLI work whose inputs come from the workload seed and
the round number, so the same (seed, round) always does the same work and
must produce the same output fingerprint.

Fingerprints hash what the program decided, not how the file is laid out:

* datasets: story, question, query pair, YN label and candidate, FR gold
  direction and constraints of each record, in id order;
* eval + grade: parsed answers and per-group total/correct/flagged counts;
* sweeps: only the verdict columns, since solver effort columns may move.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import sys
from dataclasses import dataclass, field
from pathlib import Path

SWEEP_VERDICT_COLUMNS = ("sweep", "setting", "d", "n", "m", "count", "no", "single", "multiple")


@dataclass
class RoundResult:
    items: int
    failed: int
    fingerprint: str
    problems: list[str] = field(default_factory=list)
    info: dict[str, object] = field(default_factory=dict)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call ``qsrbench.cli.main`` by attribute lookup, so a tracer hook applies."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = sys.modules["qsrbench.cli"].main(argv)
    return rc, buf.getvalue()


def round_seed(seed: int, r: int) -> int:
    """CLI seed of round ``r``: distinct per round, fixed per (seed, r)."""
    return seed * 1000 + r


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(json.dumps(item, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


def combined_fingerprint(fingerprints: list[str]) -> str:
    return _digest(fingerprints)


def _read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def dataset_fingerprint(records: list[dict]) -> str:
    def key(rec: dict) -> list:
        gold = rec["gold"]
        return [
            rec["id"],
            rec["story"],
            rec["question"],
            rec["query"]["subject"],
            rec["query"]["reference"],
            gold.get("yn_label"),
            gold.get("yn_candidate"),
            gold["fr_direction"],
            rec["constraints"],
        ]

    return _digest(key(rec) for rec in sorted(records, key=lambda r: r["id"]))


def _group_counts(metrics: list[dict]) -> list[list]:
    fields = ("n", "m", "d", "setting", "view", "qtype")
    rows = [[row[f] for f in fields] + [row["total"], row["correct"], row["flagged"]]
            for row in metrics]
    return sorted(rows, key=json.dumps)


def _generated_records(path: Path, count: int, config: dict, problems: list[str]) -> list[dict]:
    records = _read_jsonl(path)
    if [r["id"] for r in records] != list(range(count)):
        problems.append(f"{path.name}: ids are not 0..{count - 1}")
    for rec in records:
        got = {k: rec["config"][k] for k in config}
        if got != config:
            problems.append(f"{path.name}: record {rec['id']} has config {got}")
            break
        if config["qtype"] == "YN" and rec["gold"].get("yn_label") not in ("Yes", "No"):
            problems.append(f"{path.name}: record {rec['id']} has no Yes/No label")
            break
    return records


class Workload:
    name = ""
    #: items one round attempts
    items = 0
    #: rounds come in this many kinds (round r is of kind r mod rotation);
    #: a run measures whole rotations
    rotation = 1
    #: rounds a --trace 1 run replays (untraced, then traced)
    trace_rounds = 1
    #: relations warmed in setup, as (grid side, setting values)
    warm: tuple[tuple[int, tuple[str, ...]], ...] = ()

    def prepare(self, work: Path, seed: int) -> None:
        """Input preparation that belongs to setup."""

    def commands(self, work: Path, seed: int, r: int) -> list[list[str]]:
        """CLI argument lists of round ``r``, run in order; this is the timed work."""
        raise NotImplementedError

    def check(self, work: Path, r: int, stdouts: list[str]) -> RoundResult:
        """Check round ``r``'s outputs once every command exited 0, then remove them."""
        raise NotImplementedError


def _generate_argv(config: dict, seed: int, count: int, out: Path) -> list[str]:
    return [
        "generate", "--qtype", config["qtype"], "--setting", config["setting"],
        "--n", str(config["n"]), "--m", str(config["m"]), "--d", str(config["d"]),
        "--seed", str(seed), "--count", str(count), "--out", str(out),
    ]


class Generate(Workload):
    def __init__(self, name: str, qtype: str, setting: str, d: int, count: int, trace_rounds: int):
        self.name = name
        self.items = count
        self.trace_rounds = trace_rounds
        self.config = {"qtype": qtype, "setting": setting, "d": d, "n": 5, "m": 4}
        self.warm = ((math.isqrt(d), (setting,)),)

    def commands(self, work: Path, seed: int, r: int) -> list[list[str]]:
        out = work / f"{self.name}-{r}.jsonl"
        return [_generate_argv(self.config, round_seed(seed, r), self.items, out)]

    def check(self, work: Path, r: int, stdouts: list[str]) -> RoundResult:
        out = work / f"{self.name}-{r}.jsonl"
        problems: list[str] = []
        records = _generated_records(out, self.items, self.config, problems)
        out.unlink()
        raw_sha = next(
            (ln.split()[-1] for ln in stdouts[0].splitlines() if ln.startswith("sha256:")), ""
        )
        return RoundResult(
            self.items,
            self.items if problems else 0,
            dataset_fingerprint(records),
            problems,
            {"raw_sha256": raw_sha},
        )


class EvalGrade(Workload):
    """Setup generates one FR dataset and splits it into chunks; round ``r``
    evaluates a seeded random stub on chunk ``r mod chunks`` and grades it."""

    name = "eval-grade-fr"
    chunks = 48
    items = 50  # instances per chunk
    trace_rounds = 24
    config = {"qtype": "FR", "setting": "O2+D3", "d": 144, "n": 5, "m": 4}
    warm = ((12, ("O2+D3",)),)

    def prepare(self, work: Path, seed: int) -> None:
        full = work / "eval-dataset.jsonl"
        rc, _ = run_cli(_generate_argv(self.config, seed, self.items * self.chunks, full))
        if rc != 0:
            raise RuntimeError(f"generating the eval dataset exited {rc}")
        lines = full.read_text(encoding="utf-8").splitlines(keepends=True)
        for k in range(self.chunks):
            chunk = lines[k * self.items:(k + 1) * self.items]
            (work / f"eval-chunk{k}.jsonl").write_text("".join(chunk), encoding="utf-8")

    def commands(self, work: Path, seed: int, r: int) -> list[list[str]]:
        dataset = str(work / f"eval-chunk{r % self.chunks}.jsonl")
        records = str(work / f"eval-{r}.jsonl")
        return [
            [
                "eval", "--dataset", dataset, "--stub", "random",
                "--stub-seed", str(round_seed(seed, r)), "--concurrency", "1",
                "--out", records, "--metrics", str(work / f"eval-{r}.metrics.json"),
                "--manifest", str(work / f"eval-{r}.manifest.json"),
            ],
            [
                "grade", "--dataset", dataset, "--answers", records,
                "--out", str(work / f"grade-{r}.metrics.json"),
            ],
        ]

    def check(self, work: Path, r: int, stdouts: list[str]) -> RoundResult:
        problems: list[str] = []
        recs = _read_jsonl(work / f"eval-{r}.jsonl")
        ids = [rec["id"] for rec in _read_jsonl(work / f"eval-chunk{r % self.chunks}.jsonl")]
        if [rec["id"] for rec in recs] != ids:
            problems.append("eval records do not follow the dataset ids")
        eval_groups = _group_counts(_read_json(work / f"eval-{r}.metrics.json"))
        if eval_groups != _group_counts(_read_json(work / f"grade-{r}.metrics.json")):
            problems.append("grade metrics differ from the eval run's metrics")
        if sum(g[-3] for g in eval_groups) != self.items:
            problems.append("metrics do not cover every answer")
        errors = sum(1 for rec in recs if rec["error"])
        answers = [[rec["id"], rec["parsed_yn"], rec["parsed_direction"]] for rec in recs]
        for path in work.glob(f"*-{r}.*"):
            path.unlink()
        return RoundResult(
            self.items,
            self.items if problems else errors,
            _digest([answers, eval_groups]),
            problems,
        )


class Sweep(Workload):
    """Round ``r`` runs the standard n and m sweeps for setting ``r mod 7`` at
    d=81, one room per cell, drawn from the round's own seed.

    One setting per round keeps the rooms of different settings independent:
    a hard room then slows one setting's round, not all seven at once.
    """

    name = "sweep-std"
    settings = ("Layout", "TPP", "O2", "O2+D2", "O2+D3", "O2+D2+Layout", "O2+D3+Layout")
    rotation = len(settings)
    items = 14  # cells per setting: 5 in the n sweep, 9 in the m sweep
    trace_rounds = 2 * rotation
    warm = ((9, settings),)

    def commands(self, work: Path, seed: int, r: int) -> list[list[str]]:
        return [[
            "stats", "--sweep", "--seed", str(round_seed(seed, r)), "--rooms", "1",
            "--setting", self.settings[r % self.rotation], "--d", "81",
            "--out", str(work / f"sweep-{r}.csv"),
        ]]

    def check(self, work: Path, r: int, stdouts: list[str]) -> RoundResult:
        out = work / f"sweep-{r}.csv"
        with out.open(encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        out.unlink()
        problems: list[str] = []
        if len(rows) != self.items:
            problems.append(f"sweep wrote {len(rows)} rows, expected {self.items}")
        for row in rows:
            if row["setting"] != self.settings[r % self.rotation] or int(row["count"]) != 1 or (
                int(row["no"]) + int(row["single"]) + int(row["multiple"]) != 1
            ):
                problems.append(f"sweep row has inconsistent counts: {row}")
                break
        verdicts = [[row[c] for c in SWEEP_VERDICT_COLUMNS] for row in rows]
        return RoundResult(
            self.items, self.items if problems else 0, _digest(verdicts), problems
        )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Generate("gen-yn", "YN", "O2+D2", 144, count=25, trace_rounds=20),
        EvalGrade(),
        Sweep(),
        Generate("gen-fr-d576", "FR", "O2+D3", 576, count=25, trace_rounds=20),
    )
}


def warm_tables(workload: Workload) -> tuple[float, int]:
    """Build the solver's relation tables for the workload's grids and settings.

    Each relation is warmed by solving a two-variable network through the
    public ``solve``, so the table layer is measured without touching its
    internals.  Returns (seconds, relations warmed).
    """
    from time import perf_counter

    from qsrbench.calculus import DIRECTION_ORDER, Region9, TopoWall, distance_bands_for
    from qsrbench.netgen import Setting
    from qsrbench.network import Binary, ConstraintNetwork, Unary
    from qsrbench.scene import UnaryMode
    from qsrbench.solver import solve

    start = perf_counter()
    built = 0
    for side, settings in workload.warm:
        binary: list = list(DIRECTION_ORDER)
        unary: list = []
        for value in settings:
            setting = Setting(value)
            if setting.distance_scheme is not None:
                binary += [b for b in distance_bands_for(setting.distance_scheme) if b not in binary]
            if setting.unary_mode is not UnaryMode.UNIFORM:
                unary += [u for u in Region9 if u not in unary]
            if setting.unary_mode is UnaryMode.TPP:
                unary += [u for u in TopoWall if u not in unary]
        for rel in binary:
            solve(ConstraintNetwork(("a", "b"), (), (Binary("a", rel, "b"),), side, 12.0), 1)
        for rel in unary:
            solve(ConstraintNetwork(("a",), (Unary("a", rel),), (), side, 12.0), 1)
        built += len(binary) + len(unary)
    return perf_counter() - start, built
