"""Grading model answers against the constraint networks.

Yes/no questions are graded against the stored gold label.  Free-response
questions are graded by consistency: an answer is correct when the named
direction, added to the story's network, still admits a grid solution, so
any direction the story genuinely leaves open is accepted.
"""
from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass

from .calculus import Direction9
from .netgen import BenchmarkInstance, QType
from .network import Binary
from .solver import Verdict, arc_fixpoint, feasible_directions, solve


@dataclass(frozen=True)
class ParsedAnswer:
    """A model reply reduced to its decision, if one could be extracted."""

    yn: str | None = None               # "Yes" / "No"
    direction: Direction9 | None = None
    raw: str = ""

    @property
    def empty(self) -> bool:
        return self.yn is None and self.direction is None


@dataclass(frozen=True)
class GradeResult:
    instance_id: int
    correct: bool
    parsed: ParsedAnswer
    flags: tuple[str, ...] = ()

    @property
    def flagged(self) -> bool:
        return bool(self.flags)


def grade_yn(inst: BenchmarkInstance, answer: ParsedAnswer) -> GradeResult:
    flags: list[str] = []
    if answer.yn is None:
        flags.append("unparseable")
        return GradeResult(inst.id, False, answer, tuple(flags))
    return GradeResult(inst.id, answer.yn == inst.query.label, answer, tuple(flags))


def grade_fr(inst: BenchmarkInstance, answer: ParsedAnswer) -> GradeResult:
    """A solution of the answer's probe is a solution of the story, so a
    satisfiable probe is correct without a base solve; the base solve runs
    only to tell an unsatisfiable story apart from a wrong answer.  Both
    start from the story's one arc-consistent fixpoint."""
    story = arc_fixpoint(inst.network)
    probe_error: ValueError | None = None
    if answer.direction is not None:
        try:
            probe = inst.network.extended(
                Binary(inst.query.subject, answer.direction, inst.query.reference)
            )
        except ValueError as exc:
            # the story already states a direction on the query pair, which
            # only an unsatisfiable story may do (graded below)
            probe_error = exc
        else:
            if solve(probe, solution_cap=1, base=story).verdict is Verdict.SAT:
                return GradeResult(inst.id, True, answer)
    base_unsat = solve(inst.network, solution_cap=1, base=story).verdict is Verdict.UNSAT
    flags = ("base-unsatisfiable",) if base_unsat else ()
    if answer.direction is None:
        return GradeResult(inst.id, False, answer, flags + ("unparseable",))
    if base_unsat:
        # No direction is consistent with an unsatisfiable story; grade
        # against the continuous ground truth instead and leave the flag.
        return GradeResult(
            inst.id, answer.direction is inst.gold_direction, answer, flags
        )
    if probe_error is not None:
        raise probe_error
    return GradeResult(inst.id, False, answer, flags)


def grade(inst: BenchmarkInstance, answer: ParsedAnswer) -> GradeResult:
    if inst.query.qtype is QType.YN:
        return grade_yn(inst, answer)
    return grade_fr(inst, answer)


def accepted_directions(inst: BenchmarkInstance) -> set[Direction9]:
    """All free-response answers that would be graded correct; no direction
    is feasible exactly when the story is unsatisfiable."""
    pair = (inst.query.subject, inst.query.reference)
    return feasible_directions(inst.network, pair) or {inst.gold_direction}


# --- aggregation ------------------------------------------------------------

GROUP_FIELDS = ("n", "m", "d", "setting", "view", "qtype")


@dataclass
class Metrics:
    group: dict[str, object]
    total: int = 0
    correct: int = 0
    unparseable: int = 0
    flagged: int = 0

    @property
    def accuracy(self) -> float | None:
        return self.correct / self.total if self.total else None

    def as_row(self) -> dict[str, object]:
        row = dict(self.group)
        row.update(
            total=self.total,
            correct=self.correct,
            accuracy=self.accuracy,
            unparseable=self.unparseable,
            flagged=self.flagged,
        )
        return row


def group_key(inst: BenchmarkInstance) -> tuple:
    cfg = inst.config
    return (cfg.n, cfg.m, cfg.d, cfg.setting.value, cfg.view.value, cfg.qtype.value)


def reject_repeated_ids(kind: str, ids: list[int]) -> None:
    """Raise :class:`ValueError` naming the first id that appears more than once."""
    repeated = [i for i, k in Counter(ids).items() if k > 1]
    if repeated:
        raise ValueError(f"{kind} id {repeated[0]} appears more than once")


def aggregate(
    instances: list[BenchmarkInstance],
    results: list[GradeResult],
    exclude_flagged: bool = False,
) -> list[Metrics]:
    """Accuracy per configuration cell, in first-appearance order; results
    match instances by id, so a repeated id raises :class:`ValueError`."""
    reject_repeated_ids("instance", [i.id for i in instances])
    reject_repeated_ids("result", [r.instance_id for r in results])
    by_id = {r.instance_id: r for r in results}
    cells: dict[tuple, Metrics] = {}
    for inst in instances:
        res = by_id.get(inst.id)
        if res is None:
            continue
        if exclude_flagged and res.flagged:
            continue
        key = group_key(inst)
        cell = cells.get(key)
        if cell is None:
            cell = cells[key] = Metrics(dict(zip(GROUP_FIELDS, key)))
        cell.total += 1
        cell.correct += res.correct
        cell.unparseable += "unparseable" in res.flags
        cell.flagged += res.flagged
    return list(cells.values())


def metrics_to_csv(metrics: list[Metrics]) -> str:
    fields = list(GROUP_FIELDS) + ["total", "correct", "accuracy", "unparseable", "flagged"]
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    for m in metrics:
        writer.writerow(m.as_row())
    return buf.getvalue()


def metrics_to_json(metrics: list[Metrics]) -> list[dict[str, object]]:
    return [m.as_row() for m in metrics]
