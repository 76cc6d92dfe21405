"""Tests for answer grading and metric aggregation."""

from __future__ import annotations

import csv
import dataclasses
import io

import sys

import pytest

from qsrbench.calculus import Direction9, ViewFrame
from qsrbench.grade import (
    GradeResult,
    Metrics,
    ParsedAnswer,
    accepted_directions,
    aggregate,
    grade,
    grade_fr,
    grade_yn,
    metrics_to_csv,
    metrics_to_json,
)
from qsrbench.netgen import GenConfig, QType, Setting, generate_dataset
from qsrbench.network import Binary
from qsrbench.solver import Verdict, solve


def build(qtype, setting=Setting.O2_D2, seed=19, count=12, n=4, m=3, d=81):
    cfg = GenConfig(
        n=n, d=d, m=m, setting=setting, view=ViewFrame.TOP_DOWN, qtype=qtype
    )
    return generate_dataset(master_seed=seed, count=count, config=cfg)


@pytest.fixture(scope="module")
def yn_instances():
    return build(QType.YN).instances


@pytest.fixture(scope="module")
def fr_instances():
    return build(QType.FR, setting=Setting.O2_D3).instances


@pytest.fixture(scope="module")
def unsat_fr_instance():
    # a generated story whose grid discretization is unsatisfiable
    instances = build(QType.FR, Setting.O2_D3, seed=41, count=30, n=6, m=5).instances
    return next(
        inst for inst in instances
        if solve(inst.network, solution_cap=1).verdict is Verdict.UNSAT
    )


class TestGradeYN:
    def test_gold_label_is_correct(self, yn_instances):
        for inst in yn_instances:
            res = grade(inst, ParsedAnswer(yn=inst.query.label, raw=inst.query.label))
            assert res.correct
            assert not res.flagged
            assert res.instance_id == inst.id

    def test_opposite_label_is_incorrect(self, yn_instances):
        for inst in yn_instances:
            other = "No" if inst.query.label == "Yes" else "Yes"
            assert not grade(inst, ParsedAnswer(yn=other, raw=other)).correct

    def test_unparseable_flagged_and_incorrect(self, yn_instances):
        res = grade_yn(yn_instances[0], ParsedAnswer(raw="it depends"))
        assert not res.correct
        assert res.flags == ("unparseable",)
        assert res.flagged

    def test_direction_only_parse_counts_as_unparseable(self, yn_instances):
        answer = ParsedAnswer(direction=Direction9.N, raw="north")
        assert grade_yn(yn_instances[0], answer).flags == ("unparseable",)


class TestGradeFR:
    def test_consistency_against_solver(self, fr_instances):
        checked = 0
        for inst in fr_instances:
            if solve(inst.network, solution_cap=1).verdict is Verdict.UNSAT:
                continue
            feasible = accepted_directions(inst)
            for direction in Direction9:
                res = grade_fr(inst, ParsedAnswer(direction=direction, raw=""))
                assert res.correct == (direction in feasible)
                checked += 1
        assert checked > 0

    def test_gold_direction_accepted_on_sat_bases(self, fr_instances):
        for inst in fr_instances:
            if solve(inst.network, solution_cap=1).verdict is Verdict.UNSAT:
                continue
            res = grade(inst, ParsedAnswer(direction=inst.gold_direction, raw=""))
            assert res.correct

    def test_unparseable_flagged(self, fr_instances):
        res = grade_fr(fr_instances[0], ParsedAnswer(raw="no idea"))
        assert not res.correct
        assert "unparseable" in res.flags

    def test_unsat_base_flag_and_gold_fallback(self, fr_instances):
        # Force an unsatisfiable story: each of the pair strictly north of the
        # other (reverse orientations pass validation but cannot both hold).
        inst = fr_instances[0]
        a, b = inst.query.subject, inst.query.reference
        net = inst.network.extended(Binary(a, Direction9.N, b)).extended(
            Binary(b, Direction9.N, a)
        )
        broken = dataclasses.replace(inst, network=net)
        assert solve(broken.network, solution_cap=1).verdict is Verdict.UNSAT

        res = grade_fr(broken, ParsedAnswer(direction=broken.gold_direction, raw=""))
        assert "base-unsatisfiable" in res.flags
        assert res.correct  # falls back to the continuous ground truth

        wrong = next(d for d in Direction9 if d is not broken.gold_direction)
        res2 = grade_fr(broken, ParsedAnswer(direction=wrong, raw=""))
        assert "base-unsatisfiable" in res2.flags
        assert not res2.correct

    def test_probe_first_matches_base_then_probe(self, fr_instances, unsat_fr_instance):
        # the grade of every answer equals the one a base solve followed by
        # the answer's probe gives
        def reference(inst, direction):
            flags = ()
            base_sat = solve(inst.network, solution_cap=1).verdict is Verdict.SAT
            if not base_sat:
                flags += ("base-unsatisfiable",)
            if direction is None:
                return False, flags + ("unparseable",)
            if not base_sat:
                return direction is inst.gold_direction, flags
            probe = inst.network.extended(
                Binary(inst.query.subject, direction, inst.query.reference)
            )
            return solve(probe, solution_cap=1).verdict is Verdict.SAT, flags

        for inst in (*fr_instances, unsat_fr_instance):
            for direction in (*Direction9, None):
                res = grade_fr(inst, ParsedAnswer(direction=direction, raw=""))
                assert (res.correct, res.flags) == reference(inst, direction)

    @pytest.fixture
    def grade_solves(self, monkeypatch):
        """The ``(network, base)`` of every solve grading runs."""
        calls = []

        def counting_solve(network, solution_cap=2, base=None):
            calls.append((network, base))
            return solve(network, solution_cap, base)

        # the package attribute ``qsrbench.grade`` is the re-exported function
        monkeypatch.setattr(sys.modules["qsrbench.grade"], "solve", counting_solve)
        return calls

    def test_satisfiable_probe_skips_the_base_solve(self, fr_instances, grade_solves):
        inst = next(
            i for i in fr_instances
            if solve(i.network, solution_cap=1).verdict is Verdict.SAT
        )
        assert grade_fr(inst, ParsedAnswer(direction=inst.gold_direction, raw="")).correct
        assert len(grade_solves) == 1

    def test_wrong_answer_solves_twice_from_one_fixpoint(self, fr_instances, grade_solves):
        inst, wrong = next(
            (i, d)
            for i in fr_instances
            if solve(i.network, solution_cap=1).verdict is Verdict.SAT
            for d in Direction9
            if d not in accepted_directions(i)
        )
        assert not grade_fr(inst, ParsedAnswer(direction=wrong, raw="")).correct
        assert len(grade_solves) == 2
        (_, probe_base), (story, story_base) = grade_solves
        assert story is inst.network
        assert probe_base is story_base is not None

    def test_accepted_directions_matches_grading(self, fr_instances, unsat_fr_instance):
        for inst in (fr_instances[0], unsat_fr_instance):
            feasible = accepted_directions(inst)
            assert feasible
            assert feasible == {
                d
                for d in Direction9
                if grade_fr(inst, ParsedAnswer(direction=d, raw="")).correct
            }


class TestAggregate:
    def test_groups_in_first_appearance_order(self, yn_instances, fr_instances):
        # Shift FR ids so the two config cells can share one result list.
        shifted_fr = [
            dataclasses.replace(inst, id=inst.id + 1000) for inst in fr_instances
        ]
        instances = list(yn_instances) + shifted_fr
        results = [GradeResult(i.id, True, ParsedAnswer()) for i in instances]
        metrics = aggregate(instances, results)
        assert [m.group["qtype"] for m in metrics] == ["YN", "FR"]
        assert metrics[0].total == len(yn_instances)
        assert metrics[1].total == len(fr_instances)
        assert all(m.accuracy == 1.0 for m in metrics)

    def test_counts_and_accuracy(self, yn_instances):
        results = []
        for k, inst in enumerate(yn_instances):
            if k % 3 == 0:
                results.append(
                    GradeResult(inst.id, False, ParsedAnswer(raw="?"), ("unparseable",))
                )
            else:
                results.append(GradeResult(inst.id, True, ParsedAnswer(yn="Yes")))
        metrics = aggregate(list(yn_instances), results)
        cell = metrics[0]
        expected_unparseable = sum(1 for k in range(len(yn_instances)) if k % 3 == 0)
        assert cell.unparseable == expected_unparseable
        assert cell.flagged == expected_unparseable
        assert cell.correct == cell.total - expected_unparseable

    def test_exclude_flagged_shrinks_denominator(self, yn_instances):
        results = [
            GradeResult(inst.id, False, ParsedAnswer(raw=""), ("unparseable",))
            if k == 0
            else GradeResult(inst.id, True, ParsedAnswer(yn="Yes"))
            for k, inst in enumerate(yn_instances)
        ]
        full = aggregate(list(yn_instances), results)[0]
        trimmed = aggregate(list(yn_instances), results, exclude_flagged=True)[0]
        assert full.total == len(yn_instances)
        assert trimmed.total == len(yn_instances) - 1
        assert trimmed.accuracy == 1.0

    def test_repeated_instance_id_rejected(self, yn_instances, fr_instances):
        # ids restart at 0 in every generated set, so concatenating two collides
        instances = list(yn_instances) + list(fr_instances)
        results = [GradeResult(i.id, True, ParsedAnswer()) for i in instances]
        with pytest.raises(ValueError, match="instance id 0 appears more than once"):
            aggregate(instances, results)

    def test_repeated_result_id_rejected(self, yn_instances):
        wrong = [GradeResult(i.id, False, ParsedAnswer(yn="No")) for i in yn_instances[:5]]
        right = [GradeResult(i.id, True, ParsedAnswer(yn="Yes")) for i in yn_instances[:5]]
        with pytest.raises(ValueError, match="result id 0 appears more than once"):
            aggregate(list(yn_instances[:5]), wrong + right)

    def test_missing_results_are_skipped(self, yn_instances):
        results = [GradeResult(yn_instances[0].id, True, ParsedAnswer(yn="Yes"))]
        metrics = aggregate(list(yn_instances), results)
        assert metrics[0].total == 1

    def test_accuracy_none_when_empty(self):
        assert Metrics(group={}).accuracy is None


class TestMetricsExport:
    @pytest.fixture()
    def metrics(self, yn_instances):
        results = [
            GradeResult(inst.id, k % 2 == 0, ParsedAnswer(yn="Yes"))
            for k, inst in enumerate(yn_instances)
        ]
        return aggregate(list(yn_instances), results)

    def test_csv_shape(self, metrics):
        text = metrics_to_csv(metrics)
        rows = list(csv.DictReader(io.StringIO(text)))
        assert len(rows) == len(metrics)
        row = rows[0]
        assert row["qtype"] == "YN"
        assert int(row["total"]) == metrics[0].total
        assert float(row["accuracy"]) == pytest.approx(metrics[0].accuracy)

    def test_json_rows_match_as_row(self, metrics):
        rows = metrics_to_json(metrics)
        assert rows == [m.as_row() for m in metrics]
        assert {"n", "m", "d", "setting", "view", "qtype"} <= set(rows[0])
