"""Tests for dataset, answers and evaluation-record serialization."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsrbench.calculus import (
    Direction9,
    DistanceScheme,
    Region9,
    TopoWall,
    ViewFrame,
    distance_bands_for,
)
from qsrbench.dataio import (
    ROOM_TOKEN,
    SCHEMA_VERSION,
    dataset_sha256,
    dumps_record,
    instance_to_record,
    read_answers,
    read_dataset,
    read_records,
    record_to_instance,
    write_answers,
    write_dataset,
    write_eval_records,
    write_json,
)
from qsrbench.evalharness import EvalRecord
from qsrbench.grade import ParsedAnswer
from qsrbench.netgen import (
    BenchmarkInstance,
    GenConfig,
    QType,
    QuerySpec,
    Setting,
    generate_dataset,
)
from qsrbench.network import Binary, ConstraintNetwork, Unary


@pytest.fixture(scope="module")
def yn_build():
    cfg = GenConfig(
        n=4,
        d=81,
        m=3,
        setting=Setting.O2_D2,
        view=ViewFrame.TOP_DOWN,
        qtype=QType.YN,
    )
    return generate_dataset(master_seed=13, count=10, config=cfg)


@pytest.fixture(scope="module")
def fr_build():
    cfg = GenConfig(
        n=4,
        d=81,
        m=3,
        setting=Setting.LAYOUT,
        view=ViewFrame.NORTH_FACING,
        qtype=QType.FR,
    )
    return generate_dataset(master_seed=13, count=6, config=cfg)


class TestRecordShape:
    def test_schema_fields(self, yn_build):
        rec = instance_to_record(yn_build.instances[0])
        assert rec["schema_version"] == SCHEMA_VERSION
        for key in (
            "id",
            "room_id",
            "room_type",
            "w",
            "seed",
            "config",
            "objects",
            "query",
            "constraints",
            "story",
            "question",
            "gold",
        ):
            assert key in rec

    def test_constraints_are_triples(self, yn_build):
        inst = yn_build.instances[0]
        rec = instance_to_record(inst)
        assert all(len(c) == 3 for c in rec["constraints"])
        room_refs = [c for c in rec["constraints"] if c[2] == "room"]
        assert len(room_refs) == len(inst.network.unary)
        pair_refs = [c for c in rec["constraints"] if c[2] != "room"]
        assert len(pair_refs) == len(inst.network.binary)

    def test_yn_gold_block(self, yn_build):
        inst = yn_build.instances[0]
        rec = instance_to_record(inst)
        assert rec["gold"]["yn_label"] in ("Yes", "No")
        assert rec["gold"]["yn_candidate"] == inst.query.candidate.value
        assert rec["gold"]["fr_direction"] == inst.gold_direction.value
        assert set(rec["gold"]["coords"]) == set(inst.network.variables)

    def test_fr_gold_block_has_no_yn_keys(self, fr_build):
        rec = instance_to_record(fr_build.instances[0])
        assert "yn_label" not in rec["gold"]
        assert "yn_candidate" not in rec["gold"]
        assert rec["gold"]["fr_direction"] in {d.value for d in Direction9}


class TestRoundTrip:
    def test_instances_survive_record_round_trip(self, yn_build, fr_build):
        for inst in yn_build.instances + fr_build.instances:
            assert record_to_instance(instance_to_record(inst)) == inst

    def test_file_round_trip_is_byte_identical(self, yn_build, tmp_path):
        first = tmp_path / "a.jsonl"
        second = tmp_path / "b.jsonl"
        write_dataset(first, yn_build.instances)
        write_dataset(second, read_dataset(first))
        assert first.read_bytes() == second.read_bytes()
        assert dataset_sha256(first) == dataset_sha256(second)

    def test_read_dataset_skips_blank_lines(self, yn_build, tmp_path):
        path = tmp_path / "gaps.jsonl"
        write_dataset(path, yn_build.instances[:2])
        path.write_text(path.read_text() + "\n\n", encoding="utf-8")
        assert len(read_dataset(path)) == 2


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_BANDS = [band for scheme in DistanceScheme for band in distance_bands_for(scheme)]


@st.composite
def instances(draw, ident):
    # the reserved name is rejected on write (test_room_name_is_rejected)
    name = st.text(min_size=1, max_size=8).filter(lambda s: s != ROOM_TOKEN)
    names = draw(st.lists(name, min_size=2, max_size=5, unique=True))
    n = len(names)
    d = draw(st.sampled_from([81, 144]))
    w = draw(st.floats(min_value=1.0, max_value=100.0))
    qtype = draw(st.sampled_from(list(QType)))
    config = GenConfig(
        n=n,
        d=d,
        m=draw(st.integers(0, n * (n - 1) // 2 - 1)),
        setting=draw(st.sampled_from(list(Setting))),
        view=draw(st.sampled_from(list(ViewFrame))),
        qtype=qtype,
        w=w,
        eps_frac=draw(st.floats(min_value=0.0, max_value=1.0)),
    )
    unary = []
    for name in names:
        for rel in draw(st.lists(st.sampled_from(list(Region9) + list(TopoWall)), max_size=2)):
            if not any(u.obj == name and type(u.rel) is type(rel) for u in unary):
                unary.append(Unary(name, rel))
    pairs = [(a, b) for a in names for b in names if a != b]
    binary = []
    for a, b in draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True)):
        binary.append(Binary(a, draw(st.sampled_from(list(Direction9))), b))
        if draw(st.booleans()):
            binary.append(Binary(a, draw(st.sampled_from(_BANDS)), b))
    subject, reference = draw(st.sampled_from(pairs))
    yn = qtype is QType.YN
    return BenchmarkInstance(
        id=ident,
        room_id=draw(st.integers(0, 10**6)),
        room_type=draw(st.text(max_size=12)),
        seed=draw(st.integers(0, 2**64 - 1)),
        config=config,
        network=ConstraintNetwork(tuple(names), tuple(unary), tuple(binary), config.s, w),
        query=QuerySpec(
            subject,
            reference,
            qtype,
            draw(st.sampled_from(list(Direction9))) if yn else None,
            draw(st.sampled_from(["Yes", "No"])) if yn else None,
        ),
        story=draw(st.text()),
        question=draw(st.text()),
        gold_coords={name: (draw(_FLOATS), draw(_FLOATS)) for name in names},
        gold_direction=draw(st.sampled_from(list(Direction9))),
    )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.tuples(*(instances(i) for i in range(k)))))
def test_write_read_dataset_round_trip(tmp_path_factory, batch):
    path = tmp_path_factory.mktemp("rt") / "ds.jsonl"
    write_dataset(path, batch)
    assert read_dataset(path) == list(batch)


class TestInputErrors:
    def test_malformed_json_names_file_and_line(self, yn_build, tmp_path):
        path = tmp_path / "bad.jsonl"
        write_dataset(path, yn_build.instances[:2])
        path.write_text(path.read_text() + '{"id": 2, oops}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: malformed JSON")):
            read_dataset(path)

    def test_other_schema_version_rejected(self, yn_build, tmp_path):
        path = tmp_path / "v9.jsonl"
        rec = dict(instance_to_record(yn_build.instances[0]), schema_version=9)
        path.write_text(dumps_record(rec) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: schema_version 9")):
            read_dataset(path)

    def test_room_name_is_rejected(self, yn_build, tmp_path):
        inst = yn_build.instances[0]
        network = dataclasses.replace(inst.network, variables=(ROOM_TOKEN,), unary=(), binary=())
        renamed = dataclasses.replace(inst, network=network)
        with pytest.raises(ValueError, match="reserved"):
            write_dataset(tmp_path / "room.jsonl", [renamed])

    def test_repeated_answer_id_names_file_and_line(self, tmp_path):
        path = tmp_path / "answers.jsonl"
        write_answers(path, [(0, "Yes"), (1, "No"), (0, "No")])
        with pytest.raises(ValueError, match=re.escape(f"{path}:3: answer id 0 appears")):
            read_answers(path)

    @staticmethod
    def _dataset_with_bad_second_record(yn_build, tmp_path, mutate):
        path = tmp_path / "bad.jsonl"
        bad = instance_to_record(yn_build.instances[1])
        mutate(bad)
        path.write_text(
            dumps_record(instance_to_record(yn_build.instances[0])) + "\n"
            + dumps_record(bad) + "\n",
            encoding="utf-8",
        )
        return path

    def test_missing_story_names_file_and_line(self, yn_build, tmp_path):
        path = self._dataset_with_bad_second_record(
            yn_build, tmp_path, lambda rec: rec.pop("story")
        )
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: missing field 'story'")):
            read_dataset(path)

    def test_rejected_constraint_names_file_and_line(self, yn_build, tmp_path):
        def unknown_object(rec):
            rec["constraints"][-1][0] = "the ghost"

        path = self._dataset_with_bad_second_record(yn_build, tmp_path, unknown_object)
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: binary constraint on unknown")):
            read_dataset(path)

    def test_mistyped_field_names_file_and_line(self, yn_build, tmp_path):
        def scalar_constraints(rec):
            rec["constraints"] = 5

        path = self._dataset_with_bad_second_record(yn_build, tmp_path, scalar_constraints)
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: 'int' object is not iterable")):
            read_dataset(path)

    def test_non_object_line_names_file_and_line(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text("[1, 2]\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: not a JSON object")):
            read_dataset(path)

    def test_answer_without_id_names_file_and_line(self, tmp_path):
        path = tmp_path / "answers.jsonl"
        path.write_text('{"id": 0, "text": "Yes"}\n{"text": "No"}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:2: missing field 'id'")):
            read_answers(path)

    def test_answer_without_text_names_file_and_line(self, tmp_path):
        path = tmp_path / "answers.jsonl"
        path.write_text('{"id": 0}\n', encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: missing field 'text'")):
            read_answers(path)


class TestDumps:
    def test_sorted_compact_output(self):
        assert dumps_record({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'

    def test_unicode_preserved(self):
        assert dumps_record({"x": "12×12"}) == '{"x":"12×12"}'

    def test_dataset_sha256_matches_hashlib(self, yn_build, tmp_path):
        path = tmp_path / "ds.jsonl"
        write_dataset(path, yn_build.instances)
        expected = hashlib.sha256(path.read_bytes()).hexdigest()
        assert dataset_sha256(path) == expected


class TestAnswersIO:
    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "answers.jsonl"
        write_answers(path, [(0, "Yes."), (1, "No, it is not.")])
        assert read_answers(path) == {0: "Yes.", 1: "No, it is not."}

    def test_read_accepts_eval_records(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = [
            EvalRecord(
                instance_id=4,
                prompt="p",
                reply="north-east",
                parsed=ParsedAnswer(direction=Direction9.NE, raw="north-east"),
                latency=0.5,
            )
        ]
        write_eval_records(path, records)
        assert read_answers(path) == {4: "north-east"}


class TestEvalRecordsIO:
    def test_fields_serialized(self, tmp_path):
        path = tmp_path / "records.jsonl"
        records = [
            EvalRecord(
                instance_id=0,
                prompt="story?",
                reply="Yes, clearly.",
                parsed=ParsedAnswer(yn="Yes", raw="Yes, clearly."),
                latency=1.25,
                retries=2,
            ),
            EvalRecord(
                instance_id=1,
                prompt="story?",
                reply="",
                parsed=ParsedAnswer(raw=""),
                latency=0.0,
                error="transport: boom",
            ),
        ]
        write_eval_records(path, records)
        rows = read_records(path)
        assert rows[0] == {
            "id": 0,
            "prompt": "story?",
            "reply": "Yes, clearly.",
            "parsed_yn": "Yes",
            "parsed_direction": None,
            "latency": 1.25,
            "retries": 2,
            "error": None,
        }
        assert rows[1]["error"] == "transport: boom"
        assert rows[1]["parsed_yn"] is None

    def test_direction_serialized_as_token(self, tmp_path):
        path = tmp_path / "records.jsonl"
        write_eval_records(
            path,
            [
                EvalRecord(
                    instance_id=9,
                    prompt="q",
                    reply="south-west",
                    parsed=ParsedAnswer(direction=Direction9.SW, raw="south-west"),
                    latency=0.1,
                )
            ],
        )
        assert read_records(path)[0]["parsed_direction"] == "SW"


class TestWriteJson:
    def test_creates_parents_and_round_trips(self, tmp_path):
        path = tmp_path / "nested" / "out.json"
        payload = {"metric": 0.5, "groups": {"a": 1}}
        write_json(path, payload)
        text = path.read_text(encoding="utf-8")
        assert text.endswith("\n")
        assert json.loads(text) == payload
