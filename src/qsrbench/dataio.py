"""Dataset serialization: canonical JSONL records, answers and metrics files.

Records are written with sorted keys and no extra whitespace so a
load/save round trip is byte-identical, which lets dataset files be
content-addressed by sha256.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable

from .calculus import Direction9, ViewFrame, relation_from_token, relation_token
from .netgen import BenchmarkInstance, GenConfig, QType, QuerySpec, Setting
from .network import Binary, ConstraintNetwork, Unary

SCHEMA_VERSION = 1
ROOM_TOKEN = "room"  # reference slot used by unary (object-vs-room) constraints


def instance_to_record(inst: BenchmarkInstance) -> dict:
    cfg = inst.config
    if ROOM_TOKEN in inst.network.variables:
        raise ValueError(f"object name {ROOM_TOKEN!r} is reserved for unary constraints")
    constraints = [[u.obj, relation_token(u.rel), ROOM_TOKEN] for u in inst.network.unary]
    constraints += [
        [b.subject, relation_token(b.rel), b.reference] for b in inst.network.binary
    ]
    gold: dict[str, object] = {
        "coords": {k: list(v) for k, v in sorted(inst.gold_coords.items())},
        "fr_direction": inst.gold_direction.value,
    }
    if inst.query.qtype is QType.YN:
        gold["yn_label"] = inst.query.label
        gold["yn_candidate"] = inst.query.candidate.value
    return {
        "schema_version": SCHEMA_VERSION,
        "id": inst.id,
        "room_id": inst.room_id,
        "room_type": inst.room_type,
        "w": inst.network.w,
        "seed": inst.seed,
        "config": {
            "n": cfg.n,
            "d": cfg.d,
            "m": cfg.m,
            "setting": cfg.setting.value,
            "view": cfg.view.value,
            "qtype": cfg.qtype.value,
            "eps_frac": cfg.eps_frac,
        },
        "objects": list(inst.network.variables),
        "query": {"subject": inst.query.subject, "reference": inst.query.reference},
        "constraints": constraints,
        "story": inst.story,
        "question": inst.question,
        "gold": gold,
    }


def record_to_instance(rec: dict) -> BenchmarkInstance:
    cfg = GenConfig(
        n=rec["config"]["n"],
        d=rec["config"]["d"],
        m=rec["config"]["m"],
        setting=Setting(rec["config"]["setting"]),
        view=ViewFrame(rec["config"]["view"]),
        qtype=QType(rec["config"]["qtype"]),
        w=rec["w"],
        eps_frac=rec["config"]["eps_frac"],
    )
    unary: list[Unary] = []
    binary: list[Binary] = []
    for subj, token, ref in rec["constraints"]:
        rel = relation_from_token(token)
        if ref == ROOM_TOKEN:
            unary.append(Unary(subj, rel))
        else:
            binary.append(Binary(subj, rel, ref))
    network = ConstraintNetwork(
        variables=tuple(rec["objects"]),
        unary=tuple(unary),
        binary=tuple(binary),
        s=cfg.s,
        w=rec["w"],
    )
    gold = rec["gold"]
    query = QuerySpec(
        subject=rec["query"]["subject"],
        reference=rec["query"]["reference"],
        qtype=cfg.qtype,
        candidate=Direction9(gold["yn_candidate"]) if "yn_candidate" in gold else None,
        label=gold.get("yn_label"),
    )
    return BenchmarkInstance(
        id=rec["id"],
        room_id=rec["room_id"],
        room_type=rec["room_type"],
        seed=rec["seed"],
        config=cfg,
        network=network,
        query=query,
        story=rec["story"],
        question=rec["question"],
        gold_coords={k: tuple(v) for k, v in gold["coords"].items()},
        gold_direction=Direction9(gold["fr_direction"]),
    )


def dumps_record(rec: dict) -> str:
    return json.dumps(rec, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def write_dataset(path: str | Path, instances: Iterable[BenchmarkInstance]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for inst in instances:
            fh.write(dumps_record(instance_to_record(inst)) + "\n")


def read_dataset(path: str | Path) -> list[BenchmarkInstance]:
    """Read a dataset file; a record that is not a valid instance raises
    :class:`ValueError` naming its file and line."""
    instances = []
    for where, rec in _numbered_records(path):
        if (version := rec.get("schema_version")) != SCHEMA_VERSION:
            raise ValueError(f"{where}: schema_version {version!r}, expected {SCHEMA_VERSION}")
        try:
            instances.append(record_to_instance(rec))
        except KeyError as exc:
            raise ValueError(f"{where}: missing field {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{where}: {exc}") from None
    return instances


def read_records(path: str | Path) -> list[dict]:
    return [rec for _, rec in _numbered_records(path)]


def _numbered_records(path: str | Path):
    """Yield ``(path:line, record)`` for each non-blank line, which must
    hold a JSON object."""
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if line.strip():
                try:
                    rec = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: malformed JSON: {exc}") from None
                if not isinstance(rec, dict):
                    raise ValueError(f"{path}:{lineno}: not a JSON object")
                yield f"{path}:{lineno}", rec


def dataset_sha256(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_answers(path: str | Path, answers: Iterable[tuple[int, str]]) -> None:
    """Answers file: one ``{"id": ..., "text": ...}`` object per line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for ans_id, text in answers:
            fh.write(dumps_record({"id": ans_id, "text": text}) + "\n")


def read_answers(path: str | Path) -> dict[int, str]:
    """Read an answers file; evaluation-record files are accepted too."""
    out: dict[int, str] = {}
    for where, rec in _numbered_records(path):
        if "id" not in rec:
            raise ValueError(f"{where}: missing field 'id'")
        if rec["id"] in out:
            raise ValueError(f"{where}: answer id {rec['id']} appears more than once")
        if "text" not in rec and "reply" not in rec:
            raise ValueError(f"{where}: missing field 'text'")
        out[rec["id"]] = rec["text"] if "text" in rec else rec["reply"]
    return out


def write_eval_records(path: str | Path, records: Iterable) -> None:
    """Evaluation records: one JSON object per instance, dataset order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for rec in records:
            payload = {
                "id": rec.instance_id,
                "prompt": rec.prompt,
                "reply": rec.reply,
                "parsed_yn": rec.parsed.yn,
                "parsed_direction": rec.parsed.direction.value if rec.parsed.direction else None,
                "latency": rec.latency,
                "retries": rec.retries,
                "error": rec.error,
            }
            fh.write(dumps_record(payload) + "\n")


def write_json(path: str | Path, payload: object) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
