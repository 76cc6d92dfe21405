"""Procedural room scenes and ground-truth relation extraction.

A scene is a square room populated with furniture drawn from a per-room-type
catalog.  Sampling is fully determined by an integer seed.  Catalog entries
flagged as wall-hugging are snapped onto a wall most of the time so that
touching-the-wall relations actually occur in the data.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from enum import Enum
from importlib import resources
from pathlib import Path

from .calculus import (
    Direction9,
    DistanceScheme,
    PointPos,
    direction_between,
    distance_band,
    region_of,
    wall_topology,
)
from .network import Binary, Unary

ROOM_TYPES: tuple[str, ...] = ("bedroom", "kitchen", "living room", "bathroom")

_ORDINALS = ("", "second ", "third ", "fourth ")

#: objects every room type's catalog must guarantee: the largest n the
#: standard sweeps draw
MIN_OBJECTS = 7


class UnaryMode(Enum):
    """Which facts about each single object a story states."""

    LAYOUT = "layout"    # region of the room
    TPP = "tpp"          # region plus wall contact
    UNIFORM = "uniform"  # nothing: mere inclusion in the room


@dataclass(frozen=True)
class CatalogEntry:
    category: str
    half_extent: float
    min_count: int
    max_count: int
    wall: bool


@dataclass(frozen=True)
class Catalog:
    room_types: dict[str, tuple[CatalogEntry, ...]]
    wall_snap_prob: float

    def validate(self) -> None:
        if not 0.0 <= self.wall_snap_prob <= 1.0:
            raise ValueError("wall_snap_prob must lie in [0, 1]")
        for room_type, entries in self.room_types.items():
            if len({e.category for e in entries}) != len(entries):
                raise ValueError(f"duplicate category in {room_type!r} catalog")
            guaranteed = sum(e.min_count for e in entries)
            if guaranteed < MIN_OBJECTS:
                raise ValueError(
                    f"{room_type!r} catalog guarantees only {guaranteed} objects, "
                    f"need at least {MIN_OBJECTS}"
                )
            for e in entries:
                if e.half_extent <= 0:
                    raise ValueError(f"non-positive half extent for {e.category!r}")
                if not 0 <= e.min_count <= e.max_count:
                    raise ValueError(f"bad count range for {e.category!r}")
                if e.max_count > len(_ORDINALS):
                    raise ValueError(f"max_count too large for {e.category!r}")


def load_catalog(path: str | Path | None = None) -> Catalog:
    """Load a catalog file; defaults to the one shipped with the package."""
    if path is None:
        text = resources.files("qsrbench").joinpath("data/catalog.json").read_text()
    else:
        text = Path(path).read_text()
    raw = json.loads(text)
    room_types = {
        room_type: tuple(
            CatalogEntry(
                category=e["category"],
                half_extent=float(e["half_extent"]),
                min_count=int(e["min_count"]),
                max_count=int(e["max_count"]),
                wall=bool(e["wall"]),
            )
            for e in entries
        )
        for room_type, entries in raw["room_types"].items()
    }
    catalog = Catalog(room_types=room_types, wall_snap_prob=float(raw["wall_snap_prob"]))
    catalog.validate()
    return catalog


_default_catalog: Catalog | None = None


def default_catalog() -> Catalog:
    global _default_catalog
    if _default_catalog is None:
        _default_catalog = load_catalog()
    return _default_catalog


@dataclass(frozen=True)
class SceneObject:
    name: str       # unique noun phrase, e.g. "the bed"
    category: str
    center: PointPos
    half_extent: float


@dataclass(frozen=True)
class RoomScene:
    room_id: int
    room_type: str
    w: float
    objects: tuple[SceneObject, ...]
    seed: int

    def object_named(self, name: str) -> SceneObject:
        for o in self.objects:
            if o.name == name:
                return o
        raise KeyError(name)


def sample_scene(
    seed: int,
    room_type: str,
    w: float = 12.0,
    catalog: Catalog | None = None,
    room_id: int = 0,
) -> RoomScene:
    """Sample a furnished room; identical arguments give identical scenes."""
    catalog = catalog or default_catalog()
    if room_type not in catalog.room_types:
        raise ValueError(f"unknown room type {room_type!r}")
    rng = random.Random(seed)
    objects: list[SceneObject] = []
    for entry in catalog.room_types[room_type]:
        if 2 * entry.half_extent > w:
            raise ValueError(f"{entry.category!r} does not fit a room of width {w}")
        count = rng.randint(entry.min_count, entry.max_count)
        for k in range(count):
            name = f"the {_ORDINALS[k]}{entry.category}"
            center = _sample_center(rng, entry, w, catalog.wall_snap_prob)
            objects.append(
                SceneObject(
                    name=name,
                    category=entry.category,
                    center=center,
                    half_extent=entry.half_extent,
                )
            )
    return RoomScene(
        room_id=room_id, room_type=room_type, w=w, objects=tuple(objects), seed=seed
    )


def _sample_center(
    rng: random.Random, entry: CatalogEntry, w: float, snap_prob: float
) -> PointPos:
    he = entry.half_extent
    if entry.wall and rng.random() < snap_prob:
        wall = rng.randrange(4)  # 0=S, 1=N, 2=W, 3=E
        along = rng.uniform(he, w - he)
        if wall == 0:
            return PointPos(along, he)
        if wall == 1:
            return PointPos(along, w - he)
        if wall == 2:
            return PointPos(he, along)
        return PointPos(w - he, along)
    return PointPos(rng.uniform(he, w - he), rng.uniform(he, w - he))


# ---------------------------------------------------------------------------
# ground-truth constraint extraction


def extract_unary(scene: RoomScene, obj: SceneObject, mode: UnaryMode) -> list[Unary]:
    """Unary constraints an object's true position satisfies, per mode."""
    if mode is UnaryMode.UNIFORM:
        return []
    out = [Unary(obj.name, region_of(obj.center, scene.w))]
    if mode is UnaryMode.TPP:
        out.append(Unary(obj.name, wall_topology(obj.center, obj.half_extent, scene.w)))
    return out


def extract_binary(
    scene: RoomScene,
    subject: SceneObject,
    reference: SceneObject,
    scheme: DistanceScheme | None = None,
    eps: float = 0.0,
) -> list[Binary]:
    """Directional (and optionally distance-band) facts between two objects."""
    rel: Direction9 = direction_between(subject.center, reference.center, eps)
    out = [Binary(subject.name, rel, reference.name)]
    if scheme is not None:
        out.append(
            Binary(
                subject.name,
                distance_band(subject.center, reference.center, scene.w, scheme),
                reference.name,
            )
        )
    return out
