"""Benchmark instance generation.

One instance = a sampled room, a subset of its objects, a constraint network
extracted from their true positions, and a question about one designated
pair that the story never describes directly.  Everything is driven by a
master seed: instance ``i`` depends only on ``(master_seed, i)`` and the
generation config, so the first ``k`` instances of any run form a prefix of
every longer run with the same seed.

Build-time verification keeps the benchmark sound on the grid:

* yes/no instances labelled Yes are checked consistent, and No candidates
  are drawn uniformly among the directions the solver proves inconsistent;
* free-response instances whose base network is satisfiable are kept only
  when the continuous ground-truth direction survives discretization.

Each draw builds its story's arc-consistent fixpoint once.  Every solve of
the draw starts from it, the one that decides whether the story is
satisfiable included, so no story is solved twice.

When a draw fails verification, the object/pair selection is redrawn from
the same room; the Yes/No branch choice is made before any redraw so label
balance stays an even coin.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import dataclass
from enum import Enum

from .calculus import (
    DIRECTION_ORDER,
    Direction9,
    DistanceScheme,
    ViewFrame,
    direction_between,
)
from .network import Binary, ConstraintNetwork, Unary
from .scene import (
    ROOM_TYPES,
    RoomScene,
    SceneObject,
    UnaryMode,
    extract_binary,
    extract_unary,
    sample_scene,
)
from .solver import Verdict, arc_fixpoint, solve
from .textgen import Lexicon, default_lexicon, render_question, render_story


class Setting(Enum):
    """Which relation families the story draws on."""

    LAYOUT = "Layout"
    TPP = "TPP"
    O2 = "O2"
    O2_D2 = "O2+D2"
    O2_D3 = "O2+D3"
    O2_D2_LAYOUT = "O2+D2+Layout"
    O2_D3_LAYOUT = "O2+D3+Layout"

    @property
    def unary_mode(self) -> UnaryMode:
        if self in (Setting.LAYOUT, Setting.O2_D2_LAYOUT, Setting.O2_D3_LAYOUT):
            return UnaryMode.LAYOUT
        if self is Setting.TPP:
            return UnaryMode.TPP
        return UnaryMode.UNIFORM

    @property
    def distance_scheme(self) -> DistanceScheme | None:
        if self in (Setting.O2_D2, Setting.O2_D2_LAYOUT):
            return DistanceScheme.D2
        if self in (Setting.O2_D3, Setting.O2_D3_LAYOUT):
            return DistanceScheme.D3
        return None


class QType(Enum):
    FR = "FR"  # free response: name the direction
    YN = "YN"  # yes/no: is this candidate direction consistent?


@dataclass(frozen=True)
class GenConfig:
    """Generation parameters; ``d`` is the grid cell count (side squared)."""

    n: int
    d: int
    m: int
    setting: Setting
    view: ViewFrame
    qtype: QType
    w: float = 12.0
    eps_frac: float = 0.02  # axis-alignment tolerance as a fraction of w

    def __post_init__(self) -> None:
        s = math.isqrt(self.d)
        if s <= 0 or s * s != self.d or s % 3 != 0:
            raise ValueError("d must be a perfect square with side divisible by 3")
        if self.n < 2:
            raise ValueError("need at least two objects")
        max_m = self.n * (self.n - 1) // 2 - 1
        if not 0 <= self.m <= max_m:
            raise ValueError(f"m must lie in [0, {max_m}] for n={self.n}")
        if self.w <= 0 or self.eps_frac < 0:
            raise ValueError("bad room width or eps fraction")

    @property
    def s(self) -> int:
        return math.isqrt(self.d)

    @property
    def eps(self) -> float:
        return self.eps_frac * self.w


@dataclass(frozen=True)
class QuerySpec:
    subject: str
    reference: str
    qtype: QType
    candidate: Direction9 | None = None  # YN only
    label: str | None = None             # "Yes" / "No", YN only


@dataclass(frozen=True)
class BenchmarkInstance:
    id: int
    room_id: int
    room_type: str
    seed: int
    config: GenConfig
    network: ConstraintNetwork
    query: QuerySpec
    story: str
    question: str
    gold_coords: dict[str, tuple[float, float]]
    gold_direction: Direction9  # continuous ground truth for the query pair


class GenerationError(RuntimeError):
    """Resample budget exhausted for one instance."""

    def __init__(self, index: int, config: GenConfig, reasons: dict[str, int]):
        super().__init__(
            f"instance {index}: resample budget exhausted under {config.setting.value} "
            f"({reasons})"
        )
        self.index = index
        self.reasons = reasons


def derive_seed(master_seed: int, *parts: object) -> int:
    """Stable 64-bit stream seed from the master seed and context labels."""
    payload = ":".join([str(master_seed), *map(str, parts)]).encode()
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


def select_objects(scene: RoomScene, n: int, rng: random.Random) -> list[SceneObject]:
    """Draw ``n`` distinct objects; the draw order is the variable order."""
    if n > len(scene.objects):
        raise ValueError(f"scene has only {len(scene.objects)} objects, need {n}")
    return rng.sample(list(scene.objects), n)


def select_constraints(
    objects: list[SceneObject],
    query_pair: tuple[int, int],
    m: int,
    rng: random.Random,
) -> list[tuple[int, int]]:
    """Choose ``m`` index pairs to describe, never the query pair itself."""
    q = tuple(sorted(query_pair))
    pool = [p for p in itertools.combinations(range(len(objects)), 2) if p != q]
    if m > len(pool):
        raise ValueError("m exceeds the number of available pairs")
    chosen = rng.sample(pool, m)
    chosen.sort()
    return chosen


RESAMPLE_BUDGET = 64


def build_network(
    scene: RoomScene, config: GenConfig, rng: random.Random
) -> tuple[ConstraintNetwork, QuerySpec, Direction9, bool]:
    """Select objects, extract constraints and fix the query for one instance.

    Returns the verified network, the query spec, the continuous
    ground-truth direction of the query pair and whether the story is
    satisfiable.  Draws are repeated (objects, pairs and query included)
    until verification passes; the yes/no branch is chosen once up front.
    """
    want_yes: bool | None = None
    if config.qtype is QType.YN:
        want_yes = rng.random() < 0.5

    reasons: dict[str, int] = {}
    for _attempt in range(RESAMPLE_BUDGET):
        result = _attempt_build(scene, config, rng, want_yes)
        if isinstance(result, str):
            reasons[result] = reasons.get(result, 0) + 1
            continue
        return result
    raise GenerationError(scene.room_id, config, reasons)


def _attempt_build(
    scene: RoomScene,
    config: GenConfig,
    rng: random.Random,
    want_yes: bool | None,
) -> tuple[ConstraintNetwork, QuerySpec, Direction9, bool] | str:
    objects = select_objects(scene, config.n, rng)
    qa, qb = rng.sample(range(config.n), 2)
    pairs = select_constraints(objects, (qa, qb), config.m, rng)

    unary: list[Unary] = []
    mode = config.setting.unary_mode
    for obj in objects:
        unary.extend(extract_unary(scene, obj, mode))

    binary: list[Binary] = []
    scheme = config.setting.distance_scheme
    for i, j in pairs:
        # canonical orientation: the later-listed object is the subject
        binary.extend(extract_binary(scene, objects[j], objects[i], scheme, config.eps))

    network = ConstraintNetwork(
        variables=tuple(o.name for o in objects),
        unary=tuple(unary),
        binary=tuple(binary),
        s=config.s,
        w=scene.w,
    )

    subject = objects[qa]
    reference = objects[qb]
    gold = direction_between(subject.center, reference.center, config.eps)

    # every solve below starts from the story's one arc-consistent fixpoint
    story = arc_fixpoint(network)

    def admits(direction: Direction9) -> bool:
        probe = network.extended(Binary(subject.name, direction, reference.name))
        return solve(probe, solution_cap=1, base=story).verdict is Verdict.SAT

    if config.qtype is QType.FR:
        story_sat = solve(network, solution_cap=1, base=story).verdict is Verdict.SAT
        if story_sat and not admits(gold):
            return "gold-direction-infeasible"
        query = QuerySpec(subject.name, reference.name, QType.FR)
        return network, query, gold, story_sat

    if want_yes:
        if not admits(gold):
            return "yes-candidate-inconsistent"
        # a solution of the gold probe is a solution of the story
        query = QuerySpec(subject.name, reference.name, QType.YN, gold, "Yes")
        return network, query, gold, True

    order = list(DIRECTION_ORDER)
    rng.shuffle(order)
    for candidate in order:
        if not admits(candidate):
            query = QuerySpec(subject.name, reference.name, QType.YN, candidate, "No")
            story_sat = solve(network, solution_cap=1, base=story).verdict is Verdict.SAT
            return network, query, gold, story_sat
    return "no-infeasible-direction"


def build_instance(
    master_seed: int,
    index: int,
    config: GenConfig,
    room_type: str,
    lexicon: Lexicon | None = None,
) -> tuple[BenchmarkInstance, bool]:
    """Build instance ``index`` and say whether its story is satisfiable."""
    lexicon = lexicon or default_lexicon()
    scene_seed = derive_seed(master_seed, index, "scene")
    scene = sample_scene(scene_seed, room_type, config.w, room_id=index)
    rng = random.Random(derive_seed(master_seed, index, "net"))
    network, query, gold, story_sat = build_network(scene, config, rng)
    story = render_story(network, config.view, lexicon)
    question = render_question(query, config.view, lexicon)
    coords = {
        name: (scene.object_named(name).center.x, scene.object_named(name).center.y)
        for name in network.variables
    }
    return BenchmarkInstance(
        id=index,
        room_id=index,
        room_type=room_type,
        seed=scene_seed,
        config=config,
        network=network,
        query=query,
        story=story,
        question=question,
        gold_coords=coords,
        gold_direction=gold,
    ), story_sat


@dataclass
class DatasetBuild:
    instances: list[BenchmarkInstance]
    yes_count: int = 0
    no_count: int = 0
    unsat_base_count: int = 0

    @property
    def yes_fraction(self) -> float | None:
        labelled = self.yes_count + self.no_count
        return self.yes_count / labelled if labelled else None


def generate_dataset(
    master_seed: int,
    count: int,
    config: GenConfig,
    lexicon: Lexicon | None = None,
) -> DatasetBuild:
    """Build ``count`` instances, cycling room types, with summary counters."""
    if count < 0:
        raise ValueError("count must be non-negative")
    build = DatasetBuild(instances=[])
    for i in range(count):
        inst, story_sat = build_instance(
            master_seed, i, config, ROOM_TYPES[i % len(ROOM_TYPES)], lexicon
        )
        build.instances.append(inst)
        if inst.query.label == "Yes":
            build.yes_count += 1
        elif inst.query.label == "No":
            build.no_count += 1
        if not story_sat:
            build.unsat_base_count += 1
    return build

