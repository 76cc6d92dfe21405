"""Tests for benchmark instance generation."""

from __future__ import annotations

import random

import pytest

from qsrbench.calculus import (
    Direction9,
    DistanceScheme,
    PointPos,
    ViewFrame,
    direction_between,
)
from qsrbench.netgen import (
    GenConfig,
    GenerationError,
    QType,
    Setting,
    UnaryMode,
    build_instance,
    build_network,
    derive_seed,
    generate_dataset,
    select_constraints,
    select_objects,
)
from qsrbench.network import Binary
from qsrbench.scene import default_catalog, sample_scene
from qsrbench.solver import Verdict, solve


def make_config(**overrides):
    base = dict(
        n=4,
        d=81,
        m=3,
        setting=Setting.O2,
        view=ViewFrame.TOP_DOWN,
        qtype=QType.YN,
    )
    base.update(overrides)
    return GenConfig(**base)


class TestGenConfig:
    @pytest.mark.parametrize("d", [80, 16, 100, 0, 2])
    def test_rejects_bad_grid_size(self, d):
        with pytest.raises(ValueError):
            make_config(d=d)

    @pytest.mark.parametrize("d,s", [(9, 3), (36, 6), (81, 9), (144, 12)])
    def test_accepts_valid_grid_sizes(self, d, s):
        assert make_config(d=d, m=1).s == s

    def test_rejects_single_object(self):
        with pytest.raises(ValueError):
            make_config(n=1, m=0)

    def test_m_bounded_by_non_query_pairs(self):
        # n=5 has C(5,2)=10 pairs; the query pair is excluded, so m <= 9.
        make_config(n=5, m=9)
        with pytest.raises(ValueError):
            make_config(n=5, m=10)
        with pytest.raises(ValueError):
            make_config(m=-1)

    def test_rejects_bad_width_and_eps(self):
        with pytest.raises(ValueError):
            make_config(w=0.0)
        with pytest.raises(ValueError):
            make_config(eps_frac=-0.1)

    def test_eps_property(self):
        cfg = make_config(w=12.0, eps_frac=0.02)
        assert cfg.eps == pytest.approx(0.24)

    def test_setting_unary_modes(self):
        assert Setting.O2.unary_mode is UnaryMode.UNIFORM
        assert Setting.TPP.unary_mode is UnaryMode.TPP
        assert Setting.LAYOUT.unary_mode is UnaryMode.LAYOUT
        assert Setting.O2_D3_LAYOUT.unary_mode is UnaryMode.LAYOUT

    def test_setting_distance_schemes(self):
        assert Setting.O2.distance_scheme is None
        assert Setting.LAYOUT.distance_scheme is None
        assert Setting.O2_D2.distance_scheme is DistanceScheme.D2
        assert Setting.O2_D3_LAYOUT.distance_scheme is DistanceScheme.D3


class TestSeedsAndSelection:
    def test_derive_seed_deterministic(self):
        assert derive_seed(7, 3, "scene") == derive_seed(7, 3, "scene")

    def test_derive_seed_distinguishes_context(self):
        seeds = {
            derive_seed(7, 3, "scene"),
            derive_seed(7, 3, "net"),
            derive_seed(7, 4, "scene"),
            derive_seed(8, 3, "scene"),
        }
        assert len(seeds) == 4

    def test_derive_seed_is_64_bit(self):
        assert 0 <= derive_seed(0) < 2**64

    def test_select_objects_distinct(self):
        scene = sample_scene(1, "bedroom", 12.0, default_catalog(), room_id=0)
        chosen = select_objects(scene, 5, random.Random(2))
        assert len({o.name for o in chosen}) == 5

    def test_select_objects_rejects_oversample(self):
        scene = sample_scene(1, "bedroom", 12.0, default_catalog(), room_id=0)
        with pytest.raises(ValueError):
            select_objects(scene, len(scene.objects) + 1, random.Random(2))

    def test_select_constraints_excludes_query_pair(self):
        objects = list(range(4))
        for seed in range(50):
            pairs = select_constraints(objects, (2, 0), 5, random.Random(seed))
            assert (0, 2) not in pairs
            assert len(pairs) == 5
            assert pairs == sorted(pairs)

    def test_select_constraints_forced_complement(self):
        # n=3 with query pair (0, 1) leaves exactly the two other pairs.
        pairs = select_constraints([0, 1, 2], (1, 0), 2, random.Random(9))
        assert pairs == [(0, 2), (1, 2)]

    def test_select_constraints_rejects_oversample(self):
        with pytest.raises(ValueError):
            select_constraints([0, 1, 2], (0, 1), 3, random.Random(0))


class TestDeterminism:
    def test_generate_dataset_repeatable(self):
        cfg = make_config()
        a = generate_dataset(master_seed=3, count=8, config=cfg)
        b = generate_dataset(master_seed=3, count=8, config=cfg)
        assert a.instances == b.instances
        assert (a.yes_count, a.no_count) == (b.yes_count, b.no_count)

    def test_count_prefix_property(self):
        cfg = make_config()
        small = generate_dataset(master_seed=3, count=4, config=cfg)
        large = generate_dataset(master_seed=3, count=12, config=cfg)
        assert large.instances[:4] == small.instances

    def test_master_seed_changes_output(self):
        cfg = make_config()
        a = generate_dataset(master_seed=3, count=4, config=cfg)
        b = generate_dataset(master_seed=4, count=4, config=cfg)
        assert a.instances != b.instances

    def test_instance_independent_of_batch(self):
        cfg = make_config()
        batch = generate_dataset(master_seed=3, count=6, config=cfg)
        solo, _ = build_instance(3, 5, cfg, batch.instances[5].room_type)
        assert solo == batch.instances[5]


@pytest.fixture(scope="module")
def yn_build():
    cfg = make_config(n=5, m=4, d=144, setting=Setting.O2_D2)
    return cfg, generate_dataset(master_seed=17, count=24, config=cfg)


class TestInstanceContracts:
    def test_ids_and_room_cycle(self, yn_build):
        _, build = yn_build
        for i, inst in enumerate(build.instances):
            assert inst.id == i
            assert inst.room_id == i
        types = [inst.room_type for inst in build.instances[:4]]
        assert types == ["bedroom", "kitchen", "living room", "bathroom"]
        assert build.instances[4].room_type == "bedroom"

    def test_config_echoed(self, yn_build):
        cfg, build = yn_build
        assert all(inst.config == cfg for inst in build.instances)

    def test_network_shape(self, yn_build):
        cfg, build = yn_build
        for inst in build.instances:
            assert len(inst.network.variables) == cfg.n
            directions = [
                b for b in inst.network.binary if isinstance(b.rel, Direction9)
            ]
            assert len(directions) == cfg.m
            assert inst.network.s == cfg.s

    def test_query_pair_never_described(self, yn_build):
        _, build = yn_build
        for inst in build.instances:
            pair = {inst.query.subject, inst.query.reference}
            for b in inst.network.binary:
                assert {b.subject, b.reference} != pair

    def test_gold_direction_matches_coords(self, yn_build):
        cfg, build = yn_build
        for inst in build.instances:
            sx, sy = inst.gold_coords[inst.query.subject]
            rx, ry = inst.gold_coords[inst.query.reference]
            gold = direction_between(PointPos(sx, sy), PointPos(rx, ry), cfg.eps)
            assert gold is inst.gold_direction

    def test_gold_coords_cover_variables(self, yn_build):
        _, build = yn_build
        for inst in build.instances:
            assert set(inst.gold_coords) == set(inst.network.variables)

    def test_story_and_question_nonempty(self, yn_build):
        _, build = yn_build
        for inst in build.instances:
            assert inst.story.endswith(".")
            assert inst.question.endswith("?")


class TestAnswerGuarantees:
    @pytest.mark.parametrize(
        "setting", [Setting.O2, Setting.O2_D2, Setting.LAYOUT]
    )
    def test_yn_labels_are_solver_verified(self, setting):
        cfg = make_config(n=4, m=3, d=81, setting=setting, qtype=QType.YN)
        build = generate_dataset(master_seed=23, count=16, config=cfg)
        saw = set()
        for inst in build.instances:
            saw.add(inst.query.label)
            probe = inst.network.extended(
                Binary(inst.query.subject, inst.query.candidate, inst.query.reference)
            )
            verdict = solve(probe, solution_cap=1).verdict
            if inst.query.label == "Yes":
                assert verdict is Verdict.SAT
                assert inst.query.candidate is inst.gold_direction
            else:
                assert inst.query.label == "No"
                assert verdict is Verdict.UNSAT
        assert saw == {"Yes", "No"}

    def test_yn_counters_match_labels(self):
        cfg = make_config(qtype=QType.YN)
        build = generate_dataset(master_seed=29, count=12, config=cfg)
        labels = [inst.query.label for inst in build.instances]
        assert build.yes_count == labels.count("Yes")
        assert build.no_count == labels.count("No")
        assert build.yes_fraction == pytest.approx(build.yes_count / 12)

    def test_yn_balance_coarse(self):
        cfg = make_config(n=5, m=4, d=144, setting=Setting.O2_D2, qtype=QType.YN)
        build = generate_dataset(master_seed=31, count=200, config=cfg)
        assert 0.35 <= build.yes_fraction <= 0.65

    def test_fr_gold_feasible_on_sat_bases(self):
        cfg = make_config(n=5, m=4, d=81, setting=Setting.O2_D3, qtype=QType.FR)
        build = generate_dataset(master_seed=37, count=20, config=cfg)
        for inst in build.instances:
            assert inst.query.candidate is None
            assert inst.query.label is None
            if solve(inst.network, solution_cap=1).verdict is Verdict.SAT:
                probe = inst.network.extended(
                    Binary(
                        inst.query.subject,
                        inst.gold_direction,
                        inst.query.reference,
                    )
                )
                assert solve(probe, solution_cap=1).verdict is Verdict.SAT

    @pytest.mark.parametrize(
        "setting, n, m, qtype",
        [
            (Setting.O2_D3, 6, 5, QType.FR),
            # both Unsat stories are labelled No, so a No draw must be searched
            (Setting.TPP, 5, 4, QType.YN),
        ],
        ids=["FR-O2+D3", "YN-TPP"],
    )
    def test_counts_unsat_bases(self, setting, n, m, qtype):
        cfg = make_config(n=n, m=m, d=81, setting=setting, qtype=qtype)
        build = generate_dataset(master_seed=41, count=30, config=cfg)
        unsat = [
            inst for inst in build.instances
            if solve(inst.network, solution_cap=1).verdict is Verdict.UNSAT
        ]
        assert len(unsat) == 2
        assert build.unsat_base_count == len(unsat)
        if qtype is QType.FR:
            assert build.yes_fraction is None
        else:
            assert {inst.query.label for inst in unsat} == {"No"}


class TestGenerationFailure:
    def test_budget_exhaustion_raises(self):
        # Two objects and no constraints: every direction stays feasible, so a
        # "No" question can never be certified and the resample budget runs out.
        cfg = make_config(n=2, m=0, d=9, setting=Setting.O2, qtype=QType.YN)
        scene = sample_scene(5, "bedroom", 12.0, default_catalog(), room_id=77)
        rng = random.Random(0)  # first draw > 0.5 selects the "No" branch
        assert rng.random() > 0.5
        with pytest.raises(GenerationError) as err:
            build_network(scene, cfg, random.Random(0))
        assert err.value.index == 77
        assert err.value.reasons == {"no-infeasible-direction": 64}

    def test_generate_dataset_validates_arguments(self):
        cfg = make_config()
        with pytest.raises(ValueError):
            generate_dataset(master_seed=0, count=-1, config=cfg)
