"""Tests for story/question rendering and story parsing."""

from __future__ import annotations

import dataclasses
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsrbench.calculus import (
    Band,
    Direction9,
    DistanceBand,
    DistanceScheme,
    Region9,
    TopoWall,
    ViewFrame,
    distance_bands_for,
)
from qsrbench.netgen import GenConfig, QType, QuerySpec, Setting, generate_dataset
from qsrbench.network import Binary, ConstraintNetwork, Unary
from qsrbench.textgen import (
    StoryParseError,
    default_lexicon,
    load_lexicon,
    parse_story,
    relation_phrases,
    render_prompt,
    render_question,
    render_story,
)

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

GOLDEN_TOP_DOWN = (
    "This room contains a collection of furniture, including the bed placed in "
    "the south, touching the wall, the desk placed in the north-west, not "
    "touching the wall, and the rug placed in the centre, not touching the "
    "wall. The desk is placed to the north-west of the bed, far. The rug is "
    "placed to the north of the bed."
)

GOLDEN_NORTH_FACING = (
    "This room contains a collection of furniture, including the bed placed in "
    "the south, touching the wall, the desk placed in the north-west, not "
    "touching the wall, and the rug placed in the centre, not touching the "
    "wall. Imagine yourself at the southern wall's door, looking inwards. From "
    "this perspective, the desk is behind and to the left of the bed, far. The "
    "rug is behind the bed."
)


class TestStoryGoldens:
    def test_top_down_story_exact(self):
        assert render_story(CANONICAL_NET, ViewFrame.TOP_DOWN) == GOLDEN_TOP_DOWN

    def test_north_facing_story_exact(self):
        assert (
            render_story(CANONICAL_NET, ViewFrame.NORTH_FACING)
            == GOLDEN_NORTH_FACING
        )

    def test_inventory_skeleton(self):
        for view in ViewFrame:
            text = render_story(CANONICAL_NET, view)
            assert text.startswith("This room contains a collection of furniture")

    def test_perspective_skeleton_only_in_north_facing(self):
        opener = "Imagine yourself at the southern wall's door"
        assert opener not in render_story(CANONICAL_NET, ViewFrame.TOP_DOWN)
        assert opener in render_story(CANONICAL_NET, ViewFrame.NORTH_FACING)

    def test_overlap_phrasing(self):
        net = ConstraintNetwork(
            variables=("the lamp", "the sofa"),
            binary=(Binary("the lamp", Direction9.O, "the sofa"),),
            s=12,
        )
        top = render_story(net, ViewFrame.TOP_DOWN)
        assert "The lamp is placed at the same spot as the sofa." in top
        north = render_story(net, ViewFrame.NORTH_FACING)
        assert "the lamp is overlapping the sofa." in north


class TestQuestionGoldens:
    def test_yn_top_down(self):
        q = render_question(
            QuerySpec("the rug", "the desk", QType.YN, Direction9.E, "No"),
            ViewFrame.TOP_DOWN,
        )
        assert q == "Is the rug to the east of the desk?"

    def test_yn_north_facing(self):
        q = render_question(
            QuerySpec("the rug", "the desk", QType.YN, Direction9.E, "No"),
            ViewFrame.NORTH_FACING,
        )
        assert q == (
            "Imagine yourself at the southern wall's door, looking inwards. "
            "From this perspective, is the rug to the right of the desk?"
        )

    def test_yn_overlap_top_down(self):
        q = render_question(
            QuerySpec("the lamp", "the sofa", QType.YN, Direction9.O, "Yes"),
            ViewFrame.TOP_DOWN,
        )
        assert q == "Is the lamp at the same spot as the sofa?"

    def test_fr_top_down_lists_nine_options(self):
        q = render_question(
            QuerySpec("the rug", "the desk", QType.FR), ViewFrame.TOP_DOWN
        )
        assert q.startswith(
            "What is the spatial relationship of the rug to the desk? Choose from:"
        )
        options = q.split("Choose from: ")[1].rstrip(".")
        assert len(options.split(", ")) == 9
        assert "north" in options and "overlap" in options

    def test_fr_north_facing_uses_surface_labels(self):
        q = render_question(
            QuerySpec("the rug", "the desk", QType.FR), ViewFrame.NORTH_FACING
        )
        assert "behind" in q
        assert "in front of and to the left of" in q
        assert "north" not in q


@pytest.fixture(scope="module")
def instance():
    cfg = GenConfig(
        n=3,
        d=144,
        m=2,
        setting=Setting.O2_D2,
        view=ViewFrame.TOP_DOWN,
        qtype=QType.YN,
    )
    return generate_dataset(master_seed=5, count=1, config=cfg).instances[0]


class TestPrompt:
    def test_plain_is_story_plus_question(self, instance):
        prompt = render_prompt(instance, preamble_mode="plain")
        assert prompt == f"{instance.story}\n{instance.question}"

    def test_task_described_prepends_grid_preamble(self, instance):
        prompt = render_prompt(instance, preamble_mode="task_described")
        first = prompt.split("\n")[0]
        assert first.startswith("Analyze the spatial relationships")
        assert "12×12 grid" in first
        assert prompt.endswith(f"{instance.story}\n{instance.question}")

    def test_task_described_adds_band_definitions(self, instance):
        prompt = render_prompt(instance, preamble_mode="task_described")
        assert "half of the room's width" in prompt

    def test_task_described_d3_uses_diagonal(self):
        cfg = GenConfig(
            n=3,
            d=144,
            m=2,
            setting=Setting.O2_D3,
            view=ViewFrame.TOP_DOWN,
            qtype=QType.YN,
        )
        inst = generate_dataset(master_seed=5, count=1, config=cfg).instances[0]
        prompt = render_prompt(inst, preamble_mode="task_described")
        assert "diagonal" in prompt
        assert "one-third" in prompt

    def test_unknown_preamble_mode_rejected(self, instance):
        with pytest.raises(ValueError):
            render_prompt(instance, preamble_mode="verbose")


class TestRelationPhrases:
    def test_top_down_direction_phrases(self):
        phrases = relation_phrases(default_lexicon(), ViewFrame.TOP_DOWN)
        assert phrases["north"] == Direction9.N
        assert phrases["south-west"] == Direction9.SW

    def test_north_facing_relabels_surface(self):
        phrases = relation_phrases(default_lexicon(), ViewFrame.NORTH_FACING)
        assert phrases["behind"] == Direction9.N
        assert phrases["in front of"] == Direction9.S
        assert phrases["to the left of"] == Direction9.W
        assert phrases["behind and to the right of"] == Direction9.NE


class TestParseStory:
    def test_round_trip_canonical_top_down(self):
        parsed = parse_story(GOLDEN_TOP_DOWN)
        assert set(parsed) == set(CANONICAL_NET.unary) | set(CANONICAL_NET.binary)

    def test_round_trip_canonical_north_facing(self):
        parsed = parse_story(GOLDEN_NORTH_FACING)
        assert set(parsed) == set(CANONICAL_NET.unary) | set(CANONICAL_NET.binary)

    def test_rejects_garbage(self):
        with pytest.raises(StoryParseError):
            parse_story("There is nothing noteworthy in here.")

    def test_rejects_unknown_relation_phrase(self):
        text = GOLDEN_TOP_DOWN.replace("to the north of", "hovering above")
        with pytest.raises(StoryParseError):
            parse_story(text)

    @pytest.mark.parametrize("view", list(ViewFrame))
    @pytest.mark.parametrize(
        "setting",
        [Setting.O2, Setting.O2_D2, Setting.O2_D3, Setting.LAYOUT, Setting.TPP],
    )
    def test_round_trip_generated(self, view, setting):
        cfg = GenConfig(
            n=5, d=144, m=4, setting=setting, view=view, qtype=QType.YN
        )
        build = generate_dataset(master_seed=11, count=10, config=cfg)
        for inst in build.instances:
            parsed = parse_story(inst.story)
            net = inst.network
            assert set(parsed) == set(net.unary) | set(net.binary)
            assert len(parsed) == len(net.unary) + len(net.binary)


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    view=st.sampled_from(list(ViewFrame)),
)
def test_round_trip_property(seed, view):
    cfg = GenConfig(
        n=4, d=81, m=3, setting=Setting.O2_D3, view=view, qtype=QType.FR
    )
    inst = generate_dataset(master_seed=seed, count=1, config=cfg).instances[0]
    parsed = parse_story(inst.story)
    binaries = [c for c in parsed if isinstance(c, Binary)]
    assert set(binaries) == set(inst.network.binary)


REWORDED = load_lexicon(Path(__file__).parent / "data" / "lexicon_reworded.json")
LEXICONS = {"default": default_lexicon(), "reworded": REWORDED}


class TestLexiconValidation:
    @pytest.mark.parametrize(
        "name, template",
        [
            ("pair_top_down", "{subject} is placed to the north of it"),  # drops {reference}
            ("pair_north_facing", "{subject} is {direction} {reference}, {distance}"),  # adds
            ("layout_item", "{name} placed in the {region} ({region})"),  # repeats
            ("perspective_lead", "From {view}, "),
        ],
    )
    def test_rejects_a_changed_placeholder_set(self, name, template):
        lex = default_lexicon()
        changed = dataclasses.replace(lex, templates={**lex.templates, name: template})
        with pytest.raises(ValueError, match=name):
            changed.validate()

    def test_rejects_a_missing_template(self):
        lex = default_lexicon()
        templates = {k: v for k, v in lex.templates.items() if k != "distance_suffix"}
        with pytest.raises(ValueError, match="distance_suffix"):
            dataclasses.replace(lex, templates=templates).validate()

    @pytest.mark.parametrize(
        "table, missing",
        [
            ("regions", Region9.SR),
            ("topology", TopoWall.NTPP),
            ("distances", DistanceBand(DistanceScheme.D3, Band.MEDIUM)),
        ],
    )
    def test_rejects_a_table_missing_a_member(self, table, missing):
        lex = default_lexicon()
        smaller = {k: v for k, v in getattr(lex, table).items() if k != missing}
        with pytest.raises(ValueError, match=f"incomplete {table}"):
            dataclasses.replace(lex, **{table: smaller}).validate()

    def test_rejects_a_missing_view(self):
        lex = default_lexicon()
        top_down_only = {ViewFrame.TOP_DOWN: lex.directions[ViewFrame.TOP_DOWN]}
        with pytest.raises(ValueError, match="every view"):
            dataclasses.replace(lex, directions=top_down_only).validate()

    def test_rejects_a_template_that_splits_a_sentence(self):
        lex = default_lexicon()
        templates = {**lex.templates, "perspective_opener": "Stand at the door. Look in."}
        with pytest.raises(ValueError, match="perspective_opener"):
            dataclasses.replace(lex, templates=templates).validate()

    def test_rejects_a_phrase_that_splits_a_sentence(self):
        lex = default_lexicon()
        regions = {**lex.regions, Region9.CR: "centre. Really"}
        with pytest.raises(ValueError, match="regions phrase"):
            dataclasses.replace(lex, regions=regions).validate()

    def test_question_templates_may_hold_several_sentences(self):
        lex = default_lexicon()
        question = "Consider {subject}. Where is it relative to {reference}? Options: {options}."
        dataclasses.replace(lex, templates={**lex.templates, "question_fr": question}).validate()


@pytest.mark.parametrize("view", list(ViewFrame))
@pytest.mark.parametrize("setting", list(Setting))
def test_reworded_lexicon_round_trips_generated_stories(setting, view):
    cfg = GenConfig(n=5, d=144, m=4, setting=setting, view=view, qtype=QType.FR)
    build = generate_dataset(master_seed=3, count=6, config=cfg, lexicon=REWORDED)
    for inst in build.instances:
        assert "placed" not in inst.story
        parsed = parse_story(inst.story, REWORDED)
        assert Counter(parsed) == Counter(inst.network.unary + inst.network.binary)


def _lexicon_words() -> set[str]:
    words = {"and"}
    for lex in LEXICONS.values():
        tables = [lex.regions, lex.distances, lex.topology, lex.templates, *lex.directions.values()]
        for table in tables:
            for text in table.values():
                words.update(re.findall(r"[a-z]+", text.lower()))
    return words


_WORD = st.text("abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=7).filter(
    lambda w, taken=_lexicon_words(): w not in taken
)
_NAME = st.lists(_WORD, min_size=1, max_size=2).map(lambda ws: "the " + " ".join(ws))
_BANDS = [band for scheme in DistanceScheme for band in distance_bands_for(scheme)]


@st.composite
def networks(draw):
    names = draw(st.lists(_NAME, min_size=2, max_size=5, unique=True))
    unary = []
    for name in names:
        region = draw(st.none() | st.sampled_from(list(Region9)))
        if region is not None:
            unary.append(Unary(name, region))
            topo = draw(st.none() | st.sampled_from(list(TopoWall)))
            if topo is not None:
                unary.append(Unary(name, topo))
    pairs = [(a, b) for a in names for b in names if a != b]
    binary = []
    for a, b in draw(st.lists(st.sampled_from(pairs), max_size=6, unique=True)):
        binary.append(Binary(a, draw(st.sampled_from(list(Direction9))), b))
        band = draw(st.none() | st.sampled_from(_BANDS))
        if band is not None:
            binary.append(Binary(a, band, b))
    return ConstraintNetwork(tuple(names), tuple(unary), tuple(binary), s=12)


@settings(max_examples=150, deadline=None)
@given(
    net=networks(),
    view=st.sampled_from(list(ViewFrame)),
    lexicon=st.sampled_from(sorted(LEXICONS)),
)
def test_render_parse_round_trip_hand_built(net, view, lexicon):
    lex = LEXICONS[lexicon]
    parsed = parse_story(render_story(net, view, lex), lex)
    assert Counter(parsed) == Counter(net.unary + net.binary)
