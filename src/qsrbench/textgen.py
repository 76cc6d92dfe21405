"""Template-grammar rendering of stories, questions and prompts — and the
exact inverse parser.

Rendering is deliberately rigid: a fixed opener sentence lists every object
(with its region and wall contact when those constraints are in play), then
one sentence per constrained object pair.  The north-facing view swaps in
observer-relative phrases for the directional vocabulary and wraps the pair
sentences in a perspective preamble; nothing else changes.  Because the
grammar is rigid, :func:`parse_story` can reconstruct the source constraint
multiset exactly, which the test-suite exploits for round-trip checks.
"""
from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .calculus import (
    DIRECTION_ORDER,
    Direction9,
    DistanceBand,
    Region9,
    TopoWall,
    ViewFrame,
    relation_from_token,
)
from .network import Binary, ConstraintNetwork, Unary


class StoryParseError(ValueError):
    """A story sentence (or item) does not match the grammar."""

    def __init__(self, fragment: str, reason: str = "does not match any template"):
        super().__init__(f"cannot parse {fragment!r}: {reason}")
        self.fragment = fragment


@dataclass(frozen=True)
class Lexicon:
    """Phrase tables and sentence templates; loaded from a JSON config."""

    regions: dict[Region9, str]
    directions: dict[ViewFrame, dict[Direction9, str]]
    distances: dict[DistanceBand, str]
    topology: dict[TopoWall, str]
    templates: dict[str, str]

    def validate(self) -> None:
        """Reject tables whose phrase-to-relation inversion is ambiguous."""
        for label, table in (
            ("regions", self.regions),
            ("distances", self.distances),
            ("topology", self.topology),
        ):
            if len(set(table.values())) != len(table):
                raise ValueError(f"ambiguous {label} phrases in lexicon")
        for view, table in self.directions.items():
            if len(set(table.values())) != len(table):
                raise ValueError(f"ambiguous {view.value} direction phrases")
            if set(table) != set(Direction9):
                raise ValueError(f"incomplete {view.value} direction table")
        required = {
            "inventory_opener", "layout_item", "layout_topo_suffix",
            "pair_top_down", "pair_top_down_overlap", "pair_north_facing",
            "distance_suffix", "perspective_opener", "perspective_lead",
            "question_yn_top_down", "question_yn_top_down_overlap",
            "question_yn_north_facing", "question_fr",
        }
        missing = required - set(self.templates)
        if missing:
            raise ValueError(f"lexicon templates missing: {sorted(missing)}")

    def direction_phrase(self, rel: Direction9, view: ViewFrame) -> str:
        return self.directions[view][rel]

    def direction_from_phrase(self, phrase: str, view: ViewFrame) -> Direction9:
        for rel, p in self.directions[view].items():
            if p == phrase:
                return rel
        raise KeyError(phrase)


def load_lexicon(path: str | Path | None = None) -> Lexicon:
    if path is None:
        text = resources.files("qsrbench").joinpath("data/lexicon.json").read_text()
    else:
        text = Path(path).read_text()
    raw = json.loads(text)
    lex = Lexicon(
        regions={Region9(k): v for k, v in raw["regions"].items()},
        directions={
            ViewFrame(view): {Direction9(k): v for k, v in table.items()}
            for view, table in raw["directions"].items()
        },
        distances={relation_from_token(k): v for k, v in raw["distances"].items()},
        topology={TopoWall(k): v for k, v in raw["topology"].items()},
        templates=dict(raw["templates"]),
    )
    lex.validate()
    return lex


_default_lexicon: Lexicon | None = None


def default_lexicon() -> Lexicon:
    global _default_lexicon
    if _default_lexicon is None:
        _default_lexicon = load_lexicon()
    return _default_lexicon


@dataclass(frozen=True)
class StoryText:
    text: str
    #: (sentence index, source constraint) for every constraint rendered
    trace: tuple[tuple[int, Unary | Binary], ...]


@dataclass(frozen=True)
class QuestionText:
    text: str
    trace: tuple[tuple[int, Binary], ...] = ()


def _capitalize(sentence: str) -> str:
    return sentence[0].upper() + sentence[1:] if sentence else sentence


def _join_items(items: list[str]) -> str:
    if len(items) == 1:
        return items[0]
    if len(items) == 2:
        return f"{items[0]} and {items[1]}"
    return ", ".join(items[:-1]) + f", and {items[-1]}"


# ---------------------------------------------------------------------------
# rendering


def render_story(network: ConstraintNetwork, view: ViewFrame, lexicon: Lexicon | None = None) -> StoryText:
    """Render every constraint of the network into text, opener first.

    The opener lists all variables in order (with their unary facts when
    present); each constrained pair then gets one sentence carrying its
    direction and, if present, its distance band.
    """
    lex = lexicon or default_lexicon()
    t = lex.templates

    unary_by_obj: dict[str, dict[str, Unary]] = {}
    for c in network.unary:
        slot = "region" if isinstance(c.rel, Region9) else "topo"
        unary_by_obj.setdefault(c.obj, {})[slot] = c

    sentences: list[str] = []
    trace: list[tuple[int, Unary | Binary]] = []

    items = []
    for name in network.variables:
        facts = unary_by_obj.get(name, {})
        if "region" in facts:
            region_c = facts["region"]
            item = t["layout_item"].format(
                name=name, region=lex.regions[region_c.rel]
            )
            trace.append((0, region_c))
            if "topo" in facts:
                topo_c = facts["topo"]
                item += t["layout_topo_suffix"].format(topo=lex.topology[topo_c.rel])
                trace.append((0, topo_c))
        else:
            item = name
        items.append(item)
    sentences.append(t["inventory_opener"].format(items=_join_items(items)))

    # group each pair's direction with its optional distance band
    pair_direction: dict[tuple[str, str], Binary] = {}
    pair_distance: dict[tuple[str, str], Binary] = {}
    pair_order: list[tuple[str, str]] = []
    for c in network.binary:
        key = (c.subject, c.reference)
        if isinstance(c.rel, Direction9):
            if key not in pair_direction and key not in pair_distance:
                pair_order.append(key)
            pair_direction[key] = c
        else:
            if key not in pair_direction and key not in pair_distance:
                pair_order.append(key)
            pair_distance[key] = c

    north_facing = view is ViewFrame.NORTH_FACING
    first_pair = True
    for key in pair_order:
        direction_c = pair_direction.get(key)
        if direction_c is None:
            raise ValueError(f"pair {key} has a distance band but no direction")
        subject, reference = key
        phrase = lex.direction_phrase(direction_c.rel, view)
        if north_facing:
            body = t["pair_north_facing"].format(
                subject=subject, direction=phrase, reference=reference
            )
        elif direction_c.rel is Direction9.O:
            body = t["pair_top_down_overlap"].format(subject=subject, reference=reference)
        else:
            body = t["pair_top_down"].format(
                subject=subject, direction=phrase, reference=reference
            )
        sentence_constraints: list[Binary] = [direction_c]
        distance_c = pair_distance.get(key)
        if distance_c is not None:
            body += t["distance_suffix"].format(distance=lex.distances[distance_c.rel])
            sentence_constraints.append(distance_c)

        if north_facing and first_pair:
            sentences.append(t["perspective_opener"])
            idx = len(sentences)
            sentences.append(t["perspective_lead"] + body)
        else:
            idx = len(sentences)
            sentences.append(_capitalize(body))
        for c in sentence_constraints:
            trace.append((idx, c))
        first_pair = False

    text = " ".join(s if s.endswith(".") else s + "." for s in sentences)
    return StoryText(text=text, trace=tuple(trace))


def render_question(
    query: "QuerySpec",  # noqa: F821 - netgen type, structural use only
    view: ViewFrame,
    lexicon: Lexicon | None = None,
) -> QuestionText:
    """Render a question; north-facing questions restate the perspective."""
    lex = lexicon or default_lexicon()
    t = lex.templates
    north_facing = view is ViewFrame.NORTH_FACING

    if query.qtype.value == "YN":
        if query.candidate is None:
            raise ValueError("yes/no query without a candidate relation")
        phrase = lex.direction_phrase(query.candidate, view)
        if north_facing:
            body = t["question_yn_north_facing"].format(
                subject=query.subject, direction=phrase, reference=query.reference
            )
        elif query.candidate is Direction9.O:
            body = t["question_yn_top_down_overlap"].format(
                subject=query.subject, reference=query.reference
            )
        else:
            body = t["question_yn_top_down"].format(
                subject=query.subject, direction=phrase, reference=query.reference
            )
        trace: tuple[tuple[int, Binary], ...] = (
            (0, Binary(query.subject, query.candidate, query.reference)),
        )
    else:
        options = ", ".join(lex.direction_phrase(d, view) for d in DIRECTION_ORDER)
        body = t["question_fr"].format(
            subject=query.subject, reference=query.reference, options=options
        )
        trace = ()

    if north_facing:
        text = t["perspective_opener"] + " " + t["perspective_lead"] + body[0].lower() + body[1:]
    else:
        text = body
    return QuestionText(text=text, trace=trace)


#: Prompt preamble describing the task; ``{s}`` is the grid side.
TASK_PREAMBLE = (
    "Analyze the spatial relationships between specified objects in a room, "
    "treating each object as a point within a {s}×{s} grid."
)

#: Prompt guideline defining the two-band distance vocabulary.
DISTANCE_2_PREAMBLE = (
    "Distances between objects in the room are determined using the room's "
    "width. A 'short distance' is defined as any distance up to half of the "
    "room's width. A 'far distance' refers to any distance that exceeds half "
    "of the room's width."
)

#: Prompt guideline defining the three-band distance vocabulary.
DISTANCE_3_PREAMBLE = (
    "Distances between objects in the room are determined based on the "
    "room's diagonal length. A 'short distance' refers to a distance that is "
    "up to one-third of the diagonal. A 'moderate distance' spans from "
    "one-third to two-thirds of the diagonal. A 'far distance' is any "
    "distance that exceeds two-thirds of the diagonal."
)


def render_prompt(instance, preamble_mode: str = "plain", question: str | None = None) -> str:
    """Assemble the text sent to a model for one benchmark instance.

    ``plain`` is story plus question; ``task_described`` prepends the task
    preamble and, when the instance uses distance bands, the matching
    distance guideline.  ``question`` overrides the stored question text
    (used for cross-view evaluation).
    """
    q = question if question is not None else instance.question
    if preamble_mode == "plain":
        return instance.story + "\n" + q
    if preamble_mode != "task_described":
        raise ValueError(f"unknown preamble mode {preamble_mode!r}")
    parts = [TASK_PREAMBLE.format(s=instance.network.s)]
    scheme = instance.config.setting.distance_scheme
    if scheme is not None:
        parts.append(DISTANCE_2_PREAMBLE if scheme.value == "D2" else DISTANCE_3_PREAMBLE)
    parts.append(instance.story)
    parts.append(q)
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# parsing


def _alternation(phrases) -> str:
    # longest first so that e.g. "north-east" beats "north"
    return "|".join(sorted((re.escape(p) for p in phrases), key=len, reverse=True))


def parse_story(text: str, lexicon: Lexicon | None = None) -> list[Unary | Binary]:
    """Recover the exact constraint multiset from a rendered story.

    Works for both views; returned constraints are always in the canonical
    cardinal vocabulary.  Raises :class:`StoryParseError` on any sentence or
    item the grammar does not produce.
    """
    lex = lexicon or default_lexicon()
    t = lex.templates
    if not text.endswith("."):
        raise StoryParseError(text[-40:], "story does not end with a period")

    sentences = [s.strip() for s in re.split(r"(?<=\.)\s+", text.strip()) if s.strip()]
    constraints: list[Unary | Binary] = []

    opener_prefix = t["inventory_opener"].split("{items}")[0]
    perspective_sentence = t["perspective_opener"]
    lead = t["perspective_lead"]

    region_alt = _alternation(lex.regions.values())
    topo_alt = _alternation(lex.topology.values())
    dist_alt = _alternation(lex.distances.values())
    td_alt = _alternation(
        p for d, p in lex.directions[ViewFrame.TOP_DOWN].items() if d is not Direction9.O
    )
    nf_alt = _alternation(lex.directions[ViewFrame.NORTH_FACING].values())
    name_pat = r"the [a-z][a-z ]*?"

    item_re = re.compile(
        rf"(?P<name>{name_pat}) placed in the (?P<region>{region_alt})"
        rf"(?:, (?P<topo>{topo_alt}) the wall)?$"
    )
    bare_re = re.compile(rf"^{name_pat}$")
    pair_td_re = re.compile(
        rf"^(?P<subject>{name_pat}) is placed to the (?P<dir>{td_alt}) of "
        rf"(?P<reference>{name_pat})(?:, (?P<dist>{dist_alt}))?\.$"
    )
    overlap_td_re = re.compile(
        rf"^(?P<subject>{name_pat}) is placed at the same spot as "
        rf"(?P<reference>{name_pat})(?:, (?P<dist>{dist_alt}))?\.$"
    )
    pair_nf_re = re.compile(
        rf"^(?P<subject>{name_pat}) is (?P<dir>{nf_alt}) "
        rf"(?P<reference>{name_pat})(?:, (?P<dist>{dist_alt}))?\.$"
    )

    def parse_items(body: str) -> None:
        pieces = _split_items(body)
        for piece in pieces:
            m = item_re.fullmatch(piece)
            if m:
                name = m.group("name")
                region = _lookup(lex.regions, m.group("region"))
                constraints.append(Unary(name, region))
                if m.group("topo"):
                    constraints.append(Unary(name, _lookup(lex.topology, m.group("topo"))))
            elif bare_re.fullmatch(piece):
                continue  # inventory mention only, no constraint
            else:
                raise StoryParseError(piece)

    for sentence in sentences:
        if sentence == perspective_sentence:
            continue
        if sentence.startswith(opener_prefix):
            body = sentence[len(opener_prefix):]
            if not body.endswith("."):
                raise StoryParseError(sentence)
            parse_items(body[:-1])
            continue
        normalized = sentence
        if normalized.startswith(lead):
            normalized = normalized[len(lead):]
        normalized = normalized[0].lower() + normalized[1:]
        m = pair_td_re.fullmatch(normalized)
        if m:
            rel = lex.direction_from_phrase(m.group("dir"), ViewFrame.TOP_DOWN)
        else:
            m = overlap_td_re.fullmatch(normalized)
            if m:
                rel = Direction9.O
            else:
                m = pair_nf_re.fullmatch(normalized)
                if m:
                    rel = lex.direction_from_phrase(m.group("dir"), ViewFrame.NORTH_FACING)
                else:
                    raise StoryParseError(sentence)
        subject = m.group("subject")
        reference = m.group("reference")
        constraints.append(Binary(subject, rel, reference))
        if m.group("dist"):
            constraints.append(Binary(subject, _lookup(lex.distances, m.group("dist")), reference))

    return constraints


def _split_items(body: str) -> list[str]:
    """Split the opener item list on ", and " / " and " / ", " separators,
    keeping commas that belong to an item's wall-contact suffix."""
    if ", and " in body:
        head, tail = body.rsplit(", and ", 1)
        return _split_items(head) + [tail]
    if " and " in body:
        head, tail = body.rsplit(" and ", 1)
        return _split_items_comma(head) + [tail]
    return _split_items_comma(body)


def _split_items_comma(body: str) -> list[str]:
    parts = body.split(", ")
    items: list[str] = []
    for part in parts:
        # a fragment that does not introduce an object continues the
        # previous item (it is a wall-contact suffix)
        if items and not part.startswith("the "):
            items[-1] += ", " + part
        else:
            items.append(part)
    return items


def _lookup(table: dict, phrase: str):
    for rel, p in table.items():
        if p == phrase:
            return rel
    raise StoryParseError(phrase, "unknown phrase")


def relation_phrases(lexicon: Lexicon, view: ViewFrame) -> dict[str, Direction9]:
    """Direction phrase -> relation map for one view (for answer parsing)."""
    return {p: d for d, p in lexicon.directions[view].items()}
