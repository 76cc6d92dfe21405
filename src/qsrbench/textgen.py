"""Template-grammar rendering of stories, questions and prompts — and the
exact inverse parser.

Rendering is deliberately rigid: a fixed opener sentence lists every object
(with its region and wall contact when those constraints are in play), then
one sentence per constrained object pair.  The north-facing view swaps in
observer-relative phrases for the directional vocabulary and wraps the pair
sentences in a perspective preamble; nothing else changes.  :func:`parse_story`
compiles its patterns from the same templates, so it reconstructs the source
constraint multiset exactly, which the test-suite exploits for round-trip checks.
"""
from __future__ import annotations

import json
import re
import string
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .calculus import (
    DIRECTION_ORDER,
    Direction9,
    DistanceBand,
    DistanceScheme,
    Region9,
    TopoWall,
    ViewFrame,
    distance_bands_for,
    relation_from_token,
)
from .network import Binary, ConstraintNetwork, Unary


class StoryParseError(ValueError):
    """A story sentence (or item) does not match the grammar."""

    def __init__(self, fragment: str):
        super().__init__(f"cannot parse {fragment!r}: does not match any template")


#: Each template's placeholders, exactly as the renderer fills them.
TEMPLATE_FIELDS: dict[str, tuple[str, ...]] = {
    "inventory_opener": ("items",),
    "layout_item": ("name", "region"),
    "layout_topo_suffix": ("topo",),
    "pair_top_down": ("subject", "direction", "reference"),
    "pair_top_down_overlap": ("subject", "reference"),
    "pair_north_facing": ("subject", "direction", "reference"),
    "distance_suffix": ("distance",),
    "perspective_opener": (),
    "perspective_lead": (),
    "question_yn_top_down": ("subject", "direction", "reference"),
    "question_yn_top_down_overlap": ("subject", "reference"),
    "question_yn_north_facing": ("subject", "direction", "reference"),
    "question_fr": ("subject", "reference", "options"),
}


def _reject_sentence_break(label: str, text: str) -> None:
    """Stories are split into sentences at a period followed by whitespace,
    so story wording may not contain one."""
    if re.search(r"\.\s", text):
        raise ValueError(f"lexicon {label} {text!r} would split a story sentence")


@dataclass(frozen=True)
class Lexicon:
    """Phrase tables and sentence templates; loaded from a JSON config."""

    regions: dict[Region9, str]
    directions: dict[ViewFrame, dict[Direction9, str]]
    distances: dict[DistanceBand, str]
    topology: dict[TopoWall, str]
    templates: dict[str, str]

    def validate(self) -> None:
        """Reject phrase tables that are ambiguous or miss a relation, story
        wording that would split a sentence, and templates that are missing
        or whose placeholders differ from :data:`TEMPLATE_FIELDS`."""
        if set(self.directions) != set(ViewFrame):
            raise ValueError("lexicon direction tables must cover every view")
        bands = {b for scheme in DistanceScheme for b in distance_bands_for(scheme)}
        for label, table, members in (
            ("regions", self.regions, set(Region9)),
            ("distances", self.distances, bands),
            ("topology", self.topology, set(TopoWall)),
            *((f"{view.value} direction", table, set(Direction9))
              for view, table in self.directions.items()),
        ):
            if len(set(table.values())) != len(table):
                raise ValueError(f"ambiguous {label} phrases in lexicon")
            if set(table) != members:
                raise ValueError(f"incomplete {label} table in lexicon")
            for phrase in table.values():
                _reject_sentence_break(f"{label} phrase", phrase)
        for name, expected in TEMPLATE_FIELDS.items():
            if name not in self.templates:
                raise ValueError(f"lexicon template {name!r} is missing")
            if not name.startswith("question_"):  # questions are never split
                _reject_sentence_break(f"template {name!r}", self.templates[name])
            parsed = string.Formatter().parse(self.templates[name])
            found = sorted(f for _, f, _, _ in parsed if f is not None)
            if found != sorted(expected):
                raise ValueError(
                    f"lexicon template {name!r} has placeholders {found}, "
                    f"expected {sorted(expected)}"
                )

    def direction_phrase(self, rel: Direction9, view: ViewFrame) -> str:
        return self.directions[view][rel]


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


def _capitalize(sentence: str) -> str:
    return sentence[0].upper() + sentence[1:] if sentence else sentence


def _terminated(sentence: str) -> str:
    return sentence if sentence.endswith(".") else sentence + "."


def _join_items(items: list[str]) -> str:
    if len(items) == 1:
        return items[0]
    if len(items) == 2:
        return f"{items[0]} and {items[1]}"
    return ", ".join(items[:-1]) + f", and {items[-1]}"


# ---------------------------------------------------------------------------
# rendering


def _directed(lex: Lexicon, kind: str, view: ViewFrame, subject: str, rel: Direction9, reference: str) -> str:
    """Fill the ``pair`` or ``question_yn`` template the view and relation
    call for: north-facing, top-down overlap (which names no direction) or
    top-down."""
    if view is ViewFrame.NORTH_FACING:
        variant = "north_facing"
    elif rel is Direction9.O:
        variant = "top_down_overlap"
    else:
        variant = "top_down"
    phrase = lex.direction_phrase(rel, view)
    return lex.templates[f"{kind}_{variant}"].format(subject=subject, direction=phrase, reference=reference)


def render_story(network: ConstraintNetwork, view: ViewFrame, lexicon: Lexicon | None = None) -> str:
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

    items = []
    for name in network.variables:
        facts = unary_by_obj.get(name, {})
        if "region" in facts:
            item = t["layout_item"].format(name=name, region=lex.regions[facts["region"].rel])
            if "topo" in facts:
                item += t["layout_topo_suffix"].format(topo=lex.topology[facts["topo"].rel])
        else:
            item = name
        items.append(item)
    sentences = [t["inventory_opener"].format(items=_join_items(items))]

    # each pair's direction and optional distance band, in first-mention order
    pairs: dict[tuple[str, str], dict[str, Binary]] = {}
    for c in network.binary:
        slot = "direction" if isinstance(c.rel, Direction9) else "distance"
        pairs.setdefault((c.subject, c.reference), {})[slot] = c

    north_facing = view is ViewFrame.NORTH_FACING
    for (subject, reference), facts in pairs.items():
        if "direction" not in facts:
            raise ValueError(f"pair {(subject, reference)} has a distance band but no direction")
        body = _directed(lex, "pair", view, subject, facts["direction"].rel, reference)
        if "distance" in facts:
            body += t["distance_suffix"].format(distance=lex.distances[facts["distance"].rel])

        if north_facing and len(sentences) == 1:  # the first pair sentence
            sentences.append(t["perspective_opener"])
            sentences.append(t["perspective_lead"] + body)
        else:
            sentences.append(_capitalize(body))

    return " ".join(_terminated(s) for s in sentences)


def render_question(
    query: "QuerySpec",  # noqa: F821 - netgen type, structural use only
    view: ViewFrame,
    lexicon: Lexicon | None = None,
) -> str:
    """Render a question; north-facing questions restate the perspective."""
    lex = lexicon or default_lexicon()
    t = lex.templates
    north_facing = view is ViewFrame.NORTH_FACING

    if query.qtype.value == "YN":
        if query.candidate is None:
            raise ValueError("yes/no query without a candidate relation")
        body = _directed(lex, "question_yn", view, query.subject, query.candidate, query.reference)
    else:
        options = ", ".join(lex.direction_phrase(d, view) for d in DIRECTION_ORDER)
        body = t["question_fr"].format(
            subject=query.subject, reference=query.reference, options=options
        )

    if north_facing:
        return t["perspective_opener"] + " " + t["perspective_lead"] + body[0].lower() + body[1:]
    return body


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


def render_prompt(instance, preamble_mode: str = "plain") -> str:
    """Assemble the text sent to a model for one benchmark instance.

    ``plain`` is story plus question; ``task_described`` prepends the task
    preamble and, when the instance uses distance bands, the matching
    distance guideline.
    """
    if preamble_mode == "plain":
        return instance.story + "\n" + instance.question
    if preamble_mode != "task_described":
        raise ValueError(f"unknown preamble mode {preamble_mode!r}")
    parts = [TASK_PREAMBLE.format(s=instance.network.s)]
    scheme = instance.config.setting.distance_scheme
    if scheme is not None:
        parts.append(DISTANCE_2_PREAMBLE if scheme.value == "D2" else DISTANCE_3_PREAMBLE)
    parts.append(instance.story)
    parts.append(instance.question)
    return "\n".join(parts)


# ---------------------------------------------------------------------------
# parsing


#: Object names as :func:`qsrbench.scene.sample_scene` forms them.
_NAME = r"the [a-z][a-z ]*?"

#: Separators between opener items: the inverse of :func:`_join_items`.
_ITEM_SEP = re.compile(rf"(?:, and |, | and )(?={_NAME})")


def _alternation(phrases) -> str:
    # longest first so that e.g. "north-east" beats "north"
    return "|".join(sorted((re.escape(p) for p in phrases), key=len, reverse=True))


def _template_regex(template: str, fields: dict[str, str]) -> str:
    """Regex source for ``template``: its literal text escaped, each
    ``{field}`` a named group over the pattern ``fields[field]``."""
    parts = []
    for literal, field, _, _ in string.Formatter().parse(template):
        parts.append(re.escape(literal))
        if field is not None:
            parts.append(f"(?P<{field}>{fields[field]})")
    return "".join(parts)


def _lower_first(text: str) -> str:
    return text[:1].lower() + text[1:]


def parse_story(text: str, lexicon: Lexicon | None = None) -> list[Unary | Binary]:
    """Recover the exact constraint multiset from a rendered story.

    Every sentence pattern is compiled from the lexicon's own templates, so
    any wording the renderer uses is read back.  Works for both views;
    returned constraints are always in the canonical cardinal vocabulary.
    Raises :class:`StoryParseError` on any sentence or item the grammar does
    not produce.
    """
    lex = lexicon or default_lexicon()
    t = lex.templates
    tables = {"region": lex.regions, "topo": lex.topology, "distance": lex.distances}
    phrase_to = {f: {p: r for r, p in table.items()} for f, table in tables.items()}
    fields = {f: _alternation(phrases) for f, phrases in phrase_to.items()}
    fields.update(items=".+", name=_NAME, subject=_NAME, reference=_NAME)
    opener_re = re.compile(_template_regex(_terminated(t["inventory_opener"]), fields))
    topo_suffix = _template_regex(t["layout_topo_suffix"], fields)
    item_re = re.compile(_template_regex(t["layout_item"], fields) + f"(?:{topo_suffix})?")
    distance_suffix = f"(?:{_template_regex(t['distance_suffix'], fields)})?"
    top_down = relation_phrases(lex, ViewFrame.TOP_DOWN)
    pair_grammar = []
    for name, directions in (
        ("pair_top_down", {p: d for p, d in top_down.items() if d is not Direction9.O}),
        # the overlap template names no direction: its empty phrase is O
        ("pair_top_down_overlap", {"": Direction9.O}),
        ("pair_north_facing", relation_phrases(lex, ViewFrame.NORTH_FACING)),
    ):
        fields["direction"] = _alternation(directions)
        # pair sentences are matched with their first letter lowered
        body = _template_regex(_lower_first(t[name]), fields)
        pair_grammar.append((re.compile(body + distance_suffix + r"\."), directions))

    opener, *rest = re.split(r"(?<=\.)\s+", text.strip())
    inventory = opener_re.fullmatch(opener)
    if inventory is None:
        raise StoryParseError(opener)
    constraints: list[Unary | Binary] = []
    for item in _ITEM_SEP.split(inventory["items"]):
        m = item_re.fullmatch(item)
        if m:
            constraints.append(Unary(m["name"], phrase_to["region"][m["region"]]))
            if m["topo"]:
                constraints.append(Unary(m["name"], phrase_to["topo"][m["topo"]]))
        elif not re.fullmatch(_NAME, item):  # a bare name carries no constraint
            raise StoryParseError(item)

    perspective = _terminated(t["perspective_opener"])
    for sentence in rest:
        if sentence == perspective:
            continue
        body = _lower_first(sentence.removeprefix(t["perspective_lead"]))
        for pattern, directions in pair_grammar:
            m = pattern.fullmatch(body)
            if m:
                break
        else:
            raise StoryParseError(sentence)
        subject, reference = m["subject"], m["reference"]
        rel = directions[m.groupdict().get("direction", "")]
        constraints.append(Binary(subject, rel, reference))
        if m["distance"]:
            constraints.append(Binary(subject, phrase_to["distance"][m["distance"]], reference))

    return constraints


def relation_phrases(lexicon: Lexicon, view: ViewFrame) -> dict[str, Direction9]:
    """Direction phrase -> relation map for one view (for answer parsing)."""
    return {p: d for d, p in lexicon.directions[view].items()}
