"""Constraint networks over grid-valued object variables.

A network pairs an ordered variable list with unary constraints (object vs
the room) and binary constraints (object vs object).  Variable order matters:
the solver uses it for deterministic tie-breaking and stories list objects in
this order.
"""
from __future__ import annotations

from collections.abc import Collection
from dataclasses import dataclass

from .calculus import (
    Direction9,
    DistanceBand,
    Region9,
    Relation,
    TopoWall,
)

UnaryRelation = Region9 | TopoWall
BinaryRelation = Direction9 | DistanceBand


@dataclass(frozen=True)
class Unary:
    """``obj`` stands in ``rel`` to the room itself."""

    obj: str
    rel: UnaryRelation


@dataclass(frozen=True)
class Binary:
    """``subject`` stands in ``rel`` to ``reference``."""

    subject: str
    rel: BinaryRelation
    reference: str


def _relation_kind(rel: Relation) -> str:
    if isinstance(rel, Direction9):
        return "direction"
    if isinstance(rel, DistanceBand):
        return "distance"
    if isinstance(rel, Region9):
        return "region"
    return "topology"


@dataclass(frozen=True)
class ConstraintNetwork:
    """Grid CSP: every variable ranges over the s-by-s cells.

    ``w`` is carried for provenance (continuous geometry the network came
    from); grid feasibility itself only depends on ``s``.
    """

    variables: tuple[str, ...]
    unary: tuple[Unary, ...] = ()
    binary: tuple[Binary, ...] = ()
    s: int = 12
    w: float = 12.0

    def __post_init__(self) -> None:
        if self.s < 3 or self.s % 3 != 0:
            raise ValueError("grid side must be a positive multiple of 3")
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        known = set(self.variables)
        seen_pairs: set[tuple[str, str, str]] = set()
        for c in self.unary:
            if c.obj not in known:
                raise ValueError(f"unary constraint on unknown object {c.obj!r}")
            key = (c.obj, c.obj, _relation_kind(c.rel))
            if key in seen_pairs:
                raise ValueError(f"duplicate unary {_relation_kind(c.rel)} constraint on {c.obj!r}")
            seen_pairs.add(key)
        for c in self.binary:
            _check_binary(c, known, seen_pairs)

    @property
    def d(self) -> int:
        return self.s * self.s

    def index_of(self, name: str) -> int:
        return self.variables.index(name)

    def extended(self, extra: Binary) -> "ConstraintNetwork":
        """New network with one more binary constraint (used for probing).

        Only ``extra`` is checked: the rest was checked when this network
        was built, so the new one skips ``__init__`` and its checks.
        """
        _check_binary(
            extra,
            self.variables,
            {
                (c.subject, c.reference, _relation_kind(c.rel))
                for c in self.binary
                if c.subject == extra.subject and c.reference == extra.reference
            },
        )
        out = object.__new__(ConstraintNetwork)
        out.__dict__.update(self.__dict__, binary=self.binary + (extra,))
        return out


def _check_binary(
    c: Binary, known: Collection[str], seen: set[tuple[str, str, str]]
) -> None:
    """Reject a binary constraint on an unknown object, on one object, or
    of a kind ``seen`` already holds in the same orientation; else add it
    to ``seen``."""
    if c.subject not in known or c.reference not in known:
        raise ValueError(f"binary constraint on unknown object in {c!r}")
    if c.subject == c.reference:
        raise ValueError(f"binary constraint relates {c.subject!r} to itself")
    # same orientation + kind twice is a generator bug; the reverse
    # orientation is a distinct (possibly contradictory) constraint
    key = (c.subject, c.reference, _relation_kind(c.rel))
    if key in seen:
        raise ValueError(
            f"duplicate {_relation_kind(c.rel)} constraint on "
            f"({c.subject!r}, {c.reference!r})"
        )
    seen.add(key)
