"""Closed vocabulary of spatial relations and their exact semantics.

Everything downstream (scene extraction, the grid solver, text rendering,
grading) shares the relation types defined here.  Two coordinate systems are
in play:

* continuous room coordinates: origin at the south-west corner, x grows
  east, y grows north, room side ``w`` in metres;
* the discrete s-by-s cell grid used for consistency checking, addressed by
  ``(col, row)`` with the same orientation.

The grid is aligned with the continuous semantics: thirds of the room map
onto index thirds of the grid (``s`` is always divisible by 3), and distance
thresholds on cell centres reduce to exact integer comparisons in index
space, so boundary inclusivity never depends on floating-point luck.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction


class Direction9(Enum):
    """Nine mutually exclusive projection-based directions."""

    N = "N"
    S = "S"
    E = "E"
    W = "W"
    NE = "NE"
    NW = "NW"
    SE = "SE"
    SW = "SW"
    O = "O"


#: Canonical listing order, used wherever a stable enumeration is needed
#: (answer options, probing order, reports).
DIRECTION_ORDER: tuple[Direction9, ...] = (
    Direction9.N,
    Direction9.S,
    Direction9.W,
    Direction9.E,
    Direction9.NE,
    Direction9.NW,
    Direction9.SE,
    Direction9.SW,
    Direction9.O,
)

_INVERSE: dict[Direction9, Direction9] = {
    Direction9.N: Direction9.S,
    Direction9.S: Direction9.N,
    Direction9.E: Direction9.W,
    Direction9.W: Direction9.E,
    Direction9.NE: Direction9.SW,
    Direction9.SW: Direction9.NE,
    Direction9.NW: Direction9.SE,
    Direction9.SE: Direction9.NW,
    Direction9.O: Direction9.O,
}


def inverse_direction(d: Direction9) -> Direction9:
    """Direction seen from the other endpoint (180-degree turn)."""
    return _INVERSE[d]


class Region9(Enum):
    """Nine room regions obtained by cutting each axis into thirds."""

    NR = "NR"
    SR = "SR"
    ER = "ER"
    WR = "WR"
    NER = "NER"
    NWR = "NWR"
    SER = "SER"
    SWR = "SWR"
    CR = "CR"


class TopoWall(Enum):
    """Whether an object's footprint reaches the room walls."""

    TPP = "TPP"     # touching at least one wall
    NTPP = "NTPP"   # strictly inside


class DistanceScheme(Enum):
    D2 = "D2"   # two bands split at half the room width
    D3 = "D3"   # three bands split at thirds of the room diagonal


class Band(Enum):
    CLOSE = "close"
    MEDIUM = "medium"
    FAR = "far"


@dataclass(frozen=True)
class DistanceBand:
    """A qualitative distance value, tagged with the scheme it belongs to."""

    scheme: DistanceScheme
    band: Band

    def __post_init__(self) -> None:
        if self.scheme is DistanceScheme.D2 and self.band is Band.MEDIUM:
            raise ValueError("the two-band scheme has no medium band")

    @property
    def token(self) -> str:
        return f"{self.band.value}:{self.scheme.value}"


def distance_bands_for(scheme: DistanceScheme) -> tuple[DistanceBand, ...]:
    if scheme is DistanceScheme.D2:
        return (DistanceBand(scheme, Band.CLOSE), DistanceBand(scheme, Band.FAR))
    return (
        DistanceBand(scheme, Band.CLOSE),
        DistanceBand(scheme, Band.MEDIUM),
        DistanceBand(scheme, Band.FAR),
    )


class ViewFrame(Enum):
    """Surface vocabulary for directional phrases; semantics are unchanged."""

    TOP_DOWN = "top-down"
    NORTH_FACING = "north-facing"


Relation = Direction9 | Region9 | TopoWall | DistanceBand


@dataclass(frozen=True)
class PointPos:
    """A point in continuous room coordinates (metres)."""

    x: float
    y: float


@dataclass(frozen=True)
class GridCell:
    """A cell of the s-by-s grid; ``col`` grows east, ``row`` grows north."""

    col: int
    row: int


# ---------------------------------------------------------------------------
# directions


def direction_between(a: PointPos, b: PointPos, eps: float = 0.0) -> Direction9:
    """Direction of ``a`` relative to ``b``.

    Axis differences with magnitude at most ``eps`` count as aligned, which
    is what makes the four cardinal directions and overlap reachable from
    continuous positions.
    """
    if eps < 0:
        raise ValueError("eps must be non-negative")
    dx = a.x - b.x
    dy = a.y - b.y
    sx = 0 if abs(dx) <= eps else (1 if dx > 0 else -1)
    sy = 0 if abs(dy) <= eps else (1 if dy > 0 else -1)
    return _SIGNS_TO_DIRECTION[(sx, sy)]


_SIGNS_TO_DIRECTION: dict[tuple[int, int], Direction9] = {
    (0, 1): Direction9.N,
    (0, -1): Direction9.S,
    (1, 0): Direction9.E,
    (-1, 0): Direction9.W,
    (1, 1): Direction9.NE,
    (-1, 1): Direction9.NW,
    (1, -1): Direction9.SE,
    (-1, -1): Direction9.SW,
    (0, 0): Direction9.O,
}


def direction_between_cells(a: GridCell, b: GridCell) -> Direction9:
    """Exact grid counterpart of :func:`direction_between` (no eps)."""
    sx = (a.col > b.col) - (a.col < b.col)
    sy = (a.row > b.row) - (a.row < b.row)
    return _SIGNS_TO_DIRECTION[(sx, sy)]


def direction_holds_for_cells(r: Direction9, a: GridCell, b: GridCell) -> bool:
    return direction_between_cells(a, b) is r


# ---------------------------------------------------------------------------
# regions

# axis third -> region, indexed (x_third, y_third); thirds are half-open
# except the last, which is closed at the far wall.
_REGION_BY_THIRDS: dict[tuple[int, int], Region9] = {
    (0, 0): Region9.SWR,
    (1, 0): Region9.SR,
    (2, 0): Region9.SER,
    (0, 1): Region9.WR,
    (1, 1): Region9.CR,
    (2, 1): Region9.ER,
    (0, 2): Region9.NWR,
    (1, 2): Region9.NR,
    (2, 2): Region9.NER,
}


def _third_index(v: float, w: float) -> int:
    if v < w / 3:
        return 0
    if v < 2 * w / 3:
        return 1
    return 2


def region_of(p: PointPos, w: float) -> Region9:
    """Region containing a point; boundaries belong to the higher third."""
    if not (0 <= p.x <= w and 0 <= p.y <= w):
        raise ValueError(f"point {p} outside room of width {w}")
    return _REGION_BY_THIRDS[(_third_index(p.x, w), _third_index(p.y, w))]


def region_of_cell(c: GridCell, s: int) -> Region9:
    """Region containing a grid cell; requires ``s`` divisible by 3."""
    if s % 3 != 0:
        raise ValueError("grid side must be divisible by 3")
    block = s // 3
    return _REGION_BY_THIRDS[(c.col // block, c.row // block)]


def region_holds_for_cell(r: Region9, c: GridCell, s: int) -> bool:
    return region_of_cell(c, s) is r


# ---------------------------------------------------------------------------
# wall topology


def wall_topology(center: PointPos, half_extent: float, w: float) -> TopoWall:
    """TPP when the square footprint reaches a wall, NTPP otherwise."""
    if half_extent <= 0:
        raise ValueError("half_extent must be positive")
    gap = min(center.x, center.y, w - center.x, w - center.y)
    return TopoWall.TPP if gap <= half_extent else TopoWall.NTPP


def wall_topology_cell(c: GridCell, s: int) -> TopoWall:
    """Grid counterpart: border cells touch, interior cells do not."""
    on_border = c.col in (0, s - 1) or c.row in (0, s - 1)
    return TopoWall.TPP if on_border else TopoWall.NTPP


def topo_holds_for_cell(r: TopoWall, c: GridCell, s: int) -> bool:
    return wall_topology_cell(c, s) is r


# ---------------------------------------------------------------------------
# distance bands

# Squared band thresholds.  Products are formed before the single division so
# that the default room widths yield exact binary floats.


def _d2_close_sq(w: float) -> float:
    return (w * w) / 4.0


def _d3_close_sq(w: float) -> float:
    return (2.0 * w * w) / 9.0


def _d3_medium_sq(w: float) -> float:
    return (8.0 * w * w) / 9.0


def distance_band(a: PointPos, b: PointPos, w: float, scheme: DistanceScheme) -> DistanceBand:
    """Qualitative distance between two points; thresholds are inclusive on
    the closer side."""
    d_sq = (a.x - b.x) ** 2 + (a.y - b.y) ** 2
    if scheme is DistanceScheme.D2:
        band = Band.CLOSE if d_sq <= _d2_close_sq(w) else Band.FAR
    else:
        if d_sq <= _d3_close_sq(w):
            band = Band.CLOSE
        elif d_sq <= _d3_medium_sq(w):
            band = Band.MEDIUM
        else:
            band = Band.FAR
    return DistanceBand(scheme, band)


def distance_band_between_cells(a: GridCell, b: GridCell, s: int, scheme: DistanceScheme) -> DistanceBand:
    """Band of the centre-to-centre distance between two cells.

    The room width cancels out of the comparison, so this is evaluated with
    exact rational arithmetic in index space: cells exactly on a threshold
    always land on the closer side.
    """
    d_sq = (a.col - b.col) ** 2 + (a.row - b.row) ** 2
    if scheme is DistanceScheme.D2:
        band = Band.CLOSE if d_sq <= Fraction(s * s, 4) else Band.FAR
    else:
        if d_sq <= Fraction(2 * s * s, 9):
            band = Band.CLOSE
        elif d_sq <= Fraction(8 * s * s, 9):
            band = Band.MEDIUM
        else:
            band = Band.FAR
    return DistanceBand(scheme, band)


def cell_center(c: GridCell, s: int, w: float) -> PointPos:
    return PointPos((c.col + 0.5) * w / s, (c.row + 0.5) * w / s)


def cell_of_point(p: PointPos, s: int, w: float) -> GridCell:
    """Cell containing a point; the far walls fold into the last cells."""
    col = min(int(p.x * s / w), s - 1)
    row = min(int(p.y * s / w), s - 1)
    return GridCell(col, row)


# ---------------------------------------------------------------------------
# relation tokens (serialization)


def relation_token(rel: Relation) -> str:
    if isinstance(rel, DistanceBand):
        return rel.token
    return rel.value


def relation_from_token(token: str) -> Relation:
    if ":" in token:
        band_part, scheme_part = token.split(":", 1)
        return DistanceBand(DistanceScheme(scheme_part), Band(band_part))
    for enum_cls in (Direction9, Region9, TopoWall):
        try:
            return enum_cls(token)
        except ValueError:
            continue
    raise ValueError(f"unknown relation token: {token!r}")
