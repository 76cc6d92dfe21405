"""Point- and cell-level relation semantics."""
from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from qsrbench.calculus import (
    DIRECTION_ORDER,
    Band,
    Direction9,
    DistanceScheme,
    GridCell,
    PointPos,
    Region9,
    TopoWall,
    ViewFrame,
    cell_center,
    cell_of_point,
    direction_between,
    direction_between_cells,
    direction_holds_for_cells,
    distance_band,
    distance_band_between_cells,
    distance_bands_for,
    inverse_direction,
    region_of,
    region_of_cell,
    relation_from_token,
    relation_token,
    wall_topology,
    wall_topology_cell,
)
from qsrbench.textgen import default_lexicon, relation_phrases

# --- directions --------------------------------------------------------------


@pytest.mark.parametrize(
    "a, b, eps, expected",
    [
        ((5.0, 8.0), (5.0, 2.0), 0.0, Direction9.N),
        ((5.0, 2.0), (5.0, 8.0), 0.0, Direction9.S),
        ((9.0, 4.0), (3.0, 4.0), 0.0, Direction9.E),
        ((3.0, 4.0), (9.0, 4.0), 0.0, Direction9.W),
        ((8.0, 8.0), (2.0, 2.0), 0.0, Direction9.NE),
        ((2.0, 8.0), (8.0, 2.0), 0.0, Direction9.NW),
        ((8.0, 2.0), (2.0, 8.0), 0.0, Direction9.SE),
        ((2.0, 2.0), (8.0, 8.0), 0.0, Direction9.SW),
        ((4.0, 4.0), (4.0, 4.0), 0.0, Direction9.O),
        # alignment tolerance folds near-equal axes into the cardinal/overlap cases
        ((5.1, 8.0), (5.0, 2.0), 0.2, Direction9.N),
        ((5.1, 8.0), (5.0, 2.0), 0.05, Direction9.NE),
        ((5.1, 4.1), (5.0, 4.0), 0.2, Direction9.O),
    ],
)
def test_direction_between(a, b, eps, expected):
    assert direction_between(PointPos(*a), PointPos(*b), eps) is expected


@given(
    ax=st.floats(0, 12), ay=st.floats(0, 12),
    bx=st.floats(0, 12), by=st.floats(0, 12),
    eps=st.floats(0, 1),
)
def test_direction_swap_is_inverse(ax, ay, bx, by, eps):
    a, b = PointPos(ax, ay), PointPos(bx, by)
    assert direction_between(a, b, eps) is inverse_direction(direction_between(b, a, eps))


def test_inverse_direction_is_involution():
    for d in Direction9:
        assert inverse_direction(inverse_direction(d)) is d
    assert inverse_direction(Direction9.N) is Direction9.S
    assert inverse_direction(Direction9.NE) is Direction9.SW
    assert inverse_direction(Direction9.O) is Direction9.O


def test_direction_between_cells_matches_index_signs():
    assert direction_between_cells(GridCell(3, 5), GridCell(3, 2)) is Direction9.N
    assert direction_between_cells(GridCell(7, 2), GridCell(3, 2)) is Direction9.E
    assert direction_between_cells(GridCell(7, 5), GridCell(3, 2)) is Direction9.NE
    assert direction_between_cells(GridCell(2, 2), GridCell(2, 2)) is Direction9.O


@given(
    ac=st.integers(0, 11), ar=st.integers(0, 11),
    bc=st.integers(0, 11), br=st.integers(0, 11),
)
def test_exactly_one_direction_holds_per_cell_pair(ac, ar, bc, br):
    a, b = GridCell(ac, ar), GridCell(bc, br)
    holding = [d for d in DIRECTION_ORDER if direction_holds_for_cells(d, a, b)]
    assert holding == [direction_between_cells(a, b)]


# --- regions ------------------------------------------------------------------


@pytest.mark.parametrize(
    "x, y, expected",
    [
        (4.0, 6.0, Region9.CR),       # boundaries belong to the higher third
        (0.0, 0.0, Region9.SWR),
        (11.9, 11.9, Region9.NER),
        (6.0, 11.0, Region9.NR),
        (1.0, 6.0, Region9.WR),
        (12.0, 12.0, Region9.NER),    # the closing edge stays in the last third
    ],
)
def test_region_of(x, y, expected):
    assert region_of(PointPos(x, y), 12.0) is expected


def test_region_of_cell_thirds():
    assert region_of_cell(GridCell(0, 0), 9) is Region9.SWR
    assert region_of_cell(GridCell(4, 4), 9) is Region9.CR
    assert region_of_cell(GridCell(8, 8), 9) is Region9.NER
    assert region_of_cell(GridCell(5, 7), 9) is Region9.NR
    assert region_of_cell(GridCell(2, 3), 9) is Region9.WR


@given(col=st.integers(0, 8), row=st.integers(0, 8))
def test_cell_region_matches_its_center_point(col, row):
    cell = GridCell(col, row)
    assert region_of_cell(cell, 9) is region_of(cell_center(cell, 9, 12.0), 12.0)


# --- wall topology --------------------------------------------------------------


@pytest.mark.parametrize(
    "center, half_extent, expected",
    [
        ((0.3, 6.0), 0.4, TopoWall.TPP),    # gap 0.3 <= reach 0.4
        ((0.5, 6.0), 0.4, TopoWall.NTPP),   # gap 0.5 > reach
        ((6.0, 11.8), 0.2, TopoWall.TPP),   # north wall
        ((6.0, 6.0), 1.0, TopoWall.NTPP),
        ((0.4, 0.4), 0.4, TopoWall.TPP),    # boundary gap == reach counts as touching
    ],
)
def test_wall_topology(center, half_extent, expected):
    assert wall_topology(PointPos(*center), half_extent, 12.0) is expected


def test_wall_topology_cell_border_ring():
    s = 9
    border = [c for c in range(s) for r in range(s)
              if wall_topology_cell(GridCell(c, r), s) is TopoWall.TPP]
    assert len(border) == s * s - (s - 2) ** 2
    assert wall_topology_cell(GridCell(0, 4), s) is TopoWall.TPP
    assert wall_topology_cell(GridCell(4, 4), s) is TopoWall.NTPP


# --- distance bands --------------------------------------------------------------


@pytest.mark.parametrize(
    "a, b, scheme, expected",
    [
        ((0.0, 0.0), (6.0, 0.0), DistanceScheme.D2, Band.CLOSE),   # dist == w/2
        ((0.0, 0.0), (6.1, 0.0), DistanceScheme.D2, Band.FAR),
        ((0.0, 0.0), (5.6, 0.0), DistanceScheme.D3, Band.CLOSE),   # sqrt(2)w/3 ~ 5.657
        ((0.0, 0.0), (5.7, 0.0), DistanceScheme.D3, Band.MEDIUM),
        ((0.0, 0.0), (8.0, 8.0), DistanceScheme.D3, Band.MEDIUM),  # dist == 2sqrt(2)w/3
        ((0.0, 0.0), (11.4, 0.0), DistanceScheme.D3, Band.FAR),
    ],
)
def test_distance_band_points(a, b, scheme, expected):
    band = distance_band(PointPos(*a), PointPos(*b), 12.0, scheme)
    assert band.band is expected
    assert band.scheme is scheme


def test_distance_band_cells_inclusive_on_close_side():
    # center separation of 6 cells at s=12 sits exactly on the D2 threshold
    assert (
        distance_band_between_cells(GridCell(0, 0), GridCell(6, 0), 12, DistanceScheme.D2).band
        is Band.CLOSE
    )
    assert (
        distance_band_between_cells(GridCell(0, 0), GridCell(7, 0), 12, DistanceScheme.D2).band
        is Band.FAR
    )
    # index distance 6 at s=9 exceeds s/2 = 4.5
    assert (
        distance_band_between_cells(GridCell(0, 0), GridCell(6, 0), 9, DistanceScheme.D2).band
        is Band.FAR
    )


@given(
    ac=st.integers(0, 8), ar=st.integers(0, 8),
    bc=st.integers(0, 8), br=st.integers(0, 8),
    scheme=st.sampled_from(DistanceScheme),
)
def test_cell_band_matches_center_points(ac, ar, bc, br, scheme):
    # cell semantics use exact rational arithmetic; the float point path can
    # round the other way only when the pair sits exactly on a threshold
    s = 9
    idx_sq = Fraction((ac - bc) ** 2 + (ar - br) ** 2)
    thresholds = (
        [Fraction(s * s, 4)]
        if scheme is DistanceScheme.D2
        else [Fraction(2 * s * s, 9), Fraction(8 * s * s, 9)]
    )
    assume(all(idx_sq != t for t in thresholds))
    a, b = GridCell(ac, ar), GridCell(bc, br)
    via_cells = distance_band_between_cells(a, b, s, scheme)
    via_points = distance_band(
        cell_center(a, s, 12.0), cell_center(b, s, 12.0), 12.0, scheme
    )
    assert via_cells == via_points


def test_distance_bands_for_schemes():
    d2 = distance_bands_for(DistanceScheme.D2)
    d3 = distance_bands_for(DistanceScheme.D3)
    assert [b.band for b in d2] == [Band.CLOSE, Band.FAR]
    assert [b.band for b in d3] == [Band.CLOSE, Band.MEDIUM, Band.FAR]


def test_distance_band_is_symmetric():
    a, b = PointPos(1.0, 2.0), PointPos(10.0, 7.0)
    for scheme in DistanceScheme:
        assert distance_band(a, b, 12.0, scheme) == distance_band(b, a, 12.0, scheme)


# --- grid embedding --------------------------------------------------------------


def test_cell_of_point_and_center_round_trip():
    for s in (9, 12):
        for col in range(s):
            for row in range(s):
                cell = GridCell(col, row)
                assert cell_of_point(cell_center(cell, s, 12.0), s, 12.0) == cell


def test_cell_of_point_clamps_the_far_edge():
    assert cell_of_point(PointPos(12.0, 12.0), 9, 12.0) == GridCell(8, 8)
    assert cell_of_point(PointPos(0.0, 0.0), 9, 12.0) == GridCell(0, 0)


def test_cell_of_point_origin_is_southwest():
    # y grows northward: a northern point lands in a higher row index
    low = cell_of_point(PointPos(6.0, 1.0), 12, 12.0)
    high = cell_of_point(PointPos(6.0, 11.0), 12, 12.0)
    assert high.row > low.row


# --- view relabeling --------------------------------------------------------------


def test_view_labels_round_trip():
    lex = default_lexicon()
    for view in ViewFrame:
        phrases = relation_phrases(lex, view)
        for d in Direction9:
            label = lex.direction_phrase(d, view)
            assert phrases[label] is d


def test_view_relabeling_touches_surface_only():
    lex = default_lexicon()
    assert lex.direction_phrase(Direction9.N, ViewFrame.TOP_DOWN) == "north"
    assert lex.direction_phrase(Direction9.N, ViewFrame.NORTH_FACING) == "behind"
    assert lex.direction_phrase(Direction9.W, ViewFrame.NORTH_FACING) == "to the left of"
    labels = lex.directions[ViewFrame.NORTH_FACING]
    assert len(set(labels.values())) == 9


# --- relation tokens --------------------------------------------------------------


def test_relation_token_round_trip():
    rels = (
        list(Direction9)
        + list(Region9)
        + list(TopoWall)
        + [b for s in DistanceScheme for b in distance_bands_for(s)]
    )
    for rel in rels:
        assert relation_from_token(relation_token(rel)) == rel


def test_unknown_token_rejected():
    with pytest.raises((KeyError, ValueError)):
        relation_from_token("sideways")
