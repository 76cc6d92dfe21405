"""Constraint tightness: closed forms vs exhaustive counting."""
from __future__ import annotations

from fractions import Fraction

import pytest

from qsrbench.solver import (
    TIGHTNESS_KINDS,
    analytic_tightness,
    empirical_tightness,
    tightness_table,
)

NON_DISTANCE_KINDS = [k for k in TIGHTNESS_KINDS if ":" not in k]
DISTANCE_KINDS = [k for k in TIGHTNESS_KINDS if ":" in k]


@pytest.mark.parametrize(
    "kind, d, expected",
    [
        ("InR", 81, Fraction(0)),
        ("NR", 81, Fraction(8, 9)),
        ("CR", 81, Fraction(8, 9)),
        ("TPP", 81, Fraction(49, 81)),
        ("NTPP", 81, Fraction(32, 81)),
        ("E", 81, Fraction(77, 81)),
        ("N", 81, Fraction(77, 81)),
        ("NE", 81, Fraction(1, 1) - Fraction(36 * 36, 81 * 81)),
        ("O", 81, Fraction(80, 81)),
        ("TPP", 144, Fraction(100, 144)),
        ("E", 144, Fraction(1) - Fraction(11, 2 * 144)),
        ("O", 144, Fraction(143, 144)),
    ],
)
def test_analytic_values_pinned(kind, d, expected):
    assert analytic_tightness(kind, d) == expected


@pytest.mark.parametrize("d", [81, 144])
@pytest.mark.parametrize("kind", NON_DISTANCE_KINDS)
def test_exact_agreement_outside_distance(kind, d):
    analytic = analytic_tightness(kind, d)
    empirical = empirical_tightness(kind, d)
    assert analytic == empirical


@pytest.mark.parametrize("d", [81, 144])
@pytest.mark.parametrize("kind", DISTANCE_KINDS)
def test_distance_within_tolerance(kind, d):
    analytic = analytic_tightness(kind, d)
    empirical = empirical_tightness(kind, d)
    assert abs(float(analytic) - float(empirical)) <= 0.10


def test_empirical_distance_example():
    # overlap disallows all but one partner cell per cell
    assert empirical_tightness("O", 81) == Fraction(1) - Fraction(1, 81)
    assert empirical_tightness("E", 81) == Fraction(1) - Fraction(324, 6561)


def test_table_covers_all_kinds():
    table = tightness_table(81)
    assert [row.kind for row in table] == list(TIGHTNESS_KINDS)
    for row in table:
        assert 0 <= float(row.analytic) <= 1
        assert 0 <= float(row.empirical) <= 1


def test_rejects_non_square_d():
    # side 0 passes a divisibility test alone, and -9 has no integer square root
    for d in (80, 0, -9):
        for tightness in (analytic_tightness, empirical_tightness):
            with pytest.raises(ValueError):
                tightness("E", d)
