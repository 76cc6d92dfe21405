"""Constraint-network construction rules."""
from __future__ import annotations

import pytest

from qsrbench.calculus import (
    Band,
    Direction9,
    DistanceBand,
    DistanceScheme,
    Region9,
    TopoWall,
)
from qsrbench.network import Binary, ConstraintNetwork, Unary


def net(variables, unary=(), binary=(), s=9):
    return ConstraintNetwork(
        variables=tuple(variables), unary=tuple(unary), binary=tuple(binary), s=s
    )


def test_basic_construction():
    n = net(
        ["a", "b"],
        unary=[Unary("a", Region9.CR)],
        binary=[Binary("b", Direction9.N, "a")],
    )
    assert n.d == 81
    assert n.index_of("b") == 1


def test_grid_side_must_be_multiple_of_three():
    with pytest.raises(ValueError):
        net(["a"], s=10)
    with pytest.raises(ValueError):
        net(["a"], s=0)


def test_duplicate_variable_names_rejected():
    with pytest.raises(ValueError):
        net(["a", "a"])


def test_unknown_object_rejected():
    with pytest.raises(ValueError):
        net(["a"], unary=[Unary("ghost", Region9.CR)])
    with pytest.raises(ValueError):
        net(["a", "b"], binary=[Binary("a", Direction9.N, "ghost")])


def test_self_relation_rejected():
    with pytest.raises(ValueError):
        net(["a"], binary=[Binary("a", Direction9.N, "a")])


def test_duplicate_same_kind_same_orientation_rejected():
    dup = [Binary("a", Direction9.N, "b"), Binary("a", Direction9.S, "b")]
    with pytest.raises(ValueError):
        net(["a", "b"], binary=dup)
    with pytest.raises(ValueError):
        net(["a"], unary=[Unary("a", Region9.CR), Unary("a", Region9.NR)])


def test_reverse_orientation_is_a_distinct_constraint():
    # both orientations of the same pair must be expressible (they can
    # contradict each other, which the solver must be able to detect)
    n = net(
        ["a", "b"],
        binary=[Binary("a", Direction9.E, "b"), Binary("b", Direction9.E, "a")],
    )
    assert len(n.binary) == 2


def test_direction_and_distance_may_share_a_pair():
    n = net(
        ["a", "b"],
        binary=[
            Binary("a", Direction9.N, "b"),
            Binary("a", DistanceBand(DistanceScheme.D2, Band.CLOSE), "b"),
        ],
    )
    assert len(n.binary) == 2


def test_unary_kinds_may_stack_per_object():
    n = net(["a"], unary=[Unary("a", Region9.CR), Unary("a", TopoWall.NTPP)])
    assert len(n.unary) == 2


def test_extended_returns_new_network():
    base = net(["a", "b"])
    probe = base.extended(Binary("a", Direction9.N, "b"))
    assert len(base.binary) == 0
    assert len(probe.binary) == 1
    assert probe.variables == base.variables


def test_extended_checks_the_added_constraint():
    base = net(["a", "b"], binary=[Binary("a", Direction9.N, "b")])
    with pytest.raises(ValueError, match="unknown object"):
        base.extended(Binary("a", Direction9.N, "ghost"))
    with pytest.raises(ValueError, match="itself"):
        base.extended(Binary("a", Direction9.N, "a"))
    with pytest.raises(ValueError, match="duplicate direction"):
        base.extended(Binary("a", Direction9.S, "b"))
    # the reverse orientation, or another kind on the same orientation, is new
    assert base.extended(Binary("b", Direction9.N, "a")).binary[-1] == Binary(
        "b", Direction9.N, "a"
    )
    close = DistanceBand(DistanceScheme.D2, Band.CLOSE)
    assert base.extended(Binary("a", close, "b")).binary == base.binary + (
        Binary("a", close, "b"),
    )


def test_extended_network_equals_one_built_whole():
    base = net(
        ["a", "b", "c"],
        unary=[Unary("a", Region9.CR)],
        binary=[Binary("b", Direction9.N, "a")],
    )
    extra = Binary("c", Direction9.E, "b")
    assert base.extended(extra) == net(
        ["a", "b", "c"],
        unary=[Unary("a", Region9.CR)],
        binary=[Binary("b", Direction9.N, "a"), extra],
    )
