"""Grid-CSP solver: verdicts, exact counts, query analysis."""
from __future__ import annotations

import functools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qsrbench.calculus import (
    Band,
    DIRECTION_ORDER,
    Direction9,
    DistanceBand,
    DistanceScheme,
    GridCell,
    Region9,
    TopoWall,
    ViewFrame,
    direction_between_cells,
    direction_holds_for_cells,
    distance_band_between_cells,
    distance_bands_for,
    region_of_cell,
    relation_token,
)
from qsrbench.netgen import GenConfig, QType, Setting, generate_dataset
from qsrbench.network import Binary, ConstraintNetwork, Unary
from qsrbench.solver import (
    InstanceTooLarge,
    Verdict,
    _extend,
    _live_masks,
    _support,
    _unary_mask,
    arc_fixpoint,
    brute_force_solve,
    check_binary,
    check_unary,
    feasible_directions,
    probe_directions,
    solve,
)


def net(variables, unary=(), binary=(), s=3):
    return ConstraintNetwork(
        variables=tuple(variables), unary=tuple(unary), binary=tuple(binary), s=s
    )


# --- cell predicates ----------------------------------------------------------


def test_check_binary_direction():
    assert check_binary(Direction9.E, GridCell(5, 2), GridCell(2, 2), 12)
    assert not check_binary(Direction9.E, GridCell(5, 3), GridCell(2, 2), 12)
    assert check_binary(Direction9.O, GridCell(4, 4), GridCell(4, 4), 12)


def test_check_binary_distance_is_w_independent():
    close = DistanceBand(DistanceScheme.D2, Band.CLOSE)
    assert check_binary(close, GridCell(0, 0), GridCell(5, 0), 12)
    assert check_binary(close, GridCell(0, 0), GridCell(6, 0), 12)  # boundary inclusive
    assert not check_binary(close, GridCell(0, 0), GridCell(7, 0), 12)


def test_check_unary():
    assert check_unary(Region9.CR, GridCell(4, 4), 9)
    assert not check_unary(Region9.CR, GridCell(0, 4), 9)
    assert check_unary(TopoWall.TPP, GridCell(0, 4), 9)
    assert check_unary(TopoWall.NTPP, GridCell(4, 4), 9)


# --- grid tables against the per-cell reference -----------------------------------

BINARY_RELATIONS = list(Direction9) + [
    band for scheme in DistanceScheme for band in distance_bands_for(scheme)
]


@pytest.mark.parametrize("s", [3, 6, 9, 12])
@pytest.mark.parametrize("rel", BINARY_RELATIONS, ids=relation_token)
def test_partner_masks_match_check_binary(rel, s):
    cells = [GridCell(i % s, i // s) for i in range(s * s)]
    expected = [
        sum(1 << a for a, ca in enumerate(cells) if check_binary(rel, ca, cb, s))
        for cb in cells
    ]
    assert _support((rel,), s).masks == expected


@pytest.mark.parametrize("s", [3, 6, 9, 12])
def test_unary_mask_matches_check_unary(s):
    for rel in list(Region9) + list(TopoWall):
        mask = _unary_mask(rel, s)
        for i in range(s * s):
            assert bool(mask >> i & 1) == check_unary(rel, GridCell(i % s, i // s), s)


@functools.cache
def _holds(rel, s):
    """``holds[a, b]``: does ``(cell a, rel, cell b)`` hold, cell by cell."""
    cells = [GridCell(i % s, i // s) for i in range(s * s)]
    return np.array([[check_binary(rel, ca, cb, s) for cb in cells] for ca in cells])


def _column_masks(holds):
    """``masks[j]``: the rows i with ``holds[i, j]``, as a bitmask."""
    return [sum(1 << int(i) for i in np.flatnonzero(column)) for column in holds.T]


@pytest.mark.parametrize("s", [3, 6, 9, 12])
def test_pair_constraint_masks_are_the_conjunction(s):
    # every relation stated on a pair, in either orientation, lands in one
    # constraint whose partner masks are the per-cell-pair AND
    bands = [b for scheme in DistanceScheme for b in distance_bands_for(scheme)]
    cases = (
        [[Binary("a", d, "b"), Binary("a", band, "b")] for d in Direction9 for band in bands]
        + [[Binary("a", band, "b"), Binary("b", d, "a")] for d in Direction9 for band in bands]
        + [[Binary("a", d, "b"), Binary("b", e, "a")] for d in Direction9 for e in Direction9]
    )
    for binary in cases:
        holds = np.ones((s * s, s * s), dtype=bool)
        for c in binary:
            table = _holds(c.rel, s)
            holds &= table if c.subject == "a" else table.T
        arcs = arc_fixpoint(net(["a", "b"], binary=binary, s=s)).arcs
        assert [(x, y) for x, y, _ in arcs] == [(0, 1), (1, 0)]
        assert arcs[0][2].masks == _column_masks(holds)
        assert arcs[1][2].masks == _column_masks(holds.T)


# --- unary filtering ------------------------------------------------------------


def test_live_masks_region_block():
    n = net(["o"], unary=[Unary("o", Region9.CR)], s=9)
    assert _live_masks(n)[0].bit_count() == 9


def test_live_masks_wall_topology():
    n = net(["o"], unary=[Unary("o", TopoWall.TPP)], s=9)
    assert _live_masks(n)[0].bit_count() == 32
    n = net(["o"], unary=[Unary("o", TopoWall.NTPP)], s=9)
    assert _live_masks(n)[0].bit_count() == 49


def test_live_masks_unconstrained():
    n = net(["o"], s=9)
    assert _live_masks(n)[0].bit_count() == 81


# --- frozen exact counts ----------------------------------------------------------


def test_single_direction_constraint_count_s3():
    n = net(["a", "b"], binary=[Binary("a", Direction9.E, "b")])
    out = solve(n, solution_cap=None)
    assert out.verdict is Verdict.SAT
    # E fixes the row and strictly orders the columns: 3 rows x 3 column pairs
    assert out.n_solutions == 9


def test_overlap_constraint_count_s3():
    n = net(["a", "b"], binary=[Binary("a", Direction9.O, "b")])
    assert solve(n, solution_cap=None).n_solutions == 9


def test_unconstrained_pair_count_s3():
    n = net(["a", "b"])
    assert solve(n, solution_cap=None).n_solutions == 81


def test_antisymmetric_directions_unsat():
    n = net(
        ["a", "b"],
        binary=[Binary("a", Direction9.E, "b"), Binary("b", Direction9.E, "a")],
    )
    out = solve(n)
    assert out.verdict is Verdict.UNSAT
    assert out.n_solutions == 0


def test_contradictory_pair_is_unsat_without_search():
    n = net(
        ["a", "b"],
        binary=[Binary("a", Direction9.N, "b"), Binary("b", Direction9.N, "a")],
        s=12,
    )
    out = solve(n)
    assert out.verdict is Verdict.UNSAT
    assert out.stats.nodes == 0


def test_empty_direction_and_band_conjunction_is_unsat_without_search():
    # each relation alone has support everywhere on the pair; only their
    # conjunction is empty, which arc consistency sees on one constraint
    far = DistanceBand(DistanceScheme.D2, Band.FAR)
    n = net(["a", "b"], binary=[Binary("a", Direction9.O, "b"), Binary("a", far, "b")], s=12)
    out = solve(n)
    assert out.verdict is Verdict.UNSAT
    assert out.stats.nodes == 0


def test_two_constraint_chain_sat():
    n = net(
        ["a", "b", "c"],
        binary=[Binary("a", Direction9.E, "b"), Binary("c", Direction9.N, "a")],
    )
    assert solve(n, solution_cap=1).verdict is Verdict.SAT


def test_solution_cap_stops_early():
    n = net(["a", "b"])
    out = solve(n, solution_cap=2)
    assert out.verdict is Verdict.SAT
    assert out.n_solutions == 2


def test_first_solution_is_deterministic():
    n = net(
        ["a", "b", "c"],
        binary=[Binary("a", Direction9.NE, "b"), Binary("c", Direction9.W, "b")],
        s=9,
    )
    first = solve(n, solution_cap=1).first_solution
    for _ in range(3):
        assert solve(n, solution_cap=1).first_solution == first


def test_stats_count_work():
    n = net(["a", "b"], binary=[Binary("a", Direction9.E, "b")])
    out = solve(n, solution_cap=None)
    assert out.stats.nodes > 0
    assert out.stats.elapsed >= 0.0


# --- regression: several constraints on one pair --------------------------------


def test_stacked_pair_constraints_exact_count():
    # direction + distance on two pairs, each conjoined into one constraint;
    # domains must restore cleanly when the search backtracks through them
    close = DistanceBand(DistanceScheme.D2, Band.CLOSE)
    n = net(
        ["a", "b", "c"],
        binary=[
            Binary("a", Direction9.NE, "b"),
            Binary("a", close, "b"),
            Binary("c", Direction9.W, "a"),
            Binary("c", close, "a"),
        ],
        s=3,
    )
    fast = solve(n, solution_cap=None)
    oracle = brute_force_solve(n)
    assert fast.verdict is oracle.verdict
    assert fast.n_solutions == oracle.n_solutions


def test_both_orientations_with_distance_exact_count():
    close = DistanceBand(DistanceScheme.D3, Band.CLOSE)
    n = net(
        ["a", "b"],
        binary=[
            Binary("a", Direction9.N, "b"),
            Binary("b", DistanceBand(DistanceScheme.D3, Band.MEDIUM), "a"),
            Binary("a", close, "b"),
        ],
        s=3,
    )
    fast = solve(n, solution_cap=None)
    oracle = brute_force_solve(n)
    assert fast.verdict is oracle.verdict
    assert fast.n_solutions == oracle.n_solutions


# --- brute-force oracle ----------------------------------------------------------


def test_brute_force_guard():
    big = ConstraintNetwork(variables=tuple(f"o{i}" for i in range(5)), s=12)
    with pytest.raises(InstanceTooLarge):
        brute_force_solve(big)


def test_brute_force_empty_network():
    assert brute_force_solve(net(["a", "b"])).n_solutions == 81


_KINDS = (
    [("dir", d) for d in Direction9]
    + [("dist", b) for sch in DistanceScheme
       for b in (DistanceBand(sch, Band.CLOSE), DistanceBand(sch, Band.FAR))]
)


def _random_draw(seed, s, reverse):
    """A random network of 2–3 variables on the s-by-s grid; with
    ``reverse``, its last constraint restates a constrained pair the other
    way round, true of the first solution of the rest when there is one."""
    rng = random.Random(seed)
    n_vars = rng.choice((2, 3)) if s == 3 else 3
    names = [f"o{i}" for i in range(n_vars)]
    unary = []
    for name in names:
        if rng.random() < 0.5:
            unary.append(Unary(name, rng.choice(list(Region9))))
        if rng.random() < 0.3:
            unary.append(Unary(name, rng.choice(list(TopoWall))))
    binary = []
    for i in range(n_vars):
        for j in range(i + 1, n_vars):
            if rng.random() < 0.8:
                binary.append(Binary(names[j], rng.choice(list(Direction9)), names[i]))
            if rng.random() < 0.5:
                sch = rng.choice(list(DistanceScheme))
                band = rng.choice([b for b in Band if not (sch is DistanceScheme.D2 and b is Band.MEDIUM)])
                binary.append(Binary(names[j], DistanceBand(sch, band), names[i]))
    if reverse and binary:
        c = rng.choice(binary)
        kind, rel = rng.choice(_KINDS)
        first = brute_force_solve(net(names, unary=unary, binary=binary, s=s)).first_solution
        if first is not None:
            cells = (first[c.reference], first[c.subject])
            if kind == "dir":
                rel = direction_between_cells(*cells)
            else:
                rel = distance_band_between_cells(*cells, s, rel.scheme)
        binary.append(Binary(c.reference, rel, c.subject))
    return net(names, unary=unary, binary=binary, s=s)


_REVERSE_DRAWS = [pytest.param(seed, 3, id=f"rev-{seed}") for seed in range(20)] + [
    pytest.param(seed, 6, id=f"rev-s6-{seed}") for seed in range(10)
]


@pytest.mark.parametrize(
    "seed, s, reverse",
    [pytest.param(seed, 3, False, id=str(seed)) for seed in range(20)]
    + [pytest.param(seed, 6, False, id=f"s6-{seed}") for seed in range(20)]
    + [pytest.param(*p.values, True, id=p.id) for p in _REVERSE_DRAWS],
)
def test_solver_matches_brute_force_on_random_networks(seed, s, reverse):
    network = _random_draw(seed, s, reverse)
    fast = solve(network, solution_cap=None)
    oracle = brute_force_solve(network)
    assert fast.verdict is oracle.verdict
    assert fast.n_solutions == oracle.n_solutions


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_adding_a_constraint_never_adds_solutions(seed):
    rng = random.Random(seed)
    names = ["a", "b"]
    base = net(names, binary=[Binary("a", rng.choice(list(Direction9)), "b")])
    extra = Binary("b", rng.choice(list(Direction9)), "a")
    extended = base.extended(extra)
    assert (
        brute_force_solve(extended).n_solutions
        <= brute_force_solve(base).n_solutions
    )


# --- solving from a story's fixpoint -------------------------------------------------

def _outcome(out):
    return (
        out.verdict,
        out.n_solutions,
        out.first_solution,
        out.stats.nodes,
        out.stats.backtracks,
    )


def _assert_probe_matches_fresh(story, extra, caps=(1, 2, None)):
    """Solving ``story`` plus ``extra`` from the story's fixpoint must agree
    in every field with solving the same network built from scratch."""
    fresh = ConstraintNetwork(
        story.variables, story.unary, story.binary + (extra,), story.s, story.w
    )
    base = arc_fixpoint(story)
    for cap in caps:
        assert _outcome(solve(story.extended(extra), cap, base=base)) == _outcome(
            solve(fresh, cap)
        ), (extra, cap)


@pytest.mark.parametrize(
    "d, n, m, count, caps", [(9, 4, 3, 20, (1, 2, None)), (144, 5, 4, 10, (1, 2))],
    ids=["d9", "d144"],
)
@pytest.mark.parametrize("setting", list(Setting), ids=lambda s: s.value)
def test_probe_from_fixpoint_matches_fresh_network(setting, d, n, m, count, caps):
    # at d=9 exact counts are cheap and most region stories are unsatisfiable
    config = GenConfig(
        n=n, d=d, m=m, setting=setting, view=ViewFrame.TOP_DOWN, qtype=QType.FR
    )
    for inst in generate_dataset(0, count, config).instances:
        for direction in DIRECTION_ORDER:
            extra = Binary(inst.query.subject, direction, inst.query.reference)
            _assert_probe_matches_fresh(inst.network, extra, caps)


@pytest.mark.parametrize(
    "d, n, m, count, caps", [(9, 4, 3, 6, (1, 2, None)), (144, 5, 4, 2, (1, 2))],
    ids=["d9", "d144"],
)
@pytest.mark.parametrize("setting", list(Setting), ids=lambda s: s.value)
def test_fixpoint_of_every_prefix_matches_fresh_network(setting, d, n, m, count, caps):
    # several constraints added at once: at k = 0 every pair is new, and
    # with distances each new pair takes a direction and a band in one call
    config = GenConfig(
        n=n, d=d, m=m, setting=setting, view=ViewFrame.TOP_DOWN, qtype=QType.FR
    )
    for inst in generate_dataset(0, count, config).instances:
        network = inst.network
        fresh = arc_fixpoint(network)
        for k in range(len(network.binary) + 1):
            prefix = arc_fixpoint(
                net(network.variables, network.unary, network.binary[:k], network.s)
            )
            extended = _extend(prefix, network)
            assert extended.consistent == fresh.consistent
            # AC-3 stops at the first emptied domain, so only a consistent
            # fixpoint's domains are defined
            assert not fresh.consistent or extended.live == fresh.live
            for cap in caps:
                assert _outcome(solve(network, cap, base=prefix)) == _outcome(
                    solve(network, cap)
                ), (k, cap)


def test_probe_from_unsatisfiable_fixpoint():
    story = net(
        ["A", "B", "C"],
        binary=[Binary("A", Direction9.E, "B"), Binary("B", Direction9.E, "A")],
    )
    assert not arc_fixpoint(story).consistent
    for direction in DIRECTION_ORDER:
        _assert_probe_matches_fresh(story, Binary("C", direction, "A"))
        _assert_probe_matches_fresh(story, Binary("A", direction, "C"))


@pytest.mark.parametrize("seed, s", _REVERSE_DRAWS)
def test_probe_on_constrained_pair_matches_fresh_network(seed, s):
    # the draw's last constraint restates a pair of the rest the other way
    # round; probe that pair with every relation, in both orientations, from
    # the fixpoint of the rest (a draw with no binary constraint has no
    # constrained pair, and probes a new one)
    network = _random_draw(seed, s, reverse=True)
    story, pair = network, network.variables[:2]
    if network.binary:
        last = network.binary[-1]
        story = net(network.variables, network.unary, network.binary[:-1], s)
        pair = (last.subject, last.reference)
    caps = (1, 2, None) if s == 3 else (1, 2)
    for a, b in (pair, pair[::-1]):
        for rel in BINARY_RELATIONS:
            try:
                story.extended(Binary(a, rel, b))
            except ValueError:
                continue  # the story states this kind on the pair this way round
            _assert_probe_matches_fresh(story, Binary(a, rel, b), caps)


def test_probe_on_constrained_pair_conjoins_into_its_arcs():
    far = DistanceBand(DistanceScheme.D2, Band.FAR)
    story = net(["a", "b"], binary=[Binary("a", Direction9.O, "b")], s=12)
    for extra in (Binary("a", far, "b"), Binary("b", far, "a")):
        out = solve(story.extended(extra), base=arc_fixpoint(story))
        # only the conjunction is empty, so the pair kept one arc pair
        assert out.verdict is Verdict.UNSAT
        assert out.stats.nodes == 0


def test_fixpoint_of_another_network_is_rejected():
    story = net(["a", "b", "c"], binary=[Binary("a", Direction9.N, "b")], s=3)
    base = arc_fixpoint(story)
    probe = Binary("c", Direction9.E, "a")
    others = [
        net(["a", "b", "c"], binary=[Binary("a", Direction9.S, "b"), probe], s=3),
        net(["a", "b", "c"], binary=[probe, Binary("a", Direction9.N, "b")], s=3),
        net(["a", "c", "b"], binary=[Binary("a", Direction9.N, "b"), probe], s=3),
        net(["a", "b", "c"], [Unary("a", Region9.CR)], [Binary("a", Direction9.N, "b")], s=3),
        net(["a", "b", "c"], binary=[Binary("a", Direction9.N, "b")], s=6),
        net(["a", "b"], binary=[Binary("a", Direction9.N, "b")], s=3),
    ]
    for other in others:
        with pytest.raises(ValueError, match="base"):
            solve(other, base=base)
    assert solve(story.extended(probe), base=base).verdict is Verdict.SAT


# --- query-level analysis ----------------------------------------------------------


def test_feasible_directions_pinned_single():
    n = net(
        ["A", "B", "C"],
        binary=[Binary("A", Direction9.E, "B"), Binary("C", Direction9.N, "A")],
    )
    assert feasible_directions(n, ("C", "B")) == {Direction9.NE}


def test_feasible_directions_pinned_multiple():
    n = net(
        ["A", "B", "C"],
        binary=[Binary("A", Direction9.NE, "B"), Binary("C", Direction9.NW, "B")],
    )
    assert feasible_directions(n, ("C", "A")) == {
        Direction9.NW,
        Direction9.W,
        Direction9.SW,
    }


def test_feasible_directions_empty_on_unsat_base():
    n = net(
        ["A", "B", "C", "D"],
        binary=[Binary("A", Direction9.E, "B"), Binary("B", Direction9.E, "A")],
    )
    assert feasible_directions(n, ("C", "D")) == set()


def test_probe_directions_covers_all_nine():
    n = net(["A", "B"])
    probes = probe_directions(n, ("A", "B"))
    assert set(probes) == set(DIRECTION_ORDER)
    assert all(out.verdict is Verdict.SAT for out in probes.values())


def test_feasible_directions_matches_brute_force_probe():
    rng = random.Random(4)
    for _ in range(10):
        names = ["A", "B", "C"]
        binary = [
            Binary("A", rng.choice(list(Direction9)), "B"),
            Binary("C", rng.choice(list(Direction9)), "A"),
        ]
        n = net(names, binary=binary)
        fast = feasible_directions(n, ("C", "B"))
        slow = {
            d
            for d in Direction9
            if brute_force_solve(n.extended(Binary("C", d, "B"))).verdict
            is Verdict.SAT
        }
        assert fast == slow


# --- exact point-algebra oracle at real sizes ---------------------------------------
#
# A direction fixes one sign per axis and a region is a product of per-axis
# thirds, so a network of directions and region unaries (settings O2 and
# Layout) splits into two independent problems over {0..s-1}: bounded points
# related by =, < or >.  Merging = classes and raising each class to the
# longest < path from the lower bounds gives the least solution, which
# exists exactly when no class rises above its upper bound.

_ORACLE_S = 12


def _axis_signs(rel: Direction9) -> tuple[int, int]:
    """(x sign, y sign) of subject minus reference, read off the calculus."""
    origin = GridCell(1, 1)
    return next(
        (sx, sy)
        for sx in (-1, 0, 1)
        for sy in (-1, 0, 1)
        if direction_holds_for_cells(rel, GridCell(1 + sx, 1 + sy), origin)
    )


def _region_bounds(rel: Region9, s: int) -> tuple[tuple[int, int], tuple[int, int]]:
    cells = [GridCell(i % s, i // s) for i in range(s * s)]
    inside = [c for c in cells if check_unary(rel, c, s)]
    xs = [c.col for c in inside]
    ys = [c.row for c in inside]
    return (min(xs), max(xs)), (min(ys), max(ys))


def _axis_feasible(bounds: list[tuple[int, int]], relations: list[tuple[int, int, int]]) -> bool:
    """Is there an integer point per variable within its bounds with
    ``sign(p[i] - p[j]) == sign`` for every ``(i, sign, j)``?"""
    parent = list(range(len(bounds)))

    def find(i: int) -> int:
        while parent[i] != i:
            i = parent[i]
        return i

    for i, sign, j in relations:
        if sign == 0:
            parent[find(i)] = find(j)
    low: dict[int, int] = {}
    high: dict[int, int] = {}
    for v, (lo, hi) in enumerate(bounds):
        r = find(v)
        low[r] = max(low.get(r, lo), lo)
        high[r] = min(high.get(r, hi), hi)
    before: list[tuple[int, int]] = []  # (smaller class, larger class)
    for i, sign, j in relations:
        if sign:
            pair = (find(j), find(i)) if sign > 0 else (find(i), find(j))
            if pair[0] == pair[1]:
                return False
            before.append(pair)
    if any(low[r] > high[r] for r in low):
        return False
    # every raise is forced, so exceeding an upper bound (which a < cycle
    # eventually does) proves infeasibility
    changed = True
    while changed:
        changed = False
        for a, b in before:
            if low[a] + 1 > low[b]:
                low[b] = low[a] + 1
                if low[b] > high[b]:
                    return False
                changed = True
    return True


def _oracle_sat(network: ConstraintNetwork) -> bool:
    s = network.s
    x_bounds = [(0, s - 1)] * len(network.variables)
    y_bounds = list(x_bounds)
    for c in network.unary:
        v = network.index_of(c.obj)
        (xl, xh), (yl, yh) = _region_bounds(c.rel, s)
        x_bounds[v] = (max(x_bounds[v][0], xl), min(x_bounds[v][1], xh))
        y_bounds[v] = (max(y_bounds[v][0], yl), min(y_bounds[v][1], yh))
    x_rel, y_rel = [], []
    for c in network.binary:
        sx, sy = _axis_signs(c.rel)
        i, j = network.index_of(c.subject), network.index_of(c.reference)
        x_rel.append((i, sx, j))
        y_rel.append((i, sy, j))
    return _axis_feasible(x_bounds, x_rel) and _axis_feasible(y_bounds, y_rel)


@st.composite
def axis_networks(draw):
    """O2 or Layout networks at s=12 with 2..10 objects: directions (and
    regions) read off random cells, some of them replaced by random ones so
    that both verdicts occur; plus a query pair left unconstrained."""
    s = _ORACLE_S
    n = draw(st.integers(2, 10))
    names = [f"o{i}" for i in range(n)]
    cells = [GridCell(draw(st.integers(0, s - 1)), draw(st.integers(0, s - 1))) for _ in names]
    noisy = st.integers(0, 5).map(lambda k: k == 0)
    unary = []
    if draw(st.booleans()):  # Layout
        for name, cell in zip(names, cells):
            region = draw(st.sampled_from(list(Region9))) if draw(noisy) else region_of_cell(cell, s)
            unary.append(Unary(name, region))
    ordered = [(i, j) for i in range(n) for j in range(n) if i != j]
    query = draw(st.sampled_from(ordered))
    pairs = draw(st.lists(st.sampled_from(ordered), max_size=2 * n, unique=True))
    binary = []
    for i, j in pairs:
        if (i, j) == query:
            continue
        rel = (
            draw(st.sampled_from(list(Direction9)))
            if draw(noisy)
            else direction_between_cells(cells[i], cells[j])
        )
        binary.append(Binary(names[i], rel, names[j]))
    network = net(names, unary=unary, binary=binary, s=s)
    return network, (names[query[0]], names[query[1]])


def test_point_algebra_oracle_pinned():
    # a chain of three strict steps east needs four columns; the centre
    # third of a 12-wide grid has only four
    steps = [Binary(f"o{i + 1}", Direction9.E, f"o{i}") for i in range(3)]
    centre = [Unary(f"o{i}", Region9.CR) for i in range(4)]
    fits = net([f"o{i}" for i in range(4)], unary=centre, binary=steps, s=12)
    assert _oracle_sat(fits) and solve(fits).verdict is Verdict.SAT
    one_more = fits.extended(Binary("o0", Direction9.E, "o3"))
    assert not _oracle_sat(one_more) and solve(one_more).verdict is Verdict.UNSAT


@given(axis_networks())
@settings(max_examples=60, deadline=None)
def test_solver_matches_point_algebra_oracle(case):
    network, pair = case
    expected_sat = _oracle_sat(network)
    assert (solve(network, solution_cap=1).verdict is Verdict.SAT) == expected_sat
    expected = {
        d for d in Direction9 if _oracle_sat(network.extended(Binary(pair[0], d, pair[1])))
    }
    assert feasible_directions(network, pair) == expected
    if not expected_sat:
        assert expected == set()
