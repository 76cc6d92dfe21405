"""Consistency checking on the cell grid.

The main entry points are :func:`solve` (arc consistency, then
backtracking search with forward checking), :func:`arc_fixpoint` (the
arc-consistent state of a network, which solves of networks that add
binary constraints to it start from), :func:`brute_force_solve` (an
independent enumeration oracle), :func:`probe_directions` /
:func:`feasible_directions` (answer-level analysis of a query pair) and the
constraint-tightness calculators.

Domains are kept as integer bitmasks (bit ``row * s + col``).  Each pair of
variables carries one constraint: the conjunction of every relation the
network states on that pair, in either orientation, so its partner masks are
the AND of theirs.  The support of a variable from a neighbour's domain is
the OR of that domain's partner masks, read from per-conjunction tables in
4-bit chunks, so AC-3 (Mackworth 1977) runs at big-integer OR/AND speed and
proves most Unsat probes without search, including a direction and a
distance band that no cell pair satisfies together.  A constraint added to
a network can only shrink domains, so every fixpoint is reached one way:
fold the constraints a start does not hold yet into their pairs' arcs and
propagate only those arcs (Bessière 2006, incremental arc consistency).  A
probe that adds one constraint to a story starts from the story's
fixpoint and propagates its own pair's two arcs; a network solved on its
own starts from unary filtering, where every arc is added.  Search
determinism is part of the contract: variables are picked by highest
degree among unassigned neighbours, then smallest live domain (after arc
consistency), then smallest variable index; values are tried in row-major
cell order.
"""
from __future__ import annotations

import itertools
import math
import time
from collections import deque
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .calculus import (
    _SIGNS_TO_DIRECTION,
    DIRECTION_ORDER,
    Direction9,
    DistanceBand,
    DistanceScheme,
    GridCell,
    Region9,
    Relation,
    TopoWall,
    direction_holds_for_cells,
    distance_band_between_cells,
    distance_bands_for,
    inverse_direction,
    region_holds_for_cell,
    relation_from_token,
    topo_holds_for_cell,
)
from .network import Binary, ConstraintNetwork


class Verdict(Enum):
    SAT = "Sat"
    UNSAT = "Unsat"


@dataclass
class SolveStats:
    nodes: int = 0        # tentative assignments tried
    backtracks: int = 0   # tentative assignments retracted
    # wall-clock seconds of arc consistency plus search, without table
    # construction; from a fixpoint, only the added arcs' propagation counts
    elapsed: float = 0.0


@dataclass
class SolveOutcome:
    verdict: Verdict
    n_solutions: int
    first_solution: dict[str, GridCell] | None
    stats: SolveStats


class InstanceTooLarge(ValueError):
    """Raised when an exhaustive count would enumerate too many states."""


# ---------------------------------------------------------------------------
# predicate evaluation on single cells / cell pairs


def check_binary(rel: Relation, cell_a: GridCell, cell_b: GridCell, s: int) -> bool:
    """Does ``(cell_a, rel, cell_b)`` hold on an s-by-s grid?

    Evaluated cell by cell through the calculus; this is the reference the
    grid tables of :func:`_support` are tested against.  Distance
    bands scale with the room width, so no width enters the verdict.
    """
    if isinstance(rel, Direction9):
        return direction_holds_for_cells(rel, cell_a, cell_b)
    if isinstance(rel, DistanceBand):
        return distance_band_between_cells(cell_a, cell_b, s, rel.scheme) == rel
    raise TypeError(f"not a binary relation: {rel!r}")


def check_unary(rel: Relation, cell: GridCell, s: int) -> bool:
    if isinstance(rel, Region9):
        return region_holds_for_cell(rel, cell, s)
    if isinstance(rel, TopoWall):
        return topo_holds_for_cell(rel, cell, s)
    raise TypeError(f"not a unary relation: {rel!r}")


# ---------------------------------------------------------------------------
# cached bitmask tables

_unary_mask_cache: dict[tuple[Relation, int], int] = {}


def _unary_mask(rel: Relation, s: int) -> int:
    key = (rel, s)
    mask = _unary_mask_cache.get(key)
    if mask is None:
        mask = 0
        for idx in range(s * s):
            if check_unary(rel, GridCell(idx % s, idx // s), s):
                mask |= 1 << idx
        _unary_mask_cache[key] = mask
    return mask


#: Distance bands as exact integer comparisons on the squared index distance
#: ``q``: the band at position k of :func:`distance_bands_for` holds where
#: ``scale * q`` exceeds exactly k of the ``cut * s * s``, so a pair on a
#: cut-off lands in the closer band.
_BAND_CUTS: dict[DistanceScheme, tuple[int, tuple[int, ...]]] = {
    DistanceScheme.D2: (4, (1,)),
    DistanceScheme.D3: (9, (2, 8)),
}


def _offset_table(rel: Relation, s: int) -> np.ndarray:
    """``table[s - 1 + dy, s - 1 + dx]``: does ``(ca, rel, cb)`` hold when
    ``ca`` lies ``dx`` columns east and ``dy`` rows north of ``cb``?"""
    off = np.arange(1 - s, s)
    if isinstance(rel, Direction9):
        sx, sy = next(signs for signs, d in _SIGNS_TO_DIRECTION.items() if d is rel)
        return (np.sign(off)[:, None] == sy) & (np.sign(off)[None, :] == sx)
    if isinstance(rel, DistanceBand):
        scale, cuts = _BAND_CUTS[rel.scheme]
        q = scale * (off[:, None] ** 2 + off[None, :] ** 2)
        rank = sum(q > cut * s * s for cut in cuts)
        return rank == distance_bands_for(rel.scheme).index(rel)
    raise TypeError(f"not a binary relation: {rel!r}")


def _partner_windows(table: np.ndarray, s: int) -> np.ndarray:
    """``windows[row, col]``: the s-by-s grid of the cells ``ca`` for which
    the table's relation holds to the reference cell at ``(col, row)``."""
    return np.lib.stride_tricks.sliding_window_view(table, (s, s))[::-1, ::-1]


class _Support(NamedTuple):
    """Support of a pair constraint's subject, given the reference's domain."""

    rels: tuple[Relation, ...]  # the conjoined relations, subject first
    masks: list[int]          # per reference cell, the AND of the relations' partner masks
    tables: list[list[int]]   # ``tables[k][b]``: OR of ``masks[4k + i]`` over bits i of b
    full: int                 # the support of the whole grid


_support_cache: dict[tuple[tuple[Relation, ...], int], _Support] = {}


def _support(rels: tuple[Relation, ...], s: int) -> _Support:
    """Partner masks of the conjunction ``rels`` with their 4-bit chunk tables,
    cached on the relation objects themselves, since a solve looks them up for
    every pair.  The masks are the AND of the relations' offset tables, cut
    into one window per reference cell and packed in one numpy call.  The
    support of a domain is then one lookup per non-zero nibble; 8-bit chunks
    would take 8 times the memory."""
    key = (rels, s)
    support = _support_cache.get(key)
    if support is None:
        table = _offset_table(rels[0], s)
        for rel in rels[1:]:
            table = table & _offset_table(rel, s)
        packed = np.packbits(
            _partner_windows(table, s).reshape(s * s, s * s), axis=1, bitorder="little"
        )
        masks = [int.from_bytes(row.tobytes(), "little") for row in packed]
        tables = []
        # two tables per byte of a domain, the last ones padded with 0
        for k in range(0, -(-len(masks) // 8) * 8, 4):
            chunk = masks[k : k + 4]
            table = [0] * 16
            for b in range(1, 1 << len(chunk)):
                low = b & -b
                table[b] = table[b ^ low] | chunk[low.bit_length() - 1]
            tables.append(table)
        full = 0
        for m in masks:
            full |= m
        support = _support_cache[key] = _Support(rels, masks, tables, full)
    return support


def _inverse_rel(rel: Relation) -> Relation:
    if isinstance(rel, Direction9):
        return inverse_direction(rel)
    return rel  # distance bands are symmetric


# ---------------------------------------------------------------------------
# unary filtering


def _live_masks(network: ConstraintNetwork) -> list[int]:
    full = (1 << network.d) - 1
    live = [full] * len(network.variables)
    for c in network.unary:
        vi = network.index_of(c.obj)
        live[vi] &= _unary_mask(c.rel, network.s)
    return live


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# ---------------------------------------------------------------------------
# arc consistency and backtracking search


_Arc = tuple[int, int, _Support]


def _pair_key(
    pairs: dict[tuple[int, int], object], si: int, rel: Relation, ri: int
) -> tuple[tuple[int, int], Relation]:
    """The key under which ``(si, rel, ri)`` joins ``pairs``, and ``rel`` as
    read in that key's orientation: a pair already stated the other way
    round keeps its key and takes the inverse relation."""
    if (ri, si) in pairs:
        return (ri, si), _inverse_rel(rel)
    return (si, ri), rel


def _arc_pair(pair: tuple[int, int], rels: tuple[Relation, ...], s: int) -> list[_Arc]:
    x, y = pair
    return [(x, y, _support(rels, s)), (y, x, _support(tuple(map(_inverse_rel, rels)), s))]


def _supported(support: _Support, domain: int, full: int) -> int:
    """Cells of the revised variable with a partner in ``domain``."""
    if domain == full:
        return support.full
    if domain & (domain - 1) == 0:
        return support.masks[domain.bit_length() - 1]
    out = 0
    tables = support.tables
    k = 0
    for byte in domain.to_bytes(len(tables) >> 1, "little"):
        if byte:
            out |= tables[k][byte & 15] | tables[k + 1][byte >> 4]
        k += 2
    return out


def _arc_consistent(
    live: list[int],
    arcs: list[_Arc],
    watchers: list[list[int]],
    full: int,
    queue: deque[int],
) -> bool:
    """AC-3 from the arcs in ``queue``: narrow ``live`` in place until every
    cell left has a partner in each neighbour's domain; False when a domain
    empties.  A narrowed variable requeues the arcs it is the source of,
    except the reverse of the arc that narrowed it, whose support cannot
    have changed.  Queueing only the arcs of constraints added to a
    fixpoint gives the fixpoint of the whole network, because an added
    constraint can only shrink domains; from unary filtering every arc is
    added.  The fixpoint does not depend on the queue's order."""
    queued = bytearray(len(arcs))
    for a in queue:
        queued[a] = 1
    while queue:
        a = queue.popleft()
        queued[a] = 0
        x, y, support = arcs[a]
        new = live[x] & _supported(support, live[y], full)
        if new != live[x]:
            if not new:
                return False
            live[x] = new
            for b in watchers[x]:
                if not queued[b] and b != a ^ 1:
                    queued[b] = 1
                    queue.append(b)
    return True


class Fixpoint(NamedTuple):
    """A network after unary filtering and arc consistency over its first
    ``held`` binary constraints: the start of every :func:`solve` of it or
    of a network that adds binary constraints to it.  Built per story by
    the caller that probes it; nothing keeps it."""

    network: ConstraintNetwork
    held: int                            # how many leading binary constraints are propagated
    live: list[int]                      # domains at the fixpoint
    consistent: bool                     # False when a domain emptied
    arcs: list[_Arc]                     # as :func:`_extend` builds them,
    pairs: dict[tuple[int, int], int]    # with each pair's first arc
    watchers: list[list[int]]            # per variable, the arcs whose source it is
    elapsed: float                       # seconds of the arc-consistency pass


def _unary_start(network: ConstraintNetwork) -> Fixpoint:
    """``network`` with only its unary constraints applied: no arcs yet."""
    live = _live_masks(network)
    return Fixpoint(network, 0, live, all(live), [], {}, [[] for _ in network.variables], 0.0)


def _extends(start: Fixpoint, network: ConstraintNetwork) -> bool:
    """Does ``network`` state everything ``start`` holds, adding only
    binary constraints after those?"""
    base, k = start.network, start.held
    return (
        network.variables == base.variables
        and network.unary == base.unary
        and network.s == base.s
        and network.binary[:k] == base.binary[:k]
    )


def _extend(start: Fixpoint, network: ConstraintNetwork) -> Fixpoint:
    """The fixpoint of ``network``, reached from ``start`` by folding in the
    binary constraints ``start`` does not hold yet and propagating only the
    arcs they touch; table construction is not timed.

    Each constrained pair of variables carries two arcs, whose constraint
    conjoins every relation stated on the pair; a relation stated in the
    reverse orientation of the pair's first one is read through its
    inverse.  Arc ``2p`` revises pair p's subject from its reference, arc
    ``2p + 1`` the reference from the subject, so ``a ^ 1`` is the reverse
    of arc ``a``.  Each is ``(revised, source, support)``.  An added
    constraint on a pair ``start`` already constrains is conjoined into the
    pair's two arcs; one on a new pair appends two arcs."""
    if not _extends(start, network):
        raise ValueError("base is not the fixpoint of a network this one extends")
    variables = network.variables
    arcs = list(start.arcs)
    pairs = dict(start.pairs)
    watchers = list(start.watchers)
    rels_of: dict[tuple[int, int], tuple[Relation, ...]] = {}
    for c in network.binary[start.held :]:
        si, ri = variables.index(c.subject), variables.index(c.reference)
        key, rel = _pair_key(pairs, si, c.rel, ri)
        if key not in pairs:
            a = pairs[key] = len(arcs)
            arcs += (None, None)
            x, y = key
            watchers[y] = watchers[y] + [a]
            watchers[x] = watchers[x] + [a + 1]
            rels_of[key] = ()
        elif key not in rels_of:
            rels_of[key] = arcs[pairs[key]][2].rels
        rels_of[key] += (rel,)
    touched: deque[int] = deque()
    for key, rels in rels_of.items():
        a = pairs[key]
        arcs[a : a + 2] = _arc_pair(key, rels, network.s)
        touched += (a, a + 1)
    live = start.live.copy()
    began = time.perf_counter()
    consistent = start.consistent and _arc_consistent(
        live, arcs, watchers, (1 << network.d) - 1, touched
    )
    elapsed = time.perf_counter() - began
    return Fixpoint(network, len(network.binary), live, consistent, arcs, pairs, watchers, elapsed)


def arc_fixpoint(network: ConstraintNetwork) -> Fixpoint:
    """Filter each domain by its unary constraints, then make every binary
    constraint of ``network`` arc-consistent: :func:`_extend` from the
    unary start, so every arc is propagated."""
    return _extend(_unary_start(network), network)


def solve(
    network: ConstraintNetwork,
    solution_cap: int | None = 2,
    base: Fixpoint | None = None,
) -> SolveOutcome:
    """Search for grid assignments satisfying every constraint.

    The search starts from the arc-consistent fixpoint of ``network``,
    reached from ``base`` (the fixpoint of a network that ``network``
    extends by binary constraints only) by propagating the added
    constraints' arcs.  Without ``base`` it is the same propagation,
    started from unary filtering, so every constraint counts as added.  A
    domain emptied by arc consistency proves Unsat without search (0
    nodes).  Backtracking search with forward checking then runs on the
    narrowed domains; its verdict, counts and first solution do not depend
    on whether ``base`` was given.  ``stats.elapsed`` covers the
    propagation and the search, so from a ``base`` it leaves out the
    base's own pass.

    ``solution_cap`` bounds how many solutions are counted before stopping;
    ``None`` lifts the cap, producing an exact count.  The first solution
    found (under the fixed orderings) is reported whenever one exists.
    """
    if solution_cap is not None and solution_cap < 1:
        raise ValueError("solution_cap must be at least 1")
    fix = _extend(base or _unary_start(network), network)
    stats = SolveStats(elapsed=fix.elapsed)
    if not fix.consistent:
        return SolveOutcome(Verdict.UNSAT, 0, None, stats)
    n = len(network.variables)
    s = network.s
    live = fix.live

    start = time.perf_counter()
    # per variable, (neighbour, the neighbour's allowed cells per cell of this one)
    adj: list[list[tuple[int, list[int]]]] = [
        [(fix.arcs[a][0], fix.arcs[a][2].masks) for a in fix.watchers[v]] for v in range(n)
    ]
    assigned = [-1] * n
    unassigned = set(range(n))
    found = 0
    first: list[int] | None = None

    def pick_variable() -> int:
        best = -1
        best_key: tuple[int, int, int] | None = None
        for v in unassigned:
            degree = sum(1 for (u, _) in adj[v] if u in unassigned)
            key = (-degree, live[v].bit_count(), v)
            if best_key is None or key < best_key:
                best_key = key
                best = v
        return best

    def search() -> bool:
        """Returns True when the cap was reached (stop everything)."""
        nonlocal found, first
        if not unassigned:
            found += 1
            if first is None:
                first = assigned.copy()
            return solution_cap is not None and found >= solution_cap
        v = pick_variable()
        unassigned.discard(v)
        saved = live[v]
        for cell in _iter_bits(saved):
            stats.nodes += 1
            assigned[v] = cell
            pruned: list[tuple[int, int]] = []
            ok = True
            for (u, theirs_given_mine) in adj[v]:
                if u not in unassigned:
                    continue
                new = live[u] & theirs_given_mine[cell]
                if new != live[u]:
                    pruned.append((u, live[u]))
                    live[u] = new
                if new == 0:
                    ok = False
                    break
            if ok:
                live[v] = 1 << cell
                if search():
                    return True
                live[v] = saved
            for (u, old) in pruned:
                live[u] = old
            assigned[v] = -1
            stats.backtracks += 1
        unassigned.add(v)
        return False

    search()
    stats.elapsed += time.perf_counter() - start

    if found == 0:
        return SolveOutcome(Verdict.UNSAT, 0, None, stats)
    first_solution = {
        network.variables[v]: GridCell(first[v] % s, first[v] // s) for v in range(n)
    }
    return SolveOutcome(Verdict.SAT, found, first_solution, stats)


def brute_force_solve(network: ConstraintNetwork) -> SolveOutcome:
    """Count all solutions by plain enumeration.

    Deliberately naive: no propagation beyond unary filtering, no ordering
    heuristics; serves as the oracle the search is validated against.
    """
    n = len(network.variables)
    if network.d ** n > 10**7:
        raise InstanceTooLarge(f"{network.d}^{n} assignments exceed the oracle guard")
    s = network.s
    stats = SolveStats()
    start = time.perf_counter()

    domains: list[list[GridCell]] = []
    for name in network.variables:
        cells = [GridCell(i % s, i // s) for i in range(network.d)]
        for c in network.unary:
            if c.obj == name:
                cells = [cell for cell in cells if check_unary(c.rel, cell, s)]
        domains.append(cells)

    index = {name: i for i, name in enumerate(network.variables)}
    checks = [(index[c.subject], c.rel, index[c.reference]) for c in network.binary]

    found = 0
    first: tuple[GridCell, ...] | None = None
    for combo in itertools.product(*domains):
        stats.nodes += 1
        if all(check_binary(rel, combo[i], combo[j], s) for (i, rel, j) in checks):
            found += 1
            if first is None:
                first = combo
    stats.elapsed = time.perf_counter() - start
    if found == 0:
        return SolveOutcome(Verdict.UNSAT, 0, None, stats)
    return SolveOutcome(Verdict.SAT, found, dict(zip(network.variables, first)), stats)


# ---------------------------------------------------------------------------
# query-level analysis


def probe_directions(
    network: ConstraintNetwork, query_pair: tuple[str, str]
) -> dict[Direction9, SolveOutcome]:
    """Consistency of each of the nine candidate directions for the pair,
    each probe solved from the network's one arc-consistent fixpoint."""
    subject, reference = query_pair
    story = arc_fixpoint(network)
    return {
        d: solve(network.extended(Binary(subject, d, reference)), solution_cap=1, base=story)
        for d in DIRECTION_ORDER
    }


def feasible_directions(
    network: ConstraintNetwork, query_pair: tuple[str, str]
) -> set[Direction9]:
    """Directions of subject relative to reference consistent with the
    network.  The nine directions partition every cell pair, so none is
    feasible exactly when the network has no solution."""
    return {
        d
        for d, outcome in probe_directions(network, query_pair).items()
        if outcome.verdict is Verdict.SAT
    }


# ---------------------------------------------------------------------------
# constraint tightness

#: Relation kinds the tightness report covers, in print order.
TIGHTNESS_KINDS: tuple[str, ...] = (
    ("InR",)
    + tuple(r.value for r in Region9)
    + ("TPP", "NTPP")
    + tuple(d.value for d in DIRECTION_ORDER)
    + ("close:D2", "far:D2", "close:D3", "medium:D3", "far:D3")
)


@dataclass(frozen=True)
class TightnessReport:
    kind: str
    d: int
    analytic: float
    empirical: float

    @property
    def abs_error(self) -> float:
        return abs(self.analytic - self.empirical)


def _square_distance_cdf(t: float) -> float:
    """P(distance <= t) for two independent uniform points in a unit square."""
    if t <= 0:
        return 0.0
    if t >= math.sqrt(2):
        return 1.0
    if t <= 1:
        return math.pi * t * t - (8.0 / 3.0) * t**3 + 0.5 * t**4
    a = math.sqrt(t * t - 1)
    return (
        1.0 / 3.0
        - 2.0 * t * t
        - 0.5 * t**4
        + (4.0 / 3.0) * (2.0 * t * t + 1.0) * a
        + 2.0 * t * t * (math.asin(1.0 / t) - math.acos(1.0 / t))
    )


def _grid_side(d: int) -> int:
    """Side of a ``d``-cell grid: a multiple of 3, at least 3."""
    s = math.isqrt(max(d, 0))
    if s < 3 or s * s != d or s % 3 != 0:
        raise ValueError(f"d must be a square with side divisible by 3 and at least 3, not {d}")
    return s


def analytic_tightness(kind: str, d: int) -> Fraction | float:
    """Closed-form fraction of disallowed cells (unary) or cell pairs (binary).

    Exact rationals for containment, regions, wall topology, directions and
    overlap.  Distance bands use a circle-area approximation: the band disc
    radii (in index units, so a grid span of ``sqrt(d) - 1``) are averaged
    over wall-clipped placements of the central object, which keeps the
    estimate inside [0, 1] on every grid.
    """
    s = _grid_side(d)
    if kind == "InR":
        return Fraction(0)
    if kind in {r.value for r in Region9}:
        return Fraction(8, 9)
    if kind == "TPP":
        return Fraction((s - 2) ** 2, d)
    if kind == "NTPP":
        return Fraction(4 * (s - 1), d)
    if kind in ("N", "S", "E", "W"):
        return 1 - Fraction(s - 1, 2 * d)
    if kind in ("NE", "NW", "SE", "SW"):
        return 1 - Fraction(s - 1, 2 * s) ** 2
    if kind == "O":
        return 1 - Fraction(1, d)
    span = s - 1
    if kind in ("close:D2", "far:D2"):
        t1 = (span / 2) / span  # = 1/2: disc radius half the index span
        inside = _square_distance_cdf(t1)
        return 1.0 - inside if kind == "close:D2" else inside
    if kind in ("close:D3", "medium:D3", "far:D3"):
        t1 = (math.sqrt(2) * span / 3) / span
        t2 = (2 * math.sqrt(2) * span / 3) / span
        if kind == "close:D3":
            return 1.0 - _square_distance_cdf(t1)
        if kind == "medium:D3":
            return 1.0 - (_square_distance_cdf(t2) - _square_distance_cdf(t1))
        return _square_distance_cdf(t2)
    raise ValueError(f"unknown relation kind: {kind!r}")


def empirical_tightness(kind: str, d: int) -> Fraction:
    """Exhaustively counted fraction of disallowed cells / cell pairs.

    Counts the solver's own grid tables: unary kinds from the cell masks,
    binary kinds from the partner windows of the relation's offset table.
    """
    s = _grid_side(d)
    if d > 20736:
        raise InstanceTooLarge(f"d={d} is too large to count exhaustively (at most 20736)")
    if kind == "InR":
        return Fraction(0)
    rel = relation_from_token(kind)
    if isinstance(rel, (Region9, TopoWall)):
        return Fraction(d - _unary_mask(rel, s).bit_count(), d)
    allowed = int(np.count_nonzero(_partner_windows(_offset_table(rel, s), s)))
    return Fraction(d * d - allowed, d * d)


def tightness_table(d: int) -> list[TightnessReport]:
    reports = []
    for kind in TIGHTNESS_KINDS:
        analytic = analytic_tightness(kind, d)
        empirical = empirical_tightness(kind, d)
        reports.append(TightnessReport(kind, d, float(analytic), float(empirical)))
    return reports
