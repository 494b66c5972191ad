"""Residual graphs and their decomposition into closed and open trails.

For each layer the cross edges minus parent edges form the residual graph;
removing link edges as well leaves the trail graph.  Every component of the
trail graph splits into edge-disjoint trails: one closed trail if all degrees
are even, otherwise one open trail per pair of odd-degree vertices.  Each
trail is walked from an end, or from the component's smallest vertex if it
is closed, and the circuits of edges left unused are spliced in, as in
Hierholzer's algorithm.  The stage emits each open trail in the order and
direction the labeling deals it; the labeling only rotates each closed trail
to its start.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import AbstractSet, Iterator

from .covering import CoveringPair, Link
from .errors import InternalInvariantError
from .graph import BipartiteView


@dataclass(frozen=True, slots=True)
class Trail:
    """Walk without repeated edges; vertices has one entry more than edges,
    and a closed trail starts and ends at the same vertex."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]
    closed: bool

    def __post_init__(self):
        if len(self.vertices) != len(self.edges) + 1:
            raise InternalInvariantError("trail vertex/edge lengths disagree")
        if self.closed and self.vertices[0] != self.vertices[-1]:
            raise InternalInvariantError("closed trail does not return to its start")

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def ends(self) -> tuple[int, int]:
        return (self.vertices[0], self.vertices[-1])


@dataclass(frozen=True, slots=True)
class TrailFamily:
    """All trails of one layer's trail graph, classified by end layers: one
    closed trail per even-degree component, and open trails with both ends
    inner, both ends outer, or one of each, each in the order and direction
    the labeling deals it.

    A component's id is its smallest vertex, which is where its closed trail
    starts, and closed trails come by increasing id.  Open-inner and
    open-outer trails run from their smaller end; mixed ones run inner end
    first at even positions of `open_mixed` and outer end first at odd ones.
    A closed trail runs over its whole component, so its `vertices[:-1]`
    lists each vertex half its trail degree times: that is all closed-trail
    starts and bad-component detection read of a component, and a bad
    component is 2k-regular, so it is even."""

    closed: tuple[Trail, ...]
    open_inner: tuple[Trail, ...]
    open_outer: tuple[Trail, ...]
    open_mixed: tuple[Trail, ...]


def residual_edge_sets(pair: CoveringPair, parent_edge: dict[int, int]) -> AbstractSet[int]:
    """Trail edge ids: the pair's view's edges minus parent edges and link
    edges.  On a layer without links the residual set is returned as it is,
    with no copy; no caller mutates it."""
    residual = pair.view.edge_ends.keys() - parent_edge.values()
    if not pair.links:
        return residual
    return residual - pair.link_edge_ids


def _extend(todo: dict[int, Iterator[tuple[int, int]]], used: set[int],
            verts: list[int], eids: list[int]) -> None:
    """Walk on from `verts[-1]` until stuck, taking at each vertex its first
    edge not yet used and appending the vertex and edge id reached to `verts`
    and `eids`.  `todo` holds one iterator per vertex over its sorted list, so
    every entry is read once, and `used` the edges walked so far: an edge
    already walked from its other end is skipped there."""
    u = verts[-1]
    while True:
        for w, eid in todo[u]:
            if eid not in used:
                used.add(eid)
                verts.append(w)
                eids.append(eid)
                u = w
                break
        else:
            return


def _splice(todo: dict[int, Iterator[tuple[int, int]]], used: set[int],
            verts: list[int], eids: list[int]) -> tuple[list[int], list[int]]:
    """The walk `verts`, `eids` with every circuit of unused edges through its
    vertices spliced in, as Hierholzer's loop does with the walk as its
    stack: from the walk's far end back, each vertex that still has an
    unused edge is walked on from until stuck, which is back at itself."""
    out_v: list[int] = []
    out_e: list[int] = []
    while verts:
        _extend(todo, used, verts, eids)
        out_v.append(verts.pop())
        if eids:
            out_e.append(eids.pop())
    out_v.reverse()
    out_e.reverse()
    return out_v, out_e


def decompose_trails(view: BipartiteView, trail_eids: AbstractSet[int]) -> TrailFamily:
    """Decompose the trail graph into trails, one walk per trail.

    The trail adjacency filters the view's incidence lists, which are already
    sorted, and each vertex gets one iterator over its list; the same loop
    notes the odd vertices.  A walk starts at each odd vertex, in increasing
    order over the whole layer, that no earlier walk ended at, and takes
    unused edges until it is stuck, which is at a larger odd vertex of its
    component.  Only then, once every odd vertex is an end, and only while
    edges are left, is each walk spliced with the circuits left over through
    its vertices (spliced sooner, a circuit could end at an odd vertex); each
    becomes one open trail.  Walks in different components share no edge, so
    each component gets the same trails whatever walks come between its own.
    The edges still left form the components without odd vertices: a walk
    from each vertex in increasing order, while edges remain, finds each such
    component at its smallest vertex, walks back to it, and is spliced into
    the component's closed trail.  Open trails are kept in the direction
    `TrailFamily` gives, each walk's lists reversed in place if need be."""
    incident = view.incident
    todo: dict[int, Iterator[tuple[int, int]]] = {}
    odd: list[int] = []
    for v in (*view.inner, *view.outer):
        lst = []
        for pair in incident(v):
            if pair[1] in trail_eids:
                lst.append(pair)
        if lst:
            todo[v] = iter(lst)
            if len(lst) % 2:
                odd.append(v)
    odd.sort()

    used: set[int] = set()  # edges the walks took
    total = len(trail_eids)
    walks = []
    ends = set()
    for s in odd:
        if s not in ends:
            verts, eids = [s], []
            _extend(todo, used, verts, eids)
            ends.add(verts[-1])
            walks.append((verts, eids))

    open_inner: list[Trail] = []
    open_outer: list[Trail] = []
    open_mixed: list[Trail] = []
    side = view.side
    for verts, eids in walks:
        if len(used) < total:
            verts, eids = _splice(todo, used, verts, eids)
        first, last = side(verts[0]), side(verts[-1])
        if first != last:
            # dealt inner end first at even positions, outer end first at odd
            if (first == "inner") != (len(open_mixed) % 2 == 0):
                verts.reverse()
                eids.reverse()
            open_mixed.append(Trail(tuple(verts), tuple(eids), closed=False))
        elif first == "inner":
            open_inner.append(Trail(tuple(verts), tuple(eids), closed=False))
        else:
            open_outer.append(Trail(tuple(verts), tuple(eids), closed=False))

    closed: list[Trail] = []
    if len(used) < total:
        for v in sorted(todo):
            if len(used) == total:
                break
            verts, eids = _splice(todo, used, [v], [])
            if eids:
                closed.append(Trail(tuple(verts), tuple(eids), closed=True))

    return TrailFamily(
        closed=tuple(closed),
        open_inner=tuple(open_inner),
        open_outer=tuple(open_outer),
        open_mixed=tuple(open_mixed),
    )


def detect_bad_components(family: TrailFamily, pair: CoveringPair) -> tuple[int, ...]:
    """Ids (smallest vertices), ascending, of the components that are
    2k-regular, for the pair's degree bound d = 2k + 1, with every outer
    vertex a link end.  Such a component is even, so its closed trail, which
    starts at its id, visits each of its vertices k times, and a layer
    without links has none."""
    if not pair.links:
        return ()
    view, k, link_ends = pair.view, pair.d // 2, pair.link_ends
    bad = []
    for trail in family.closed:
        visits = Counter(trail.vertices[:-1])
        if any(count != k for count in visits.values()):
            continue
        outer = [v for v in visits if view.side(v) == "outer"]
        if outer and all(v in link_ends for v in outer):
            bad.append(trail.vertices[0])
    return tuple(bad)


@dataclass(frozen=True, slots=True)
class BadAnalysis:
    """Trail family plus bad-component bookkeeping for one layer."""

    family: TrailFamily
    bad_cids: tuple[int, ...]
    bad_vertices: frozenset[int]
    free_links: tuple[Link, ...]


def analyze_bad_components(pair: CoveringPair, parent_edge: dict[int, int]) -> BadAnalysis:
    """Decompose the trail graph of the pair's view and work out which links
    are free (at least one end outside every bad component)."""
    family = decompose_trails(pair.view, residual_edge_sets(pair, parent_edge))
    bad_cids = detect_bad_components(family, pair)
    bad_vertices: set[int] = set()
    for trail in family.closed:
        if trail.vertices[0] in bad_cids:
            bad_vertices.update(trail.vertices)
    free = tuple(l for l in pair.links
                 if l.end_a not in bad_vertices or l.end_b not in bad_vertices)
    return BadAnalysis(family, bad_cids, frozenset(bad_vertices), free)


def choose_closed_start(trail: Trail, bad: bool, pair: CoveringPair) -> tuple[int, str]:
    """Start vertex and labeling case for the closed trail of a component.

    Bad components start at their lowest outer vertex ("bad", low labels
    first).  Otherwise prefer an outer vertex of low degree or one that is not
    a link end ("outer-high"), falling back to a low-degree inner vertex
    ("inner-low"); one of the two always exists in a non-bad component.  The
    trail visits each vertex half its trail degree times, so a degree of at
    most 2k - 1 is fewer than k visits, for the pair's degree bound 2k + 1.
    """
    view, k = pair.view, pair.d // 2
    visits = Counter(trail.vertices[:-1])
    outer_verts = sorted(v for v in visits if view.side(v) == "outer")
    if bad:
        return outer_verts[0], "bad"
    for v in outer_verts:
        if visits[v] < k or v not in pair.link_ends:
            return v, "outer-high"
    for v in sorted(v for v in visits if view.side(v) == "inner"):
        if visits[v] < k:
            return v, "inner-low"
    raise InternalInvariantError(
        f"no valid start vertex for the closed trail of component {trail.vertices[0]}")


def rotate_closed(trail: Trail, start: int) -> Trail:
    """Rotate a closed trail to begin at `start` (first occurrence), directed
    so the first edge id is below the last."""
    if not trail.closed:
        raise InternalInvariantError("cannot rotate an open trail")
    q = trail.edge_count
    cyc = trail.vertices[:q]
    j = cyc.index(start)
    verts = cyc[j:] + cyc[:j] + (start,)
    eids = trail.edges[j:] + trail.edges[:j]
    if eids[0] > eids[-1]:
        verts, eids = verts[::-1], eids[::-1]
    return Trail(verts, eids, closed=True)
