"""Residual graphs and their decomposition into closed and open trails.

For each layer the cross edges minus parent edges form the residual graph;
removing link edges as well leaves the trail graph.  Every component of the
trail graph splits into edge-disjoint trails: one closed trail if all degrees
are even, otherwise one open trail per pair of odd-degree vertices.  Each
trail is walked from an end, or from the component's smallest vertex if it
is closed, and the circuits of edges left unused are spliced in, as in
Hierholzer's algorithm.  An open trail runs from its smaller end; the
labeling orients each open trail by its ends and rotates each closed one to
its start.
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

    def reverse(self) -> "Trail":
        return Trail(self.vertices[::-1], self.edges[::-1], self.closed)


@dataclass(frozen=True, slots=True)
class TrailFamily:
    """All trails of one layer's trail graph, classified by end layers: one
    closed trail per even-degree component, paired with that component's id,
    and open trails with both ends inner, both ends outer, or one of each,
    each running from its smaller end.

    Components are numbered over the whole trail graph by increasing smallest
    vertex.  A closed trail runs over its whole component, so its
    `vertices[:-1]` lists each vertex half its trail degree times: that is
    all closed-trail starts and bad-component detection read of a component,
    and a bad component is 2k-regular, so it is even."""

    closed: tuple[tuple[int, Trail], ...]
    open_inner: tuple[Trail, ...]
    open_outer: tuple[Trail, ...]
    open_mixed: tuple[Trail, ...]

    def all_trails(self):
        for _, t in self.closed:
            yield t
        yield from self.open_inner
        yield from self.open_outer
        yield from self.open_mixed


def residual_edge_sets(view: BipartiteView, pair: CoveringPair,
                       parent_edge: dict[int, int]) -> AbstractSet[int]:
    """Trail edge ids: the view's edges minus parent edges and link edges.
    On a layer without links the residual set is returned as it is, with no
    copy; no caller mutates it."""
    residual = view.edge_ends.keys() - parent_edge.values()
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
    """Split the trail graph into components and decompose each into trails.

    The trail adjacency filters the view's incidence lists, which are already
    sorted, and each vertex gets one iterator over its list.  Components are
    found by a depth-first search from their smallest vertex, in increasing
    order.  In a component with odd vertices, a walk starts at each odd
    vertex, in increasing order, that no earlier walk ended at, and takes
    unused edges until it is stuck, which is at a larger odd vertex.  Only
    then, once every odd vertex is an end, is each walk spliced with the
    circuits left over through its vertices (spliced sooner, a circuit could
    end at an odd vertex); each becomes one open trail, from its smaller end.
    A component without odd vertices is walked from its smallest vertex back
    to it, spliced, and kept as one closed trail with the component's id.
    Walks that took every edge of their component, as on a path or a cycle,
    have nothing to splice and are their trails as walked."""
    incident = view.incident
    walk: dict[int, list[tuple[int, int]]] = {}
    todo: dict[int, Iterator[tuple[int, int]]] = {}
    for v in (*view.inner, *view.outer):
        lst = []
        for pair in incident(v):
            if pair[1] in trail_eids:
                lst.append(pair)
        if lst:
            walk[v] = lst
            todo[v] = iter(lst)

    seen: set[int] = set()
    used: set[int] = set()
    closed: list[tuple[int, Trail]] = []
    open_inner: list[Trail] = []
    open_outer: list[Trail] = []
    open_mixed: list[Trail] = []
    side = view.side
    cid = -1
    for v in sorted(walk):
        if v in seen:
            continue
        cid += 1
        seen.add(v)
        stack = [v]
        odd = []
        degree_sum = 0
        while stack:
            u = stack.pop()
            lst = walk[u]
            degree_sum += len(lst)
            if len(lst) % 2:
                odd.append(u)
            for w, _eid in lst:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        odd.sort()
        walks = []
        ends = set()
        left = degree_sum // 2  # edges of the component no walk has taken
        for s in odd or (v,):
            if s not in ends:
                verts, eids = [s], []
                _extend(todo, used, verts, eids)
                ends.add(verts[-1])
                left -= len(eids)
                walks.append((verts, eids))
        for verts, eids in walks:
            if left:
                verts, eids = _splice(todo, used, verts, eids)
            trail = Trail(tuple(verts), tuple(eids), closed=not odd)
            if not odd:
                closed.append((cid, trail))
                continue
            first, last = side(trail.vertices[0]), side(trail.vertices[-1])
            if first != last:
                open_mixed.append(trail)
            elif first == "inner":
                open_inner.append(trail)
            else:
                open_outer.append(trail)

    return TrailFamily(
        closed=tuple(closed),
        open_inner=tuple(open_inner),
        open_outer=tuple(open_outer),
        open_mixed=tuple(open_mixed),
    )


def detect_bad_components(family: TrailFamily, view: BipartiteView,
                          pair: CoveringPair, k: int) -> tuple[int, ...]:
    """Ids, ascending, of the components that are 2k-regular with every outer
    vertex a link end.  Such a component is even, so its closed trail visits
    each of its vertices k times, and a layer without links has none."""
    if not pair.links:
        return ()
    link_ends = pair.link_ends
    bad = []
    for cid, trail in family.closed:
        visits = Counter(trail.vertices[:-1])
        if any(count != k for count in visits.values()):
            continue
        outer = [v for v in visits if view.side(v) == "outer"]
        if outer and all(v in link_ends for v in outer):
            bad.append(cid)
    return tuple(bad)


@dataclass(frozen=True, slots=True)
class BadAnalysis:
    """Trail family plus bad-component bookkeeping for one layer."""

    family: TrailFamily
    bad_cids: tuple[int, ...]
    bad_vertices: frozenset[int]
    free_links: tuple[Link, ...]


def analyze_bad_components(view: BipartiteView, pair: CoveringPair,
                           parent_edge: dict[int, int], k: int) -> BadAnalysis:
    """Decompose the trail graph and work out which links are free (at least
    one end outside every bad component)."""
    family = decompose_trails(view, residual_edge_sets(view, pair, parent_edge))
    bad_cids = detect_bad_components(family, view, pair, k)
    bad_vertices: set[int] = set()
    for cid, trail in family.closed:
        if cid in bad_cids:
            bad_vertices.update(trail.vertices)
    free = tuple(l for l in pair.links
                 if l.end_a not in bad_vertices or l.end_b not in bad_vertices)
    return BadAnalysis(family, bad_cids, frozenset(bad_vertices), free)


def choose_closed_start(trail: Trail, cid: int, bad: bool,
                        pair: CoveringPair, view: BipartiteView, k: int) -> tuple[int, str]:
    """Start vertex and labeling case for the closed trail of component `cid`.

    Bad components start at their lowest outer vertex ("bad", low labels
    first).  Otherwise prefer an outer vertex of low degree or one that is not
    a link end ("outer-high"), falling back to a low-degree inner vertex
    ("inner-low"); one of the two always exists in a non-bad component.  The
    trail visits each vertex half its trail degree times, so a degree of at
    most 2k - 1 is fewer than k visits.
    """
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
        f"no valid start vertex for the closed trail of component {cid}")


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
    rotated = Trail(verts, eids, closed=True)
    if rotated.edges[0] > rotated.edges[-1]:
        rotated = rotated.reverse()
    return rotated


def orient_open(trail: Trail, start: int) -> Trail:
    """Return the trail running from the given end vertex."""
    if trail.vertices[0] == start:
        return trail
    if trail.vertices[-1] == start:
        return trail.reverse()
    raise InternalInvariantError(f"vertex {start} is not an end of the trail")
