"""Residual graphs and their decomposition into closed and open trails.

For each layer the cross edges minus parent edges form the residual graph;
removing link edges as well leaves the trail graph, which is never copied:
the walks read the view's own incidence and pass over parent and link
edges.  Every component of the trail graph splits into edge-disjoint
trails: one closed trail if all degrees are even, otherwise one open trail
per pair of odd-degree vertices.  Each trail is walked from an end, or from
the component's smallest vertex if it is closed, and the circuits of edges
left unused are spliced in, as in Hierholzer's algorithm.  The stage emits
each open trail in the order and direction the labeling deals it; the
labeling only rotates each closed trail to its start.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator

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
    starts read of a component, and a bad one is even and starts at its id."""

    closed: tuple[Trail, ...]
    open_inner: tuple[Trail, ...]
    open_outer: tuple[Trail, ...]
    open_mixed: tuple[Trail, ...]


def residual_edge_sets(pair: CoveringPair, parent_edge: dict[int, int] | None = None
                       ) -> tuple[dict[int, int], set[int], list[int], int]:
    """Parent edges and trail graph of the pair's view, from one walk over
    its outer vertices' incidence, where each view edge appears once.

    Without `parent_edge`, each outer vertex's parent edge is picked here:
    its matching edge if it is matched, else its lowest-id edge that is not
    a link edge; a given map must name every outer vertex.  The trail graph
    is not built but its degrees counted: links share no vertex, and a
    parent edge that is a matching edge is counted at its inner end through
    the matching.  Returns the parent edges, the set `skip` of parent and
    link edge ids, the odd vertices and the trail edge count."""
    match_of, link_eids, link_ends = pair.match_of, pair.link_edge_ids, pair.link_ends
    adj, inner = pair.view.adj, pair.view.inner
    parent = {} if parent_edge is None else parent_edge
    lost = dict.fromkeys(inner, 0)  # parent edges at each inner vertex, but matching edges
    odd, total = [], 0
    for y in pair.view.outer:
        entries = adj[y]
        degree = len(entries) - 1 - (y in link_ends)
        total += degree
        if degree % 2:
            odd.append(y)
        p = match_of.get(y) if parent_edge is None else parent[y]
        if y in match_of and match_of[y] == p:
            parent[y] = p
            continue  # counted at its inner end, which the matching names
        if p is None:
            for x, eid in entries:
                if eid not in link_eids and (p is None or eid < p):
                    p, end = eid, x
            if p is None:
                raise InternalInvariantError(f"outer vertex {y} has no usable parent edge")
            parent[y] = p
        else:
            end = next(x for x, eid in entries if eid == p)
        lost[end] += 1
    skip = {*link_eids, *parent.values()}
    for x in inner:
        if (len(adj[x]) - lost[x] - (x in match_of and match_of[x] in skip)) % 2:
            odd.append(x)
    return parent, skip, odd, total


def _extend(todo: dict[int, Iterator[tuple[int, int]]], used: set[int],
            verts: list[int], eids: list[int]) -> None:
    """Walk on from `verts[-1]` until stuck, taking at each vertex its first
    edge not yet used and appending the vertex and edge id reached to `verts`
    and `eids`.  `todo` holds one iterator per vertex over its sorted view
    incidence, so every entry is read once, and `used` the parent and link
    edges and those walked so far, which are all skipped."""
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


def decompose_trails(view: BipartiteView, skip: set[int], odd: list[int],
                     total: int) -> TrailFamily:
    """Decompose the trail graph, as `residual_edge_sets` gives it, into
    trails, one walk per trail.

    Each view vertex gets one iterator over its sorted view incidence, and
    `skip` becomes the set of used edges, so a parent or link entry is
    passed over like an edge already walked from its other end; `odd` is
    sorted in place.  A walk starts at each odd vertex, in increasing order
    over the whole layer, that no earlier walk ended at, and takes unused
    edges until it is stuck, which is at a larger odd vertex of its
    component.  Only then, once every odd vertex is an end, and only while
    edges are left, is each walk spliced with the circuits left over through
    its vertices (spliced sooner, a circuit could end at an odd vertex);
    each becomes one open trail.  Walks in different components share no
    edge, so each component gets the same trails whatever walks come between
    its own.  The edges still left form the components without odd vertices:
    a walk from each vertex in increasing order, while edges remain, finds
    each such component at its smallest vertex, walks back to it, and is
    spliced into the component's closed trail.  Open trails are kept in the
    direction `TrailFamily` gives, each walk's lists reversed in place if
    need be."""
    adj, used, full = view.adj, skip, total + len(skip)  # full: every view edge used
    todo: dict[int, Iterator[tuple[int, int]]] = dict(zip(adj, map(iter, adj.values())))
    odd.sort()
    walks, ends = [], set()
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
        if len(used) < full:
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
    if len(used) < full:
        for v in sorted(adj):
            if len(used) == full:
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


def detect_bad_components(pair: CoveringPair, parent_edge: dict[int, int]
                          ) -> tuple[tuple[int, ...], frozenset[int]]:
    """(Ids ascending, vertices) of the trail graph's bad components: the
    2k-regular ones, for the pair's degree bound d = 2k + 1, whose outer
    vertices are all link ends.  Only the trail edges at the link ends are
    read: a component of them is bad when each of its vertices has 2k of
    them and each inner one no other trail edge.  Its id is its smallest vertex."""
    link_ends, link_eids, incident = pair.link_ends, pair.link_edge_ids, pair.view.incident
    adj: dict[int, list[int]] = {}
    for y in link_ends:
        for x, eid in incident(y):
            if eid != parent_edge[y] and eid not in link_eids:
                adj.setdefault(y, []).append(x)
                adj.setdefault(x, []).append(y)
    bad_cids, bad_vertices, seen = [], set(), set()
    for v in sorted(adj):  # so v is the smallest vertex of its component
        if v not in seen:
            members, stack = {v}, [v]
            while stack:
                for w in adj[stack.pop()]:
                    if w not in members:
                        members.add(w)
                        stack.append(w)
            seen |= members
            if all(len(adj[u]) == pair.d - 1 and (u in link_ends or pair.d - 1 == sum(
                    e != parent_edge[w] and e not in link_eids for w, e in incident(u)))
                   for u in members):
                bad_cids.append(v)
                bad_vertices |= members
    return tuple(bad_cids), frozenset(bad_vertices)


@dataclass(frozen=True, slots=True)
class BadAnalysis:
    """Bad components and free links of one layer's covering pair."""

    bad_cids: tuple[int, ...]
    bad_vertices: frozenset[int]
    free_links: tuple[Link, ...]


def analyze_bad_components(pair: CoveringPair, parent_edge: dict[int, int]) -> BadAnalysis:
    """The pair's bad components, and its free links: those with an end
    outside every bad component."""
    bad_cids, bad_vertices = detect_bad_components(pair, parent_edge)
    free = tuple(l for l in pair.links
                 if l.end_a not in bad_vertices or l.end_b not in bad_vertices)
    return BadAnalysis(bad_cids, bad_vertices, free)


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
