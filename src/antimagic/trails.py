"""Residual graphs and their decomposition into closed and open trails.

For each layer the cross edges minus parent edges form the residual graph;
removing link edges as well leaves the trail graph.  Every component of the
trail graph splits into edge-disjoint trails: one closed trail if all degrees
are even, otherwise one open trail per pair of odd-degree vertices.  A
component in which no vertex has degree above 2 is a cycle or a path, its own
single trail, and is walked once; any other component pairs its odd vertices
with dummy edges, is walked as an Euler circuit, and is cut at the dummies.
Trails are emitted in the direction they were walked: the labeling orients
each open trail by its ends and rotates each closed one to its start.
"""

from __future__ import annotations

from bisect import insort
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
    and open trails with both ends inner, both ends outer, or one of each.

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


def _euler_circuit(todo: dict[int, Iterator[tuple[int, int]]], used: set[int],
                   start: int) -> tuple[list[int], list[int]]:
    """Iterative Hierholzer walk from `start` over its even-degree connected
    edge set.  `todo` holds one iterator per vertex over its sorted list, so
    every entry is read once, and `used` the edges walked so far: an edge
    already walked from its other end is skipped there."""
    stack_v = [start]
    stack_e: list[int] = []
    out_v: list[int] = []
    out_e: list[int] = []
    while stack_v:
        for w, eid in todo[stack_v[-1]]:
            if eid not in used:
                used.add(eid)
                stack_v.append(w)
                stack_e.append(eid)
                break
        else:
            out_v.append(stack_v.pop())
            if stack_e:
                out_e.append(stack_e.pop())
    out_v.reverse()
    out_e.reverse()
    return out_v, out_e


def _split_at_dummies(verts: list[int], eids: list[int]) -> list[Trail]:
    """Cut a circuit at its negative (dummy) edge ids into open trails: one
    after each dummy, in circuit order, the last one wrapping around the
    circuit's start to its first dummy."""
    cuts = []
    for pos, eid in enumerate(eids):
        if eid < 0:
            cuts.append(pos)
    trails = []
    for a, b in zip(cuts, cuts[1:]):
        trails.append(Trail(tuple(verts[a + 1:b + 1]), tuple(eids[a + 1:b]), closed=False))
    first, last = cuts[0], cuts[-1]
    trails.append(Trail(tuple(verts[last + 1:] + verts[1:first + 1]),
                        tuple(eids[last + 1:] + eids[:first]), closed=False))
    return trails


def _follow(walk: dict[int, list[tuple[int, int]]], seen: set[int], v: int,
            entry: tuple[int, int], verts: list[int], eids: list[int]) -> int:
    """Walk on from `v` through `entry`, appending each vertex and edge id
    reached to `verts` and `eids` and each vertex to `seen`, for as long as
    the vertices reached have trail degree 2.  Returns the trail degree of
    the vertex where it stops: 1 at a path's end, 2 back at `v`, which
    closes a cycle, and more at a branch vertex."""
    w, eid = entry
    while True:
        verts.append(w)
        eids.append(eid)
        if w == v:
            return 2
        seen.add(w)
        lst = walk[w]
        if len(lst) != 2:
            return len(lst)
        first, second = lst
        w, eid = second if first[1] == eid else first


def _unbranched_trail(walk: dict[int, list[tuple[int, int]]], seen: set[int],
                      v: int) -> tuple[Trail | None, list[int]]:
    """The single trail of the component whose smallest vertex is `v`, if
    no vertex of it has trail degree above 2, and the vertices walked.

    Such a component is a cycle or a path, emitted as walked: a cycle and a
    path that ends at `v` run from `v` through its first entry, and a path
    through `v` runs from the end its second entry leads to.  At a branch
    vertex the walk stops, and the trail is None."""
    entries = walk[v]
    verts, eids = [v], []
    if len(entries) > 2:
        return None, verts
    stop = _follow(walk, seen, v, entries[0], verts, eids)
    if stop == 2:
        return Trail(tuple(verts), tuple(eids), closed=True), verts
    if stop > 2:
        return None, verts
    if len(entries) == 1:
        return Trail(tuple(verts), tuple(eids), closed=False), verts
    # v is inside the path, which ends where its first entry leads
    back_v, back_e = [v], []
    if _follow(walk, seen, v, entries[1], back_v, back_e) > 2:
        return None, verts + back_v[1:]
    back_v.reverse()
    back_e.reverse()
    return Trail(tuple(back_v + verts[1:]), tuple(back_e + eids), closed=False), verts


def decompose_trails(view: BipartiteView, trail_eids: AbstractSet[int]) -> TrailFamily:
    """Split the trail graph into components and decompose each into trails.

    The trail adjacency filters the view's incidence lists, which are already
    sorted.  Components are taken in order of their smallest vertex and
    walked from it.  A component in which no vertex has trail degree above 2
    is a path or a cycle, its own single trail, and is emitted as walked.
    Any other component is completed by a depth-first search, pairs its odd
    vertices in order with dummy edges inserted at their sorted positions,
    and is walked as an Euler circuit, one iterator per list; the circuit is
    cut at its dummies into open trails, each running as the circuit does.
    A component without odd vertices is one closed trail, kept with its id."""
    incident = view.incident
    walk: dict[int, list[tuple[int, int]]] = {}
    for v in (*view.inner, *view.outer):
        lst = []
        for pair in incident(v):
            if pair[1] in trail_eids:
                lst.append(pair)
        if lst:
            walk[v] = lst

    seen: set[int] = set()
    used: set[int] = set()
    dummy_next = -1
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
        trail, reached = _unbranched_trail(walk, seen, v)
        if trail is not None:
            if trail.closed:
                closed.append((cid, trail))
                continue
            segs = (trail,)
        else:
            members = []
            while reached:
                u = reached.pop()
                members.append(u)
                for w, _eid in walk[u]:
                    if w not in seen:
                        seen.add(w)
                        reached.append(w)
            members.sort()
            odd = None  # the odd vertex waiting for its partner
            even = True
            for u in members:
                if len(walk[u]) % 2:
                    even = False
                    if odd is None:
                        odd = u
                    else:
                        insort(walk[odd], (u, dummy_next))
                        insort(walk[u], (odd, dummy_next))
                        dummy_next -= 1
                        odd = None
            verts, eids = _euler_circuit({u: iter(walk[u]) for u in members}, used, v)
            if even:
                closed.append((cid, Trail(tuple(verts), tuple(eids), closed=True)))
                continue
            segs = _split_at_dummies(verts, eids)
        for seg in segs:
            first, last = side(seg.vertices[0]), side(seg.vertices[-1])
            if first != last:
                open_mixed.append(seg)
            elif first == "inner":
                open_inner.append(seg)
            else:
                open_outer.append(seg)

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
