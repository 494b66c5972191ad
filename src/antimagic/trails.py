"""Residual graphs and their decomposition into closed and open trails.

For each layer the cross edges minus parent edges form the residual graph;
removing link edges as well leaves the trail graph.  Every component of the
trail graph splits into edge-disjoint trails: one closed trail if all degrees
are even, otherwise one open trail per pair of odd-degree vertices, obtained
by pairing them with dummy edges, walking an Euler circuit, and cutting at the
dummies.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field
from typing import AbstractSet, Iterator, KeysView

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
class Component:
    """An even component of a trail graph: its id among all the layer's
    components and the trail-graph degree of each of its vertices."""

    cid: int
    degrees: dict[int, int] = field(hash=False)

    @property
    def vertices(self) -> KeysView[int]:
        return self.degrees.keys()


@dataclass(frozen=True, slots=True)
class TrailFamily:
    """All trails of one layer's trail graph, classified by end layers: one
    closed trail per even-degree component, paired with that component, and
    open trails with both ends inner, both ends outer, or one of each.

    Components are numbered over the whole trail graph by increasing smallest
    vertex, but only the even ones get a `Component`: only closed-trail
    starts and bad-component detection read one, and a bad component is
    2k-regular, so it is even."""

    closed: tuple[tuple[Component, Trail], ...]
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
                       parent_edge: dict[int, int]) -> tuple[AbstractSet[int], AbstractSet[int]]:
    """(residual edge ids, trail edge ids) after removing parent edges and,
    for the second set, link edges as well.  On a layer without links the
    two are one set, which no caller mutates."""
    residual = view.edge_ends.keys() - parent_edge.values()
    if not pair.links:
        return residual, residual
    return residual, residual - pair.link_edge_ids


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


def decompose_trails(view: BipartiteView, trail_eids: AbstractSet[int]) -> TrailFamily:
    """Split the trail graph into components and decompose each into trails.

    The trail adjacency filters the view's incidence lists, which are already
    sorted.  Components are vertex-disjoint, so one walk map serves them all:
    each component, found from its lowest vertex, pairs its odd vertices in
    order with dummy edges inserted at their sorted positions, and then one
    iterator per list and one set of walked edges serve every component's
    Euler circuit.  A component without odd vertices is one closed trail and
    gets a `Component` record with its degrees; the others are cut at their
    dummies into open trails."""
    incident = view.incident
    walk: dict[int, list[tuple[int, int]]] = {}
    for v in (*view.inner, *view.outer):
        lst = []
        for pair in incident(v):
            if pair[1] in trail_eids:
                lst.append(pair)
        if lst:
            walk[v] = lst

    comps: list[tuple[list[int], bool]] = []
    seen: set[int] = set()
    dummy_next = -1
    for v in sorted(walk):
        if v in seen:
            continue
        seen.add(v)
        stack = [v]
        members = []
        while stack:
            u = stack.pop()
            members.append(u)
            for w, _eid in walk[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
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
        comps.append((members, even))

    todo = {v: iter(lst) for v, lst in walk.items()}
    used: set[int] = set()
    closed: list[tuple[Component, Trail]] = []
    open_inner: list[Trail] = []
    open_outer: list[Trail] = []
    open_mixed: list[Trail] = []
    side = view.side
    for cid, (members, even) in enumerate(comps):
        verts, eids = _euler_circuit(todo, used, members[0])
        if even:
            degrees = {u: len(walk[u]) for u in members}
            closed.append((Component(cid, degrees), Trail(tuple(verts), tuple(eids), closed=True)))
            continue
        for seg in _split_at_dummies(verts, eids):
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
    vertex a link end.  Such a component is even, and a layer without links
    has none."""
    if not pair.links:
        return ()
    link_ends = pair.link_ends
    bad = []
    for comp, _ in family.closed:
        if any(deg != 2 * k for deg in comp.degrees.values()):
            continue
        outer = [v for v in comp.degrees if view.side(v) == "outer"]
        if outer and all(v in link_ends for v in outer):
            bad.append(comp.cid)
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
    _, trail_eids = residual_edge_sets(view, pair, parent_edge)
    family = decompose_trails(view, trail_eids)
    bad_cids = detect_bad_components(family, view, pair, k)
    bad_vertices: set[int] = set()
    for comp, _ in family.closed:
        if comp.cid in bad_cids:
            bad_vertices.update(comp.degrees)
    free = tuple(l for l in pair.links
                 if l.end_a not in bad_vertices or l.end_b not in bad_vertices)
    return BadAnalysis(family, bad_cids, frozenset(bad_vertices), free)


def choose_closed_start(trail: Trail, component: Component, bad: bool,
                        pair: CoveringPair, view: BipartiteView, k: int) -> tuple[int, str]:
    """Start vertex and labeling case for a closed trail.

    Bad components start at their lowest outer vertex ("bad", low labels
    first).  Otherwise prefer an outer vertex of low degree or one that is not
    a link end ("outer-high"), falling back to a low-degree inner vertex
    ("inner-low"); one of the two always exists in a non-bad component.
    """
    verts = set(trail.vertices)
    outer_verts = sorted(v for v in verts if view.side(v) == "outer")
    if bad:
        return outer_verts[0], "bad"
    for v in outer_verts:
        if component.degrees[v] <= 2 * k - 1 or v not in pair.link_ends:
            return v, "outer-high"
    for v in sorted(verts - set(outer_verts)):
        if component.degrees[v] <= 2 * k - 1:
            return v, "inner-low"
    raise InternalInvariantError(
        f"no valid start vertex for the closed trail of component {component.cid}")


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
