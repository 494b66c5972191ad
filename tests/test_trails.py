"""Trail decomposition: walks from odd vertices with circuits spliced in,
classification, bad components, and closed-trail rotation.

The differential tests hold the trail builder to three references: two
builders that pair odd vertices with dummy edges and cut an Euler circuit at
them, which fix the closed trails and what each component's open trails
cover, and a plain walk-and-splice builder, which fixes the open trails, their
order and their direction.  All three name a component by its smallest
vertex."""

import random
from bisect import insort
from collections import Counter, namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from antimagic import (InternalInvariantError, bipartite_view, check_construction, label_graph,
                       trails)
from antimagic.covering import CoveringPair, Link, maximize_free_links
from antimagic.labeling import assign_parent_edges
from antimagic.trails import (Trail, analyze_bad_components, choose_closed_start,
                              detect_bad_components, residual_edge_sets, rotate_closed)
from antimagic.verify import _bad_components
from corpus import (complete_bipartite, engine_layer, free_link_gadget, random_bounded_bipartite,
                    trail_edge_ids, trail_lists, view_ends)


def decompose_trails(view, trail_eids):
    """The trail stage on the trail graph of `trail_eids`, filtered from the
    view's incidence."""
    return trails.decompose_trails(view, *trail_lists(view, trail_eids))


def all_trails(fam):
    return fam.closed + fam.open_inner + fam.open_outer + fam.open_mixed


def make_view(inner, outer, pairs):
    triples = tuple((x, y, eid) for eid, (x, y) in enumerate(pairs))
    return bipartite_view(1, tuple(inner), tuple(outer), triples)


def assert_valid_walk(view, trail):
    assert len(trail.vertices) == trail.edge_count + 1
    ends = view_ends(view)
    for pos, eid in enumerate(trail.edges):
        assert set(ends[eid]) == {trail.vertices[pos], trail.vertices[pos + 1]}
    assert len(set(trail.edges)) == trail.edge_count
    if trail.closed:
        assert trail.vertices[0] == trail.vertices[-1]


class TestTrailShape:
    def test_one_vertex_more_than_edges(self):
        with pytest.raises(InternalInvariantError, match="trail vertex/edge lengths disagree"):
            Trail((0, 1), (), closed=False)

    def test_closed_trail_returns_to_its_start(self):
        with pytest.raises(InternalInvariantError,
                           match="closed trail does not return to its start"):
            Trail((0, 1, 2), (5, 6), closed=True)


class TestDecompose:
    def test_single_cycle(self):
        view = make_view([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2), (1, 3)])
        fam = decompose_trails(view, frozenset(range(4)))
        assert len(fam.closed) == 1
        assert not fam.open_inner and not fam.open_outer and not fam.open_mixed
        trail = fam.closed[0]
        assert trail.closed and trail.edge_count == 4
        assert trail.vertices[0] == 0
        assert_valid_walk(view, trail)

    def test_single_path_is_mixed(self):
        view = make_view([0], [1], [(0, 1)])
        fam = decompose_trails(view, frozenset([0]))
        assert fam.open_mixed == (Trail((0, 1), (0,), closed=False),)

    def test_inner_ended_path(self):
        # 0 - 2 - 1: both odd-degree ends inner, two edges
        view = make_view([0, 1], [2], [(0, 2), (1, 2)])
        fam = decompose_trails(view, frozenset([0, 1]))
        assert fam.open_inner == (Trail((0, 2, 1), (0, 1), closed=False),)

    def test_inner_ended_path_from_the_smaller_end(self):
        # 0 - 1 - 3: the path's smaller end 0 is its smallest vertex
        view = make_view([0, 3], [1], [(0, 1), (3, 1)])
        fam = decompose_trails(view, frozenset([0, 1]))
        assert fam.open_inner == (Trail((0, 1, 3), (0, 1), closed=False),)

    def test_outer_ended_path(self):
        # 1 - 0 - 2: the smallest vertex 0 is inside the path
        view = make_view([0], [1, 2], [(0, 1), (0, 2)])
        fam = decompose_trails(view, frozenset([0, 1]))
        assert fam.open_outer == (Trail((1, 0, 2), (0, 1), closed=False),)

    def test_walk_stuck_early_gets_the_cycle_spliced(self):
        # the path 0 - 1 - 2 between the odd vertices 0 and 2, and the cycle
        # 1 - 4 - 3 - 6 - 1: the walk from 0 takes 1's smallest neighbour 2
        # and is stuck there, so the cycle is spliced in at 1
        view = make_view([0, 2, 4, 6], [1, 3],
                         [(0, 1), (2, 1), (4, 1), (4, 3), (6, 3), (6, 1)])
        fam = decompose_trails(view, frozenset(range(6)))
        assert fam.closed == () and fam.open_outer == () and fam.open_mixed == ()
        assert fam.open_inner == (Trail((0, 1, 4, 3, 6, 1, 2), (0, 2, 3, 4, 5, 1), closed=False),)

    def test_two_components(self):
        # two mixed trails: the first is dealt inner end first, the second
        # outer end first
        view = make_view([0, 1], [2, 3], [(0, 2), (1, 3)])
        fam = decompose_trails(view, frozenset([0, 1]))
        assert fam.closed == ()
        assert fam.open_mixed == (Trail((0, 2), (0,), closed=False),
                                  Trail((3, 1), (1,), closed=False))

    def test_open_trails_follow_their_walks_across_components(self):
        # the component 0 - 10 - 3 - 13 with the branch 3 - 14 has odd
        # vertices 0, 3, 13, 14, and the edge 1 - 12 is a component of its
        # own: walks start at 0, 1 and 3, in that order, so the edge comes
        # between the first component's two trails and is dealt outer end
        # first
        view = make_view([0, 1, 3], [10, 12, 13, 14],
                         [(0, 10), (3, 10), (3, 13), (3, 14), (1, 12)])
        fam = decompose_trails(view, frozenset(range(5)))
        assert fam.closed == fam.open_inner == fam.open_outer == ()
        assert fam.open_mixed == (Trail((0, 10, 3, 13), (0, 1, 2), closed=False),
                                  Trail((12, 1), (4,), closed=False),
                                  Trail((3, 14), (3,), closed=False))

    def test_closed_trails_start_at_their_smallest_vertex(self):
        # the 4-cycles 1 - 5 - 3 - 7 and 0 - 6 - 2 - 8, beside the path
        # 4 - 9 - 11: each closed trail starts at its component's smallest
        # vertex, by increasing id
        view = make_view([0, 1, 2, 3, 4, 11], [5, 6, 7, 8, 9],
                         [(1, 5), (3, 5), (3, 7), (1, 7), (0, 6), (2, 6), (2, 8), (0, 8),
                          (4, 9), (11, 9)])
        fam = decompose_trails(view, frozenset(range(10)))
        assert fam.closed == (Trail((0, 6, 2, 8, 0), (4, 5, 6, 7), closed=True),
                              Trail((1, 5, 3, 7, 1), (0, 1, 2, 3), closed=True))
        assert fam.open_inner == (Trail((4, 9, 11), (8, 9), closed=False),)

    def test_empty(self):
        view = make_view([0], [1], [(0, 1)])
        fam = decompose_trails(view, frozenset())
        assert fam.closed == () and list(all_trails(fam)) == []

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 100_000))
    def test_random_views_cover_exactly_once(self, seed):
        view = random_bounded_bipartite(random.Random(seed), 3)
        eids = frozenset(eid for _, _, eid in view.edges)
        fam = decompose_trails(view, eids)
        seen = []
        for trail in all_trails(fam):
            assert_valid_walk(view, trail)
            seen.extend(trail.edges)
        assert sorted(seen) == sorted(eids)
        for trail in fam.open_inner:
            assert trail.edge_count % 2 == 0
            assert all(view.side(v) == "inner" for v in trail.ends)
        for trail in fam.open_outer:
            assert trail.edge_count % 2 == 0
            assert all(view.side(v) == "outer" for v in trail.ends)
        for trail in fam.open_mixed:
            assert trail.edge_count % 2 == 1
        # open-inner and open-outer trails run from their smaller end, mixed
        # ones from their inner end at even positions, outer end at odd ones
        for trail in (*fam.open_inner, *fam.open_outer):
            assert trail.vertices[0] < trail.vertices[-1]
        for pos, trail in enumerate(fam.open_mixed):
            first = ("inner", "outer")[pos % 2]
            assert view.side(trail.vertices[0]) == first != view.side(trail.vertices[-1])
        # odd-degree vertices are trail ends exactly once
        degree = {}
        for x, y, eid in view.edges:
            degree[x] = degree.get(x, 0) + 1
            degree[y] = degree.get(y, 0) + 1
        end_count = {}
        for trail in all_trails(fam):
            if not trail.closed:
                for v in trail.ends:
                    end_count[v] = end_count.get(v, 0) + 1
        for v, deg in degree.items():
            assert end_count.get(v, 0) == deg % 2

    def test_determinism(self):
        view = random_bounded_bipartite(random.Random(17), 3)
        eids = frozenset(eid for _, _, eid in view.edges)
        fam1 = decompose_trails(view, eids)
        fam2 = decompose_trails(view, eids)
        assert [t.edges for t in all_trails(fam1)] == [t.edges for t in all_trails(fam2)]


def reference_split_at_dummies(verts, eids):
    """The splitter as first written: one segment after each dummy, in
    circuit order, each running to the next dummy with wrap-around."""
    length = len(eids)
    cyc = verts[:length]
    dummy_pos = [i for i, eid in enumerate(eids) if eid < 0]
    trails = []
    for idx, j in enumerate(dummy_pos):
        nj = dummy_pos[(idx + 1) % len(dummy_pos)]
        seg_v = [cyc[(j + 1) % length]]
        seg_e = []
        for step in range((nj - j - 1) % length):
            pos = (j + 1 + step) % length
            seg_e.append(eids[pos])
            seg_v.append(cyc[(pos + 1) % length])
        trails.append(Trail(tuple(seg_v), tuple(seg_e), closed=False))
    return trails


def reference_euler_circuit(adj, start):
    """The Hierholzer walk as first written: a pointer per vertex of `adj`,
    advanced past each edge already used."""
    ptr = {v: 0 for v in adj}
    used = set()
    stack_v = [start]
    stack_e = []
    out_v = []
    out_e = []
    while stack_v:
        v = stack_v[-1]
        advanced = False
        while ptr[v] < len(adj[v]):
            w, eid = adj[v][ptr[v]]
            if eid in used:
                ptr[v] += 1
                continue
            used.add(eid)
            stack_v.append(w)
            stack_e.append(eid)
            advanced = True
            break
        if not advanced:
            out_v.append(stack_v.pop())
            if stack_e:
                out_e.append(stack_e.pop())
    out_v.reverse()
    out_e.reverse()
    return out_v, out_e


# The family shape the reference builders return: a record for every
# component of the trail graph, named by its smallest vertex, and the trails.
ReferenceComponent = namedtuple("ReferenceComponent", "cid vertices degrees")
ReferenceFamily = namedtuple("ReferenceFamily",
                             "components closed open_inner open_outer open_mixed")


def reference_decompose_trails(view, trail_eids):
    """The trail builder as first written: adjacency rebuilt from the edge
    list and sorted, one adjacency copy per component, dummies appended and
    every list re-sorted."""
    adj = {}
    for x, y, eid in view.edges:
        if eid in trail_eids:
            adj.setdefault(x, []).append((y, eid))
            adj.setdefault(y, []).append((x, eid))
    for lst in adj.values():
        lst.sort()

    comp_members = []
    seen = set()
    for v in sorted(adj):
        if v in seen:
            continue
        stack = [v]
        seen.add(v)
        members = []
        while stack:
            u = stack.pop()
            members.append(u)
            for w, _eid in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        comp_members.append(sorted(members))

    components, closed, open_inner, open_outer, open_mixed = [], [], [], [], []
    dummy_next = -1
    for members in comp_members:
        degrees = {v: len(adj[v]) for v in members}
        components.append(ReferenceComponent(members[0], frozenset(members), degrees))
        odd = sorted(v for v in members if degrees[v] % 2)
        if not odd:
            verts, eids = reference_euler_circuit({v: adj[v] for v in members}, min(members))
            closed.append(Trail(tuple(verts), tuple(eids), closed=True))
            continue
        aug = {v: list(adj[v]) for v in members}
        for i in range(0, len(odd), 2):
            a, b = odd[i], odd[i + 1]
            aug[a].append((b, dummy_next))
            aug[b].append((a, dummy_next))
            dummy_next -= 1
        for lst in aug.values():
            lst.sort()
        verts, eids = reference_euler_circuit(aug, min(members))
        for seg in reference_split_at_dummies(verts, eids):
            sides = {view.side(seg.vertices[0]), view.side(seg.vertices[-1])}
            if sides == {"inner"}:
                open_inner.append(seg)
            elif sides == {"outer"}:
                open_outer.append(seg)
            else:
                open_mixed.append(seg)
    return ReferenceFamily(tuple(components), tuple(closed), tuple(open_inner),
                           tuple(open_outer), tuple(open_mixed))


def per_component_euler_circuit(walk, members):
    """The Hierholzer walk of the trail builder before components without odd
    vertices alone got records: one iterator per member, made per component."""
    todo = {v: iter(walk[v]) for v in members}
    used = set()
    stack_v = [members[0]]
    stack_e = []
    out_v = []
    out_e = []
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


def every_component_decompose_trails(view, trail_eids):
    """The trail builder before components without odd vertices alone got
    records: one walk map filtered from the view's incidence, a record with
    vertex set and degrees for every component, dummies inserted in sorted
    position, and the circuits cut at them by the first splitter."""
    walk = {}
    for v in (*view.inner, *view.outer):
        lst = [pair for pair in view.incident(v) if pair[1] in trail_eids]
        if lst:
            walk[v] = lst

    comp_members = []
    seen = set()
    for v in sorted(walk):
        if v in seen:
            continue
        stack = [v]
        seen.add(v)
        members = []
        while stack:
            u = stack.pop()
            members.append(u)
            for w, _eid in walk[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        members.sort()
        comp_members.append(members)

    components, closed, open_inner, open_outer, open_mixed = [], [], [], [], []
    dummy_next = -1
    for members in comp_members:
        degrees = {v: len(walk[v]) for v in members}
        components.append(ReferenceComponent(members[0], frozenset(members), degrees))
        odd = [v for v in members if degrees[v] % 2]
        for i in range(0, len(odd), 2):
            a, b = odd[i], odd[i + 1]
            insort(walk[a], (b, dummy_next))
            insort(walk[b], (a, dummy_next))
            dummy_next -= 1
        verts, eids = per_component_euler_circuit(walk, members)
        if not odd:
            closed.append(Trail(tuple(verts), tuple(eids), closed=True))
            continue
        for seg in reference_split_at_dummies(verts, eids):
            first, last = view.side(seg.vertices[0]), view.side(seg.vertices[-1])
            if first != last:
                open_mixed.append(seg)
            elif first == "inner":
                open_inner.append(seg)
            else:
                open_outer.append(seg)
    return ReferenceFamily(tuple(components), tuple(closed), tuple(open_inner),
                           tuple(open_outer), tuple(open_mixed))


def walk_and_splice_decompose_trails(view, trail_eids):
    """The trail builder's rule, written plainly: adjacency rebuilt from the
    edge list and sorted, and a pointer per vertex to its first entry not yet
    passed over.  A walk starts at each odd vertex of the whole trail graph,
    in increasing order, that no earlier walk ended at, and takes the first
    unused edge until it is stuck.  Then each walk in turn is spliced, by
    Hierholzer's loop with the walk as its stack, into an open trail; a mixed
    one is turned to start at its inner end at even positions of the mixed
    trails and at its outer end at odd ones.  The edges left are walked from
    each vertex in increasing order, and each walk that takes an edge is
    spliced into a closed trail.  Returns the family, whose components are
    named by their smallest vertex, and the names of the components whose
    walks left edges to splice."""
    adj = {}
    for x, y, eid in view.edges:
        if eid in trail_eids:
            adj.setdefault(x, []).append((y, eid))
            adj.setdefault(y, []).append((x, eid))
    for lst in adj.values():
        lst.sort()
    ptr = dict.fromkeys(adj, 0)
    used = set()

    def next_edge(u):
        while ptr[u] < len(adj[u]):
            w, eid = adj[u][ptr[u]]
            ptr[u] += 1
            if eid not in used:
                used.add(eid)
                return w, eid
        return None

    def walk(start):
        verts, eids = [start], []
        while (step := next_edge(verts[-1])) is not None:
            verts.append(step[0])
            eids.append(step[1])
        return verts, eids

    def splice(verts, eids):
        out_v, out_e = [], []
        while verts:
            step = next_edge(verts[-1])
            if step is not None:
                verts.append(step[0])
                eids.append(step[1])
                continue
            out_v.append(verts.pop())
            if eids:
                out_e.append(eids.pop())
        return out_v[::-1], out_e[::-1]

    components = []
    for v in sorted(adj):
        if any(v in comp.vertices for comp in components):
            continue
        members = {v}
        stack = [v]
        while stack:
            for w, _eid in adj[stack.pop()]:
                if w not in members:
                    members.add(w)
                    stack.append(w)
        components.append(
            ReferenceComponent(v, frozenset(members), {u: len(adj[u]) for u in members}))
    comp_of = {u: comp for comp in components for u in comp.vertices}

    def edge_count(comp):
        return sum(comp.degrees.values()) // 2

    walks, ended = [], set()
    for start in sorted(u for u in adj if len(adj[u]) % 2):
        if start not in ended:
            verts, eids = walk(start)
            ended.add(verts[-1])
            walks.append((verts, eids))
    taken = Counter()
    for verts, eids in walks:
        taken[comp_of[verts[0]].cid] += len(eids)
    spliced = {cid for cid, count in taken.items() if count < edge_count(comp_of[cid])}

    closed, open_inner, open_outer, open_mixed = [], [], [], []
    for verts, eids in walks:
        verts, eids = splice(verts, eids)
        sides = (view.side(verts[0]), view.side(verts[-1]))
        if sides == ("inner", "inner"):
            open_inner.append(Trail(tuple(verts), tuple(eids), closed=False))
        elif sides == ("outer", "outer"):
            open_outer.append(Trail(tuple(verts), tuple(eids), closed=False))
        else:
            if sides[0] != ("inner", "outer")[len(open_mixed) % 2]:
                verts, eids = verts[::-1], eids[::-1]
            open_mixed.append(Trail(tuple(verts), tuple(eids), closed=False))
    for v in sorted(adj):
        verts, eids = walk(v)
        if eids:
            if len(eids) < edge_count(comp_of[v]):
                spliced.add(v)
            verts, eids = splice(verts, eids)
            closed.append(Trail(tuple(verts), tuple(eids), closed=True))
    family = ReferenceFamily(tuple(components), tuple(closed), tuple(open_inner),
                             tuple(open_outer), tuple(open_mixed))
    return family, spliced


def reference_trail_eids(view, pair, parent_edge):
    """Trail edge ids as the trail stage computed them before: residual sets
    as frozensets."""
    residual = frozenset(view_ends(view).keys() - parent_edge.values())
    return frozenset(residual - set(pair.link_edge_ids))


def reference_analyze_bad_components(view, pair, parent_edge, k):
    """(family, bad component ids, their vertices, free links) as the trail
    stage computed them before: every component, even or odd, screened for
    badness."""
    family = every_component_decompose_trails(view, reference_trail_eids(view, pair, parent_edge))
    bad = set()
    for comp in family.components:
        if any(deg != 2 * k for deg in comp.degrees.values()):
            continue
        outer = [v for v in comp.vertices if view.side(v) == "outer"]
        if outer and all(v in pair.link_ends for v in outer):
            bad.add(comp.cid)
    bad_vertices = set()
    for comp in family.components:
        if comp.cid in bad:
            bad_vertices.update(comp.vertices)
    free = tuple(l for l in pair.links
                 if l.end_a not in bad_vertices or l.end_b not in bad_vertices)
    return family, frozenset(bad), frozenset(bad_vertices), free


def shuffled_view_and_subset(seed):
    """A random bounded view plus a planted cycle on fresh vertices, with
    vertex and edge order shuffled, and as trail edges the cycle (always even)
    and a random subset of the rest; dropping edges splits the trail graph
    into several components and leaves some view vertices isolated."""
    rng = random.Random(seed)
    base = random_bounded_bipartite(rng, rng.choice([3, 5, 7]), max_inner=12, max_outer=14)
    r = rng.randrange(2, 5)
    fresh = len(base.inner) + len(base.outer)
    ring_inner = list(range(fresh, fresh + r))
    ring_outer = list(range(fresh + r, fresh + 2 * r))
    ring = [(ring_inner[i], ring_outer[(i + j) % r], base.edge_count + 2 * i + j)
            for i in range(r) for j in (0, 1)]
    inner, outer = list(base.inner) + ring_inner, list(base.outer) + ring_outer
    edges = list(base.edges) + ring
    for seq in (inner, outer, edges):
        rng.shuffle(seq)
    view = bipartite_view(1, tuple(inner), tuple(outer), tuple(edges))
    keep = rng.random()
    rest = (eid for _, _, eid in base.edges if rng.random() < keep)
    return view, frozenset(eid for _, _, eid in ring).union(rest)


def shuffled_even_view(seed):
    """A view whose edges are a few random cycles, each alternating between
    inner and outer vertices, with no vertex twice and no edge of an earlier
    cycle, on shuffled vertex ids and in shuffled edge order, and all its
    edges as trail edges: every degree is even, and a walk from a
    component's smallest vertex often returns to it before every edge is
    taken."""
    rng = random.Random(seed)
    ni, no = rng.randrange(2, 9), rng.randrange(2, 9)
    ids = list(range(ni + no))
    rng.shuffle(ids)
    inner, outer = ids[:ni], ids[ni:]
    pairs = []
    for _ in range(rng.randrange(1, 6)):
        r = rng.randrange(2, min(ni, no) + 1)
        xs, ys = rng.sample(inner, r), rng.sample(outer, r)
        cycle = [(xs[i], ys[i]) for i in range(r)] + [(xs[(i + 1) % r], ys[i]) for i in range(r)]
        if not set(cycle) & set(pairs):
            pairs.extend(cycle)
    edges = [(x, y, eid) for eid, (x, y) in enumerate(pairs)]
    rng.shuffle(edges)
    view = bipartite_view(1, tuple(inner), tuple(outer), tuple(edges))
    return view, frozenset(range(len(edges)))


def open_trails_by_component(family, components):
    """Each component's open trails, found by their first vertex and keyed by
    the component's smallest vertex."""
    cid_of = {v: comp.cid for comp in components for v in comp.vertices}
    out = {}
    for trail in (*family.open_inner, *family.open_outer, *family.open_mixed):
        out.setdefault(cid_of[trail.vertices[0]], []).append(trail)
    return out


def assert_same_family(fam, ref, walked):
    """The family is exactly `walked`, the walk-and-splice reference's, and
    agrees with `ref`, a reference that cuts a circuit at dummy edges, per
    component, each keyed by its smallest vertex, up to how odd vertices are
    paired and in what order and direction open trails come: its closed
    trails are exactly `ref`'s, one for each component that has no odd
    vertex, each starting at the component's smallest vertex, and each
    visits every vertex of its component half its degree times; and in each
    component with odd vertices, its open trails and `ref`'s take the same
    edges, number half the odd vertices, and have each odd vertex as an end
    exactly once."""
    even = [comp for comp in ref.components
            if all(deg % 2 == 0 for deg in comp.degrees.values())]
    assert [t.vertices[0] for t in ref.closed] == [comp.cid for comp in even]
    assert [comp.cid for comp in ref.components] == [min(c.vertices) for c in ref.components]
    assert fam.closed == ref.closed == walked.closed
    for comp, trail in zip(even, fam.closed):
        assert Counter(trail.vertices[:-1]) == {v: deg // 2 for v, deg in comp.degrees.items()}
    assert fam.open_inner == walked.open_inner
    assert fam.open_outer == walked.open_outer
    assert fam.open_mixed == walked.open_mixed
    ours = open_trails_by_component(fam, ref.components)
    theirs = open_trails_by_component(ref, ref.components)
    assert ours.keys() == theirs.keys()
    degrees = {comp.cid: comp.degrees for comp in ref.components}
    for cid, trails in ours.items():
        odd = sorted(v for v, deg in degrees[cid].items() if deg % 2)
        for family_trails in (trails, theirs[cid]):
            assert len(family_trails) == len(odd) // 2
            assert sorted(v for t in family_trails for v in t.ends) == odd
        assert (sorted(e for t in trails for e in t.edges)
                == sorted(e for t in theirs[cid] for e in t.edges))


def assert_same_analysis(pair, parent_edge):
    """analyze_bad_components gives the reference analysis's family, bad
    component ids, bad vertices and free links; returns the analysis."""
    view, k = pair.view, pair.d // 2
    analysis = analyze_bad_components(pair, parent_edge)
    ref_family, ref_bad, ref_vertices, ref_free = reference_analyze_bad_components(
        view, pair, parent_edge, k)
    walked, _ = walk_and_splice_decompose_trails(
        view, reference_trail_eids(view, pair, parent_edge))
    assert_same_family(analysis.family, ref_family, walked)
    assert analysis.bad_cids == tuple(sorted(ref_bad))
    assert analysis.bad_vertices == ref_vertices
    assert analysis.free_links == ref_free
    return analysis


def unbranched_shape(comp):
    """What a component without a branch vertex is: a cycle, a one-edge path,
    or a longer path with its smallest vertex inside it or at an end; None
    if the component branches."""
    if max(comp.degrees.values()) > 2:
        return None
    if min(comp.degrees.values()) == 2:
        return "cycle"
    if len(comp.vertices) == 2:
        return "one-edge path"
    v = min(comp.vertices)
    if comp.degrees[v] == 2:
        return "path with its smallest vertex inside"
    return "path with its smallest vertex at an end"


class TestDecomposeDifferential:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 10**6))
    def test_same_family_as_the_reference(self, seed):
        view, trail_eids = shuffled_view_and_subset(seed)
        fam = decompose_trails(view, trail_eids)
        walked, _ = walk_and_splice_decompose_trails(view, trail_eids)
        assert_same_family(fam, reference_decompose_trails(view, trail_eids), walked)
        assert_same_family(fam, every_component_decompose_trails(view, trail_eids), walked)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 10**6))
    def test_same_closed_trails_on_even_views(self, seed):
        view, trail_eids = shuffled_even_view(seed)
        fam = decompose_trails(view, trail_eids)
        walked, _ = walk_and_splice_decompose_trails(view, trail_eids)
        assert_same_family(fam, reference_decompose_trails(view, trail_eids), walked)
        assert_same_family(fam, every_component_decompose_trails(view, trail_eids), walked)

    def test_fixed_seeds_reach_every_shape(self):
        # the differential sees families with several components, even and
        # odd ones side by side, view vertices left out of the trail graph,
        # even and odd components whose walks leave circuits to splice, and
        # open trails of one kind whose components interleave; and, among
        # the components without a branch vertex, cycles and paths with their
        # smallest vertex inside and at an end
        shapes = set()
        views = [shuffled_view_and_subset(seed) for seed in range(150)]
        for view, trail_eids in views + [shuffled_even_view(seed) for seed in range(30)]:
            fam = decompose_trails(view, trail_eids)
            ref = reference_decompose_trails(view, trail_eids)
            walked, spliced = walk_and_splice_decompose_trails(view, trail_eids)
            assert_same_family(fam, ref, walked)
            touched = set().union(*(c.vertices for c in ref.components))
            assert touched == {v for t in all_trails(fam) for v in t.vertices}
            if len(ref.components) >= 2:
                shapes.add("several")
            if fam.closed and (fam.open_inner or fam.open_outer or fam.open_mixed):
                shapes.add("even and odd")
            if touched < set(view.inner) | set(view.outer):
                shapes.add("isolated")
            cid_of = {v: comp.cid for comp in ref.components for v in comp.vertices}
            for trails in (fam.open_inner, fam.open_outer, fam.open_mixed):
                cids = [cid_of[t.vertices[0]] for t in trails]
                runs = [cid for pos, cid in enumerate(cids) if pos == 0 or cids[pos - 1] != cid]
                if len(runs) > len(set(runs)):
                    shapes.add("interleaved")
            for comp in ref.components:
                shapes.add(unbranched_shape(comp))
                if comp.cid in spliced:
                    odd = any(deg % 2 for deg in comp.degrees.values())
                    shapes.add("odd spliced" if odd else "even spliced")
        shapes.discard(None)
        assert shapes == {"several", "even and odd", "isolated", "odd spliced", "even spliced",
                          "interleaved", "one-edge path", "path with its smallest vertex inside",
                          "path with its smallest vertex at an end", "cycle"}


class TestAnalysisDifferential:
    """The whole trail stage against the builder that records every
    component, on layers with links, where bad components and free links
    are decided."""

    @pytest.mark.parametrize("a", range(4, 41, 2))
    def test_complete_bipartite_layer_two(self, a):
        g = complete_bipartite(a, a)
        for root in (0, g.n - 1):
            res = label_graph(g, root)
            pair, parent = engine_layer(res, 2)
            assert pair.links
            analysis = assert_same_analysis(pair, parent)
            # the replay, which keeps no analysis, counts the same free links
            assert check_construction(res)[1]["free_links_total"] == len(analysis.free_links)

    def test_free_link_gadget_before_and_after_exchange(self):
        _, pair, parent = free_link_gadget()
        analysis = assert_same_analysis(pair, parent)
        assert len(analysis.bad_cids) == 2 and not analysis.free_links
        exchanged, _ = maximize_free_links(pair, lambda p: assert_same_analysis(p, parent))
        analysis = assert_same_analysis(exchanged, parent)
        assert analysis.bad_cids and analysis.free_links

    @staticmethod
    def assert_named_alike(pair, parent_edge, k):
        """The trail stage and the replay's own search, at the replay's k, give
        the same bad component ids and vertices, and each id is the smallest
        vertex of its component; returns the analysis."""
        analysis = analyze_bad_components(pair, parent_edge)
        trail_eids = trail_edge_ids(pair, parent_edge)
        bad_cids, bad_vertices = _bad_components(pair.view, pair.link_ends, trail_eids, k)
        assert (bad_cids, bad_vertices) == (analysis.bad_cids, analysis.bad_vertices)
        closed = {t.vertices[0]: t for t in analysis.family.closed}
        for cid in bad_cids:
            assert cid == min(closed[cid].vertices)
        return analysis

    def test_replay_names_components_alike(self):
        views = 0
        for a in range(4, 41, 2):
            g = complete_bipartite(a, a)
            for root in (0, g.n - 1):
                res = label_graph(g, root)
                self.assert_named_alike(*engine_layer(res, 2), res.k)
                views += 1
        _, pair, parent = free_link_gadget()
        # the 4-cycles 12-0-14-1 and 13-4-15-5, named by their smallest
        # vertices, not by their places (0 and 3) among the four components
        assert self.assert_named_alike(pair, parent, 1).bad_cids == (0, 4)

        def analyze(p):
            nonlocal views
            views += 1
            return self.assert_named_alike(p, parent, 1)

        exchanged, _ = maximize_free_links(pair, analyze)
        analysis = self.assert_named_alike(exchanged, parent, 1)
        assert analysis.bad_cids == (4,)
        assert views > 40

    def test_regular_component_with_a_non_link_outer_vertex(self):
        # the 4-cycle 0-10-1-11 is 2-regular and holds link end 10, but its
        # outer vertex 11 is no link end, so it is not bad
        view = make_view([0, 1, 2, 6, 7, 8], [10, 11, 12],
                         [(0, 10), (0, 11), (1, 10), (1, 11), (2, 10), (2, 12),
                          (6, 10), (7, 11), (8, 12)])
        pair = CoveringPair(view, 3, [Link.of(2, 10, 12)], [6, 7, 8])
        parent = {y: pair.match_of.get(y) for y in view.outer}
        analysis = assert_same_analysis(pair, parent)
        assert [t.edges for t in analysis.family.closed] == [(0, 2, 3, 1)]
        assert analysis.bad_cids == () and analysis.free_links == pair.links


class TestResidual:
    def test_gadget_split(self):
        # every view edge is a parent edge, a link edge or a trail edge
        view, pair, parent = free_link_gadget()
        walked, lists, odd, count = residual_edge_sets(pair, parent)
        trail = trail_edge_ids(pair, parent)
        links = set(pair.link_edge_ids)
        assert walked is parent
        assert pair.links and len(links) == 2 * len(pair.links)
        assert trail.isdisjoint(links) and trail.isdisjoint(parent.values())
        assert trail | links | set(parent.values()) == set(view_ends(view))
        assert len(trail) == count == view.edge_count - len(view.outer) - len(links)
        assert (lists, sorted(odd), count) == trail_lists(view, trail)

    def test_without_links_only_parent_edges_go(self):
        view = make_view([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2), (1, 3)])
        pair = CoveringPair(view, 3, [], [])
        assert trail_edge_ids(pair, {2: 0, 3: 3}) == {1, 2}
        _, lists, odd, count = residual_edge_sets(pair, {2: 0, 3: 3})
        assert lists == {2: [(1, 2)], 3: [(0, 1)], 0: [(3, 1)], 1: [(2, 2)]}
        assert sorted(odd) == [0, 1, 2, 3] and count == 2

    def test_unmatched_outer_vertex_takes_its_lowest_id_edge(self):
        # no matching: outer 3 takes edge 0, its lowest id, which is its
        # second entry in (neighbor, edge id) order; outer 2 takes edge 1
        view = make_view([0, 1], [2, 3], [(1, 3), (0, 2), (0, 3), (1, 2)])
        pair = CoveringPair(view, 3, [], [])
        parent, lists, odd, count = residual_edge_sets(pair)
        assert parent == {2: 1, 3: 0}
        assert lists == {2: [(1, 3)], 3: [(0, 2)], 0: [(3, 2)], 1: [(2, 3)]}
        assert sorted(odd) == [0, 1, 2, 3] and count == 2

    def test_matched_outer_vertex_takes_its_matching_edge(self):
        # outer 3 is matched by edge 3 although edge 1 has the lower id
        view = make_view([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2), (1, 3)])
        pair = CoveringPair(view, 3, [], [3])
        parent, _, _, count = residual_edge_sets(pair)
        assert parent == {2: 0, 3: 3} and count == 2

    def test_outer_vertex_with_only_link_edges_has_no_parent_edge(self):
        # outer 3's only cross edge, to center 0, is a link edge, so no
        # rule gives it a parent edge; assign_parent_edges walks alike
        view = make_view([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2)])
        pair = CoveringPair(view, 3, [Link.of(0, 2, 3)], [])
        for walk in (residual_edge_sets, assign_parent_edges):
            with pytest.raises(InternalInvariantError,
                               match="outer vertex 3 has no usable parent edge"):
                walk(pair)


class TestBadComponents:
    def test_gadget_has_two_bad_cycles(self):
        view, pair, parent = free_link_gadget()
        analysis = analyze_bad_components(pair, parent)
        # the 4-cycles 12-0-14-1 and 13-4-15-5, named by their smallest vertex
        assert analysis.bad_cids == (0, 4)
        closed = {t.vertices[0]: t for t in analysis.family.closed}
        for cid in analysis.bad_cids:
            # 2-regular: the closed trail visits each vertex once
            visits = Counter(closed[cid].vertices[:-1])
            assert set(visits.values()) == {1}
            assert all(v in pair.link_ends for v in visits if view.side(v) == "outer")

    def test_four_regular_component_is_bad_at_k2(self):
        # K_{4,4} on inner 0..3 and outer 10..13, every outer vertex a link
        # end: its closed trail visits each vertex twice, so it is bad at
        # k = 2 (d = 5) only
        pairs = [(x, y) for x in range(4) for y in (10, 11, 12, 13)]
        view = make_view([0, 1, 2, 3, 4, 5], [10, 11, 12, 13],
                         pairs + [(4, 10), (4, 11), (5, 12), (5, 13)])
        links = [Link.of(4, 10, 11), Link.of(5, 12, 13)]
        pair = CoveringPair(view, 5, links, [])
        fam = decompose_trails(view, frozenset(range(len(pairs))))
        assert [t.vertices[0] for t in fam.closed] == [0]
        assert detect_bad_components(fam, pair) == (0,)
        assert detect_bad_components(fam, CoveringPair(view, 3, links, [])) == ()
        assert choose_closed_start(fam.closed[0], True, pair) == (10, "bad")

    def test_cycle_with_non_link_outer_is_not_bad(self):
        view = make_view([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2), (1, 3)])
        pair = CoveringPair(view, 3, [], [])
        fam = decompose_trails(view, frozenset(range(4)))
        assert detect_bad_components(fam, pair) == ()


class TestOrientation:
    def test_rotate_to_start(self):
        view = make_view([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2), (1, 3)])
        fam = decompose_trails(view, frozenset(range(4)))
        trail = fam.closed[0]
        for start in (0, 1, 2, 3):
            rot = rotate_closed(trail, start)
            assert rot.vertices[0] == start and rot.vertices[-1] == start
            assert rot.edges[0] < rot.edges[-1]
            assert sorted(rot.edges) == sorted(trail.edges)
            assert_valid_walk(view, rot)

    def test_rotate_open_rejected(self):
        with pytest.raises(InternalInvariantError):
            rotate_closed(Trail((0, 1), (5,), closed=False), 0)


class TestClosedStart:
    def test_bad_component_starts_at_lowest_outer(self):
        view, pair, parent = free_link_gadget()
        analysis = analyze_bad_components(pair, parent)
        closed = {t.vertices[0]: t for t in analysis.family.closed}
        for cid in analysis.bad_cids:
            trail = closed[cid]
            start, case = choose_closed_start(trail, True, pair)
            assert case == "bad"
            assert start == min(v for v in trail.vertices if view.side(v) == "outer")

    def test_non_link_outer_gives_outer_high(self):
        view = make_view([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2), (1, 3)])
        pair = CoveringPair(view, 3, [], [])
        fam = decompose_trails(view, frozenset(range(4)))
        trail = fam.closed[0]
        start, case = choose_closed_start(trail, False, pair)
        assert case == "outer-high"
        assert start == 2

    def test_visit_counts_at_k2(self):
        # K_{4,2} on inner 0..3 and outer 10, 11, both link ends of center 4:
        # the closed trail visits each outer vertex twice (degree 4) and each
        # inner vertex once (degree 2), so at k = 2 (d = 5) no outer vertex
        # can start and the lowest inner vertex starts "inner-low"
        view = make_view([0, 1, 2, 3, 4], [10, 11],
                         [(x, y) for x in range(5) for y in (10, 11)])
        links = [Link.of(4, 10, 11)]
        pair = CoveringPair(view, 5, links, [])
        fam = decompose_trails(view, frozenset(range(8)))
        trail, = fam.closed
        assert Counter(trail.vertices[:-1]) == {0: 1, 1: 1, 2: 1, 3: 1, 10: 2, 11: 2}
        assert choose_closed_start(trail, False, pair) == (0, "inner-low")
        assert detect_bad_components(fam, pair) == ()
        # at k = 3 (d = 7) the outer vertices' two visits are too few, so 10 starts
        assert choose_closed_start(trail, False, CoveringPair(view, 7, links, [])) == (
            10, "outer-high")
        with pytest.raises(InternalInvariantError, match="component 0$"):
            choose_closed_start(trail, False, CoveringPair(view, 3, links, []))
