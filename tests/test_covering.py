"""Covering pairs: padding, link search, matching, reductions, exchanges."""

import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from antimagic import (BipartiteView, GraphShapeError, InternalInvariantError,
                       bfs_layering, bipartite_view, build_covering_pair, covering,
                       layer_view, validate_covering_pair)
from antimagic.covering import (CoveringPair, Link, _candidate_moves, _link_search_pair, _LinkSearch,
                                _potential, hall_matching, maximize_free_links,
                                maximize_link_family, pad_to_biregular, restrict_and_reduce)
from antimagic.trails import analyze_bad_components
from antimagic.verify import stress_instances
from corpus import (complete_bipartite, complete_graph, free_link_gadget, padded_layer_two,
                    random_bounded_bipartite, shuffled_circulant, view_ends)


def make_view(inner, outer, pairs):
    triples = tuple((x, y, eid) for eid, (x, y) in enumerate(pairs))
    return bipartite_view(1, tuple(inner), tuple(outer), triples)


def covering_pair_exists(view: BipartiteView, d: int) -> bool:
    """Independent exhaustive decision: is there any family of vertex-disjoint
    links plus a matching such that every degree-d inner vertex is a link
    center or matched?  The matching may touch link ends (irreducible pairs
    even require that); only the links must be mutually disjoint.  Pure
    backtracking, no shared code with the builder."""
    full = [x for x in view.inner if view.degree(x) == d]

    def matchable(targets):
        match: dict[int, int] = {}

        def try_assign(x, visited):
            for y in view.neighbors(x):
                if y in visited:
                    continue
                visited.add(y)
                if y not in match or try_assign(match[y], visited):
                    match[y] = x
                    return True
            return False

        return all(try_assign(x, set()) for x in targets)

    def ends_assignable(centers, idx, used):
        if idx == len(centers):
            return True
        nbrs = [y for y in view.neighbors(centers[idx]) if y not in used]
        return any(ends_assignable(centers, idx + 1, used | {y1, y2})
                   for y1, y2 in itertools.combinations(nbrs, 2))

    for r in range(len(full) + 1):
        for centers in itertools.combinations(full, r):
            rest = [x for x in full if x not in centers]
            if ends_assignable(centers, 0, frozenset()) and matchable(rest):
                return True
    return False


def assert_irreducible(pair: CoveringPair, view: BipartiteView, d: int):
    """Re-state the structural invariants with independent set logic."""
    validate_covering_pair(pair)
    used = set()
    for link in pair.links:
        assert view.degree(link.center) == d
        assert link.center not in pair.match_of
        for v in (link.center, link.end_a, link.end_b):
            assert v not in used
            used.add(v)
        for end in link.ends:
            assert end in pair.match_of
    ends = view_ends(view)
    matched = set()
    for eid in pair.matching:
        matched.update(ends[eid])
    for x in view.inner:
        if view.degree(x) == d:
            assert (x in pair.centers) != (x in matched)
    # residual Hall property: deleting the link centers, every subset of the
    # still-uncovered-by-links full-degree inner vertices has enough neighbors
    uncovered = [x for x in view.inner
                 if view.degree(x) == d and x not in pair.centers]
    for r in range(1, len(uncovered) + 1):
        for subset in itertools.combinations(uncovered, r):
            nbrs = {y for x in subset for y in view.neighbors(x)}
            assert len(nbrs) >= r, f"Hall violated at {subset}"


class TestLink:
    def test_normalization(self):
        assert Link.of(5, 9, 7) == Link(5, 7, 9)
        assert Link.of(5, 7, 9).ends == (7, 9)

    def test_equal_ends_rejected(self):
        with pytest.raises(InternalInvariantError):
            Link.of(1, 2, 2)

    def test_shared_end_rejected(self):
        view = make_view([0, 1], [2, 3, 4], [(0, 2), (0, 3), (1, 3), (1, 4)])
        with pytest.raises(InternalInvariantError):
            CoveringPair(view, 3, [Link.of(0, 2, 3), Link.of(1, 3, 4)], [])


class TestValidate:
    def test_center_below_full_degree_rejected(self):
        view = make_view([0, 1, 2], [3, 4, 5, 6],
                         [(0, 3), (0, 4), (1, 3), (2, 4), (1, 5), (2, 6)])
        pair = CoveringPair(view, 3, [Link.of(0, 3, 4)],
                            [view.edge_between(1, 3), view.edge_between(2, 4)])
        with pytest.raises(InternalInvariantError, match="degree"):
            validate_covering_pair(pair)

    def test_unmatched_end_rejected(self):
        view = make_view([0, 1], [2, 3, 4],
                         [(0, 2), (0, 3), (0, 4), (1, 2)])
        pair = CoveringPair(view, 3, [Link.of(0, 3, 4)], [view.edge_between(1, 2)])
        with pytest.raises(InternalInvariantError, match="unmatched"):
            validate_covering_pair(pair)

    def test_loose_center_neighbor_rejected(self):
        # center 0 sees outer 5, which is neither matched nor a link end
        view = make_view([0, 1, 2], [3, 4, 5],
                         [(0, 3), (0, 4), (0, 5), (1, 3), (2, 4)])
        pair = CoveringPair(view, 3, [Link.of(0, 3, 4)],
                            [view.edge_between(1, 3), view.edge_between(2, 4)])
        with pytest.raises(InternalInvariantError, match="neither matched nor a link end"):
            validate_covering_pair(pair)

    # Components of matching plus links that are not single edges or W-shapes
    # are caught by the pair's own checks; there is no separate shape check.
    def test_two_link_ends_matched_to_one_inner_vertex_rejected(self):
        view = make_view([0, 1], [2, 3], [(0, 2), (0, 3), (1, 2), (1, 3)])
        with pytest.raises(InternalInvariantError, match="matching edges share a vertex"):
            CoveringPair(view, 2, [Link.of(0, 2, 3)],
                         [view.edge_between(1, 2), view.edge_between(1, 3)])

    def test_link_end_matched_to_a_center_rejected(self):
        # end 2 of the link at center 0 is matched to center 1 of the other link
        view = make_view([0, 1, 7, 8, 9], [2, 3, 5, 6],
                         [(0, 2), (0, 3), (0, 5), (1, 2), (1, 5), (1, 6), (7, 3), (8, 5), (9, 6)])
        pair = CoveringPair(view, 3, [Link.of(0, 2, 3), Link.of(1, 5, 6)],
                            [view.edge_between(x, y) for x, y in ((1, 2), (7, 3), (8, 5), (9, 6))])
        with pytest.raises(InternalInvariantError, match="link center 1 is also matched"):
            validate_covering_pair(pair)

    def test_outer_link_center_rejected(self):
        # outer 2 with inner ends 0 and 1: both link edges are view edges
        view = make_view([0, 1], [2, 3], [(0, 2), (1, 2), (1, 3)])
        pair = CoveringPair(view, 3, [Link.of(2, 0, 1)], [])
        with pytest.raises(InternalInvariantError, match="link center 2 is not an inner vertex"):
            validate_covering_pair(pair)

    def test_links_at_one_center_rejected(self):
        # center 0 of degree d = 4 with four matched neighbors carries both
        # links, whose ends are all distinct
        view = make_view([0, 6, 7, 8, 9], [2, 3, 4, 5],
                         [(0, 2), (0, 3), (0, 4), (0, 5), (6, 2), (7, 3), (8, 4), (9, 5)])
        pair = CoveringPair(view, 4, [Link.of(0, 2, 3), Link.of(0, 4, 5)], [4, 5, 6, 7])
        with pytest.raises(InternalInvariantError, match="links share vertex 0"):
            validate_covering_pair(pair)

    def test_uncovered_full_degree_inner_vertex_rejected(self):
        view = make_view([0], [1, 2, 3], [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(InternalInvariantError,
                           match="full-degree inner vertex 0 is uncovered"):
            validate_covering_pair(CoveringPair(view, 3, [], []))

    def test_matching_edge_outside_the_view_rejected(self):
        view = make_view([0, 1], [2, 3], [(0, 2), (1, 3)])
        with pytest.raises(InternalInvariantError, match="matching edge 7 is not an edge of the view"):
            CoveringPair(view, 3, [], {0, 7})


class TestPadding:
    @staticmethod
    def assert_extends(view, padded):
        """The view keeps its ids: its inner, outer and edges are prefixes of
        the padded view's."""
        assert padded.inner[:len(view.inner)] == tuple(view.inner)
        assert padded.outer[:len(view.outer)] == tuple(view.outer)
        assert padded.edges[:view.edge_count] == tuple(view.edges)

    def test_empty_view_unchanged(self):
        # no deficiency to pad; `build_covering_pair` matches an empty view
        # first, so it never reaches the padding
        view = bipartite_view(1, (), (), ())
        assert pad_to_biregular(view, 3) is view

    def test_single_edge_worked_example(self):
        view = make_view([0], [1], [(0, 1)])
        padded = pad_to_biregular(view, 3)
        self.assert_extends(view, padded)
        assert all(padded.degree(x) == 3 for x in padded.inner)
        assert all(padded.degree(y) == 4 for y in padded.outer)
        # two fresh outer vertices absorb the inner deficiency of 2
        assert len(padded.outer) == 1 + 2 + 3  # original, private, filler

    def test_already_biregular_unchanged(self):
        # complete bipartite with four inner and three outer vertices is
        # (3, 4)-biregular already
        view = make_view([0, 1, 2, 3], [4, 5, 6],
                         [(x, y) for x in range(4) for y in (4, 5, 6)])
        padded = pad_to_biregular(view, 3)
        assert padded is view

    def test_over_degree_rejected(self):
        view = make_view([0], [1, 2, 3, 4], [(0, 1), (0, 2), (0, 3), (0, 4)])
        with pytest.raises(GraphShapeError):
            pad_to_biregular(view, 3)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([3, 5]))
    def test_padding_is_induced_embedding(self, seed, d):
        # a random view, and every layer view of a shuffled circulant past
        # the root's, whose ends maps do not run in edge id order
        g = shuffled_circulant(8 + seed % 60, [1, 2], seed)
        lay = bfs_layering(g, 0)
        views = [random_bounded_bipartite(random.Random(seed), d),
                 *(layer_view(g, lay, i) for i in range(2, lay.depth + 1))]
        for view in views:
            padded = pad_to_biregular(view, d)
            self.assert_extends(view, padded)
            assert all(padded.degree(x) == d for x in padded.inner)
            assert all(padded.degree(y) == d + 1 for y in padded.outer)
            old = set(view.inner) | set(view.outer)
            for x, y, eid in padded.edges[view.edge_count:]:
                assert not (x in old and y in old)
            # simple: no inner-outer pair is joined twice
            assert len({(x, y) for x, y, _ in padded.edges}) == padded.edge_count


def reference_pad_to_biregular(view: BipartiteView, d: int) -> BipartiteView:
    """The padding as first written: greedy, largest demand to the fresh
    inner vertices with the most capacity left, re-sorting both before every
    demand."""
    if d < 3:
        raise GraphShapeError(f"padding requires degree bound >= 3, got {d}")
    for x in view.inner:
        if view.degree(x) > d:
            raise GraphShapeError(f"inner vertex {x} has degree {view.degree(x)} > {d}")
    for y in view.outer:
        if view.degree(y) > d + 1:
            raise GraphShapeError(f"outer vertex {y} has degree {view.degree(y)} > {d + 1}")

    if not view.inner and not view.outer:
        gadget_inner = tuple(range(d + 1))
        gadget_outer = tuple(range(d + 1, 2 * d + 1))
        edges = []
        eid = 0
        for x in gadget_inner:
            for y in gadget_outer:
                edges.append((x, y, eid))
                eid += 1
        return bipartite_view(view.index, gadget_inner, gadget_outer, tuple(edges))

    inner_def = {x: d - view.degree(x) for x in view.inner if view.degree(x) < d}
    outer_def = {y: d + 1 - view.degree(y) for y in view.outer if view.degree(y) < d + 1}
    if not inner_def and not outer_def:
        return view

    next_v = max(list(view.inner) + list(view.outer)) + 1
    next_e = max(view_ends(view), default=-1) + 1
    new_edges: list[tuple[int, int, int]] = []

    privates: list[int] = []
    load: dict[int, int] = {}
    total_inner_def = sum(inner_def.values())
    if total_inner_def:
        b1 = max(max(inner_def.values()), -(-total_inner_def // (d + 1)))
        privates = list(range(next_v, next_v + b1))
        next_v += b1
        load = {pv: 0 for pv in privates}
        t = 0
        for x in sorted(inner_def):
            for _ in range(inner_def[x]):
                pv = privates[t % b1]
                new_edges.append((x, pv, next_e))
                next_e += 1
                load[pv] += 1
                t += 1

    demands: list[list[int]] = []
    for y in sorted(outer_def):
        demands.append([y, outer_def[y]])
    for pv in privates:
        need = d + 1 - load[pv]
        if need < 0:
            raise InternalInvariantError(f"padding overloaded fresh outer vertex {pv}")
        if need:
            demands.append([pv, need])

    total = sum(amount for _, amount in demands)
    fillers: list[int] = []
    fresh_inner: list[int] = []
    if total:
        j = (-total) % d
        while (total + j * (d + 1)) // d < d + 1:
            j += d
        fillers = list(range(next_v, next_v + j))
        next_v += j
        for f in fillers:
            demands.append([f, d + 1])
        m_fresh = (total + j * (d + 1)) // d
        fresh_inner = list(range(next_v, next_v + m_fresh))
        next_v += m_fresh
        cap = {x: d for x in fresh_inner}
        while demands:
            demands.sort(key=lambda item: (-item[1], item[0]))
            y, need = demands.pop(0)
            donors = sorted(cap, key=lambda x: (-cap[x], x))[:need]
            if len(donors) < need or any(cap[x] == 0 for x in donors):
                raise InternalInvariantError("padding demand exceeds remaining fresh capacity")
            for x in donors:
                new_edges.append((x, y, next_e))
                next_e += 1
                cap[x] -= 1
        if any(cap.values()):
            raise InternalInvariantError("padding left unused fresh inner capacity")

    padded = bipartite_view(
        index=view.index,
        inner=tuple(view.inner) + tuple(fresh_inner),
        outer=tuple(view.outer) + tuple(privates) + tuple(fillers),
        edges=view.edges + tuple(new_edges),
    )
    for x in padded.inner:
        if padded.degree(x) != d:
            raise InternalInvariantError(f"padded inner vertex {x} has degree {padded.degree(x)}")
    for y in padded.outer:
        if padded.degree(y) != d + 1:
            raise InternalInvariantError(f"padded outer vertex {y} has degree {padded.degree(y)}")
    return padded




def padding_cases(view, padded, d):
    """The corners of the deal a padded view shows: a private outer vertex
    that the inner deficiencies fill alone (need 0), a filler outer vertex
    (no view neighbor), and a demand dealt past the last fresh inner vertex
    (its edges, consecutive in id order, step back to a smaller one)."""
    old_inner = set(view.inner)
    cases = set()
    for y in padded.outer[len(view.outer):]:
        from_view = sum(1 for x in padded.neighbors(y) if x in old_inner)
        if from_view == d + 1:
            cases.add("need 0")
        elif from_view == 0:
            cases.add("filler")
    dealt = [(x, y) for x, y, _ in padded.edges[view.edge_count:] if x not in old_inner]
    for (x1, y1), (x2, y2) in zip(dealt, dealt[1:]):
        if y1 == y2 and x2 < x1:
            cases.add("wrap")
    return cases


class TestPaddingDifferential:
    def test_random_views_same_padding_as_the_reference(self):
        cases = set()
        for seed in range(600):
            rng = random.Random(seed)
            d = rng.choice([3, 5, 7])
            view = random_bounded_bipartite(rng, d, max_inner=16, max_outer=20)
            padded, ref = pad_to_biregular(view, d), reference_pad_to_biregular(view, d)
            assert (padded.inner, padded.outer, padded.edges) == (ref.inner, ref.outer, ref.edges), \
                f"seed {seed}"
            cases |= padding_cases(view, ref, d)
        assert cases == {"need 0", "filler", "wrap"}


class TestLinkFamily:
    def test_terminal_state_has_no_witness(self):
        for seed in range(30):
            view = random_bounded_bipartite(random.Random(seed), 3)
            padded = pad_to_biregular(view, 3)
            links = maximize_link_family(padded, 3)
            centers = {l.center for l in links}
            used = set()
            for l in links:
                for v in (l.center, l.end_a, l.end_b):
                    assert v not in used
                    used.add(v)
            covered = {y for c in centers for y in padded.neighbors(c)}
            multi = {y for y in padded.outer
                     if sum(1 for c in centers if y in padded.neighbors(c)) >= 2}
            frontier = {x for x in padded.inner if x not in centers
                        and any(y in multi for y in padded.neighbors(x))}
            for y in padded.outer:
                if y not in covered:
                    assert all(x in frontier for x in padded.neighbors(y)), \
                        f"seed {seed}: uncovered outer {y} has an unblocked neighbor"

    def test_candidate_move_order(self):
        # add the witness neighbor, swap it in for each center, then add each
        # other inner vertex, then swap each of those in for each center
        view = make_view(range(5), [5], [(x, 5) for x in range(5)])
        centers = {3, 1}
        moves = _candidate_moves(view, centers, 2)
        centers.add(0)  # the search mutates its center set while moves are tried
        assert list(moves) == [(2, None), (2, 1), (2, 3), (0, None), (4, None),
                               (0, 1), (4, 1), (0, 3), (4, 3)]

    def test_hall_matching_covers_targets(self):
        g = complete_bipartite(4, 3)
        view = layer_view(g, bfs_layering(g, 0), 2)
        match_of = hall_matching(view, 3)
        ends = view_ends(view)
        matched = set()
        for eid in set(match_of.values()):
            x, y = ends[eid]
            assert x not in matched and y not in matched
            assert match_of[x] == match_of[y] == eid
            matched.update((x, y))
        assert matched == set(match_of)
        assert all(x in matched for x in view.inner if view.degree(x) == 3)

    def test_hall_matching_respects_forbidden(self):
        g = complete_bipartite(4, 3)
        view = layer_view(g, bfs_layering(g, 0), 2)
        forbidden = frozenset([view.inner[0]])
        match_of = hall_matching(view, 3, forbidden)
        ends = view_ends(view)
        matched = set()
        for eid in match_of.values():
            matched.update(ends[eid])
        assert matched == set(match_of)
        assert view.inner[0] not in matched

    def test_hall_matching_empty_view(self):
        assert hall_matching(make_view([], [], []), 3) == {}


def reference_gaining_add(view, st, covered):
    """The add scan as first written: the full potential of every candidate
    center set, compared on its covered count."""
    for x in view.inner:
        if x in st.centers:
            continue
        cand = set(st.centers)
        cand.add(x)
        if _potential(view, cand)[0] <= len(covered):
            continue
        if st.try_move(x):
            return True
    return False


class TestGainingAddDifferential:
    def test_random_views_same_links_as_the_reference(self, monkeypatch):
        for seed in range(60):
            d = (3, 5)[seed % 2]
            padded = pad_to_biregular(random_bounded_bipartite(random.Random(seed), d), d)
            links = maximize_link_family(padded, d)
            with monkeypatch.context() as m:
                m.setattr(covering, "_gaining_add", reference_gaining_add)
                assert maximize_link_family(padded, d) == links, f"seed {seed}"

    def test_complete_bipartite_layer_two_same_links_as_the_reference(self, monkeypatch):
        for a in range(4, 31):
            padded = padded_layer_two(a)
            links = maximize_link_family(padded, a - 1)
            with monkeypatch.context() as m:
                m.setattr(covering, "_gaining_add", reference_gaining_add)
                assert maximize_link_family(padded, a - 1) == links, f"K_{a},{a}"

    def test_add_scan_screens_candidates_before_the_potential(self, monkeypatch):
        # the add scan never computes a potential: it screens each candidate
        # by whether it has an uncovered neighbor, against the coverage the
        # step computed once.  On K_{20,20} layer 2 the one call scores the
        # witness escape that places the first center
        calls = []

        def counted(view, centers):
            calls.append(len(centers))
            return _potential(view, centers)

        monkeypatch.setattr(covering, "_potential", counted)
        links = maximize_link_family(padded_layer_two(20), 19)
        assert len(links) == 1
        assert len(calls) == 1

    def test_add_scan_reads_nothing_once_every_outer_vertex_is_covered(self, monkeypatch):
        # on K_{20,20} layer 2 the first center covers all 19 outer
        # vertices, so the add scan that ends the search reads no incidence
        real, scans, read = covering._gaining_add, [], []

        class Reading:
            """The view, with each incidence it hands out recorded."""

            def __init__(self, view):
                self.view = view

            def __getattr__(self, name):
                return getattr(self.view, name)

            def incident(self, v):
                read.append(v)
                return self.view.incident(v)

        def scanning(view, st, covered):
            scans.append(len(covered))
            return real(Reading(view), st, covered)

        monkeypatch.setattr(covering, "_gaining_add", scanning)
        assert len(maximize_link_family(padded_layer_two(20), 19)) == 1
        assert scans == [19] and read == []


class TestLongAugmentingPaths:
    """Augmenting paths longer than the interpreter's recursion limit."""

    def test_hall_matching(self):
        # with outer ids from o = L + 1, inner i < L sees o + i and o + i + 1
        # and takes o + i; the last inner vertex L sees o and o + 1 only, so
        # covering it shifts every earlier vertex one step along the chain
        length = sys.getrecursionlimit() + 50
        o = length + 1
        pairs = [(i, o + i) for i in range(length)]
        pairs += [(i, o + i + 1) for i in range(length)]
        pairs += [(length, o), (length, o + 1)]
        view = make_view(range(length + 1), range(o, o + length + 1), pairs)
        match_of = hall_matching(view, 2)
        eids = set(match_of.values())
        assert len(eids) == length + 1 and len(match_of) == 2 * (length + 1)
        ends = view_ends(view)
        partner = dict(ends[eid] for eid in eids)
        assert partner[length] == o
        assert all(partner[i] == o + i + 1 for i in range(length))

    def test_link_search_augment(self):
        # center i sees private end i and chain ends L + i, L + i + 1, and
        # takes i and L + i; a new center on L and a private end takes the
        # private end first, and its second end shifts every center one step
        # along the chain
        length = sys.getrecursionlimit() + 50
        centers = range(3 * length, 4 * length)
        new_center, spare = 4 * length, 2 * length + 1
        pairs = [(c, y) for i, c in enumerate(centers) for y in (i, length + i, length + i + 1)]
        pairs += [(new_center, length), (new_center, spare)]
        view = make_view(list(centers) + [new_center], range(2 * length + 2), pairs)
        st = _LinkSearch(view)
        for c in centers:
            assert st.try_move(c)
        assert st.try_move(new_center)
        links = {l.center: l for l in st.links()}
        assert links[new_center] == Link.of(new_center, length, spare)
        assert all(links[c] == Link.of(c, i, length + i + 1) for i, c in enumerate(centers))


class TestBuildCoveringPair:
    def test_root_star_view_gets_empty_pair(self):
        g = complete_graph(5)
        view = layer_view(g, bfs_layering(g, 0), 1)
        pair = build_covering_pair(view, 3)
        assert pair.links == () and pair.matching == frozenset()

    def test_k66_needs_a_link(self):
        # six full-degree inner vertices share five outer: a matching alone
        # cannot cover them, so at least one link must appear
        g = complete_bipartite(6, 6)
        view = layer_view(g, bfs_layering(g, 0), 2)
        assert sum(1 for x in view.inner if view.degree(x) == 5) == 6
        assert len(view.outer) == 5
        pair = build_covering_pair(view, 5)
        assert len(pair.links) >= 1
        assert_irreducible(pair, view, 5)

    def test_complete_4x3_forces_one_link_three_matches(self):
        # four full-degree inner vertices over three outer: no matching covers
        # all four, and two disjoint links would need four outer ends, so the
        # only irreducible shape is one link plus a matching on the other three
        view = make_view([0, 1, 2, 3], [4, 5, 6],
                         [(x, y) for x in range(4) for y in (4, 5, 6)])
        pair = build_covering_pair(view, 3)
        assert len(pair.links) == 1
        assert len(pair.matching) == 3
        assert_irreducible(pair, view, 3)

    def test_complete_2x3_matches_without_links(self):
        # two inner vertices over three outer: a matching suffices, and any
        # link center would leave a single inner vertex unable to match both
        # link ends, so reduction must strip every link
        view = make_view([0, 1], [2, 3, 4],
                         [(x, y) for x in (0, 1) for y in (2, 3, 4)])
        pair = build_covering_pair(view, 3)
        assert pair.links == ()
        assert len(pair.matching) == 2
        assert_irreducible(pair, view, 3)

    def test_too_few_outer_skips_plain_matching(self, monkeypatch):
        # six full-degree inner vertices over five outer cannot all be
        # matched, so the only matching run is the link search's, which
        # leaves the link centers out
        g = complete_bipartite(6, 6)
        view = layer_view(g, bfs_layering(g, 0), 2)
        forbidden_sets = []

        def spy(v, d, forbidden=frozenset()):
            forbidden_sets.append(forbidden)
            return hall_matching(v, d, forbidden)

        monkeypatch.setattr(covering, "hall_matching", spy)
        pair = build_covering_pair(view, 5)
        assert forbidden_sets == [pair.centers]

    def test_hall_fails_behind_the_count_guard(self, monkeypatch):
        # six full-degree inner vertices face six outer vertices, so the
        # plain matching is tried; but inner 0..5 share the five outer
        # vertices 10..14, so it fails at inner vertex 5 and the link
        # search gives the pair
        view = make_view(range(7), range(10, 16),
                         [(x, y) for x in range(6) for y in range(10, 15)] + [(6, 15)])
        with pytest.raises(InternalInvariantError, match="inner vertex 5$"):
            hall_matching(view, 5)
        forbidden_sets = []

        def spy(v, d, forbidden=frozenset()):
            forbidden_sets.append(forbidden)
            return hall_matching(v, d, forbidden)

        monkeypatch.setattr(covering, "hall_matching", spy)
        pair = build_covering_pair(view, 5)
        # the plain matching first, then the link search's on the padded view
        plain, padded = forbidden_sets
        assert plain == frozenset() and pair.centers <= padded
        assert pair.links == (Link(0, 10, 11),)
        assert pair.matching == {5, 11, 17, 23, 29}
        validate_covering_pair(pair)
        searched = _link_search_pair(view, 5)
        assert (searched.links, searched.matching) == (pair.links, pair.matching)

    def test_small_degree_rejected(self):
        view = make_view([0], [1], [(0, 1)])
        with pytest.raises(GraphShapeError):
            build_covering_pair(view, 2)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([3, 5]))
    def test_random_views_build_and_cross_check(self, seed, d):
        view = random_bounded_bipartite(random.Random(seed), d)
        pair = build_covering_pair(view, d)
        assert_irreducible(pair, view, d)
        assert covering_pair_exists(view, d)


def reference_restrict_and_reduce(view, d, links, matching, fired):
    """The reduction as first written, rebuilding the matched set and the
    link ends after every rule; verbatim but for the rule name each action
    carries, appended to `fired`, and the ends read from `view_ends`."""
    vids = set(view.inner) | set(view.outer)
    ends = view_ends(view)
    view_eids = ends.keys()
    m_set = {eid for eid in matching if eid in view_eids}
    f_list = sorted(l for l in links
                    if l.center in vids and l.end_a in vids and l.end_b in vids)

    while True:
        matched: set[int] = set()
        for eid in m_set:
            matched.update(ends[eid])
        link_ends = {end for l in f_list for end in l.ends}
        action = None
        for l in f_list:
            if view.degree(l.center) < d:
                action = ("drop", l, None, "R1")
                break
            if l.center in matched:
                action = ("drop", l, None, "R2")
                break
            unmatched_ends = [end for end in l.ends if end not in matched]
            if unmatched_ends:
                action = ("rewire", l, min(unmatched_ends), "R3")
                break
            loose = [w for w in view.neighbors(l.center)
                     if w not in matched and w not in link_ends]
            if loose:
                action = ("rewire", l, min(loose), "R4")
                break
        if action is None:
            break
        what, l, target, rule = action
        fired.append(rule)
        f_list.remove(l)
        if what == "rewire":
            eid = view.edge_between(l.center, target)
            if eid is None:
                raise InternalInvariantError(
                    f"reduction target edge ({l.center}, {target}) missing from the view")
            m_set.add(eid)

    return CoveringPair(view, d, f_list, m_set)




def seeded_reduction_inputs(seed):
    """A padded random view's links and matching as `_link_search_pair` makes
    them, with the matching kept, thinned, or extended at some link centers
    by view edges to unmatched outer vertices, as the seed picks."""
    rng = random.Random(seed)
    d = rng.choice([3, 5, 7])
    view = random_bounded_bipartite(rng, d, max_inner=12, max_outer=14)
    padded = pad_to_biregular(view, d)
    links = maximize_link_family(padded, d)
    matching = set(hall_matching(padded, d, forbidden=frozenset(l.center for l in links)).values())
    if seed % 3 == 1:
        matching = {eid for eid in sorted(matching) if rng.random() < 0.7}
    elif seed % 3 == 2:
        ends = view_ends(padded)
        matched = {v for eid in matching for v in ends[eid]}
        for l in links:
            free = [(y, eid) for y, eid in view.incident(l.center)
                    if y not in matched] if l.center in view.inner else []
            if free and rng.random() < 0.5:
                y, eid = rng.choice(free)
                matching.add(eid)
                matched.update((l.center, y))
    return view, d, links, matching


class TestReductionDifferential:
    def test_random_pairs_same_reduction_as_the_reference(self):
        fired = []
        for seed in range(450):
            view, d, links, matching = seeded_reduction_inputs(seed)
            pair = restrict_and_reduce(view, d, links, matching)
            ref = reference_restrict_and_reduce(view, d, links, matching, fired)
            assert (pair.links, pair.matching) == (ref.links, ref.matching), f"seed {seed}"
        assert set(fired) == {"R1", "R2", "R3", "R4"}


class TestMatchingFirstDifferential:
    def test_stress_views_both_ways(self):
        # every layer view of the acceptance stress suite, built matching
        # first and through the link search; the root layer's single inner
        # vertex exceeds the degree bound, so only matching first takes it
        views = linked = 0
        for _, _, degree, _, g in stress_instances(200, 8, 60, [4, 6, 8], 0):
            layering, d = bfs_layering(g, 0), degree - 1
            for i in range(1, layering.depth + 1):
                view = layer_view(g, layering, i)
                pairs = [build_covering_pair(view, d)]
                assert pairs[0].links == ()  # a plain matching covers every one
                if i > 1:
                    pairs.append(_link_search_pair(view, d))
                    linked += bool(pairs[1].links)
                for pair in pairs:
                    assert_irreducible(pair, view, d)
                views += 1
        assert views == 619
        assert linked >= 1  # the link search keeps links on some of these views


class TestFreeLinkExchange:
    def test_gadget_starts_with_no_free_links(self):
        _, pair, parent = free_link_gadget()
        validate_covering_pair(pair)
        analysis = analyze_bad_components(pair, parent)
        assert len(analysis.bad_cids) == 2
        assert len(analysis.free_links) == 0

    def test_exchange_reaches_required_free_links(self):
        _, pair, parent = free_link_gadget()

        def analyze(p):
            return analyze_bad_components(p, parent)

        new_pair, analysis = maximize_free_links(pair, analyze)
        validate_covering_pair(new_pair)
        assert analysis.bad_cids  # one bad 4-cycle survives the exchange
        assert len(analysis.free_links) >= 1
        # exchanged pair still covers exactly the same inner vertices
        assert new_pair.centers == pair.centers
        assert new_pair.matching == pair.matching

    def test_exchange_preserves_parent_edges(self):
        _, pair, parent = free_link_gadget()

        def analyze(p):
            return analyze_bad_components(p, parent)

        new_pair, _ = maximize_free_links(pair, analyze)
        assert not set(parent.values()) & new_pair.link_edge_ids

    def test_exchange_candidates_in_order(self):
        # every pair analyzed, in call order: the start, the first candidate
        # (end 12 moved to 16), accepted because it frees both links, then
        # the four candidates of the exchanged pair, none of which frees more
        _, pair, parent = free_link_gadget()
        analyzed = []

        def analyze(p):
            analyzed.append([(l.center, l.end_a, l.end_b) for l in p.links])
            return analyze_bad_components(p, parent)

        new_pair, analysis = maximize_free_links(pair, analyze)
        assert analyzed == [
            [(2, 12, 13), (3, 14, 15)],
            [(2, 13, 16), (3, 14, 15)],
            [(2, 12, 16), (3, 14, 15)],
            [(2, 12, 13), (3, 14, 15)],
            [(2, 13, 16), (3, 15, 17)],
            [(2, 13, 16), (3, 14, 17)],
        ]
        assert new_pair.links == (Link(2, 13, 16), Link(3, 14, 15))
        assert len(analysis.free_links) == 2
