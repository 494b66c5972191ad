"""Graph container, parsing, regularity validation, layering, and views."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from antimagic import (Graph, GraphFormatError, GraphShapeError, bfs_layering, bipartite_view,
                       format_edge_list, generate_regular, label_graph, layer_view,
                       parse_edge_list, validate_even_regular)
from antimagic.verify import stress_instances
from corpus import (circulant, complete_bipartite, complete_graph, cycle_graph, petersen,
                    pipeline_corpus, shuffled_circulant, two_disjoint_k5, view_ends)


class TestGraph:
    def test_basic_properties(self):
        g = complete_graph(5)
        assert g.n == 5
        assert g.m == 10
        assert all(g.degree(v) == 4 for v in range(5))
        assert [w for w, _ in g.incident(0)] == [1, 2, 3, 4]
        assert sorted(eid for _, eid in g.incident(2)) == [1, 4, 7, 8]
        assert g.is_connected()

    def test_endpoints_normalized(self):
        g = Graph(3, [(2, 0), (1, 0), (2, 1)])
        assert g.edges == ((0, 2), (0, 1), (1, 2))

    def test_rejects_loop(self):
        with pytest.raises(GraphShapeError):
            Graph(2, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(GraphShapeError):
            Graph(2, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphShapeError):
            Graph(2, [(0, 2)])

    def test_disconnected(self):
        assert not two_disjoint_k5().is_connected()


class TestParsing:
    def test_round_trip(self):
        g = complete_graph(5)
        assert parse_edge_list(format_edge_list(g)).edges == g.edges

    def test_comments_and_blanks(self):
        g = parse_edge_list("# a comment\n\n0 1\n  \n1 2\n")
        assert g.edges == ((0, 1), (1, 2))
        assert g.n == 3

    def test_indented_comment_crlf_and_tabs(self):
        g = parse_edge_list("# header\r\n\r\n   # indented\r\n0\t1\r\n \t\r\n1\t2\r\n")
        assert g.edges == ((0, 1), (1, 2))

    def test_comment_after_pair_is_an_error(self):
        # only a line whose first non-blank character is '#' is a comment
        with pytest.raises(GraphFormatError, match=r"^line 1: expected two integers, got '0 1 # note'$"):
            parse_edge_list("  0 1 # note\n")

    def test_vertex_count_from_max_id(self):
        assert parse_edge_list("0 2\n").n == 3

    def test_malformed_line(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_edge_list("0 1\n1 2 3\n")

    def test_non_integer(self):
        with pytest.raises(GraphFormatError):
            parse_edge_list("0 x\n")

    def test_negative_id(self):
        with pytest.raises(GraphFormatError, match="negative"):
            parse_edge_list("-1 2\n")

    def test_loop_line(self):
        with pytest.raises(GraphFormatError, match="loop"):
            parse_edge_list("3 3\n")

    def test_empty_input(self):
        with pytest.raises(GraphFormatError, match="no edges"):
            parse_edge_list("# nothing\n")


class TestValidateEvenRegular:
    def test_k5_gives_k1(self):
        assert validate_even_regular(complete_graph(5)) == 1

    def test_k66_gives_k2(self):
        from corpus import complete_bipartite
        assert validate_even_regular(complete_bipartite(6, 6)) == 2

    def test_cycle_out_of_scope(self):
        with pytest.raises(GraphShapeError, match="out of scope"):
            validate_even_regular(cycle_graph(5))

    def test_odd_degree(self):
        with pytest.raises(GraphShapeError, match="odd"):
            validate_even_regular(petersen())

    def test_not_regular(self):
        with pytest.raises(GraphShapeError, match="not regular"):
            validate_even_regular(Graph(4, [(0, 1), (1, 2), (2, 3)]))

    def test_disconnected(self):
        # connectivity is checked once, by the layering inside label_graph
        assert validate_even_regular(two_disjoint_k5()) == 1
        with pytest.raises(GraphShapeError, match="disconnected"):
            label_graph(two_disjoint_k5())


class TestGenerateRegular:
    @pytest.mark.parametrize("n, degree, message", [
        (0, 4, "need at least one vertex"),
        (5, 0, "degree must be positive"),
        (7, 3, "no 3-regular graph on 7 vertices: odd stub count"),
    ])
    def test_impossible_requests_rejected(self, n, degree, message):
        with pytest.raises(GraphShapeError, match=message):
            generate_regular(n, degree, 0)


class TestLayering:
    def test_k5_single_layer(self):
        lay = bfs_layering(complete_graph(5), 0)
        assert lay.layers == ((0,), (1, 2, 3, 4))
        assert lay.depth == 1
        # the edges among 1..4, ids 4..9 in combinations order
        assert lay.within_edges == ((), (4, 5, 6, 7, 8, 9))

    def test_circulant_two_layers(self):
        g = circulant(7, [1, 2])
        lay = bfs_layering(g, 0)
        assert lay.layers == ((0,), (1, 2, 5, 6), (3, 4))
        # (1, 2), (1, 6), (5, 6) in layer 1 and (3, 4) in layer 2
        assert [[g.edges[eid] for eid in eids] for eids in lay.within_edges] == [
            [], [(1, 2), (1, 6), (5, 6)], [(3, 4)]]

    def test_root_out_of_range(self):
        with pytest.raises(GraphShapeError):
            bfs_layering(complete_graph(5), 9)

    def test_disconnected(self):
        with pytest.raises(GraphShapeError, match="disconnected"):
            bfs_layering(two_disjoint_k5(), 0)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_layering_partitions_random_graphs(self, seed):
        g = generate_regular(14, 4, seed)
        lay = bfs_layering(g, 0)
        flat = sorted(v for layer in lay.layers for v in layer)
        assert flat == list(range(g.n))
        for u, v in g.edges:
            assert abs(lay.layer_of[u] - lay.layer_of[v]) <= 1


class TestLayerView:
    def test_circulant_outer_view(self):
        g = circulant(7, [1, 2])
        lay = bfs_layering(g, 0)
        view = layer_view(g, lay, 2)
        assert set(view.inner) == {1, 2, 5, 6}
        assert set(view.outer) == {3, 4}
        ends = view_ends(view)
        for x, y, eid in view.edges:
            assert lay.layer_of[x] == 1 and lay.layer_of[y] == 2
            assert ends[eid] == (x, y)
        assert view.edge_count == sum(1 for u, v in g.edges
                                      if {lay.layer_of[u], lay.layer_of[v]} == {1, 2})

    def test_sides_and_lookup(self):
        g = complete_graph(5)
        view = layer_view(g, bfs_layering(g, 0), 1)
        assert view.side(0) == "inner"
        assert all(view.side(v) == "outer" for v in (1, 2, 3, 4))
        assert view.degree(0) == 4
        assert view.edge_between(0, 3) == 2
        assert view.edge_between(1, 2) is None

    def test_index_out_of_range(self):
        g = complete_graph(5)
        lay = bfs_layering(g, 0)
        with pytest.raises(GraphShapeError):
            layer_view(g, lay, 2)

    def test_edges_in_id_order_from_shuffled_input(self):
        # the ends map follows the outer vertices; `edges` follows the ids
        triples = [(x, y, eid) for eid, (x, y) in
                   enumerate((x, y) for x in range(3) for y in range(3, 7))]
        shuffled = list(triples)
        random.Random(5).shuffle(shuffled)
        assert shuffled != triples
        view = bipartite_view(1, (0, 1, 2), (3, 4, 5, 6), tuple(shuffled))
        assert view.edges == tuple(triples)
        assert view == bipartite_view(1, (0, 1, 2), (3, 4, 5, 6), tuple(triples))

    def test_vertex_on_both_sides_rejected(self):
        with pytest.raises(GraphShapeError, match="vertex 1 on both sides"):
            bipartite_view(1, (0, 1), (1, 2), ((0, 2, 0),))

    def test_edge_that_does_not_cross_rejected(self):
        # an edge must run from an inner vertex to an outer one, in that order
        with pytest.raises(GraphShapeError, match=r"view edge \(2, 0\) does not cross"):
            bipartite_view(1, (0, 1), (2, 3), ((0, 2, 0), (2, 0, 1)))

    def test_edge_id_used_twice_rejected(self):
        # the view counts its edges from its outer incidence, so a repeated
        # id would count twice
        with pytest.raises(GraphShapeError, match="edge id 5 used twice"):
            bipartite_view(1, (0,), (1, 2), ((0, 1, 5), (0, 2, 5)))

    def test_vertex_listed_twice_on_one_side_rejected(self):
        with pytest.raises(GraphShapeError, match="vertex 0 listed twice on the inner side"):
            bipartite_view(1, (0, 0), (1,), ((0, 1, 3),))
        with pytest.raises(GraphShapeError, match="vertex 1 listed twice on the outer side"):
            bipartite_view(1, (0,), (1, 1), ((0, 1, 3),))


def _graphs_with_roots():
    """Random regular graphs, shuffled-id circulants and K_{a,a}, each with a root."""
    regular = st.builds(lambda n, d, seed: generate_regular(n, d, seed),
                        st.integers(10, 40), st.sampled_from([4, 6]), st.integers(0, 10_000))
    circ = st.builds(lambda n, seed: shuffled_circulant(n, [1, 2], seed),
                     st.integers(8, 120), st.integers(0, 10_000))
    bip = st.builds(lambda a: complete_bipartite(a, a), st.integers(2, 12))
    return st.one_of(regular, circ, bip).flatmap(
        lambda g: st.tuples(st.just(g), st.integers(0, g.n - 1)))


class TestWithinEdges:
    """The search files each entry of a vertex's incidence as inward, outward
    or within its layer, and keeps each within-layer edge once per layer."""

    @settings(max_examples=60, deadline=None)
    @given(_graphs_with_roots())
    def test_each_layer_lists_its_within_layer_edges_by_endpoints(self, graph_and_root):
        g, root = graph_and_root
        lay = bfs_layering(g, root)
        layer_of = lay.layer_of
        assert len(lay.within_edges) == lay.depth + 1
        for i, eids in enumerate(lay.within_edges):
            expected = [eid for eid, (u, v) in enumerate(g.edges) if layer_of[u] == layer_of[v] == i]
            expected.sort(key=g.edges.__getitem__)
            assert eids == tuple(expected)

    @settings(max_examples=60, deadline=None)
    @given(_graphs_with_roots())
    def test_inward_outward_and_within_partition_each_incidence(self, graph_and_root):
        g, root = graph_and_root
        lay = bfs_layering(g, root)
        layer_of = lay.layer_of
        within_at = {v: set() for v in range(g.n)}
        for eids in lay.within_edges:
            for eid in eids:
                for x in g.edges[eid]:
                    within_at[x].add(eid)
        for v in range(g.n):
            assert all(layer_of[w] == layer_of[v] - 1 for w, _ in lay.inward[v])
            assert all(layer_of[w] == layer_of[v] + 1 for w, _ in lay.outward[v])
            same = tuple(entry for entry in g.incident(v) if entry[1] in within_at[v])
            assert len(same) == len(within_at[v])
            assert sorted(lay.inward[v] + lay.outward[v] + same) == list(g.incident(v))


def _full_scan_view(g, lay, index):
    """Reference view that scans every edge of the graph."""
    edges = []
    for eid, (u, v) in enumerate(g.edges):
        du, dv = lay.layer_of[u], lay.layer_of[v]
        if du == index - 1 and dv == index:
            edges.append((u, v, eid))
        elif dv == index - 1 and du == index:
            edges.append((v, u, eid))
    return lay.layers[index - 1], lay.layers[index], tuple(edges)


class TestLayerViewMatchesFullScan:
    """layer_view passes the layering's split of the graph's sorted incidence;
    bipartite_view builds a view from its edge list.  On a full scan's edges both must give the
    same view, dict order included, since later stages iterate those dicts."""

    def _assert_all_layers(self, g):
        for root in (0, g.n - 1):
            lay = bfs_layering(g, root)
            for i in range(1, lay.depth + 1):
                view = layer_view(g, lay, i)
                ref = bipartite_view(i, *_full_scan_view(g, lay, i))
                assert view == ref
                for name in ("_side", "adj"):
                    assert list(getattr(view, name).items()) == list(getattr(ref, name).items())

    def test_shuffled_deep_circulant(self):
        g = shuffled_circulant(400, [1, 2], 7)
        assert bfs_layering(g, 0).depth == 100
        self._assert_all_layers(g)

    def test_stress_stream(self):
        for _, _, _, _, g in stress_instances(200, 8, 60, [4, 6, 8], 0):
            self._assert_all_layers(g)

    def test_pipeline_corpus_circulants_and_complete_bipartite(self):
        for _, g in pipeline_corpus():
            self._assert_all_layers(g)
        for n in (8, 9, 48):
            self._assert_all_layers(shuffled_circulant(n, [1, 2], n))
        for a in range(2, 21):
            self._assert_all_layers(complete_bipartite(a, a))

    def test_entries_are_the_graphs_own(self):
        # the view shares the graph's (neighbor, edge id) tuples, copying none
        for g in (shuffled_circulant(400, [1, 2], 7), complete_bipartite(20, 20),
                  *(g for *_, g in stress_instances(50, 8, 60, [4, 6, 8], 0))):
            lay = bfs_layering(g, 0)
            for i in range(1, lay.depth + 1):
                view = layer_view(g, lay, i)
                for v in view.inner + view.outer:
                    own = {id(entry) for entry in g.incident(v)}
                    assert all(id(entry) in own for entry in view.incident(v))
