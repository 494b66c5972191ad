"""Labeling engine: golden examples, interval plans, and end-to-end checks.

Expected constants in this file were derived by hand from the layer structure
of the example graphs before the engine produced them, and are frozen here.
"""

import dataclasses
import gc
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from antimagic import (BipartiteView, CoveringPair, GraphShapeError, InternalInvariantError,
                       Link, check_construction, format_edge_list, generate_regular,
                       label_graph, labeling, trails, verify_antimagic)
from antimagic.cli import main
from antimagic.covering import _matched_in, build_covering_pair
from antimagic.documents import render_document
from antimagic.graph import layer_view
from antimagic.labeling import LayerPlan, LayerRecord, assign_parent_edges
from antimagic.verify import _read_labels, stress_instances
from corpus import (bad_component_realizer, circulant, complete_bipartite, complete_graph,
                    cycle_graph, engine_layer, hypercube, layer_trails, octahedron,
                    shuffled_circulant, torus_grid, trail_lists, view_ends)


class TestGoldenK5:
    """Single-layer case: four within-layer labels follow six parent labels."""

    def test_exact_labels_and_sums(self):
        res = label_graph(complete_graph(5))
        # edges in id order: (0,1) (0,2) (0,3) (0,4) (1,2) (1,3) (1,4) (2,3) (2,4) (3,4)
        assert res.labeling.labels == (7, 8, 9, 10, 1, 2, 3, 4, 5, 6)
        assert res.labeling.vertex_sums == (34, 13, 18, 21, 24)
        # partial sums: each vertex sum less its parent label; the root has
        # no parent edge, so its partial sum is its vertex sum, 34
        labels, sums = res.labeling.labels, res.labeling.vertex_sums
        _, parent_edge = engine_layer(res, 1)
        assert {u: sums[u] - labels[parent_edge[u]] for u in range(1, 5)} \
            == {1: 6, 2: 10, 3: 12, 4: 14}
        assert sums[res.layering.root] == 34

    def test_root_sum_strictly_largest(self):
        res = label_graph(complete_graph(5))
        sums = res.labeling.vertex_sums
        assert all(sums[0] > sums[v] for v in range(1, 5))

    def test_plan(self):
        res = label_graph(complete_graph(5))
        plan = res.plans[1]
        assert (plan.inner_count, plan.trail_count, plan.link_count) == (6, 0, 0)
        assert plan.offset == 0 and plan.layer_size == 4
        assert plan.parent_interval == (7, 10)

    def test_deep_check_clean(self):
        issues, stats = check_construction(label_graph(complete_graph(5)))
        assert issues == []
        assert stats["min_upper_slack"] >= 0


class TestGoldenCirculant7:
    """Two layers; the outer layer carries one within-layer edge and four
    trail edges, the root layer three within-layer edges and no trails."""

    def test_plan_numbers(self):
        res = label_graph(circulant(7, [1, 2]))
        p2, p1 = res.plans[2], res.plans[1]
        assert (p2.offset, p2.inner_count, p2.trail_count, p2.link_count, p2.layer_size) \
            == (0, 1, 4, 0, 2)
        assert p2.inner_interval == (1, 1)
        assert p2.trail_interval == (2, 5)
        assert p2.parent_interval == (6, 7)
        assert (p1.offset, p1.inner_count, p1.trail_count, p1.link_count, p1.layer_size) \
            == (7, 3, 0, 0, 4)
        assert p1.parent_interval == (11, 14)

    def test_clean_and_antimagic(self):
        res = label_graph(circulant(7, [1, 2]))
        issues, _ = check_construction(res)
        assert issues == []
        report = verify_antimagic(res.graph, res.labeling.labels, res.layering)
        assert report.passed
        assert report.layer_monotone_ok


class TestLinksEndToEnd:
    def test_k66_has_a_link_and_passes(self):
        res = label_graph(complete_bipartite(6, 6))
        assert res.k == 2
        assert res.plans[2].link_count >= 2
        issues, stats = check_construction(res)
        assert issues == []
        assert stats["links_total"] >= 1


class TestLinkSearchGoldens:
    """Hall's condition fails on layer 2 of K_{a,a}, so that layer's pair
    comes from the link search; the documents are frozen in tests/golden."""

    @pytest.mark.parametrize("a", [6, 8])
    def test_document(self, a):
        res = label_graph(complete_bipartite(a, a))
        assert res.plans[2].link_count == 2
        golden = Path(__file__).parent / "golden" / f"k{a}_{a}.txt"
        assert render_document(res) == golden.read_text()


class TestDeepGolden:
    """A twelve-layer circulant with shuffled ids, frozen in tests/golden."""

    def test_document(self):
        res = label_graph(shuffled_circulant(48, [1, 2], 48))
        assert res.layering.depth == 12
        golden = Path(__file__).parent / "golden" / "c48_1_2.txt"
        assert render_document(res) == golden.read_text()


class TestClosedUnitGolden:
    """A random 4-regular graph on ten vertices whose layer 3 holds one
    closed outer-high unit, frozen in tests/golden: the trail stage walks
    the component from its smallest vertex, and the rotation to the start
    turns the walk around."""

    def test_document(self):
        res = label_graph(generate_regular(10, 4, 21))
        rec = res.layers[3]
        unit, = rec.events
        assert (unit.kind, unit.case) == ("closed", "outer-high")
        walked, = layer_trails(*engine_layer(res, 3)).closed
        turned = walked.edges[::-1]
        dealt = unit.trails[0].edges
        assert dealt in {turned[j:] + turned[:j] for j in range(len(turned))}
        golden = Path(__file__).parent / "golden" / "g10_4_21.txt"
        assert render_document(res) == golden.read_text()


class _CountingTuple(tuple):
    """Tuple that counts the elements read through iteration or indexing."""

    def __iter__(self):
        for item in super().__iter__():
            self.reads += 1
            yield item

    def __getitem__(self, key):
        item = super().__getitem__(key)
        self.reads += len(item) if isinstance(key, slice) else 1
        return item


def _counting(items) -> _CountingTuple:
    out = _CountingTuple(items)
    out.reads = 0
    return out


class TestEdgeScans:
    """Per-layer work must touch only its own edges: a full scan of the edge
    list in every layer would read about depth * m elements.  The labeling
    reads an edge's ends only to sort its layer's within-layer edges and in
    the closing verification, so it stays under 2 * m on its own."""

    def test_deep_circulant_reads_each_edge_a_bounded_number_of_times(self):
        g = circulant(400, [1, 2])
        g.edges = _counting(g.edges)
        res = label_graph(g)
        assert res.layering.depth == 100
        assert g.edges.reads <= 2 * g.m
        issues, _ = check_construction(res)
        assert issues == []
        assert g.edges.reads <= 16 * g.m


class TestOneTrailDecompositionPerLayer:
    """Every layer walks its trail graph and decomposes it once, after its
    covering pair is final: the exchange loop scores its candidates from the
    link ends alone, so no walk or decomposition runs inside it."""

    def test_calls_per_layer(self, monkeypatch):
        calls, inside = Counter(), []

        def counting(name, fn):
            def counted(*args):
                calls[name, "in exchange" if inside else "per layer"] += 1
                return fn(*args)
            return counted

        def exchange(*args, fn=labeling.maximize_free_links):
            inside.append(True)
            try:
                return fn(*args)
            finally:
                inside.pop()

        monkeypatch.setattr(trails, "residual_edge_sets",
                            counting("walk", trails.residual_edge_sets))
        monkeypatch.setattr(trails, "decompose_trails",
                            counting("decompose", trails.decompose_trails))
        monkeypatch.setattr(labeling, "analyze_bad_components",
                            counting("analysis", labeling.analyze_bad_components))
        monkeypatch.setattr(labeling, "maximize_free_links", exchange)
        graphs = [bad_component_realizer(j, seed) for j, seed in ((1, 199), (2, 171))]
        graphs += [complete_bipartite(a, a) for a in (4, 10)]
        graphs += [circulant(400, [1, 2]), generate_regular(60, 6, 1)]
        scored = []
        for g in graphs:
            calls.clear()
            depth = label_graph(g).layering.depth
            scored.append(calls.pop(("analysis", "in exchange"), 0))
            assert calls == {("walk", "per layer"): depth, ("decompose", "per layer"): depth}
        # the two realizer hits score their exchange candidates; K_{a,a}
        # scores its one link layer's pair alone
        assert scored == [8, 16, 1, 1, 0, 0]


class TestLostTrailEdge:
    """A trail that loses its last edge leaves one label of the layer's trail
    interval undealt; the exact-consumption check must name that layer, since
    the interval's size is counted from the layer's edges, not from the
    trails."""

    @staticmethod
    def losing_last_edge(monkeypatch):
        decompose = trails.decompose_trails

        def truncated(*trail_graph):
            family = decompose(*trail_graph)
            for kind in ("open_inner", "open_outer", "open_mixed"):
                found = getattr(family, kind)
                if found:
                    t = found[0]
                    short = trails.Trail(t.vertices[:-1], t.edges[:-1], closed=False)
                    return dataclasses.replace(family, **{kind: (short,) + found[1:]})
            return family

        monkeypatch.setattr(trails, "decompose_trails", truncated)

    def test_label_graph_raises_the_consumption_check(self, monkeypatch):
        g = generate_regular(40, 6, 3)
        assert any(ev.kind != "closed" for rec in label_graph(g).layers.values()
                   for ev in rec.events)
        self.losing_last_edge(monkeypatch)
        with pytest.raises(InternalInvariantError,
                           match=r"^trail interval of layer \d+ not exactly consumed$"):
            label_graph(g)

    def test_label_verb_exits_3(self, monkeypatch, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text(format_edge_list(generate_regular(40, 6, 3)))
        self.losing_last_edge(monkeypatch)
        assert main(["label", str(path)]) == 3
        err = capsys.readouterr().err
        assert "not exactly consumed" in err
        assert "KeyError" not in err


def reference_interval_plan(graph, layering, trail_counts, link_counts):
    """The earlier two-pass plan: within-layer counts from a scan of every
    edge, intervals stacked from the outermost layer down, and a check that
    they cover the whole label range."""
    p = layering.depth
    within = {i: 0 for i in range(0, p + 1)}
    for u, v in graph.edges:
        if layering.layer_of[u] == layering.layer_of[v]:
            within[layering.layer_of[u]] += 1
    plans = {}
    offset = 0
    for i in range(p, 0, -1):
        plans[i] = LayerPlan(index=i, layer_size=len(layering.layers[i]),
                             inner_count=within[i], trail_count=trail_counts[i],
                             link_count=link_counts[i], offset=offset)
        offset = plans[i].upper
    assert offset == graph.m
    return plans


class TestPlanAgainstReference:
    """Each layer's plan, computed from its class-edge count as the layer is
    labeled, equals the two-pass plan built from the recorded trail units and
    the links of the layer's rebuilt covering pair."""

    @staticmethod
    def assert_plans_match(graph, root=0):
        res = label_graph(graph, root)
        trail_counts = {i: sum(len(t.edges) for ev in rec.events for t in ev.trails)
                        for i, rec in res.layers.items()}
        link_counts = {i: 2 * len(engine_layer(res, i)[0].links) for i in res.layers}
        assert res.plans == reference_interval_plan(graph, res.layering, trail_counts,
                                                    link_counts)

    def test_stress_instances(self):
        for _, _, _, _, graph in stress_instances(100, 8, 60, [4, 6, 8], 0):
            self.assert_plans_match(graph)

    def test_shuffled_deep_circulant(self):
        self.assert_plans_match(shuffled_circulant(400, [1, 2], 400))

    @pytest.mark.parametrize("a", range(4, 21, 2))
    def test_complete_bipartite(self, a):
        self.assert_plans_match(complete_bipartite(a, a))


class TestTrailsDealtAsGiven:
    """The labeling deals the open trails exactly as the trail stage gives
    them: each open-kind unit holds the family's own trails, in family
    order, so the stage alone decides their direction.  Open-inner and
    open-outer trails start at their smaller end; a mixed pair runs inner
    end first, then outer end first, and a mixed-last trail inner end
    first."""

    @staticmethod
    def assert_dealt_as_given(monkeypatch, graphs):
        assign = labeling._assign_trail_labels
        layers = []

        def recording(pair, family, bad_cids, plan, labels):
            events = assign(pair, family, bad_cids, plan, labels)
            layers.append((pair.view, family, events))
            return events

        monkeypatch.setattr(labeling, "_assign_trail_labels", recording)
        for g in graphs:
            label_graph(g)
        kinds = Counter()
        for view, family, events in layers:
            units = [ev for ev in events if ev.kind != "closed"]
            mixed = len(family.open_mixed)
            assert [ev.kind for ev in units] == (
                ["open-inner"] * len(family.open_inner) + ["open-outer"] * len(family.open_outer)
                + ["mixed-pair"] * (mixed // 2) + ["mixed-last"] * (mixed % 2))
            dealt = [t for ev in units for t in ev.trails]
            given = [*family.open_inner, *family.open_outer, *family.open_mixed]
            assert len(dealt) == len(given)
            assert all(a is b for a, b in zip(dealt, given))
            for ev in units:
                kinds[ev.kind] += 1
                if ev.kind in ("open-inner", "open-outer"):
                    trail, = ev.trails
                    assert trail.vertices[0] < trail.vertices[-1]
                    continue
                for trail, first in zip(ev.trails, ("inner", "outer")):
                    assert view.side(trail.vertices[0]) == first != view.side(trail.vertices[-1])
        return kinds

    def test_shuffled_deep_circulant(self, monkeypatch):
        kinds = self.assert_dealt_as_given(
            monkeypatch, [shuffled_circulant(n, [1, 2], n) for n in (40, 103, 400)])
        assert kinds["mixed-pair"] and kinds["mixed-last"]

    def test_complete_bipartite(self, monkeypatch):
        kinds = self.assert_dealt_as_given(
            monkeypatch, [complete_bipartite(a, a) for a in range(4, 41, 6)])
        assert kinds["open-outer"] and kinds["mixed-last"]

    def test_stress_instances(self, monkeypatch):
        kinds = self.assert_dealt_as_given(
            monkeypatch, [graph for *_, graph in stress_instances(100, 8, 60, [4, 6, 8], 0)])
        assert set(kinds) == {"open-inner", "open-outer", "mixed-pair", "mixed-last"}


class TestRecordsHoldNoTrailFamilies:
    """A held result keeps each layer's trail units, but no trail family or
    bad-component analysis."""

    def test_deep_circulant(self):
        kinds = (trails.TrailFamily, trails.BadAnalysis)
        res = label_graph(circulant(400, [1, 2]))
        gc.collect()
        assert res.layering.depth == 100
        assert [type(obj).__name__ for obj in gc.get_objects() if isinstance(obj, kinds)] == []


def reference_trail_edges(pair, parent_edge):
    """Trail edge ids as a set, as they were taken before the trail graph
    came as lists: the view's edges minus parent edges and link edges."""
    incident = pair.view.incident
    residual = {eid for y in pair.view.outer for _, eid in incident(y) if eid != parent_edge[y]}
    return residual - pair.link_edge_ids if pair.links else residual


class TestLabelsFixTheRecord:
    """The replay reads each layer's parent edges and links from the labels
    in the plan's intervals, and decides that a matching exists among the
    parent edges.  On each layer rebuilt as label_graph builds it, the
    replay reads the engine's parent map, links and trail edges, the
    engine's matching is among the parent edges, and it holds every edge
    the replay forces.  The same layers hold the engine's one walk of the
    outer incidence to its references: the walk picks the parent edges
    `assign_parent_edges` picks, on the pair before and after any exchange,
    its lists are the view's incidence filtered to the trail edges as they
    were taken before the walk, and its count is the view's edge count less
    the parent and link edges; the pair's matching map is the one its edge
    ids give."""

    @staticmethod
    def walked_alike(res, i, pair, parent):
        before = build_covering_pair(layer_view(res.graph, res.layering, i), 2 * res.k + 1)
        for p in (before, pair):
            walked, lists, odd, count = trails.residual_edge_sets(p)
            assert walked == assign_parent_edges(p) == parent
            trail_eids = reference_trail_edges(p, parent)
            assert (lists, sorted(odd), count) == trail_lists(p.view, trail_eids)
            assert count == p.view.edge_count - len(res.layering.layers[i]) - 2 * len(p.links)
            assert p.match_of == _matched_in(p.view, p.matching)
        return trail_eids

    @classmethod
    def links_read_alike(cls, graph):
        res = label_graph(graph)
        links_read = 0
        for i, plan in res.plans.items():
            pair, parent = engine_layer(res, i)
            ends = dict(sorted(view_ends(pair.view).items()))  # in id order, as the replay scans
            read, trail_eids, links, first = _read_labels(plan, ends, res.labeling.labels)
            assert read == parent
            assert sorted(Link.of(*link) for link in links) == list(pair.links)
            assert trail_eids == cls.walked_alike(res, i, pair, parent)
            assert pair.matching <= set(parent.values())
            near = {w for link in pair.links for w in pair.view.neighbors(link.center)}
            assert {eid for u, eid in parent.items() if u in near or eid != first[u]} \
                <= pair.matching
            links_read += len(links)
        return links_read

    @pytest.mark.parametrize("a", [4, 6, 8, 12, 20])
    def test_complete_bipartite(self, a):
        assert self.links_read_alike(complete_bipartite(a, a)) == 1

    def test_corpus_graphs(self):
        graphs = [shuffled_circulant(48, [1, 2], 48), generate_regular(60, 6, 1), hypercube(4),
                  *(graph for *_, graph in stress_instances(40, 8, 60, [4, 6, 8], 0))]
        assert sum(map(self.links_read_alike, graphs)) == 0


class TestRecordsHoldNoView:
    """A held result keeps of each layer only its trail units: nothing it
    refers to, however indirectly, is a layer view, a covering pair or a
    link, since the labels already fix the parent edges and links."""

    @pytest.mark.parametrize("graph", [complete_bipartite(6, 6), generate_regular(60, 6, 1)],
                             ids=["K6,6", "R60"])
    def test_no_view_or_pair_is_reachable(self, graph):
        res = label_graph(graph)
        seen, stack, kinds = {id(res)}, [res], Counter()
        while stack:
            obj = stack.pop()
            kinds[type(obj).__name__] += 1
            # a class is not held data, and through its module reaches everything
            for ref in gc.get_referents(obj):
                if not isinstance(ref, type) and id(ref) not in seen:
                    seen.add(id(ref))
                    stack.append(ref)
        assert kinds[BipartiteView.__name__] == kinds[CoveringPair.__name__] == 0
        assert kinds[Link.__name__] == 0 and kinds[LayerRecord.__name__] == len(res.layers)
        assert [f.name for f in dataclasses.fields(LayerRecord)] == ["events"]


class TestHeldMemory:
    """Bytes per edge that a held result of a deep graph keeps: each of its
    thousand layers keeps its trail units and its plan.  The result measured
    251 bytes per edge on Python 3.11; the bound is the held-memory target
    of ROADMAP direction 12."""

    BYTES_PER_EDGE = 280

    def test_deep_circulant(self):
        g = circulant(4000, [1, 2])
        label_graph(circulant(40, [1, 2]))
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            res = label_graph(g)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert res.layering.depth == 1000
        assert held / g.m <= self.BYTES_PER_EDGE


class TestPlanArithmetic:
    def test_intervals_contiguous(self):
        plan = LayerPlan(index=1, layer_size=4, inner_count=3, trail_count=5,
                         link_count=2, offset=10)
        assert plan.inner_interval == (11, 13)
        assert plan.trail_interval == (14, 18)
        assert plan.link_interval == (19, 20)
        assert plan.parent_interval == (21, 24)
        assert plan.upper == 24
        assert plan.target_pair_sum == 2 * 13 + 5 + 1

    def test_partial_sum_bound(self):
        plan = LayerPlan(index=1, layer_size=4, inner_count=3, trail_count=5,
                         link_count=2, offset=10)
        assert plan.partial_sum_bound(1) == 3 * 13 + 2 * 5 + 2 + 1


class TestScope:
    def test_cycle_rejected(self):
        with pytest.raises(GraphShapeError, match="out of scope"):
            label_graph(cycle_graph(6))

    def test_bad_root_rejected(self):
        with pytest.raises(GraphShapeError):
            label_graph(complete_graph(5), root=5)


class TestDeterminismAndRoots:
    def test_two_runs_identical(self):
        g = circulant(11, [1, 3])
        assert label_graph(g).labeling == label_graph(g).labeling

    def test_all_roots_of_k5(self):
        for root in range(5):
            res = label_graph(complete_graph(5), root=root)
            assert res.layering.root == root
            issues, _ = check_construction(res)
            assert issues == []

    def test_alternate_root_deep_graph(self):
        g = torus_grid(4, 6)
        for root in (0, 7, 23):
            issues, _ = check_construction(label_graph(g, root=root))
            assert issues == []


class TestStructuredFamilies:
    @pytest.mark.parametrize("name,graph", [
        ("octahedron", octahedron()),
        ("C9(1,2)", circulant(9, [1, 2])),
        ("C30(1,2)", circulant(30, [1, 2])),
        ("C40(1,3)", circulant(40, [1, 3])),
        ("Q4", hypercube(4)),
        ("Q6", hypercube(6)),
        ("torus 5x5", torus_grid(5, 5)),
        ("torus 3x17", torus_grid(3, 17)),
        ("K8,8", complete_bipartite(8, 8)),
        ("C13(1,2,3)", circulant(13, [1, 2, 3])),
    ])
    def test_deep_battery(self, name, graph):
        res = label_graph(graph)
        issues, _ = check_construction(res)
        assert issues == [], f"{name}: {issues}"
        assert len(set(res.labeling.vertex_sums)) == graph.n

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 100_000), st.sampled_from([4, 6]))
    def test_random_regular_graphs(self, seed, degree):
        g = generate_regular(max(degree + 2, 12), degree, seed)
        res = label_graph(g)
        issues, _ = check_construction(res)
        assert issues == []
