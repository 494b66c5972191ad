"""Independent verifier: positive cases, seeded corruption, stress harness."""

import dataclasses
import hashlib
import itertools
from pathlib import Path

import pytest

from antimagic import (Graph, StressFailure, check_construction, format_edge_list,
                       generate_regular, label_graph, layer_view, parse_edge_list, stress,
                       verify_antimagic)
from antimagic.covering import build_covering_pair, maximize_free_links
from antimagic.documents import render_document
from antimagic.labeling import TrailEvent
from antimagic.trails import Trail, analyze_bad_components
from antimagic.verify import _bad_components, recompute_vertex_sums, stress_instances
from corpus import (bad_component_realizer, circulant, complete_bipartite, complete_graph,
                    cycle_graph, engine_layer, free_link_gadget, hypercube, shuffled_circulant,
                    trail_edge_ids, view_ends)


def with_layer(res, i, **changes):
    """The result with fields of layer i's record replaced."""
    rec = dataclasses.replace(res.layers[i], **changes)
    return dataclasses.replace(res, layers={**res.layers, i: rec})


class TestVerifyAntimagic:
    def test_accepts_valid_hand_labeling(self):
        g = cycle_graph(3)
        report = verify_antimagic(g, [1, 3, 2])
        assert report.passed
        assert report.bijection_ok and report.distinct_sums_ok
        assert report.layer_monotone_ok is None
        assert sorted(report.vertex_sums) == [3, 4, 5]

    def test_rejects_non_bijection(self):
        report = verify_antimagic(cycle_graph(3), [1, 1, 2])
        assert not report.bijection_ok
        assert not report.passed
        assert "bijection" in report.first_failure

    @pytest.mark.parametrize("labels", [[1, 3, 3], [0, 1, 2], [1, 2, 4], [1, 2.5, 3]],
                             ids=["repeated", "zero", "m+1", "2.5"])
    def test_labels_off_the_label_range_are_no_bijection(self, labels):
        report = verify_antimagic(cycle_graph(3), labels)
        assert not report.bijection_ok
        assert report.first_failure == "labels are not a bijection onto the label range"

    def test_rejects_colliding_sums(self):
        # edge order (0,1) (0,3) (1,2) (2,3): vertices 0 and 2 both sum to 5
        report = verify_antimagic(cycle_graph(4), [1, 4, 2, 3])
        assert report.bijection_ok
        assert not report.distinct_sums_ok
        assert "share vertex sum" in report.first_failure

    def test_single_edge_always_fails(self):
        # both endpoints of the lone edge receive the same sum
        report = verify_antimagic(Graph(2, [(0, 1)]), [1])
        assert report.bijection_ok
        assert not report.distinct_sums_ok
        assert not report.passed

    def test_label_dict_rejected(self):
        # labels are a sequence by edge id; a dict's keys are no labels
        with pytest.raises(TypeError, match="sequence by edge id"):
            verify_antimagic(cycle_graph(3), {0: 1, 1: 3, 2: 2})

    def test_wrong_label_count_rejected(self):
        with pytest.raises(ValueError):
            verify_antimagic(cycle_graph(3), [1, 2])

    def test_layer_monotonicity_checked(self):
        res = label_graph(circulant(9, [1, 2]))
        report = verify_antimagic(res.graph, res.labeling.labels, res.layering)
        assert report.layer_monotone_ok

    def test_result_argument_is_accepted_and_not_read(self):
        # the benchmark's pipeline passes a result as the fourth argument
        res = label_graph(complete_graph(5))
        args = (res.graph, res.labeling.labels, res.layering)
        assert verify_antimagic(*args, res) == verify_antimagic(*args)


class TestRecomputeSums:
    def test_matches_incidence(self):
        g = parse_edge_list("0 1\n1 2\n0 2\n")
        assert recompute_vertex_sums(g, [5, 7, 11]) == [16, 12, 18]


class TestCheckConstruction:
    def test_clean_on_valid_result(self):
        issues, stats = check_construction(label_graph(circulant(10, [1, 2])))
        assert issues == []
        assert stats["min_upper_slack"] is not None and stats["min_upper_slack"] >= 0
        assert stats["min_lower_slack"] is not None and stats["min_lower_slack"] >= 0

    def test_detects_swapped_labels(self):
        res = label_graph(circulant(10, [1, 2]))
        labels = list(res.labeling.labels)
        labels[0], labels[-1] = labels[-1], labels[0]
        broken_result = dataclasses.replace(
            res, labeling=dataclasses.replace(res.labeling, labels=tuple(labels)))
        issues, _ = check_construction(broken_result)
        assert issues, "tampered labels must be reported"

    def test_detects_tampered_sums(self):
        res = label_graph(complete_graph(5))
        sums = list(res.labeling.vertex_sums)
        sums[1] += 1
        broken_result = dataclasses.replace(
            res, labeling=dataclasses.replace(res.labeling, vertex_sums=tuple(sums)))
        issues, _ = check_construction(broken_result)
        assert any("disagree" in issue for issue in issues)

    def test_covers_the_full_verification(self):
        res = label_graph(circulant(10, [1, 2]))
        labels = list(res.labeling.labels)
        i, j = labels.index(1), labels.index(len(labels))
        labels[i], labels[j] = labels[j], labels[i]
        swapped = dataclasses.replace(
            res, labeling=dataclasses.replace(res.labeling, labels=tuple(labels)))
        for r, clean in ((res, True), (swapped, False)):
            issues, stats = check_construction(r)
            report = verify_antimagic(r.graph, r.labeling.labels, r.layering)
            assert (stats["bijection_ok"], stats["distinct_sums_ok"],
                    stats["layer_monotone_ok"]) == (report.bijection_ok, report.distinct_sums_ok,
                                                    report.layer_monotone_ok)
            assert report.passed == clean
            assert (issues == []) if clean else (report.first_failure in issues)

    @pytest.mark.parametrize("extra", [-1, 1], ids=["short", "long"])
    def test_label_count_off_by_one_is_reported_not_raised(self, extra):
        res = label_graph(circulant(12, [1, 2]))
        labels = res.labeling.labels
        labels = labels[:-1] if extra < 0 else labels + (len(labels) + 1,)
        broken = dataclasses.replace(
            res, labeling=dataclasses.replace(res.labeling, labels=labels))
        issues, stats = check_construction(broken)
        assert issues == [f"{24 + extra} labels for 24 edges"]
        assert (stats["bijection_ok"], stats["distinct_sums_ok"],
                stats["layer_monotone_ok"]) == (False, None, None)

    @staticmethod
    def parent_label_moved(res, i, a, to_within):
        """The result with the parent label of outer vertex a of layer i
        swapped with the label of a within-layer edge of layer i or of a
        trail edge at the next vertex of the layer, neither at a."""
        g, layer_of, labels = res.graph, res.layering.layer_of, res.labeling.labels
        lo, hi = res.plans[i].trail_interval
        b = res.layering.layers[i][1]
        other = next(eid for eid, (u, v) in enumerate(g.edges) if a not in (u, v) and (
            layer_of[u] == layer_of[v] == i if to_within else
            b in (u, v) and lo <= labels[eid] <= hi))
        return TestCheckConstruction.with_swapped_labels(res, engine_layer(res, i)[1][a], other)

    def test_foreign_parent_edge_is_reported_not_raised(self):
        # a's parent label moves to a trail edge at the next vertex b
        res = label_graph(generate_regular(40, 6, 3))
        a = res.layering.layers[2][0]
        issues, _ = check_construction(self.parent_label_moved(res, 2, a, to_within=False))
        assert f"layer 2: vertex {a} has no cross edge labeled in the parent interval" in issues
        # b's trail edge now carries a parent label, so a unit covers a non-trail edge
        assert "layer 2: trail units do not cover the trail graph exactly" in issues

    def test_missing_parent_edge_is_reported_not_raised(self):
        res = label_graph(generate_regular(40, 6, 3))
        a = res.layering.layers[2][0]
        issues, _ = check_construction(self.parent_label_moved(res, 2, a, to_within=True))
        assert f"layer 2: vertex {a} has no cross edge labeled in the parent interval" in issues

    def test_missing_parent_edge_skips_the_parent_order(self):
        # the order by partial sum cannot be recomputed without the vertex's
        # partial sum, so the other parent labels are not judged against it
        res = label_graph(generate_regular(40, 6, 3))
        a = res.layering.layers[2][0]
        issues, _ = check_construction(self.parent_label_moved(res, 2, a, to_within=True))
        # the vertex is reported once, and no partial sum is read without it
        assert [issue for issue in issues if f"vertex {a} " in issue] == [
            f"layer 2: vertex {a} has no cross edge labeled in the parent interval"]
        assert not [issue for issue in issues if issue.startswith("layer 2: parent edge of")]

    @pytest.mark.parametrize("past_end", [True, False], ids=["m+5", "-1"])
    def test_stray_trail_edge_id_is_reported_not_raised(self, past_end):
        res = label_graph(complete_bipartite(6, 6))
        m = res.graph.m
        stray = m + 5 if past_end else -1
        events = list(res.layers[2].events)
        *kept, last = events[0].trails
        last = dataclasses.replace(last, edges=last.edges[:-1] + (stray,))
        events[0] = dataclasses.replace(events[0], trails=(*kept, last))
        broken = with_layer(res, 2, events=tuple(events))
        issues, _ = check_construction(broken)
        stray_issue = f"layer 2: trail names edge id {stray}, outside 0..{m - 1}"
        assert "layer 2: trail units do not cover the trail graph exactly" in issues
        assert stray_issue in issues

    def test_unit_listing_an_edge_twice_is_reported(self):
        # the last trail's last edge is replaced by its first: the units list
        # as many edges as the trail graph has, but one twice and one not
        res = label_graph(complete_bipartite(6, 6))
        events = list(res.layers[2].events)
        *kept, last = events[0].trails
        last = dataclasses.replace(last, edges=last.edges[:-1] + last.edges[:1])
        events[0] = dataclasses.replace(events[0], trails=(*kept, last))
        issues, _ = check_construction(with_layer(res, 2, events=tuple(events)))
        assert "layer 2: trail units do not cover the trail graph exactly" in issues

    @pytest.mark.parametrize("vertex", [10 ** 6, 3, 1], ids=["foreign", "outer", "inner"])
    def test_unit_off_its_edges_is_reported_not_raised(self, vertex):
        # layer 3's first unit is an open-inner trail 11, 30, 13, ...; its
        # second vertex is swapped for one that is no end of edges 61 and 67
        res = label_graph(generate_regular(40, 6, 3))
        events = list(res.layers[3].events)
        trail, = events[0].trails
        assert events[0].kind == "open-inner" and trail.vertices[1] == 30
        trail = dataclasses.replace(trail, vertices=(trail.vertices[0], vertex)
                                    + trail.vertices[2:])
        events[0] = dataclasses.replace(events[0], trails=(trail,))
        broken = with_layer(res, 3, events=tuple(events))
        walk_issue = f"layer 3: trail unit does not walk its edges at vertex {vertex}"
        issues, _ = check_construction(broken)
        assert issues == [walk_issue]

    def test_closed_unit_without_edges_is_reported_not_raised(self):
        # the coverage check and the cursor replay both accept a unit with no
        # edges; only the wrap pair of a closed trail reads its edges
        res = label_graph(generate_regular(40, 6, 3))
        rec = res.layers[3]
        v = res.layering.layers[2][0]
        empty = TrailEvent("closed", (Trail((v,), (), closed=True),), "inner-low")
        broken = with_layer(res, 3, events=rec.events + (empty,))
        empty_issue = f"layer 3: closed trail unit at vertex {v} has no edges"
        issues, _ = check_construction(broken)
        assert issues == [empty_issue]

    @pytest.mark.parametrize("graph", [complete_bipartite(6, 6),
                                       shuffled_circulant(48, [1, 2], 48)],
                             ids=["K6,6", "C48(1,2)"])
    def test_tampered_trail_label_is_named_by_the_replay(self, graph):
        res = label_graph(graph)
        i = max(j for j, rec in res.layers.items() if rec.events)
        eid = res.layers[i].events[-1].trails[-1].edges[-1]
        labels = list(res.labeling.labels)
        replayed, labels[eid] = labels[eid], graph.m + 1
        tampered = dataclasses.replace(
            res, labeling=dataclasses.replace(res.labeling, labels=tuple(labels)))
        issues, _ = check_construction(tampered)
        assert (f"layer {i}: edge {eid} carries label {graph.m + 1}, replay gives {replayed}"
                in issues)

    def test_flipped_closed_trail_case_is_reported_by_the_replay(self):
        res = label_graph(hypercube(4))
        (i, pos), = [(i, pos) for i, rec in res.layers.items()
                     for pos, ev in enumerate(rec.events) if ev.case == "outer-high"]
        events = list(res.layers[i].events)
        events[pos] = dataclasses.replace(events[pos], case="inner-low")
        issues, _ = check_construction(with_layer(res, i, events=tuple(events)))
        first = events[pos].trails[0].edges[0]
        label = res.labeling.labels[first]
        assert any(issue.startswith(f"layer {i}: edge {first} carries label {label}, replay gives ")
                   for issue in issues)

    @staticmethod
    def with_swapped_labels(res, a, b):
        labels = list(res.labeling.labels)
        labels[a], labels[b] = labels[b], labels[a]
        return dataclasses.replace(
            res, labeling=dataclasses.replace(res.labeling, labels=tuple(labels)))

    def test_swapped_link_labels_are_reported(self):
        res = label_graph(complete_bipartite(6, 6))
        pair, _ = engine_layer(res, 2)
        view, link = pair.view, pair.links[0]
        a, b = (view.edge_between(link.center, end) for end in link.ends)
        issues, _ = check_construction(self.with_swapped_labels(res, a, b))
        assert (f"layer 2: link at center {link.center} has its low label at end {link.end_b}, "
                f"not {link.end_a}") in issues

    def test_swapped_parent_labels_are_reported(self):
        res = label_graph(complete_bipartite(6, 6))
        _, parent_edge = engine_layer(res, 2)
        u, w = res.layering.layers[2][:2]
        a, b = parent_edge[u], parent_edge[w]
        labels = res.labeling.labels
        issues, _ = check_construction(self.with_swapped_labels(res, a, b))
        assert (f"layer 2: parent edge of vertex {u} carries label {labels[b]}, "
                f"expected {labels[a]}") in issues
        assert (f"layer 2: parent edge of vertex {w} carries label {labels[a]}, "
                f"expected {labels[b]}") in issues


def whole_trail_graph_bad_components(link_ends, ends, trail_eids, k):
    """The reference for the replay's bad-component search, which reads only
    the trail edges at the link ends: the connected components of the whole
    trail graph on `trail_eids`, by their `ends`, each started at its
    smallest vertex, are bad when every degree is 2k and every outer vertex
    is one of the `link_ends`."""
    if not link_ends:
        return (), frozenset()
    adj, outer = {}, set()
    for eid in trail_eids:
        x, y = ends[eid]
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)
        outer.add(y)
    bad_cids, bad_vertices, seen = [], set(), set()
    for v in sorted(adj):
        if v in seen:
            continue
        seen.add(v)
        stack, members = [v], []
        while stack:
            u = stack.pop()
            members.append(u)
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        outer_members = [u for u in members if u in outer]
        if (all(len(adj[u]) == 2 * k for u in members) and outer_members
                and all(u in link_ends for u in outer_members)):
            bad_cids.append(v)
            bad_vertices.update(members)
    return tuple(bad_cids), frozenset(bad_vertices)


class TestReplayRecomputation:
    """The replay's own bad-component and partial-sum recomputation against
    the trail builder, the whole-trail-graph reference and a re-sum of
    incident labels."""

    @staticmethod
    def assert_bad_components_agree(pair, parent_edge, k):
        ref = analyze_bad_components(pair, parent_edge)
        trail_eids = trail_edge_ids(pair, parent_edge)
        got = _bad_components(pair.view, pair.link_ends, trail_eids, k)
        assert got == (ref.bad_cids, ref.bad_vertices)
        assert got == whole_trail_graph_bad_components(pair.link_ends, view_ends(pair.view),
                                                       trail_eids, k)
        return ref

    def test_every_stress_layer(self):
        for _, _, _, _, graph in stress_instances(200, 8, 60, [4, 6, 8], 0):
            res = label_graph(graph)
            labels = res.labeling.labels
            upper, lower = [], []
            for i in res.layers:
                pair, parent_edge = engine_layer(res, i)
                self.assert_bad_components_agree(pair, parent_edge, res.k)
                resummed = [sum(labels[eid] for _, eid in graph.incident(u))
                            - labels[parent_edge[u]] for u in res.layering.layers[i]]
                upper.append(res.plans[i].partial_sum_bound(res.k) - max(resummed))
                if i < res.layering.depth:
                    lower.append(min(resummed) - res.plans[i + 1].partial_sum_bound(res.k))
            _, stats = check_construction(res)
            assert stats["min_upper_slack"] == min(upper)
            assert stats["min_lower_slack"] == min(lower, default=None)

    def test_free_link_gadget_before_and_after_exchange(self):
        _, pair, parent = free_link_gadget()
        ref = self.assert_bad_components_agree(pair, parent, 1)
        assert len(ref.bad_cids) == 2 and not ref.free_links

        def analyze(p):
            return analyze_bad_components(p, parent)

        exchanged, _ = maximize_free_links(pair, analyze)
        ref = self.assert_bad_components_agree(exchanged, parent, 1)
        assert ref.bad_cids and ref.free_links


# realizer hits (j, seed) whose last layer holds one bad component: at
# (1, 199) and (2, 171) the free-link exchange moves a link end, which frees
# one more link and leaves one of two bad components; at (1, 317) a link
# has both ends in the bad component
REALIZER_HITS = [(1, 8), (1, 199), (1, 317), (2, 171)]


class TestBadComponentSearch:
    """The replay's search from the link ends against the whole-trail-graph
    reference, on every call the replay makes; TestReplayRecomputation holds
    it to both on the engine's own pairs."""

    @staticmethod
    def replayed(res, monkeypatch):
        """check_construction of `res`, with each bad-component search it
        makes held to the reference; returns (issues, stats, searches)."""
        layer_of = res.layering.layer_of
        searches = []

        def both(g, link_ends, trail_eids, k):
            ends = {eid: tuple(sorted(g.edges[eid], key=layer_of.__getitem__))
                    for eid in trail_eids}
            got = _bad_components(g, link_ends, trail_eids, k)
            assert got == whole_trail_graph_bad_components(link_ends, ends, trail_eids, k)
            searches.append(got)
            return got

        monkeypatch.setattr("antimagic.verify._bad_components", both)
        return (*check_construction(res), searches)

    def test_every_layer_of_the_realizer_graphs(self, monkeypatch):
        hits = 0
        for j, count in ((1, 400), (2, 60)):
            for seed in range(count):
                res = label_graph(bad_component_realizer(j, seed))
                issues, stats, searches = self.replayed(res, monkeypatch)
                assert issues == [] and len(searches) == res.layering.depth
                if stats["bad_layers"]:
                    hits += 1
                    assert [bool(cids) for cids, _ in searches] == [True] + [False] * (j + 1)
        assert hits == 25

    @pytest.mark.parametrize("j, seed, bad", [(1, 8, 338), (1, 199, 334), (1, 317, 338),
                                              ("K6,6", None, 0)])
    def test_label_swaps_of_a_link_layer(self, j, seed, bad, monkeypatch):
        """Every transposition of two cross-edge labels of the link layer of
        a realizer hit or of K6,6, as the replay reads it: the parent edges,
        links and trail edges move with the labels; `bad` searches find a
        bad component."""
        res = label_graph(complete_bipartite(6, 6) if seed is None
                          else bad_component_realizer(j, seed))
        i = max(i for i, plan in res.plans.items() if plan.link_count)
        layer_of = res.layering.layer_of
        cross = [eid for eid, (u, v) in enumerate(res.graph.edges)
                 if max(layer_of[u], layer_of[v]) == i and layer_of[u] != layer_of[v]]
        found = 0
        for a, b in itertools.combinations(cross, 2):
            labels = list(res.labeling.labels)
            labels[a], labels[b] = labels[b], labels[a]
            _, _, searches = self.replayed(dataclasses.replace(
                res, labeling=dataclasses.replace(res.labeling, labels=tuple(labels))),
                monkeypatch)
            found += sum(bool(cids) for cids, _ in searches)
        assert found == bad


class TestBadComponentRealizer:
    """The k = 1 family of corpus.bad_component_realizer reaches bad
    components end to end: the engine labels them and the replay judges the
    record."""

    @pytest.mark.parametrize("j, seed", REALIZER_HITS)
    def test_hits_replay_clean_with_one_bad_layer(self, j, seed):
        res = label_graph(bad_component_realizer(j, seed))
        issues, stats = check_construction(res)
        assert issues == []
        assert stats["bad_layers"] == 1
        # the exchange moves a link of the last layer at those two hits alone
        i = res.layering.depth
        first = build_covering_pair(layer_view(res.graph, res.layering, i), 3)
        assert (first.links != engine_layer(res, i)[0].links) == (seed in (199, 171))

    def test_golden_edge_list_is_the_realizer_graph(self):
        golden = Path(__file__).parent / "golden" / "realizer_1_317.edges"
        assert golden.read_text() == format_edge_list(bad_component_realizer(1, 317))

    @pytest.mark.parametrize("j, seed, sha256", [
        (1, 199, "ac755b9e24f6c3d95ca15d52a0c5363ad13aa20f49854f107ddfcf367deb4c92"),
        (2, 171, "30854c251025073a65cb95b0a59ca9509663f017a8fb165729f936d4c0aec9d2")])
    def test_exchange_hit_documents(self, j, seed, sha256):
        """The two hits whose exchange moves a link, frozen in tests/golden
        as edge lists: the document of each, by its hash, and its tightest
        slacks, an upper one of 0 among them."""
        golden = Path(__file__).parent / "golden" / f"realizer_{j}_{seed}.edges"
        text = golden.read_text()
        assert text == format_edge_list(bad_component_realizer(j, seed))
        res = label_graph(parse_edge_list(text))
        assert hashlib.sha256(render_document(res).encode("utf-8")).hexdigest() == sha256
        issues, stats = check_construction(res)
        assert issues == []
        assert (stats["min_upper_slack"], stats["min_lower_slack"], stats["bad_layers"]) == (0, 2, 1)


class TestStress:
    def test_small_batch_passes(self):
        summary = stress(count=12, n_min=8, n_max=24, degrees=[4, 6], seed=5)
        assert summary.passed == summary.count == 12
        assert "12/12" in summary.describe()

    def test_deterministic(self):
        a = stress(count=6, n_min=8, n_max=20, degrees=[4], seed=9)
        b = stress(count=6, n_min=8, n_max=20, degrees=[4], seed=9)
        assert (a.passed, a.min_upper_slack, a.min_lower_slack,
                a.bad_component_instances, a.instances_with_links) == \
            (b.passed, b.min_upper_slack, b.min_lower_slack,
             b.bad_component_instances, b.instances_with_links)

    def test_rejects_out_of_scope_degree(self):
        with pytest.raises(ValueError):
            stress(count=1, n_min=8, n_max=20, degrees=[3], seed=0)

    def test_rejects_an_empty_degree_list(self, monkeypatch):
        # raised before any instance is generated, whatever the count
        monkeypatch.setattr("antimagic.verify.stress_instances", None)
        for count in (0, 2):
            with pytest.raises(ValueError, match="^no degree to cycle through$"):
                stress(count=count, n_min=8, n_max=20, degrees=[], seed=0)

    def test_zero_count_gives_empty_summary(self):
        summary = stress(count=0, n_min=8, n_max=20, degrees=[4], seed=0)
        assert summary.count == summary.passed == 0
        assert summary.min_upper_slack is None and summary.min_lower_slack is None
        assert summary.describe().startswith("stress: 0/0 passed")

    def test_failure_carries_instance(self):
        # force a failure by monkeypatching nothing: instead check the exception
        # type is importable and structured as documented
        exc = StressFailure("boom", "# n=5 degree=4 seed=1\n0 1\n")
        assert exc.instance.startswith("# n=5")
