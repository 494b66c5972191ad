"""Independent verifier: positive cases, seeded corruption, stress harness."""

import dataclasses

import pytest

from antimagic import (Graph, StressFailure, check_construction, generate_regular, label_graph,
                       parse_edge_list, stress, verify_antimagic)
from antimagic.covering import maximize_free_links
from antimagic.labeling import TrailEvent
from antimagic.trails import Trail, analyze_bad_components, residual_edge_sets
from antimagic.verify import _bad_components, recompute_vertex_sums, stress_instances
from corpus import (circulant, complete_bipartite, complete_graph, cycle_graph,
                    free_link_gadget, hypercube, record_pair, shuffled_circulant)


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

    def test_label_dict_accepted(self):
        g = cycle_graph(3)
        report = verify_antimagic(g, {0: 1, 1: 3, 2: 2})
        assert report.passed

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

    def test_foreign_parent_edge_is_reported_not_raised(self):
        res = label_graph(generate_regular(40, 6, 3))
        rec = res.layers[2]
        a, b = res.layering.layers[2][:2]
        broken = with_layer(res, 2, parent_edge={**rec.parent_edge, a: rec.parent_edge[b]})
        issues, _ = check_construction(broken)
        assert any(f"vertex {a} has an invalid parent edge" in issue for issue in issues)
        assert "layer 2: parent edges are not distinct" in issues

    def test_missing_parent_edge_is_reported_not_raised(self):
        res = label_graph(generate_regular(40, 6, 3))
        rec = res.layers[2]
        a = res.layering.layers[2][0]
        broken = with_layer(res, 2, parent_edge={u: e for u, e in rec.parent_edge.items()
                                                 if u != a})
        issues, _ = check_construction(broken)
        assert f"layer 2: vertex {a} has an invalid parent edge None" in issues

    def test_missing_parent_edge_skips_the_parent_order(self):
        # the order by partial sum cannot be recomputed without the vertex's
        # partial sum, so the other parent labels are not judged against it
        res = label_graph(generate_regular(40, 6, 3))
        rec = res.layers[2]
        a = res.layering.layers[2][0]
        broken = with_layer(res, 2, parent_edge={u: e for u, e in rec.parent_edge.items()
                                                 if u != a})
        issues, _ = check_construction(broken)
        assert f"layer 2: vertex {a} has no valid parent edge for its partial sum" in issues
        assert not [issue for issue in issues if "parent edge of vertex" in issue]

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
        pair = record_pair(res, 2)
        view, link = pair.view, pair.links[0]
        a, b = (view.edge_between(link.center, end) for end in link.ends)
        issues, _ = check_construction(self.with_swapped_labels(res, a, b))
        assert f"layer 2: low link edge of center {link.center} mislabeled" in issues
        assert f"layer 2: high link edge of center {link.center} mislabeled" in issues

    def test_swapped_parent_labels_are_reported(self):
        res = label_graph(complete_bipartite(6, 6))
        rec = res.layers[2]
        u, w = res.layering.layers[2][:2]
        a, b = rec.parent_edge[u], rec.parent_edge[w]
        labels = res.labeling.labels
        issues, _ = check_construction(self.with_swapped_labels(res, a, b))
        assert (f"layer 2: parent edge of vertex {u} carries label {labels[b]}, "
                f"expected {labels[a]}") in issues
        assert (f"layer 2: parent edge of vertex {w} carries label {labels[a]}, "
                f"expected {labels[b]}") in issues

    @pytest.mark.parametrize("tamper", ["claims a bad component", "drops a free link"])
    def test_tampered_bad_analysis_is_reported(self, tamper):
        res = label_graph(complete_bipartite(6, 6))
        rec = res.layers[2]
        assert rec.free_links and not rec.bad_cids
        if tamper == "claims a bad component":
            forged = {"bad_cids": frozenset({0})}
        else:
            forged = {"free_links": ()}
        issues, _ = check_construction(with_layer(res, 2, **forged))
        assert "layer 2: recomputed bad components disagree with the record" in issues


class TestReplayRecomputation:
    """The replay's own bad-component and partial-sum recomputation against
    the trail builder and a re-sum of incident labels."""

    @staticmethod
    def assert_bad_components_agree(pair, parent_edge, k):
        ref = analyze_bad_components(pair, parent_edge)
        trail_eids = residual_edge_sets(pair, parent_edge)
        got = _bad_components(pair.links, pair.link_ends, pair.view.edge_ends, trail_eids, k)
        assert got == (ref.bad_cids, ref.bad_vertices, ref.free_links)
        return ref

    def test_every_stress_layer(self):
        for _, _, _, _, graph in stress_instances(200, 8, 60, [4, 6, 8], 0):
            res = label_graph(graph)
            labels = res.labeling.labels
            upper, lower = [], []
            for i, rec in res.layers.items():
                self.assert_bad_components_agree(record_pair(res, i), rec.parent_edge, res.k)
                resummed = [sum(labels[eid] for _, eid in graph.incident(u))
                            - labels[rec.parent_edge[u]] for u in res.layering.layers[i]]
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
