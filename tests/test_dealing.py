"""The labeling's one two-ended deal against the dispensers it replaced.

`_Cursor` and the two assigners below are the labeling's trail and link
dealers as they were before one loop dealt both intervals, kept verbatim as
references.  Each test labels a corpus and deals the trail interval on
every layer, and the link interval on every layer with links, both ways
from the same covering pair and trail family: the labels and the trail
units must come out alike.
"""

from collections import Counter
from types import SimpleNamespace

import pytest

from antimagic import generate_regular, label_graph, labeling
from antimagic.covering import CoveringPair, Link, maximize_free_links
from antimagic.errors import InternalInvariantError
from antimagic.graph import BipartiteView, bipartite_view
from antimagic.labeling import LayerPlan, TrailEvent
from antimagic.trails import analyze_bad_components, choose_closed_start, rotate_closed
from antimagic.verify import stress_instances
from corpus import complete_bipartite, free_link_gadget, layer_trails, shuffled_circulant


class _Cursor:
    """Two-ended label dispenser over one trail interval."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        self.lo = lo
        self.hi = hi

    def deal(self, trails, high_first: bool, labels: list[int]) -> None:
        """Label the trails' edges in order, alternating between the two ends
        of the interval, from the high end first when `high_first`."""
        lo, hi = self.lo, self.hi
        for trail in trails:
            for eid in trail.edges:
                if high_first:
                    labels[eid] = hi
                    hi -= 1
                else:
                    labels[eid] = lo
                    lo += 1
                high_first = not high_first
        self.lo, self.hi = lo, hi


def reference_assign_trail_labels(view, pair, analysis, plan, labels, k):
    """Deal the trail interval over the layer's trails: closed trails by
    their smallest edge id, each rotated to its start, then the open trails
    exactly as the trail stage gives them, mixed ones two to a unit."""
    family = analysis.family
    cursor = _Cursor(*plan.trail_interval)
    events: list[TrailEvent] = []

    def emit(kind, trails, case, high_first):
        cursor.deal(trails, high_first, labels)
        events.append(TrailEvent(kind, trails, case))

    for trail in sorted(family.closed, key=lambda t: min(t.edges)):
        start, case = choose_closed_start(trail, trail.vertices[0] in analysis.bad_cids, pair)
        emit("closed", (rotate_closed(trail, start),), case, case == "outer-high")

    for trail in family.open_inner:
        emit("open-inner", (trail,), None, False)

    for trail in family.open_outer:
        emit("open-outer", (trail,), None, True)

    mixed = family.open_mixed
    for two in zip(mixed[0::2], mixed[1::2]):
        emit("mixed-pair", two, None, False)
    if len(mixed) % 2:
        emit("mixed-last", mixed[-1:], None, False)

    if cursor.lo != cursor.hi + 1:
        raise InternalInvariantError(f"trail interval of layer {plan.index} not exactly consumed")
    return tuple(events)


def reference_assign_link_labels(pair, analysis, plan, labels):
    """Free links first: the i-th link's low end gets base + i and its high
    end base + c - i + 1; a free link with one end in a bad component puts
    its low label on that end."""
    base = plan.offset + plan.inner_count + plan.trail_count
    c = plan.link_count
    free_set = set(analysis.free_links)
    ordered = list(analysis.free_links) + [l for l in pair.links if l not in free_set]
    for idx, link in enumerate(ordered, start=1):
        in_bad = [e for e in link.ends if e in analysis.bad_vertices]
        if link in free_set and len(in_bad) == 1:
            u_low = in_bad[0]
        else:
            u_low = min(link.ends)
        u_high = link.end_b if u_low == link.end_a else link.end_a
        e_low = pair.view.edge_between(link.center, u_low)
        e_high = pair.view.edge_between(link.center, u_high)
        labels[e_low] = base + idx
        labels[e_high] = base + c - idx + 1


def assert_trails_dealt_alike(pair, family, bad_cids, plan, m, seen: Counter,
                              assign=labeling._assign_trail_labels) -> None:
    """Deal one layer's trail interval both ways on fresh label lists of
    length m, the engine's way by `assign`; count the layer's units by
    (kind, case)."""
    ref_labels, labels = [0] * m, [0] * m
    analysis = SimpleNamespace(family=family, bad_cids=bad_cids)
    ref_events = reference_assign_trail_labels(pair.view, pair, analysis, plan, ref_labels,
                                               pair.d // 2)
    events = assign(pair, family, bad_cids, plan, labels)
    assert events == ref_events
    assert labels == ref_labels
    seen.update((ev.kind, ev.case) for ev in events)


def assert_links_dealt_alike(pair, analysis, plan, m, seen: Counter,
                             assign=labeling._assign_link_labels) -> None:
    """Deal one layer's link interval both ways on fresh label lists of
    length m, the engine's way by `assign`; count the layer's links."""
    ref_labels, labels = [0] * m, [0] * m
    reference_assign_link_labels(pair, analysis, plan, ref_labels)
    assign(pair, analysis, plan, labels)
    assert labels == ref_labels
    seen["links"] += len(pair.links)


def assert_dealt_alike(pair, parent, analysis, plan, m, seen: Counter) -> None:
    """Deal one layer's trail and link intervals both ways, over the trails
    of the pair with the `parent` edges."""
    assert_trails_dealt_alike(pair, layer_trails(pair, parent), analysis.bad_cids, plan, m, seen)
    assert_links_dealt_alike(pair, analysis, plan, m, seen)


def dealt_alike(monkeypatch, graphs) -> list[Counter]:
    """Label each graph, comparing the two deals of the trail interval on
    every layer, and of the link interval on every layer with links, as the
    labeling reaches it; one count of units and links per graph."""
    trail_assign, link_assign = labeling._assign_trail_labels, labeling._assign_link_labels
    seen = Counter()

    def comparing_trails(pair, family, bad_cids, plan, labels):
        assert_trails_dealt_alike(pair, family, bad_cids, plan, len(labels), seen, trail_assign)
        return trail_assign(pair, family, bad_cids, plan, labels)

    def comparing_links(pair, analysis, plan, labels):
        assert_links_dealt_alike(pair, analysis, plan, len(labels), seen, link_assign)
        return link_assign(pair, analysis, plan, labels)

    monkeypatch.setattr(labeling, "_assign_trail_labels", comparing_trails)
    monkeypatch.setattr(labeling, "_assign_link_labels", comparing_links)
    counts = []
    for g in graphs:
        label_graph(g)
        counts.append(+seen)
        seen.clear()
    return counts


def plan_of(view: BipartiteView, pair: CoveringPair) -> LayerPlan:
    """The plan of a hand-made one-layer view: no within-layer edges, and
    the view's edges that are neither parent nor link edges are trail edges."""
    link_count = 2 * len(pair.links)
    return LayerPlan(index=view.index, layer_size=len(view.outer), inner_count=0,
                     trail_count=view.edge_count - len(view.outer) - link_count,
                     link_count=link_count, offset=0)


def inner_low_view():
    """A k = 2 view whose trail graph is one closed K_{2,4}: both outer
    vertices are ends of the one link and are visited twice, so the closed
    trail must start at an inner vertex visited once ("inner-low").

    Inner: trail vertices 0..3, center 4, matching partners 5, 6.
    Outer: 7 and 8."""
    triples = [(x, y, 2 * x + y - 7) for x in range(4) for y in (7, 8)]
    triples += [(4, 7, 8), (4, 8, 9), (5, 7, 10), (6, 8, 11)]
    view = bipartite_view(1, tuple(range(7)), (7, 8), tuple(triples))
    pair = CoveringPair(view, 5, [Link.of(4, 7, 8)], [10, 11])
    return view, pair, {7: 10, 8: 11}


OPEN_UNITS = {("open-inner", None), ("open-outer", None), ("mixed-pair", None),
              ("mixed-last", None)}


class TestDealtAlike:
    def test_shuffled_deep_circulant(self, monkeypatch):
        counts = dealt_alike(monkeypatch, [shuffled_circulant(n, [1, 2], n)
                                           for n in (40, 103, 400)])
        seen = sum(counts, Counter())
        assert OPEN_UNITS <= set(seen)

    def test_complete_bipartite(self, monkeypatch):
        counts = dealt_alike(monkeypatch, [complete_bipartite(a, a) for a in range(4, 21, 2)])
        assert [c["links"] for c in counts] == [1] * 9

    def test_stress_instances(self, monkeypatch):
        counts = dealt_alike(
            monkeypatch, [graph for *_, graph in stress_instances(100, 8, 60, [4, 6, 8], 0)])
        seen = sum(counts, Counter())
        assert OPEN_UNITS <= set(seen)

    @pytest.mark.parametrize("n, seed", [(10, 21), (10, 46), (24, 50)])
    def test_closed_units(self, monkeypatch, n, seed):
        counts = dealt_alike(monkeypatch, [generate_regular(n, 4, seed)])
        assert counts[0][("closed", "outer-high")] == 1


class TestDealtAlikeOnGadgets:
    """Hand-made views reach the closed starts and the link low ends that no
    generated graph in the corpus reaches."""

    def test_free_link_gadget_before_and_after_exchange(self):
        view, pair, parent = free_link_gadget()

        def analyze(p):
            return analyze_bad_components(p, parent)

        seen = Counter()
        analysis = analyze(pair)
        assert len(analysis.bad_cids) == 2 and not analysis.free_links
        assert_dealt_alike(pair, parent, analysis, plan_of(view, pair), view.edge_count, seen)
        assert seen[("closed", "bad")] == 2

        seen.clear()
        exchanged, analysis = maximize_free_links(pair, analyze)
        assert len(analysis.bad_cids) == 1
        # a free link with one end in the surviving bad component, which is
        # its low end although it is the link's larger end
        assert any(link.end_b in analysis.bad_vertices and link.end_a not in analysis.bad_vertices
                   for link in analysis.free_links)
        assert_dealt_alike(exchanged, parent, analysis, plan_of(view, exchanged), view.edge_count,
                           seen)
        assert seen[("closed", "bad")] == 1

    def test_inner_low_start(self):
        view, pair, parent = inner_low_view()
        analysis = analyze_bad_components(pair, parent)
        assert not analysis.bad_cids
        seen = Counter()
        assert_dealt_alike(pair, parent, analysis, plan_of(view, pair), view.edge_count, seen)
        assert seen == Counter({("closed", "inner-low"): 1, "links": 1})
