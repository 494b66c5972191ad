"""The labeling engine: interval plan, parent-edge map, and label assignment.

Layers are handled in one pass from the outermost layer inward: each layer's
covering pair, parent edges and trail decomposition are built, its label
block is stacked on the labels the layers outside it used, and its edges are
labeled.  A layer with links picks its parent edges and runs the free-link
exchange, which reads bad components off the trail edges at the link ends; a
layer without links has none and skips it and the link deal.  Then one walk
counts the trail graph (and picks a link-free layer's parent edges), and the
trails are built once.  Within a layer the order is: edges inside the layer, trail
edges, link edges, parent edges.
Trail and link intervals are dealt by one two-ended rule (`_deal`), so that
consecutive trail edges meeting at an inner vertex sum high and those meeting
at an outer vertex sum low; parent edges are labeled in increasing order of
the partial sums they complete, which is what makes all vertex sums distinct.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import trails
from .covering import CoveringPair, build_covering_pair, maximize_free_links
from .errors import InternalInvariantError
from .graph import Graph, Layering, bfs_layering, layer_view, validate_even_regular
from .trails import (BadAnalysis, Trail, TrailFamily, analyze_bad_components, choose_closed_start,
                     rotate_closed)


@dataclass(frozen=True, slots=True)
class LayerPlan:
    """Label budget of one layer: counts of within-layer, trail, link, and
    parent edges, plus the offset below which outer layers' labels live."""

    index: int
    layer_size: int
    inner_count: int
    trail_count: int
    link_count: int
    offset: int

    @property
    def inner_interval(self) -> tuple[int, int]:
        return (self.offset + 1, self.offset + self.inner_count)

    @property
    def trail_interval(self) -> tuple[int, int]:
        lo = self.offset + self.inner_count
        return (lo + 1, lo + self.trail_count)

    @property
    def link_interval(self) -> tuple[int, int]:
        lo = self.offset + self.inner_count + self.trail_count
        return (lo + 1, lo + self.link_count)

    @property
    def parent_interval(self) -> tuple[int, int]:
        lo = self.offset + self.inner_count + self.trail_count + self.link_count
        return (lo + 1, lo + self.layer_size)

    @property
    def upper(self) -> int:
        return self.parent_interval[1]

    @property
    def target_pair_sum(self) -> int:
        """Invariant value of low end + high end while trail labels are dealt."""
        return 2 * (self.offset + self.inner_count) + self.trail_count + 1

    def partial_sum_bound(self, k: int) -> int:
        """Upper bound on outer partial sums, lower bound on the next-inner
        layer's; separates consecutive layers' vertex sums."""
        return ((2 * k + 1) * (self.offset + self.inner_count)
                + (k + 1) * self.trail_count + self.link_count + k)


@dataclass(frozen=True, slots=True)
class LayerRecord:
    """What the replay reads of one layer besides its plan and the labels,
    which fix its parent edges and links: the trail units, in the order they
    were dealt.  The pair, its view and the trail stage die with the layer."""

    events: tuple["TrailEvent", ...]


@dataclass(frozen=True, slots=True)
class TrailEvent:
    """One labeling unit: a single trail or a pair of mixed trails, oriented
    as labeled.  The labels themselves are read from the labeling; the unit's
    place in the deal follows from the plan's trail interval."""

    kind: str  # closed | open-inner | open-outer | mixed-pair | mixed-last
    trails: tuple[Trail, ...]
    case: str | None  # closed units: "bad" exactly in a bad component


@dataclass(frozen=True, slots=True)
class Labeling:
    """Final per-edge labels with the per-vertex sums they give."""

    labels: tuple[int, ...]
    vertex_sums: tuple[int, ...]


@dataclass(frozen=True, slots=True)
class LabelingResult:
    graph: Graph
    k: int
    layering: Layering
    plans: dict[int, LayerPlan]
    layers: dict[int, LayerRecord]
    labeling: Labeling


def _deal(units, lo: int, hi: int, labels: list[int]) -> tuple[int, int]:
    """Deal [lo, hi] over `units`, each a (starts high, runs of edge ids)
    pair: a unit's edges take labels alternately from the two ends, from
    the high end first when it starts high.  Return the ends not dealt."""
    for high, runs in units:
        for run in runs:
            for eid in run:
                if high:
                    labels[eid] = hi
                    hi -= 1
                else:
                    labels[eid] = lo
                    lo += 1
                high = not high
    return lo, hi


def assign_parent_edges(pair: CoveringPair) -> dict[int, int]:
    """Each outer vertex's parent edge: its matching edge when matched,
    otherwise its lowest-id cross edge that is not a link edge, as the
    walk that builds the trail graph picks them."""
    return trails.residual_edge_sets(pair)[0]


def compute_interval_plan(layering: Layering, pair: CoveringPair, offset: int,
                          trail_count: int) -> LayerPlan:
    """The plan of the pair's layer, stacked on the `offset` labels of the
    layers outside it.  The layer's edges are its within-layer edges, as the
    layering lists them, and the view's cross edges: one parent edge per
    outer vertex, two edges per link, and the `trail_count` trail edges
    that the walk building the trail graph counted."""
    i = pair.view.index
    return LayerPlan(
        index=i,
        layer_size=len(layering.layers[i]),
        inner_count=len(layering.within_edges[i]),
        trail_count=trail_count,
        link_count=2 * len(pair.links),
        offset=offset,
    )


def _assign_trail_labels(pair: CoveringPair, family: TrailFamily, bad_cids: tuple[int, ...],
                         plan: LayerPlan, labels: list[int]) -> tuple[TrailEvent, ...]:
    """Deal the trail interval over the layer's trails: closed trails by
    their smallest edge id, each rotated to its start, then the open trails
    exactly as the trail stage gives them, mixed ones two to a unit."""
    events: list[TrailEvent] = []
    for trail in sorted(family.closed, key=lambda t: min(t.edges)):
        start, case = choose_closed_start(trail, trail.vertices[0] in bad_cids, pair)
        events.append(TrailEvent("closed", (rotate_closed(trail, start),), case))
    for trail in family.open_inner:
        events.append(TrailEvent("open-inner", (trail,), None))
    for trail in family.open_outer:
        events.append(TrailEvent("open-outer", (trail,), None))
    mixed = family.open_mixed
    for two in zip(mixed[0::2], mixed[1::2]):
        events.append(TrailEvent("mixed-pair", two, None))
    if len(mixed) % 2:
        events.append(TrailEvent("mixed-last", mixed[-1:], None))

    lo, hi = _deal([(ev.kind == "open-outer" or ev.case == "outer-high",
                     [t.edges for t in ev.trails]) for ev in events],
                   *plan.trail_interval, labels)
    if lo != hi + 1:
        raise InternalInvariantError(f"trail interval of layer {plan.index} not exactly consumed")
    return tuple(events)


def _assign_link_labels(pair: CoveringPair, analysis: BadAnalysis, plan: LayerPlan,
                        labels: list[int]) -> None:
    """Free links first, each dealt as one unit (low end, high end) that
    starts low; a free link with one end in a bad component has that end as
    its low end, and any other link its smaller end."""
    free_set = set(analysis.free_links)
    ordered = list(analysis.free_links) + [l for l in pair.links if l not in free_set]
    units = []
    for link in ordered:
        in_bad = [e for e in link.ends if e in analysis.bad_vertices]
        u_low = in_bad[0] if link in free_set and len(in_bad) == 1 else min(link.ends)
        u_high = link.end_b if u_low == link.end_a else link.end_a
        run = (pair.view.edge_between(link.center, u_low),
               pair.view.edge_between(link.center, u_high))
        units.append((False, (run,)))
    _deal(units, *plan.link_interval, labels)


def label_graph(graph: Graph, root: int = 0) -> LabelingResult:
    """Produce an antimagic labeling of a connected even-regular graph of
    degree at least four, deterministically for a fixed input and root."""
    k = validate_even_regular(graph)
    d = 2 * k + 1
    layering = bfs_layering(graph, root)
    p = layering.depth

    plans: dict[int, LayerPlan] = {}
    records: dict[int, LayerRecord] = {}
    labels = [0] * graph.m  # 0 until labeled; an edge left at 0 fails the bijection
    offset = lower = 0  # lower: the partial-sum bound of the layer outside (none outermost)
    for i in range(p, 0, -1):
        pair = build_covering_pair(layer_view(graph, layering, i), d)
        parent, bad_cids = None, ()  # no links, so no bad component to exchange away
        if pair.links:
            parent = assign_parent_edges(pair)
            pair, analysis = maximize_free_links(
                pair, lambda pr: analyze_bad_components(pr, parent))
            bad_cids = analysis.bad_cids
        # the final pair's trails, read off `trails` so a function replaced there runs
        parent, skip, odd, trail_count = trails.residual_edge_sets(pair, parent)
        family = trails.decompose_trails(pair.view, skip, odd, trail_count)
        plan = plans[i] = compute_interval_plan(layering, pair, offset, trail_count)
        first_parent, offset = plan.parent_interval
        for lab, eid in enumerate(layering.within_edges[i], start=plan.inner_interval[0]):
            labels[eid] = lab
        events = _assign_trail_labels(pair, family, bad_cids, plan, labels)
        if pair.links:
            _assign_link_labels(pair, analysis, plan, labels)

        # partial sums: incident labels but the parent edge's, which is
        # still 0, within the layer's bound and above the next outer
        # layer's
        upper = plan.partial_sum_bound(k)
        order = []
        for u in layering.layers[i]:
            s = 0
            for _, eid in graph.incident(u):
                s += labels[eid]
            if s > upper:
                raise InternalInvariantError(
                    f"partial sum {s} of vertex {u} exceeds its layer bound {upper}")
            if s < lower:
                raise InternalInvariantError(
                    f"partial sum {s} of vertex {u} falls below the outer layer bound {lower}")
            order.append((s, u))
        order.sort()
        for lab, (_, u) in enumerate(order, start=first_parent):
            labels[parent[u]] = lab
        lower = upper
        records[i] = LayerRecord(events)

    label_seq = tuple(labels)

    from .verify import verify_antimagic

    report = verify_antimagic(graph, label_seq, layering=layering)
    if not report.passed:
        raise InternalInvariantError(f"final verification failed: {report.first_failure}")
    labeling = Labeling(labels=label_seq, vertex_sums=report.vertex_sums)
    return LabelingResult(graph, k, layering, plans, records, labeling)
