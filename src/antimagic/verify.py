"""Independent verification: the antimagic predicate, deep structural checks
of a constructed labeling, and a randomized stress harness.

verify_antimagic judges a labeling from the edge labels alone; it never
trusts sums cached by the engine and reads no construction record.
check_construction is the one judge of a record: it replays the whole
construction and reports every violated invariant as a plain string, so
tests can assert an empty list.  Like the labeling, the replay makes one
pass from the outermost layer in: one scan of the graph files each edge,
by its ends' layers, as a within-layer edge of their layer or a cross edge
of the outer one, and each layer is then replayed once, its partial sums
computed once, so the issues come grouped by layer.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import AbstractSet, Iterator, Mapping, Sequence

from .covering import CoveringPair, Link, validate_covering_pair
from .errors import InternalInvariantError, StressFailure
from .generate import generate_regular
from .graph import Graph, Layering, format_edge_list
from .labeling import LabelingResult, LayerPlan, LayerRecord, label_graph
# Not called here: the replay finds bad components itself (_bad_components).
# The benchmark's tracer (perfbench/tracer.py) patches this module attribute,
# so the name stays until the tracer drops that patch.
from .trails import analyze_bad_components  # noqa: F401


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the checks on the labels; layer_monotone_ok is None when
    no layering was supplied."""

    bijection_ok: bool
    distinct_sums_ok: bool
    layer_monotone_ok: bool | None
    vertex_sums: tuple[int, ...]
    first_failure: str | None

    @property
    def passed(self) -> bool:
        return (self.bijection_ok and self.distinct_sums_ok
                and self.layer_monotone_ok is not False)


def _normalize_labels(graph: Graph, labels) -> list[int]:
    if isinstance(labels, Mapping):
        out = []
        for eid in range(graph.m):
            if eid not in labels:
                raise ValueError(f"edge {eid} has no label")
            out.append(labels[eid])
        return out
    seq = list(labels)
    if len(seq) != graph.m:
        raise ValueError(f"{len(seq)} labels for {graph.m} edges")
    return seq


def recompute_vertex_sums(graph: Graph, labels: Sequence[int]) -> list[int]:
    sums = [0] * graph.n
    for eid, (u, v) in enumerate(graph.edges):
        sums[u] += labels[eid]
        sums[v] += labels[eid]
    return sums


def verify_antimagic(graph: Graph, labels, layering: Layering | None = None,
                     result: LabelingResult | None = None) -> VerificationReport:
    """Check the labeling is a bijection with pairwise distinct vertex sums;
    with a layering also check layer monotonicity.  Only the labels are
    judged: check_construction judges a construction record.  `result` is
    not read; it is kept only because the benchmark's pipeline
    (perfbench/pipeline.py) passes a result as the fourth argument."""
    labels = _normalize_labels(graph, labels)
    first_failure = None

    bijection_ok = sorted(labels) == list(range(1, graph.m + 1))
    if not bijection_ok:
        first_failure = "labels are not a bijection onto the label range"

    sums = recompute_vertex_sums(graph, labels)
    seen: dict[int, int] = {}
    distinct_ok = True
    for v in range(graph.n):
        if sums[v] in seen:
            distinct_ok = False
            if first_failure is None:
                first_failure = (f"vertices {seen[sums[v]]} and {v} share vertex sum {sums[v]}")
            break
        seen[sums[v]] = v

    monotone_ok = None
    if layering is not None:
        monotone_ok = True
        at = sums.__getitem__
        for i in range(1, layering.depth + 1):
            hi = max(map(at, layering.layers[i]))
            lo = min(map(at, layering.layers[i - 1]))
            if hi >= lo:
                monotone_ok = False
                if first_failure is None:
                    first_failure = (f"layer {i} reaches vertex sum {hi}, not below "
                                     f"layer {i - 1} minimum {lo}")
                break

    return VerificationReport(
        bijection_ok=bijection_ok,
        distinct_sums_ok=distinct_ok,
        layer_monotone_ok=monotone_ok,
        vertex_sums=tuple(sums),
        first_failure=first_failure,
    )


def _layer_pair_sums(i: int, plan: LayerPlan, rec: LayerRecord,
                     labels: Sequence[int]) -> list[str]:
    """The pair-sum issues of layer i.  Each unit's trail must walk view
    edges, each between the trail vertices on either side of it, and a
    closed one must have an edge to wrap around; a layer where one does not
    gets that one issue instead, and its sums are not read."""
    ends = rec.pair.view.edge_ends
    target = plan.target_pair_sum
    anchor = plan.offset + plan.inner_count
    issues: list[str] = []
    for ev in rec.events:
        bad = ev.case == "bad"
        for trail in ev.trails:
            verts = iter(trail.vertices)
            a = next(verts)
            prev = None
            for eid, b in zip(trail.edges, verts):
                x, y = ends.get(eid, (None, None))
                inner = a == x
                if (not inner and a != y) or b != (y if inner else x):
                    return [_walk_issue(i, rec, b if a in (x, y) else a, len(labels))]
                # prev and eid meet at a, which is eid's inner end when `inner`
                if prev is not None:
                    s = labels[prev] + labels[eid]
                    if inner:
                        if s < target:
                            issues.append(
                                f"layer {i}: inner meet at {a} sums to {s}, below {target}")
                    elif bad:
                        if s != target + 1:
                            issues.append(
                                f"layer {i}: outer meet at {a} in a bad component sums "
                                f"to {s}, expected exactly {target + 1}")
                    elif s > target:
                        issues.append(f"layer {i}: outer meet at {a} sums to {s}, above {target}")
                prev, a = eid, b
            if trail.closed:
                start = trail.vertices[0]
                if not trail.edges:
                    return [f"layer {i}: closed trail unit at vertex {start} has no edges"]
                s = labels[trail.edges[-1]] + labels[trail.edges[0]]
                if bad:
                    if s > target:
                        issues.append(
                            f"layer {i}: wrap pair of a bad trail at {start} sums to {s}, "
                            f"above {target}")
                elif ev.case == "outer-high":
                    limit = 2 * anchor + 2 * plan.trail_count
                    if s > limit:
                        issues.append(
                            f"layer {i}: wrap pair at outer start {start} sums to {s}, "
                            f"above {limit}")
                else:
                    floor = 2 * anchor + 2
                    if s < floor:
                        issues.append(
                            f"layer {i}: wrap pair at inner start {start} sums to {s}, "
                            f"below {floor}")
    return issues


def _walk_issue(i: int, rec: LayerRecord, vertex: int, m: int) -> str:
    """The one issue of layer i, whose units leave their edges at `vertex`.
    An edge id outside 0..m-1 is never a view edge, so a unit naming one
    leaves its edges there or earlier, and is reported by that id."""
    stray = [eid for ev in rec.events for trail in ev.trails for eid in trail.edges
             if not 0 <= eid < m]
    if stray:
        return f"layer {i}: trail names edge id {stray[0]}, outside 0..{m - 1}"
    return f"layer {i}: trail unit does not walk its edges at vertex {vertex}"


def _bad_components(pair: CoveringPair, trail_eids: AbstractSet[int],
                    k: int) -> tuple[tuple[int, ...], frozenset[int], tuple[Link, ...]]:
    """(bad component ids ascending, their vertices, free links) of the trail
    graph of the pair's view, read off its connected components without
    walking any trail.

    A component's id is its smallest vertex, as in the trail builder, and
    the search starts each component there.  A component is bad when every
    degree is 2k and every outer vertex is a link end, so a layer without
    links has none; a link is free when at least one end lies outside every
    bad component."""
    if not pair.links:
        return (), frozenset(), ()
    adj: dict[int, list[int]] = {}
    outer: set[int] = set()
    ends = pair.view.edge_ends
    for eid in trail_eids:
        x, y = ends[eid]
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)
        outer.add(y)
    link_ends = pair.link_ends
    bad_cids: list[int] = []
    bad_vertices: set[int] = set()
    seen: set[int] = set()
    for v in sorted(adj):
        if v in seen:
            continue
        seen.add(v)
        stack = [v]
        members = []
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
    free = tuple(l for l in pair.links
                 if l.end_a not in bad_vertices or l.end_b not in bad_vertices)
    return tuple(bad_cids), frozenset(bad_vertices), free


def _replay_layer(result: LabelingResult, i: int, labels: Sequence[int], sums: Sequence[int],
                  within: Sequence[int], cross: Sequence[int], stats: dict) -> list[str]:
    """Every check of layer i: the parent map, the trail units' coverage and
    cursor replay, their pair sums, bad components, the link labels, the
    partial-sum bounds and parent order, the covering pair and its degree
    bound against 2k + 1, the cross-edge count and the interval of each of
    the layer's edges.  `within` and `cross` are its within-layer and cross
    edge ids, split from the graph by the caller.  The layer's link and
    bad-component counts and its slacks are folded into `stats`."""
    plan, rec, k = result.plans[i], result.layers[i], result.k
    pair, parent_edge, view = rec.pair, rec.parent_edge, rec.pair.view
    link_eids = pair.link_edge_ids
    issues: list[str] = []

    view_eids = view.edge_ends.keys()
    sigma_eids = set(parent_edge.values())
    valid_parents = []
    for u in view.outer:
        eid = parent_edge.get(u)
        if eid is None or eid not in view_eids or view.ends_of(eid)[1] != u:
            issues.append(f"layer {i}: vertex {u} has an invalid parent edge {eid}")
            continue
        valid_parents.append(eid)
        if pair.is_matched(u) and eid != pair.matching_edge(u):
            issues.append(f"layer {i}: matched vertex {u} does not use its matching edge")
        if eid in link_eids:
            issues.append(f"layer {i}: parent edge of vertex {u} is a link edge")
    if len(sigma_eids) != len(view.outer):
        issues.append(f"layer {i}: parent edges are not distinct")
    trail_eids = view_eids - sigma_eids - link_eids

    # the two-ended cursor from the trail interval, over the units in order
    lo, hi = plan.trail_interval
    target = plan.target_pair_sum
    unit_eids: list[int] = []
    for ev in rec.events:
        high_first = (ev.kind == "closed" and ev.case == "outer-high") or ev.kind == "open-outer"
        eids = [eid for trail in ev.trails for eid in trail.edges]
        unit_eids += eids
        for t, eid in enumerate(eids):
            if (t % 2 == 0) == high_first:
                want, hi = hi, hi - 1
            else:
                want, lo = lo, lo + 1
            # an id outside the edge range is reported by _layer_pair_sums
            if 0 <= eid < len(labels) and labels[eid] != want:
                issues.append(f"layer {i}: edge {eid} carries label {labels[eid]}, "
                              f"replay gives {want}")
        want = target if len(eids) % 2 == 0 else target + 1
        if lo + hi != want:
            issues.append(f"layer {i}: cursor identity {lo + hi} after a {ev.kind} unit, "
                          f"expected {want}")
    if lo != hi + 1:
        issues.append(f"layer {i}: trail interval not exactly consumed (cursor {(lo, hi)})")
    if sorted(unit_eids) != sorted(trail_eids):
        issues.append(f"layer {i}: trail units do not cover the trail graph exactly")
    issues += _layer_pair_sums(i, plan, rec, labels)

    bad_cids, bad_vertices, free_links = _bad_components(pair, trail_eids, k)
    if bad_cids != rec.bad_cids or free_links != rec.free_links:
        issues.append(f"layer {i}: recomputed bad components disagree with the record")
    if bad_cids:
        stats["bad_layers"] += 1
        if len(free_links) < k:
            issues.append(f"layer {i}: only {len(free_links)} free links with bad "
                          f"components present, need {k}")
    stats["links_total"] += len(pair.links)
    stats["free_links_total"] += len(free_links)

    base = plan.offset + plan.inner_count + plan.trail_count
    c = plan.link_count
    free_set = set(free_links)
    link_order = list(free_links) + [l for l in pair.links if l not in free_set]
    for idx, link in enumerate(link_order, start=1):
        in_bad = [e for e in link.ends if e in bad_vertices]
        u_low = in_bad[0] if (link in free_set and len(in_bad) == 1) else min(link.ends)
        u_high = link.end_b if u_low == link.end_a else link.end_a
        if labels[view.edge_between(link.center, u_low)] != base + idx:
            issues.append(f"layer {i}: low link edge of center {link.center} mislabeled")
        if labels[view.edge_between(link.center, u_high)] != base + c - idx + 1:
            issues.append(f"layer {i}: high link edge of center {link.center} mislabeled")
    if bad_cids:
        for link in pair.links:
            for end in link.ends:
                if end in bad_vertices:
                    lab = labels[view.edge_between(link.center, end)]
                    if lab > base + c - k:
                        issues.append(f"layer {i}: link edge into a bad component has "
                                      f"label {lab}, above {base + c - k}")

    # partial sums: each vertex sum less its parent label, at most the
    # layer's bound and at least the next outer layer's (none outermost);
    # a slack is the layer's smallest margin to one of them
    partial = {}
    for u in result.layering.layers[i]:
        eid = parent_edge.get(u)
        if eid is not None and 0 <= eid < len(labels):
            partial[u] = sums[u] - labels[eid]
        else:
            issues.append(f"layer {i}: vertex {u} has no valid parent edge for its partial sum")
    hi_slack = lo_slack = None
    if partial:
        upper = plan.partial_sum_bound(k)
        hi_slack = upper - max(partial.values())
        if hi_slack < 0:
            issues += [f"layer {i}: partial sum {s} of vertex {u} exceeds bound {upper}"
                       for u, s in sorted(partial.items()) if s > upper]
        if i < result.layering.depth:
            lower = result.plans[i + 1].partial_sum_bound(k)
            lo_slack = min(partial.values()) - lower
            if lo_slack < 0:
                issues += [f"layer {i}: partial sum {s} of vertex {u} below outer bound {lower}"
                           for u, s in sorted(partial.items()) if s < lower]
    for key, slack in (("min_upper_slack", hi_slack), ("min_lower_slack", lo_slack)):
        if slack is not None and (stats[key] is None or slack < stats[key]):
            stats[key] = slack
    # without every partial sum the parent order cannot be recomputed
    if len(partial) == len(view.outer):
        parent_order = sorted(partial, key=lambda u: (partial[u], u))
        for lab, u in enumerate(parent_order, start=plan.parent_interval[0]):
            if labels[parent_edge[u]] != lab:
                issues.append(f"layer {i}: parent edge of vertex {u} carries "
                              f"label {labels[parent_edge[u]]}, expected {lab}")

    if pair.d != 2 * k + 1:
        issues.append(f"layer {i}: covering pair degree bound {pair.d}, expected {2 * k + 1}")
    try:
        validate_covering_pair(pair)
    except InternalInvariantError as exc:
        issues.append(f"layer {i}: covering pair invalid: {exc}")

    if len(cross) != plan.layer_size + plan.trail_count + plan.link_count:
        issues.append(f"layer {i}: cross-edge count disagrees with the plan")

    # A cross edge is a parent edge when it is the record's parent edge of
    # its own outer end.  Those valid parent edges are values of the map,
    # so when there are as many of them as values they are all of them.
    parents = sigma_eids if len(valid_parents) == len(sigma_eids) else set(valid_parents)
    lo, hi = plan.inner_interval
    for eid in within:
        if not lo <= labels[eid] <= hi:
            issues.append(_interval_issue(i, eid, "within-layer", labels[eid], lo, hi))
    parent_span, link_span, trail_span = (plan.parent_interval, plan.link_interval,
                                          plan.trail_interval)
    for eid in cross:
        if eid in parents:
            bucket, (lo, hi) = "parent", parent_span
        elif eid in link_eids:
            bucket, (lo, hi) = "link", link_span
        else:
            bucket, (lo, hi) = "trail", trail_span
        if not lo <= labels[eid] <= hi:
            issues.append(_interval_issue(i, eid, bucket, labels[eid], lo, hi))
    return issues


def _interval_issue(i: int, eid: int, bucket: str, label: int, lo: int, hi: int) -> str:
    return (f"edge {eid} is a {bucket} edge of layer {i} but carries "
            f"label {label} outside [{lo}, {hi}]")


def check_construction(result: LabelingResult) -> tuple[list[str], dict]:
    """Replay the whole construction record, one layer at a time from the
    outermost in.  Returns the list of violated invariants (empty when clean),
    grouped by layer, and summary statistics, including the bijection,
    distinct-sums and layer-monotone flags of verify_antimagic, whose first
    failure, if any, is the first issue.  It is the one judge of a record;
    verify_antimagic reads none.  A label sequence that is not one label
    per edge is one issue; only the plan's intervals are checked then,
    since every other check reads labels by edge id."""
    labels = list(result.labeling.labels)
    g, lay = result.graph, result.layering
    issues: list[str] = []
    stats = {"bad_layers": 0, "links_total": 0, "free_links_total": 0,
             "min_upper_slack": None, "min_lower_slack": None}

    report = None
    if len(labels) == g.m:
        report = verify_antimagic(g, labels, layering=lay)
        if not report.passed:
            issues.append(report.first_failure)
        if tuple(report.vertex_sums) != result.labeling.vertex_sums:
            issues.append("cached vertex sums disagree with recomputation")
    else:
        issues.append(f"{len(labels)} labels for {g.m} edges")

    layer_of = lay.layer_of
    within: list[list[int]] = [[] for _ in range(lay.depth + 1)]
    cross: list[list[int]] = [[] for _ in range(lay.depth + 1)]
    for eid, (u, v) in enumerate(g.edges):
        lu, lv = layer_of[u], layer_of[v]
        if lu == lv:
            within[lu].append(eid)
        else:
            cross[lu if lu > lv else lv].append(eid)  # cheaper than max()

    expected = 1
    for i in range(lay.depth, 0, -1):
        plan = result.plans[i]
        for lo, hi in (plan.inner_interval, plan.trail_interval,
                       plan.link_interval, plan.parent_interval):
            if lo != expected:
                issues.append(f"layer {i}: interval starts at {lo}, expected {expected}")
            expected = max(expected, hi + 1)
        if report is not None:
            issues += _replay_layer(result, i, labels, report.vertex_sums, within[i], cross[i],
                                    stats)
    if expected != g.m + 1:
        issues.append("intervals do not partition the label range")

    if report is None:  # not one label per edge: no bijection, sums unchecked
        stats.update(bijection_ok=False, distinct_sums_ok=None, layer_monotone_ok=None)
    else:
        stats.update(bijection_ok=report.bijection_ok, distinct_sums_ok=report.distinct_sums_ok,
                     layer_monotone_ok=report.layer_monotone_ok)
    return issues, stats


@dataclass(frozen=True)
class StressSummary:
    count: int
    passed: int
    seconds: float
    min_upper_slack: int | None
    min_lower_slack: int | None
    bad_component_instances: int
    instances_with_links: int

    def describe(self) -> str:
        lines = [f"stress: {self.passed}/{self.count} passed"]
        if self.min_upper_slack is not None:
            lines.append(f"tightest upper partial-sum slack: {self.min_upper_slack}")
        if self.min_lower_slack is not None:
            lines.append(f"tightest lower partial-sum slack: {self.min_lower_slack}")
        lines.append(f"instances with links: {self.instances_with_links}")
        lines.append(f"instances with bad components: {self.bad_component_instances}")
        return "\n".join(lines) + "\n"


def _serialize_instance(graph: Graph, n: int, degree: int, seed: int) -> str:
    return f"# n={n} degree={degree} seed={seed}\n{format_edge_list(graph)}"


def stress_instances(count: int, n_min: int, n_max: int, degrees: Sequence[int],
                     seed: int) -> Iterator[tuple[int, int, int, int, Graph]]:
    """The seeded instance stream of `stress`: (index, n, degree, generator
    seed, graph) for each instance, degrees cycling through `degrees`."""
    rng = random.Random(seed)
    for idx in range(count):
        degree = degrees[idx % len(degrees)]
        lo = max(degree + 1, n_min)
        hi = max(lo, n_max)
        n = rng.randrange(lo, hi + 1)
        gseed = rng.randrange(1 << 30)
        yield idx, n, degree, gseed, generate_regular(n, degree, gseed)


def stress(count: int, n_min: int, n_max: int, degrees: Sequence[int], seed: int) -> StressSummary:
    """Generate, label, and deeply verify random regular graphs; any failure
    raises StressFailure carrying a reproducible instance."""
    for degree in degrees:
        if degree % 2 or degree < 4:
            raise ValueError(f"degree {degree} out of scope; need even degree >= 4")
    if count < 0:
        raise ValueError("count must be nonnegative")
    t0 = time.monotonic()
    passed = 0
    min_hi: int | None = None
    min_lo: int | None = None
    bad_instances = 0
    link_instances = 0
    for idx, n, degree, gseed, graph in stress_instances(count, n_min, n_max, degrees, seed):
        info = f"instance {idx} (n={n}, degree={degree}, seed={gseed})"
        try:
            result = label_graph(graph)
        except InternalInvariantError as exc:
            raise StressFailure(f"{info}: {exc}",
                                _serialize_instance(graph, n, degree, gseed)) from exc
        issues, stats = check_construction(result)
        if issues:
            raise StressFailure(f"{info}: {issues[0]}",
                                _serialize_instance(graph, n, degree, gseed))
        passed += 1
        if stats["min_upper_slack"] is not None:
            min_hi = stats["min_upper_slack"] if min_hi is None else min(min_hi, stats["min_upper_slack"])
        if stats["min_lower_slack"] is not None:
            min_lo = stats["min_lower_slack"] if min_lo is None else min(min_lo, stats["min_lower_slack"])
        if stats["bad_layers"]:
            bad_instances += 1
        if stats["links_total"]:
            link_instances += 1
    return StressSummary(
        count=count,
        passed=passed,
        seconds=time.monotonic() - t0,
        min_upper_slack=min_hi,
        min_lower_slack=min_lo,
        bad_component_instances=bad_instances,
        instances_with_links=link_instances,
    )
