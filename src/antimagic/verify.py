"""Independent verification: the antimagic predicate, deep structural checks
of a constructed labeling, and a randomized stress harness.

verify_antimagic judges a labeling from the edge labels alone; it never
trusts sums cached by the engine and reads no construction record.
check_construction is the one judge of a record: it replays the whole
construction and reports every violated invariant as a plain string, so
tests can assert an empty list.  Like the labeling, the replay makes one
pass from the outermost layer in: one scan of the graph files each edge,
by its ends' layers, as a within-layer edge of their layer or a cross edge
of the outer one with its (inner, outer) ends.  Each layer's edges, ends
and plan counts come from that scan, its link edges from the graph's
incidence, and the covering pair's links and matching are judged on the
scan's facts, with no view.  Layers replay once each, so issues group by layer.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import AbstractSet, Iterator, Mapping, Sequence

from .covering import Link
from .errors import InternalInvariantError, StressFailure
from .generate import generate_regular
from .graph import Graph, Layering, format_edge_list
from .labeling import LabelingResult, LayerPlan, LayerRecord, label_graph
# Not called here: the replay checks the covering pair and finds bad components
# itself.  The benchmark's tracer (perfbench/tracer.py) patches these module
# attributes, so the names stay until the tracer drops those patches.
from .covering import validate_covering_pair  # noqa: F401
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
        lo = float("inf")  # no layer before layer 0
        for i, layer in enumerate(layering.layers):
            hi = max(map(at, layer), default=None)  # None: empty, never so in a BFS layering
            if hi is None or hi >= lo:
                monotone_ok = False
                if first_failure is None:
                    first_failure = (f"layer {i} is empty" if hi is None else
                                     f"layer {i} reaches vertex sum {hi}, not below "
                                     f"layer {i - 1} minimum {lo}")
                break
            lo = min(map(at, layer))

    return VerificationReport(
        bijection_ok=bijection_ok,
        distinct_sums_ok=distinct_ok,
        layer_monotone_ok=monotone_ok,
        vertex_sums=tuple(sums),
        first_failure=first_failure,
    )


def _layer_pair_sums(i: int, plan: LayerPlan, rec: LayerRecord,
                     ends: Mapping[int, tuple[int, int]], labels: Sequence[int]) -> list[str]:
    """The pair-sum issues of layer i.  Each unit's trail must walk cross
    edges, by their `ends`, each between the trail vertices on either side of
    it, and a closed one must have an edge to wrap around; a layer where one
    does not gets that one issue instead, and its sums are not read."""
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
    An edge id outside 0..m-1 is never a cross edge, so a unit naming one
    leaves its edges there or earlier, and is reported by that id."""
    stray = [eid for ev in rec.events for trail in ev.trails for eid in trail.edges
             if not 0 <= eid < m]
    if stray:
        return f"layer {i}: trail names edge id {stray[0]}, outside 0..{m - 1}"
    return f"layer {i}: trail unit does not walk its edges at vertex {vertex}"


def _bad_components(links: Sequence[Link], link_ends: AbstractSet[int],
                    ends: Mapping[int, tuple[int, int]], trail_eids: AbstractSet[int],
                    k: int) -> tuple[tuple[int, ...], frozenset[int], tuple[Link, ...]]:
    """(bad component ids ascending, their vertices, free links) of the trail
    graph on `trail_eids`, by their `ends`, read off its connected components
    without walking any trail.

    A component's id is its smallest vertex, as in the trail builder, and
    the search starts each component there.  A component is bad when every
    degree is 2k and every outer vertex is one of the `link_ends`, so a
    layer without links has none; a link is free when at least one end lies
    outside every bad component."""
    if not links:
        return (), frozenset(), ()
    adj: dict[int, list[int]] = {}
    outer: set[int] = set()
    for eid in trail_eids:
        x, y = ends[eid]
        adj.setdefault(x, []).append(y)
        adj.setdefault(y, []).append(x)
        outer.add(y)
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
    free = tuple(l for l in links if l.end_a not in bad_vertices or l.end_b not in bad_vertices)
    return tuple(bad_cids), frozenset(bad_vertices), free


def _replay_layer(result: LabelingResult, i: int, labels: Sequence[int], sums: Sequence[int],
                  within: Sequence[int], ends: Mapping[int, tuple[int, int]],
                  outdeg: Sequence[int], stats: dict) -> list[str]:
    """Every check of layer i past its plan, on its share of the caller's
    scan: link edges, the covering pair, parent map, trail coverage, cursor
    and pair sums, bad components, link labels, partial sums and parent
    order, and each within-layer edge's interval.  Parent order, link labels
    and cursor pin every cross-edge label; tallies go to `stats`."""
    plan, rec, k, g = result.plans[i], result.layers[i], result.k, result.graph
    links, parent_edge, layer = rec.links, rec.parent_edge, result.layering.layers[i]
    d = 2 * k + 1
    issues: list[str] = []

    # the covering pair's invariants (validate_covering_pair) on the scan's facts
    match_of: dict[int, int] = {}
    for eid in sorted(rec.matching):
        x, y = ends.get(eid, (None, None))
        if x is None:
            issues.append(f"layer {i}: matching edge {eid} is not a cross edge of the layer")
        elif x in match_of or y in match_of:
            issues.append(f"layer {i}: matching edges share a vertex at edge {eid}")
        else:
            match_of[x] = match_of[y] = eid
    link_edge: dict[tuple[int, int], int] = {}
    for link in links:
        c = link.center
        at = g.incident(c) if 0 <= c < g.n else ()
        for end in link.ends:
            eid = next((e for w, e in at if w == end), None)
            if ends.get(eid) != (c, end):
                return [f"layer {i}: link at center {c} has no cross edge to {end}"]
            link_edge[c, end] = eid
        if outdeg[c] != d:
            issues.append(f"layer {i}: link center {c} has {outdeg[c]} outward edges, not {d}")
        if c in match_of:
            issues.append(f"layer {i}: link center {c} is also matched")
        issues += [f"layer {i}: neighbor {w} of link center {c} is unmatched"
                   for w, eid in at if eid in ends and w not in match_of]
    centers, link_ends = {c for c, _ in link_edge}, {end for _, end in link_edge}
    if len(centers) + len(link_ends) != 3 * len(links):
        issues.append(f"layer {i}: links share a vertex")
    issues += [f"layer {i}: full-degree inner vertex {x} is uncovered"
               for x in result.layering.layers[i - 1]
               if outdeg[x] == d and x not in match_of and x not in centers]
    link_eids = set(link_edge.values())

    sigma_eids = set(parent_edge.values())
    for u in layer:
        eid = parent_edge.get(u)
        if eid is None or ends.get(eid, (None, None))[1] != u:
            issues.append(f"layer {i}: vertex {u} has an invalid parent edge {eid}")
            continue
        if u in match_of and eid != match_of[u]:
            issues.append(f"layer {i}: matched vertex {u} does not use its matching edge")
        if eid in link_eids:
            issues.append(f"layer {i}: parent edge of vertex {u} is a link edge")
    if len(sigma_eids) != len(layer):
        issues.append(f"layer {i}: parent edges are not distinct")
    trail_eids = ends.keys() - sigma_eids - link_eids

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
    issues += _layer_pair_sums(i, plan, rec, ends, labels)

    bad_cids, bad_vertices, free_links = _bad_components(links, link_ends, ends, trail_eids, k)
    if bad_cids != rec.bad_cids or free_links != rec.free_links:
        issues.append(f"layer {i}: recomputed bad components disagree with the record")
    if bad_cids:
        stats["bad_layers"] += 1
        if len(free_links) < k:
            issues.append(f"layer {i}: only {len(free_links)} free links with bad "
                          f"components present, need {k}")
    stats["links_total"] += len(links)
    stats["free_links_total"] += len(free_links)

    base = plan.offset + plan.inner_count + plan.trail_count
    c = plan.link_count
    free_set = set(free_links)
    link_order = list(free_links) + [l for l in links if l not in free_set]
    for idx, link in enumerate(link_order, start=1):
        in_bad = [e for e in link.ends if e in bad_vertices]
        u_low = in_bad[0] if (link in free_set and len(in_bad) == 1) else min(link.ends)
        u_high = link.end_b if u_low == link.end_a else link.end_a
        if labels[link_edge[link.center, u_low]] != base + idx:
            issues.append(f"layer {i}: low link edge of center {link.center} mislabeled")
        if labels[link_edge[link.center, u_high]] != base + c - idx + 1:
            issues.append(f"layer {i}: high link edge of center {link.center} mislabeled")
    if bad_cids:
        for link in links:
            for end in link.ends:
                if end in bad_vertices:
                    lab = labels[link_edge[link.center, end]]
                    if lab > base + c - k:
                        issues.append(f"layer {i}: link edge into a bad component has "
                                      f"label {lab}, above {base + c - k}")

    # partial sums: each vertex sum less its parent label, at most the
    # layer's bound and at least the next outer layer's (none outermost or
    # unplanned); a slack is the layer's smallest margin to one of them
    partial = {}
    for u in layer:
        eid = parent_edge.get(u)
        if eid is not None and 0 <= eid < len(labels):
            partial[u] = sums[u] - labels[eid]
        else:
            issues.append(f"layer {i}: vertex {u} has no valid parent edge for its partial sum")
    hi_slack = lo_slack = None
    outer_plan = result.plans.get(i + 1) if i < result.layering.depth else None
    if partial:
        upper = plan.partial_sum_bound(k)
        hi_slack = upper - max(partial.values())
        if hi_slack < 0:
            issues += [f"layer {i}: partial sum {s} of vertex {u} exceeds bound {upper}"
                       for u, s in sorted(partial.items()) if s > upper]
        if outer_plan is not None:
            lower = outer_plan.partial_sum_bound(k)
            lo_slack = min(partial.values()) - lower
            if lo_slack < 0:
                issues += [f"layer {i}: partial sum {s} of vertex {u} below outer bound {lower}"
                           for u, s in sorted(partial.items()) if s < lower]
    for key, slack in (("min_upper_slack", hi_slack), ("min_lower_slack", lo_slack)):
        if slack is not None and (stats[key] is None or slack < stats[key]):
            stats[key] = slack
    # without every partial sum the parent order cannot be recomputed
    if len(partial) == len(layer):
        parent_order = sorted(partial, key=lambda u: (partial[u], u))
        for lab, u in enumerate(parent_order, start=plan.parent_interval[0]):
            if labels[parent_edge[u]] != lab:
                issues.append(f"layer {i}: parent edge of vertex {u} carries "
                              f"label {labels[parent_edge[u]]}, expected {lab}")

    lo, hi = plan.inner_interval
    issues += [f"edge {eid} is a within-layer edge of layer {i} but carries label {labels[eid]} "
               f"outside [{lo}, {hi}]" for eid in within if not lo <= labels[eid] <= hi]
    return issues


def check_construction(result: LabelingResult) -> tuple[list[str], dict]:
    """Replay the whole construction record, one layer at a time from the
    outermost in.  Returns the list of violated invariants (empty when clean),
    grouped by layer, and summary statistics, including the bijection,
    distinct-sums and layer-monotone flags of verify_antimagic, whose first
    failure, if any, is the first issue; a misplaced vertex in the layering
    is the one issue, and unchecked flags are None.  A layer whose plan
    differs, field by field, from its own counts and the labels of the layers
    outside it, or that has no plan or layer record, gets that one issue.  A
    label sequence that is not one label per edge is one issue; only the
    plans are checked then, since every other check reads labels by edge id."""
    labels = list(result.labeling.labels)
    g, lay = result.graph, result.layering
    issues: list[str] = []
    stats = {"bad_layers": 0, "links_total": 0, "free_links_total": 0,
             "min_upper_slack": None, "min_lower_slack": None}

    # each vertex listed once, in its layer_of layer: with the root check, the
    # parent edges and no edge skipping a layer, the layers are BFS distances
    listed = {v: i for i, layer in enumerate(lay.layers) for v in layer}
    if (not len(listed) == sum(map(len, lay.layers)) == g.n
            or listed != dict(enumerate(lay.layer_of))):
        stats.update(bijection_ok=None, distinct_sums_ok=None, layer_monotone_ok=None)
        return ["the layering does not list each vertex once, in its layer_of layer"], stats

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
    cross: list[dict[int, tuple[int, int]]] = [{} for _ in range(lay.depth + 1)]
    outdeg = [0] * g.n  # how many cross edges join each vertex to the next layer out
    for eid, e in enumerate(g.edges):
        u, v = e
        lu, lv = layer_of[u], layer_of[v]
        if lu == lv:
            within[lu].append(eid)
        elif lu + 1 == lv:  # the graph's own (inner, outer) tuple
            cross[lv][eid] = e
            outdeg[u] += 1
        elif lv + 1 == lu:
            cross[lu][eid] = (v, u)
            outdeg[v] += 1
        else:
            issues.append(f"edge {eid} joins layers {lu} and {lv}, which are not adjacent")

    offset = 0  # how many labels the layers outside layer i use
    for i in range(lay.depth, 0, -1):
        plan, rec = result.plans.get(i), result.layers.get(i)
        if plan is None or rec is None:
            missing = "plan" if plan is None else "layer record"
            issues.append(f"layer {i}: the record has no {missing}")
        else:
            size, links = len(lay.layers[i]), 2 * len(rec.links)
            counts = (i, size, len(within[i]), len(cross[i]) - size - links, links, offset)
            recorded = (plan.index, plan.layer_size, plan.inner_count, plan.trail_count,
                        plan.link_count, plan.offset)
            if recorded != counts:
                issues.append(f"layer {i}: plan (index, layer size, inner, trail, link, "
                              f"offset) {recorded}, the layer's counts give {counts}")
            elif report is not None:
                issues += _replay_layer(result, i, labels, report.vertex_sums, within[i],
                                        cross[i], outdeg, stats)
        offset += len(within[i]) + len(cross[i])
    # with the root alone in layer 0, which holds no within-layer edge, the
    # stacked plans cover every label once
    if lay.layers[0] != (result.root,):
        issues.append(f"layer 0: holds {lay.layers[0]}, not the root {result.root} alone")

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
        n = rng.randrange(lo, max(lo, n_max) + 1)
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
    runs = []  # each instance's replay statistics
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
        runs.append(stats)
    tightest = {key: min((s[key] for s in runs if s[key] is not None), default=None)
                for key in ("min_upper_slack", "min_lower_slack")}
    return StressSummary(
        count=count,
        passed=len(runs),
        seconds=time.monotonic() - t0,
        min_upper_slack=tightest["min_upper_slack"],
        min_lower_slack=tightest["min_lower_slack"],
        bad_component_instances=sum(bool(s["bad_layers"]) for s in runs),
        instances_with_links=sum(bool(s["links_total"]) for s in runs),
    )
