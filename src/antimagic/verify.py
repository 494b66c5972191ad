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
and plan counts come from that scan, and its parent edges and links from
the labels its cross edges carry in the plan's intervals; the covering pair
is judged on them, by a matching that must exist among the parent edges,
with no view.  Layers replay once each, so issues group by layer.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import AbstractSet, Iterator, Mapping, Sequence

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
    if isinstance(labels, Mapping):  # judged by its keys it would not be a bijection
        raise TypeError("labels must be a sequence by edge id, not a mapping")
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

    # m labels that take each of the m values 1..m are a bijection onto them
    bijection_ok = set(labels).issuperset(range(1, graph.m + 1))
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
                    # a unit naming an id outside the edge range leaves its edges there
                    m = len(labels)
                    stray = [e for ev in rec.events for t in ev.trails for e in t.edges
                             if not 0 <= e < m]
                    return [f"layer {i}: trail names edge id {stray[0]}, outside 0..{m - 1}"
                            if stray else f"layer {i}: trail unit does not walk its edges "
                            f"at vertex {b if a in (x, y) else a}"]
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


def _bad_components(g: Graph, link_ends: AbstractSet[int], trail_eids: AbstractSet[int],
                    k: int) -> tuple[tuple[int, ...], frozenset[int]]:
    """(bad component ids ascending, their vertices) of the trail graph on
    `trail_eids`, read from the trail edges at the `link_ends` alone.

    A component is bad when every degree is 2k and every outer vertex is one
    of the `link_ends`, so a layer without links has none, and a bad one's
    edges are exactly the trail edges at its ends.  So a component of those
    edges is bad when each of its vertices has 2k of them and each inner one
    no other trail edge in `g`.  Its id is its smallest vertex, as in the
    trail builder."""
    adj: dict[int, list[int]] = {}
    for y in link_ends:
        for x, eid in g.incident(y):
            if eid in trail_eids:
                adj.setdefault(y, []).append(x)
                adj.setdefault(x, []).append(y)
    bad_cids: list[int] = []
    bad_vertices: set[int] = set()
    seen: set[int] = set()
    for v in adj:
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
        if all(len(adj[u]) == 2 * k and (u in link_ends or 2 * k == sum(
                eid in trail_eids for _, eid in g.incident(u))) for u in members):
            bad_cids.append(min(members))
            bad_vertices.update(members)
    return tuple(sorted(bad_cids)), frozenset(bad_vertices)


def _read_labels(plan: LayerPlan, ends: Mapping[int, tuple[int, int]], labels: Sequence[int]):
    """What a layer's labels fix, from its cross edges `ends` in id order:
    (each outer vertex's parent edge, labeled in the parent interval, where a
    vertex with two leaves another with none; the other non-link edges; the
    links (center, low end, high end), labeled lo + j and hi - j in the link
    interval, or the first such pair, equal for an odd count, not at one
    inner vertex; each outer vertex's lowest-id non-link edge)."""
    lo, hi = plan.link_interval
    top = hi + plan.layer_size  # the parent interval is (hi, top]
    parent, link_at, first = {}, {}, {}
    for eid, (_, y) in ends.items():  # plain compares: chained ones cost more here
        lab = labels[eid]
        if lab < lo:
            if y not in first:
                first[y] = eid
        elif lab > hi:
            if y not in first:
                first[y] = eid
            if lab <= top:
                parent[y] = eid
        else:
            link_at[lab] = eid
    links: list[tuple[int, int, int]] | tuple[int, int] = []
    for j in range((plan.link_count + 1) // 2):
        a, b = link_at.get(lo + j), link_at.get(hi - j)
        if a is None or b is None or a == b or ends[a][0] != ends[b][0]:
            links = (lo + j, hi - j)
            break
        links.append((*ends[a], ends[b][1]))
    return parent, (ends.keys() - parent.values()).difference(link_at.values()), links, first


def _replay_layer(result: LabelingResult, i: int, labels: Sequence[int], sums: Sequence[int],
                  within: Sequence[int], ends: Mapping[int, tuple[int, int]],
                  outdeg: Sequence[int], stats: dict) -> list[str]:
    """Every check of layer i past its plan, on its share of the caller's scan
    and the parent edges and links its labels fix: the covering pair, trail
    coverage, cursor and pair sums, bad components, link rules, partial sums,
    parent order and within-layer intervals.  These pin each cross-edge label
    up to the order among free links and among the rest; tallies go to `stats`."""
    plan, rec, k, g = result.plans[i], result.layers[i], result.k, result.graph
    layer = result.layering.layers[i]
    d = 2 * k + 1
    parent, trail_eids, links, first = _read_labels(plan, ends, labels)
    if isinstance(links, tuple):
        return [f"layer {i}: link labels {links[0]} and {links[1]} are not two cross edges "
                f"at one inner vertex"]
    issues = [f"layer {i}: vertex {u} has no cross edge labeled in the parent interval"
              for u in layer if u not in parent]

    # the covering pair's invariants (validate_covering_pair), with a matching
    # that must exist among the parent edges: it holds the parent edge of each
    # outer vertex next to a center or not on its lowest-id non-link edge
    centers = link_ends = near = frozenset()  # near: the centers' outer neighbors
    if links:
        centers = {c for c, _, _ in links}
        link_ends = {end for _, a, b in links for end in (a, b)}
        if len(centers) + len(link_ends) != 3 * len(links):
            issues.append(f"layer {i}: links share a vertex")
        issues += [f"layer {i}: link center {c} has {outdeg[c]} outward edges, not {d}"
                   for c in sorted(centers) if outdeg[c] != d]
        near = {w for c in centers for w, eid in g.incident(c) if eid in ends}
    forced: dict[int, int] = {}  # inner end of a forced parent edge -> its outer end
    for u, eid in parent.items():
        if u in near or eid != first[u]:
            x = ends[eid][0]
            if x in centers:
                issues.append(f"layer {i}: parent edge of vertex {u} ends at link center {x}")
            elif x in forced:
                issues.append(f"layer {i}: forced parent edges of vertices {forced[x]} and {u} "
                              f"meet at inner vertex {x}")
            forced[x] = u
    full = [x for x in result.layering.layers[i - 1] if outdeg[x] == d and x not in centers]
    covered = {ends[eid][0] for eid in parent.values()} if full else ()
    issues += [f"layer {i}: full-degree inner vertex {x} is no link center and has no "
               f"parent edge" for x in full if x not in covered]

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
    if len(unit_eids) != len(trail_eids) or set(unit_eids) != trail_eids:
        issues.append(f"layer {i}: trail units do not cover the trail graph exactly")
    issues += _layer_pair_sums(i, plan, rec, ends, labels)

    # the link rules, in interval order: free links (an end outside every bad
    # component) first; a free link with one end in a bad component has that
    # end low, any other its smaller end; a link edge into one is at most top
    bad_cids, bad_vertices = _bad_components(g, link_ends, trail_eids, k)
    lo, hi = plan.link_interval
    top, free = hi - k, 0
    for j, (c, low, high) in enumerate(links):
        in_bad = [end for end in (low, high) if end in bad_vertices]
        free += len(in_bad) < 2
        if len(in_bad) < 2 and free <= j:
            issues.append(f"layer {i}: free link at center {c} follows a link that is not free")
        want = in_bad[0] if len(in_bad) == 1 else min(low, high)
        if low != want:
            issues.append(f"layer {i}: link at center {c} has its low label at end {low}, "
                          f"not {want}")
        issues += [f"layer {i}: link edge into a bad component has label {lab}, above {top}"
                   for end, lab in ((low, lo + j), (high, hi - j))
                   if end in bad_vertices and lab > top]
    if bad_cids:
        stats["bad_layers"] += 1
        if free < k:
            issues.append(f"layer {i}: only {free} free links with bad components present, "
                          f"need {k}")
    stats["links_total"] += len(links)
    stats["free_links_total"] += free

    # partial sums: each vertex sum less its parent label, at most the
    # layer's bound and at least the next outer layer's (none outermost or
    # unplanned); a slack is the layer's smallest margin to one of them.  A
    # vertex without a parent edge, already reported, has none
    partial = {u: sums[u] - labels[eid] for u, eid in parent.items()}
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
            if labels[parent[u]] != lab:
                issues.append(f"layer {i}: parent edge of vertex {u} carries "
                              f"label {labels[parent[u]]}, expected {lab}")

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
            size, links = len(lay.layers[i]), plan.link_count
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
    if lay.layers[0] != (lay.root,):
        issues.append(f"layer 0: holds {lay.layers[0]}, not the root {lay.root} alone")

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
        n = rng.randrange(max(degree + 1, n_min), n_max + 1)
        gseed = rng.randrange(1 << 30)
        yield idx, n, degree, gseed, generate_regular(n, degree, gseed)


def stress(count: int, n_min: int, n_max: int, degrees: Sequence[int], seed: int) -> StressSummary:
    """Generate, label, and deeply verify random regular graphs; any failure
    raises StressFailure carrying a reproducible instance."""
    for degree in degrees:
        if degree % 2 or degree < 4:
            raise ValueError(f"degree {degree} out of scope; need even degree >= 4")
        if degree >= n_max:
            raise ValueError(f"degree {degree} needs {degree + 1} vertices, above --n {n_max}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    if n_min > n_max:
        raise ValueError(f"smallest vertex count {n_min} is above the largest, {n_max}")
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
