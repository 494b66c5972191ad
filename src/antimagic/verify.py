"""Independent verification: the antimagic predicate, deep structural checks
of a constructed labeling, and a randomized stress harness.

verify_antimagic recomputes everything from the edge labels alone; it never
trusts sums cached by the engine.  check_construction replays the whole
construction record and reports every violated invariant as a plain string,
so tests can assert an empty list.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import AbstractSet, Iterator, Mapping, Sequence

from .covering import CoveringPair, Link, validate_covering_pair
from .errors import InternalInvariantError, StressFailure
from .generate import generate_regular
from .graph import BipartiteView, Graph, Layering, format_edge_list
from .labeling import LabelingResult, label_graph
# Not called here: the replay finds bad components itself (_bad_components).
# The benchmark's tracer (perfbench/tracer.py) patches this module attribute,
# so the name stays until the tracer drops that patch.
from .trails import analyze_bad_components  # noqa: F401


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the independent checks; fields are None when the check was
    not applicable (no layering or construction record supplied)."""

    bijection_ok: bool
    distinct_sums_ok: bool
    layer_monotone_ok: bool | None
    inequality_ok: bool | None
    pair_sum_ok: bool | None
    vertex_sums: tuple[int, ...]
    first_failure: str | None

    @property
    def passed(self) -> bool:
        checks = (self.bijection_ok, self.distinct_sums_ok, self.layer_monotone_ok,
                  self.inequality_ok, self.pair_sum_ok)
        return all(c is not False for c in checks)


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
    with a layering also check layer monotonicity, and with a full construction
    record also recheck the partial-sum inequalities and trail pair sums."""
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
        for i in range(1, layering.depth + 1):
            hi = max(sums[v] for v in layering.layers[i])
            lo = min(sums[v] for v in layering.layers[i - 1])
            if hi >= lo:
                monotone_ok = False
                if first_failure is None:
                    first_failure = (f"layer {i} reaches vertex sum {hi}, not below "
                                     f"layer {i - 1} minimum {lo}")
                break

    inequality_ok = None
    pair_sum_ok = None
    if result is not None:
        ineq_issues, _, _ = _check_inequalities(result, labels, sums)
        inequality_ok = not ineq_issues
        pair_issues = _check_pair_sums(result, labels)
        pair_sum_ok = not pair_issues
        if first_failure is None and ineq_issues:
            first_failure = ineq_issues[0]
        if first_failure is None and pair_issues:
            first_failure = pair_issues[0]

    return VerificationReport(
        bijection_ok=bijection_ok,
        distinct_sums_ok=distinct_ok,
        layer_monotone_ok=monotone_ok,
        inequality_ok=inequality_ok,
        pair_sum_ok=pair_sum_ok,
        vertex_sums=tuple(sums),
        first_failure=first_failure,
    )


def _partial_sums_from_labels(result: LabelingResult, labels: Sequence[int],
                              sums: Sequence[int], index: int) -> dict[int, int]:
    """Partial sums of layer `index`: each vertex sum, recomputed from the
    labels by the caller, minus the label of the vertex's parent edge."""
    parent_edge = result.layers[index].parent_edge
    return {u: sums[u] - labels[parent_edge[u]] for u in result.layering.layers[index]}


def _check_inequalities(result: LabelingResult, labels: Sequence[int], sums: Sequence[int]):
    """Recheck the per-layer partial-sum bounds from the labels alone, given
    the vertex sums recomputed from them.
    Returns (issues, smallest upper slack, smallest lower slack)."""
    issues: list[str] = []
    min_hi_slack: int | None = None
    min_lo_slack: int | None = None
    p = result.layering.depth
    for i in range(1, p + 1):
        plan = result.plans[i]
        bound = plan.partial_sum_bound(result.k)
        partial = _partial_sums_from_labels(result, labels, sums, i)
        for u, s in sorted(partial.items()):
            slack = bound - s
            if min_hi_slack is None or slack < min_hi_slack:
                min_hi_slack = slack
            if slack < 0:
                issues.append(f"layer {i}: partial sum {s} of vertex {u} exceeds bound {bound}")
        if i < p:
            lower = result.plans[i + 1].partial_sum_bound(result.k)
            for u, s in sorted(partial.items()):
                slack = s - lower
                if min_lo_slack is None or slack < min_lo_slack:
                    min_lo_slack = slack
                if slack < 0:
                    issues.append(
                        f"layer {i}: partial sum {s} of vertex {u} below outer bound {lower}")
    return issues, min_hi_slack, min_lo_slack


def _check_pair_sums(result: LabelingResult, labels: Sequence[int]) -> list[str]:
    """Consecutive trail edges must sum at or above the layer target when they
    meet at an inner vertex and at or below it at an outer vertex.  Exceptions:
    the wrap-around pair of a closed trail (bounded, not exact), and outer
    meets inside bad components, which sit exactly one above the target."""
    issues: list[str] = []
    for i in range(1, result.layering.depth + 1):
        plan = result.plans[i]
        rec = result.layers[i]
        view = rec.view
        target = plan.target_pair_sum
        anchor = plan.offset + plan.inner_count
        for ev in rec.events:
            for trail in ev.trails:
                for pos in range(trail.edge_count - 1):
                    s = labels[trail.edges[pos]] + labels[trail.edges[pos + 1]]
                    meet = trail.vertices[pos + 1]
                    side = view.side(meet)
                    if ev.bad and side == "outer":
                        if s != target + 1:
                            issues.append(
                                f"layer {i}: outer meet at {meet} in a bad component sums "
                                f"to {s}, expected exactly {target + 1}")
                    elif side == "inner":
                        if s < target:
                            issues.append(
                                f"layer {i}: inner meet at {meet} sums to {s}, below {target}")
                    else:
                        if s > target:
                            issues.append(
                                f"layer {i}: outer meet at {meet} sums to {s}, above {target}")
                if trail.closed:
                    s = labels[trail.edges[-1]] + labels[trail.edges[0]]
                    start = trail.vertices[0]
                    if ev.bad or ev.case == "bad":
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


def _check_trail_events(result: LabelingResult, labels: Sequence[int]) -> list[str]:
    """Replay the two-ended cursor and confirm the recorded labels, the cursor
    identity after every unit, and exact consumption of each trail interval."""
    issues: list[str] = []
    for i in range(1, result.layering.depth + 1):
        plan = result.plans[i]
        rec = result.layers[i]
        lo, hi = plan.trail_interval
        target = plan.target_pair_sum
        for ev in rec.events:
            if (lo, hi) != ev.cursor_before:
                issues.append(f"layer {i}: {ev.kind} unit started at cursor {ev.cursor_before}, "
                              f"expected {(lo, hi)}")
                lo, hi = ev.cursor_before
            high_first = (ev.kind == "closed" and ev.case == "outer-high") or ev.kind == "open-outer"
            expected = []
            for t in range(len(ev.labels)):
                if (t % 2 == 0) == high_first:
                    expected.append(hi)
                    hi -= 1
                else:
                    expected.append(lo)
                    lo += 1
            if tuple(expected) != ev.labels:
                issues.append(f"layer {i}: {ev.kind} unit labels {ev.labels} differ from the "
                              f"cursor sequence {tuple(expected)}")
            pos = 0
            for trail in ev.trails:
                for eid in trail.edges:
                    if labels[eid] != ev.labels[pos]:
                        issues.append(f"layer {i}: edge {eid} carries label {labels[eid]}, "
                                      f"event recorded {ev.labels[pos]}")
                    pos += 1
            if (lo, hi) != ev.cursor_after:
                issues.append(f"layer {i}: {ev.kind} unit ended at cursor {ev.cursor_after}, "
                              f"replay gives {(lo, hi)}")
            want = target if len(ev.labels) % 2 == 0 else target + 1
            if lo + hi != want:
                issues.append(f"layer {i}: cursor identity {lo + hi} after a {ev.kind} unit, "
                              f"expected {want}")
        if lo != hi + 1:
            issues.append(f"layer {i}: trail interval not exactly consumed (cursor {(lo, hi)})")
    return issues


def _bad_components(view: BipartiteView, pair: CoveringPair, trail_eids: AbstractSet[int],
                    k: int) -> tuple[frozenset[int], frozenset[int], tuple[Link, ...]]:
    """(bad component ids, their vertices, free links) of a layer's trail
    graph, read off its connected components without walking any trail.

    Components are numbered by increasing smallest vertex, the order in which
    the trail builder numbers them.  A component is bad when every degree is
    2k and every outer vertex is a link end; a link is free when at least one
    end lies outside every bad component."""
    adj: dict[int, list[int]] = {}
    outer: set[int] = set()
    for x, y, eid in view.edges:
        if eid in trail_eids:
            adj.setdefault(x, []).append(y)
            adj.setdefault(y, []).append(x)
            outer.add(y)
    bad_cids: set[int] = set()
    bad_vertices: set[int] = set()
    seen: set[int] = set()
    cid = 0
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
                and all(u in pair.link_ends for u in outer_members)):
            bad_cids.add(cid)
            bad_vertices.update(members)
        cid += 1
    free = tuple(l for l in pair.links
                 if l.end_a not in bad_vertices or l.end_b not in bad_vertices)
    return frozenset(bad_cids), frozenset(bad_vertices), free


def _check_layer_structure(result: LabelingResult, labels: Sequence[int],
                           sums: Sequence[int]) -> tuple[list[str], dict]:
    """Per-layer recomputation: parent-edge map, edge split, trail family
    coverage, bad components, link labels, and parent-label ordering."""
    issues: list[str] = []
    stats = {"bad_layers": 0, "links_total": 0, "free_links_total": 0}
    g = result.graph
    k = result.k
    lay = result.layering
    cross_count = [0] * (lay.depth + 1)
    for (u, v), cls in zip(g.edges, lay.edge_class):
        if lay.layer_of[u] != lay.layer_of[v]:
            cross_count[cls] += 1
    for i in range(1, lay.depth + 1):
        plan = result.plans[i]
        rec = result.layers[i]
        view, pair = rec.view, rec.pair
        view_eids = {eid for _, _, eid in view.edges}
        sigma_eids = set(rec.parent_edge.values())

        for u in view.outer:
            eid = rec.parent_edge.get(u)
            if eid is None or eid not in view_eids or view.ends_of(eid)[1] != u:
                issues.append(f"layer {i}: vertex {u} has an invalid parent edge {eid}")
                continue
            if pair.is_matched(u) and eid != pair.matching_edge(u):
                issues.append(f"layer {i}: matched vertex {u} does not use its matching edge")
            if eid in pair.link_edge_ids:
                issues.append(f"layer {i}: parent edge of vertex {u} is a link edge")
        if len(sigma_eids) != len(view.outer):
            issues.append(f"layer {i}: parent edges are not distinct")

        trail_eids = view_eids - sigma_eids - pair.link_edge_ids
        fam_eids = [eid for t in rec.analysis.family.all_trails() for eid in t.edges]
        if sorted(fam_eids) != sorted(trail_eids):
            issues.append(f"layer {i}: trail family does not cover the trail graph exactly")
        if len(rec.analysis.family.open_mixed) % 2 != plan.trail_count % 2:
            issues.append(f"layer {i}: mixed-trail parity disagrees with the trail edge count")

        bad_cids, bad_vertices, free_links = _bad_components(view, pair, trail_eids, k)
        if bad_cids != rec.analysis.bad_cids or free_links != rec.analysis.free_links:
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
        expected_order = list(free_links) + [l for l in pair.links if l not in free_set]
        if list(rec.link_order) != expected_order:
            issues.append(f"layer {i}: link labeling order is not free-links-first")
        for idx, link in enumerate(rec.link_order, start=1):
            in_bad = [e for e in link.ends if e in bad_vertices]
            want_low = in_bad[0] if (link in free_set and len(in_bad) == 1) else min(link.ends)
            u_low = rec.link_low_end.get(link)
            if u_low != want_low:
                issues.append(f"layer {i}: link at center {link.center} designates low end "
                              f"{u_low}, expected {want_low}")
                continue
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

        partial = _partial_sums_from_labels(result, labels, sums, i)
        expected_parent = sorted(result.layering.layers[i], key=lambda u: (partial[u], u))
        if list(rec.parent_order) != expected_parent:
            issues.append(f"layer {i}: parent labels not ordered by partial sum")
        lab = plan.parent_interval[0]
        for u in rec.parent_order:
            if labels[rec.parent_edge[u]] != lab:
                issues.append(f"layer {i}: parent edge of vertex {u} carries "
                              f"label {labels[rec.parent_edge[u]]}, expected {lab}")
            lab += 1

        try:
            validate_covering_pair(pair)
        except InternalInvariantError as exc:
            issues.append(f"layer {i}: covering pair invalid: {exc}")

        if cross_count[i] != plan.layer_size + plan.trail_count + plan.link_count:
            issues.append(f"layer {i}: cross-edge count disagrees with the plan")
    return issues, stats


def _check_interval_discipline(result: LabelingResult, labels: Sequence[int]) -> list[str]:
    issues: list[str] = []
    g = result.graph
    lay = result.layering
    for eid in range(g.m):
        i = lay.edge_class[eid]
        plan = result.plans[i]
        u, v = g.edges[eid]
        if lay.layer_of[u] == lay.layer_of[v]:
            lo, hi = plan.inner_interval
            bucket = "within-layer"
        else:
            rec = result.layers[i]
            outer = u if lay.layer_of[u] == i else v
            if rec.parent_edge.get(outer) == eid:
                lo, hi = plan.parent_interval
                bucket = "parent"
            elif eid in rec.pair.link_edge_ids:
                lo, hi = plan.link_interval
                bucket = "link"
            else:
                lo, hi = plan.trail_interval
                bucket = "trail"
        if not (lo <= labels[eid] <= hi):
            issues.append(f"edge {eid} is a {bucket} edge of layer {i} but carries "
                          f"label {labels[eid]} outside [{lo}, {hi}]")
    return issues


def check_construction(result: LabelingResult) -> tuple[list[str], dict]:
    """Run the full structural battery over a labeling result.  Returns the
    list of violated invariants (empty when clean) and summary statistics,
    including the bijection, distinct-sums and layer-monotone flags of the
    independent check.  The battery covers every check of
    verify_antimagic(..., result), so an empty list means that passes too."""
    labels = list(result.labeling.labels)
    issues: list[str] = []

    report = verify_antimagic(result.graph, labels, layering=result.layering)
    if not report.passed:
        issues.append(report.first_failure or "verification failed")
    if tuple(report.vertex_sums) != result.labeling.vertex_sums:
        issues.append("cached vertex sums disagree with recomputation")

    expected = 1
    for i in range(result.layering.depth, 0, -1):
        plan = result.plans[i]
        for lo, hi in (plan.inner_interval, plan.trail_interval,
                       plan.link_interval, plan.parent_interval):
            if lo != expected:
                issues.append(f"layer {i}: interval starts at {lo}, expected {expected}")
            expected = max(expected, hi + 1)
    if expected != result.graph.m + 1:
        issues.append("intervals do not partition the label range")

    layer_issues, stats = _check_layer_structure(result, labels, report.vertex_sums)
    issues.extend(layer_issues)
    issues.extend(_check_interval_discipline(result, labels))
    issues.extend(_check_trail_events(result, labels))
    issues.extend(_check_pair_sums(result, labels))
    ineq_issues, min_hi_slack, min_lo_slack = _check_inequalities(result, labels,
                                                                  report.vertex_sums)
    issues.extend(ineq_issues)
    stats["min_upper_slack"] = min_hi_slack
    stats["min_lower_slack"] = min_lo_slack
    stats["bijection_ok"] = report.bijection_ok
    stats["distinct_sums_ok"] = report.distinct_sums_ok
    stats["layer_monotone_ok"] = report.layer_monotone_ok
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
