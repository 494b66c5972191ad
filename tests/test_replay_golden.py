"""The deep replay on a corpus of tampered construction records.

For each tamper, golden/replay_issues.json holds the sorted issues and the
stats of `check_construction`, the one judge of a record, and the report of
`verify_antimagic` on the labels and layering (none when the labels are not
one per edge).  Regenerate it with

    PYTHONPATH=src python tests/test_replay_golden.py

only when an issue string, a stat or a report is meant to change.
"""

import ast
import collections
import dataclasses
import functools
import json
import re
from pathlib import Path

import pytest

from antimagic import check_construction, generate_regular, label_graph, verify_antimagic
from antimagic.covering import Link
from antimagic.labeling import Labeling, TrailEvent
from antimagic.trails import Trail
from antimagic.verify import __file__ as VERIFY_PY
from antimagic.verify import recompute_vertex_sums
from corpus import circulant, complete_bipartite, complete_graph, hypercube, shuffled_circulant

GOLDEN = Path(__file__).parent / "golden" / "replay_issues.json"

GRAPHS = {
    "C10(1,2)": lambda: circulant(10, [1, 2]),
    "K5": lambda: complete_graph(5),
    "K6,6": lambda: complete_bipartite(6, 6),
    "C48(1,2)": lambda: shuffled_circulant(48, [1, 2], 48),
    "Q4": lambda: hypercube(4),
    # three layers: layer 3 has trail edges, layer 2 within-layer edges
    "R40": lambda: generate_regular(40, 6, 3),
    # k = 2; layer 3's pair is one matching edge, 56, of inner vertex 51
    "R60": lambda: generate_regular(60, 6, 1),
    # layer 4's first unit is one closed trail over edges 15, 58, 38, 37
    "R30": lambda: generate_regular(30, 4, 1),
}


@functools.cache
def labeled(name):
    return label_graph(GRAPHS[name]())


def with_layer(res, i, **changes):
    rec = dataclasses.replace(res.layers[i], **changes)
    return dataclasses.replace(res, layers={**res.layers, i: rec})


def with_labels(res, labels):
    return dataclasses.replace(res, labeling=dataclasses.replace(res.labeling,
                                                                 labels=tuple(labels)))


def swapped(res, *pairs):
    labels = list(res.labeling.labels)
    for a, b in pairs:
        labels[a], labels[b] = labels[b], labels[a]
    return with_labels(res, labels)


def with_plan(res, i, **changes):
    return dataclasses.replace(res, plans={**res.plans, i: dataclasses.replace(res.plans[i],
                                                                               **changes)})


def with_links(res, i, links):
    """The record with layer i's links replaced, and its plan's link and
    trail counts moved to match them, so the replay reads the layer."""
    plan, extra = res.plans[i], 2 * (len(links) - len(res.layers[i].links))
    res = with_plan(res, i, link_count=plan.link_count + extra,
                    trail_count=plan.trail_count - extra)
    return with_layer(res, i, links=tuple(links))


def ids_swapped(res, i, a, b):
    """The record with edge ids a and b of layer i swapped in its matching,
    parent map and trail units, and their labels swapped, with the cached
    sums recomputed: every fact the record holds of the two edges agrees
    with the swap, and only the graph tells them apart."""
    swap = {a: b, b: a}
    f = lambda eid: swap.get(eid, eid)  # noqa: E731
    rec = res.layers[i]
    events = tuple(dataclasses.replace(ev, trails=tuple(
        dataclasses.replace(t, edges=tuple(map(f, t.edges))) for t in ev.trails))
        for ev in rec.events)
    res = with_layer(res, i, matching=frozenset(map(f, rec.matching)), events=events,
                     parent_edge={u: f(eid) for u, eid in rec.parent_edge.items()})
    labels = list(res.labeling.labels)
    labels[a], labels[b] = labels[b], labels[a]
    return dataclasses.replace(res, labeling=Labeling(
        tuple(labels), tuple(recompute_vertex_sums(res.graph, labels))))


def with_events(res, i, pos, event):
    events = list(res.layers[i].events)
    events[pos] = event
    return with_layer(res, i, events=tuple(events))


def within_eids(res, i):
    g, layer_of = res.graph, res.layering.layer_of
    return [eid for eid, (u, v) in enumerate(g.edges) if layer_of[u] == layer_of[v] == i]


def trail_eids(res, i):
    return [eid for ev in res.layers[i].events for t in ev.trails for eid in t.edges]


def parent_pair(res, i):
    rec = res.layers[i]
    u, w = res.layering.layers[i][:2]
    return rec.parent_edge[u], rec.parent_edge[w]


def link_edges(res, i):
    """The two edges of layer i's first link, from its center to each end."""
    link = res.layers[i].links[0]
    at = dict(res.graph.incident(link.center))
    return tuple(at[end] for end in link.ends)


TAMPERS = {}


def tamper(name):
    def register(fn):
        TAMPERS[name] = fn
        return fn
    return register


@tamper("first and last edge labels swapped, C10(1,2)")
def _():
    res = labeled("C10(1,2)")
    return swapped(res, (0, res.graph.m - 1))


@tamper("labels 1 and m swapped, C10(1,2)")
def _():
    res = labeled("C10(1,2)")
    labels = res.labeling.labels
    return swapped(res, (labels.index(1), labels.index(res.graph.m)))


@tamper("cached vertex sum off by one, K5")
def _():
    res = labeled("K5")
    sums = list(res.labeling.vertex_sums)
    sums[1] += 1
    return dataclasses.replace(res, labeling=dataclasses.replace(res.labeling,
                                                                 vertex_sums=tuple(sums)))


@tamper("foreign parent edge, R40 layer 2")
def _():
    res = labeled("R40")
    rec = res.layers[2]
    a, b = res.layering.layers[2][:2]
    return with_layer(res, 2, parent_edge={**rec.parent_edge, a: rec.parent_edge[b]})


@tamper("parent edges of two vertices exchanged, R40 layer 2")
def _():
    # every edge stays a parent-map value, but neither is its own outer
    # end's parent edge any more
    res = labeled("R40")
    rec = res.layers[2]
    a, b = res.layering.layers[2][:2]
    return with_layer(res, 2, parent_edge={**rec.parent_edge, a: rec.parent_edge[b],
                                           b: rec.parent_edge[a]})


@tamper("missing parent edge, R40 layer 2")
def _():
    res = labeled("R40")
    rec = res.layers[2]
    a = res.layering.layers[2][0]
    return with_layer(res, 2, parent_edge={u: e for u, e in rec.parent_edge.items() if u != a})


for _stray in ("m+5", "-1"):
    @tamper(f"stray trail edge id {_stray}, K6,6 layer 2")
    def _(stray=_stray):
        res = labeled("K6,6")
        eid = res.graph.m + 5 if stray == "m+5" else -1
        ev = res.layers[2].events[0]
        *kept, last = ev.trails
        last = dataclasses.replace(last, edges=last.edges[:-1] + (eid,))
        return with_events(res, 2, 0, dataclasses.replace(ev, trails=(*kept, last)))

for _vertex in (10 ** 6, 3, 1):
    @tamper(f"unit off its edges at vertex {_vertex}, R40 layer 3")
    def _(vertex=_vertex):
        res = labeled("R40")
        ev = res.layers[3].events[0]
        trail, = ev.trails
        trail = dataclasses.replace(trail, vertices=(trail.vertices[0], vertex)
                                    + trail.vertices[2:])
        return with_events(res, 3, 0, dataclasses.replace(ev, trails=(trail,)))


@tamper("closed unit without edges, R40 layer 3")
def _():
    res = labeled("R40")
    rec = res.layers[3]
    v = res.layering.layers[2][0]
    empty = TrailEvent("closed", (Trail((v,), (), closed=True),), "inner-low")
    return with_layer(res, 3, events=rec.events + (empty,))


for _graph in ("K6,6", "C48(1,2)"):
    @tamper(f"last trail label out of range, {_graph}")
    def _(graph=_graph):
        res = labeled(graph)
        i = max(j for j, rec in res.layers.items() if rec.events)
        eid = res.layers[i].events[-1].trails[-1].edges[-1]
        labels = list(res.labeling.labels)
        labels[eid] = res.graph.m + 1
        return with_labels(res, labels)


@tamper("closed trail case flipped, Q4")
def _():
    res = labeled("Q4")
    (i, pos), = [(i, pos) for i, rec in res.layers.items()
                 for pos, ev in enumerate(rec.events) if ev.case == "outer-high"]
    ev = res.layers[i].events[pos]
    return with_events(res, i, pos, dataclasses.replace(ev, case="inner-low"))


@tamper("link labels swapped, K6,6 layer 2")
def _():
    res = labeled("K6,6")
    return swapped(res, link_edges(res, 2))


@tamper("parent labels swapped, K6,6 layer 2")
def _():
    res = labeled("K6,6")
    return swapped(res, parent_pair(res, 2))


@tamper("link edge as parent edge, K6,6 layer 2")
def _():
    res = labeled("K6,6")
    rec = res.layers[2]
    eid = link_edges(res, 2)[0]
    return with_layer(res, 2, parent_edge={**rec.parent_edge, rec.links[0].end_a: eid})


@tamper("record claims a bad component, K6,6 layer 2")
def _():
    return with_layer(labeled("K6,6"), 2, bad_cids=frozenset({0}))


@tamper("record drops a free link, K6,6 layer 2")
def _():
    return with_layer(labeled("K6,6"), 2, free_links=())


@tamper("within-layer labels swapped, R40 layer 2")
def _():
    res = labeled("R40")
    eids = within_eids(res, 2)
    return swapped(res, (eids[0], eids[-1]))


@tamper("trail labels swapped, R40 layer 3")
def _():
    res = labeled("R40")
    eids = trail_eids(res, 3)
    return swapped(res, (eids[0], eids[1]))


@tamper("parent labels swapped, R40 layer 2")
def _():
    res = labeled("R40")
    return swapped(res, parent_pair(res, 2))


@tamper("labels swapped across layers 3 and 1, R40")
def _():
    res = labeled("R40")
    g, layer_of = res.graph, res.layering.layer_of
    # the lowest-id edge of layer 1, within it or out to the root
    first = next(eid for eid, (u, v) in enumerate(g.edges) if max(layer_of[u], layer_of[v]) == 1)
    return swapped(res, (trail_eids(res, 3)[0], first))


@tamper("plan offset forged, R40 layer 2")
def _():
    res = labeled("R40")
    return with_plan(res, 2, offset=res.plans[2].offset + 1)


@tamper("parent labels swapped in layers 3 and 1, R40")
def _():
    res = labeled("R40")
    return swapped(res, parent_pair(res, 3), parent_pair(res, 1))


@tamper("mixed-last unit relabeled open-outer, R40 layer 2")
def _():
    # the unit's one edge carries label 87, which is both ends of what the
    # open-outer unit before it leaves, so only the cursor identity shows it
    res = labeled("R40")
    ev = res.layers[2].events[1]
    assert ev.kind == "mixed-last"
    return with_events(res, 2, 1, dataclasses.replace(ev, kind="open-outer"))


@tamper("last unit dropped, R40 layer 2")
def _():
    res = labeled("R40")
    return with_layer(res, 2, events=res.layers[2].events[:-1])


@tamper("parent labels swapped across layers 6 and 5, C48(1,2)")
def _():
    # vertex 17's parent edge in layer 5 runs to vertex 24 of layer 4; with
    # layer 6's parent label 55 in place of 63 it leaves 24's partial sum
    # one below the outer bound
    res = labeled("C48(1,2)")
    return swapped(res, (res.layers[5].parent_edge[17], res.layers[6].parent_edge[38]))


@tamper("closed unit's last label swapped with a parent label, Q4 layer 3")
def _():
    # the outer-high unit's wrap pair then sums to 12 + 16, above 24
    res = labeled("Q4")
    ev = res.layers[3].events[0]
    assert ev.case == "outer-high"
    return swapped(res, (ev.trails[0].edges[-1], res.layers[3].parent_edge[7]))


@tamper("closed trail case flipped and its first label swapped with label 1, Q4")
def _():
    # as an inner-low unit its wrap pair 1 + 7 falls below the floor 10
    res = labeled("Q4")
    ev = res.layers[3].events[0]
    res = with_events(res, 3, 0, dataclasses.replace(ev, case="inner-low"))
    return swapped(res, (ev.trails[0].edges[0], res.labeling.labels.index(1)))


@tamper("covering pair without matching edge 56, R60 layer 3")
def _():
    # 56 = (51, 10) is the layer's one matching edge, and inner vertex 51,
    # with five outward edges, is left uncovered without it
    res = labeled("R60")
    return with_layer(res, 3, matching=res.layers[3].matching - {56})


@tamper("matching gains within-layer edge 6, R60 layer 3")
def _():
    res = labeled("R60")
    return with_layer(res, 3, matching=res.layers[3].matching | {6})


@tamper("matching gains edge 102 = (51, 20), R60 layer 3")
def _():
    # edge 56 already matches inner vertex 51
    res = labeled("R60")
    return with_layer(res, 3, matching=res.layers[3].matching | {102})


@tamper("link 4 - 9 - 49 at inner vertex 9 of three outward edges, R60 layer 3")
def _():
    # 9's outward neighbors 4, 49 and 59 are all unmatched; the plan's link
    # and trail counts are forged to match the extra link
    return with_links(labeled("R60"), 3, [Link(9, 4, 49)])


@tamper("second link at center 6, K6,6 layer 2")
def _():
    # link 1 - 6 - 2 and link 3 - 6 - 4 share their center; the plan's
    # link and trail counts are forged to match the extra link
    return with_links(labeled("K6,6"), 2, [Link(6, 1, 2), Link(6, 3, 4)])


@tamper("link center 6 matched to link end 1 by edge 6, K6,6 layer 2")
def _():
    # edge 6 = (1, 6) takes end 1 from its matching edge 7 = (1, 7)
    res = labeled("K6,6")
    return with_layer(res, 2, matching=res.layers[2].matching - {7} | {6})


@tamper("link end 1 unmatched, K6,6 layer 2")
def _():
    res = labeled("K6,6")
    return with_layer(res, 2, matching=res.layers[2].matching - {7})


@tamper("center 6's neighbor 3 unmatched, K6,6 layer 2")
def _():
    # 3 is no link end, and matching edge 21 = (3, 9) is dropped
    res = labeled("K6,6")
    return with_layer(res, 2, matching=res.layers[2].matching - {21})


@tamper("link center outside the graph, K6,6 layer 2")
def _():
    # link 1 - 6 - 2 becomes 1 - 12 - 2; the graph has no vertex 12 = n
    res = labeled("K6,6")
    return with_layer(res, 2, links=(Link(res.graph.n, 1, 2),))


@tamper("plan layer size one too large, R40 layer 2")
def _():
    res = labeled("R40")
    return with_plan(res, 2, layer_size=res.plans[2].layer_size + 1)


@tamper("plan layer size one too large, C10(1,2) layer 1")
def _():
    # the innermost parent interval then ends at m + 1
    res = labeled("C10(1,2)")
    return with_plan(res, 1, layer_size=res.plans[1].layer_size + 1)


@tamper("plan 2 dropped, R40")
def _():
    res = labeled("R40")
    return dataclasses.replace(res, plans={i: p for i, p in res.plans.items() if i != 2})


@tamper("layer record 2 dropped, R40")
def _():
    res = labeled("R40")
    return dataclasses.replace(res, layers={i: r for i, r in res.layers.items() if i != 2})


@tamper("layer 2 emptied in the layering, R40")
def _():
    res = labeled("R40")
    layers = res.layering.layers
    return dataclasses.replace(res, layering=dataclasses.replace(
        res.layering, layers=layers[:2] + ((),) + layers[3:]))


def with_layering(res, layers, layer_of):
    return dataclasses.replace(res, layering=dataclasses.replace(
        res.layering, layers=layers, layer_of=layer_of))


@tamper("layer_of[5] = 99, R30")
def _():
    res = labeled("R30")
    layer_of = list(res.layering.layer_of)
    layer_of[5] = 99
    return with_layering(res, res.layering.layers, tuple(layer_of))


@tamper("layer_of one entry short, R30")
def _():
    res = labeled("R30")
    return with_layering(res, res.layering.layers, res.layering.layer_of[:-1])


@tamper("vertex 12 moved from layer 1 to layer 2, R30")
def _():
    # listed once, in the layer its layer_of names, but its edge to the
    # root then joins layers 0 and 2
    res = labeled("R30")
    layers = list(res.layering.layers)
    layers[1] = tuple(v for v in layers[1] if v != 12)
    layers[2] = tuple(sorted(layers[2] + (12,)))
    layer_of = list(res.layering.layer_of)
    layer_of[12] = 2
    return with_layering(res, tuple(layers), tuple(layer_of))


@tamper("empty layer inserted as layer 2, R30")
def _():
    # each vertex is still listed once, in the layer its layer_of names
    res = labeled("R30")
    layers = res.layering.layers
    layer_of = tuple(j + (j >= 2) for j in res.layering.layer_of)
    return with_layering(res, layers[:2] + ((),) + layers[2:], layer_of)


@tamper("root replaced by 17, R30")
def _():
    return dataclasses.replace(labeled("R30"), root=17)


@tamper("trail edge ids 15 = (3, 23) and 58 = (23, 24) swapped in the record, R30 layer 4")
def _():
    # the labeling still verifies and the record agrees with itself; only
    # the graph's ends of the two edges show the forgery
    return ids_swapped(labeled("R30"), 4, 15, 58)


@tamper("link end moved to the root, K6,6 layer 2")
def _():
    # link 1 - 6 - 2 becomes 0 - 6 - 2, whose edge to the root is no cross
    # edge of layer 2
    return with_layer(labeled("K6,6"), 2, links=(Link(6, 0, 2),))


@tamper("one label short, C10(1,2)")
def _():
    res = labeled("C10(1,2)")
    return with_labels(res, res.labeling.labels[:-1])


def observe(res):
    """What the golden file records of one record, as JSON reads it back."""
    issues, stats = check_construction(res)
    labels = res.labeling.labels
    report = (dataclasses.asdict(verify_antimagic(res.graph, labels, res.layering))
              if len(labels) == res.graph.m else None)
    return json.loads(json.dumps({"issues": sorted(issues), "stats": stats, "report": report}))


@functools.cache
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_corpus():
    assert sorted(golden()) == sorted(TAMPERS)


@pytest.mark.parametrize("name", sorted(TAMPERS))
def test_replay_matches_golden(name):
    got = observe(TAMPERS[name]())
    assert got["issues"], "every tamper must be reported"
    assert got == golden()[name]


LAYER_OF_ISSUE = re.compile(r"^layer (\d+):|edge of layer (\d+) but")


def test_issues_come_outermost_layer_first():
    issues, _ = check_construction(TAMPERS["parent labels swapped in layers 3 and 1, R40"]())
    layers = [int(m.group(1) or m.group(2)) for issue in issues
              if (m := LAYER_OF_ISSUE.search(issue))]
    assert {3, 1} <= set(layers)
    assert layers == sorted(layers, reverse=True)


# No corpus graph has a bad component, so these checks have no tamper yet;
# they wait for graphs whose layers reach bad components.
AWAITING_BAD_COMPONENTS = {
    "layer {}: outer meet at {} in a bad component sums to {}, expected exactly {}",
    "layer {}: wrap pair of a bad trail at {} sums to {}, above {}",
    "layer {}: only {} free links with bad components present, need {}",
    "layer {}: link edge into a bad component has label {}, above {}",
}


def issue_templates():
    """Every issue template of verify.py, each formatted value written {}:
    the strings it appends or adds to an issue list, returns in a list or
    from an `_issue` helper, or sets as verify_antimagic's first failure."""
    def strings(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value
        elif isinstance(node, ast.JoinedStr):
            yield "".join(v.value if isinstance(v, ast.Constant) else "{}" for v in node.values)
        elif isinstance(node, ast.List):
            for elt in node.elts:
                yield from strings(elt)
        elif isinstance(node, ast.ListComp):
            yield from strings(node.elt)
        elif isinstance(node, ast.IfExp):
            yield from strings(node.body)
            yield from strings(node.orelse)

    found = set()
    for fn in ast.parse(Path(VERIFY_PY).read_text()).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "append" and ast.unparse(node.func.value) == "issues"):
                found.update(strings(node.args[0]))
            elif isinstance(node, ast.AugAssign) and ast.unparse(node.target) == "issues":
                found.update(strings(node.value))
            elif isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "first_failure":
                found.update(strings(node.value))
            elif isinstance(node, ast.Return) and node.value is not None and (
                    fn.name.endswith("_issue") or isinstance(node.value, ast.List)):
                found.update(strings(node.value))
    return found


def test_every_issue_template_has_a_tamper():
    issues = [issue for entry in golden().values() for issue in entry["issues"]]
    unreached = set()
    for template in issue_templates():
        pattern = re.compile("(.+)".join(map(re.escape, template.split("{}"))))
        if not any(pattern.fullmatch(issue) for issue in issues):
            unreached.add(template)
    assert unreached == AWAITING_BAD_COMPONENTS


def test_replay_reads_no_view_edges():
    """The replay takes each layer's edges, their ends and its link edges
    from its own scan of the graph, and judges the covering pair's links
    and matching on them: it reads no view and no pair's edge lookups."""
    tree = ast.parse(Path(VERIFY_PY).read_text())
    read = collections.Counter(node.attr for node in ast.walk(tree)
                               if isinstance(node, ast.Attribute))
    assert {name: read[name] for name in
            ("edge_ends", "ends_of", "edge_between", "link_edge_ids", "view")} == {
        "edge_ends": 0, "ends_of": 0, "edge_between": 0, "link_edge_ids": 0, "view": 0}


def test_trail_id_swap_forgeries_are_flagged():
    """Every forgery that swaps the ids of two consecutive edges of one
    trail in the record, as ids_swapped does, and whose labels still verify
    as antimagic, is reported: the replay's own ends show it."""
    forgeries = 0
    for seed in range(1, 30):
        res = label_graph(generate_regular(30, 4, seed))
        for i, rec in res.layers.items():
            for a, b in [pair for ev in rec.events for t in ev.trails
                         for pair in zip(t.edges, t.edges[1:])]:
                forged = ids_swapped(res, i, a, b)
                if verify_antimagic(forged.graph, forged.labeling.labels, forged.layering).passed:
                    forgeries += 1
                    assert check_construction(forged)[0], (seed, i, a, b)
    assert forgeries == 104


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: observe(fn()) for name, fn in sorted(TAMPERS.items())},
                                 indent=1, sort_keys=True) + "\n")
