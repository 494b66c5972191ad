"""The deep replay on a corpus of tampered construction records.

For each tamper, golden/replay_issues.json holds the sorted issues and the
stats of `check_construction`, the one judge of a record, and the report of
`verify_antimagic` on the labels and layering (none when the labels are not
one per edge).  Regenerate it with

    PYTHONPATH=src python tests/test_replay_golden.py

only when an issue string, a stat or a report is meant to change.
"""

import ast
import dataclasses
import functools
import json
import re
from pathlib import Path

import pytest

from antimagic import check_construction, generate_regular, label_graph, verify_antimagic
from antimagic.covering import CoveringPair
from antimagic.labeling import TrailEvent
from antimagic.trails import Trail
from antimagic.verify import __file__ as VERIFY_PY
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
    u, w = rec.pair.view.outer[:2]
    return rec.parent_edge[u], rec.parent_edge[w]


def link_pair(res, i):
    rec = res.layers[i]
    link = rec.pair.links[0]
    return tuple(rec.pair.view.edge_between(link.center, end) for end in link.ends)


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
    a, b = rec.pair.view.outer[:2]
    return with_layer(res, 2, parent_edge={**rec.parent_edge, a: rec.parent_edge[b]})


@tamper("parent edges of two vertices exchanged, R40 layer 2")
def _():
    # every edge stays a parent-map value, but neither is its own outer
    # end's parent edge any more
    res = labeled("R40")
    rec = res.layers[2]
    a, b = rec.pair.view.outer[:2]
    return with_layer(res, 2, parent_edge={**rec.parent_edge, a: rec.parent_edge[b],
                                           b: rec.parent_edge[a]})


@tamper("missing parent edge, R40 layer 2")
def _():
    res = labeled("R40")
    rec = res.layers[2]
    a = rec.pair.view.outer[0]
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
    v = rec.pair.view.inner[0]
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
    return swapped(res, link_pair(res, 2))


@tamper("parent labels swapped, K6,6 layer 2")
def _():
    res = labeled("K6,6")
    return swapped(res, parent_pair(res, 2))


@tamper("link edge as parent edge, K6,6 layer 2")
def _():
    res = labeled("K6,6")
    rec = res.layers[2]
    link = rec.pair.links[0]
    eid = rec.pair.view.edge_between(link.center, link.end_a)
    return with_layer(res, 2, parent_edge={**rec.parent_edge, link.end_a: eid})


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
    plan = dataclasses.replace(res.plans[2], offset=res.plans[2].offset + 1)
    return dataclasses.replace(res, plans={**res.plans, 2: plan})


@tamper("covering pair degree bound forged, R60 layer 3")
def _():
    # without edge 56, full-degree inner vertex 51 is uncovered at d = 5; at
    # d = 7 no inner vertex has full degree, so only the bound shows it
    res = labeled("R60")
    pair = res.layers[3].pair
    return with_layer(res, 3, pair=CoveringPair(pair.view, 7, pair.links, pair.matching - {56}))


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
    # the degree bound stays 5, at which full-degree inner vertex 51 is
    # uncovered without edge 56
    res = labeled("R60")
    pair = res.layers[3].pair
    return with_layer(res, 3, pair=CoveringPair(pair.view, pair.d, pair.links,
                                                pair.matching - {56}))


def with_plan(res, i, **changes):
    return dataclasses.replace(res, plans={**res.plans, i: dataclasses.replace(res.plans[i],
                                                                               **changes)})


@tamper("plan layer size one too large, R40 layer 2")
def _():
    res = labeled("R40")
    return with_plan(res, 2, layer_size=res.plans[2].layer_size + 1)


@tamper("plan layer size one too large, C10(1,2) layer 1")
def _():
    # the innermost parent interval then ends at m + 1
    res = labeled("C10(1,2)")
    return with_plan(res, 1, layer_size=res.plans[1].layer_size + 1)


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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: observe(fn()) for name, fn in sorted(TAMPERS.items())},
                                 indent=1, sort_keys=True) + "\n")
