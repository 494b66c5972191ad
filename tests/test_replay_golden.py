"""The deep replay on a corpus of tampered construction records.

For each tamper, golden/replay_issues.json holds the sorted issues and the
stats of `check_construction`, and the report of
`verify_antimagic(..., result)`.  Regenerate it with

    PYTHONPATH=src python tests/test_replay_golden.py

only when an issue string, a stat or a report is meant to change.
"""

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


def observe(res):
    """What the golden file records of one record, as JSON reads it back."""
    issues, stats = check_construction(res)
    report = verify_antimagic(res.graph, res.labeling.labels, res.layering, res)
    return json.loads(json.dumps({"issues": sorted(issues), "stats": stats,
                                  "report": dataclasses.asdict(report)}))


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


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: observe(fn()) for name, fn in sorted(TAMPERS.items())},
                                 indent=1, sort_keys=True) + "\n")
