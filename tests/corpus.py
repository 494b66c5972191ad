"""Shared graph builders and hand-built fixtures for the test suite."""

from __future__ import annotations

import itertools
import random

from antimagic import BipartiteView, Graph, bfs_layering, bipartite_view, layer_view
from antimagic.covering import (CoveringPair, Link, build_covering_pair, maximize_free_links,
                                pad_to_biregular)
from antimagic.labeling import assign_parent_edges
from antimagic.trails import analyze_bad_components, residual_edge_sets


def complete_graph(n: int) -> Graph:
    return Graph(n, list(itertools.combinations(range(n), 2)))


def cycle_graph(n: int) -> Graph:
    return Graph(n, sorted((v, (v + 1) % n) if v < (v + 1) % n else ((v + 1) % n, v)
                           for v in range(n)))


def circulant(n: int, offsets: list[int]) -> Graph:
    edges = set()
    for v in range(n):
        for o in offsets:
            u = (v + o) % n
            edges.add((min(v, u), max(v, u)))
    return Graph(n, sorted(edges))


def shuffled_circulant(n: int, offsets: list[int], seed: int) -> Graph:
    """C_n(offsets) with vertex ids permuted by the seed; edge ids follow the
    sorted edge list, so they no longer run along the cycle."""
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    edges = set()
    for v in range(n):
        for o in offsets:
            a, b = perm[v], perm[(v + o) % n]
            edges.add((min(a, b), max(a, b)))
    return Graph(n, sorted(edges))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(x, a + y) for x in range(a) for y in range(b)])


def octahedron() -> Graph:
    """4-regular on 6 vertices; antipodal pairs (0,3), (1,4), (2,5)."""
    forbidden = {(0, 3), (1, 4), (2, 5)}
    return Graph(6, [e for e in itertools.combinations(range(6), 2) if e not in forbidden])


def petersen() -> Graph:
    outer = [(v, (v + 1) % 5) for v in range(5)]
    inner = [(5 + v, 5 + (v + 2) % 5) for v in range(5)]
    spokes = [(v, v + 5) for v in range(5)]
    return Graph(10, sorted(tuple(sorted(e)) for e in outer + inner + spokes))


def hypercube(dim: int) -> Graph:
    edges = []
    for v in range(1 << dim):
        for b in range(dim):
            u = v ^ (1 << b)
            if u > v:
                edges.append((v, u))
    return Graph(1 << dim, sorted(edges))


def torus_grid(a: int, b: int) -> Graph:
    edges = set()
    for i in range(a):
        for j in range(b):
            v = i * b + j
            for di, dj in ((0, 1), (1, 0)):
                u = ((i + di) % a) * b + ((j + dj) % b)
                edges.add((min(v, u), max(v, u)))
    return Graph(a * b, sorted(edges))


def two_disjoint_k5() -> Graph:
    edges = list(itertools.combinations(range(5), 2))
    edges += [(u + 5, v + 5) for u, v in itertools.combinations(range(5), 2)]
    return Graph(10, sorted(edges))


def oracle_corpus() -> list[tuple[str, Graph]]:
    """Connected even-regular graphs with at most 12 edges."""
    return [
        ("C3", cycle_graph(3)),
        ("C4", cycle_graph(4)),
        ("C5", cycle_graph(5)),
        ("C6", cycle_graph(6)),
        ("K5", complete_graph(5)),
        ("octahedron", octahedron()),
    ]


def pipeline_corpus() -> list[tuple[str, Graph]]:
    """The oracle corpus members the full construction also accepts."""
    return [(name, g) for name, g in oracle_corpus()
            if g.degree(0) >= 4]


def bad_component_realizer(j: int, seed: int) -> Graph:
    """A 4-regular graph (k = 1) whose last layer often holds a bad component.

    A root has 4 children, and a 3-ary tree hangs below them down to an
    inner layer of 4t vertices, t = 3^j.  A last layer of 3t outer vertices
    joins that inner layer by a random (3, 4)-biregular graph: 20 switch
    attempts per edge on the round-robin start (s mod 4t, s mod 3t).  Ids
    are shuffled by the seed, with the root kept at 0."""
    rng = random.Random(seed)
    t = 3 ** j
    edges, layer, n = [], [0], 1
    for width in [4] + [3] * j:
        nxt = []
        for v in layer:
            for c in range(n, n + width):
                edges.append((v, c))
                nxt.append(c)
            n += width
        layer = nxt
    outer = range(n, n + 3 * t)
    cross = [(layer[s % (4 * t)], outer[s % (3 * t)]) for s in range(12 * t)]
    present = set(cross)
    for _ in range(20 * len(cross)):
        p, q = rng.randrange(len(cross)), rng.randrange(len(cross))
        (a, b), (c, d) = cross[p], cross[q]
        if a != c and b != d and (a, d) not in present and (c, b) not in present:
            present -= {(a, b), (c, d)}
            present |= {(a, d), (c, b)}
            cross[p], cross[q] = (a, d), (c, b)
    n += 3 * t
    perm = [0] + rng.sample(range(1, n), n - 1)
    return Graph(n, sorted((min(perm[u], perm[v]), max(perm[u], perm[v]))
                           for u, v in edges + cross))


def random_bounded_bipartite(rng: random.Random, d: int, max_inner: int = 8,
                             max_outer: int = 10) -> BipartiteView:
    """Random view with inner degrees <= d and outer degrees <= d + 1."""
    ni = rng.randrange(1, max_inner + 1)
    no = rng.randrange(1, max_outer + 1)
    inner = tuple(range(ni))
    outer = tuple(range(ni, ni + no))
    possible = [(x, y) for x in inner for y in outer]
    rng.shuffle(possible)
    deg = {v: 0 for v in inner + outer}
    edges = []
    budget = rng.randrange(0, len(possible) + 1)
    for x, y in possible[:budget]:
        if deg[x] < d and deg[y] < d + 1:
            edges.append((x, y, len(edges)))
            deg[x] += 1
            deg[y] += 1
    return bipartite_view(1, inner, outer, tuple(edges))


def view_ends(view: BipartiteView) -> dict[int, tuple[int, int]]:
    """(inner, outer) ends of every view edge, by edge id, read from `view.edges`."""
    return {eid: (x, y) for x, y, eid in view.edges}


def engine_layer(res, i: int) -> tuple[CoveringPair, dict[int, int]]:
    """The covering pair and parent-edge map of layer i of a labeling result,
    rebuilt on the layer's view as `label_graph` builds them."""
    pair = build_covering_pair(layer_view(res.graph, res.layering, i), 2 * res.k + 1)
    parent = assign_parent_edges(pair)
    pair, _ = maximize_free_links(pair, lambda p: analyze_bad_components(p, parent))
    return pair, parent


def trail_lists(view: BipartiteView, trail_eids) -> tuple[dict, list[int], int]:
    """The trail graph on `trail_eids` in the form `residual_edge_sets` and
    `decompose_trails` use, made by filtering each vertex's view incidence:
    the lists of the vertices with trail edges, the odd ones ascending, and
    the edge count."""
    lists = {v: [e for e in view.incident(v) if e[1] in trail_eids]
             for v in sorted((*view.inner, *view.outer))}
    lists = {v: lst for v, lst in lists.items() if lst}
    return lists, [v for v, lst in lists.items() if len(lst) % 2], len(trail_eids)


def trail_edge_ids(pair: CoveringPair, parent_edge: dict[int, int]) -> set[int]:
    """The trail edge ids of the walk `residual_edge_sets` makes with the
    given parent edges."""
    _, lists, _, _ = residual_edge_sets(pair, parent_edge)
    return {eid for y in pair.view.outer for _, eid in lists.get(y, ())}


def padded_layer_two(a: int) -> BipartiteView:
    """The layer-2 view of K_{a,a}, padded: a inner vertices of degree a - 1
    over a - 1 outer ones, where Hall's condition fails."""
    g = complete_bipartite(a, a)
    return pad_to_biregular(layer_view(g, bfs_layering(g, 0), 2), a - 1)


def free_link_gadget():
    """A view and covering pair whose two links both start with every end in a
    bad component, so exchanges are forced to create free links.

    Inner: cycle vertices 0, 1 and 4, 5; centers 2 and 3; matching partners
    6..11.  Outer: cycle vertices 12..15 (all link ends); spares 16, 17.
    The trail graph contains two 4-cycles 12-0-14-1 and 13-4-15-5 plus the
    single-edge paths 2-16 and 3-17.
    """
    triples = []

    def add(x, y):
        triples.append((x, y, len(triples)))

    add(0, 12)
    add(0, 14)
    add(1, 12)
    add(1, 14)
    add(4, 13)
    add(4, 15)
    add(5, 13)
    add(5, 15)
    add(2, 12)
    add(2, 13)
    add(2, 16)
    add(3, 14)
    add(3, 15)
    add(3, 17)
    matching_pairs = [(6, 12), (7, 13), (8, 14), (9, 15), (10, 16), (11, 17)]
    matching_eids = []
    for x, y in matching_pairs:
        matching_eids.append(len(triples))
        add(x, y)
    view = bipartite_view(1, tuple(range(12)), tuple(range(12, 18)), tuple(triples))
    pair = CoveringPair(view, 3, [Link.of(2, 12, 13), Link.of(3, 14, 15)], matching_eids)
    parent_edge = {y: pair.match_of.get(y) for y in view.outer}
    return view, pair, parent_edge
