"""Graph substrate: simple undirected graphs with stable edge ids, breadth-first
layerings, and per-layer bipartite views.

Everything downstream depends on two determinism guarantees made here: edge ids
follow input order, and every adjacency list is sorted by (neighbor, edge id).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import GraphFormatError, GraphShapeError


class Graph:
    """Immutable simple undirected graph on dense vertex ids 0..n-1.

    Edges carry stable ids 0..m-1 in construction order; endpoints are stored
    normalized as (min, max).  The first bad edge in input order is reported
    (GraphShapeError): an end outside 0..n-1, else a loop, else a repeat of an
    earlier edge.
    """

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: list[tuple[int, int]]):
        if n < 1:
            raise GraphShapeError("graph needs at least one vertex")
        adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        normalized: list[tuple[int, int]] = []
        for eid, pair in enumerate(edges):
            u, v = pair
            if 0 <= u < v < n:
                # a normalized tuple is kept as given: a new tuple per edge,
                # made between its two incidence entries, labeled dense
                # graphs about 6 % slower; any other pair, say a list, is copied
                normalized.append(pair if type(pair) is tuple else (u, v))
            elif 0 <= v < u < n:
                normalized.append((v, u))
            else:  # a loop or an end outside 0..n-1
                raise _first_bad_edge(n, normalized, (u, v))
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        if len(set(normalized)) < len(normalized):
            raise _first_bad_edge(n, normalized, None)
        self.n = n
        self.edges = tuple(normalized)
        for lst in adj:
            lst.sort()
        self._adj = tuple(map(tuple, adj))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def incident(self, v: int) -> tuple[tuple[int, int], ...]:
        """(neighbor, edge id) pairs at v, sorted."""
        return self._adj[v]

    def is_connected(self) -> bool:
        if self.n == 1:
            return True
        seen = bytearray(self.n)
        seen[0] = 1
        stack = [0]
        count = 1
        while stack:
            v = stack.pop()
            for w, _ in self._adj[v]:
                if not seen[w]:
                    seen[w] = 1
                    count += 1
                    stack.append(w)
        return count == self.n


def _first_bad_edge(n: int, normalized: list[tuple[int, int]],
                    bad: tuple[int, int] | None) -> GraphShapeError:
    """The error for the first bad edge of a constructor input whose accepted
    prefix, normalized, is `normalized`: a repeat within that prefix, else
    `bad`, the loop or out-of-range edge that ended it (None only when the
    prefix holds a repeat)."""
    seen: set[tuple[int, int]] = set()
    for e in normalized:
        if e in seen:
            return GraphShapeError(f"duplicate edge ({e[0]}, {e[1]})")
        seen.add(e)
    u, v = bad
    if not (0 <= u < n and 0 <= v < n):
        return GraphShapeError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
    return GraphShapeError(f"loop edge at vertex {u}")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list format (README.md): one edge per line as a pair of
    non-negative integers, each anything `int()` accepts as one
    whitespace-separated field.  Blank lines, and lines whose first non-blank
    character is '#', are skipped; '#' after a pair is an error.  The vertex
    count is the largest id + 1.  m edges touch at most 2m vertices, so a
    largest id above 2m leaves two vertices without an edge, two sums of 0:
    that is an error before any vertex is allocated.  Errors that need a
    line number (GraphFormatError) are raised here; Graph rejects a
    duplicate edge (GraphShapeError)."""
    edges: list[tuple[int, int]] = []
    max_id = -1
    for lineno, line in enumerate(text.splitlines(), start=1):
        # one split per line; the first field tells blank and comment lines apart
        parts = line.split()
        if not parts or parts[0][0] == "#":
            continue
        try:
            a, b = parts  # a line of any other number of fields fails here
            u, v = int(a), int(b)
        except ValueError:
            raise GraphFormatError(
                f"line {lineno}: expected two integers, got {line.strip()!r}") from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex id")
        if u > v:  # normalized here, so Graph keeps this tuple as the edge
            u, v = v, u
        elif u == v:
            raise GraphFormatError(f"line {lineno}: loop edge at vertex {u}")
        if v > max_id:
            max_id = v
        edges.append((u, v))
    if max_id < 0:
        raise GraphFormatError("no edges in input")
    if max_id > 2 * len(edges):
        raise GraphFormatError(f"largest vertex id {max_id} is above twice the edge count, "
                               f"{2 * len(edges)}: two or more vertices have no edge")
    return Graph(max_id + 1, edges)


def format_edge_list(graph: Graph) -> str:
    return "".join(f"{u} {v}\n" for u, v in graph.edges)


def validate_even_regular(graph: Graph) -> int:
    """Check the graph is (2k+2)-regular for some k >= 1; return k.
    Connectivity is left to `bfs_layering`, which raises the same
    `GraphShapeError` on a disconnected graph."""
    degrees = {graph.degree(v) for v in range(graph.n)}
    if len(degrees) != 1:
        raise GraphShapeError(f"graph is not regular (degrees {sorted(degrees)})")
    d = degrees.pop()
    if d % 2 != 0:
        raise GraphShapeError(f"degree {d} is odd; an even degree >= 4 is required")
    if d < 4:
        raise GraphShapeError(f"degree {d} out of scope; the construction needs degree 2k+2 with k >= 1")
    return (d - 2) // 2


@dataclass(frozen=True)
class Layering:
    """Breadth-first distance classes from a root, with each vertex's incidence
    split by the search itself, so per-layer work never scans the whole graph.

    inward[v] and outward[v] are the graph's own sorted (neighbor, edge id)
    entries at v toward layers layer_of[v] - 1 and layer_of[v] + 1, so a
    layer view filters nothing; the rest of v's entries join two layer-i
    vertices, and within_edges[i] lists the ids of those layer-i edges, each
    once, sorted by their endpoints.
    """

    root: int
    layers: tuple[tuple[int, ...], ...]
    layer_of: tuple[int, ...]
    within_edges: tuple[tuple[int, ...], ...]
    inward: tuple[tuple[tuple[int, int], ...], ...]
    outward: tuple[tuple[tuple[int, int], ...], ...]

    @property
    def depth(self) -> int:
        return len(self.layers) - 1


def bfs_layering(graph: Graph, root: int) -> Layering:
    if not (0 <= root < graph.n):
        raise GraphShapeError(f"root {root} is not a vertex of the graph")
    incident = graph.incident
    n = graph.n
    dist = [-1] * n
    dist[root] = 0
    queue = [root]
    inward: list[tuple[tuple[int, int], ...]] = [()] * n
    outward: list[tuple[tuple[int, int], ...]] = [()] * n
    within: list[list[int]] = []
    # when v is dequeued, every vertex of its layer and of the one before is
    # known, so a neighbour not reached yet lies one layer out
    for v in queue:  # the queue grows while it is read
        dv = dist[v]
        if dv == len(within):  # the first vertex of its layer
            within.append([])
        same = within[dv]
        d_next = dv + 1  # one int for all the vertices v discovers
        up = []
        down = []
        for entry in incident(v):
            w = entry[0]
            dw = dist[w]
            if dw < 0:
                dist[w] = d_next
                queue.append(w)
                down.append(entry)
            elif dw < dv:
                up.append(entry)
            elif dw > dv:
                down.append(entry)
            elif w > v:  # a within-layer edge, kept at its smaller end
                same.append(entry[1])
        inward[v] = tuple(up)
        outward[v] = tuple(down)
    if len(queue) < n:
        raise GraphShapeError("graph is disconnected")
    layers: list[list[int]] = [[] for _ in within]
    for v, dv in enumerate(dist):
        layers[dv].append(v)
    by_ends = graph.edges.__getitem__
    for eids in within:
        eids.sort(key=by_ends)
    return Layering(
        root=root,
        layers=tuple(map(tuple, layers)),
        layer_of=tuple(dist),
        within_edges=tuple(map(tuple, within)),
        inward=tuple(inward),
        outward=tuple(outward),
    )


class BipartiteView:
    """The bipartite graph of cross edges between two consecutive layers.

    Inner vertices sit in the layer closer to the root; outer vertices in the
    layer farther out. Edge ids are the ids of the underlying graph.

    Every view is built by this one constructor from each vertex's sorted
    (neighbor, edge id) tuple, given as `adj`, a map of every vertex, inner
    then outer.  Each edge sits in the incidence of both its ends, so
    `edges` and `edge_count` read it once, from its outer end.  The
    constructor checks nothing: `layer_view` passes a layering's split of
    the graph's incidence, and `bipartite_view` checks and sorts an edge
    list first.
    """

    __slots__ = ("index", "inner", "outer", "_side", "_adj")

    def __init__(self, index: int, inner: tuple[int, ...], outer: tuple[int, ...],
                 adj: dict[int, tuple[tuple[int, int], ...]]):
        self.index = index
        self.inner = inner
        self.outer = outer
        self._side = dict.fromkeys(inner, "inner") | dict.fromkeys(outer, "outer")
        self._adj = adj

    def __eq__(self, other):
        if not isinstance(other, BipartiteView):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    __hash__ = None  # a view holds dicts

    def __repr__(self) -> str:
        return (f"BipartiteView(index={self.index!r}, inner={self.inner!r}, "
                f"outer={self.outer!r}, edges={self.edges!r})")

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """(inner vertex, outer vertex, edge id) of every view edge, by edge id."""
        return tuple(sorted(((x, y, eid) for y in self.outer for x, eid in self._adj[y]),
                            key=lambda e: e[2]))

    @property
    def edge_count(self) -> int:
        return sum(map(len, map(self._adj.__getitem__, self.outer)))

    def side(self, v: int) -> str:
        return self._side[v]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def incident(self, v: int) -> tuple[tuple[int, int], ...]:
        """(neighbor, edge id) pairs at v in the view, sorted."""
        return self._adj[v]

    def neighbors(self, v: int) -> list[int]:
        return [w for w, _ in self._adj[v]]

    def edge_between(self, u: int, v: int) -> int | None:
        for w, eid in self._adj[u]:
            if w == v:
                return eid
        return None


def bipartite_view(index: int, inner: tuple[int, ...], outer: tuple[int, ...],
                   edges: tuple[tuple[int, int, int], ...]) -> BipartiteView:
    """The view of (inner, outer, edge id) triples, for padded and hand-built
    views, whose vertices and edges belong to no graph: it checks that each
    vertex is listed once, on one side, and that every edge crosses the
    sides and has its own id, and sorts each vertex's incidence."""
    side: dict[int, str] = {}
    for name, vertices in (("inner", inner), ("outer", outer)):
        for v in vertices:
            if v in side:
                where = f"listed twice on the {name} side" if side[v] == name else "on both sides"
                raise GraphShapeError(f"vertex {v} {where} of a bipartite view")
            side[v] = name
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in side}
    seen: set[int] = set()
    for x, y, eid in edges:
        if side.get(x) != "inner" or side.get(y) != "outer":
            raise GraphShapeError(f"view edge ({x}, {y}) does not cross the two sides")
        if eid in seen:
            raise GraphShapeError(f"edge id {eid} used twice in a bipartite view")
        seen.add(eid)
        adj[x].append((y, eid))
        adj[y].append((x, eid))
    return BipartiteView(index, inner, outer, {v: tuple(sorted(lst)) for v, lst in adj.items()})


def layer_view(graph: Graph, layering: Layering, index: int) -> BipartiteView:
    """Bipartite view between layers index-1 and index; inner side may include
    vertices with no cross edges, the outer side never does (by BFS).

    The view's incidence is the layering's split of the graph's: an inner
    vertex keeps its outward entries, an outer vertex its inward ones.
    These are the graph's own (neighbor, edge id) tuples, already sorted,
    and `bipartite_view`'s checks hold by construction: the layers are the
    classes of layer_of, so no vertex is on both sides and every kept edge
    crosses them.  Everything read comes from the layering; `graph` is the
    graph it was built from.
    """
    if not (1 <= index <= layering.depth):
        raise GraphShapeError(f"layer index {index} out of range 1..{layering.depth}")
    inner = layering.layers[index - 1]
    outer = layering.layers[index]
    outward, inward = layering.outward, layering.inward
    adj = {x: outward[x] for x in inner}
    for y in outer:
        adj[y] = inward[y]
    return BipartiteView(index, inner, outer, adj)
