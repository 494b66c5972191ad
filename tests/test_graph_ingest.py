"""Reading a graph: `parse_edge_list` and `Graph(n, edges)` give what they gave
when each edge was read three times.

`reference_parse` and `reference_graph` are the reader and the constructor
as they were before each took one pass per edge, kept verbatim but for
returning fields instead of a `Graph`.  On any text or edge list, the
current code must give a graph equal to theirs field by field (`n`, `edges`,
every `incident(v)`), or raise the same exception type with the same
message.
"""

import pytest
from hypothesis import given, settings, strategies as st

from antimagic import Graph, GraphFormatError, GraphShapeError, generate_regular, parse_edge_list
from corpus import pipeline_corpus


def reference_graph(n: int, edges: list[tuple[int, int]]):
    if n < 1:
        raise GraphShapeError("graph needs at least one vertex")
    normalized: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise GraphShapeError(f"edge ({u}, {v}) has an endpoint outside 0..{n - 1}")
        if u == v:
            raise GraphShapeError(f"loop edge at vertex {u}")
        e = (u, v) if u < v else (v, u)
        if e in seen:
            raise GraphShapeError(f"duplicate edge ({e[0]}, {e[1]})")
        seen.add(e)
        normalized.append(e)
    edges_out = tuple(normalized)
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges_out):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    for lst in adj:
        lst.sort()
    return n, edges_out, tuple(tuple(lst) for lst in adj)


def reference_parse(text: str):
    edges: list[tuple[int, int]] = []
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected two integers, got {line!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise GraphFormatError(f"line {lineno}: expected two integers, got {line!r}") from None
        if u < 0 or v < 0:
            raise GraphFormatError(f"line {lineno}: negative vertex id")
        if u == v:
            raise GraphFormatError(f"line {lineno}: loop edge at vertex {u}")
        max_id = max(max_id, u, v)
        edges.append((u, v))
    if max_id < 0:
        raise GraphFormatError("no edges in input")
    return reference_graph(max_id + 1, edges)


def fields(graph: Graph):
    return graph.n, graph.edges, tuple(graph.incident(v) for v in range(graph.n))


def outcome(build, *args):
    """The fields of what `build` returns, or the type and message of the
    error it raises."""
    try:
        built = build(*args)
    except (GraphFormatError, GraphShapeError) as exc:
        return type(exc), str(exc)
    return fields(built) if isinstance(built, Graph) else built


# --- edge-list texts -------------------------------------------------------

def _digits(value: int, style: str) -> str:
    if style == "plus":
        return f"+{value}"
    if style == "zeros":
        return f"00{value}"
    if style == "underscore":  # 1_0 for 10; a one-digit id gains a leading 0_
        text = str(value)
        return f"{text[0]}_{text[1:]}" if len(text) > 1 else f"0_{text}"
    if style == "arabic-indic":  # int() reads these digits too
        return "".join(chr(0x660 + int(c)) for c in str(value))
    return str(value)


_styles = st.sampled_from(["plain", "plain", "plain", "plus", "zeros", "underscore",
                          "arabic-indic"])
_ids = st.builds(_digits, st.integers(0, 30), _styles)
# field separators: runs of blanks, tabs, a no-break space, a unit separator
_gaps = st.sampled_from([" ", "  ", "\t", " \t ", "\xa0", "\x1f"])
_pads = st.sampled_from(["", "", " ", "\t", "  \t"])


_FINE = ["pair"] * 6 + ["comment", "blank"]
_BAD = ["three", "note", "word", "negative", "loop"]


@st.composite
def _lines(draw, _kinds) -> str:
    kind = draw(st.sampled_from(_kinds))
    gap = draw(_gaps)
    if kind == "pair":
        body = draw(_ids) + gap + draw(_ids)
    elif kind == "comment":
        body = "#" + draw(st.sampled_from(["", " a comment", "1 2", " 3 4 5", "#"]))
    elif kind == "blank":
        body = ""
    elif kind == "three":
        body = gap.join(draw(st.lists(_ids, min_size=3, max_size=3)))
    elif kind == "note":  # '#' after a pair is not a comment
        body = draw(_ids) + gap + draw(_ids) + gap + "# note"
    elif kind == "word":
        body = draw(st.sampled_from(["x 1", "1 y", "1.5 2", "1 2x", "0x1 2", "1 -", "-"]))
    elif kind == "negative":
        body = f"-{draw(st.integers(1, 3))}{gap}{draw(_ids)}"
    else:  # the same id, perhaps spelled two ways
        value = draw(st.integers(0, 30))
        body = draw(st.builds(_digits, st.just(value), _styles)) + gap + str(value)
    return draw(_pads) + body + draw(_pads)


# line ends: every one of these ends a line for str.splitlines
_ends = st.sampled_from(["\n", "\n", "\r\n", "\r", "\f", "\x0b", "\x1c", "\u2028"])


@st.composite
def _texts(draw) -> str:
    # half the texts have no bad line, so most of those end in a graph
    kinds = _FINE + draw(st.sampled_from([[], _BAD]))
    lines = draw(st.lists(_lines(kinds), max_size=14))
    text = "".join(line + draw(_ends) for line in lines)
    return text + draw(st.sampled_from(["", "0 1", "  # no end"]))


class TestReaderDifferential:
    @settings(max_examples=600, deadline=None)
    @given(_texts())
    def test_same_graph_or_same_error(self, text):
        assert outcome(parse_edge_list, text) == outcome(reference_parse, text)

    @pytest.mark.parametrize("text", [
        "0 1\r\n1 2\r\n0 2\r\n",
        "# header\n\n  # indented\n0\t1\n\f1  2\r2 0\n",
        "+1 007\n1_0 2\n",
        "٣ ١\n",
        "0 1 # note\n",
        "0 1\n1 2 3\n",
        "0 x\n",
        "-1 2\n",
        "3 3\n",
        "0 1\n1 0\n",
        "# nothing\n\n \t\n",
        "",
        "   0 1   \n  #x 1\n",
    ])
    def test_fixed_texts(self, text):
        assert outcome(parse_edge_list, text) == outcome(reference_parse, text)

    def test_pipeline_corpus(self):
        for _, graph in pipeline_corpus():
            text = "".join(f"{u} {v}\n" for u, v in graph.edges)
            assert outcome(parse_edge_list, text) == outcome(reference_parse, text)


# --- the constructor on its own ---------------------------------------------

_pairs = st.tuples(st.integers(-2, 8), st.integers(-2, 8))


class TestConstructorDifferential:
    @settings(max_examples=600, deadline=None)
    @given(st.integers(0, 7), st.lists(_pairs, max_size=12))
    def test_unnormalized_pairs(self, n, edges):
        assert outcome(Graph, n, edges) == outcome(reference_graph, n, edges)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 7), st.lists(_pairs, max_size=12))
    def test_sorted_normalized_pairs(self, n, edges):
        # as generate_regular passes them
        edges = sorted((u, v) if u < v else (v, u) for u, v in edges)
        assert outcome(Graph, n, edges) == outcome(reference_graph, n, edges)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 7), st.lists(st.lists(st.integers(-2, 8), min_size=2, max_size=2),
                                       max_size=12))
    def test_list_pairs(self, n, edges):
        # a pair that is not a tuple is copied, never kept as an edge
        assert outcome(Graph, n, edges) == outcome(reference_graph, n, edges)

    @pytest.mark.parametrize("seed", range(3))
    def test_generated_graphs(self, seed):
        graph = generate_regular(40, 6, seed)
        assert fields(graph) == reference_graph(graph.n, list(graph.edges))


class TestConstructorErrors:
    """The first bad edge in input order is the one reported; within one edge
    an end out of range wins over a loop, and a loop over a repeat."""

    @pytest.mark.parametrize("n, edges, message", [
        # the first bad edge in input order, whatever the kinds after it
        (3, [(0, 1), (0, 5), (2, 2), (1, 0)], "edge (0, 5) has an endpoint outside 0..2"),
        (3, [(0, 1), (2, 2), (0, 5), (1, 0)], "loop edge at vertex 2"),
        (3, [(0, 1), (1, 0), (2, 2), (0, 5)], "duplicate edge (0, 1)"),
        (3, [(2, 1), (0, 1), (1, 2), (1, 0)], "duplicate edge (1, 2)"),
        (3, [(0, 1), (-1, 2)], "edge (-1, 2) has an endpoint outside 0..2"),
        # within one edge: out of range over loop, loop over repeat
        (3, [(5, 5)], "edge (5, 5) has an endpoint outside 0..2"),
        (3, [(-1, -1)], "edge (-1, -1) has an endpoint outside 0..2"),
        (3, [(0, 3), (3, 0)], "edge (0, 3) has an endpoint outside 0..2"),
        (3, [(1, 1), (1, 1)], "loop edge at vertex 1"),
        (3, [(0, 1), (1, 1), (1, 1)], "loop edge at vertex 1"),
        (1, [], None),
        (0, [], "graph needs at least one vertex"),
        (0, [(0, 5)], "graph needs at least one vertex"),
    ])
    def test_unnormalized(self, n, edges, message):
        self._check(n, edges, message)

    @pytest.mark.parametrize("n, edges, message", [
        (4, [(0, 1), (0, 1), (0, 2), (2, 4)], "duplicate edge (0, 1)"),
        (4, [(0, 1), (0, 2), (1, 1), (1, 2), (1, 2)], "loop edge at vertex 1"),
        (4, [(0, 1), (1, 2), (2, 4), (2, 4)], "edge (2, 4) has an endpoint outside 0..3"),
        (4, [(-1, 0), (0, 1), (0, 1)], "edge (-1, 0) has an endpoint outside 0..3"),
        (4, [(0, 1), (0, 2), (0, 3), (1, 2), (2, 3), (2, 3)], "duplicate edge (2, 3)"),
    ])
    def test_sorted_normalized(self, n, edges, message):
        assert edges == sorted(edges)
        self._check(n, edges, message)

    @staticmethod
    def _check(n, edges, message):
        assert outcome(reference_graph, n, edges) == outcome(Graph, n, edges)
        if message is None:
            assert Graph(n, edges).m == len(edges)
        else:
            with pytest.raises(GraphShapeError) as exc:
                Graph(n, edges)
            assert str(exc.value) == message
