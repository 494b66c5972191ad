"""Labeling documents: rendering, parsing, and graph matching."""

from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from antimagic import GraphFormatError, label_graph, parse_edge_list
from antimagic.documents import (HEADER, LabelingDocument, labels_for_graph, parse_document,
                                 render_document)
from antimagic.verify import stress_instances
from corpus import (circulant, complete_bipartite, complete_graph, hypercube, octahedron,
                    pipeline_corpus)


def _reference_int_fields(parts, count, lineno):
    if len(parts) != count:
        raise GraphFormatError(f"line {lineno}: expected {count} fields, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise GraphFormatError(f"line {lineno}: non-integer field") from exc


def reference_parse_document(text):
    """The straightforward parser (strip, then split, then convert every
    record's fields through one helper) that parse_document must agree with."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise GraphFormatError(f"labeling document must start with '{HEADER}'")
    doc = LabelingDocument(labels={})
    for lineno, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        kind, *rest = line.split()
        if kind == "graph":
            doc.n, doc.m = _reference_int_fields(rest, 2, lineno)
        elif kind in ("root", "degree", "layers"):
            _reference_int_fields(rest, 1, lineno)  # checked, not kept
        elif kind == "plan":
            continue
        elif kind == "layer":
            _reference_int_fields(rest, 2, lineno)  # checked, not kept
        elif kind == "edge":
            u, v, label = _reference_int_fields(rest, 3, lineno)
            if u == v:
                raise GraphFormatError(f"line {lineno}: loop edge {u}-{v}")
            key = (u, v) if u < v else (v, u)
            if key in doc.labels:
                raise GraphFormatError(f"line {lineno}: duplicate edge {key[0]}-{key[1]}")
            doc.labels[key] = label
        elif kind == "sum":
            v, s = _reference_int_fields(rest, 2, lineno)
            doc.sums[v] = s
        else:
            raise GraphFormatError(f"line {lineno}: unknown record '{kind}'")
    if not doc.labels:
        raise GraphFormatError("labeling document has no edge records")
    return doc


def _outcome(parse, text):
    try:
        return "document", parse(text)
    except GraphFormatError as exc:
        return "error", str(exc)


def _corpus_documents():
    graphs = [g for _, g in pipeline_corpus()]
    graphs += [circulant(7, [1, 2]), circulant(9, [1, 2]), complete_bipartite(6, 6),
               hypercube(4)]
    graphs += [g for *_, g in stress_instances(12, 8, 30, [4, 6, 8], 5)]
    docs = [render_document(label_graph(g)) for g in graphs]
    docs += [p.read_text() for p in sorted((Path(__file__).parent / "golden").glob("*.txt"))]
    return docs


CORPUS_DOCUMENTS = _corpus_documents()
SMALL_DOCUMENTS = [d for d in CORPUS_DOCUMENTS if d.count("\n") <= 100]

_FIELDS = st.one_of(st.integers(-3, 64).map(str),
                    st.sampled_from(["x", "1.5", "+4", "-0", "0x1", "1_0", "\u0663", "#", "edge"]))
_KINDS = st.sampled_from(["graph", "root", "degree", "layers", "plan", "layer", "edge", "sum",
                          "Edge", "edges", "whatever", "#", "#edge"])


@st.composite
def _lines(draw):
    """One document line: a record of any kind and field count, or a blank,
    comment or arbitrary line, with spaces, tabs or form feeds around and
    between fields."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["", "   ", "\t", "# comment", "  # indented", HEADER]))
    if draw(st.integers(0, 9)) == 0:
        return draw(st.text(max_size=12))
    fields = [draw(_KINDS)] + draw(st.lists(_FIELDS, max_size=5))
    sep = draw(st.sampled_from([" ", "  ", "\t", " \t ", "\x0c"]))
    return (draw(st.sampled_from(["", " ", "\t"])) + sep.join(fields)
            + draw(st.sampled_from(["", " ", "\t", "\r"])))


@st.composite
def mutated_documents(draw, bases):
    """A document drawn from `bases` after one to four random edits: lines
    replaced, inserted, deleted, duplicated or swapped, one field changed,
    an edge reversed or made a loop, two edges' labels swapped, every sum
    record dropped, or all records shuffled."""
    lines = draw(bases).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["replace", "field", "insert", "delete", "duplicate", "swap",
                                   "reverse", "loop", "relabel", "nosums", "shuffle"]))
        pos = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if op == "replace" and lines:
            lines[pos] = draw(_lines())
        elif op == "field" and lines and lines[pos].split():
            fields = lines[pos].split()
            fields[draw(st.integers(0, len(fields) - 1))] = draw(_FIELDS)
            lines[pos] = " ".join(fields)
        elif op == "insert":
            lines.insert(pos, draw(_lines()))
        elif op == "delete" and lines:
            del lines[pos]
        elif op == "duplicate" and lines:
            lines.insert(pos, lines[pos])
        elif op == "swap" and lines:
            other = draw(st.integers(0, len(lines) - 1))
            lines[pos], lines[other] = lines[other], lines[pos]
        elif op in ("reverse", "loop"):
            edges = [i for i, line in enumerate(lines)
                     if line.startswith("edge ") and line.count(" ") >= 2]
            if edges:
                i = draw(st.sampled_from(edges))
                _, u, v, *rest = lines[i].split(" ")
                lines[i] = " ".join(["edge", v, u, *rest] if op == "reverse"
                                    else ["edge", u, u, *rest])
        elif op == "relabel":
            edges = [i for i, line in enumerate(lines) if line.startswith("edge ")]
            if len(edges) >= 2:
                i, j = draw(st.lists(st.sampled_from(edges), min_size=2, max_size=2,
                                     unique=True))
                a, b = lines[i].rsplit(" ", 1), lines[j].rsplit(" ", 1)
                lines[i], lines[j] = f"{a[0]} {b[1]}", f"{b[0]} {a[1]}"
        elif op == "nosums":
            lines = [line for line in lines if not line.startswith("sum ")]
        elif op == "shuffle":
            body = lines[1:]
            lines = lines[:1] + draw(st.permutations(body))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n", "\r\n"]))


class TestRoundTrip:
    def test_render_parse_match(self):
        res = label_graph(circulant(9, [1, 2]))
        doc = parse_document(render_document(res))
        assert doc.n == 9 and doc.m == 18
        assert doc.sums == {v: res.labeling.vertex_sums[v] for v in range(9)}
        assert labels_for_graph(res.graph, doc) == list(res.labeling.labels)

    def test_rendering_deterministic(self):
        g = complete_graph(5)
        assert render_document(label_graph(g)) == render_document(label_graph(g))

    def test_header_first_line(self):
        res = label_graph(complete_graph(5))
        assert render_document(res).splitlines()[0] == HEADER


class TestParsing:
    def test_minimal_document(self):
        doc = parse_document(f"{HEADER}\nedge 0 1 1\nedge 1 2 2\n")
        assert doc.labels == {(0, 1): 1, (1, 2): 2}
        assert doc.n is None and doc.sums == {}

    def test_reversed_endpoints_normalized(self):
        doc = parse_document(f"{HEADER}\nedge 5 2 9\n")
        assert doc.labels == {(2, 5): 9}

    def test_missing_header(self):
        with pytest.raises(GraphFormatError, match="must start"):
            parse_document("edge 0 1 1\n")

    def test_unknown_record(self):
        with pytest.raises(GraphFormatError, match="unknown record"):
            parse_document(f"{HEADER}\nwhatever 1 2\n")

    def test_duplicate_edge(self):
        with pytest.raises(GraphFormatError, match="duplicate"):
            parse_document(f"{HEADER}\nedge 0 1 1\nedge 1 0 2\n")

    def test_bad_field_count(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            parse_document(f"{HEADER}\nedge 0 1\n")

    def test_no_edges(self):
        with pytest.raises(GraphFormatError, match="no edge records"):
            parse_document(f"{HEADER}\ngraph 3 3\n")


class TestAgainstReference:
    def test_corpus_documents(self):
        assert len(CORPUS_DOCUMENTS) >= 20
        for text in CORPUS_DOCUMENTS:
            assert parse_document(text) == reference_parse_document(text)

    @settings(max_examples=400, deadline=None)
    @given(mutated_documents(st.sampled_from(SMALL_DOCUMENTS)))
    def test_mutated_documents(self, text):
        assert _outcome(parse_document, text) == _outcome(reference_parse_document, text)

    @pytest.mark.parametrize("line, message", [
        ("edge 1 2", "line 3: expected 3 fields, got 2"),
        ("layer 1 2 3", "line 3: expected 2 fields, got 3"),
        ("sum 1", "line 3: expected 2 fields, got 1"),
        ("root", "line 3: expected 1 fields, got 0"),
        ("edge 1 x 2", "line 3: non-integer field"),
        ("sum 1.0 2", "line 3: non-integer field"),
        ("edge 4 4 1", "line 3: loop edge 4-4"),
        ("edge 1 0 2", "line 3: duplicate edge 0-1"),
        ("Edge 0 1 1", "line 3: unknown record 'Edge'"),
    ])
    def test_error_names_its_line(self, line, message):
        text = f"{HEADER}\nedge 0 1 1\n{line}\n"
        with pytest.raises(GraphFormatError) as exc:
            parse_document(text)
        assert str(exc.value) == message
        assert _outcome(reference_parse_document, text) == ("error", message)

    def test_blank_comment_tab_and_order_accepted(self):
        text = f"{HEADER}\n\n  # note\nsum\t1 5\n\tedge 1 0\t3  \nlayer 1 1\ngraph 2 1\n"
        doc = parse_document(text)
        assert doc == reference_parse_document(text)
        assert doc.labels == {(0, 1): 3} and doc.sums == {1: 5}
        assert (doc.n, doc.m) == (2, 1)


class TestMatching:
    def test_label_count_mismatch(self):
        g = parse_edge_list("0 1\n1 2\n0 2\n")
        doc = parse_document(f"{HEADER}\nedge 0 1 1\nedge 1 2 2\n")
        with pytest.raises(GraphFormatError, match="labels 2 edges"):
            labels_for_graph(g, doc)

    def test_wrong_edge(self):
        g = parse_edge_list("0 1\n1 2\n")
        doc = parse_document(f"{HEADER}\nedge 0 1 1\nedge 0 2 2\n")
        with pytest.raises(GraphFormatError, match="no label"):
            labels_for_graph(g, doc)

    def test_declared_counts_checked(self):
        g = parse_edge_list("0 1\n")
        doc = parse_document(f"{HEADER}\ngraph 3 1\nedge 0 1 1\n")
        with pytest.raises(GraphFormatError, match="declares 3 vertices"):
            labels_for_graph(g, doc)

    def test_declared_edge_count_checked(self):
        g = parse_edge_list("0 1\n1 2\n0 2\n")
        doc = parse_document(f"{HEADER}\ngraph 3 2\nedge 0 1 1\nedge 1 2 2\nedge 0 2 3\n")
        with pytest.raises(GraphFormatError, match="declares 2 edges, graph has 3"):
            labels_for_graph(g, doc)

    def test_first_missing_edge_is_named(self):
        g = parse_edge_list("0 1\n1 2\n2 3\n")
        doc = parse_document(f"{HEADER}\nedge 0 1 1\nedge 1 3 2\nedge 0 3 3\n")
        with pytest.raises(GraphFormatError, match="graph edge 1-2 has no label"):
            labels_for_graph(g, doc)
