"""Line-oriented labeling documents.

A labeling document is versioned text carrying the labeled edge list, the
per-vertex sums, the layer assignment, and the interval plan.  Rendering is
deterministic: identical inputs produce byte-identical documents.  Parsing
accepts any document with the right header and edge lines and cross-checks
nothing: `labels_for_graph` checks the `graph` record against the graph, the
`verify` command checks the `sum` records against the recomputed sums, and
the other records are informative: `root`, `degree`, `layers` and `layer`
records must hold integer fields, but their values are not kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import GraphFormatError
from .graph import Graph
from .labeling import LabelingResult

HEADER = "antimagic-labeling 1"


@dataclass
class LabelingDocument:
    """Parsed form; optional sections are None / empty when absent."""

    labels: dict[tuple[int, int], int]
    n: int | None = None
    m: int | None = None
    sums: dict[int, int] = field(default_factory=dict)


def render_document(result: LabelingResult) -> str:
    g = result.graph
    lines = [HEADER,
             f"graph {g.n} {g.m}",
             f"root {result.layering.root}",
             f"degree {2 * result.k + 2}",
             f"layers {result.layering.depth}"]
    for i in range(result.layering.depth, 0, -1):
        plan = result.plans[i]
        lines.append(f"plan {i} offset={plan.offset} inner={plan.inner_count} "
                     f"trail={plan.trail_count} link={plan.link_count} size={plan.layer_size}")
    lines += [f"layer {v} {idx}" for v, idx in enumerate(result.layering.layer_of)]
    # edges are distinct, so this sorts by endpoints alone
    lines += [f"edge {u} {v} {label}"
              for (u, v), label in sorted(zip(g.edges, result.labeling.labels))]
    lines += [f"sum {v} {s}" for v, s in enumerate(result.labeling.vertex_sums)]
    return "\n".join(lines) + "\n"


def _int_fields(parts: list[str], count: int, lineno: int) -> list[int]:
    if len(parts) != count:
        raise GraphFormatError(f"line {lineno}: expected {count} fields, got {len(parts)}")
    try:
        return [int(p) for p in parts]
    except ValueError as exc:
        raise GraphFormatError(f"line {lineno}: non-integer field") from exc


def parse_document(text: str) -> LabelingDocument:
    """Parse a labeling document; the grammar is in README.md.  Every error
    but a missing header or a document without edges names its line."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise GraphFormatError(f"labeling document must start with '{HEADER}'")
    labels: dict[tuple[int, int], int] = {}
    sums: dict[int, int] = {}
    doc = LabelingDocument(labels=labels, sums=sums)
    for lineno, line in enumerate(lines[1:], start=2):
        # one split per line: the first field tells blank, comment and record
        # kind apart, and the hot records (edge, layer, sum) convert inline
        parts = line.split()
        if not parts:
            continue
        kind = parts[0]
        if kind == "edge":
            if len(parts) != 4:
                raise GraphFormatError(f"line {lineno}: expected 3 fields, got {len(parts) - 1}")
            try:
                u, v, label = int(parts[1]), int(parts[2]), int(parts[3])
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: non-integer field") from exc
            if u < v:
                key = (u, v)
            elif v < u:
                key = (v, u)
            else:
                raise GraphFormatError(f"line {lineno}: loop edge {u}-{v}")
            if key in labels:
                raise GraphFormatError(f"line {lineno}: duplicate edge {key[0]}-{key[1]}")
            labels[key] = label
        elif kind == "layer" or kind == "sum":
            if len(parts) != 3:
                raise GraphFormatError(f"line {lineno}: expected 2 fields, got {len(parts) - 1}")
            try:
                v, x = int(parts[1]), int(parts[2])
            except ValueError as exc:
                raise GraphFormatError(f"line {lineno}: non-integer field") from exc
            if kind == "sum":
                sums[v] = x
        elif kind[0] == "#" or kind == "plan":
            continue  # plans are informative; the verifier recomputes them when needed
        elif kind == "graph":
            doc.n, doc.m = _int_fields(parts[1:], 2, lineno)
        elif kind == "root" or kind == "degree" or kind == "layers":
            _int_fields(parts[1:], 1, lineno)
        else:
            raise GraphFormatError(f"line {lineno}: unknown record '{kind}'")
    if not labels:
        raise GraphFormatError("labeling document has no edge records")
    return doc


def labels_for_graph(graph: Graph, doc: LabelingDocument) -> list[int]:
    """Match the document's labeled edges against a graph, returning labels in
    edge-id order.  Any mismatch between the two is a format error."""
    if doc.n is not None and doc.n != graph.n:
        raise GraphFormatError(f"document declares {doc.n} vertices, graph has {graph.n}")
    if doc.m is not None and doc.m != graph.m:
        raise GraphFormatError(f"document declares {doc.m} edges, graph has {graph.m}")
    if len(doc.labels) != graph.m:
        raise GraphFormatError(f"document labels {len(doc.labels)} edges, graph has {graph.m}")
    try:
        return list(map(doc.labels.__getitem__, graph.edges))
    except KeyError as exc:
        u, v = exc.args[0]
        raise GraphFormatError(f"graph edge {u}-{v} has no label in the document") from None
