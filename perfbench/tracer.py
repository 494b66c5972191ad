"""Spans around the package's public functions, recorded from outside.

`Tracer.install` replaces each function in the namespace of the module that
*calls* it (for example `antimagic.labeling.layer_view`, which `label_graph`
looks up on every layer), so the package itself is not edited.  Spans are kept
in memory as (name, start, end, parent span index, graph id) and written out
when the run ends.  A span's self time is its duration minus its children's.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

# calling module -> functions it calls, replaced there
PATCHES = {
    # what the benchmark itself calls
    "antimagic": ("generate_regular", "format_edge_list", "parse_edge_list", "label_graph",
                  "check_construction", "verify_antimagic"),
    "antimagic.documents": ("render_document", "parse_document", "labels_for_graph"),
    # what label_graph calls; it imports verify_antimagic lazily from antimagic.verify
    "antimagic.labeling": ("validate_even_regular", "bfs_layering", "layer_view",
                           "build_covering_pair", "assign_parent_edges", "maximize_free_links",
                           "analyze_bad_components", "compute_interval_plan"),
    "antimagic.covering": ("pad_to_biregular", "maximize_link_family", "hall_matching",
                           "restrict_and_reduce", "validate_covering_pair"),
    "antimagic.trails": ("residual_edge_sets", "decompose_trails", "detect_bad_components"),
    "antimagic.verify": ("verify_antimagic", "validate_covering_pair", "analyze_bad_components"),
}

# span names: <defining module>.<function>
SPAN_NAMES = (
    "generate.generate_regular", "graph.format_edge_list", "graph.parse_edge_list",
    "labeling.label_graph", "graph.validate_even_regular", "graph.bfs_layering",
    "graph.layer_view", "covering.build_covering_pair", "covering.pad_to_biregular",
    "covering.maximize_link_family", "covering.hall_matching", "covering.restrict_and_reduce",
    "covering.validate_covering_pair", "labeling.assign_parent_edges",
    "covering.maximize_free_links", "trails.analyze_bad_components", "trails.residual_edge_sets",
    "trails.decompose_trails", "trails.detect_bad_components", "labeling.compute_interval_plan",
    "verify.check_construction", "verify.verify_antimagic", "documents.render_document",
    "documents.parse_document", "documents.labels_for_graph",
)

UNIT_KINDS = ("closed", "open-inner", "open-outer", "mixed-pair", "mixed-last")


def _count_trail_units(counts, args, result):
    for rec in result.layers.values():
        for event in rec.events:
            counts[f"trails.units.{event.kind}"] += 1


# counts read from each call's arguments and returned object
OBSERVERS = {
    "graph.layer_view": lambda counts, args, view: counts.update({"graph.edges_scanned": args[0].m}),
    "covering.maximize_link_family":
        lambda counts, args, links: counts.update({"covering.links_grown": len(links)}),
    "covering.build_covering_pair":
        lambda counts, args, pair: counts.update({"covering.links_kept": len(pair.links)}),
    "labeling.label_graph": _count_trail_units,
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple | None] = []
        self.counts: Counter = Counter()
        self.graph_id: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for modname, names in PATCHES.items():
            module = importlib.import_module(modname)
            for name in names:
                original = getattr(module, name)
                self._saved.append((module, name, original))
                setattr(module, name, self._wrap(original))

    def uninstall(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def _wrap(self, fn):
        name = span_name(fn)
        observe = OBSERVERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.graph_id)
            if observe is not None:
                observe(self.counts, args, out)
            return out

        return traced

    def summary(self) -> tuple[dict[str, float], Counter]:
        """Self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        for idx, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child[idx]
            calls[name] += 1
        return self_s, calls

    def exchange_candidates(self) -> int:
        """Link exchanges tried by maximize_free_links: its analyses beyond the
        first one per call."""
        mfl = {i for i, s in enumerate(self.spans) if s[0] == "covering.maximize_free_links"}
        analyses = sum(1 for s in self.spans
                       if s[0] == "trails.analyze_bad_components" and s[3] in mfl)
        return analyses - len(mfl)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, gid) in enumerate(self.spans):
                fh.write(json.dumps([idx, parent, name, gid, start, end]) + "\n")
