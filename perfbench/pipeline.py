"""One graph through the full user path, timed per stage and judged by the
package's own verifier.

Stages, as the command line runs them:
  label   `label_graph` (including its built-in final verification)
  check   `check_construction` + `verify_antimagic(..., result)`  (`label --check`, `stress`)
  doc     render -> parse -> `labels_for_graph` -> `verify_antimagic`  (`antimagic verify`)

Every package function is looked up on its module at call time, so a tracer
that replaces module attributes sees these calls.
"""

from __future__ import annotations

import dataclasses
import statistics
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Sample:
    gid: str
    m: int
    n: int
    label_s: float = 0.0
    check_s: float = 0.0
    doc_s: float = 0.0
    failure: str | None = None
    scale: float = 1.0  # reference seconds per wall second (see hostspeed.py)


def judge(am, gid: str, graph, result) -> Sample:
    """Run the check and document stages on `result`, timed per stage; the
    first failed check, or any exception, marks the sample failed."""
    sample = Sample(gid, graph.m, graph.n)
    try:
        t0 = perf_counter()
        issues, _ = am.check_construction(result)
        report = am.verify_antimagic(graph, result.labeling.labels, result.layering, result)
        t1 = perf_counter()
        text = am.documents.render_document(result)
        doc = am.documents.parse_document(text)
        labels = am.documents.labels_for_graph(graph, doc)
        round_trip = am.verify_antimagic(graph, labels)
        t2 = perf_counter()
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        sample.failure = f"{type(exc).__name__}: {exc}"
        return sample
    sample.check_s, sample.doc_s = t1 - t0, t2 - t1
    if issues:
        sample.failure = f"check_construction: {issues[0]}"
    elif not report.passed:
        sample.failure = f"verify_antimagic(result=): {report.first_failure}"
    elif not round_trip.passed:
        sample.failure = f"document verification: {round_trip.first_failure}"
    elif tuple(labels) != result.labeling.labels:
        sample.failure = "document labels differ from the labeling"
    return sample


def run_graph(am, gid: str, graph) -> tuple[Sample, object]:
    """Label one graph and judge the result; returns the sample and the
    labeling result (None when labeling raised)."""
    try:
        t0 = perf_counter()
        result = am.label_graph(graph)
        label_s = perf_counter() - t0
    except Exception as exc:  # a crash is a failed operation, not a benchmark error
        return Sample(gid, graph.m, graph.n, failure=f"{type(exc).__name__}: {exc}"), None
    sample = judge(am, gid, graph, result)
    sample.label_s = label_s
    return sample, result


def tampered(result):
    """The same result with the labels of its edges labelled 1 and m swapped."""
    labels = list(result.labeling.labels)
    i, j = labels.index(1), labels.index(len(labels))
    labels[i], labels[j] = labels[j], labels[i]
    return dataclasses.replace(
        result, labeling=dataclasses.replace(result.labeling, labels=tuple(labels)))


class Tally:
    """Samples of one run; only samples that passed contribute timings."""

    def __init__(self):
        self.samples: list[Sample] = []

    def add(self, sample: Sample) -> None:
        self.samples.append(sample)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failures(self) -> list[Sample]:
        return [s for s in self.samples if s.failure is not None]

    @property
    def fail_ratio(self) -> float:
        return len(self.failures) / self.attempted

    def end_to_end(self, scaled: bool = True) -> dict[str, float]:
        """Per-graph medians over the passes of each stage's time, over the
        samples that passed; throughputs are edges per median pass and the
        label-time quantiles are over graphs.  Times are in reference seconds
        unless `scaled` is false.  Empty when fewer than two samples passed."""
        ok = [s for s in self.samples if s.failure is None]
        if len(ok) < 2:
            return {}
        per_graph: dict[str, list[Sample]] = defaultdict(list)
        for s in ok:
            per_graph[s.gid].append(s)

        def median(stage: str) -> list[float]:
            return [statistics.median(getattr(s, stage) * (s.scale if scaled else 1.0)
                                      for s in samples) for samples in per_graph.values()]

        edges = sum(samples[0].m for samples in per_graph.values())
        label = median("label_s")
        return {
            "label_edges_per_s": edges / sum(label),
            "label_s_p50": statistics.median(label),
            "label_s_p95": statistics.quantiles(label, n=20, method="inclusive")[18],
            "check_edges_per_s": edges / sum(median("check_s")),
            "verify_doc_edges_per_s": edges / sum(median("doc_s")),
        }
