"""Labeling benchmark: one workload, single process, single thread, closed loop.

    python3 perfbench/run.py --workload random-regular --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client labels one graph at a time and starts the next only when the
previous one is done, in whole passes over the workload's graphs.  Each graph
goes through the full user path (see pipeline.py) and is judged by the
package's own verifier.  The package is imported from `src/` of the checkout
this file sits in, never from elsewhere.

With `--trace 0` the run reports the end-to-end metrics.  Their times are in
reference seconds: each stage time is scaled by how fast a fixed reference
task ran just before and after it (see hostspeed.py), which takes the shared
host's speed swings out; the same figures in wall seconds are printed above
the result line.

With `--trace 1` it makes one untraced reference pass, then a traced set-up
and traced passes, and reports per-layer self times (in wall seconds) and
counts per pass (set-up spans per set-up); spans are written to
perfbench/out/spans-<workload>.jsonl.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value": v, "unit": u}}}
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

from hostspeed import REFERENCE_S, HostClock
from pipeline import Tally, judge, run_graph, tampered
from tracer import SPAN_NAMES, UNIT_KINDS, Tracer
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 5
SETUP_SPANS = ("generate.generate_regular", "graph.format_edge_list", "graph.parse_edge_list")

END_TO_END = {
    "setup_s": "s",
    "label_edges_per_s": "edges/s",
    "label_s_p50": "s",
    "label_s_p95": "s",
    "check_edges_per_s": "edges/s",
    "verify_doc_edges_per_s": "edges/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{name}_s": "s" for name in SPAN_NAMES},
    **{f"{name}_calls": "count" for name in SPAN_NAMES},
    "graph.edges_scanned": "count",
    "covering.links_grown": "count",
    "covering.links_kept": "count",
    "covering.link_keep_ratio": "ratio",
    "covering.exchange_candidates": "count",
    **{f"trails.units.{kind}": "count" for kind in UNIT_KINDS},
    "labeling.growth_exponent": "slope",
    "trace.overhead_s": "s",
}


class PackageMissing(Exception):
    pass


def import_package():
    """Import `antimagic` afresh from this checkout's source tree."""
    if not (SRC / "antimagic" / "__init__.py").is_file():
        raise PackageMissing(f"no package source at {SRC / 'antimagic'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "antimagic" or n.startswith("antimagic.")]:
        del sys.modules[name]
    am = importlib.import_module("antimagic")
    importlib.import_module("antimagic.documents")
    if Path(am.__file__).resolve().parent != SRC / "antimagic":
        raise PackageMissing(f"antimagic was imported from {am.__file__}, not from {SRC}")
    return am


def make_graphs(am, workload: Workload, sizes: tuple, seed: int):
    return [(gid, am.parse_edge_list(text)) for gid, text in workload.make(am, seed, sizes)]


@dataclass
class Passes:
    tally: Tally = field(default_factory=Tally)
    count: int = 0
    labels: dict = field(default_factory=dict)  # graph id -> labels of the first pass
    first: tuple | None = None  # (graph id, graph, result) of the first sample


def run_passes(am, graphs, seconds: float, reference: dict | None = None,
               tracer: Tracer | None = None, clock: HostClock | None = None) -> Passes:
    """Whole passes over `graphs` while one more pass as long as the last one
    still fits in `seconds`; at least one.  A labeling that differs from
    `reference` (default: this run's first pass) counts as failed.  With a
    `clock`, reference-task slices run between graphs and each sample is
    scaled to reference seconds by the slices around it."""
    out = Passes()
    reference = out.labels if reference is None else reference
    pending = []  # (sample, index of the last slice before it)
    if clock is not None:
        clock.tick()
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for gid, graph in graphs:
            if tracer is not None:
                tracer.graph_id = gid
            sample, result = run_graph(am, gid, graph)
            if clock is not None:
                pending.append((sample, len(clock.slices) - 1))
                clock.maybe_tick()
            labels = None if result is None else result.labeling.labels
            if out.first is None and result is not None:
                out.first = (gid, graph, result)
            if out.count == 0:
                out.labels[gid] = labels
            if sample.failure is None and reference.get(gid) != labels:
                sample.failure = "labels differ from the reference labeling of this graph"
            out.tally.add(sample)
        out.count += 1
        now = perf_counter()
        if (now - start) + (now - pass_start) > seconds:
            break
    if clock is not None:
        clock.tick()
        for sample, before in pending:
            sample.scale = clock.scale(before)
    return out


def growth_exponent(samples) -> float:
    """Least-squares slope of log(label time) against log(m), pooled within
    graphs of one degree so that it measures growth with size; a plain slope
    when no degree comes in two sizes."""
    groups: dict[float, list[tuple[float, float]]] = defaultdict(list)
    for s in samples:
        if s.failure is None:
            groups[2 * s.m / s.n].append((math.log(s.m), math.log(s.label_s)))
    if sum(map(len, groups.values())) < 2:
        return 0.0
    if all(len({x for x, _ in pts}) < 2 for pts in groups.values()):
        groups = {0: [p for pts in groups.values() for p in pts]}
    sxx = sxy = 0.0
    for pts in groups.values():
        mx = statistics.fmean(x for x, _ in pts)
        my = statistics.fmean(y for _, y in pts)
        sxx += sum((x - mx) ** 2 for x, _ in pts)
        sxy += sum((x - mx) * (y - my) for x, y in pts)
    return sxy / sxx if sxx else 0.0


@dataclass
class Report:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str]

    def result_line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        })


def _rejects_tampering(am, passes: Passes, notes: list[str]) -> bool:
    """The verify path must reject the first result with two labels swapped."""
    if passes.first is None:
        return False
    gid, graph, result = passes.first
    sample = judge(am, gid, graph, tampered(result))
    notes.append(f"tampered labeling of {gid} rejected: {sample.failure}")
    return sample.failure is not None


def run_workload(workload: Workload, sizes: tuple, seed: int, seconds: float,
                 trace: bool, spans_path: Path | None = None) -> Report:
    clock = HostClock()
    clock.tick()
    setup_times = []  # (wall seconds, reference seconds)
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        am = import_package()
        graphs = make_graphs(am, workload, sizes, seed)
        elapsed = perf_counter() - t0
        setup_times.append((elapsed, elapsed * clock.scale(clock.tick() - 1)))

    notes = [f"workload {workload.name} seed {seed}: {len(graphs)} graphs, "
             f"m = {sum(g.m for _, g in graphs)} edges per pass"]
    if not trace:
        passes = run_passes(am, graphs, seconds, clock=clock)
        correct = _rejects_tampering(am, passes, notes)
        tally = passes.tally
        metrics = {"setup_s": statistics.median(t for _, t in setup_times), **tally.end_to_end()}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        notes.append(f"passes {passes.count}, labelings {tally.attempted}, "
                     f"{len(tally.failures)} failed (fail_ratio {tally.fail_ratio:g}); "
                     f"setup repeated {SETUP_REPEATS} times")
        wall = {"setup_s": statistics.median(w for w, _ in setup_times),
                **tally.end_to_end(scaled=False)}
        notes.append("times are in reference seconds (hostspeed.py); in wall seconds: "
                     + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()))
        q = statistics.quantiles(clock.slices, n=4)
        notes.append(f"reference slices {len(clock.slices)}: median {statistics.median(clock.slices):.4f} s, "
                     f"quartiles {q[0]:.4f}-{q[2]:.4f} s (reference {REFERENCE_S} s)")
        units = END_TO_END
    else:
        start = perf_counter()
        reference = run_passes(am, graphs, 0)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.graph_id = "setup"
            traced_graphs = make_graphs(am, workload, sizes, seed)
            passes = run_passes(am, graphs, seconds - (perf_counter() - start),
                                reference=reference.labels, tracer=tracer)
        finally:
            tracer.uninstall()
        same_inputs = [g.edges for _, g in traced_graphs] == [g.edges for _, g in graphs]
        correct = same_inputs and _rejects_tampering(am, passes, notes)
        metrics = _per_layer(tracer, passes, reference)
        tally = Tally()
        tally.samples = reference.tally.samples + passes.tally.samples
        notes.append(f"untraced reference passes 1, traced passes {passes.count}; "
                     f"per-layer values are per pass, set-up spans per set-up")
        units = PER_LAYER
        if spans_path is not None:
            spans_path.parent.mkdir(exist_ok=True)
            tracer.write(spans_path)
            notes.append(f"{len(tracer.spans)} spans written to {spans_path.relative_to(HERE.parent)}")

    for sample in tally.failures[:5]:
        notes.append(f"FAILED {sample.gid}: {sample.failure}")
    missing = [name for name in units if name not in metrics]
    if missing:
        notes.append(f"no value for {', '.join(missing)}")
    correct = correct and not tally.failures and not missing
    return Report(correct, tally.attempted, len(tally.failures),
                  {name: (metrics[name], unit) for name, unit in units.items() if name in metrics},
                  notes)


def _per_layer(tracer: Tracer, passes: Passes, reference: Passes) -> dict[str, float]:
    self_s, calls = tracer.summary()
    out: dict[str, float] = {}
    for name in SPAN_NAMES:
        scale = 1 if name in SETUP_SPANS else passes.count
        out[f"{name}_s"] = self_s.get(name, 0.0) / scale
        out[f"{name}_calls"] = calls[name] / scale
    counts = tracer.counts
    for name in ("graph.edges_scanned", "covering.links_grown", "covering.links_kept"):
        out[name] = counts[name] / passes.count
    for kind in UNIT_KINDS:
        out[f"trails.units.{kind}"] = counts[f"trails.units.{kind}"] / passes.count
    grown = counts["covering.links_grown"]
    out["covering.link_keep_ratio"] = counts["covering.links_kept"] / grown if grown else 0.0
    out["covering.exchange_candidates"] = tracer.exchange_candidates() / passes.count
    out["labeling.growth_exponent"] = growth_exponent(reference.tally.samples + passes.tally.samples)
    traced_label = sum(s.label_s for s in passes.tally.samples) / passes.count
    out["trace.overhead_s"] = traced_label - sum(s.label_s for s in reference.tally.samples)
    return out


def _table(name: str, report: Report) -> list[str]:
    lines = [f"== {name}"]
    lines += [f"   {note}" for note in report.notes]
    for metric, (value, unit) in report.metrics.items():
        lines.append(f"   {metric:<42} {value:>16.6g} {unit}")
    return lines


def _run_all(args) -> int:
    """Every workload, each in its own process so peak RSS is its own."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False)
        out = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not out:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(out[:-1]))
        last = json.loads(out[-1])
        correct &= last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}/{k}": v for k, v in last["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)

    workload = WORKLOADS[args.workload]
    try:
        report = run_workload(workload, workload.sizes, args.seed, args.seconds, bool(args.trace),
                              HERE / "out" / f"spans-{workload.name}.jsonl")
    except PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print("\n".join(_table(workload.name, report)))
    print(report.result_line())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
