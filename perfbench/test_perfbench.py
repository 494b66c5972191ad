"""Tests of the benchmark itself, at tiny sizes:  python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from hostspeed import REFERENCE_S, HostClock  # noqa: E402
from pipeline import Sample, Tally, judge, run_graph, tampered  # noqa: E402
from tracer import PATCHES, SPAN_NAMES, UNIT_KINDS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


@pytest.fixture(scope="module")
def am():
    return run.import_package()


@pytest.fixture(scope="module")
def traced_reports():
    return {name: run.run_workload(w, w.tiny, seed=3, seconds=0, trace=True)
            for name, w in WORKLOADS.items()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_runs_clean_at_tiny_size(name):
    w = WORKLOADS[name]
    report = run.run_workload(w, w.tiny, seed=3, seconds=0, trace=False)
    assert report.correct, report.notes
    assert report.attempted == len(w.make(run.import_package(), 3, w.tiny))
    assert report.failed == 0
    assert set(report.metrics) == set(run.END_TO_END)
    assert all(value > 0 for value, _ in report.metrics.values())


def test_every_named_span_fires_on_some_workload(traced_reports):
    for name, report in traced_reports.items():
        assert report.correct, (name, report.notes)
        assert set(report.metrics) == set(run.PER_LAYER)
    for span in SPAN_NAMES:
        assert any(r.metrics[f"{span}_calls"][0] > 0 for r in traced_reports.values()), span


def test_counts_are_read_from_returned_objects(am):
    # K_{6,6}: depth 2 from any root, and Hall fails on layer 2, so a link is kept
    graph = am.parse_edge_list("".join(f"{i} {6 + j}\n" for i in range(6) for j in range(6)))
    tracer = Tracer()
    tracer.install()
    try:
        result = am.label_graph(graph)
    finally:
        tracer.uninstall()
    assert tracer.counts["graph.edges_scanned"] == 2 * graph.m
    assert tracer.counts["covering.links_grown"] >= tracer.counts["covering.links_kept"] >= 1
    assert sum(tracer.counts[f"trails.units.{kind}"] for kind in UNIT_KINDS) == sum(
        len(rec.events) for rec in result.layers.values())


def test_self_times_partition_the_root_span():
    tracer = Tracer()
    tracer.spans[:] = [("a", 0.0, 10.0, -1, "g"), ("b", 1.0, 4.0, 0, "g"),
                       ("c", 2.0, 3.0, 1, "g"), ("b", 5.0, 6.0, 0, "g")]
    self_s, calls = tracer.summary()
    assert self_s == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert calls == {"a": 1, "b": 2, "c": 1}


def test_host_clock_scale_is_reference_over_the_slices_around():
    clock = HostClock()
    clock.slices = [0.04, 0.06, 0.2]
    assert clock.scale(0) == pytest.approx(REFERENCE_S / 0.05)
    assert clock.scale(1) == pytest.approx(REFERENCE_S / 0.13)


def test_reference_seconds_scale_every_timing():
    tally = Tally()
    tally.samples = [Sample(f"g{i}", 10, 5, label_s=1.0 + i, check_s=0.5, doc_s=0.25, scale=2.0)
                     for i in range(3)]
    wall, ref = tally.end_to_end(scaled=False), tally.end_to_end()
    for name in ("label_edges_per_s", "check_edges_per_s", "verify_doc_edges_per_s"):
        assert ref[name] == pytest.approx(wall[name] / 2)
    for name in ("label_s_p50", "label_s_p95"):
        assert ref[name] == pytest.approx(wall[name] * 2)


def test_each_sample_is_scaled_by_the_slices_around_it(am):
    w = WORKLOADS["stress-small"]
    graphs = run.make_graphs(am, w, w.tiny, 5)
    clock = HostClock()
    passes = run.run_passes(am, graphs, 0, clock=clock)
    assert len(clock.slices) >= 2
    scales = {clock.scale(i) for i in range(len(clock.slices) - 1)}
    assert passes.tally.samples
    assert all(s.scale in scales for s in passes.tally.samples)


def test_growth_exponent_pools_graphs_of_one_degree():
    # time = c_d * m^2 with a different constant per degree
    samples = [Sample("g", m, n, label_s=c * (m / 1000) ** 2)
               for n, c in ((500, 1.0), (800, 1.0), (300, 9.0), (400, 9.0))
               for m in [n * (4 if c == 1.0 else 8) // 2]]
    assert run.growth_exponent(samples) == pytest.approx(2.0)
    # no degree in two sizes: the plain slope through (1000, 1.0) and (1200, 12.96)
    assert run.growth_exponent([samples[0], samples[2]]) == pytest.approx(
        math.log(12.96) / math.log(1.2))


def test_traced_and_untraced_labelings_are_identical(am):
    w = WORKLOADS["stress-small"]
    graphs = run.make_graphs(am, w, w.tiny, 5)
    plain = run.run_passes(am, graphs, 0)
    tracer = Tracer()
    tracer.install()
    try:
        traced = run.run_passes(am, graphs, 0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert tracer.spans
    assert traced.labels == plain.labels
    assert all(labels is not None for labels in plain.labels.values())


def test_uninstall_restores_every_function(am):
    before = {(m, n): getattr(sys.modules[m], n) for m, names in PATCHES.items()
              for n in names}
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert all(getattr(sys.modules[m], n) is f for (m, n), f in before.items())


@pytest.mark.parametrize("name", ["random-regular", "stress-small"])
def test_seed_changes_random_graphs(am, name):
    w = WORKLOADS[name]
    assert w.make(am, 1, w.tiny) == w.make(am, 1, w.tiny)
    assert w.make(am, 1, w.tiny) != w.make(am, 2, w.tiny)


def test_stress_small_matches_the_stress_verb(am):
    """The workload's graphs are the instances `antimagic stress` labels."""
    texts = [text for _, text in WORKLOADS["stress-small"].make(am, 7, (6, 8, 20, (4, 6, 8)))]
    seen = []
    original = am.verify.generate_regular

    def spy(n, degree, seed):
        graph = original(n, degree, seed)
        seen.append(am.format_edge_list(graph))
        return graph

    am.verify.generate_regular = spy
    try:
        am.stress(6, 8, 20, [4, 6, 8], 7)
    finally:
        am.verify.generate_regular = original
    assert seen == texts


def test_tampered_labeling_counts_as_failure(am):
    gid, text = WORKLOADS["random-regular"].make(am, 1, ((14, 4),))[0]
    graph = am.parse_edge_list(text)
    sample, result = run_graph(am, gid, graph)
    assert sample.failure is None
    bad = judge(am, gid, graph, tampered(result))
    assert bad.failure is not None
    tally = Tally()
    tally.add(sample)
    tally.add(bad)
    assert tally.failures == [bad]
    assert tally.fail_ratio == 0.5


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stress-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
