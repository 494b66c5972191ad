"""Acceptance gate: one test per acceptance criterion, in order.

Each test prints a single summary line; the verbose test listing doubles as
the per-criterion pass/fail report.
"""

import random
import time

import pytest

from antimagic import (brute_force_antimagic, build_covering_pair, check_construction,
                       format_edge_list, label_graph, stress, verify_antimagic)
from antimagic.cli import main
from corpus import (circulant, complete_bipartite, complete_graph, free_link_gadget,
                    hypercube, oracle_corpus, pipeline_corpus, random_bounded_bipartite,
                    torus_grid)
from test_covering import assert_irreducible, covering_pair_exists


@pytest.fixture(scope="module")
def stress_summary():
    """200 seeded random connected regular graphs, degrees 4, 6, 8, n <= 60;
    every instance is labeled, deeply checked, and independently verified."""
    return stress(count=200, n_min=8, n_max=60, degrees=[4, 6, 8], seed=0)


def test_criterion_1_k5_golden_labeling():
    start = time.monotonic()
    res = label_graph(complete_graph(5))
    elapsed = time.monotonic() - start
    assert sorted(res.labeling.labels) == list(range(1, 11))
    sums = res.labeling.vertex_sums
    assert len(set(sums)) == 5
    assert all(sums[0] > sums[v] for v in range(1, 5))
    assert sums == (34, 13, 18, 21, 24)
    assert elapsed < 1.0
    print(f"criterion 1: PASS (K5 sums {sums} in {elapsed:.3f}s)")


def test_criterion_2_random_regular_suite(stress_summary):
    s = stress_summary
    assert s.count == 200
    assert s.passed == 200, "every random instance must label and verify"
    assert s.min_upper_slack is not None and s.min_upper_slack >= 0
    assert s.min_lower_slack is not None and s.min_lower_slack >= 0
    assert s.seconds < 60.0
    print(f"criterion 2: PASS ({s.passed}/{s.count} in {s.seconds:.2f}s, "
          f"slacks {s.min_upper_slack}/{s.min_lower_slack})")


def test_criterion_3_covering_pair_suite():
    checked = 0
    for i in range(100):
        d = (3, 5)[i % 2]
        view = random_bounded_bipartite(random.Random(1000 + i), d)
        pair = build_covering_pair(view, d)
        assert_irreducible(pair, view, d)
        assert covering_pair_exists(view, d), f"seed {1000 + i}: enumerator disagrees"
        checked += 1
    print(f"criterion 3: PASS ({checked} random views built and cross-checked)")


def test_criterion_4_bad_component_bounds(stress_summary):
    # the deep check validates the free-link count and the label bound on
    # link edges into bad components for every instance; the gadget supplies
    # a non-vacuous case where exchanges must create free links
    assert stress_summary.passed == stress_summary.count
    from antimagic.covering import maximize_free_links
    from antimagic.trails import analyze_bad_components

    _, pair, parent = free_link_gadget()
    new_pair, analysis = maximize_free_links(pair, lambda p: analyze_bad_components(p, parent))
    assert analysis.bad_cids and len(analysis.free_links) >= 1
    print(f"criterion 4: PASS (suite clean; gadget reaches "
          f"{len(analysis.free_links)} free links with a bad component present)")


def test_criterion_5_trail_label_invariants(stress_summary):
    # cursor replay, exact interval consumption, and the pair-sum property
    # run inside check_construction for every stress instance; re-run them
    # here on structured graphs that exercise every trail unit kind
    assert stress_summary.passed == stress_summary.count
    layers = 0
    for g in (circulant(9, [1, 2]), circulant(30, [1, 2]), hypercube(4),
              torus_grid(3, 17), complete_bipartite(6, 6), complete_bipartite(8, 8)):
        res = label_graph(g)
        issues, _ = check_construction(res)
        trail_issues = [i for i in issues if "cursor" in i or "trail" in i
                        or "meet" in i or "wrap" in i]
        assert issues == [], issues
        assert trail_issues == []
        layers += res.layering.depth
    print(f"criterion 5: PASS (trail invariants hold on {layers} structured layers "
          f"and the full random suite)")


def test_criterion_6_oracle_agreement():
    names = []
    for name, g in oracle_corpus():
        assert g.m <= 12
        found, witness = brute_force_antimagic(g)
        assert found, f"{name}: oracle found no labeling"
        assert verify_antimagic(g, witness).passed, f"{name}: oracle witness rejected"
        names.append(name)
    for name, g in pipeline_corpus():
        res = label_graph(g)
        assert verify_antimagic(g, res.labeling.labels).passed, f"{name}: pipeline rejected"
    print(f"criterion 6: PASS (oracle and verifier agree on {', '.join(names)})")


def test_criterion_7_byte_identical_output(tmp_path, capsys):
    path = tmp_path / "in.txt"
    path.write_text(format_edge_list(circulant(11, [1, 3])))
    assert main(["label", str(path)]) == 0
    first = capsys.readouterr().out
    assert main(["label", str(path)]) == 0
    second = capsys.readouterr().out
    assert first == second and first
    print(f"criterion 7: PASS (two runs produced {len(first)} identical bytes)")
