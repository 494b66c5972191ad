"""Command-line surface: subcommands, exit codes, and output discipline."""

import dataclasses
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import antimagic
from antimagic import (InternalInvariantError, check_construction, format_edge_list,
                       generate_regular, label_graph, verify_antimagic)
from antimagic.cli import main
from antimagic.verify import stress_instances
from antimagic.documents import HEADER, render_document
from corpus import complete_graph, cycle_graph, two_disjoint_k5
from test_documents import mutated_documents


@pytest.fixture
def k5_file(tmp_path):
    path = tmp_path / "k5.txt"
    path.write_text(format_edge_list(complete_graph(5)))
    return str(path)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLabel:
    def test_k5_document_on_stdout(self, k5_file, capsys):
        assert main(["label", k5_file]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == HEADER
        assert "graph 5 10" in out
        assert out.count("edge ") == 10
        assert "sum 0 34" in out

    def test_out_flag_writes_file(self, k5_file, tmp_path, capsys):
        target = tmp_path / "doc.txt"
        assert main(["label", k5_file, "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith(HEADER)

    def test_check_reports_on_stderr(self, k5_file, capsys):
        assert main(["label", k5_file, "--check"]) == 0
        err = capsys.readouterr().err
        assert "all construction invariants hold" in err

    def test_failed_check_exits_2(self, k5_file, monkeypatch, capsys):
        def swapped(graph, root=0):
            res = label_graph(graph, root)
            labels = list(res.labeling.labels)
            i, j = labels.index(1), labels.index(len(labels))
            labels[i], labels[j] = labels[j], labels[i]
            return dataclasses.replace(
                res, labeling=dataclasses.replace(res.labeling, labels=tuple(labels)))

        monkeypatch.setattr("antimagic.cli.label_graph", swapped)
        assert main(["label", k5_file, "--check"]) == 2
        err = capsys.readouterr().err.splitlines()
        res = swapped(complete_graph(5))
        report = verify_antimagic(res.graph, res.labeling.labels, res.layering)
        ok = {True: "ok", False: "FAIL"}
        assert err[0] == (f"check: bijection={ok[report.bijection_ok]} "
                          f"distinct-sums={ok[report.distinct_sums_ok]} "
                          f"layer-monotone={ok[report.layer_monotone_ok]}")
        assert f"check: FAIL {report.first_failure}" in err
        assert "check: all construction invariants hold" not in err

    def test_root_flag(self, k5_file, capsys):
        assert main(["label", k5_file, "--root", "3"]) == 0
        assert "root 3" in capsys.readouterr().out

    def test_cycle_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "c5.txt", format_edge_list(cycle_graph(5)))
        assert main(["label", path]) == 1
        assert "out of scope" in capsys.readouterr().err

    def test_disconnected_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "two.txt", format_edge_list(two_disjoint_k5()))
        assert main(["label", path]) == 1
        assert "disconnected" in capsys.readouterr().err

    def test_duplicate_edge_rejected(self, tmp_path, capsys):
        path = write(tmp_path, "dup.txt", "0 1\n1 0\n")
        assert main(["label", path]) == 1
        assert capsys.readouterr().err == "error: duplicate edge (0, 1)\n"

    def test_missing_file(self, capsys):
        assert main(["label", "does-not-exist.txt"]) == 1

    def test_internal_error_maps_to_3(self, k5_file, monkeypatch, capsys):
        def boom(graph, root=0):
            raise InternalInvariantError("synthetic")

        monkeypatch.setattr("antimagic.cli.label_graph", boom)
        assert main(["label", k5_file]) == 3
        assert "invariant" in capsys.readouterr().err


class TestVerify:
    def test_pipeline_output_verifies(self, k5_file, tmp_path, capsys):
        doc = tmp_path / "doc.txt"
        assert main(["label", k5_file, "--out", str(doc)]) == 0
        assert main(["verify", k5_file, str(doc)]) == 0
        assert "antimagic" in capsys.readouterr().out

    def test_hand_labeling_verifies(self, tmp_path, capsys):
        g = write(tmp_path, "tri.txt", "0 1\n1 2\n0 2\n")
        doc = write(tmp_path, "tri.doc", f"{HEADER}\nedge 0 1 1\nedge 1 2 2\nedge 0 2 3\n")
        assert main(["verify", g, doc]) == 0

    def test_non_bijection_is_input_error(self, tmp_path, capsys):
        g = write(tmp_path, "tri.txt", "0 1\n1 2\n0 2\n")
        doc = write(tmp_path, "tri.doc", f"{HEADER}\nedge 0 1 1\nedge 1 2 1\nedge 0 2 2\n")
        assert main(["verify", g, doc]) == 1
        assert "bijection" in capsys.readouterr().err

    def test_sum_collision_fails_verification(self, tmp_path, capsys):
        g = write(tmp_path, "c4.txt", "0 1\n1 2\n2 3\n0 3\n")
        doc = write(tmp_path, "c4.doc",
                    f"{HEADER}\nedge 0 1 1\nedge 1 2 2\nedge 2 3 3\nedge 0 3 4\n")
        assert main(["verify", g, doc]) == 2
        assert "share vertex sum" in capsys.readouterr().err

    def test_corrupt_document(self, tmp_path, capsys):
        g = write(tmp_path, "tri.txt", "0 1\n1 2\n0 2\n")
        doc = write(tmp_path, "bad.doc", "garbage\n")
        assert main(["verify", g, doc]) == 1

    def test_declared_sum_mismatch(self, tmp_path, capsys):
        g = write(tmp_path, "tri.txt", "0 1\n1 2\n0 2\n")
        doc = write(tmp_path, "tri.doc",
                    f"{HEADER}\nedge 0 1 1\nedge 1 2 2\nedge 0 2 3\nsum 0 99\n")
        assert main(["verify", g, doc]) == 1
        assert "recomputation disagrees" in capsys.readouterr().err

    @pytest.mark.parametrize("records", [
        # K5's sums of vertices 4 and 0, which ids -1 and -5 would index from the end
        lambda sums: f"sum -1 {sums[4]}\nsum -5 {sums[0]}\n",
        lambda sums: "sum -100 1\n",
    ], ids=["-1,-5", "-100"])
    def test_negative_sum_vertex_is_input_error(self, k5_file, tmp_path, records, capsys):
        doc = tmp_path / "doc.txt"
        assert main(["label", k5_file, "--out", str(doc)]) == 0
        sums = label_graph(complete_graph(5)).labeling.vertex_sums
        doc.write_text(doc.read_text() + records(sums))
        assert main(["verify", k5_file, str(doc)]) == 1
        assert "recomputation disagrees" in capsys.readouterr().err

    def test_edge_set_mismatch(self, tmp_path, capsys):
        g = write(tmp_path, "tri.txt", "0 1\n1 2\n0 2\n")
        doc = write(tmp_path, "other.doc", f"{HEADER}\nedge 0 1 1\nedge 1 2 2\nedge 1 3 3\n")
        assert main(["verify", g, doc]) == 1


class TestOracle:
    def test_triangle_antimagic(self, tmp_path, capsys):
        path = write(tmp_path, "tri.txt", "0 1\n1 2\n0 2\n")
        assert main(["oracle", path]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("antimagic")
        assert out.count("edge ") == 3

    def test_k2_not_antimagic_still_exit_0(self, tmp_path, capsys):
        path = write(tmp_path, "k2.txt", "0 1\n")
        assert main(["oracle", path]) == 0
        assert capsys.readouterr().out.strip() == "not antimagic"

    def test_budget_exhaustion(self, k5_file, capsys):
        assert main(["oracle", k5_file, "--max-perms", "2"]) == 1
        assert "exceeded" in capsys.readouterr().err


class TestGenAndStress:
    def test_gen_k5(self, capsys):
        assert main(["gen", "--n", "5", "--degree", "4"]) == 0
        out = capsys.readouterr().out
        assert out == format_edge_list(complete_graph(5))

    def test_gen_infeasible(self, capsys):
        assert main(["gen", "--n", "5", "--degree", "5"]) == 1

    def test_gen_deterministic(self, capsys):
        assert main(["gen", "--n", "12", "--degree", "4", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["gen", "--n", "12", "--degree", "4", "--seed", "3"]) == 0
        assert capsys.readouterr().out == first

    def test_stress_batch(self, capsys):
        assert main(["stress", "--count", "6", "--n", "20", "--seed", "1"]) == 0
        assert "6/6 passed" in capsys.readouterr().out

    def test_stress_single_degree(self, capsys):
        assert main(["stress", "--count", "4", "--n", "16", "--degree", "4"]) == 0
        assert "4/4 passed" in capsys.readouterr().out

    STRESS_ARGS = ["stress", "--count", "4", "--n", "16", "--seed", "1"]

    @staticmethod
    def assert_failure_reported(capsys, message):
        # the verb's own instance stream: n-min 8, degrees 4, 6, 8
        _, n, degree, gseed, graph = list(stress_instances(4, 8, 16, [4, 6, 8], 1))[2]
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"stress failure: instance 2 (n={n}, degree={degree}, seed={gseed}): {message}\n"
            f"# n={n} degree={degree} seed={gseed}\n{format_edge_list(graph)}")

    def test_stress_labeling_failure_exits_2(self, monkeypatch, capsys):
        calls = []

        def failing(graph, root=0):
            calls.append(graph)
            if len(calls) == 3:
                raise InternalInvariantError("forged failure")
            return label_graph(graph, root)

        monkeypatch.setattr("antimagic.verify.label_graph", failing)
        assert main(self.STRESS_ARGS) == 2
        self.assert_failure_reported(capsys, "forged failure")

    def test_stress_replay_issue_exits_2(self, monkeypatch, capsys):
        calls = []

        def reporting(result):
            calls.append(result)
            issues, stats = check_construction(result)
            return (["forged issue"] if len(calls) == 3 else issues), stats

        monkeypatch.setattr("antimagic.verify.check_construction", reporting)
        assert main(self.STRESS_ARGS) == 2
        self.assert_failure_reported(capsys, "forged issue")


class TestUsage:
    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag(self, k5_file, capsys):
        assert main(["label", k5_file, "--frobnicate"]) == 1


# ids stay at most 64: an edge list allocates per vertex id before it is
# rejected, so large ids are a memory question, not a fuzzing one
_EDGE_LINES = st.one_of(
    st.tuples(st.integers(0, 64), st.integers(0, 64)).map(lambda e: f"{e[0]} {e[1]}"),
    st.sampled_from(["", "# note", "3", "1 2 3", "a b", "-1 2", "  3\t4  ", "1.0 2"]))


@st.composite
def _regular_graphs(draw):
    degree = draw(st.sampled_from([4, 6]))
    n = draw(st.integers(degree + 1, 16))
    return generate_regular(n, degree, draw(st.integers(0, 10_000)))


@st.composite
def _edge_lists(draw):
    """A random edge list, or a regular graph's with a few lines edited."""
    if draw(st.booleans()):
        return "\n".join(draw(st.lists(_EDGE_LINES, max_size=40))) + "\n"
    lines = format_edge_list(draw(_regular_graphs())).splitlines()
    for _ in range(draw(st.integers(0, 2))):
        pos = draw(st.integers(0, len(lines) - 1))
        if draw(st.booleans()):
            del lines[pos]
        else:
            lines.insert(pos, draw(_EDGE_LINES))
    return "\n".join(lines) + "\n"


@st.composite
def _graphs_and_documents(draw):
    """An edge list with a document: the graph's own rendered document,
    possibly edited, a random relabeling of its edges without declared sums,
    or one built from random edge records."""
    graph = draw(_regular_graphs())
    graph_text = format_edge_list(graph) if draw(st.integers(0, 3)) else draw(_edge_lists())
    kind = draw(st.sampled_from(["rendered", "rendered", "relabeled", "random"]))
    if kind == "rendered":
        rendered = render_document(label_graph(graph))
        return graph_text, draw(st.one_of(st.just(rendered), mutated_documents(st.just(rendered))))
    if kind == "relabeled":
        labels = draw(st.permutations(range(1, graph.m + 1)))
        records = [(u, v, lab) for (u, v), lab in zip(graph.edges, labels)]
    else:
        records = draw(st.lists(st.tuples(st.integers(0, 64), st.integers(0, 64),
                                          st.integers(-1, 64)), max_size=40))
    return graph_text, HEADER + "\n" + "".join(f"edge {u} {v} {lab}\n" for u, v, lab in records)


def _run(verb, *texts):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for idx, text in enumerate(texts):
            path = Path(tmp) / f"in{idx}.txt"
            path.write_text(text, encoding="utf-8")
            paths.append(str(path))
        return main([verb, *paths])


class TestFuzz:
    """Random input through main: every run ends in exit 0, 1 or 2, and no
    exception escapes."""

    @settings(max_examples=150, deadline=None)
    @given(_edge_lists())
    def test_label(self, text):
        assert _run("label", text) in (0, 1, 2)

    @settings(max_examples=150, deadline=None)
    @given(_graphs_and_documents())
    def test_verify(self, texts):
        assert _run("verify", *texts) in (0, 1, 2)

    # a child process whose address space is capped at 200 MB
    _CAPPED = ("import resource, sys; "
               "resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20)); "
               "from antimagic.cli import main; sys.exit(main(sys.argv[1:]))")

    @pytest.mark.parametrize("text", ["0 10000000\n", "0 1_000_000_000\n",
                                      "0 1\n1 2\n2 0\n10000000 20000000\n"],
                             ids=["one-edge", "spelled", "apart"])
    def test_label_huge_ids_fail_fast(self, tmp_path, text):
        # the largest id is above 2m, so the graph is rejected before any
        # vertex is allocated, and a capped address space never fills
        path = write(tmp_path, "huge.txt", text)
        env = {**os.environ, "PYTHONPATH": str(Path(antimagic.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-c", self._CAPPED, "label", path],
                              capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 1, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr
