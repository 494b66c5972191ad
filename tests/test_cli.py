"""Command-line surface: subcommands, exit codes, and output discipline."""

import dataclasses

import pytest

from antimagic import InternalInvariantError, format_edge_list, label_graph, verify_antimagic
from antimagic.cli import main
from antimagic.documents import HEADER
from corpus import complete_graph, cycle_graph, two_disjoint_k5


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
        report = verify_antimagic(res.graph, res.labeling.labels, res.layering, res)
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


class TestUsage:
    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unknown_flag(self, k5_file, capsys):
        assert main(["label", k5_file, "--frobnicate"]) == 1
