"""Brute-force oracle: known answers, witness validity, budget behavior."""

import sys

import pytest

from antimagic import Graph, OracleBudgetError, brute_force_antimagic, verify_antimagic
from corpus import complete_graph, cycle_graph, oracle_corpus


class TestKnownAnswers:
    def test_single_edge_not_antimagic(self):
        # both endpoints of a lone edge always share the same sum
        found, witness = brute_force_antimagic(Graph(2, [(0, 1)]))
        assert not found and witness is None

    def test_path_of_two_edges(self):
        found, witness = brute_force_antimagic(Graph(3, [(0, 1), (1, 2)]))
        assert found
        assert verify_antimagic(Graph(3, [(0, 1), (1, 2)]), witness).passed

    def test_triangle(self):
        found, witness = brute_force_antimagic(cycle_graph(3))
        assert found
        assert verify_antimagic(cycle_graph(3), witness).passed

    def test_square(self):
        found, witness = brute_force_antimagic(cycle_graph(4))
        assert found
        assert verify_antimagic(cycle_graph(4), witness).passed

    def test_corpus_all_antimagic(self):
        for name, g in oracle_corpus():
            found, witness = brute_force_antimagic(g)
            assert found, name
            assert verify_antimagic(g, witness).passed, name

    def test_more_edges_than_the_recursion_limit(self):
        # the search goes one level deeper per edge, so it must not recurse
        g = cycle_graph(sys.getrecursionlimit() + 50)
        found, witness = brute_force_antimagic(g)
        assert found
        assert verify_antimagic(g, witness).passed


class TestBudget:
    def test_budget_exhaustion_raises(self):
        with pytest.raises(OracleBudgetError):
            brute_force_antimagic(complete_graph(5), max_perms=3)

    def test_invalid_budget(self):
        with pytest.raises(ValueError):
            brute_force_antimagic(cycle_graph(3), max_perms=0)

    def test_default_budget_suffices_for_corpus(self):
        for name, g in oracle_corpus():
            assert g.m <= 12
            found, _ = brute_force_antimagic(g)
            assert found, name
