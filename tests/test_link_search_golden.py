"""The link search and the matching after it, pinned on padded views.

For each view, golden/link_search.json holds the links `maximize_link_family`
grows and the sorted edge ids of `hall_matching` with the link centers
forbidden, as `_link_search_pair` calls them.  The random views take escape
moves of every kind, swaps included.  Regenerate the file with

    PYTHONPATH=src python tests/test_link_search_golden.py

only when the search is meant to pick different links or matchings.
"""

import functools
import json
import random
from pathlib import Path

import pytest

from antimagic.covering import _LinkSearch, hall_matching, maximize_link_family, pad_to_biregular
from corpus import padded_layer_two, random_bounded_bipartite

GOLDEN = Path(__file__).parent / "golden" / "link_search.json"


def _random_view(seed):
    d = (3, 5)[seed % 2]
    return pad_to_biregular(random_bounded_bipartite(random.Random(seed), d), d), d


VIEWS = {f"random seed {seed}": functools.partial(_random_view, seed) for seed in range(200)}
VIEWS.update({f"K{a},{a} layer 2": functools.partial(lambda a: (padded_layer_two(a), a - 1), a)
              for a in range(4, 41)})


def observe(padded, d):
    links = maximize_link_family(padded, d)
    centers = frozenset(l.center for l in links)
    return {"links": [[l.center, l.end_a, l.end_b] for l in links],
            "matching": sorted(set(hall_matching(padded, d, forbidden=centers).values()))}


@functools.cache
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_the_corpus():
    assert sorted(golden()) == sorted(VIEWS)


@pytest.mark.parametrize("chunk", range(4))
def test_link_search_matches_golden(chunk):
    names = sorted(VIEWS)[chunk::4]
    assert {name: observe(*VIEWS[name]()) for name in names} == \
        {name: golden()[name] for name in names}


def test_corpus_takes_swap_moves(monkeypatch):
    # a swap is a move with a center to remove; without one in the corpus the
    # golden would not pin the swap order of the escape moves
    taken = []
    try_move = _LinkSearch.try_move

    def counted(self, add, remove=None):
        ok = try_move(self, add, remove)
        if ok:
            taken.append(remove is not None)
        return ok

    monkeypatch.setattr(_LinkSearch, "try_move", counted)
    for name, make in VIEWS.items():
        if name.startswith("random"):
            maximize_link_family(*make())
    assert any(taken)


if __name__ == "__main__":
    entries = [f"{json.dumps(name)}: {json.dumps(observe(*VIEWS[name]()))}" for name in sorted(VIEWS)]
    GOLDEN.write_text("{\n" + ",\n".join(entries) + "\n}\n")
