"""The augmenting search's lookahead moves ends, never outcomes.

`reference_augment` is the depth-first search `_LinkSearch.augment` ran
before it looked ahead for free ends, kept verbatim.  Swapped in for the
current one on every view of the link-search golden corpus, it must grow the
same center sets, accept and refuse the same moves, and leave the matching
after the link search possible or impossible on the same views: only the
ends given to centers and the matching edges may differ.
"""

import pytest

from antimagic import BipartiteView, InternalInvariantError
from antimagic.covering import _LinkSearch, hall_matching, maximize_link_family
from corpus import padded_layer_two, view_ends
from test_link_search_golden import VIEWS


def reference_augment(self, c: int) -> bool:
    """Give c one more end along an augmenting path, depth first in
    incidence order, with an explicit stack so long paths cannot exhaust
    the recursion limit."""
    owner, incident = self.owner, self.view.incident
    visited: set[int] = set()
    stack = [(c, iter(incident(c)))]
    taken: list[int] = []  # taken[i]: the end stack[i] is trying to take
    while stack:
        x, todo = stack[-1]
        for y, _ in todo:
            if y in visited:
                continue
            o = owner.get(y)
            if o is None:
                owner[y] = x
                for (holder, _), end in zip(stack, taken):
                    owner[end] = holder
                return True
            if o != x:  # else x already holds y
                visited.add(y)
                taken.append(y)
                stack.append((o, iter(incident(o))))
                break
        else:
            stack.pop()
            if taken:
                taken.pop()
    return False


def run(monkeypatch, augment, padded, d):
    """Centers, every try_move outcome, and the inner vertices the matching
    after the link search covers (None if it raises), under `augment`."""
    moves = []
    try_move = _LinkSearch.try_move

    def recorded(self, add, remove=None):
        ok = try_move(self, add, remove)
        moves.append((add, remove, ok))
        return ok

    with monkeypatch.context() as m:
        m.setattr(_LinkSearch, "augment", augment)
        m.setattr(_LinkSearch, "try_move", recorded)
        centers = frozenset(l.center for l in maximize_link_family(padded, d))
        try:
            matching = hall_matching(padded, d, forbidden=centers)
        except InternalInvariantError:
            covered = None
        else:
            ends = view_ends(padded)
            covered = {ends[eid][0] for eid in matching.values()}
    return centers, moves, covered


@pytest.mark.parametrize("chunk", range(4))
def test_only_ends_and_matching_edges_move(monkeypatch, chunk):
    for name in sorted(VIEWS)[chunk::4]:
        padded, d = VIEWS[name]()
        new = run(monkeypatch, _LinkSearch.augment, padded, d)
        old = run(monkeypatch, reference_augment, padded, d)
        assert new == old, name


class CountingView(BipartiteView):
    """A view that counts the incidence entries it hands out."""

    __slots__ = ("read",)

    def __init__(self, view: BipartiteView):
        super().__init__(view.index, view.inner, view.outer,
                         {v: view.incident(v) for v in (*view.inner, *view.outer)})
        self.read = 0

    def incident(self, v):
        ends = super().incident(v)
        self.read += len(ends)
        return ends


def entries_read(a: int) -> tuple[int, int]:
    """Entries the matching after the link search reads on K_{a,a} layer 2."""
    padded, d = padded_layer_two(a), a - 1
    centers = frozenset(l.center for l in maximize_link_family(padded, d))
    view = CountingView(padded)
    hall_matching(view, d, forbidden=centers)
    return view.read, view.edge_count


@pytest.mark.parametrize("a", [40, 80])
def test_matching_reads_each_edge_a_bounded_number_of_times(a):
    read, m = entries_read(a)
    assert read <= 3 * m


def test_reference_breaks_the_read_bound(monkeypatch):
    # the bound above tells the two searches apart: without the lookahead a
    # target walks through every earlier one, about a^3 / 2 entries in all
    monkeypatch.setattr(_LinkSearch, "augment", reference_augment)
    read, m = entries_read(40)
    assert read > 3 * m
