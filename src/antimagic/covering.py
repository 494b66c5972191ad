"""Covering pairs on bipartite layer views.

A covering pair is a family of vertex-disjoint links (outer-center-outer paths
of length two) plus a matching, such that every inner vertex of full degree d
is covered by exactly one of them.  The construction tries a plain
augmenting-path matching first: when one covers every full-degree inner vertex,
the pair with no links is already irreducible.  Links are needed only where
Hall's condition fails.  Then the view is padded to (d, d+1)-biregular by two
round-robin deals of fresh vertices, a link family is grown until every
uncovered outer vertex is blocked, the remaining inner vertices are covered by
a matching, and the pair is restricted back to the original view and reduced,
in one pass that keeps its matched set and link ends, to the irreducible form
the labeling stage relies on.  Free-link exchanges then read candidate pairs
from one ordered stream.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import AbstractSet, Callable, Iterable, Iterator

from .errors import GraphShapeError, InternalInvariantError
from .graph import BipartiteView, bipartite_view


@dataclass(frozen=True, order=True, slots=True)
class Link:
    """Length-two path end_a - center - end_b; the center is an inner vertex,
    both ends are outer, and end_a < end_b."""

    center: int
    end_a: int
    end_b: int

    @staticmethod
    def of(center: int, e1: int, e2: int) -> "Link":
        if e1 == e2:
            raise InternalInvariantError(f"link at center {center} with equal ends {e1}")
        a, b = (e1, e2) if e1 < e2 else (e2, e1)
        return Link(center, a, b)

    @property
    def ends(self) -> tuple[int, int]:
        return (self.end_a, self.end_b)


class CoveringPair:
    """Immutable covering pair: links, matching edge ids, and derived lookups.

    It keeps the set of link ends, the map matched vertex -> matching edge
    id, and the set of link edge ids.  The matching comes as that map, which
    `hall_matching` and `restrict_and_reduce` build as they match and is
    taken as given, or as edge ids, read off the view's outer incidence in
    one pass.  The centers and matching are read off the links and the map."""

    __slots__ = ("view", "d", "links", "link_ends", "link_edge_ids", "match_of")

    def __init__(self, view: BipartiteView, d: int, links: Iterable[Link],
                 matching: Iterable[int] | dict[int, int]):
        self.view = view
        self.d = d
        self.links = tuple(sorted(links))

        link_ends: set[int] = set()
        link_eids: list[int] = []
        for l in self.links:
            for end in l.ends:
                if end in link_ends:
                    raise InternalInvariantError(f"outer vertex {end} is an end of two links")
                eid = view.edge_between(l.center, end)
                if eid is None:
                    raise InternalInvariantError(
                        f"link edge ({l.center}, {end}) is not an edge of the view")
                link_eids.append(eid)
            link_ends.update(l.ends)
        self.link_ends = frozenset(link_ends)
        self.link_edge_ids = frozenset(link_eids)

        if isinstance(matching, dict):
            self.match_of = matching
        else:
            wanted = set(matching)
            self.match_of = _matched_in(view, wanted)
            if len(self.match_of) < 2 * len(wanted):
                eid = min(wanted.difference(self.match_of.values()))
                raise InternalInvariantError(f"matching edge {eid} is not an edge of the view")

    @property
    def matching(self) -> frozenset[int]:
        return frozenset(self.match_of.values())

    @property
    def centers(self) -> frozenset[int]:
        return frozenset(l.center for l in self.links)


def _matched_in(view: BipartiteView, matching: AbstractSet[int]) -> dict[int, int]:
    """Matched vertex -> matching edge id, for the edges of `matching` that
    are view edges, found in one pass over the view's outer incidence, where
    each view edge appears once; raises if two of them share a vertex."""
    match_of: dict[int, int] = {}
    incident = view.incident
    for y in view.outer:
        for x, eid in incident(y):
            if eid in matching:
                if x in match_of or y in match_of:
                    raise InternalInvariantError(f"matching edges share a vertex at edge {eid}")
                match_of[x] = match_of[y] = eid
    return match_of


def validate_covering_pair(pair: CoveringPair) -> None:
    """Check every structural invariant of the irreducible form; raise on any gap.

    Together with the checks of CoveringPair (link ends unique, link edges
    in the view, so an inner center's ends are outer) and disjoint matching
    edges, which `_matched_in` checks and the matching and the reduction
    keep, these make every component of matching plus links a single
    matching edge or a W-shape: one unmatched center whose two ends each
    carry their own matching edge.  No link edge is a matching edge, since
    that edge would match its center."""
    view, d, matched = pair.view, pair.d, pair.match_of
    seen: set[int] = set()
    for l in pair.links:
        if view.side(l.center) != "inner":
            raise InternalInvariantError(f"link center {l.center} is not an inner vertex")
        for v in (l.center, l.end_a, l.end_b):
            if v in seen:
                raise InternalInvariantError(f"links share vertex {v}")
            seen.add(v)
        if view.degree(l.center) != d:
            raise InternalInvariantError(
                f"link center {l.center} has degree {view.degree(l.center)}, expected {d}")
        if l.center in matched:
            raise InternalInvariantError(f"link center {l.center} is also matched")
        for end in l.ends:
            if end not in matched:
                raise InternalInvariantError(f"link end {end} is unmatched")
        # every neighbor of a center must be usable as a parent edge elsewhere
        for w in view.neighbors(l.center):
            if w not in matched and w not in pair.link_ends:
                raise InternalInvariantError(
                    f"neighbor {w} of center {l.center} is neither matched nor a link end")
    # `seen` holds every link vertex; an inner one is a center
    for x in view.inner:
        if view.degree(x) == d and not (x in matched or x in seen):
            raise InternalInvariantError(f"full-degree inner vertex {x} is uncovered")


def _coverage(view: BipartiteView, centers: set[int]) -> dict[int, int]:
    """Outer vertex -> number of neighboring centers."""
    covered: dict[int, int] = {}
    for c in centers:
        for y, _ in view.incident(c):
            covered[y] = covered.get(y, 0) + 1
    return covered


def _frontier(view: BipartiteView, centers: set[int], covered: dict[int, int]) -> set[int]:
    """Non-center inner vertices adjacent to a multiply covered outer vertex."""
    multi = {y for y, cnt in covered.items() if cnt >= 2}
    if not multi:
        return set()
    return {x for x in view.inner
            if x not in centers and any(y in multi for y, _ in view.incident(x))}


def _potential(view: BipartiteView, centers: set[int]) -> tuple[int, int]:
    covered = _coverage(view, centers)
    return (len(covered), len(_frontier(view, centers, covered)))


class _LinkSearch:
    """Mutable assignment of distinct outer ends to inner vertices, maintained
    by augmenting paths: the link search gives each center two ends, the
    matching gives each target one.  `owner` maps each assigned end to the
    vertex holding it."""

    def __init__(self, view: BipartiteView):
        self.view = view
        self.centers: set[int] = set()
        self.owner: dict[int, int] = {}

    def augment(self, c: int) -> bool:
        """Give c one more end along an augmenting path, depth first in
        incidence order, with an explicit stack so long paths cannot exhaust
        the recursion limit.

        The search looks ahead: c, and then each vertex the path reaches,
        first takes its lowest free end if it has one, and only otherwise
        hands its owned ends to the depth-first search.  Each reached
        vertex's incidence is read once, so a target with a free end of its
        own costs O(d), not a walk through every earlier target.

        The lookahead only closes a path sooner, so the search still finds an
        augmenting path exactly when one exists.  While every holder holds
        all the ends it is owed, whether one exists depends only on how many
        ends each vertex is owed, not on which ends it holds.  So which ends
        are given out depends on the search order, but whether c gains one
        does not."""
        owner, incident = self.owner, self.view.incident
        visited: set[int] = set()
        stack: list[tuple[int, Iterator[tuple[int, int]]]] = []
        taken: list[int] = []  # taken[i]: the end stack[i] takes from the next vertex
        x: int | None = c
        while x is not None:
            ends = incident(x)
            for y, _ in ends:
                if y not in owner:
                    owner[y] = x
                    for (holder, _), end in zip(stack, taken):
                        owner[end] = holder
                    return True
            stack.append((x, iter(ends)))
            x = None
            while stack and x is None:
                holder, todo = stack[-1]
                for y, _ in todo:
                    if y in visited:
                        continue
                    o = owner[y]  # the lookahead found no free end here
                    if o != holder:  # else holder already holds y
                        visited.add(y)
                        taken.append(y)
                        x = o
                        break
                else:
                    stack.pop()
                    if taken:
                        taken.pop()
        return False

    def try_move(self, add: int, remove: int | None = None) -> bool:
        """Make `add` a center in place of `remove`, if given; True if every
        center can still be given two ends.  On False the state is unchanged."""
        saved = (set(self.centers), self.owner)
        if remove is not None:
            self.centers.discard(remove)
        # a fresh map without remove's ends; the old one is kept as saved
        self.owner = {y: c for y, c in self.owner.items() if c != remove}
        self.centers.add(add)
        if self.augment(add) and self.augment(add):
            return True
        self.centers, self.owner = saved
        return False

    def links(self) -> list[Link]:
        ends: dict[int, list[int]] = {c: [] for c in sorted(self.centers)}
        for y, c in self.owner.items():
            ends[c].append(y)
        out = []
        for c, e in ends.items():
            if len(e) != 2:
                raise InternalInvariantError(f"center {c} has {len(e)} assigned ends")
            out.append(Link.of(c, *e))
        return out


def maximize_link_family(view: BipartiteView, d: int) -> list[Link]:
    """Grow a vertex-disjoint link family on a (d, d+1)-biregular view until
    every outer vertex not covered by a center has all its neighbors blocked
    (adjacent to a multiply covered outer vertex via the frontier), and no
    single added center could cover more outer vertices.

    Moves are add-center and swap-center, accepted only when the pair
    (covered outer count, frontier size) strictly increases lexicographically;
    the pair depends on the center set alone, so candidate moves are scored
    before checking that disjoint ends can still be assigned.  The coverage
    and frontier of the current centers are computed once per step.
    """
    st = _LinkSearch(view)
    guard = (len(view.outer) + 1) * (len(view.inner) + 1) + 1
    for _ in range(guard):
        covered = _coverage(view, st.centers)
        frontier = _frontier(view, st.centers, covered)
        w = _find_witness(view, covered, frontier)
        if w is not None:
            _escape_witness(view, st, w, covered, frontier)
        elif not _gaining_add(view, st, covered):
            break
    else:
        raise InternalInvariantError("link family search exceeded its move budget")
    return st.links()


def _find_witness(view: BipartiteView, covered: dict[int, int],
                  frontier: set[int]) -> tuple[int, int] | None:
    """Lowest (uncovered outer, neighbor outside the frontier) pair, if any."""
    for y in view.outer:
        if y in covered:
            continue
        for x in view.neighbors(y):
            if x not in frontier:
                return (y, x)
    return None


def _candidate_moves(view: BipartiteView, centers: set[int],
                     x_w: int) -> Iterator[tuple[int, int | None]]:
    """Move order: add the witness neighbor, swaps into it, then generic adds
    and swaps.  Yields (add, remove) pairs lazily; the center set is copied
    up front because the search state mutates while candidates are tried."""
    frozen = sorted(centers)
    others = [x for x in view.inner if x not in centers and x != x_w]
    return itertools.chain(
        [(x_w, None)],
        ((x_w, c) for c in frozen),
        ((x, None) for x in others),
        ((x, c) for c in frozen for x in others),
    )


def _escape_witness(view: BipartiteView, st: _LinkSearch, witness: tuple[int, int],
                    covered: dict[int, int], frontier: set[int]) -> None:
    """Apply the first feasible candidate move that raises the potential above
    that of the current centers, whose coverage and frontier are given."""
    y_w, x_w = witness
    pot = (len(covered), len(frontier))
    for add, remove in _candidate_moves(view, st.centers, x_w):
        cand = set(st.centers)
        if remove is not None:
            cand.discard(remove)
        cand.add(add)
        if _potential(view, cand) > pot and st.try_move(add, remove):
            return
    raise InternalInvariantError(
        f"no improving move for uncovered outer vertex {y_w} (blocked at inner vertex {x_w})")


def _gaining_add(view: BipartiteView, st: _LinkSearch, covered: dict[int, int]) -> bool:
    """Apply one feasible add-center move that strictly grows the covered outer
    set, if one exists.  Running these to exhaustion gives the family the
    maximality the matching step depends on.

    `covered` is the coverage of the current centers: adding x grows it
    exactly when x has an uncovered neighbor, so each candidate is screened
    in O(d), none when every outer vertex is covered, and no potential is
    computed."""
    if len(covered) == len(view.outer):
        return False
    for x in view.inner:
        if x in st.centers or all(y in covered for y, _ in view.incident(x)):
            continue
        if st.try_move(x):
            return True
    return False


def hall_matching(view: BipartiteView, d: int, forbidden: frozenset[int] = frozenset()) -> dict[int, int]:
    """Matching covering every degree-d inner vertex outside `forbidden`, as
    the map matched vertex -> matching edge id: the link search's augmenting
    paths give each such target one end; raises if some target cannot be
    covered.

    With the search's lookahead a target takes a free end of its own before
    any path through earlier targets, so on a dense view, such as K_{a,a}'s
    layer 2, the matching reads each edge about once, not a^3 / 2 entries.
    Whether it raises does not depend on the search order (see `augment`),
    so neither does the branch `build_covering_pair` takes; only the edges
    chosen do."""
    st = _LinkSearch(view)
    for x in view.inner:
        if view.degree(x) == d and x not in forbidden and not st.augment(x):
            raise InternalInvariantError(f"no matching covers full-degree inner vertex {x}")
    match_of: dict[int, int] = {}
    for y, x in st.owner.items():
        match_of[x] = match_of[y] = view.edge_between(x, y)
    return match_of


def pad_to_biregular(view: BipartiteView, d: int) -> BipartiteView:
    """Embed the view into a (d, d+1)-biregular host as an induced subgraph.

    Fresh private outer vertices absorb inner deficiencies round-robin.  The
    remaining outer-side demand, topped up by filler outer vertices until it
    is divisible by d and large enough, is dealt round-robin too: the demands
    are listed by decreasing need, ties to the smaller id, each demand's
    slots consecutively, and slot t goes to fresh inner vertex t mod M, where
    M is the slot count over d.  That is the greedy rule that serves each
    demand, largest first, from the vertices with the most capacity left,
    ties to the smaller id: every need is at most d + 1 <= M, so before each
    demand the fresh capacities take at most two values, the higher starting
    at the deal's cyclic pointer, and the next `need` vertices from the
    pointer are the ones the rule picks, in its order.  For the same reason
    no vertex gets two edges to one fresh vertex.

    All fresh vertices and edges receive ids above the existing ones, so the
    view's vertices and edges keep their ids: its inner, outer and edges are
    prefixes of the padded view's.  A view with no deficiency, the empty one
    included, is returned as it is.
    """
    if d < 3:
        raise GraphShapeError(f"padding requires degree bound >= 3, got {d}")
    for x in view.inner:
        if view.degree(x) > d:
            raise GraphShapeError(f"inner vertex {x} has degree {view.degree(x)} > {d}")
    for y in view.outer:
        if view.degree(y) > d + 1:
            raise GraphShapeError(f"outer vertex {y} has degree {view.degree(y)} > {d + 1}")

    inner_def = {x: d - view.degree(x) for x in view.inner if view.degree(x) < d}
    need = {y: d + 1 - view.degree(y) for y in view.outer if view.degree(y) < d + 1}
    if not inner_def and not need:
        return view

    next_v = max(itertools.chain(view.inner, view.outer)) + 1
    edges = view.edges
    next_e = edges[-1][2] + 1 if edges else 0
    new_edges: list[tuple[int, int, int]] = []

    missing = [x for x in sorted(inner_def) for _ in range(inner_def[x])]
    b1 = max(max(inner_def.values(), default=0), -(-len(missing) // (d + 1)))
    privates = list(range(next_v, next_v + b1))
    next_v += b1
    need.update(dict.fromkeys(privates, d + 1))
    for t, x in enumerate(missing):
        pv = privates[t % b1]
        new_edges.append((x, pv, next_e))
        next_e += 1
        need[pv] -= 1

    total = sum(need.values())
    fillers: list[int] = []
    fresh_inner: list[int] = []
    if total:
        j = (-total) % d
        while (total + j * (d + 1)) // d < d + 1:
            j += d
        fillers = list(range(next_v, next_v + j))
        next_v += j
        need.update(dict.fromkeys(fillers, d + 1))
        m_fresh = (total + j * (d + 1)) // d
        fresh_inner = list(range(next_v, next_v + m_fresh))
        slots = [y for y in sorted(need, key=lambda y: (-need[y], y)) for _ in range(need[y])]
        for t, y in enumerate(slots):
            new_edges.append((fresh_inner[t % m_fresh], y, next_e))
            next_e += 1

    padded = bipartite_view(view.index, tuple(view.inner) + tuple(fresh_inner),
                            tuple(view.outer) + tuple(privates) + tuple(fillers),
                            edges + tuple(new_edges))
    for x in padded.inner:
        if padded.degree(x) != d:
            raise InternalInvariantError(f"padded inner vertex {x} has degree {padded.degree(x)}")
    for y in padded.outer:
        if padded.degree(y) != d + 1:
            raise InternalInvariantError(f"padded outer vertex {y} has degree {padded.degree(y)}")
    return padded


def restrict_and_reduce(view: BipartiteView, d: int, links: Iterable[Link],
                        matching: Iterable[int]) -> CoveringPair:
    """Restrict a covering pair from a padded host back to the view, then apply
    the reduction rules to a fixpoint:

    R1 drop a link whose center is not full degree in the view;
    R2 drop a link whose center is already matched;
    R3 replace a link having an unmatched end by the matching edge to that end;
    R4 replace a link whose center has an unmatched neighbor that is no link
       end by the matching edge to that neighbor.

    After each rule the scan restarts from the first remaining link.  The
    matched vertices and the link ends are kept up to date as rules fire, not
    rebuilt: a dropped link's ends stop being link ends, and a rewire matches
    its center and target.  Each rule removes a link, so the loop terminates.
    R4 guarantees that every neighbor of a center is matched or a link end,
    which later link exchanges depend on.
    """
    vids = set(view.inner) | set(view.outer)
    matched = _matched_in(view, set(matching))
    f_list = sorted(l for l in links
                    if l.center in vids and l.end_a in vids and l.end_b in vids)
    link_ends = {end for l in f_list for end in l.ends}

    while True:
        for l in f_list:
            if view.degree(l.center) < d or l.center in matched:  # R1, R2
                target = None
                break
            target = min((end for end in l.ends if end not in matched), default=None)  # R3
            if target is None:  # R4
                target = min((w for w in view.neighbors(l.center)
                              if w not in matched and w not in link_ends), default=None)
            if target is not None:
                break
        else:
            break
        f_list.remove(l)
        link_ends.difference_update(l.ends)
        if target is not None:
            eid = view.edge_between(l.center, target)
            if eid is None:
                raise InternalInvariantError(
                    f"reduction target edge ({l.center}, {target}) missing from the view")
            matched[l.center] = matched[target] = eid

    return CoveringPair(view, d, f_list, matched)


def build_covering_pair(view: BipartiteView, d: int) -> CoveringPair:
    """Matching first, links only when Hall's condition fails.

    A matching of the view that covers every full-degree inner vertex is,
    with no links, already an irreducible pair; it is tried unless there are
    visibly too few outer vertices for it, and is empty if there are none.
    It needs no validation: `hall_matching` raises for any uncovered
    full-degree inner vertex, and its map matches each vertex once, which is
    all `validate_covering_pair` checks of a pair without links.  Otherwise
    the pair comes from the link search (`_link_search_pair`), which
    validates it.
    """
    if d < 3:
        raise GraphShapeError(f"covering pairs need degree bound >= 3, got {d}")
    full = sum(1 for x in view.inner if view.degree(x) == d)
    if full <= len(view.outer):
        try:
            matching = hall_matching(view, d) if full else {}
        except InternalInvariantError:
            pass  # Hall's condition fails on some set of full-degree inner vertices
        else:
            return CoveringPair(view, d, [], matching)
    return _link_search_pair(view, d)


def _link_search_pair(view: BipartiteView, d: int) -> CoveringPair:
    """Pad, grow the link family, match the rest, restrict, reduce, validate."""
    padded = pad_to_biregular(view, d)
    links = maximize_link_family(padded, d)
    centers = frozenset(l.center for l in links)
    matching = hall_matching(padded, d, forbidden=centers)
    pair = restrict_and_reduce(view, d, links, matching.values())
    validate_covering_pair(pair)
    return pair


def _exchanges(pair: CoveringPair) -> Iterator[CoveringPair]:
    """The pairs one exchange away, in order: link by link, each end moved
    out in turn (end_a first), to each neighbor of the center, in incidence
    order, that is no link end."""
    link_ends, matching = pair.link_ends, pair.match_of
    for link in pair.links:
        for keep in (link.end_b, link.end_a):
            for w in pair.view.neighbors(link.center):
                if w not in link_ends:
                    new_links = [Link.of(l.center, keep, w) if l == link else l
                                 for l in pair.links]
                    yield CoveringPair(pair.view, pair.d, new_links, matching)


def maximize_free_links(pair: CoveringPair, analyze: Callable[[CoveringPair], "object"]):
    """Exchange link ends to raise the number of free links while bad components
    exist.

    An exchange moves one link end to another neighbor of its center that is
    not currently a link end.  By R4 that neighbor is matched, and the center
    stays unmatched, so the candidate pair stays irreducible and the
    parent-edge map stays valid unchanged: the neighbor's parent edge is its
    matching edge, whose other end is never the unmatched center, so no
    parent edge becomes a link edge.
    Each step analyzes the candidates of `_exchanges` in order and accepts
    the first whose free-link count strictly exceeds the current one; the
    loop stops when none does; `analyze` walks no trail.  At a local optimum
    with bad components still present, fewer than k free links, for the
    pair's degree bound d = 2k + 1, is an implementation bug.
    """
    analysis = analyze(pair)
    guard = len(pair.links) + 1
    for _ in range(guard):
        if not analysis.bad_cids:
            break
        scored = ((cand, analyze(cand)) for cand in _exchanges(pair))
        better = next((s for s in scored if len(s[1].free_links) > len(analysis.free_links)), None)
        if better is None:
            break
        pair, analysis = better
    k = pair.d // 2
    if analysis.bad_cids and len(analysis.free_links) < k:
        raise InternalInvariantError(
            f"bad components remain with {len(analysis.free_links)} free links, "
            f"need at least {k}")
    return pair, analysis
