"""Exhaustive ground truth for small graphs: decide by backtracking whether
any bijective edge labeling gives pairwise distinct vertex sums.

Edges are assigned in an order that finalizes vertex sums as early as
possible, so duplicate sums prune whole subtrees.  Completely independent of
the constructive engine; used to cross-check it on tiny instances.  A found
labeling is judged by the independent verifier before it is returned.
"""

from __future__ import annotations

from .errors import InternalInvariantError, OracleBudgetError
from .graph import Graph
from .verify import verify_antimagic

DEFAULT_NODE_BUDGET = 5_000_000


def brute_force_antimagic(graph: Graph, max_perms: int | None = None):
    """Return (found, labels) where labels lists the label of each edge id
    when a valid assignment exists, else (False, None).  Raises
    OracleBudgetError after exploring max_perms search nodes (default
    5,000,000)."""
    budget = DEFAULT_NODE_BUDGET if max_perms is None else max_perms
    if budget <= 0:
        raise ValueError("search budget must be positive")
    m = graph.m
    n = graph.n
    if m == 0:
        return (True, []) if n <= 1 else (False, None)

    # Assign edges sorted by their endpoint pair so that once every edge at a
    # vertex is placed, all earlier vertices are finalized too.
    order = sorted(range(m), key=lambda eid: graph.edges[eid])
    remaining = [graph.degree(v) for v in range(n)]
    # last_of[pos] lists vertices whose final incident edge is order[pos].
    last_of: list[list[int]] = [[] for _ in range(m)]
    for pos, eid in enumerate(order):
        for v in graph.edges[eid]:
            remaining[v] -= 1
            if remaining[v] == 0:
                last_of[pos].append(v)

    sums = [0] * n
    used = [False] * (m + 1)
    finalized: set[int] = set()
    # Depth first over positions without recursion, so the depth is bounded
    # by the node budget, not the recursion limit.  chosen and done are the
    # stack: chosen[pos] is the label placed at order[pos] (0 while none is),
    # done[pos] the vertices whose sums that placement finalized.
    chosen = [0] * m
    done: list[list[int]] = [[] for _ in range(m)]
    nodes = 0
    pos = 0
    while 0 <= pos < m:
        u, v = graph.edges[order[pos]]
        label = chosen[pos]
        if label:  # the subtree under this label failed: take it back
            for w in done[pos]:
                finalized.discard(sums[w])
            used[label] = False
            sums[u] -= label
            sums[v] -= label
            chosen[pos] = 0
        for label in range(label + 1, m + 1):
            if used[label]:
                continue
            nodes += 1
            if nodes > budget:
                raise OracleBudgetError(
                    f"search exceeded {budget} nodes on a graph with {m} edges")
            used[label] = True
            sums[u] += label
            sums[v] += label
            fin = [w for w in last_of[pos] if sums[w] not in finalized]
            if len(fin) == len(last_of[pos]) and len({sums[w] for w in fin}) == len(fin):
                for w in fin:
                    finalized.add(sums[w])
                chosen[pos] = label
                done[pos] = fin
                break
            used[label] = False
            sums[u] -= label
            sums[v] -= label
        pos = pos + 1 if chosen[pos] else pos - 1
    if pos < 0:
        return False, None

    labels = [0] * m
    for eid, label in zip(order, chosen):
        labels[eid] = label
    report = verify_antimagic(graph, labels)
    if not report.passed:
        raise InternalInvariantError(f"the oracle's labeling fails verification: "
                                     f"{report.first_failure}")
    return True, labels
