"""Random connected regular graphs via stub rematching.

Each vertex contributes `degree` stubs.  Stubs are shuffled and paired off;
pairs forming loops or duplicate edges return their stubs to the pool for the
next shuffle.  A pass that makes no progress restarts the whole attempt, and
disconnected results are rejected.  Deterministic for a fixed seed.
"""

from __future__ import annotations

import random

from .errors import GenerationBudgetError, GraphShapeError
from .graph import Graph

DEFAULT_ATTEMPTS = 200


def generate_regular(n: int, degree: int, seed: int) -> Graph:
    """Return a connected degree-regular simple graph on vertices 0..n-1."""
    if n <= 0:
        raise GraphShapeError("need at least one vertex")
    if degree <= 0:
        raise GraphShapeError("degree must be positive")
    if degree >= n:
        raise GraphShapeError(f"degree {degree} needs more than {n} vertices")
    if (n * degree) % 2:
        raise GraphShapeError(f"no {degree}-regular graph on {n} vertices: odd stub count")
    rng = random.Random(seed)
    for _ in range(DEFAULT_ATTEMPTS):
        edges = _try_pairing(rng, n, degree)
        if edges is None:
            continue
        graph = Graph(n, sorted(edges))
        if graph.is_connected():
            return graph
    raise GenerationBudgetError(
        f"gave up generating a connected {degree}-regular graph on {n} vertices "
        f"after {DEFAULT_ATTEMPTS} attempts")


def _try_pairing(rng: random.Random, n: int, degree: int):
    stubs = [v for v in range(n) for _ in range(degree)]
    chosen: set[tuple[int, int]] = set()
    while stubs:
        rng.shuffle(stubs)
        leftovers = []
        for pos in range(0, len(stubs), 2):
            u, v = stubs[pos], stubs[pos + 1]
            pair = (u, v) if u < v else (v, u)
            if u == v or pair in chosen:
                leftovers.extend((u, v))
            else:
                chosen.add(pair)
        if len(leftovers) == len(stubs):
            return None
        stubs = leftovers
    return chosen
