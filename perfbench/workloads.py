"""The benchmark's workloads: each turns a seed into edge-list texts.

The package sees only the text.  Random families are drawn with the package's
own `generate_regular` and written with `format_edge_list`, as `antimagic gen`
does; circulants are written here, with vertex ids shuffled by the seed so
that no id order is baked into the inputs.  Sizes are fixed per
workload; the seed changes which graphs of those sizes are drawn.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# (graph id, edge-list text)
Inputs = list[tuple[str, str]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sizes: tuple
    tiny: tuple  # sizes for the benchmark's own tests
    make: Callable[[object, int, tuple], Inputs]


def _random_regular(am, seed: int, sizes: tuple) -> Inputs:
    rng = random.Random(seed)
    out = []
    for n, degree in sizes:
        graph = am.generate_regular(n, degree, rng.randrange(1 << 30))
        out.append((f"rr-n{n}-d{degree}", am.format_edge_list(graph)))
    return out


def _stress(am, seed: int, sizes: tuple) -> Inputs:
    # the instance stream of `antimagic stress --count C --n N --seed S`
    count, n_min, n_max, degrees = sizes
    rng = random.Random(seed)
    out = []
    for idx in range(count):
        degree = degrees[idx % len(degrees)]
        lo = max(degree + 1, n_min)
        n = rng.randrange(lo, max(lo, n_max) + 1)
        graph = am.generate_regular(n, degree, rng.randrange(1 << 30))
        out.append((f"stress-{idx}-n{n}-d{degree}", am.format_edge_list(graph)))
    return out


def _circulants(am, seed: int, sizes: tuple) -> Inputs:
    rng = random.Random(seed)
    out = []
    for n in sizes:
        perm = list(range(n))
        rng.shuffle(perm)
        edges = sorted(tuple(sorted((perm[v], perm[(v + s) % n]))) for v in range(n) for s in (1, 2))
        out.append((f"C{n}(1,2)", "".join(f"{u} {v}\n" for u, v in edges)))
    return out


def _complete_bipartite(am, seed: int, sizes: tuple) -> Inputs:
    rng = random.Random(seed)
    out = []
    for a in sizes:
        perm = list(range(2 * a))
        rng.shuffle(perm)
        edges = sorted(tuple(sorted((perm[i], perm[a + j]))) for i in range(a) for j in range(a))
        out.append((f"K{a},{a}", "".join(f"{u} {v}\n" for u, v in edges)))
    return out


WORKLOADS = {w.name: w for w in (
    Workload(
        "random-regular",
        "48 random 4/6/8-regular graphs, n 140-281: exercises the covering link search "
        "(maximize_link_family); shallow, so per-layer edge scans barely register",
        # n steps by 3 with the degree cycling, so label times spread evenly
        # and the quantiles over graphs do not sit in a gap between sizes
        tuple((140 + 3 * i, (4, 6, 8)[i % 3]) for i in range(48)),
        ((14, 4), (16, 6), (18, 8)),
        _random_regular),
    Workload(
        "deep-circulant",
        "C_n(1,2), n 2400-4000, depth n/4: thousands of tiny layers, so per-layer O(m) "
        "edge scans (layer_view, the deep check's cross count) dominate",
        (2400, 3200, 4000),
        (24, 40),
        _circulants),
    Workload(
        "dense-bipartite",
        "K_{a,a}, a 4-80: one wide, shallow view per graph where Hall fails on layer 2, so a "
        "link is kept and large trail components are decomposed (the link-kept fallback)",
        tuple(range(4, 81, 2)),
        (4, 6),
        _complete_bipartite),
    Workload(
        "stress-small",
        "800 random 4/6/8-regular graphs, n <= 60, as `antimagic stress --count 800 --n 60`: "
        "fixed per-call costs dominate, with enough samples for a p95",
        # 800 rather than the verb's usual 200, so the median graph size, and
        # with it label_s_p50, moves little from seed to seed
        (800, 8, 60, (4, 6, 8)),
        (6, 8, 20, (4, 6, 8)),
        _stress),
)}
