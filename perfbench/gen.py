"""Seeded input generators owned by the benchmark.

Graphs are returned as (n, edges) with edges canonical (u < v) and sorted,
so the benchmark can hand them to the program and the tests can compare
them.  Connectivity is checked here with a plain BFS, independent of the
program under test.  Seeding uses a string, which `random.Random` hashes
the same way in every process, so one seed gives the same graphs everywhere.
"""

import random

# (n, p, count) per class of one hard_gnp pass.  Dense graphs dominate:
# their solve times vary little (p95/p50 about 1.6), so the median and tail
# of a pass change little from seed to seed.  Sparse graphs have a heavy
# tail (p95/p50 about 4), so with more than a few per pass, which of them a
# seed draws would set the tail percentile.  n = 22 rather than 24 keeps one
# pass near 15 s while holding enough graphs for a steady median.
HARD_GNP_CLASSES = (
    (22, 0.5, 184),
    (30, 0.15, 8),
)

PRODUCT6_N = 6
PRODUCT6_COUNT = 2000


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def gnp_connected(rng: random.Random, n: int, p: float) -> list[tuple[int, int]]:
    """Edges of one G(n, p) draw, redrawn until the graph is connected."""
    pairs = _pairs(n)
    while True:
        edges = [e for e in pairs if rng.random() < p]
        if _connected(n, edges):
            return edges


def hard_gnp_graphs(seed: int) -> list[tuple[int, list[tuple[int, int]]]]:
    rng = random.Random(f"hard_gnp:{seed}")
    return [(n, gnp_connected(rng, n, p)) for n, p, count in HARD_GNP_CLASSES for _ in range(count)]


def product6_graphs(seed: int) -> list[tuple[int, list[tuple[int, int]]]]:
    """Uniform draws, with repetition, from the labeled connected graphs on 6 vertices."""
    rng = random.Random(f"product6:{seed}")
    pairs = _pairs(PRODUCT6_N)
    out = []
    while len(out) < PRODUCT6_COUNT:
        mask = rng.getrandbits(len(pairs))
        edges = [e for b, e in enumerate(pairs) if mask >> b & 1]
        if _connected(PRODUCT6_N, edges):
            out.append((PRODUCT6_N, edges))
    return out
