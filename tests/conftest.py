import collections
import os
from pathlib import Path

import pytest
from hypothesis import strategies as st

import edimlab
from edimlab import build_graph, graph, standard_family


def cli_env():
    """Environment for a `python -m edimlab` child process.

    Puts the directory holding the `edimlab` package these tests imported at
    the front of PYTHONPATH, as an absolute path, so the child runs the same
    code from any working directory (a relative `PYTHONPATH=src` stops
    resolving once cwd moves).
    """
    env = dict(os.environ)
    root = str(Path(edimlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    return env


def path(n):
    return standard_family("path", [n])


def cycle(n):
    return standard_family("cycle", [n])


def complete(n):
    return standard_family("complete", [n])


def star(leaves):
    return standard_family("star", [leaves])


def neighbours_from_edges(g):
    """Neighbour sets read off g.edges alone, not off the adjacency bitmasks."""
    nbrs = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    return nbrs


def bfs_oracle(g):
    """Dict-based BFS, independent of the bitmask implementation under test."""
    nbrs = neighbours_from_edges(g)
    dists = {}
    for src in range(g.n):
        dist = {src: 0}
        queue = collections.deque([src])
        while queue:
            v = queue.popleft()
            for w in nbrs[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        dists[src] = dist
    return dists


@pytest.fixture
def bfs_runs(monkeypatch):
    """The source of every BFS run (graph._levels_from call) the test makes, in order."""
    runs = []
    real = graph._levels_from

    def counted(adj, src):
        runs.append(src)
        return real(adj, src)

    monkeypatch.setattr(graph, "_levels_from", counted)
    return runs


@pytest.fixture
def edge_level_builds(monkeypatch):
    """The graph of every all-source edge-level build (Graph.edge_levels
    filling its cache through graph._edge_levels) the test makes, in order."""
    builds = []
    real = graph._edge_levels

    def counted(g, levels):
        builds.append(g)
        return real(g, levels)

    monkeypatch.setattr(graph, "_edge_levels", counted)
    return builds


@st.composite
def connected_graphs(draw, min_n=2, max_n=7):
    """Random connected graph: a random spanning tree plus extra edges."""
    n = draw(st.integers(min_n, max_n))
    edges = set()
    for i in range(1, n):
        j = draw(st.integers(0, i - 1))
        edges.add((j, i))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in edges]
    extra = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return build_graph(n, sorted(edges | set(extra)))
