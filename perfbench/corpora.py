"""Seeded corpus builders for the benchmark workloads.

The atlas corpus is the acceptance corpus of the test suite: every
connected graph of ``networkx.graph_atlas_g()`` (n <= 7) followed by the
named fixtures.  It does not depend on the seed; the seed only drives the
census sampling.  The oracle corpus is drawn with ``random.Random(seed)``
alone, so the same seed gives the same graph6 lines on any machine.
"""

from __future__ import annotations

import hashlib
import random

# Subdivided random d-regular graphs: (d, n, how many) per cell.  Every
# graph is overfull (n + 1 vertices, d*n/2 + 1 edges, max degree d), so
# it is class 2; each costs about 2-50 ms to decide.  A graph's cost
# varies by a factor of 2-5 with its structure and labelling, so the
# corpus is many small decisions: seed-to-seed spread shrinks with the
# square root of the count.  Cells (5, 12), (6, 10) and (6, 12) are left
# out: their graphs take 0.1-9 s each, and a handful of them would set
# the whole pass time.
REGULAR_CELLS = (
    (4, 10, 120),
    (4, 12, 120),
    (5, 8, 120),
    (5, 10, 120),
    (6, 8, 120),
)
# Random G(n, 1/2) graphs: cheap class-1 decisions.
GNP_ORDERS = (8, 9, 10, 11)
GNP_PER_ORDER = 30


def corpus_sha256(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def atlas_corpus(chroma) -> list[str]:
    """The acceptance corpus: connected atlas graphs plus the fixtures."""
    import networkx as nx

    lines = []
    for G in nx.graph_atlas_g():
        if len(G) == 0 or not nx.is_connected(G):
            continue
        lines.append(chroma.to_graph6(chroma.Graph(G.number_of_nodes(), G.edges())))
    lines.extend(chroma.to_graph6(g) for _, g in chroma.families.basic_fixtures())
    return lines


def fixtures_corpus(chroma) -> list[str]:
    """The named fixture family alone, for the smoke self-test."""
    return [chroma.to_graph6(g) for _, g in chroma.families.basic_fixtures()]


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


def random_regular_edges(rng: random.Random, n: int, d: int) -> list[tuple[int, int]]:
    """A connected simple d-regular graph on n vertices.

    Stubs are paired one suitable pair at a time (two stubs on different,
    not yet adjacent vertices); a dead end restarts the whole graph.
    """
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        edges: set[tuple[int, int]] = set()
        while stubs:
            for _ in range(64):
                i, j = rng.sample(range(len(stubs)), 2)
                u, v = sorted((stubs[i], stubs[j]))
                if u != v and (u, v) not in edges:
                    break
            else:
                break
            edges.add((u, v))
            for k in sorted((i, j), reverse=True):
                stubs[k] = stubs[-1]
                stubs.pop()
        if not stubs:
            edges = sorted(edges)
            if _connected(n, edges):
                return edges


def subdivided_regular_edges(rng: random.Random, n: int, d: int) -> tuple[int, list]:
    """A random d-regular graph with one random edge subdivided by vertex n."""
    edges = random_regular_edges(rng, n, d)
    u, v = edges.pop(rng.randrange(len(edges)))
    return n + 1, edges + [(u, n), (v, n)]


def gnp_edges(rng: random.Random, n: int) -> tuple[int, list]:
    """A connected G(n, 1/2) graph."""
    while True:
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5]
        if _connected(n, edges):
            return n, edges


def oracle_corpus(chroma, seed: int) -> list[str]:
    """Seeded decision corpus: subdivided regular graphs, then G(n, 1/2)."""
    rng = random.Random(seed)
    lines = []
    for d, n, count in REGULAR_CELLS:
        for _ in range(count):
            lines.append(chroma.to_graph6(chroma.Graph(*subdivided_regular_edges(rng, n, d))))
    for n in GNP_ORDERS:
        for _ in range(GNP_PER_ORDER):
            lines.append(chroma.to_graph6(chroma.Graph(*gnp_edges(rng, n))))
    return lines
