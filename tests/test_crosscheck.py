"""The oracle against an independent count of edge colorings.

A graph is k-edge-colorable exactly when k matchings cover its edges.  By
inclusion-exclusion, the number of k-tuples of matchings whose union is E
is  sum over S in 2^E of (-1)^|E - S| * i(S)^k,  where i(S) counts the
matchings inside S (Bjorklund, Husfeldt and Koivisto, "Set partitioning
via inclusion-exclusion", SIAM J. Comput. 2009).  The count shares no
code with the backtracking search, only the graph's edge list.

For m <= 21 edges, i(S) is at most 232 (K7), so grouping the subsets by
i(S) leaves a few hundred terms that Python integers sum exactly.
"""

from __future__ import annotations

import hashlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

np = pytest.importorskip("numpy")
nx = pytest.importorskip("networkx")

import chroma  # noqa: E402
from chroma import (  # noqa: E402
    Graph,
    PartialEdgeColoring,
    chromatic_index,
    families,
    is_critical_edge,
    is_delta_critical,
    oracle,
    parse_graph6,
)


def _matching_table(edges: list[tuple[int, int]]):
    """i(S) and the parity of |S| for every edge subset S, as a bitmask."""
    size = 1 << len(edges)
    counts = np.ones(size, dtype=np.int64)
    odd = np.zeros(size, dtype=bool)
    index = np.arange(size, dtype=np.int64)
    for j, (u, v) in enumerate(edges):
        clash = sum(1 << i for i, e in enumerate(edges[:j]) if u in e or v in e)
        low, high = slice(0, 1 << j), slice(1 << j, 2 << j)
        # A matching of S + e_j avoids e_j, or is e_j plus a matching of
        # S without the edges that meet e_j.
        counts[high] = counts[low] + counts[index[low] & ~clash]
        odd[high] = ~odd[low]
    return counts, odd


def _covers(counts, odd, m: int, k: int) -> int:
    """How many k-tuples of matchings cover all m edges of the table."""
    top = int(counts.max()) + 1
    signed = np.bincount(counts[~odd], minlength=top) - np.bincount(
        counts[odd], minlength=top
    )
    total = sum(int(n) * v**k for v, n in enumerate(signed.tolist()))
    return -total if m % 2 else total


def _atlas():
    for G in nx.graph_atlas_g():
        if G.number_of_edges() and nx.is_connected(G):
            yield Graph(G.number_of_nodes(), G.edges())


def test_inclusion_exclusion_counts_small_cases():
    # The triangle: 6 ordered 3-colorings (each edge its own color), none
    # with 2; the path on 3 vertices: 2 with 2 colors.
    triangle = _matching_table([(0, 1), (1, 2), (0, 2)])
    assert _covers(*triangle, 3, 3) == 6
    assert _covers(*triangle, 3, 2) == 0
    assert _covers(*_matching_table([(0, 1), (1, 2)]), 2, 2) == 2


def test_oracle_agrees_with_inclusion_exclusion_on_atlas():
    classes = edges_checked = criticals = 0
    for g in _atlas():
        edges = list(g.edges)
        counts, odd = _matching_table(edges)
        chi = chromatic_index(g)
        k = chi.chi_prime
        assert _covers(counts, odd, g.m, k) > 0, g.edges
        assert _covers(counts, odd, g.m, k - 1) == 0, g.edges
        classes += 1
        # Delta-critical: no Delta-coloring of G (checked just above for
        # class 2, where k - 1 = Delta), and one of every G - e.
        critical = chi.classification == "class2"
        if critical:
            delta = g.max_degree
            index = np.arange(len(counts), dtype=np.int64)
            for j, e in enumerate(edges):
                # The subsets of E - e are those with bit j clear.
                keep = (index >> j & 1) == 0
                colorable = _covers(counts[keep], odd[keep], g.m - 1, delta) > 0
                assert is_critical_edge(g, e, chi=chi) == colorable, (g.edges, e)
                critical = critical and colorable
                edges_checked += 1
        assert is_delta_critical(g, chi=chi) == critical, g.edges
        criticals += critical
    assert (classes, edges_checked, criticals) == (995, 502, 26)


def _benchmark_corpora():
    """The benchmark's seeded corpus builders, ``perfbench/corpora.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpora.py"
    spec = importlib.util.spec_from_file_location("corpora", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_certification_agrees_with_one_search_per_edge(monkeypatch):
    # Every sixth graph of the seed-0 oracle-decide corpus: 100 overfull
    # subdivided regular hosts and 20 G(n, 1/2) graphs.  Certification
    # moves the hole, opening blocked moves by Kempe flips; the plain
    # loop searches every G - e on its own.  Certification's work is
    # counted: its searches are pinned, since moves reach the same edges
    # as they did when each move was made on a copy as soon as it was
    # found; and a coloring is copied only for a move that certified an
    # edge, with at most one Kempe flip each.  The copies are pinned too:
    # no coloring is built for a move whose new hole has every edge at
    # both ends certified already.
    lines = _benchmark_corpora().oracle_corpus(chroma, 0)[::6]
    assert len(lines) == 120
    calls = {"_search": 0, "copy": 0, "_flip": 0, "moves": 0}

    def counted(owner, name):
        call = getattr(owner, name)

        def wrapper(*args):
            calls[name] += 1
            return call(*args)

        monkeypatch.setattr(owner, name, wrapper)

    moves = oracle._hole_moves

    def counted_moves(c, certified):
        for f, move in moves(c, certified):
            calls["moves"] += 1
            yield f, move

    criticals = 0
    for line in lines:
        g = parse_graph6(line)
        chi = chromatic_index(g)
        every = all(is_critical_edge(g, e, chi=chi) for e in g.edges)
        counted(oracle, "_search")
        counted(PartialEdgeColoring, "copy")
        counted(PartialEdgeColoring, "_flip")
        monkeypatch.setattr(oracle, "_hole_moves", counted_moves)
        assert is_delta_critical(g, chi=chi) == every, line
        monkeypatch.undo()
        criticals += every
    assert criticals == 100
    assert calls["_search"] == 128
    assert calls["copy"] == 1372
    assert calls["_flip"] <= calls["copy"] <= calls["moves"]


# SHA-256 over every (f, x, y, d) that ``_hole_moves`` yields while
# ``is_delta_critical`` runs, in yield order: the edge f a move reaches,
# the hole's ends x and y and the color d.  The move's ``low``, the least
# color missing at y, is left out: it follows from the coloring, and the
# pin then holds however a move that needs no Kempe flip is marked.
# Hosts: every fixture, subdivided K8 and K10, then the slice above.  A
# change to which moves certification finds, or to the order it finds
# them in, must fail here first.
_CERTIFICATION_MOVES_SHA256 = "9e8dfa95ae9184ca4a2e992b96792ce905546d29bb8aa9b64ba658c80bd9e5e7"


def test_certification_moves_are_pinned(monkeypatch):
    h = hashlib.sha256()
    moves = oracle._hole_moves

    def hashed(c, certified):
        for f, move in moves(c, certified):
            h.update(repr((f, move[:3])).encode())
            yield f, move

    monkeypatch.setattr(oracle, "_hole_moves", hashed)
    hosts = [g for _, g in families.basic_fixtures()]
    hosts += [families.subdivided_complete(8), families.subdivided_complete(10)]
    lines = _benchmark_corpora().oracle_corpus(chroma, 0)[::6]
    hosts += [parse_graph6(line) for line in lines]
    criticals = sum(is_delta_critical(g) for g in hosts)
    assert criticals == 109
    assert h.hexdigest() == _CERTIFICATION_MOVES_SHA256


# SHA-256 over every result of ``oracle._search``, in call order (None, or
# the dict's items in insertion order), then the total node count.  The
# nodes are counted by reading the clock at every node: ``_CHECK_INTERVAL``
# is 1 and the oracle's clock is a counter that never runs out, read once
# per search for the deadline and once per node.  Searches: the max degree
# and, on class-2 hosts, one color more; and the max degree with every
# edge as the hole.  Hosts: every fixture, then the slice above.  A change
# to any coloring the search finds, to the order it assigns edges in, or
# to the nodes it visits must fail here first.
_SEARCH_SHA256 = "742cda30014dfecabb5006b76fe942200fef9c361f5b3c63510d115a6a3efff5"


def test_search_results_and_nodes_are_pinned(monkeypatch):
    h = hashlib.sha256()
    search = oracle._search
    reads = 0

    def hashed(*args):
        found = search(*args)
        h.update(repr(None if found is None else list(found.items())).encode())
        return found

    def clock():
        nonlocal reads
        reads += 1
        return 0.0

    monkeypatch.setattr(oracle, "_search", hashed)
    monkeypatch.setattr(oracle, "_CHECK_INTERVAL", 1)
    monkeypatch.setattr(oracle, "time", SimpleNamespace(monotonic=clock))
    hosts = [g for _, g in families.basic_fixtures()]
    lines = _benchmark_corpora().oracle_corpus(chroma, 0)[::6]
    hosts += [parse_graph6(line) for line in lines]
    budget = oracle.DEFAULT_TIMEOUT_MS
    searches = 0
    for g in hosts:
        delta = g.max_degree
        class2 = oracle._search(g, delta, budget) is None
        if class2:
            assert oracle._search(g, delta + 1, budget) is not None
        for e in g.edges:
            oracle._search(g, delta, budget, e)
        searches += class2 + g.m + 1
    h.update(repr(reads - searches).encode())
    assert searches == 3130
    assert h.hexdigest() == _SEARCH_SHA256
