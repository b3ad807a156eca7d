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

import importlib.util
from pathlib import Path

import pytest

np = pytest.importorskip("numpy")
nx = pytest.importorskip("networkx")

import chroma  # noqa: E402
from chroma import (  # noqa: E402
    Graph,
    chromatic_index,
    is_critical_edge,
    is_delta_critical,
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


def test_certification_agrees_with_one_search_per_edge():
    # Every sixth graph of the seed-0 oracle-decide corpus: 100 overfull
    # subdivided regular hosts and 20 G(n, 1/2) graphs.  Certification
    # moves the hole, opening blocked moves by Kempe flips; the plain
    # loop searches every G - e on its own.
    lines = _benchmark_corpora().oracle_corpus(chroma, 0)[::6]
    assert len(lines) == 120
    criticals = 0
    for line in lines:
        g = parse_graph6(line)
        chi = chromatic_index(g)
        every = all(is_critical_edge(g, e, chi=chi) for e in g.edges)
        assert is_delta_critical(g, chi=chi) == every, line
        criticals += every
    assert criticals == 100
