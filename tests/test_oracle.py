"""Exact chromatic-index decisions, criticality, and coloring samplers."""

from __future__ import annotations

import hashlib
import random
from itertools import product

import pytest

from chroma import (
    Graph,
    OracleTimeout,
    PartialEdgeColoring,
    UncolorableError,
    chromatic_index,
    complete_coloring,
    decide_colorable,
    empty_partial,
    families,
    is_critical_edge,
    is_delta_critical,
    oracle,
    parse_graph6,
    sample_colorings,
    to_graph6,
)
from chroma.census import _edge_seed

# Known chromatic indices, hand-checkable or classical.
_GROUND_TRUTH = [
    (families.complete(2), 1, "class1"),
    (families.complete(3), 3, "class2"),
    (families.complete(4), 3, "class1"),
    (families.complete(5), 5, "class2"),
    (families.complete(6), 5, "class1"),
    (families.cycle(4), 2, "class1"),
    (families.cycle(5), 3, "class2"),
    (Graph(4, [(0, 1), (0, 2), (0, 3)]), 3, "class1"),
    (families.petersen(), 4, "class2"),
]


def test_chromatic_index_ground_truth():
    for g, chi_prime, cls in _GROUND_TRUTH:
        res = chromatic_index(g)
        assert (res.chi_prime, res.classification) == (chi_prime, cls)
        assert res.witness.hole is None
        assert res.witness.is_complete
        assert res.witness.k == chi_prime
        assert res.witness.check_proper() == []


def test_chromatic_index_rejects_edgeless():
    with pytest.raises(ValueError, match="edgeless"):
        chromatic_index(Graph(3))


def test_decide_colorable():
    assert decide_colorable(families.complete(3), 2) is None
    c = decide_colorable(families.complete(3), 3)
    assert c is not None and c.is_complete
    assert c.hole is None


def test_timeout_budget():
    # K11 minus a 5-edge matching has 50 = 10 * 5 edges, so the matching
    # count cannot refute it at 10 colors and the search runs out of time.
    g = families.complete(11)
    for e in ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9)):
        g = g.without_edge(*e)
    with pytest.raises(OracleTimeout, match="exceeded budget"):
        decide_colorable(g, 10, timeout_ms=1)
    # K11 itself is overfull (55 > 50 edges): refuted before any branching.
    assert decide_colorable(families.complete(11), 10, timeout_ms=1) is None
    k3 = families.complete(3)
    with pytest.raises(ValueError, match="timeout must be positive"):
        decide_colorable(k3, 3, timeout_ms=0)
    with pytest.raises(ValueError, match="timeout must be positive"):
        sample_colorings(k3, (0, 1), 1, seed=0, timeout_ms=0)
    with pytest.raises(ValueError, match="timeout must be positive"):
        complete_coloring(empty_partial(k3, None, 3), timeout_ms=0)
    # None means no budget at all.
    assert decide_colorable(k3, 3, timeout_ms=None) is not None
    assert len(sample_colorings(k3, (0, 1), 2, seed=0, timeout_ms=None)) == 2
    assert complete_coloring(empty_partial(k3, None, 3), timeout_ms=None).is_complete


def test_is_critical_edge():
    c5 = families.cycle(5)
    assert all(is_critical_edge(c5, e) for e in c5.edges)
    k4 = families.complete(4)
    assert not is_critical_edge(k4, (0, 1))
    for e in ((0, 2), (0, -1)):
        with pytest.raises(ValueError, match="not in graph"):
            is_critical_edge(c5, e)


def test_is_delta_critical():
    assert is_delta_critical(families.cycle(5))
    assert is_delta_critical(families.subdivided_complete(4))
    assert is_delta_critical(families.petersen_minus_vertex())
    # Class-2 but not critical: removing one edge leaves them class 2.
    assert not is_delta_critical(families.complete(5))
    assert not is_delta_critical(families.petersen())
    # Class 1.
    assert not is_delta_critical(families.complete(4))
    # Disconnected class-2 graphs never count.
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert not is_delta_critical(two_triangles)
    assert not is_delta_critical(Graph(3))


def _subdivided_regular(rng: random.Random, n: int, d: int) -> Graph:
    """A random connected d-regular graph on n vertices, paired from
    shuffled stubs until simple, with one random edge subdivided by the
    new vertex n.  It is overfull, so class 2."""
    while True:
        stubs = [v for v in range(n) for _ in range(d)]
        rng.shuffle(stubs)
        edges = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2])}
        if len(edges) < n * d // 2 or any(u == v for u, v in edges):
            continue
        g = Graph(n, edges)
        if g.is_connected():
            break
    u, v = rng.choice(g.edges)
    return Graph(n + 1, [e for e in g.edges if e != (u, v)] + [(u, n), (v, n)])


def _gnp_half(rng: random.Random, n: int) -> Graph:
    """A connected G(n, 1/2) graph."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    while True:
        g = Graph(n, [e for e in pairs if rng.random() < 0.5])
        if g.is_connected():
            return g


def _agreed(g: Graph) -> bool:
    """is_delta_critical(g), asserted equal to a search of every G − e."""
    chi = chromatic_index(g)
    every = all(is_critical_edge(g, e, chi=chi) for e in g.edges)
    assert is_delta_critical(g, chi=chi) == every, to_graph6(g)
    return every


def test_is_delta_critical_agrees_with_every_edge_certified():
    rng = random.Random(18)
    for _, g in families.basic_fixtures():
        _agreed(g)
    cells = [(8, 4), (10, 4), (8, 5)] * 4
    assert all([_agreed(_subdivided_regular(rng, n, d)) for n, d in cells])
    for n in (6, 7, 8, 9) * 3:
        _agreed(_gnp_half(rng, n))
    # Class 2 but not critical.
    two_triangles = Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    hosts = (families.complete(5), families.petersen(), two_triangles)
    assert not any([_agreed(g) for g in hosts])


def test_moves_cut_the_certificate_searches(monkeypatch):
    # One search per edge would make 29 and 46; the rest are certified by
    # moving the hole of a coloring already found.
    search = oracle._search
    searched = []

    def counted(h, *args):
        searched.append(h.m)
        return search(h, *args)

    for m, searches in ((8, 7), (10, 22)):
        g = families.subdivided_complete(m)
        chi = chromatic_index(g)
        searched.clear()
        monkeypatch.setattr(oracle, "_search", counted)
        assert is_delta_critical(g, chi=chi)
        monkeypatch.undo()
        assert searched == [g.m - 1] * searches


def test_every_moved_coloring_is_proper(monkeypatch):
    nx = pytest.importorskip("networkx")
    moves = oracle._hole_moves
    made = []

    def checked(g, e, colors, certified):
        for f, moved in moves(g, e, colors, certified):
            c = PartialEdgeColoring.from_assignment(g, g.max_degree, moved, hole=f)
            assert c.check_proper() == [] and c.is_complete, (g.edges, e, f)
            made.append(f)
            yield f, moved

    monkeypatch.setattr(oracle, "_hole_moves", checked)
    critical = 0
    for G in nx.graph_atlas_g():
        if G.number_of_edges() and nx.is_connected(G):
            critical += is_delta_critical(Graph(G.number_of_nodes(), G.edges()))
    assert critical == 26
    assert made


def test_sample_colorings_shape_and_determinism():
    g = families.subdivided_complete(4)
    e = g.edges[0]
    first = sample_colorings(g, e, 6, seed=42)
    again = sample_colorings(g, e, 6, seed=42)
    assert len(first) == 6
    for a, b in zip(first, again):
        assert dict(a.edge_items()) == dict(b.edge_items())
    prefix = sample_colorings(g, e, 3, seed=42)
    for a, b in zip(prefix, first):
        assert dict(a.edge_items()) == dict(b.edge_items())
    for c in first:
        assert c.hole == e
        assert c.color(*e) == 0
        assert c.k == g.max_degree
        assert c.is_complete
        assert c.check_proper() == []


def test_sample_colorings_vary_across_seeds():
    g = families.subdivided_complete(4)
    e = g.edges[0]
    a = sample_colorings(g, e, 8, seed=0)
    b = sample_colorings(g, e, 8, seed=1)
    assert any(
        dict(x.edge_items()) != dict(y.edge_items()) for x, y in zip(a, b)
    )


def test_sample_colorings_edge_cases():
    g = families.cycle(5)
    assert sample_colorings(g, (0, 1), 0, seed=0) == []
    # The budget is checked even when no sample is asked for.
    with pytest.raises(ValueError, match="timeout must be positive"):
        sample_colorings(g, (0, 1), 0, seed=0, timeout_ms=0)
    with pytest.raises(ValueError, match="nonnegative"):
        sample_colorings(g, (0, 1), -1, seed=0)
    with pytest.raises(ValueError, match="not in graph"):
        sample_colorings(g, (0, 2), 1, seed=0)
    # The Petersen graph is class 2 with no critical edge, so the graph
    # minus any edge still needs five colors and sampling must refuse.
    p = families.petersen()
    with pytest.raises(UncolorableError, match="no max-degree coloring"):
        sample_colorings(p, p.edges[0], 1, seed=0)


def test_complete_coloring_respects_presets():
    g = families.cycle(5)
    partial = PartialEdgeColoring.from_assignment(
        g, 3, {(1, 2): 1}, hole=(0, 1)
    )
    done = complete_coloring(partial)
    assert done is not None
    assert done.color(1, 2) == 1
    assert done.is_complete
    assert done.check_proper() == []


def test_complete_coloring_leaves_the_hole_uncolored():
    holey = complete_coloring(empty_partial(families.cycle(5), (0, 1), 2))
    assert holey is not None
    assert holey.hole == (0, 1)
    assert holey.color(0, 1) == 0
    assert holey.colored_count == 4
    assert holey.is_complete and holey.check_proper() == []
    # The hole is an edge in either orientation, and must be in the graph.
    for hole in ((0, 2), (2, 0)):
        c = complete_coloring(empty_partial(families.complete(3), hole, 2))
        assert c is not None and c.hole == (0, 2)
        assert c.color(0, 2) == 0
    with pytest.raises(ValueError, match="not in graph"):
        complete_coloring(empty_partial(families.cycle(5), (0, 2), 2))


def test_complete_coloring_infeasible_preset():
    g = families.cycle(4)
    # Opposite edges forced onto different colors leave the other two
    # edges no consistent pair at k=2.
    partial = PartialEdgeColoring.from_assignment(
        g, 2, {(0, 1): 1, (2, 3): 2}
    )
    assert complete_coloring(partial) is None


_WALK_HOSTS = (
    families.cycle(5),
    families.cycle(7),
    families.subdivided_complete(4),
    families.petersen_minus_vertex(),
)


def _colors(c: PartialEdgeColoring) -> tuple[int, ...]:
    return tuple(color for _, color in c.edge_items())


def _renamed(colors) -> tuple[int, ...]:
    """``colors`` with the colors renamed 1, 2, ... in order of first use,
    so two colorings that differ by a renaming of colors compare equal."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(c, len(first) + 1) for c in colors)


def test_walk_samples_are_proper_near_colorings():
    # 25 samples cross two restarts of the walk.
    for g in _WALK_HOSTS:
        for e in g.edges:
            for c in sample_colorings(g, e, 25, seed=3):
                assert c.check_proper() == []
                assert c.is_complete
                assert c.hole == e and c.color(*e) == 0
                assert c.k == g.max_degree


def test_walk_prefix():
    for g in _WALK_HOSTS:
        for e in g.edges:
            full = [_colors(c) for c in sample_colorings(g, e, 25, seed=5)]
            for count in (1, 10, 11, 24):
                prefix = sample_colorings(g, e, count, seed=5)
                assert [_colors(c) for c in prefix] == full[:count]


def test_walk_never_changes_a_returned_sample():
    g = families.subdivided_complete(4)
    e = g.edges[0]
    samples = sample_colorings(g, e, 25, seed=9)
    assert len({id(c) for c in samples}) == len(samples)
    # Sample i of a run that went on equals the last sample of a run that
    # stopped right after it.
    for i, c in enumerate(samples):
        last = sample_colorings(g, e, i + 1, seed=9)[-1]
        assert _colors(c) == _colors(last)
    assert len(set(map(_colors, samples))) > 1


def test_walk_restarts_reach_another_kempe_class():
    # D]w is K_{2,3} plus the edge (2, 4).  Up to renaming colors, K_{2,3}
    # has exactly two 3-edge-colorings, and no Kempe swap moves between
    # them, so only a restart can reach the other one.
    g = parse_graph6("D]w")
    e = (2, 4)
    k23 = g.without_edge(*e)
    assert sorted(k23.degrees) == [2, 2, 2, 3, 3] and k23.m == 6
    # A coloring is proper when no vertex sees a color twice, that is when
    # its 6 edges give 12 distinct (vertex, color) pairs.
    classes = {
        _renamed(colors)
        for colors in product(range(1, 4), repeat=k23.m)
        if len({(x, c) for ends, c in zip(k23.edges, colors) for x in ends}) == 12
    }
    assert len(classes) == 2
    samples = sample_colorings(g, e, 100, seed=0)
    blocks = [
        {_renamed(c.color(u, v) for u, v in k23.edges) for c in samples[i : i + 10]}
        for i in range(0, 100, 10)
    ]
    # The walk stays in one class between restarts, and the restarts
    # between them reach both.
    assert all(len(block) == 1 for block in blocks)
    assert set().union(*blocks) == classes


def test_walk_restarts_finish_in_the_papers_regime():
    # Subdivided K10 meets the theorem's hypothesis, and its census at
    # seed 0 samples edge (3, 4) from this seed.  Every restart must keep
    # the symmetry pin: an unpinned search of this G − e runs for millions
    # of nodes, past the default budget.
    g = families.subdivided_complete(10)
    e = (3, 4)
    seed = _edge_seed(0, to_graph6(g), e)
    samples = sample_colorings(g, e, 100, seed)
    assert len(samples) == 100
    assert all(c.is_complete and c.check_proper() == [] for c in samples)


def test_walk_refuses_a_non_critical_edge():
    for host in (families.petersen(), families.complete(5)):
        with pytest.raises(UncolorableError, match="no max-degree coloring"):
            sample_colorings(host, host.edges[0], 5, seed=0)


# SHA-256 over the color lists of 20 samples (seed 17) on every edge of
# four critical graphs.  The census reports are built from these streams,
# so an edit to the sampler that moves them must fail here first.
_SAMPLE_STREAM_SHA256 = "73251c16c3908cd413d837c2475399d1d423ba000d0221c81d0730e7cda59029"


def test_sample_stream_is_pinned():
    h = hashlib.sha256()
    for g in _WALK_HOSTS:
        for e in g.edges:
            for c in sample_colorings(g, e, 20, seed=17):
                h.update(bytes(_colors(c)))
    assert h.hexdigest() == _SAMPLE_STREAM_SHA256


# SHA-256 over every edge e of every fixture: the coloring of G − e that
# certifies e, from which the sampler's walk on e starts; "-" where G − e
# needs another color.  The completion of empty_partial(g, e, max degree)
# searches G − e with an empty preset, so it keeps the symmetry pin and
# must give the same colors.  A change to the search, to without_edge or
# to how a coloring is built from a search must fail here first.
_FIXTURE_CERTIFICATES_SHA256 = "c0b4e03ae26e1eb15acc5f00aef7f2922a12aaa3873bd2c15b62e4d9abb820d4"


def test_fixture_certificates_are_pinned():
    h = hashlib.sha256()
    for _, g in families.basic_fixtures():
        chi = chromatic_index(g)
        for e in g.edges:
            completed = complete_coloring(empty_partial(g, e, g.max_degree))
            certificate = decide_colorable(g.without_edge(*e), g.max_degree)
            h.update(b"-" if certificate is None else bytes(_colors(certificate)))
            if certificate is None:
                assert completed is None
            else:
                kept = tuple(color for f, color in completed.edge_items() if f != e)
                assert kept == _colors(certificate)
            critical = chi.classification == "class2" and certificate is not None
            assert is_critical_edge(g, e, chi=chi) == critical
    assert h.hexdigest() == _FIXTURE_CERTIFICATES_SHA256
