"""Exact chromatic-index decisions, criticality, and coloring samplers."""

from __future__ import annotations

import hashlib
import random
from itertools import combinations, product
from types import SimpleNamespace

import pytest

from chroma import (
    Graph,
    OracleTimeout,
    PartialEdgeColoring,
    UncolorableError,
    chromatic_index,
    decide_colorable,
    families,
    is_critical_edge,
    is_delta_critical,
    oracle,
    parse_graph6,
    sample_colorings,
    to_graph6,
)
from chroma.census import _graph_seed
from chroma.graph import _bits


def _without_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """g rebuilt without its edge e: the reference for a search with hole e."""
    return Graph(g.n, (f for f in g.edges if f != e))


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
    # The symmetry pin alone refutes K4 at two colors: vertex 0 has three
    # edges to pin.
    assert decide_colorable(families.complete(4), 2) is None


def test_decide_colorable_checks_its_palette(monkeypatch):
    # A palette no coloring can hold is refused before any search.
    def no_search(*args):
        raise AssertionError("searched")

    monkeypatch.setattr(oracle, "_search", no_search)
    path = families.path(3)
    for k, message in ((-1, "at least one"), (0, "at least one"), (63, "62 colors")):
        with pytest.raises(ValueError, match=message):
            decide_colorable(path, k)


def test_deep_graphs_are_decided():
    # The search keeps one entry per edge on its own stack, so a graph with
    # more edges than Python's recursion limit is still decided.  The path
    # plus a triangle is refuted at two colors only after the whole path
    # is colored.
    path = families.path(1200)
    res = chromatic_index(path)
    assert (res.chi_prime, res.classification) == (2, "class1")
    assert res.witness.check_proper() == [] and res.witness.is_complete
    assert decide_colorable(path, 1) is None
    g = Graph(1203, path.edges + ((1200, 1201), (1200, 1202), (1201, 1202)))
    assert decide_colorable(g, 2) is None
    assert chromatic_index(g).chi_prime == 3


def test_the_empty_graph_has_the_empty_coloring():
    # With no vertex there is no max-degree vertex to pin at.
    c = decide_colorable(Graph(0), 1)
    assert c is not None and c.is_complete and c.hole is None
    assert c.graph == Graph(0) and list(c.edge_items()) == []


def test_timeout_budget():
    # K11 minus a 5-edge matching has 50 = 10 * 5 edges, so the matching
    # count cannot refute it at 10 colors and the search runs out of time.
    g = families.complete(11)
    for e in ((0, 1), (2, 3), (4, 5), (6, 7), (8, 9)):
        g = _without_edge(g, e)
    with pytest.raises(OracleTimeout, match="exceeded budget"):
        decide_colorable(g, 10, timeout_ms=1)
    # K11 itself is overfull (55 > 50 edges): refuted before any branching.
    assert decide_colorable(families.complete(11), 10, timeout_ms=1) is None
    k3 = families.complete(3)
    with pytest.raises(ValueError, match="timeout must be positive"):
        decide_colorable(k3, 3, timeout_ms=0)
    with pytest.raises(ValueError, match="timeout must be positive"):
        sample_colorings(k3, 1, seed=0, timeout_ms=0)
    # None means no budget at all.
    assert decide_colorable(k3, 3, timeout_ms=None) is not None
    assert len(sample_colorings(k3, 2, seed=0, timeout_ms=None)) == 6


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


def test_a_hole_searches_the_graph_minus_that_edge():
    # A search of g with hole e reads g's own tables and must find exactly
    # the coloring that a search of the rebuilt graph g − e finds.
    nx = pytest.importorskip("networkx")
    rng = random.Random(19)
    hosts = [g for _, g in families.basic_fixtures()]
    hosts += [_subdivided_regular(rng, n, d) for n, d in [(8, 4), (10, 4), (8, 5)] * 2]
    hosts += [_gnp_half(rng, n) for n in (6, 7, 8, 9) * 2]
    class2 = 0
    for G in nx.graph_atlas_g():
        if G.number_of_edges() and nx.is_connected(G):
            g = Graph(G.number_of_nodes(), G.edges())
            if decide_colorable(g, g.max_degree) is None:
                hosts.append(g)
                class2 += 1
    assert class2 == 40
    found = refuted = 0
    for g in hosts:
        delta = g.max_degree
        for e in g.edges:
            colors = oracle._search(g, delta, None, e)
            assert colors == oracle._search(_without_edge(g, e), delta, None), (
                to_graph6(g), e
            )
            found += colors is not None
            refuted += colors is None
    assert found and refuted


def test_moves_cut_the_certificate_searches(monkeypatch):
    # One search per edge would make 29 and 46.  Plain hole moves alone
    # left 7 and 22; with a Kempe flip to open each blocked move, the
    # first search's coloring certifies every other edge.
    search = oracle._search
    searched = []

    def counted(h, k, timeout_ms, hole=None):
        searched.append(hole)
        return search(h, k, timeout_ms, hole)

    for m in (8, 10):
        g = families.subdivided_complete(m)
        chi = chromatic_index(g)
        searched.clear()
        monkeypatch.setattr(oracle, "_search", counted)
        assert is_delta_critical(g, chi=chi)
        monkeypatch.undo()
        assert searched == [g.edges[0]]


def test_every_moved_coloring_is_proper(monkeypatch):
    nx = pytest.importorskip("networkx")
    moves = oracle._hole_moves
    made = []
    kinds = {"flipped": 0, "plain": 0, "plain at low": 0}

    def checked(c, certified):
        # Every move is built here, the ones that certification pops and
        # builds itself and the ones its early return leaves unbuilt, so
        # the edge each move names by walking the chain is checked
        # against the hole of the coloring the move makes.
        for f, move in moves(c, certified):
            moved = oracle._moved(c, move)
            assert moved.hole == f and f not in certified, (c.graph.edges, c.hole)
            assert moved.check_proper() == [] and moved.is_complete, (c.graph.edges, f)
            assert c.check_proper() == [] and c.hole != f
            # When d is missing at y the (low, d)-chain from y is empty, d
            # == low or not, so the move recolors the hole and uncolors f
            # alone; else the Kempe flip recolors y's d-edge as well.
            x, y, d, low = move
            plain = c.missing_mask(y) >> d & 1
            changed = sum(a != b for a, b in zip(c.edge_colors, moved.edge_colors))
            assert (changed == 2) == plain, (c.graph.edges, c.hole, move)
            kinds["flipped" if not plain else "plain at low" if d == low else "plain"] += 1
            made.append(f)
            yield f, move

    monkeypatch.setattr(oracle, "_hole_moves", checked)
    critical = 0
    for G in nx.graph_atlas_g():
        if G.number_of_edges() and nx.is_connected(G):
            critical += is_delta_critical(Graph(G.number_of_nodes(), G.edges()))
    assert critical == 26
    rng = random.Random(28)
    hosts = [families.subdivided_complete(8), families.subdivided_complete(10)]
    cells = [(10, 4), (12, 4), (8, 5), (10, 5), (8, 6)] * 2
    hosts += [_subdivided_regular(rng, n, d) for n, d in cells]
    assert all([is_delta_critical(g) for g in hosts])
    assert made and all(kinds.values()), kinds


def _reference_kempe_step(
    c: PartialEdgeColoring, rng: random.Random
) -> PartialEdgeColoring | None:
    """The walk's Kempe step rebuilt from an edge-to-color dict: an
    anchor, a color alpha present there, any other color beta, and the
    two colors exchanged on the edges of ``kempe_chain`` at the anchor
    before ``from_assignment`` builds the new coloring.  None when the
    anchor has no color present, after drawing only it."""
    v = rng.randrange(c.graph.n)
    present = _bits(c.present_mask(v))
    if not present or c.k < 2:
        return None
    alpha = rng.choice(present)
    beta = rng.randrange(1, c.k)
    if beta >= alpha:
        beta += 1
    colors = dict(c.edge_items())
    for e in c.kempe_chain(v, alpha, beta).edges:
        colors[e] = beta if colors[e] == alpha else alpha
    return PartialEdgeColoring.from_assignment(c.graph, c.k, colors, hole=c.hole)


def _reference_walk(g: Graph, count: int, seed: int):
    """``sample_colorings`` on a critical g, step by step with
    ``_reference_kempe_step`` and ``random.Random``'s public draws; also
    returns the generator and the number of anchors with no color."""
    found = oracle._search(g, g.max_degree, None, g.edges[0])
    walk = PartialEdgeColoring.from_assignment(g, g.max_degree, found, hole=g.edges[0])
    rng = random.Random(seed)
    samples: list[list[PartialEdgeColoring]] = [[] for _ in g.edges]
    bare = step = 0
    while any(len(kept) < count for kept in samples):
        step += 1
        if rng.random() < 0.5:
            stepped = _reference_kempe_step(walk, rng)
            if stepped is None:
                bare += 1
            else:
                walk = stepped
        else:
            x, y = walk.hole
            if rng.random() < 0.5:
                x, y = y, x
            walk._move_hole(x, rng.choice(walk.missing(y)))
        if step % oracle._WALK_SWAPS == 0:
            kept = samples[g.edges.index(walk.hole)]
            if len(kept) < count:
                kept.append(walk.copy())
    return [c for kept in samples for c in kept], rng, bare


def _assert_walk_matches_reference(monkeypatch, g: Graph, count: int, seed: int) -> int:
    """The samples of ``sample_colorings`` equal the reference walk's,
    colors, hole, present masks and slot tables, and its generator ends
    in the same state; returns the reference's anchors with no color."""
    made = []

    def recorded(seed):
        made.append(random.Random(seed))
        return made[-1]

    with monkeypatch.context() as m:
        m.setattr(oracle, "random", SimpleNamespace(Random=recorded))
        got = sample_colorings(g, count, seed)
    want, rng, bare = _reference_walk(g, count, seed)
    assert len(got) == len(want) == count * g.m
    for a, b in zip(got, want):
        assert a.check_proper() == [], (g.edges, seed)
        assert (a.edge_colors, a.hole, a._present, a._slot) == (
            b.edge_colors, b.hole, b._present, b._slot
        ), (g.edges, seed)
    assert [r.getstate() for r in made] == [rng.getstate()]
    return bare


def test_walk_matches_the_reference_walk_on_the_fixtures(monkeypatch):
    critical = [g for _, g in families.basic_fixtures() if is_delta_critical(g)]
    assert len(critical) == 7
    for g in critical:
        _assert_walk_matches_reference(monkeypatch, g, 10, seed=0)
    _assert_walk_matches_reference(monkeypatch, families.subdivided_complete(8), 5, seed=0)


def test_walk_matches_the_reference_walk_on_the_atlas(monkeypatch):
    nx = pytest.importorskip("networkx")
    hosts = []
    for G in nx.graph_atlas_g():
        if G.number_of_edges() and nx.is_connected(G):
            g = Graph(G.number_of_nodes(), G.edges())
            if is_delta_critical(g):
                hosts.append(g)
    assert len(hosts) == 26
    for seed in range(5):
        for g in hosts:
            _assert_walk_matches_reference(monkeypatch, g, 5, seed)


def test_kempe_step_skips_an_anchor_with_no_color_present(monkeypatch):
    # Vertex 5 of C5 plus an isolated vertex never has a color, so a Kempe
    # step anchored there draws nothing more and changes nothing.
    g = Graph(6, families.cycle(5).edges)
    assert _assert_walk_matches_reference(monkeypatch, g, 20, seed=4) > 0


def test_randbelow_draws_as_randrange_and_choice():
    # sample_colorings draws with randrange(n), choice(seq) and
    # randrange(1, k); each makes exactly one _randbelow draw, so the
    # pinned sample stream rests on _randbelow alone.  The walk needs n up
    # to the vertex count and k up to 62 colors.
    for n in range(1, 63):
        seq = tuple(range(10, 10 + n))
        public, direct = random.Random(n), random.Random(n)
        for _ in range(20):
            assert public.randrange(n) == direct._randbelow(n)
            assert public.choice(seq) == seq[direct._randbelow(n)]
            if n > 1:
                assert public.randrange(1, n) == 1 + direct._randbelow(n - 1)
        assert public.getstate() == direct.getstate()


def _samples_of(g: Graph, e: tuple[int, int], count: int, seed: int):
    """Edge e's samples from the one walk over g."""
    return [c for c in sample_colorings(g, count, seed) if c.hole == e]


def test_sample_colorings_shape_and_determinism():
    g = families.subdivided_complete(4)
    first = sample_colorings(g, 6, seed=42)
    again = sample_colorings(g, 6, seed=42)
    assert [c.hole for c in first] == [e for e in g.edges for _ in range(6)]
    assert list(map(_colors, first)) == list(map(_colors, again))
    for c in first:
        assert c.color(*c.hole) == 0
        assert c.k == g.max_degree
        assert c.is_complete
        assert c.check_proper() == []


def test_sample_colorings_vary_across_seeds():
    g = families.subdivided_complete(4)
    a = sample_colorings(g, 8, seed=0)
    b = sample_colorings(g, 8, seed=1)
    assert any(
        dict(x.edge_items()) != dict(y.edge_items()) for x, y in zip(a, b)
    )


def test_sample_colorings_edge_cases():
    g = families.cycle(5)
    assert sample_colorings(g, 0, seed=0) == []
    assert sample_colorings(Graph(3), 5, seed=0) == []
    # The budget is checked even when no sample is asked for.
    with pytest.raises(ValueError, match="timeout must be positive"):
        sample_colorings(g, 0, seed=0, timeout_ms=0)
    with pytest.raises(ValueError, match="nonnegative"):
        sample_colorings(g, -1, seed=0)
    # K4 is class 1: the walk meets a hole whose two ends miss one color.
    with pytest.raises(ValueError, match="cannot move the hole"):
        sample_colorings(families.complete(4), 3, seed=0)
    # With one color a Kempe step has no second color to draw: at seed 1
    # one anchors at a colored vertex and changes nothing, and then the
    # hole, whose ends miss that color, cannot move.
    with pytest.raises(ValueError, match="cannot move the hole"):
        sample_colorings(Graph(4, [(0, 1), (2, 3)]), 1, seed=1)


_WALK_HOSTS = (
    families.cycle(5),
    families.cycle(7),
    families.subdivided_complete(4),
    families.petersen_minus_vertex(),
)


def _colors(c: PartialEdgeColoring) -> tuple[int, ...]:
    return c.edge_colors


def _renamed(colors) -> tuple[int, ...]:
    """``colors`` with the colors renamed 1, 2, ... in order of first use,
    so two colorings that differ by a renaming of colors compare equal."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(c, len(first) + 1) for c in colors)


def test_walk_samples_are_proper_near_colorings():
    for g in _WALK_HOSTS:
        samples = sample_colorings(g, 25, seed=3)
        assert [c.hole for c in samples] == [e for e in g.edges for _ in range(25)]
        for c in samples:
            assert c.check_proper() == []
            assert c.is_complete
            assert c.color(*c.hole) == 0
            assert c.k == g.max_degree


def test_walk_prefix():
    # Each edge's first samples do not depend on how many the walk
    # gathers for it, nor on when the other edges fill up.
    for g in _WALK_HOSTS:
        full = sample_colorings(g, 25, seed=5)
        for count in (1, 10, 11, 24):
            prefix = sample_colorings(g, count, seed=5)
            for e in g.edges:
                assert [_colors(c) for c in prefix if c.hole == e] == [
                    _colors(c) for c in full if c.hole == e
                ][:count]


def test_walk_never_changes_a_returned_sample():
    g = families.subdivided_complete(4)
    e = g.edges[0]
    samples = sample_colorings(g, 25, seed=9)
    assert len({id(c) for c in samples}) == len(samples)
    # Sample i of an edge in a run that went on equals that edge's last
    # sample in a run that stopped right after it.
    for i, c in enumerate(samples[:25]):
        last = _samples_of(g, e, i + 1, seed=9)[-1]
        assert _colors(c) == _colors(last)
    assert len(set(map(_colors, samples[:25]))) > 1


def test_walk_reaches_both_kempe_classes_of_an_edge():
    # D]w is K_{2,3} plus the edge (2, 4).  Up to renaming colors, K_{2,3}
    # has exactly two 3-edge-colorings, and no Kempe swap moves between
    # them, so only moving the hole away and back can reach the other one.
    g = parse_graph6("D]w")
    e = (2, 4)
    k23 = _without_edge(g, e)
    assert sorted(k23.degrees) == [2, 2, 2, 3, 3] and k23.m == 6
    # A coloring is proper when no vertex sees a color twice, that is when
    # its 6 edges give 12 distinct (vertex, color) pairs.
    classes = {
        _renamed(colors)
        for colors in product(range(1, 4), repeat=k23.m)
        if len({(x, c) for ends, c in zip(k23.edges, colors) for x in ends}) == 12
    }
    assert len(classes) == 2
    samples = _samples_of(g, e, 100, seed=0)
    assert len(samples) == 100
    assert {_renamed(c.color(u, v) for u, v in k23.edges) for c in samples} == classes


def test_walk_reaches_a_single_coloring_kempe_class():
    # On subdivided K8, 960 of the 961 Kempe classes of near-colorings of
    # G − (0, 8) hold a single coloring: every Kempe swap of it only
    # renames colors.  Kempe swaps alone never reach one from another
    # class.
    g = families.subdivided_complete(8)

    def alone(c: PartialEdgeColoring) -> bool:
        key = _renamed(_colors(c))
        return all(
            _renamed(_colors(c.swap(v, alpha, beta))) == key
            for v in range(g.n)
            for alpha, beta in combinations(range(1, c.k + 1), 2)
        )

    assert any(alone(c) for c in _samples_of(g, (0, 8), 100, seed=0))


def test_walk_finishes_in_the_papers_regime():
    # Subdivided K10 meets the theorem's hypothesis, and its census at
    # seed 0 samples it from this seed.  The walk's one search, its start,
    # keeps the symmetry pin: an unpinned search of this G − e runs for
    # millions of nodes, past the default budget.
    g = families.subdivided_complete(10)
    samples = sample_colorings(g, 100, _graph_seed(0, to_graph6(g)))
    assert len(samples) == 100 * g.m
    assert all(c.is_complete and c.check_proper() == [] for c in samples)


def test_walk_refuses_a_non_critical_edge():
    # The first edge of each host is not critical, so the walk has no
    # start.
    for host in (families.petersen(), families.complete(5)):
        with pytest.raises(UncolorableError, match="no max-degree coloring"):
            sample_colorings(host, 5, seed=0)
    # Er`o is class 2 and its first edge is critical, but its pendant edge
    # (0, 4) is not, so no move takes the hole there and the step cap ends
    # the walk.
    host = parse_graph6("Er`o")
    assert not is_critical_edge(host, (0, 4))
    with pytest.raises(OracleTimeout, match=r"edge \(0, 4\) has 0 of 2 samples"):
        sample_colorings(host, 2, seed=0)


# SHA-256 over the color lists of 20 samples (seed 17) of every edge of
# four critical graphs, in the walk's order.  The census reports are built from these streams,
# so an edit to the sampler that moves them must fail here first.
_SAMPLE_STREAM_SHA256 = "2b2b0420783000c1cb240ddb57836c9b11e0638b066e6cdb01d00aec7f332b73"


def test_sample_stream_is_pinned():
    h = hashlib.sha256()
    for g in _WALK_HOSTS:
        for c in sample_colorings(g, 20, seed=17):
            h.update(bytes(_colors(c)))
    assert h.hexdigest() == _SAMPLE_STREAM_SHA256


# SHA-256 over every edge e of every fixture: the coloring of G − e that
# certifies e, from which, for the first edge, the sampler's walk
# starts; "-" where G − e needs another color.  It is hashed from a
# search of g rebuilt without e; the oracle searches g with e as a hole
# instead and must give the same colors.  A change to the search, to its
# hole or to how a coloring is built from a search must fail here first.
_FIXTURE_CERTIFICATES_SHA256 = "c0b4e03ae26e1eb15acc5f00aef7f2922a12aaa3873bd2c15b62e4d9abb820d4"


def test_fixture_certificates_are_pinned():
    h = hashlib.sha256()
    for _, g in families.basic_fixtures():
        chi = chromatic_index(g)
        for e in g.edges:
            found = oracle._search(g, g.max_degree, None, e)
            certificate = decide_colorable(_without_edge(g, e), g.max_degree)
            h.update(b"-" if certificate is None else bytes(_colors(certificate)))
            if certificate is None:
                assert found is None
            else:
                kept = tuple(found[f] for f in g.edges if f != e)
                assert kept == _colors(certificate)
            critical = chi.classification == "class2" and certificate is not None
            assert is_critical_edge(g, e, chi=chi) == critical
    assert h.hexdigest() == _FIXTURE_CERTIFICATES_SHA256
