"""Graph container, graph6 codec, and edge-list parsing."""

from __future__ import annotations

import random

import pytest

from chroma import (
    Graph,
    families,
    iter_graph6_lines,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)


def _reference_graph6(n: int, edges: set[tuple[int, int]]) -> str:
    """Independent string-bits encoder used to cross-check the packed one."""
    bits = ""
    for v in range(n):
        for u in range(v):
            bits += "1" if (u, v) in edges or (v, u) in edges else "0"
    while len(bits) % 6:
        bits += "0"
    out = chr(n + 63)
    for i in range(0, len(bits), 6):
        out += chr(int(bits[i : i + 6], 2) + 63)
    return out


def test_graph_basics():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (1, 2)])
    assert g.n == 4
    assert g.m == 3
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    assert g.degrees == (1, 2, 2, 1)
    assert (g.max_degree, g.min_degree) == (2, 1)
    assert g.neighbors(1) == (0, 2)
    assert g.adjacency_mask(1) == 0b0101
    assert g.has_edge(2, 1)
    assert not g.has_edge(0, 3)
    for u, v in ((0, -1), (-1, 0), (0, 4), (4, 0)):
        assert not g.has_edge(u, v)
    assert g.edge_index(2, 1) == 1
    with pytest.raises(KeyError):
        g.edge_index(0, 2)


def test_graph_rejects_bad_edges():
    with pytest.raises(ValueError, match="loop"):
        Graph(3, [(1, 1)])
    with pytest.raises(ValueError, match="out of range"):
        Graph(3, [(0, 3)])
    with pytest.raises(ValueError, match="nonnegative"):
        Graph(-1)


def test_is_connected():
    assert families.path(5).is_connected()
    assert not Graph(4, [(0, 1), (2, 3)]).is_connected()
    assert not Graph(0).is_connected()
    assert Graph(1).is_connected()


def test_graph_equality_and_hash():
    a = Graph(3, [(0, 1), (1, 2)])
    b = Graph(3, [(1, 2), (1, 0)])
    c = Graph(3, [(0, 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a != c


def test_parse_graph6_hand_vectors():
    assert parse_graph6("@") == Graph(1)
    assert parse_graph6("A_") == Graph(2, [(0, 1)])
    assert parse_graph6("Bw") == families.complete(3)
    assert parse_graph6("C~") == families.complete(4)
    assert parse_graph6(">>graph6<<Bw") == families.complete(3)
    # The header rule is the one iter_graph6_lines applies.
    assert parse_graph6(">>graph6<< Bw") == families.complete(3)


def test_to_graph6_matches_reference_encoder():
    rng = random.Random(7)
    pool = [g for _, g in families.basic_fixtures()]
    for _ in range(25):
        n = rng.randrange(0, 11)
        edges = {
            (u, v)
            for u in range(n)
            for v in range(u + 1, n)
            if rng.random() < 0.4
        }
        pool.append(Graph(n, edges))
    for g in pool:
        expected = _reference_graph6(g.n, set(g.edges))
        assert to_graph6(g) == expected
        assert parse_graph6(expected) == g


def test_graph6_round_trip_empty_and_size_limit():
    assert parse_graph6(to_graph6(Graph(0))) == Graph(0)
    assert parse_graph6(to_graph6(Graph(62))) == Graph(62)
    with pytest.raises(ValueError, match="n <= 62"):
        to_graph6(Graph(63))


def test_parse_graph6_malformed():
    with pytest.raises(ValueError, match="empty"):
        parse_graph6("")
    with pytest.raises(ValueError, match="empty"):
        parse_graph6(">>graph6<<")
    with pytest.raises(ValueError, match="invalid graph6 character"):
        parse_graph6("B" + chr(20))
    with pytest.raises(ValueError, match="long form"):
        parse_graph6("~??")
    with pytest.raises(ValueError, match="too short"):
        parse_graph6("C")
    with pytest.raises(ValueError, match="trailing data"):
        parse_graph6("C~~")


def test_parse_edge_list_basic():
    text = """# a path on four vertices
    0 1
    1 2

    2 3
    """
    g = parse_edge_list(text)
    assert g == families.path(4)


def test_parse_edge_list_header_and_duplicates():
    g = parse_edge_list("n 4\n0 1\n1 0\n")
    assert g.n == 4
    assert g.m == 1
    assert g.degrees == (1, 1, 0, 0)


def test_parse_edge_list_errors():
    with pytest.raises(ValueError, match="line 1.*non-integer"):
        parse_edge_list("a b\n")
    with pytest.raises(ValueError, match="line 2: loop"):
        parse_edge_list("0 1\n2 2\n")
    with pytest.raises(ValueError, match="negative vertex"):
        parse_edge_list("0 -1\n")
    with pytest.raises(ValueError, match="expected 'u v'"):
        parse_edge_list("0 1 2\n")
    with pytest.raises(ValueError, match="bad vertex count"):
        parse_edge_list("n x\n")
    with pytest.raises(ValueError, match="malformed vertex count"):
        parse_edge_list("n 4 5\n")
    with pytest.raises(ValueError, match="negative vertex count"):
        parse_edge_list("n -2\n")


def test_iter_graph6_lines():
    text = ">>graph6<<\n# comment\nBw\n\nC~  # K4\n"
    assert list(iter_graph6_lines(text)) == ["Bw", "C~"]
    # A payload on the header line loses the space after the header too.
    text = ">>graph6<< Bw\n>>graph6<<C~\n>>graph6<<   \n"
    assert list(iter_graph6_lines(text)) == ["Bw", "C~"]
