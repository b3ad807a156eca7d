"""Partial edge colorings, Kempe chains, swaps, and serialization."""

from __future__ import annotations

import itertools
import random

import pytest

from chroma import (
    Graph,
    PartialEdgeColoring,
    empty_partial,
    families,
    oracle,
)

_P4 = families.path(4)
_P4_COLORS = {(0, 1): 1, (1, 2): 2, (2, 3): 1}


def _p4(k: int = 2) -> PartialEdgeColoring:
    return PartialEdgeColoring.from_assignment(_P4, k, _P4_COLORS)


def test_accessors():
    c = _p4()
    assert c.k == 2
    assert c.color(1, 0) == 1
    assert c.color(1, 2) == 2
    assert c.colored_count == 3
    assert c.is_complete
    assert c.hole is None
    assert c.missing(0) == (2,)
    assert c.missing(1) == ()
    assert c.present_mask(1) == 0b110
    assert c.missing_mask(1) == 0
    assert c.partner(1, 2) == 2
    assert c.partner(0, 2) is None
    assert c.uncolored_edges() == ()
    assert dict(c.edge_items()) == _P4_COLORS
    assert c.check_proper() == []


def test_construction_rejects_improper_input():
    with pytest.raises(ValueError, match="already present at an endpoint"):
        PartialEdgeColoring.from_assignment(_P4, 2, {(0, 1): 1, (1, 2): 1})
    with pytest.raises(ValueError, match="outside palette"):
        PartialEdgeColoring.from_assignment(_P4, 2, {(0, 1): 3})
    with pytest.raises(ValueError, match="at least one color"):
        PartialEdgeColoring(_P4, 0)
    with pytest.raises(ValueError, match="limited to 62"):
        PartialEdgeColoring(_P4, 63)
    with pytest.raises(ValueError, match="not in graph"):
        PartialEdgeColoring(_P4, 2, hole=(0, 2))


@pytest.mark.parametrize("color", (0, 1))
@pytest.mark.parametrize("pair", ((0, 2), (5, 6), (-1, 0)))
def test_from_assignment_rejects_a_pair_that_is_not_an_edge(pair, color):
    with pytest.raises(ValueError, match=rf"^\({pair[0]}, {pair[1]}\) is not an edge"):
        PartialEdgeColoring.from_assignment(_P4, 2, {pair: color})


_VERTEX_CALLS = {
    "missing": lambda c, v: c.missing(v),
    "missing_mask": lambda c, v: c.missing_mask(v),
    "present_mask": lambda c, v: c.present_mask(v),
    "partner": lambda c, v: c.partner(v, 1),
    "partners": lambda c, v: c.partners(v, 0b110),
    "elementary_conflict": lambda c, v: c.elementary_conflict([3, v]),
    "is_elementary": lambda c, v: c.is_elementary([3, v]),
    "degree": lambda c, v: c.graph.degree(v),
    "neighbors": lambda c, v: c.graph.neighbors(v),
    "adjacency_mask": lambda c, v: c.graph.adjacency_mask(v),
}


@pytest.mark.parametrize("v", (-1, 4))
@pytest.mark.parametrize("call", _VERTEX_CALLS.values(), ids=_VERTEX_CALLS)
def test_vertex_accessors_reject_a_vertex_outside_the_graph(call, v):
    # -1 would read the last vertex's row, and 4 runs past the table.
    with pytest.raises(ValueError, match=f"^vertex {v} outside 0..3$"):
        call(_p4(), v)


@pytest.mark.parametrize("color", (-1, 0, 3))
def test_partner_rejects_a_color_outside_the_palette(color):
    # -1 would read the last color's slot, 0 the unused one, and 3 runs
    # past the row.
    with pytest.raises(ValueError, match=f"^color {color} outside palette 1..2$"):
        _p4().partner(1, color)


def test_empty_partial_needs_enough_colors():
    with pytest.raises(ValueError, match="below max degree"):
        empty_partial(families.complete(4), (0, 1), 2)
    c = empty_partial(_P4, (0, 1), 2)
    assert c.colored_count == 0
    assert c.hole == (0, 1)
    assert not c.is_complete


def test_kempe_chain_path():
    c = _p4()
    for anchor in range(4):
        chain = c.kempe_chain(anchor, 1, 2)
        assert chain.shape == "path"
        assert chain.vertices == (0, 1, 2, 3)
        assert chain.edges == ((0, 1), (1, 2), (2, 3))
        assert chain.colors == (1, 2)


def test_kempe_chain_trivial_and_bad_colors():
    c = _p4(k=3)
    chain = c.kempe_chain(0, 2, 3)
    assert chain.vertices == (0,)
    assert chain.edges == ()
    c2 = c.swap(0, 2, 3)
    assert dict(c2.edge_items()) == dict(c.edge_items())
    with pytest.raises(ValueError, match="must differ"):
        c.kempe_chain(0, 1, 1)
    with pytest.raises(ValueError, match="outside palette"):
        c.kempe_chain(0, 1, 4)


def test_kempe_chain_cycle():
    g = families.cycle(4)
    c = PartialEdgeColoring.from_assignment(
        g, 2, {(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}
    )
    chain = c.kempe_chain(2, 1, 2)
    assert chain.shape == "cycle"
    assert chain.vertices[0] == 0
    assert len(chain.edges) == 4
    assert set(chain.edges) == set(g.edges)
    swapped = c.swap(2, 1, 2)
    assert swapped.color(0, 1) == 2
    assert swapped.check_proper() == []
    assert dict(swapped.swap(2, 1, 2).edge_items()) == dict(c.edge_items())


def _reference_component(
    c: PartialEdgeColoring, x: int, alpha: int, beta: int
) -> tuple[set[int], int]:
    """Vertices and edge count of the (alpha, beta)-component through ``x``,
    found by breadth-first search over the graph's edge colors."""
    seen = {x}
    queue = [x]
    edges = set()
    for v in queue:
        for w in c.graph.neighbors(v):
            if c.color(v, w) in (alpha, beta):
                edges.add((min(v, w), max(v, w)))
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
    return seen, len(edges)


def _fixture_colorings():
    """Sampled colorings: Δ colors for the critical C5 and Petersen minus
    a vertex, Δ + 1 colors for K5, whose edge-deleted subgraphs stay class 2.

    The K5 colorings are three seeded walks of four random whole-chain
    swaps each from the plain completion, three distinct ones per edge."""
    for g in (families.cycle(5), families.petersen_minus_vertex()):
        yield from oracle.sample_colorings(g, 3, 0)
    k5 = families.complete(5)
    for e in k5.edges:
        plain = oracle.complete_coloring(empty_partial(k5, e, 5))
        walks = []
        for seed in range(3):
            rng = random.Random(seed)
            c = plain
            for _ in range(4):
                x = rng.randrange(k5.n)
                alpha, beta = rng.sample(range(1, c.k + 1), 2)
                c = c.swap(x, alpha, beta)
            walks.append(c)
        assert len({tuple(w.edge_items()) for w in walks}) == 3
        yield from walks


def test_kempe_chain_matches_reference_component():
    checked = {"path": 0, "cycle": 0}
    for c in _fixture_colorings():
        for x in range(c.graph.n):
            for alpha, beta in itertools.permutations(range(1, c.k + 1), 2):
                chain = c.kempe_chain(x, alpha, beta)
                vs = chain.vertices
                component, edge_count = _reference_component(c, x, alpha, beta)
                assert set(vs) == component and len(vs) == len(component)
                for y in range(c.graph.n):
                    assert c.linked(x, y, alpha, beta) == (y in component)
                cyclic = edge_count == len(component)
                assert chain.shape == ("cycle" if cyclic else "path")
                pairs = zip(vs, vs[1:] + vs[:1] if cyclic else vs[1:])
                assert chain.edges == tuple((min(u, v), max(u, v)) for u, v in pairs)
                assert len(chain.edges) == edge_count
                colors = [c.color(*e) for e in chain.edges]
                assert set(colors) <= {alpha, beta}
                assert all(p != q for p, q in zip(colors, colors[1:]))
                if cyclic:
                    assert vs[0] == min(component) and vs[1] < vs[-1]
                else:
                    assert vs[0] <= vs[-1]
                checked[chain.shape] += 1
    assert checked["path"] and checked["cycle"]


def _state(c: PartialEdgeColoring):
    return c.edge_colors, c.hole, c._present, c._slot, c.colored_count


def _reference_swap(c: PartialEdgeColoring, chain) -> PartialEdgeColoring:
    """The chain's two colors exchanged in an edge-to-color dict, then
    rebuilt by ``from_assignment``."""
    alpha, beta = chain.colors
    colors = dict(c.edge_items())
    for e in chain.edges:
        colors[e] = beta if colors[e] == alpha else alpha
    return PartialEdgeColoring.from_assignment(c.graph, c.k, colors, hole=c.hole)


def test_flip_equals_swap_of_the_whole_chain():
    # _flip exchanges the component in place with no chain built; at an
    # anchor with neither color it changes nothing, as exchanging the
    # one-vertex chain's no edges does.
    shapes = {"path": 0, "cycle": 0, "trivial": 0}
    for c in _fixture_colorings():
        for x in range(c.graph.n):
            for alpha, beta in itertools.permutations(range(1, c.k + 1), 2):
                chain = c.kempe_chain(x, alpha, beta)
                want = _state(_reference_swap(c, chain))
                flipped = c.copy()
                flipped._flip(x, alpha, beta)
                assert flipped.check_proper() == []
                assert _state(flipped) == want
                assert _state(c.swap(x, alpha, beta)) == want
                flipped._flip(x, alpha, beta)
                assert _state(flipped) == _state(c)
                shapes["trivial" if not chain.edges else chain.shape] += 1
    assert all(shapes.values()), shapes


def test_swap_at_any_vertex_of_a_chain_is_one_exchange():
    # swap(x, alpha, beta) exchanges the whole chain through x, so every
    # vertex of that chain names the same exchange, and it undoes itself.
    swaps = 0
    for c in _fixture_colorings():
        for x in range(c.graph.n):
            for alpha, beta in itertools.permutations(range(1, c.k + 1), 2):
                chain = c.kempe_chain(x, alpha, beta)
                want = _state(_reference_swap(c, chain))
                for w in chain.vertices:
                    swapped = c.swap(w, alpha, beta)
                    assert _state(swapped) == want
                    assert _state(swapped.swap(w, alpha, beta)) == _state(c)
                    swaps += 1
    assert swaps


def test_chain_calls_reject_a_vertex_outside_the_graph():
    # -1 would index the last slot row, and 4 and 7 run past the table.
    c = _p4()
    for x in (-1, 4, 7):
        calls = (
            lambda: c.kempe_chain(x, 1, 2),
            lambda: c.swap(x, 1, 2),
            lambda: c.linked(x, 2, 1, 2),
            lambda: c.linked(2, x, 1, 2),
            lambda: c.linked(x, x, 1, 1),
        )
        for call in calls:
            with pytest.raises(ValueError, match=f"^vertex {x} outside 0..3$"):
                call()


def test_linked_tells_whether_a_colored_edge_is_on_the_chain():
    # The tau-edge us lies on the (beta, tau)-chain through t exactly
    # when u does, and exactly when s does.
    on_chain = 0
    for c in _fixture_colorings():
        for (u, s), tau in c.edge_items():
            if not tau:
                continue
            for t in range(c.graph.n):
                for beta in range(1, c.k + 1):
                    if beta == tau:
                        continue
                    on = (u, s) in c.kempe_chain(t, beta, tau).edges
                    assert c.linked(t, u, beta, tau) == on
                    assert c.linked(t, s, beta, tau) == on
                    on_chain += on
    assert on_chain


def test_swap_is_involution_and_leaves_original():
    c = _p4()
    c2 = c.swap(0, 1, 2)
    assert c.color(0, 1) == 1
    assert dict(c2.edge_items()) == {(0, 1): 2, (1, 2): 1, (2, 3): 2}
    assert c2.check_proper() == []
    back = c2.swap(0, 1, 2)
    assert dict(back.edge_items()) == dict(c.edge_items())


def test_linked():
    c = PartialEdgeColoring.from_assignment(_P4, 2, {(0, 1): 1, (2, 3): 1})
    assert c.linked(0, 1, 1, 2)
    assert c.linked(0, 0, 1, 2)
    assert not c.linked(0, 3, 1, 2)
    assert not c.linked(1, 2, 1, 2)
    # A vertex is linked to itself before the colors are looked at; any
    # other pair gets kempe_chain's errors.
    assert c.linked(0, 0, 1, 1)
    with pytest.raises(ValueError, match="^chain colors must differ$"):
        c.linked(0, 1, 1, 1)
    with pytest.raises(ValueError, match="^color 3 outside palette 1..2$"):
        c.linked(0, 1, 1, 3)
    with pytest.raises(ValueError, match="^color 0 outside palette 1..2$"):
        c.linked(0, 3, 0, 2)


def test_elementary_conflict():
    c2 = PartialEdgeColoring.from_assignment(
        families.path(3), 2, {(0, 1): 1, (1, 2): 2}
    )
    assert c2.is_elementary([0, 1, 2])
    c3 = PartialEdgeColoring.from_assignment(
        families.path(3), 3, {(0, 1): 1, (1, 2): 2}
    )
    assert c3.elementary_conflict([0, 1, 2]) == (0, 1, 3)
    assert not c3.is_elementary([2, 0])


def test_json_round_trip():
    c = PartialEdgeColoring.from_assignment(
        families.cycle(5),
        3,
        {(1, 2): 1, (2, 3): 2, (3, 4): 1, (0, 4): 2},
        hole=(0, 1),
    )
    obj = c.to_json_obj()
    assert obj["k"] == 3
    assert obj["uncolored"] == [0, 1]
    back = PartialEdgeColoring.from_json_obj(families.cycle(5), obj)
    assert dict(back.edge_items()) == dict(c.edge_items())
    assert back.hole == (0, 1)
    assert back.check_proper() == []


def test_json_rejects_mismatched_graph():
    obj = _p4().to_json_obj()
    with pytest.raises(ValueError, match="does not match"):
        PartialEdgeColoring.from_json_obj(families.cycle(4), obj)
    bad = _p4().to_json_obj()
    bad["uncolored"] = [0, 1]
    with pytest.raises(ValueError, match="has a color"):
        PartialEdgeColoring.from_json_obj(_P4, bad)
    # A repeated edge is refused rather than resolved by its last entry.
    twice = {
        "k": 3,
        "uncolored": [0, 4],
        "edges": [[0, 1, 1], [1, 2, 2], [2, 3, 1], [3, 4, 2], [0, 4, 0], [1, 0, 3]],
    }
    with pytest.raises(ValueError, match=r"^edge \(0, 1\) listed twice$"):
        PartialEdgeColoring.from_json_obj(families.cycle(5), twice)


@pytest.mark.parametrize("color", ["1", 1.0, None, True], ids=repr)
def test_json_rejects_a_color_that_is_not_an_int(color):
    obj = {
        "k": 3,
        "uncolored": [0, 4],
        "edges": [[0, 1, color], [1, 2, 2], [2, 3, 1], [3, 4, 2], [0, 4, 0]],
    }
    with pytest.raises(ValueError, match=r"^edge \(0, 1\) has color .*, not an int$"):
        PartialEdgeColoring.from_json_obj(families.cycle(5), obj)


@pytest.mark.parametrize(
    "field, value",
    [
        ("k", 2.7),
        ("k", "2"),
        ("uncolored", [0, "1"]),
        ("uncolored", [0, 1, 2]),
        ("uncolored", 5),
    ],
    ids=repr,
)
def test_json_rejects_a_malformed_k_or_uncolored(field, value):
    obj = _p4().to_json_obj()
    obj[field] = value
    with pytest.raises(ValueError, match=f"^{field} is "):
        PartialEdgeColoring.from_json_obj(_P4, obj)


@pytest.mark.parametrize(
    "obj, message",
    [
        ({"k": 2, "edges": [["0", 1, 1], [1, 2, 2]]}, r"^edges entry \['0', 1, 1\] is not"),
        ({"k": 2, "edges": [5, [1, 2, 2]]}, r"^edges entry 5 is not"),
        ({"k": 2, "edges": [[0, 1.0, 1], [1, 2, 2]]}, r"^edges entry \[0, 1\.0, 1\] is not"),
        ({"edges": [[0, 1, 1], [1, 2, 2]]}, r"^witness has no 'k' field$"),
        ({"k": 2}, r"^witness has no 'edges' field$"),
        ({"k": 2, "edges": 5}, r"^edges is 5, not a list$"),
    ],
    ids=["str-endpoint", "int-entry", "float-endpoint", "no-k", "no-edges", "int-edges"],
)
def test_json_rejects_a_malformed_entry_or_missing_field(obj, message):
    # Each object is {"k": 2, "edges": [[0, 1, 1], [1, 2, 2]]}, a proper
    # coloring of P3, with one entry or field broken.
    with pytest.raises(ValueError, match=message):
        PartialEdgeColoring.from_json_obj(families.path(3), obj)


def test_check_proper_detects_drift():
    c = _p4()
    i = _P4.edge_index(2, 3)
    c._colors[i] = 2
    problems = c.check_proper()
    assert any("repeated at vertex 2" in p for p in problems)
    assert any("drift" in p for p in problems)


def test_check_proper_trips_on_a_corrupted_slot_table():
    k4 = families.complete(4)
    c = PartialEdgeColoring.from_assignment(
        k4,
        3,
        {(0, 1): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2, (0, 3): 3, (1, 2): 3},
    )
    # Exchange two slot entries at vertex 0: the colors and the present
    # masks still agree, but partner lookups and Kempe walks from vertex 0
    # now cross the wrong edges.
    slot = c._slot[0]
    slot[1], slot[2] = slot[2], slot[1]
    assert c.partner(0, 1) == 2
    assert c.check_proper() == ["slot table drift at vertex 0"]
    # A stale entry for a color missing at the vertex is drift too.
    c = _p4()
    c._slot[0][2] = 3
    assert c.check_proper() == ["slot table drift at vertex 0"]


def _rescanned_count(c: PartialEdgeColoring) -> int:
    return sum(1 for _, color in c.edge_items() if color)


def test_move_hole_twice_is_the_identity():
    # Moving the hole e = xy along a color missing at y, then along the
    # same color at the same end, restores the coloring.
    moves = 0
    for g in (
        families.cycle(5),
        families.subdivided_complete(4),
        families.petersen_minus_vertex(),
    ):
        for c in oracle.sample_colorings(g, 2, seed=4):
            before = (c.hole, list(c.edge_items()))
            for x, y in (c.hole, c.hole[::-1]):
                for color in c.missing(y):
                    moved = c.copy()
                    moved._move_hole(x, color)
                    assert moved.check_proper() == [] and moved.is_complete
                    assert moved.hole == tuple(sorted((x, c.partner(x, color))))
                    assert moved.color(*c.hole) == color
                    moved._move_hole(x, color)
                    assert moved.check_proper() == []
                    assert (moved.hole, list(moved.edge_items())) == before
                    moves += 1
            assert (c.hole, list(c.edge_items())) == before
    assert moves
    # On C5 the one color missing at an end of the hole is present at the
    # other, and vertex 2 is no end of the hole (0, 1).
    c = oracle.sample_colorings(families.cycle(5), 1, seed=0)[0]
    assert c.hole == (0, 1)
    for x, color in ((0, c.missing(0)[0]), (2, 1)):
        with pytest.raises(ValueError, match="cannot move the hole"):
            c.copy()._move_hole(x, color)


def test_colored_count_follows_every_mutation():
    c = _p4()
    results = [c, c.copy()]
    results.append(c.swap(0, 1, 2))
    results.append(c.swap(3, 1, 2))
    shell = PartialEdgeColoring.from_assignment(_P4, 3, {(0, 1): 1}, hole=(2, 3))
    assert (shell.colored_count, shell.is_complete) == (1, False)
    results.append(shell)
    g = families.petersen_minus_vertex()
    for sample in oracle.sample_colorings(g, 3, seed=1)[:3]:
        results.append(sample)
        x = g.edges[0][0]
        a = sample.missing(x)[0]
        b = 1 if a != 1 else 2
        results.append(sample.swap(x, a, b))
    for c in results:
        assert c.colored_count == _rescanned_count(c)
        assert c.check_proper() == []
    assert results[-1].is_complete


def test_randomized_swap_mechanics_small():
    rng = random.Random(11)
    g = families.cycle(5)
    base = PartialEdgeColoring.from_assignment(
        g, 3, {(1, 2): 1, (2, 3): 2, (3, 4): 1, (0, 4): 2}, hole=(0, 1)
    )
    current = base
    for _ in range(200):
        v = rng.randrange(g.n)
        a, b = rng.sample([1, 2, 3], 2)
        nxt = current.swap(v, a, b)
        assert nxt.check_proper() == []
        again = nxt.swap(v, a, b)
        assert dict(again.edge_items()) == dict(current.edge_items())
        current = nxt
    assert current.hole == (0, 1)
    assert current.color(0, 1) == 0
