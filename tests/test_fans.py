"""Fans, Kierstead paths, degree conditions, and branched configurations."""

from __future__ import annotations

import pytest

from chroma import (
    INAPPLICABLE,
    OK,
    VIOLATION,
    CanonicalizeResult,
    ForkLike,
    Graph,
    KiersteadPath,
    Multifan,
    PartialEdgeColoring,
    StructuralError,
    Verdict,
    alpha_decompose,
    canonicalize_k5_path,
    check_degree_dichotomy,
    check_fork_exclusion,
    check_val,
    families,
    find_forklike,
    grow_kierstead,
    grow_multifan,
    kierstead_paths,
    sample_colorings,
    validate_fan_linkage,
    validate_kierstead4,
    validate_kite,
    validate_multifan,
    validate_shortkite,
)
from chroma.fans import (
    _SHAPES,
    _check_kierstead_structure,
    _forklike_failure,
)


def _host(
    edges: list[tuple[int, int]],
    assign: dict[tuple[int, int], int],
    k: int,
    hole: tuple[int, int] = (0, 1),
) -> PartialEdgeColoring:
    n = 1 + max(max(e) for e in edges)
    g = Graph(n, edges)
    return PartialEdgeColoring.from_assignment(g, k, assign, hole=hole)


# -- multifans --------------------------------------------------------------


def test_grow_multifan_triangle():
    c = _host([(0, 1), (0, 2), (1, 2)], {(0, 2): 1, (1, 2): 2}, k=2)
    fan = grow_multifan(c)
    assert fan == Multifan(0, (1, 2))
    assert fan.vertices == (0, 1, 2)
    assert fan.edges == ((0, 1), (0, 2))
    assert validate_multifan(c, fan).status == OK
    other = grow_multifan(c, center=1)
    assert other == Multifan(1, (0, 2))
    assert validate_multifan(c, other).status == OK


def test_multifan_violation_on_shared_missing_color():
    c = _host([(0, 1)], {}, k=2)
    fan = grow_multifan(c)
    assert fan == Multifan(0, (1,))
    verdict = validate_multifan(c, fan)
    assert verdict.status == VIOLATION
    assert "share missing color 1" in verdict.detail


def test_multifan_structural_errors():
    c = _host([(0, 1), (0, 2), (1, 2)], {(0, 2): 1, (1, 2): 2}, k=2)
    with pytest.raises(StructuralError, match="at least one spoke"):
        validate_multifan(c, Multifan(0, ()))
    with pytest.raises(StructuralError, match="distinct"):
        validate_multifan(c, Multifan(0, (1, 1)))
    with pytest.raises(StructuralError, match="first fan edge"):
        validate_multifan(c, Multifan(0, (2, 1)))
    with pytest.raises(StructuralError, match="not in graph"):
        validate_multifan(c, Multifan(0, (1, 3)))
    with pytest.raises(StructuralError, match="must be an endpoint"):
        grow_multifan(c, center=2)
    no_hole = PartialEdgeColoring.from_assignment(
        families.path(3), 2, {(0, 1): 1, (1, 2): 2}
    )
    with pytest.raises(StructuralError, match="no designated uncolored edge"):
        grow_multifan(no_hole)
    sparse = PartialEdgeColoring(families.cycle(5), 2, (0, 1))
    with pytest.raises(StructuralError, match="complete apart from its hole"):
        grow_multifan(sparse)


def test_colored_hole_is_rejected():
    # The hole 01 carries color 1 while 23 is uncolored, so the colored
    # edge count matches a near-coloring but the hole is not uncolored.
    c = PartialEdgeColoring.from_assignment(
        families.cycle(5), 2, {(0, 1): 1, (1, 2): 2, (3, 4): 1, (0, 4): 2}, hole=(0, 1)
    )
    assert "designated uncolored edge (0, 1) is colored" in c.check_proper()
    assert not c.is_complete
    for grow in (
        grow_multifan,
        lambda c: grow_kierstead(c, (0, 1)),
        lambda c: kierstead_paths(c, 2),
        lambda c: find_forklike(c, "fork"),
    ):
        with pytest.raises(StructuralError, match="complete apart from its hole"):
            grow(c)


def test_multifan_rejects_unmissed_spoke_color():
    c = _host([(0, 1), (0, 2), (1, 3)], {(0, 2): 1, (1, 3): 1}, k=2)
    with pytest.raises(StructuralError, match="not missed earlier"):
        validate_multifan(c, Multifan(0, (1, 2)))


# A fan with two induced classes of two spokes each.  The center 0 sees
# spokes 1, 2, 3, 4, 9; spoke colors 1 and 2 are missed by the first
# spoke (class seeds), color 3 hangs off vertex 2, color 4 off vertex 3.
_FAN_EDGES = [
    (0, 1), (0, 2), (0, 3), (0, 4), (0, 9),
    (1, 5), (1, 6), (1, 7),
    (2, 8), (2, 10), (2, 11),
    (3, 12), (3, 13), (3, 14),
    (4, 15), (4, 16), (4, 17), (4, 18),
    (9, 19), (9, 20), (9, 21), (9, 22),
]
_FAN_ASSIGN = {
    (0, 2): 1, (0, 3): 2, (0, 4): 3, (0, 9): 4,
    (1, 5): 3, (1, 6): 4, (1, 7): 5,
    (2, 8): 2, (2, 10): 4, (2, 11): 5,
    (3, 12): 1, (3, 13): 3, (3, 14): 5,
    (4, 15): 1, (4, 16): 2, (4, 17): 4, (4, 18): 5,
    (9, 19): 1, (9, 20): 2, (9, 21): 3, (9, 22): 5,
}


def test_alpha_decompose_two_classes():
    c = _host(_FAN_EDGES, _FAN_ASSIGN, k=5)
    fan = grow_multifan(c)
    assert fan == Multifan(0, (1, 2, 3, 4, 9))
    dec = alpha_decompose(c, fan)
    assert dec.parent == {2: 1, 3: 1, 4: 2, 9: 3}
    assert dec.seed_of_vertex == {2: 1, 3: 2, 4: 1, 9: 2}
    assert dec.classes == {1: (2, 4), 2: (3, 9)}
    assert dec.induced_by == {1: 1, 2: 2, 3: 1, 4: 2}
    assert dec.vertex_of_color == {1: 1, 2: 1, 3: 2, 4: 3}
    assert dec.precedes(1, 3)
    assert dec.precedes(2, 4)
    assert not dec.precedes(3, 1)
    assert not dec.precedes(1, 4)
    assert not dec.precedes(3, 3)


def test_alpha_decompose_requires_elementary():
    c = _host([(0, 1)], {}, k=2)
    with pytest.raises(StructuralError, match="not elementary"):
        alpha_decompose(c, Multifan(0, (1,)))


def test_fan_linkage_violation_on_synthetic_host():
    # The crafted two-class fan lives on a host whose hole is not a
    # critical edge, and the cross-class chain condition fails there.
    c = _host(_FAN_EDGES, _FAN_ASSIGN, k=5)
    fan = grow_multifan(c)
    verdict = validate_fan_linkage(c, fan)
    assert verdict.status == VIOLATION
    assert "different seeds but are not linked" in verdict.detail


def test_fan_linkage_inapplicable_on_non_elementary_fan():
    # Both ends of a lone uncolored edge miss every color, so the fan's
    # missing sets overlap and there are no seeds to decompose by.
    c = _host([(0, 1)], {}, k=2)
    fan = grow_multifan(c)
    verdict = validate_fan_linkage(c, fan)
    assert verdict == Verdict(INAPPLICABLE, "fan is not elementary")
    with pytest.raises(StructuralError, match="distinct"):
        validate_fan_linkage(c, Multifan(0, (1, 1)))


# -- Kierstead paths --------------------------------------------------------

_C5_ASSIGN = {(1, 2): 1, (2, 3): 2, (3, 4): 1, (0, 4): 2}


def _c5_coloring() -> PartialEdgeColoring:
    return PartialEdgeColoring.from_assignment(
        families.cycle(5), 2, _C5_ASSIGN, hole=(0, 1)
    )


def test_kierstead_paths_enumeration():
    c = _c5_coloring()
    assert kierstead_paths(c, 2) == [
        KiersteadPath((0, 1)),
        KiersteadPath((1, 0)),
    ]
    assert kierstead_paths(c, 4) == [
        KiersteadPath((0, 1, 2, 3)),
        KiersteadPath((1, 0, 4, 3)),
    ]
    assert kierstead_paths(c, 5) == [
        KiersteadPath((0, 1, 2, 3, 4)),
        KiersteadPath((1, 0, 4, 3, 2)),
    ]
    # Edges come in path order, each as its normalized key, hole first.
    assert [p.edges for p in kierstead_paths(c, 5)] == [
        ((0, 1), (1, 2), (2, 3), (3, 4)),
        ((0, 1), (0, 4), (3, 4), (2, 3)),
    ]
    with pytest.raises(ValueError, match="2..5"):
        kierstead_paths(c, 6)


def test_grow_kierstead():
    c = _c5_coloring()
    assert grow_kierstead(c, (0, 1)).vertices == (0, 1, 2, 3, 4)
    assert grow_kierstead(c, (1, 0, 4)).vertices == (1, 0, 4, 3, 2)
    with pytest.raises(StructuralError, match="must start with"):
        grow_kierstead(c, (1, 2))
    with pytest.raises(StructuralError, match="not in graph"):
        grow_kierstead(c, (0, 1, 3))
    with pytest.raises(StructuralError, match="at least the uncolored edge"):
        grow_kierstead(c, (0,))


def test_validate_kierstead4_ok_on_cycle():
    c = _c5_coloring()
    for path in kierstead_paths(c, 4):
        assert validate_kierstead4(c, path).status == OK
    with pytest.raises(StructuralError, match="expected 4 vertices"):
        validate_kierstead4(c, kierstead_paths(c, 5)[0])


def test_validate_kierstead4_interior_degree_violation():
    c = _host(
        [(0, 1), (1, 2), (2, 3), (0, 4), (2, 5)],
        {(1, 2): 1, (2, 3): 2, (0, 4): 2, (2, 5): 3},
        k=3,
    )
    verdict = validate_kierstead4(c, KiersteadPath((0, 1, 2, 3)))
    assert verdict.status == VIOLATION
    assert "interior degree below 3" in verdict.detail
    assert "share missing color 3" in verdict.detail


def test_validate_kierstead4_endpoint_sharing_violation():
    c = _host(
        [(0, 1), (1, 2), (2, 3), (1, 4), (1, 5), (2, 6), (2, 7)],
        {
            (1, 2): 1, (2, 3): 2,
            (1, 4): 2, (1, 5): 3,
            (2, 6): 3, (2, 7): 4,
        },
        k=4,
    )
    verdict = validate_kierstead4(c, KiersteadPath((0, 1, 2, 3)))
    assert verdict.status == VIOLATION
    assert "endpoint 3 shares colors (1, 3, 4)" in verdict.detail


# -- degree conditions ------------------------------------------------------


def test_check_val():
    c5 = families.cycle(5)
    for x, y in c5.edges:
        assert check_val(c5, x, y).status == OK
        assert check_val(c5, y, x).status == OK
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    verdict = check_val(star, 1, 0)
    assert verdict.status == VIOLATION
    assert "has 0 max-degree neighbors besides 0, needs 1" in verdict.detail
    assert check_val(star, 0, 1).status == VIOLATION
    with pytest.raises(StructuralError, match="not in graph"):
        check_val(c5, 0, 2)


def _dichotomy_host() -> Graph:
    # A seven-clique missing one edge, two pendants repairing the degree
    # loss, and two isolated low-degree vertices.
    edges = [
        (u, v) for u in range(7) for v in range(u + 1, 7) if (u, v) != (0, 1)
    ]
    edges += [(0, 7), (1, 8)]
    return Graph(11, edges)


def test_check_degree_dichotomy():
    g = _dichotomy_host()
    assert g.max_degree == 6
    assert check_degree_dichotomy(g, 7, colorings={}).status == OK
    c5 = families.cycle(5)
    verdict = check_degree_dichotomy(c5, 0, colorings={})
    assert verdict.status == INAPPLICABLE
    assert "anchor degree 2 above the bound" in verdict.detail
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    verdict = check_degree_dichotomy(star, 1, colorings={})
    assert verdict.status == VIOLATION
    assert "outside" in verdict.detail


def test_check_degree_dichotomy_shared_color_violation():
    g = _dichotomy_host()
    # An all-uncolored shell misses every color everywhere, so any
    # max-degree vertex shares well over one color with the hole ends.
    shell = PartialEdgeColoring(g, 6, (0, 7))
    verdict = check_degree_dichotomy(g, 7, colorings={(0, 7): [shell]})
    assert verdict.status == VIOLATION
    assert "shares two missing colors" in verdict.detail


def test_check_degree_dichotomy_rejects_an_anchor_outside_the_graph():
    # Subdivided K8 has n = 9; anchor -1 would read vertex 8's degree and
    # then not skip vertex 8, and anchor 9 runs past the degree table.
    g = families.subdivided_complete(8)
    assert check_degree_dichotomy(g, 8, colorings={}).status == OK
    for a in (-1, 9):
        with pytest.raises(StructuralError, match=f"^anchor {a} not a vertex"):
            check_degree_dichotomy(g, a, colorings={})


# -- forks, short-kites, kites ----------------------------------------------

_FORK_CORE_EDGES = [(0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 6)]
_FORK_CORE_ASSIGN = {(1, 2): 1, (2, 3): 2, (2, 4): 3, (3, 5): 4, (4, 6): 5}


def test_find_fork_and_exclusion_ok():
    c = _host(_FORK_CORE_EDGES, _FORK_CORE_ASSIGN, k=5)
    forks = find_forklike(c, "fork")
    assert len(forks) == 1
    assert forks[0].role_map == {
        "a": 0, "b": 1, "u": 2, "s1": 3, "s2": 4, "t1": 5, "t2": 6
    }
    assert forks[0].edges == (
        (0, 1), (1, 2), (2, 3), (2, 4), (3, 5), (4, 6)
    )
    verdict = check_fork_exclusion(c)
    assert verdict.status == OK
    assert "1 forks, none under the degree bound" in verdict.detail


def test_fork_exclusion_violation_under_high_degree():
    edges = _FORK_CORE_EDGES + [(7, v) for v in range(8, 15)]
    assign = dict(_FORK_CORE_ASSIGN)
    assign.update({(7, 8 + i): 1 + i for i in range(7)})
    c = _host(edges, assign, k=7)
    assert c.graph.max_degree == 7
    verdict = check_fork_exclusion(c)
    assert verdict.status == VIOLATION
    assert "under the exclusion bound" in verdict.detail


@pytest.mark.parametrize(
    "pendant, color, row",
    [
        ((6, 7), 4, "s1t1 color missed at t2 fails"),
        ((5, 7), 5, "s2t2 color missed at t1 fails"),
    ],
)
def test_fork_checker_names_an_unmet_cross_row(pendant, color, row):
    # A pendant edge at one tip takes the other branch's tip-edge color
    # (4 on s1t1, 5 on s2t2), so the tips no longer cross: the skeleton
    # meets every growth row, but not the cross rows that close it.
    c = _host(_FORK_CORE_EDGES + [pendant], {**_FORK_CORE_ASSIGN, pendant: color}, k=5)
    roles = {"a": 0, "b": 1, "u": 2, "s1": 3, "s2": 4, "t1": 5, "t2": 6}
    assert _forklike_failure(c, ForkLike("fork", tuple(roles.items())), "fork") == row
    assert find_forklike(c, "fork") == []


_SHORTKITE_EDGES = [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5)]
_SHORTKITE_ASSIGN = {(0, 2): 1, (1, 3): 2, (2, 3): 3, (3, 4): 4, (3, 5): 5}


def test_short_kite_outer_degree_violation():
    c = _host(_SHORTKITE_EDGES, _SHORTKITE_ASSIGN, k=5)
    kites = find_forklike(c, "short-kite")
    assert [sk.role_map for sk in kites] == [
        {"a": 0, "b": 1, "c": 2, "u": 3, "x": 4, "y": 5},
        {"a": 0, "b": 1, "c": 2, "u": 3, "x": 5, "y": 4},
    ]
    verdict = validate_shortkite(c, kites[0])
    assert verdict.status == VIOLATION
    assert "outer degrees 1, 1 both below 4" in verdict.detail


def test_short_kite_ok_when_outer_degree_max():
    edges = _SHORTKITE_EDGES + [(4, 6), (4, 7), (4, 8)]
    assign = dict(_SHORTKITE_ASSIGN)
    assign.update({(4, 6): 1, (4, 7): 2, (4, 8): 3})
    c = _host(edges, assign, k=5)
    sk = next(
        fl for fl in find_forklike(c, "short-kite") if fl.vertex("x") == 4
    )
    assert validate_shortkite(c, sk).status == OK


def test_short_kite_precondition_inapplicable():
    edges = _SHORTKITE_EDGES + [(0, 6)]
    assign = dict(_SHORTKITE_ASSIGN)
    assign[(0, 6)] = 2
    c = _host(edges, assign, k=5)
    sk = ForkLike(
        "short-kite",
        (("a", 0), ("b", 1), ("c", 2), ("u", 3), ("x", 4), ("y", 5)),
    )
    verdict = validate_shortkite(c, sk)
    assert verdict.status == INAPPLICABLE
    assert "bu color missed at a fails" in verdict.detail
    with pytest.raises(StructuralError, match="expected a kite"):
        validate_kite(c, sk)


_KITE_EDGES = [
    (0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 6), (5, 7)
]
_KITE_ASSIGN = {
    (0, 2): 1, (1, 3): 2, (2, 3): 3, (3, 4): 4, (3, 5): 5,
    (4, 6): 6, (5, 7): 6,
}


def test_kite_shared_tip_colors_violation():
    c = _host(_KITE_EDGES, _KITE_ASSIGN, k=6)
    kites = find_forklike(c, "kite")
    assert kites
    marked = [validate_kite(c, kt) for kt in kites]
    assert any(
        v.status == VIOLATION and "tips share 5 missing colors" in v.detail
        for v in marked
    )


def test_kite_different_tip_colors_inapplicable():
    assign = dict(_KITE_ASSIGN)
    assign[(5, 7)] = 4
    c = _host(_KITE_EDGES, assign, k=6)
    kites = [
        kt for kt in find_forklike(c, "kite")
        if kt.vertex("s1") == 4 and kt.vertex("s2") == 5
    ]
    assert kites
    verdict = validate_kite(c, kites[0])
    assert verdict.status == INAPPLICABLE
    assert "different colors" in verdict.detail


# -- one table of structural errors across shapes ---------------------------
#
# On the tight kite host (see test_finders_agree_with_shape_table) a
# misses 2, 3, 4 and b misses 1, 3, 4, so the pendant edges 08 and 19
# (color 5) meet no row; the tight short-kite host plays the same role
# for short-kites.  The six-vertex path host has a valid five-vertex
# prefix and a last edge colored 3, which no earlier vertex misses.


def _tight_shortkite() -> PartialEdgeColoring:
    return _host(
        _SHORTKITE_EDGES + [(0, 6), (1, 7)],
        {**_SHORTKITE_ASSIGN, (0, 6): 5, (1, 7): 5},
        k=5,
    )


def _tight_kite() -> PartialEdgeColoring:
    return _host(
        _KITE_EDGES + [(0, 8), (1, 9), (0, 10), (1, 11), (2, 12)],
        {**_KITE_ASSIGN, (0, 8): 5, (1, 9): 5, (0, 10): 6, (1, 11): 6, (2, 12): 6},
        k=6,
    )


def _six_vertex_path_host() -> PartialEdgeColoring:
    return _host(
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 6), (0, 7), (1, 8), (2, 9), (3, 10)],
        {
            (1, 2): 1, (2, 3): 2, (3, 4): 1, (4, 5): 3,
            (0, 6): 2, (0, 7): 3, (1, 8): 3, (2, 9): 3, (3, 10): 3,
        },
        k=3,
    )


def _fan(center, *spokes):
    return lambda c: validate_multifan(c, Multifan(center, spokes))


def _path(*vertices):
    return lambda c: grow_kierstead(c, vertices)


def _shortkite(kind="short-kite", **roles):
    return lambda c: validate_shortkite(c, ForkLike(kind, tuple(roles.items())))


def _kite(kind="kite", **roles):
    return lambda c: validate_kite(c, ForkLike(kind, tuple(roles.items())))


_KITE_ROLES = {"a": 0, "b": 1, "c": 2, "u": 3, "s1": 4, "s2": 5, "t1": 6, "t2": 7}
_SHORTKITE_ROLES = {"a": 0, "b": 1, "c": 2, "u": 3, "x": 4, "y": 5}

# (host, check, expected): a StructuralError match, or the exact verdict.
_STRUCTURE_TABLE = {
    "fan-repeated-vertex": (_tight_kite, _fan(0, 1, 1), "fan vertices must be distinct"),
    "fan-row0-not-hole": (_tight_kite, _fan(0, 2, 1), r"first fan edge is \(0, 2\)"),
    "fan-absent-edge": (_tight_kite, _fan(0, 1, 3), r"fan edge \(0, 3\) not in graph"),
    "fan-unmet-row": (
        _tight_kite, _fan(0, 1, 8), r"color 5 of fan edge \(0, 8\) is not missed earlier"
    ),
    "path-repeated-vertex": (_tight_kite, _path(0, 1, 0), "path vertices must be distinct"),
    "path-row0-not-hole": (_tight_kite, _path(1, 3, 2), "path must start with the"),
    "path-absent-edge": (_tight_kite, _path(0, 1, 2), r"path edge \(1, 2\) not in graph"),
    "path-unmet-row": (
        _tight_kite, _path(0, 1, 9), r"color 5 of path edge \(1, 9\) is not missed earlier"
    ),
    "path-six-vertices-unmet-last-row": (
        _six_vertex_path_host,
        _path(0, 1, 2, 3, 4, 5),
        r"color 3 of path edge \(4, 5\) is not missed earlier",
    ),
    "short-kite-repeated-vertex": (
        _tight_shortkite, _shortkite(**{**_SHORTKITE_ROLES, "y": 4}), "distinct"
    ),
    "short-kite-row0-not-hole": (
        _tight_shortkite,
        _shortkite(**{**_SHORTKITE_ROLES, "b": 2, "c": 1}),
        "short-kite must start with the uncolored edge",
    ),
    "short-kite-absent-edge": (
        _tight_shortkite,
        _shortkite(**{**_SHORTKITE_ROLES, "c": 4, "x": 2}),
        r"short-kite edge \(0, 4\) not in graph",
    ),
    "short-kite-unmet-row": (
        _tight_shortkite,
        _shortkite(**{**_SHORTKITE_ROLES, "x": 5, "y": 4}),
        Verdict(INAPPLICABLE, "ux color missed at a or b fails"),
    ),
    "short-kite-wrong-kind": (
        _tight_shortkite, _kite("short-kite", **_SHORTKITE_ROLES), "expected a kite"
    ),
    "short-kite-wrong-role-names": (
        _tight_shortkite, _shortkite(**{**_SHORTKITE_ROLES, "z": 6}), "wrong role names"
    ),
    "kite-repeated-vertex": (_tight_kite, _kite(**{**_KITE_ROLES, "t1": 7}), "distinct"),
    "kite-row0-not-hole": (
        _tight_kite, _kite(**{**_KITE_ROLES, "b": 2, "c": 1}), "kite must start with"
    ),
    "kite-absent-edge": (
        _tight_kite, _kite(**{**_KITE_ROLES, "t1": 8}), r"kite edge \(4, 8\) not in graph"
    ),
    "kite-unmet-row": (
        _tight_kite,
        _kite(**{**_KITE_ROLES, "s1": 5, "s2": 4, "t1": 7, "t2": 6}),
        Verdict(INAPPLICABLE, "us1 color missed at a or b fails"),
    ),
    "kite-wrong-kind": (
        _tight_kite, _shortkite("kite", **_KITE_ROLES), "expected a short-kite"
    ),
    "kite-wrong-role-names": (
        _tight_kite,
        _kite(**{("x" if k == "s1" else k): v for k, v in _KITE_ROLES.items()}),
        "wrong role names",
    ),
    "kite-roles-out-of-order": (
        _tight_kite, _kite(**dict(reversed(_KITE_ROLES.items()))), Verdict(OK)
    ),
    "kite-roles-out-of-order-unmet-row": (
        _tight_kite,
        _kite(t2=6, t1=7, s2=4, s1=5, u=3, c=2, b=1, a=0),
        Verdict(INAPPLICABLE, "us1 color missed at a or b fails"),
    ),
}


@pytest.mark.parametrize("case", list(_STRUCTURE_TABLE))
def test_structural_errors_across_shapes(case):
    host, check, expected = _STRUCTURE_TABLE[case]
    c = host()
    if isinstance(expected, Verdict):
        assert check(c) == expected
    else:
        with pytest.raises(StructuralError, match=expected):
            check(c)


def _assert_finder_meets_shape(c: PartialEdgeColoring) -> None:
    # The finder grows each shape from the role-index rows derived from
    # the shape table, and the validators read the table by role name;
    # every embedding found must pass the validators' reading too.  A
    # found shape skips that reading on its own coloring, so its
    # hand-built twin is checked.
    for kind in ("fork", "short-kite", "kite"):
        for fl in find_forklike(c, kind):
            assert _forklike_failure(c, _twin(fl), kind) is None, (kind, fl)


def test_finders_agree_with_shape_table():
    # The tight hosts add pendant edges at a, b, and c so that the widest
    # conditions need their last role: on the short-kite, uy's color is
    # missed only at c; on the kite, us2's only at c, and s1t1's and
    # s2t2's only at u.
    tight_shortkite = _host(
        _SHORTKITE_EDGES + [(0, 6), (1, 7)],
        {**_SHORTKITE_ASSIGN, (0, 6): 5, (1, 7): 5},
        k=5,
    )
    tight_kite = _host(
        _KITE_EDGES + [(0, 8), (1, 9), (0, 10), (1, 11), (2, 12)],
        {**_KITE_ASSIGN, (0, 8): 5, (1, 9): 5, (0, 10): 6, (1, 11): 6, (2, 12): 6},
        k=6,
    )
    hosts = [
        _host(_SHORTKITE_EDGES, _SHORTKITE_ASSIGN, k=5),
        _host(_KITE_EDGES, _KITE_ASSIGN, k=6),
        tight_shortkite,
        tight_kite,
    ]
    for c in hosts:
        _assert_finder_meets_shape(c)
    for c, kind in zip(hosts, ("short-kite", "kite") * 2):
        assert find_forklike(c, kind)


def _reference_forklike(c: PartialEdgeColoring, kind: str) -> set[ForkLike]:
    """Color-blind enumeration: grow every new role across every graph
    edge to an unused vertex, then keep what the shape checks accept.
    Forks must also have ascending branches and pass a cross check
    written out here, apart from the table's cross rows."""
    a, b = c.hole
    found = set()
    partial = [{"a": a, "b": b}, {"a": b, "b": a}]
    roles = {"a", "b"}
    for p, q, _ in _SHAPES[kind][1:]:
        if q not in roles:
            roles.add(q)
            partial = [
                {**m, q: w}
                for m in partial
                for w in c.graph.neighbors(m[p])
                if w not in m.values()
            ]
    for m in partial:
        fl = ForkLike(kind, tuple(m.items()))
        try:
            if _forklike_failure(c, fl, kind) is not None:
                continue
        except StructuralError:
            continue
        if kind == "fork" and not (
            m["s1"] < m["s2"]
            and c.color(m["s1"], m["t1"]) in c.missing(m["t2"])
            and c.color(m["s2"], m["t2"]) in c.missing(m["t1"])
        ):
            continue
        found.add(fl)
    return found


def _reference_kierstead(c: PartialEdgeColoring, vertices: int) -> set[KiersteadPath]:
    """Every simple graph path from either orientation of the hole that
    passes the Kierstead structure check."""
    a, b = c.hole
    paths = [[a, b], [b, a]]
    for _ in range(vertices - 2):
        paths = [p + [w] for p in paths for w in c.graph.neighbors(p[-1]) if w not in p]
    found = set()
    for p in paths:
        try:
            _check_kierstead_structure(c, tuple(p))
        except StructuralError:
            continue
        found.add(KiersteadPath(tuple(p)))
    return found


def _sampled_hosts() -> list[PartialEdgeColoring]:
    hosts = [
        _host(_FORK_CORE_EDGES, _FORK_CORE_ASSIGN, k=5),
        _host(_SHORTKITE_EDGES, _SHORTKITE_ASSIGN, k=5),
        _host(_KITE_EDGES, _KITE_ASSIGN, k=6),
    ]
    for g in (
        families.cycle(5),
        families.subdivided_complete(4),
        families.petersen_minus_vertex(),
        families.subdivided_complete(6),
    ):
        hosts.extend(sample_colorings(g, 3, seed=5))
    return hosts


def test_finders_miss_nothing():
    counts = dict.fromkeys(("fork", "short-kite", "kite", 2, 3, 4, 5), 0)
    for c in _sampled_hosts():
        for kind in ("fork", "short-kite", "kite"):
            found = find_forklike(c, kind)
            assert len(set(found)) == len(found)
            assert set(found) == _reference_forklike(c, kind), kind
            counts[kind] += len(found)
        for size in range(2, 6):
            paths = kierstead_paths(c, size)
            assert len(set(paths)) == len(paths)
            assert set(paths) == _reference_kierstead(c, size), size
            counts[size] += len(paths)
    assert all(counts.values()), counts


def test_every_kite_extends_a_short_kite():
    # The short-kite's rows are the kite's first six, with s1 and s2
    # named x and y, so the kites' six-role prefixes are found short-kites
    # in the same order.
    extended = 0
    for c in _sampled_hosts():
        short = find_forklike(c, "short-kite")
        prefixes = list(
            dict.fromkeys(
                ForkLike("short-kite", tuple(zip("a b c u x y".split(), kt.role_map.values())))
                for kt in find_forklike(c, "kite")
            )
        )
        assert prefixes == [sk for sk in short if sk in prefixes]
        extended += len(prefixes)
    assert extended


def _reference_grow(
    c: PartialEdgeColoring, vertices: list[int], at: int, accepts, limit: int
) -> list[int]:
    """Color-blind greedy growth from ``vertices[at]``: among its unused
    graph neighbors that ``accepts`` takes, append the one with the
    smallest (color, vertex) pair, until none is left or ``limit`` is
    reached."""
    while len(vertices) < limit:
        end = vertices[at]
        steps = [
            (c.color(end, w), w)
            for w in c.graph.neighbors(end)
            if w not in vertices and accepts(c, vertices + [w])
        ]
        if not steps:
            break
        vertices = vertices + [min(steps)[1]]
    return vertices


def _accepts_fan(c: PartialEdgeColoring, vertices: list[int]) -> bool:
    try:
        validate_multifan(c, Multifan(vertices[0], tuple(vertices[1:])))
    except StructuralError:
        return False
    return True


def _accepts_path(c: PartialEdgeColoring, vertices: list[int]) -> bool:
    try:
        _check_kierstead_structure(c, tuple(vertices))
    except StructuralError:
        return False
    return True


def test_growers_match_color_blind_reference():
    grown = 0
    for c in _sampled_hosts():
        a, b = c.hole
        for x, y in ((a, b), (b, a)):
            fan = _reference_grow(c, [x, y], 0, _accepts_fan, c.graph.n)
            assert grow_multifan(c, x) == Multifan(x, tuple(fan[1:]))
            path = _reference_grow(c, [x, y], -1, _accepts_path, 5)
            assert grow_kierstead(c, (x, y)) == KiersteadPath(tuple(path))
            grown += len(fan) + len(path) - 4
    assert grown


def _twin(shape):
    """The hand-built shape equal to a found one."""
    if isinstance(shape, Multifan):
        return Multifan(shape.center, shape.spokes)
    if isinstance(shape, KiersteadPath):
        return KiersteadPath(shape.vertices)
    return ForkLike(shape.kind, shape.roles)


def _found_shapes(c: PartialEdgeColoring) -> list:
    """(validator, shape) for every shape the finders and growers build
    on ``c`` and every public validator that reads it."""
    checks = []
    for center in c.hole:
        fan = grow_multifan(c, center)
        checks += [(validate_multifan, fan), (validate_fan_linkage, fan)]
        if c.is_elementary(fan.vertices):
            checks.append((alpha_decompose, fan))
        path = grow_kierstead(c, (center, c.hole[0] + c.hole[1] - center))
        if len(path.vertices) == 4:
            checks.append((validate_kierstead4, path))
    checks += [(validate_kierstead4, p) for p in kierstead_paths(c, 4)]
    checks += [(canonicalize_k5_path, p) for p in kierstead_paths(c, 5)]
    checks += [(validate_shortkite, s) for s in find_forklike(c, "short-kite")]
    checks += [(validate_kite, s) for s in find_forklike(c, "kite")]
    return checks


def _outcome(validate, c: PartialEdgeColoring, shape):
    try:
        result = validate(c, shape)
    except StructuralError as exc:
        return ("StructuralError", str(exc))
    if isinstance(result, CanonicalizeResult):
        return (result.status, result.detail, result.transcript)
    return result


def _row_fails(outcome) -> bool:
    """True when the outcome says a row of the shape does not hold."""
    if isinstance(outcome, Verdict):
        return outcome.status == INAPPLICABLE and outcome.detail.endswith(" fails")
    return isinstance(outcome, tuple) and outcome[0] == "StructuralError"


def _swapped_copies(c: PartialEdgeColoring) -> list[PartialEdgeColoring]:
    """One copy of ``c`` per distinct nonempty Kempe chain, swapped."""
    chains = {}
    for v in range(c.graph.n):
        for alpha in range(1, c.k + 1):
            for beta in range(alpha + 1, c.k + 1):
                chain = c.kempe_chain(v, alpha, beta)
                if chain.edges:
                    chains.setdefault((chain.colors, chain.edges), (v, alpha, beta))
    return [c.swap(*anchor) for anchor in chains.values()]


def test_found_shapes_equal_their_hand_built_twins():
    checked = 0
    for c in _sampled_hosts():
        for validate, shape in _found_shapes(c):
            twin = _twin(shape)
            assert shape == twin and hash(shape) == hash(twin)
            assert repr(shape) == repr(twin)
            assert _outcome(validate, c, shape) == _outcome(validate, c, twin)
            checked += 1
    assert checked


def test_trust_ends_at_the_coloring_a_shape_was_found_on():
    # A swapped copy is another coloring object: a found shape whose row
    # fails there gets exactly what its hand-built twin gets.
    rows_failed = {}
    for c in _sampled_hosts():
        checks = _found_shapes(c)
        for copy in _swapped_copies(c):
            for validate, shape in checks:
                expected = _outcome(validate, copy, _twin(shape))
                assert _outcome(validate, copy, shape) == expected
                if _row_fails(expected):
                    name = validate.__name__
                    rows_failed[name] = rows_failed.get(name, 0) + 1
    assert set(rows_failed) == {
        "validate_multifan",
        "validate_fan_linkage",
        "alpha_decompose",
        "validate_kierstead4",
        "canonicalize_k5_path",
        "validate_shortkite",
        "validate_kite",
    }, rows_failed


def test_find_forklike_rejects_unknown_kind():
    c = _c5_coloring()
    with pytest.raises(ValueError, match="unknown kind"):
        find_forklike(c, "spoon")


# -- sampled sweeps over genuinely critical hosts ---------------------------


def _assert_no_violations(c: PartialEdgeColoring) -> None:
    hole = c.hole
    assert hole is not None
    for center in hole:
        fan = grow_multifan(c, center=center)
        assert validate_multifan(c, fan).status == OK
        if c.is_elementary(fan.vertices):
            dec = alpha_decompose(c, fan)
            for color, holder in dec.vertex_of_color.items():
                assert color in c.missing(holder)
            spread = [y for members in dec.classes.values() for y in members]
            assert sorted(spread) == sorted(fan.spokes[1:])
            assert validate_fan_linkage(c, fan).status == OK
    for path in kierstead_paths(c, 4):
        assert validate_kierstead4(c, path).status == OK
    assert check_fork_exclusion(c).status == OK
    _assert_finder_meets_shape(c)
    for sk in find_forklike(c, "short-kite"):
        assert validate_shortkite(c, sk).status != VIOLATION
    for kt in find_forklike(c, "kite"):
        assert validate_kite(c, kt).status != VIOLATION


def test_sweep_on_critical_hosts():
    for g in (families.cycle(5), families.subdivided_complete(4)):
        for x, y in g.edges:
            assert check_val(g, x, y).status == OK
            assert check_val(g, y, x).status == OK
        for c in sample_colorings(g, 12, seed=3):
            _assert_no_violations(c)
