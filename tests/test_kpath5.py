"""Canonicalization of five-vertex alternating paths, branch by branch.

Each fixture pins one interpreter branch through its transcript labels,
so a change in the case analysis shows up as a changed transcript, not
just a changed final status.
"""

from __future__ import annotations

import random

import pytest

from chroma import (
    CANONICAL,
    DEAD_END,
    INAPPLICABLE,
    Graph,
    KiersteadPath,
    PartialEdgeColoring,
    StructuralError,
    VIOLATION,
    canonicalize_k5_path,
    families,
    is_canonical,
    kierstead_paths,
    parse_graph6,
    sample_colorings,
    validate_kierstead4,
)
from chroma import kpath5

_PATH = KiersteadPath((0, 1, 2, 3, 4))


def _fixture(
    k: int,
    assign: dict[tuple[int, int], int],
    edges: list[tuple[int, int]] | None = None,
) -> PartialEdgeColoring:
    if edges is None:
        edges = [(0, 1)] + sorted(assign)
    n = 1 + max(max(e) for e in edges)
    g = Graph(n, edges)
    return PartialEdgeColoring.from_assignment(g, k, assign, hole=(0, 1))


def _check_attached(result, path: KiersteadPath = _PATH) -> None:
    if result.coloring is not None:
        assert result.coloring.check_proper() == []
    if result.status == CANONICAL:
        assert result.coloring is not None
        assert is_canonical(result.coloring, path)


_IDENTITY = {
    (0, 5): 4, (1, 2): 1, (1, 5): 3, (1, 6): 2,
    (2, 3): 4, (2, 6): 3, (2, 7): 2, (3, 4): 3,
}


def test_identity_when_already_in_target_form():
    res = canonicalize_k5_path(_fixture(4, _IDENTITY), _PATH)
    assert res.status == CANONICAL
    assert res.detail == "already in target form"
    assert res.transcript == ()
    _check_attached(res)


def test_inapplicable_when_shared_colors_run_out():
    assign = dict(_IDENTITY)
    assign[(4, 7)] = 1
    res = canonicalize_k5_path(_fixture(4, assign), _PATH)
    assert res.status == INAPPLICABLE
    assert "shares only 2 missing colors" in res.detail
    assert res.coloring is None


def test_structural_rejections():
    c = _fixture(4, _IDENTITY)
    with pytest.raises(StructuralError, match="expected 5 vertices"):
        canonicalize_k5_path(c, KiersteadPath((0, 1, 2, 3)))
    with pytest.raises(StructuralError, match="must start with"):
        canonicalize_k5_path(c, KiersteadPath((1, 2, 3, 4, 5)))


def test_third_color_rerouted_through_u():
    assign = {
        (0, 5): 2, (0, 6): 5, (1, 2): 1, (1, 7): 3, (1, 8): 4,
        (2, 3): 4, (2, 9): 2, (2, 11): 3, (3, 4): 3, (3, 12): 5,
        (4, 9): 4, (5, 10): 3, (5, 11): 4, (6, 12): 4, (7, 10): 2,
        (8, 11): 2,
    }
    res = canonicalize_k5_path(_fixture(5, assign), _PATH)
    assert res.status == CANONICAL
    assert res.transcript[0] == "picked alpha=1, beta=2"
    assert res.transcript[1] == "third shared color tau=5"
    assert res.transcript[2].startswith("st-on-a-tau-u: (5,4)-swap at 4")
    assert res.transcript[-1] == "st-on-a: target form reached"
    _check_attached(res)


def test_third_color_held_by_b_on_chain():
    assign = {
        (0, 5): 2, (0, 6): 5, (1, 2): 1, (1, 11): 3, (1, 12): 4,
        (2, 3): 4, (2, 7): 5, (2, 15): 3, (3, 4): 3, (3, 12): 5,
        (4, 9): 4, (5, 10): 3, (5, 13): 4, (6, 7): 4, (10, 11): 2,
        (13, 12): 2,
    }
    res = canonicalize_k5_path(_fixture(5, assign), _PATH)
    assert res.status == CANONICAL
    assert res.transcript[2].startswith("st-on-a-tau-b: (5,4)-swap at 4")
    assert res.transcript[-1] == "st-on-a: target form reached"
    _check_attached(res)


def test_st_color_missed_at_u():
    assign = {
        (0, 5): 2, (0, 6): 3, (0, 7): 5, (1, 2): 1, (1, 9): 3,
        (1, 11): 4, (2, 3): 4, (2, 9): 2, (2, 12): 5, (3, 4): 3,
        (4, 8): 5, (5, 10): 4, (10, 11): 2,
    }
    res = canonicalize_k5_path(_fixture(5, assign), _PATH)
    assert res.status == CANONICAL
    assert res.transcript == (
        "picked alpha=1, beta=2",
        "st-on-u: (2,3)-swap at 4, 2 vertices",
        "st-on-u: (2,4)-swap at 0, 5 vertices",
        "st-on-u: target form reached",
    )
    _check_attached(res)


def test_st_color_missed_at_b():
    assign = {
        (0, 5): 2, (0, 6): 3, (1, 2): 1, (1, 10): 4, (1, 14): 5,
        (2, 3): 4, (2, 9): 2, (2, 13): 3, (3, 4): 3, (3, 10): 2,
        (4, 8): 4, (5, 9): 4, (6, 12): 4, (12, 10): 3,
    }
    res = canonicalize_k5_path(_fixture(5, assign), _PATH)
    assert res.status == CANONICAL
    assert res.transcript == (
        "picked alpha=1, beta=2",
        "st-on-b: (2,4)-swap at 4, 2 vertices",
        "st-on-b: (4,3)-swap at 0, 5 vertices",
        "st-on-b: target form reached",
    )
    _check_attached(res)


def test_third_color_on_a_short_chain():
    assign = {
        (0, 5): 2, (1, 2): 1, (1, 7): 5, (1, 8): 3, (1, 9): 4,
        (2, 3): 4, (2, 6): 2, (2, 10): 3, (2, 11): 5, (3, 4): 3,
        (3, 9): 2, (4, 10): 4, (5, 6): 4, (5, 7): 3, (6, 9): 3,
        (7, 8): 2,
    }
    res = canonicalize_k5_path(_fixture(5, assign), _PATH)
    assert res.status == CANONICAL
    swaps = [ln for ln in res.transcript if ln.startswith("tau-on-a-short: (")]
    assert len(swaps) == 4
    assert res.transcript[-1] == "tau-on-a-short: target form reached"
    _check_attached(res)


def test_third_color_on_a_long_chain():
    assign = {
        (0, 5): 2, (1, 2): 1, (1, 7): 4, (1, 10): 3, (1, 13): 5,
        (2, 3): 4, (2, 8): 2, (2, 11): 3, (2, 16): 5, (3, 4): 3,
        (3, 5): 1, (4, 8): 4, (5, 6): 4, (5, 9): 3, (5, 12): 5,
        (6, 7): 2, (6, 14): 3, (7, 15): 3, (9, 10): 4, (9, 16): 2,
        (10, 17): 2, (12, 13): 3, (14, 15): 2, (16, 17): 4,
    }
    res = canonicalize_k5_path(_fixture(5, assign), _PATH)
    assert res.status == CANONICAL
    swaps = [ln for ln in res.transcript if ln.startswith("tau-on-a-long: (")]
    assert len(swaps) == 8
    assert res.transcript[-1] == "tau-on-a-long: target form reached"
    _check_attached(res)


_HOST_C = [(0, 1), (0, 5), (1, 2), (1, 5), (2, 3), (2, 6), (2, 7), (3, 4)]


_SHIFTED = {
    (0, 5): 1, (1, 2): 4, (1, 5): 3, (2, 3): 2, (2, 6): 3,
    (2, 7): 1, (3, 4): 1,
}


def test_shifted_path_dead_end_reported_inside_degree_violation():
    res = canonicalize_k5_path(_fixture(4, _SHIFTED, _HOST_C), _PATH)
    assert res.status == VIOLATION
    assert "interior degrees d(b)=3, d(u)=4 must both equal 4" in res.detail
    assert "rewrite outcome: dead-end" in res.detail
    assert "shifts the path to (b,u,s,t)" in res.detail
    assert "near-elementarity check returns violation" in res.detail
    assert res.coloring is None
    assert "alpha renamed to 4" in res.transcript


def test_shifted_path_colors_ab_and_opens_bu(monkeypatch):
    # Both bu-normalize swaps at t meet a one-vertex chain, so the shift
    # starts from the input with alpha = 4: rebuild its result by hand.
    seen = []

    def capture(c, path):
        seen.append((c, path))
        return validate_kierstead4(c, path)

    monkeypatch.setattr(kpath5, "validate_kierstead4", capture)
    res = canonicalize_k5_path(_fixture(4, _SHIFTED, _HOST_C), _PATH)
    assert "shifts the path to (b,u,s,t)" in res.detail
    [(shifted, path)] = seen
    assign = {e: color for e, color in _SHIFTED.items() if e != (1, 2)}
    assign[(0, 1)] = 4
    g = Graph(8, _HOST_C)
    rebuilt = PartialEdgeColoring.from_assignment(g, 4, assign, hole=(1, 2))
    assert path.vertices == (1, 2, 3, 4)
    assert shifted.hole == rebuilt.hole == (1, 2)
    assert dict(shifted.edge_items()) == dict(rebuilt.edge_items())
    assert [shifted.missing_mask(v) for v in range(g.n)] == [
        rebuilt.missing_mask(v) for v in range(g.n)
    ]
    assert shifted.check_proper() == []


def test_degree_violation_with_successful_rewrite_attached():
    assign = {
        (0, 5): 1, (1, 2): 2, (1, 5): 4, (2, 3): 4, (2, 6): 3,
        (2, 7): 1, (3, 4): 3,
    }
    res = canonicalize_k5_path(_fixture(4, assign, _HOST_C), _PATH)
    assert res.status == VIOLATION
    assert "the rewrite itself still reached the target form" in res.detail
    assert any(ln.startswith("st-on-b-offchain:") for ln in res.transcript)
    assert res.coloring is not None
    assert is_canonical(res.coloring, _PATH)
    assert res.coloring.check_proper() == []


def test_normalized_colors_then_route_through_u():
    assign = {
        (0, 5): 1, (1, 2): 3, (1, 5): 4, (2, 3): 2, (2, 6): 4,
        (2, 7): 1, (3, 4): 3,
    }
    res = canonicalize_k5_path(_fixture(4, assign, _HOST_C), _PATH)
    assert res.status == VIOLATION
    assert "alpha renamed to 3" in res.transcript
    assert res.transcript[-1] == "us-route: target form reached"
    assert res.coloring is not None
    assert is_canonical(res.coloring, _PATH)


_HOST_D2 = [
    (0, 1), (0, 5), (1, 2), (1, 5), (1, 6), (1, 7), (2, 3), (2, 6),
    (2, 7), (3, 4), (4, 8), (5, 8), (6, 8), (5, 7),
]


def test_far_branch_reenters_after_failed_claim():
    assign = {
        (0, 5): 3, (1, 2): 5, (1, 5): 4, (1, 6): 2, (1, 7): 3,
        (2, 3): 1, (2, 6): 4, (2, 7): 2, (3, 4): 3, (4, 8): 1,
        (5, 7): 1, (5, 8): 2,
    }
    assign[(6, 8)] = 3
    res = canonicalize_k5_path(_fixture(5, assign, _HOST_D2), _PATH)
    assert res.status == VIOLATION
    assert "guard failed: bu carries alpha" in res.detail
    assert res.transcript[0] == "split: (2,1)-swap at 1, 2 vertices"
    far = [ln for ln in res.transcript if ln.startswith("st-on-u-far: (")]
    assert len(far) == 3
    assert res.transcript[-1] == (
        "st-on-u-far: claimed final state fails validation, re-entering"
    )
    assert res.coloring is None


_HOST_B2 = [
    (0, 1), (0, 5), (1, 2), (1, 5), (1, 6), (1, 7), (2, 3), (2, 6),
    (2, 7), (2, 8), (3, 4), (4, 8), (3, 5), (3, 6), (5, 7), (6, 8),
]


def test_split_then_normalize_then_route():
    assign = {
        (0, 5): 4, (1, 2): 3, (1, 5): 2, (1, 6): 5, (1, 7): 1,
        (2, 3): 2, (2, 6): 1, (2, 7): 4, (2, 8): 5, (3, 4): 3,
        (3, 5): 5, (3, 6): 4, (4, 8): 4, (5, 7): 3, (6, 8): 2,
    }
    res = canonicalize_k5_path(_fixture(5, assign, _HOST_B2), _PATH)
    assert res.status == CANONICAL
    assert res.transcript[0].startswith("split: (1,4)-swap at 1")
    assert any(ln.startswith("bu-normalize:") for ln in res.transcript)
    assert res.transcript[-1] == "us-route: target form reached"
    _check_attached(res)


# A greedy 7-coloring of a host whose hole (4, 7) is not critical.
_HARD_ROUTE_HOST = {
    "k": 7,
    "uncolored": [4, 7],
    "edges": [
        [0, 1, 3], [0, 3, 1], [0, 5, 6], [0, 6, 2], [1, 2, 4], [1, 4, 2],
        [1, 6, 1], [2, 4, 6], [2, 7, 1], [2, 8, 3], [3, 5, 5], [3, 6, 3],
        [3, 7, 4], [3, 8, 2], [4, 5, 3], [4, 6, 5], [4, 7, 0], [4, 8, 1],
        [5, 6, 4], [5, 8, 7], [6, 7, 7], [6, 8, 6],
    ],
}


def test_hard_us_route_without_invariant_is_a_dead_end():
    # The three hard-route swaps leave bu with color 2 while alpha is 7
    # and a still sees 7, so ab cannot take alpha; the shifted-path
    # derivation must report that instead of raising.
    c = PartialEdgeColoring.from_json_obj(parse_graph6("HkY]xs}"), _HARD_ROUTE_HOST)
    res = canonicalize_k5_path(c, KiersteadPath((4, 7, 6, 0, 1)))
    assert res.status == VIOLATION
    assert "rewrite outcome: dead-end (guard failed: bu carries alpha" in res.detail
    assert res.transcript[0] == "picked alpha=7, beta=5"
    hard = [ln for ln in res.transcript if ln.startswith("us-route-hard: (")]
    assert len(hard) == 3
    assert res.coloring is None


def _random_greedy_coloring(rng: random.Random) -> PartialEdgeColoring:
    """A greedy coloring of G(n, 1/2) minus a random hole, with Delta to
    Delta + 2 colors; restarts when an edge finds no free color."""
    while True:
        n = rng.randint(6, 10)
        edges = [
            (u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5
        ]
        if not edges:
            continue
        g = Graph(n, edges)
        k = g.max_degree + rng.randint(0, 2)
        hole = rng.choice(g.edges)
        rest = [e for e in g.edges if e != hole]
        rng.shuffle(rest)
        used = [0] * n
        assign = {}
        for u, v in rest:
            free = [x for x in range(1, k + 1) if not (used[u] | used[v]) >> x & 1]
            if not free:
                break
            color = rng.choice(free)
            used[u] |= 1 << color
            used[v] |= 1 << color
            assign[(u, v)] = color
        else:
            return PartialEdgeColoring.from_assignment(g, k, assign, hole=hole)


def test_random_greedy_hosts_never_raise():
    # Hosts whose hole need not be critical: every path gets a status,
    # whichever branch the interpreter takes.
    rng = random.Random(1)
    statuses = set()
    for _ in range(150):
        c = _random_greedy_coloring(rng)
        for path in kierstead_paths(c, 5):
            res = canonicalize_k5_path(c, path)
            statuses.add(res.status)
            _check_attached(res, path)
    assert statuses == {CANONICAL, INAPPLICABLE, VIOLATION, DEAD_END}


def test_sampled_critical_hosts_never_violate():
    # On these hosts every edge is critical, so the rewrite may apply or
    # not, but it must never surface a violation or dead-end.
    for g in (families.cycle(5), families.cycle(7),
              families.subdivided_complete(4)):
        for c in sample_colorings(g, 10, seed=9):
            for path in kierstead_paths(c, 5):
                res = canonicalize_k5_path(c, path)
                assert res.status in (CANONICAL, INAPPLICABLE)
                assert res.status != DEAD_END
                _check_attached(res)
