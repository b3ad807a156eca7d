"""Overfullness, the degree condition, parity accounting, and witnesses."""

from __future__ import annotations

from fractions import Fraction

import pytest

import chroma.overfull
from chroma import (
    COUNTEREXAMPLE,
    Graph,
    HOLDS,
    INAPPLICABLE,
    OK,
    OracleTimeout,
    PartialEdgeColoring,
    UNDECIDED,
    VIOLATION,
    chromatic_index,
    degree_condition,
    families,
    is_overfull,
    parity_check,
    to_graph6,
    verify_overfull_implication,
)


def test_is_overfull_hand_values():
    for g, overfull, excess in [
        (families.complete(3), True, 1),
        (families.complete(4), False, 0),
        (families.complete(5), True, 2),
        (families.cycle(5), True, 1),
        (families.cycle(4), False, 0),
        (families.petersen(), False, 0),
        (families.petersen_minus_vertex(), False, 0),
        (families.subdivided_complete(4), True, 1),
        (families.subdivided_complete(6), True, 1),
    ]:
        verdict = is_overfull(g)
        assert verdict.is_overfull is overfull
        assert verdict.excess == excess
        assert bool(verdict) is overfull
    with pytest.raises(ValueError, match="empty graph"):
        is_overfull(Graph(0))


def test_degree_condition_exact_margins():
    ok, margin = degree_condition(families.subdivided_complete(4))
    assert ok is True
    assert margin == Fraction(0)
    ok, margin = degree_condition(families.subdivided_complete(6))
    assert ok is True
    assert margin == Fraction(1, 2)
    ok, margin = degree_condition(families.complete(5))
    assert ok is False
    assert margin == Fraction(-5, 2)
    ok, margin = degree_condition(families.cycle(5))
    assert ok is False
    assert margin == Fraction(-1)
    ok, margin = degree_condition(families.petersen_minus_vertex())
    assert ok is False
    assert margin == Fraction(-3)
    assert isinstance(margin, Fraction)
    # A hub joined to a path on the other 29 vertices: n = 30, max degree
    # 29, min degree 2.
    hub = [(0, v) for v in range(1, 30)] + [(v, v + 1) for v in range(1, 29)]
    assert degree_condition(Graph(30, hub)) == (True, Fraction(29, 4))
    # A star K1,5 with a 4-edge tail: n = 10, max degree 5 and min degree
    # 1 sit exactly on the boundary, 5 - 7/4 == 13/4.
    boundary = Graph(
        10, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (5, 6), (6, 7), (7, 8), (8, 9)]
    )
    assert degree_condition(boundary) == (True, Fraction(0))


def test_verify_implication_verdicts():
    holds = verify_overfull_implication(families.subdivided_complete(4))
    assert holds.status == HOLDS
    assert bool(holds)
    assert "excess 1, margin 0" in holds.detail

    margin_half = verify_overfull_implication(families.subdivided_complete(6))
    assert margin_half.status == HOLDS

    fails_condition = verify_overfull_implication(families.complete(5))
    assert fails_condition.status == INAPPLICABLE
    assert "margin -5/2" in fails_condition.detail

    class1 = verify_overfull_implication(Graph(23, [(0, v) for v in range(1, 23)]))
    assert class1.status == INAPPLICABLE
    assert class1.detail == "graph is not edge-critical"
    assert not class1


def test_verify_implication_counterexample_with_injected_certificate():
    # A star satisfies the degree condition but is class 1; forcing the
    # criticality certificate shows the counterexample reporting path.
    star = Graph(23, [(0, v) for v in range(1, 23)])
    verdict = verify_overfull_implication(star, critical=True)
    assert verdict.status == COUNTEREXAMPLE
    assert to_graph6(star) in verdict.detail


def test_verify_implication_undecided_on_oracle_expiry(monkeypatch):
    def exhausted(g, *, chi=None, timeout_ms=None):
        raise OracleTimeout("search exceeded budget after 1 nodes")

    monkeypatch.setattr(
        chroma.overfull.oracle, "is_delta_critical", exhausted
    )
    star = Graph(23, [(0, v) for v in range(1, 23)])
    verdict = verify_overfull_implication(star)
    assert verdict.status == UNDECIDED
    assert "criticality undecided" in verdict.detail


def test_parity_check_on_hand_colorings():
    k4 = families.complete(4)
    perfect = PartialEdgeColoring.from_assignment(
        k4,
        3,
        {(0, 1): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2, (0, 3): 3, (1, 2): 3},
    )
    assert parity_check(perfect).status == OK
    c5 = PartialEdgeColoring.from_assignment(
        families.cycle(5),
        3,
        {(0, 1): 1, (2, 3): 1, (1, 2): 2, (3, 4): 2, (0, 4): 3},
    )
    # Missing counts are 1, 1, 3: all odd, matching n = 5.
    assert parity_check(c5).status == OK


def test_parity_check_on_oracle_witnesses():
    for g in (families.complete(4), families.cycle(5), families.petersen()):
        assert parity_check(chromatic_index(g).witness).status == OK


def test_parity_check_rejects_partial_colorings():
    holey = PartialEdgeColoring.from_assignment(
        families.cycle(5),
        3,
        {(1, 2): 1, (2, 3): 2, (3, 4): 1, (0, 4): 2},
        hole=(0, 1),
    )
    with pytest.raises(ValueError, match="every edge colored"):
        parity_check(holey)
    half = PartialEdgeColoring.from_assignment(
        families.cycle(5), 3, {(1, 2): 1}
    )
    with pytest.raises(ValueError, match="every edge colored"):
        parity_check(half)


def test_parity_check_trips_on_corrupted_bookkeeping():
    k4 = families.complete(4)
    c = PartialEdgeColoring.from_assignment(
        k4,
        3,
        {(0, 1): 1, (2, 3): 1, (0, 2): 2, (1, 3): 2, (0, 3): 3, (1, 2): 3},
    )
    c._present[0] ^= 1 << 1
    verdict = parity_check(c)
    assert verdict.status == VIOLATION
    assert "color 1" in verdict.detail


def test_overfull_implies_class_two_and_odd_order():
    for _, g in families.basic_fixtures():
        verdict = is_overfull(g)
        if verdict.is_overfull:
            assert g.n % 2 == 1
            assert chromatic_index(g).classification == "class2"
