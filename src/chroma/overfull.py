"""Overfullness arithmetic, parity accounting, and overfull-subgraph search.

A graph with more edges than ``max_degree * floor(n/2)`` cannot split its
edges into ``max_degree`` matchings, so it is class 2 outright.  This
module computes that excess, evaluates the degree condition under which
an edge-critical graph is forced to be overfull, checks the parity
constraint every full coloring imposes on missing-color counts, and
searches small hosts for overfull subgraphs of the same maximum degree.

Every threshold comparison here runs in exact rational arithmetic.  One
fixture of interest sits exactly on the degree-condition boundary
(margin zero), which is precisely the tie floating point gets wrong.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import oracle
from .coloring import PartialEdgeColoring
from .fans import INAPPLICABLE, OK, VIOLATION, Verdict
from .graph import Graph, to_graph6

__all__ = [
    "HOLDS",
    "COUNTEREXAMPLE",
    "UNDECIDED",
    "OverfullVerdict",
    "ImplicationVerdict",
    "SubgraphWitness",
    "is_overfull",
    "degree_condition",
    "eps_degree_condition",
    "verify_overfull_implication",
    "parity_check",
    "find_overfull_subgraph",
]

HOLDS = "holds"
COUNTEREXAMPLE = "counterexample"
UNDECIDED = "undecided"

_SUBSET_BUDGET = 24


@dataclass(frozen=True)
class OverfullVerdict:
    """Edge-count excess over the matching bound, plus the degree condition.

    ``excess`` is |E| - max_degree * floor(n/2); any positive value makes
    the graph overfull and therefore class 2.  ``hypothesis`` records the
    exact comparison max_degree - 7*min_degree/4 >= (3n - 17)/4 together
    with its rational margin; on edge-critical graphs that condition
    forces overfullness.
    """

    is_overfull: bool
    excess: int
    hypothesis: bool
    hypothesis_margin: Fraction

    def __bool__(self) -> bool:
        return self.is_overfull


@dataclass(frozen=True)
class ImplicationVerdict:
    """Outcome of one critical-implies-overfull check."""

    status: str
    detail: str = ""

    def __bool__(self) -> bool:
        return self.status == HOLDS


@dataclass(frozen=True)
class SubgraphWitness:
    """An induced subgraph certifying an overfull obstruction.

    ``vertices`` are host labels in increasing order; ``graph`` is the
    induced subgraph relabeled to 0..len(vertices)-1 in that order.
    """

    vertices: tuple[int, ...]
    graph: Graph
    excess: int


def degree_condition(g: Graph) -> tuple[bool, Fraction]:
    """Exact evaluation of max_degree - 7*min_degree/4 >= (3n - 17)/4.

    Returns the truth value together with the margin (left side minus
    right side), so boundary cases stay visible to callers.
    """
    margin = (
        Fraction(g.max_degree)
        - Fraction(7 * g.min_degree, 4)
        - Fraction(3 * g.n - 17, 4)
    )
    return margin >= 0, margin


def is_overfull(g: Graph) -> OverfullVerdict:
    """Compare the edge count against max_degree * floor(n/2).

    Each color class of a proper edge coloring is a matching with at most
    floor(n/2) edges, so a graph over that line needs max_degree + 1
    colors.  No coloring is consulted; this is pure counting.
    """
    if g.n == 0:
        raise ValueError("overfullness undefined for the empty graph")
    excess = g.m - g.max_degree * (g.n // 2)
    hypothesis, margin = degree_condition(g)
    return OverfullVerdict(excess >= 1, excess, hypothesis, margin)


def eps_degree_condition(g: Graph, eps: Fraction | int | str) -> bool:
    """Parameterized degree condition: min_degree <= eps*n and
    max_degree >= (3n - 17 + 7*eps*n)/4, in exact rationals.

    ``eps`` must lie strictly between 0 and 1/7; inside that window the
    two inequalities together imply :func:`degree_condition`.  Pass a
    Fraction or a string like "1/10".  A float raises TypeError: it would
    smuggle binary rounding (``Fraction(0.1)`` > 1/10) into an exact test.
    """
    if isinstance(eps, float):
        raise TypeError(f"eps must be a Fraction, int or string, not float {eps!r}")
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 7):
        raise ValueError(f"eps must lie strictly between 0 and 1/7, got {eps}")
    n = g.n
    return (
        Fraction(g.min_degree) <= eps * n
        and Fraction(g.max_degree) >= (Fraction(3 * n - 17) + 7 * eps * n) / 4
    )


def verify_overfull_implication(
    g: Graph,
    *,
    chi: oracle.ChiResult | None = None,
    critical: bool | None = None,
    timeout_ms: int | None = oracle.DEFAULT_TIMEOUT_MS,
) -> ImplicationVerdict:
    """One instance of: edge-critical graphs meeting the degree condition
    are overfull.

    Inapplicable unless the graph passes :func:`degree_condition` and is
    certified critical (connected, class 2, every edge critical).  Both
    certificates can be injected via ``chi`` and ``critical`` to reuse
    oracle work.  A critical graph that meets the condition without being
    overfull would refute the implication; such a counterexample verdict
    carries the graph6 encoding.  Oracle expiry during certification is
    reported as undecided, never guessed either way.
    """
    hypothesis, margin = degree_condition(g)
    if not hypothesis:
        return ImplicationVerdict(
            INAPPLICABLE, f"degree condition fails with margin {margin}"
        )
    if critical is None:
        try:
            critical = oracle.is_delta_critical(g, chi=chi, timeout_ms=timeout_ms)
        except oracle.OracleTimeout as exc:
            return ImplicationVerdict(UNDECIDED, f"criticality undecided: {exc}")
    if not critical:
        return ImplicationVerdict(INAPPLICABLE, "graph is not edge-critical")
    verdict = is_overfull(g)
    if verdict.is_overfull:
        return ImplicationVerdict(
            HOLDS, f"overfull with excess {verdict.excess}, margin {margin}"
        )
    return ImplicationVerdict(
        COUNTEREXAMPLE,
        f"critical with margin {margin} but excess {verdict.excess}: "
        f"{to_graph6(g)}",
    )


def parity_check(c: PartialEdgeColoring) -> Verdict:
    """Each color's missing-vertex count must have the parity of n.

    In a full coloring, color alpha appears at exactly two vertices per
    alpha edge, so the number of vertices NOT seeing alpha is n minus an
    even number.  The check consumes the coloring's own missing-set
    bookkeeping, which is what makes it a useful tripwire for corrupted
    state.  Raises ValueError when any edge is uncolored; partial
    colorings obey no such constraint.
    """
    g = c.graph
    if c.hole is not None or c.colored_count != g.m:
        raise ValueError("parity accounting needs every edge colored")
    n = g.n
    for color in range(1, c.k + 1):
        count = sum(1 for v in range(n) if c.missing_mask(v) >> color & 1)
        if count % 2 != n % 2:
            return Verdict(
                VIOLATION,
                f"color {color} missing at {count} vertices, "
                f"which is not congruent to n={n} mod 2",
            )
    return Verdict(OK)


def find_overfull_subgraph(g: Graph) -> SubgraphWitness | None:
    """First induced subgraph that is overfull at the host's max degree.

    Induced subgraphs suffice: on a fixed vertex set, dropping edges can
    only lower the count past the excess threshold, and the induced
    degrees already top out at the host maximum.  Only odd orders can
    qualify, since an even-order graph has at most max_degree * n/2
    edges, and the subset must retain a maximum-degree vertex with all
    its neighbors.  Subsets are scanned largest first, lexicographically
    within a size, and the first hit wins.  Raises ValueError above
    24 vertices, where the subset space stops being enumerable.
    """
    n = g.n
    if n > _SUBSET_BUDGET:
        raise ValueError(f"subset search budgeted for n <= {_SUBSET_BUDGET}, got {n}")
    delta = g.max_degree
    top_mask = 0
    for v in range(n):
        if g.degree(v) == delta:
            top_mask |= 1 << v
    size = n if n % 2 else n - 1
    while size >= 3:
        for subset in combinations(range(n), size):
            smask = 0
            for v in subset:
                smask |= 1 << v
            if not smask & top_mask:
                continue
            inner = [(g.adjacency_mask(v) & smask).bit_count() for v in subset]
            if max(inner) != delta:
                continue
            excess = sum(inner) // 2 - delta * (size // 2)
            if excess >= 1:
                relabel = {v: i for i, v in enumerate(subset)}
                edges = [
                    (relabel[u], relabel[v])
                    for u, v in g.edges
                    if u in relabel and v in relabel
                ]
                return SubgraphWitness(subset, Graph(size, edges), excess)
        size -= 2
    return None
