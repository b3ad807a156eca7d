"""Exact chromatic-index decisions, criticality certification, and sampling.

Everything here is brute force on purpose: a backtracking search over edge
colorings is the ground truth that the structure validators are measured
against, so it must not borrow results from the theory it checks.  There
is one search, and it draws no random numbers.  Edges are colored in
decreasing endpoint-degree-sum order, ties by vertex label; without
presets the colors of one maximum-degree vertex's edges are fixed up
front to break color symmetry.  The one counting argument used is the
one behind ``is_overfull``: each color class is a matching, so a search
whose edges outnumber the matching capacity left after those pins fails
before it branches.  The search returns a plain edge-to-color dict.
Certifying one edge critical keeps only whether one exists.  Certifying
a whole graph reuses each coloring it finds: moving the hole from one
edge to another recolors a single edge and certifies the other edge with
no search, so only edges that no move reaches are searched.  Each caller
that hands out a coloring builds exactly one, on the graph it holds.
The sampler varies its restarts by renaming the vertices before a
search.  Searches carry a wall-clock budget and report expiry as
:class:`OracleTimeout`, never as a class-1/class-2 answer.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import reduce
from operator import xor
from typing import Iterator

from .coloring import PartialEdgeColoring
from .graph import Graph, _bits, _normalize_edge

__all__ = [
    "ChiResult",
    "OracleTimeout",
    "UncolorableError",
    "chromatic_index",
    "decide_colorable",
    "complete_coloring",
    "is_critical_edge",
    "is_delta_critical",
    "sample_colorings",
    "DEFAULT_TIMEOUT_MS",
    "SAMPLER",
]

DEFAULT_TIMEOUT_MS = 10_000

_CHECK_INTERVAL = 4096

# The sampler's Kempe walk: whole-component swaps per sample, and samples
# between restarts from the search of a randomly relabelled graph.  SAMPLER
# names them in census metadata, so a report says which sample stream it
# was built on.
_WALK_SWAPS = 3
_WALK_RESTART = 10
SAMPLER = f"kempe-walk-relabel-r{_WALK_RESTART}-s{_WALK_SWAPS}"


class OracleTimeout(Exception):
    """A chromatic-index decision exceeded its wall-clock budget."""


class UncolorableError(Exception):
    """No proper coloring exists for the requested palette."""


@dataclass(frozen=True)
class ChiResult:
    """Outcome of a chromatic-index computation with a witness coloring."""

    chi_prime: int
    classification: str  # "class1" or "class2"
    witness: PartialEdgeColoring


def _edge_of(g: Graph, e: tuple[int, int]) -> tuple[int, int]:
    """The key of ``e`` in either orientation; ValueError if not an edge."""
    u, v = e
    if not g.has_edge(u, v):
        raise ValueError(f"edge {e} not in graph")
    return _normalize_edge(u, v)


def _check_budget(timeout_ms: int | None) -> None:
    if timeout_ms is not None and timeout_ms <= 0:
        raise ValueError(f"timeout must be positive, got {timeout_ms}")


def _search(
    g: Graph,
    k: int,
    preset: dict[tuple[int, int], int] | None,
    timeout_ms: int | None,
) -> dict[tuple[int, int], int] | None:
    """A proper k-edge-coloring of g as an edge-to-color dict, else None.

    The dict holds every edge of g.  Callers that hand out a coloring
    build one :class:`PartialEdgeColoring` from it on the graph they
    hold; a yes/no caller builds none.

    ``preset`` pins edge colors before the search.  Without one, or with
    an empty one, the search breaks color symmetry by pinning the colors
    at a max-degree vertex; a preset that colors any edge makes the
    colors no longer interchangeable.  The search is deterministic: the
    same graph, palette and presets always give the same coloring.
    Raises OracleTimeout when ``timeout_ms`` (None for no budget) runs
    out.
    """
    _check_budget(timeout_ms)
    deadline = None if timeout_ms is None else time.monotonic() + timeout_ms / 1000
    full = ((1 << k) - 1) << 1
    degs = g.degrees
    avail = [full] * g.n
    assignment: dict[tuple[int, int], int] = {}

    def pin(u: int, v: int, color: int) -> bool:
        bit = 1 << color
        if not (avail[u] & bit and avail[v] & bit):
            return False
        avail[u] &= ~bit
        avail[v] &= ~bit
        assignment[(u, v)] = color
        return True

    if preset:
        for (u, v), color in sorted(preset.items()):
            if not 1 <= color <= k:
                raise ValueError(f"preset color {color} outside 1..{k}")
            if not pin(*_normalize_edge(u, v), color):
                return None
    else:
        # Any proper coloring can be renamed so one max-degree vertex sees
        # colors 1..d in neighbor order, so pinning them loses nothing.
        vstar = max(range(g.n), key=lambda v: (degs[v], -v))
        color = 0
        for w in g.neighbors(vstar):
            color += 1
            if color > k or not pin(*_normalize_edge(vstar, w), color):
                return None

    todo = [e for e in g.edges if e not in assignment]
    todo.sort(key=lambda e: (-(degs[e[0]] + degs[e[1]]), e))
    # Each color class is a matching, so color c covers at most floor(f/2)
    # more edges, f being the vertices still free for c.  Summed over the
    # colors that is (free slots - colors with odd f) / 2, and the colors
    # with odd f are the bits set in the XOR of all free masks.
    free = sum(a.bit_count() for a in avail)
    if 2 * len(todo) > free - reduce(xor, avail, 0).bit_count():
        return None

    nodes = 0
    last = len(todo)

    def rec(i: int) -> bool:
        nonlocal nodes
        nodes += 1
        if deadline is not None and nodes % _CHECK_INTERVAL == 0:
            if time.monotonic() > deadline:
                raise OracleTimeout(f"search exceeded budget after {nodes} nodes")
        if i == last:
            return True
        u, v = todo[i]
        cand = avail[u] & avail[v]
        while cand:
            bit = cand & -cand
            cand ^= bit
            avail[u] &= ~bit
            avail[v] &= ~bit
            if rec(i + 1):
                assignment[(u, v)] = bit.bit_length() - 1
                return True
            avail[u] |= bit
            avail[v] |= bit
        return False

    return assignment if rec(0) else None


def decide_colorable(
    g: Graph, k: int, *, timeout_ms: int | None = DEFAULT_TIMEOUT_MS
) -> PartialEdgeColoring | None:
    """A proper k-edge-coloring of g, or None if impossible."""
    found = _search(g, k, None, timeout_ms)
    return None if found is None else PartialEdgeColoring.from_assignment(g, k, found)


def chromatic_index(
    g: Graph, *, timeout_ms: int | None = DEFAULT_TIMEOUT_MS
) -> ChiResult:
    """Decide the chromatic index exactly.

    The index of a simple graph is either the maximum degree or one more,
    so a single colorability decision at the maximum degree settles the
    class; the failure branch always completes since one extra color
    suffices.  Each of the at most two decisions gets its own budget.

    Raises ValueError for edgeless graphs and OracleTimeout on expiry.
    """
    if g.m == 0:
        raise ValueError("chromatic index undefined for an edgeless graph")
    delta = g.max_degree
    witness = decide_colorable(g, delta, timeout_ms=timeout_ms)
    if witness is not None:
        return ChiResult(delta, "class1", witness)
    witness = decide_colorable(g, delta + 1, timeout_ms=timeout_ms)
    if witness is None:
        raise AssertionError("one color above max degree must always suffice")
    return ChiResult(delta + 1, "class2", witness)


def _certificate(g: Graph, e: tuple[int, int], timeout_ms: int | None) -> bool:
    """True when the graph g minus ``e`` has a max-degree coloring.

    This plain deterministic search certifies ``e`` critical and builds
    no coloring: only its answer is kept.  It runs on the smaller graph:
    a search of g with ``e`` as a hole differs in edge order and symmetry
    pin, and on subdivided K10 such searches took 51.2 s against about
    3 s for one of these per edge (2-vCPU VM, Python 3.11).  The
    sampler's walk on ``e`` starts from the coloring the same search
    finds (``_walk_start`` under the identity labelling), so the two
    always agree.  :func:`is_delta_critical` certifies most edges by a
    moved coloring instead; the walk on such an edge runs a search that
    certification never ran, and it succeeds because the search is
    exhaustive and a coloring exists.
    """
    return _search(g.without_edge(*e), g.max_degree, None, timeout_ms) is not None


def is_critical_edge(
    g: Graph,
    e: tuple[int, int],
    *,
    chi: ChiResult | None = None,
    timeout_ms: int | None = DEFAULT_TIMEOUT_MS,
) -> bool:
    """True when removing ``e`` drops the chromatic index to the max degree.

    Only class-2 graphs have critical edges in this sense; for class-1
    hosts the answer is False without a deletion search.  A precomputed
    ``chi`` for g is reused when given.
    """
    e = _edge_of(g, e)
    if chi is None:
        chi = chromatic_index(g, timeout_ms=timeout_ms)
    if chi.classification != "class2":
        return False
    return _certificate(g, e, timeout_ms)


def _hole_moves(
    g: Graph,
    e: tuple[int, int],
    colors: dict[tuple[int, int], int],
    certified: set[tuple[int, int]],
) -> Iterator[tuple[tuple[int, int], dict[tuple[int, int], int]]]:
    """Pairs (f, moved): from ``colors``, a max-degree coloring of g minus
    ``e`` as ``_search`` returns it, each coloring of g minus f that
    moving the hole to an edge f outside ``certified`` makes.

    For e = xy and each color c missing at y, f is the c-edge at x.
    Uncoloring f frees c at x, and c was already missing at y, so e can
    take c, and the result is a proper coloring of g minus f.  Both
    orientations of e are tried, colors in increasing order, and
    ``certified`` is read at each step, so an edge the caller adds to it
    meanwhile is skipped.  Each ``moved`` is a fresh dict.
    """
    for x, y in (e, e[::-1]):
        at_x = {colors[_normalize_edge(x, w)]: w for w in g.neighbors(x) if w != y}
        for w in g.neighbors(y):
            if w != x:
                at_x.pop(colors[_normalize_edge(y, w)], None)
        for c, w in sorted(at_x.items()):
            f = _normalize_edge(x, w)
            if f not in certified:
                moved = dict(colors)
                del moved[f]
                moved[e] = c
                yield f, moved


def is_delta_critical(
    g: Graph,
    *,
    chi: ChiResult | None = None,
    timeout_ms: int | None = DEFAULT_TIMEOUT_MS,
) -> bool:
    """True when g is connected, class 2, and every edge is critical.

    Each coloring found is reused: moves (:func:`_hole_moves`) run
    depth-first from it and certify other edges with no search.  Only an
    edge that no move reaches gets the plain search of g minus that edge,
    in edge order, and the first one with no coloring ends the loop, at
    the same edge as one search per edge would.  True rests on a coloring
    of each g minus e, False on an exhaustive search.
    """
    if g.m == 0 or not g.is_connected():
        return False
    if chi is None:
        chi = chromatic_index(g, timeout_ms=timeout_ms)
    if chi.classification != "class2":
        return False
    delta = g.max_degree
    certified: set[tuple[int, int]] = set()
    for e in g.edges:
        if e in certified:
            continue
        found = _search(g.without_edge(*e), delta, None, timeout_ms)
        if found is None:
            return False
        certified.add(e)
        stack = [(e, found)]
        while stack:
            for f, moved in _hole_moves(g, *stack.pop(), certified):
                certified.add(f)
                stack.append((f, moved))
    return True


def _sample_rng(seed: int, index: int) -> random.Random:
    # Plain integer mixing; avoids hash() so streams are interpreter-stable.
    return random.Random((seed & 0xFFFFFFFFFFFFFFFF) * 1_000_003 + index)


def _walk_start(
    g: Graph, hole: tuple[int, int], label: list[int], timeout_ms: int | None
) -> PartialEdgeColoring:
    """The plain search of g minus ``hole`` with each vertex v renamed
    ``label[v]``, as a coloring of g with that hole.

    Renaming keeps the search's shape (symmetry pin, dense-first edge
    order) and changes only how its ties break, so a random ``label``
    reaches another coloring at the cost of a certificate search.  The
    identity ``label`` gives the certificate itself.  The search's
    assignment is read back through ``label`` into one coloring of g
    with the hole.
    """
    renamed = Graph(g.n, ((label[u], label[v]) for u, v in g.edges if (u, v) != hole))
    found = _search(renamed, g.max_degree, None, timeout_ms)
    if found is None:
        raise UncolorableError(
            f"no max-degree coloring of the graph minus {hole} exists"
        )
    colors = {
        e: found[_normalize_edge(label[e[0]], label[e[1]])] for e in g.edges if e != hole
    }
    return PartialEdgeColoring.from_assignment(g, g.max_degree, colors, hole=hole)


def _kempe_step(c: PartialEdgeColoring, rng: random.Random) -> None:
    """Exchange one random whole two-colored component of ``c`` in place:
    an anchor vertex, a color alpha at it, any other color beta."""
    v = rng.randrange(c.graph.n)
    present = _bits(c.present_mask(v))
    if not present or c.k < 2:
        return
    alpha = rng.choice(present)
    beta = rng.randrange(1, c.k)
    if beta >= alpha:
        beta += 1
    verts, is_cycle = c._component(v, alpha, beta)
    ends = verts[1:] + verts[:1] if is_cycle else verts[1:]
    c._exchange(zip(verts, ends), alpha, beta)


def sample_colorings(
    g: Graph,
    e: tuple[int, int],
    count: int,
    seed: int,
    *,
    timeout_ms: int | None = DEFAULT_TIMEOUT_MS,
) -> list[PartialEdgeColoring]:
    """``count`` proper max-degree colorings of g minus ``e``.

    The samples come from a seeded Kempe walk over colorings of g with
    hole ``e``.  Each sample is the walk's coloring after ``_WALK_SWAPS``
    more steps; a step picks an anchor vertex, a color alpha present there
    and a second color beta, and exchanges that whole (alpha, beta)
    component.  Kempe swaps need not connect every such coloring, so
    every ``_WALK_RESTART`` samples the walk restarts from the plain
    search of g minus ``e`` under a random relabelling of its vertices,
    drawn from the run seed and the sample's index.  The first block
    keeps the identity labelling, so it starts from the certificate of
    ``e``: the plain search of g minus ``e`` that :func:`is_critical_edge`
    runs.  :func:`is_delta_critical` runs it too, but only on the edges
    that no move of the hole reaches, so a census searches those sampled
    edges twice and the others once, here.

    The list is deterministic for a given (seed, count) and is a prefix
    of a longer run with the same seed.  Every sample is its own object,
    never changed once made.  Diversity across seeds is all that is
    promised; the distribution is not uniform.

    Raises UncolorableError when no such coloring exists (``e`` was not a
    critical edge) and OracleTimeout if a search exceeds its budget.
    """
    hole = _edge_of(g, e)
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    _check_budget(timeout_ms)
    out = []
    for i in range(count):
        if i % _WALK_RESTART == 0:
            rng = _sample_rng(seed, i)
            label = list(range(g.n))
            if i:
                rng.shuffle(label)
            walk = _walk_start(g, hole, label, timeout_ms)
        for _ in range(_WALK_SWAPS):
            _kempe_step(walk, rng)
        out.append(walk.copy())
    return out


def complete_coloring(
    c: PartialEdgeColoring,
    *,
    timeout_ms: int | None = DEFAULT_TIMEOUT_MS,
) -> PartialEdgeColoring | None:
    """Extend a partial coloring to all edges except its hole, or None.

    The assigned edges act as hard constraints and the rest are searched
    in the plain deterministic order, so the same input always gives the
    same completion.  A coloring with a hole is searched on the graph
    minus that edge, and the completion is built on ``c.graph`` with the
    same hole, so ``complete_coloring(empty_partial(g, e, k))`` is one
    k-coloring of g with hole ``e``; with no edge colored it keeps the
    symmetry pin, so at the max degree it is the certificate of ``e``.
    Useful for steering a coloring toward a wanted missing-color pattern;
    for other completions, apply Kempe swaps (``kempe_chain`` and
    ``swap``) to the result.
    """
    g = c.graph
    preset = {e: color for e, color in c.edge_items() if color and e != c.hole}
    searched = g if c.hole is None else g.without_edge(*c.hole)
    found = _search(searched, c.k, preset, timeout_ms)
    if found is None:
        return None
    return PartialEdgeColoring.from_assignment(g, c.k, found, hole=c.hole)
