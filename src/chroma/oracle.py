"""Exact chromatic-index decisions, criticality certification, and sampling.

Everything here is brute force on purpose: a backtracking search over edge
colorings is the ground truth that the structure validators are measured
against, so it must not borrow results from the theory it checks.  There
is one search, and it draws no random numbers.  Edges are colored in
decreasing endpoint-degree-sum order, ties by vertex label; without
presets the colors of one maximum-degree vertex's edges are fixed up front
to break color symmetry.  The one counting argument used is the one behind
``is_overfull``: each color class is a matching, so a search whose edges
outnumber the matching capacity left after those pins fails before it
branches.  The search backtracks on its own stack, one entry per edge, so
a graph of any size is searched with no recursion limit.  It returns a
plain edge-to-color dict.  It searches g minus an edge on g itself,
reading g's tables with that edge as a hole, so no smaller graph is built.
Certifying one edge critical keeps only whether such a coloring exists.
Certifying a whole graph reuses each coloring it finds: one hole move,
Vizing's fan step as Misra and Gries write it in their constructive proof
of Vizing's theorem (one Kempe exchange at the hole, empty when the move
is not blocked, then the hole moved to another edge), certifies the other
edge with no search, so only edges that no move reaches are searched; on
subdivided K8 and K10 that is the first edge alone.  The edge a move
reaches is read off the slot table, with nothing recolored: the Kempe
chain is walked only when it is not empty, and only up to the hole's far
end.  The moved coloring is built on a copy only when certification
continues from it and some edge at an end of its new hole is still
uncertified.  A True rests on a coloring of every g minus e that a search
found or that is one hole move from a proper coloring that was built; the
move's preconditions follow from the graph being class 2 and are checked
whenever a move is built.  A False rests on an exhaustive search, so
nothing is taken from the theory.  Each caller that hands out a coloring
builds exactly one, on the graph it holds.  The sampler is one seeded walk
per graph that mixes Kempe swaps with the same hole move, its chain empty;
it runs no search after its start.  Both steps change the walk's private
coloring in place, a Kempe swap by one pass over the slot table of the
component it flips, and only copies of it are handed out.  Searches carry
a wall-clock budget and report expiry as :class:`OracleTimeout`, never as
a class-1/class-2 answer.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import cache, reduce
from operator import xor
from typing import Iterator

from .coloring import PartialEdgeColoring, _check_palette
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

# The sampler's walk: steps per sample, and its step cap per sample asked
# for.  SAMPLER names the walk in census metadata, so a report says which
# sample stream it was built on; the cap only decides when a walk gives up.
_WALK_SWAPS = 3
_WALK_CAP = 1000
SAMPLER = f"kempe-hole-walk-s{_WALK_SWAPS}"


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
    hole: tuple[int, int] | None = None,
) -> dict[tuple[int, int], int] | None:
    """A proper k-edge-coloring of g minus ``hole`` as an edge-to-color
    dict, else None.

    The dict holds every edge of g but the hole.  Callers that hand out a
    coloring build one :class:`PartialEdgeColoring` from it on the graph
    they hold; a yes/no caller builds none.

    ``hole``, an edge of g in its normalized key (None for no hole), is
    searched around while g's own tables are read: its two ends count
    one degree less, the symmetry pin skips it and the edge order leaves
    it out.  Degrees, pin and edge order are exactly those of
    ``g.without_edge(*hole)``, so the coloring found is too.

    ``preset`` pins edge colors before the search.  Without one, or with
    an empty one, the search breaks color symmetry by pinning the colors
    at a max-degree vertex; a preset that colors any edge makes the
    colors no longer interchangeable.  The search is deterministic: the
    same graph, hole, palette and presets always give the same coloring.

    The backtracking keeps an explicit stack, the colors left to try and
    the color chosen at each depth, one depth per edge to color, so its
    depth is not bounded by Python's recursion limit.  Every node entered
    is counted, the root included, and the clock is read at every
    ``_CHECK_INTERVAL``-th node; OracleTimeout is raised when
    ``timeout_ms`` (None for no budget) has run out there.
    """
    _check_budget(timeout_ms)
    deadline = None if timeout_ms is None else time.monotonic() + timeout_ms / 1000
    full = ((1 << k) - 1) << 1
    degs = g.degrees
    if hole is not None:
        degs = list(degs)
        for v in hole:
            degs[v] -= 1
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
    elif g.n:
        # Any proper coloring can be renamed so one max-degree vertex sees
        # colors 1..d in neighbor order, so pinning them loses nothing.
        vstar = max(range(g.n), key=lambda v: (degs[v], -v))
        color = 0
        for w in g.neighbors(vstar):
            e = _normalize_edge(vstar, w)
            if e == hole:
                continue
            color += 1
            if color > k or not pin(*e, color):
                return None

    todo = [e for e in g.edges if e not in assignment and e != hole]
    # Each color class is a matching, so color c covers at most floor(f/2)
    # more edges, f being the vertices still free for c.  Summed over the
    # colors that is (free slots - colors with odd f) / 2, and the colors
    # with odd f are the bits set in the XOR of all free masks.
    free = sum(a.bit_count() for a in avail)
    if 2 * len(todo) > free - reduce(xor, avail, 0).bit_count():
        return None
    todo.sort(key=lambda e: (-(degs[e[0]] + degs[e[1]]), e))

    # Depth i colors todo[i]: cands[i] holds the colors it has left to
    # try and chosen[i] the one it holds now.  Each loop enters one node.
    last = len(todo)
    cands = [0] * last
    chosen = [0] * last
    nodes = i = 0
    while True:
        nodes += 1
        if deadline is not None and nodes % _CHECK_INTERVAL == 0:
            if time.monotonic() > deadline:
                raise OracleTimeout(f"search exceeded budget after {nodes} nodes")
        if i == last:
            break
        u, v = todo[i]
        cand = avail[u] & avail[v]
        while not cand:
            i -= 1
            if i < 0:
                return None
            u, v = todo[i]
            bit = chosen[i]
            avail[u] |= bit
            avail[v] |= bit
            cand = cands[i]
        bit = cand & -cand
        cands[i] = cand ^ bit
        chosen[i] = bit
        avail[u] &= ~bit
        avail[v] &= ~bit
        i += 1
    # The dict lists the pins, then todo from its last edge back.
    for i in range(last - 1, -1, -1):
        assignment[todo[i]] = chosen[i].bit_length() - 1
    return assignment


def decide_colorable(
    g: Graph, k: int, *, timeout_ms: int | None = DEFAULT_TIMEOUT_MS
) -> PartialEdgeColoring | None:
    """A proper k-edge-coloring of g, or None if impossible.

    Raises ValueError, before any search, when k is outside 1..62, the
    palettes a :class:`PartialEdgeColoring` holds.
    """
    _check_palette(k)
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

    On a class-2 host, ``e`` is certified by the plain deterministic
    search of g with ``e`` as its hole, which builds no coloring: only
    its answer is kept.  The hole gives the search the degrees, pin and
    edge order of g minus ``e``, which a search of g with g's own
    degrees would not.  The sampler's walk starts from the coloring that
    this search finds for ``g.edges[0]``.
    """
    e = _edge_of(g, e)
    if chi is None:
        chi = chromatic_index(g, timeout_ms=timeout_ms)
    if chi.classification != "class2":
        return False
    return _search(g, g.max_degree, None, timeout_ms, e) is not None


def _hole_moves(
    c: PartialEdgeColoring, certified: set[tuple[int, int]]
) -> Iterator[tuple[tuple[int, int], tuple[int, int, int, int]]]:
    """Pairs (f, move): for the hole e = xy of ``c``, a max-degree
    coloring of a class-2 graph, and each color d on an edge at x not in
    ``certified``, the edge f at x that the hole reaches by ``move =
    (x, y, d, low)``, which :func:`_moved` makes on a copy.  ``c`` is only
    read; nothing is copied or flipped here.

    Every move is Misra and Gries's fan step: ``low`` is the least color
    missing at y, the (low, d)-chain from y is flipped, and the hole
    moves along d.  When d is missing at y that chain is empty, d == low
    included, and the flip changes nothing.  Otherwise y ends the chain,
    since low is missing there, and x does not, since on a class-2 host
    no color is missing at both ends of the hole; so after the flip d is
    missing at y and still present at x.  The flip gives x the d-edge
    that was its low-edge when the chain passes x, and leaves x's d-edge
    alone otherwise, so one read-only walk of the chain names f.  The
    walk reads ``c``'s slot table from y and stops at x or at the chain's
    other end; it is skipped when d is missing at y, since that chain is
    empty.  Both orientations of e are tried, colors in increasing order;
    a move is skipped when x's d-edge before the flip is certified, or f
    is, and ``certified`` is read at each step.
    """
    slot, present = c._slot, c._present
    for x, y in (c._hole, c._hole[::-1]):
        missing = c._full & ~present[y]
        low = (missing & -missing).bit_length() - 1
        row = slot[x]
        ds = present[x]
        while ds:
            bit = ds & -ds
            ds ^= bit
            d = bit.bit_length() - 1
            w = row[d]
            f = (x, w) if x < w else (w, x)
            if f in certified:
                continue
            if present[y] & bit:
                # Walk the (low, d)-chain from y, which ends it, up to x.
                cur, first, second = y, d, low
                while cur >= 0 and cur != x:
                    cur = slot[cur][first]
                    first, second = second, first
                if cur == x:
                    w = row[low]
                    f = (x, w) if x < w else (w, x)
                    if f in certified:
                        continue
            yield f, (x, y, d, low)


def _moved(
    c: PartialEdgeColoring, move: tuple[int, int, int, int]
) -> PartialEdgeColoring:
    """A copy of ``c`` with ``move`` from :func:`_hole_moves` made: the
    (low, d)-chain from y flipped, then the hole moved along d at x,
    which checks that the move is legal."""
    x, y, d, low = move
    moved = c.copy()
    moved._flip(y, low, d)
    moved._move_hole(x, d)
    return moved


def is_delta_critical(
    g: Graph,
    *,
    chi: ChiResult | None = None,
    timeout_ms: int | None = DEFAULT_TIMEOUT_MS,
) -> bool:
    """True when g is connected, class 2, and every edge is critical.

    Each coloring found is reused: hole moves (:func:`_hole_moves`) run
    depth-first from it and certify other edges with no search.  A move
    certifies its edge when it is found; the stack keeps the move and its
    parent coloring, and the moved coloring is built (:func:`_moved`) only
    when popped, so no coloring is built for an edge that is already
    certified, and none at all once every edge is.  A count of the
    uncertified edges at each vertex drops a popped move unbuilt when its
    new hole has none at either end: a move only reaches edges at the
    ends of the hole, so that coloring would yield no move.  Only an edge
    that no move reaches gets the plain search of g minus that edge, in
    edge order; the first search is always that of ``g.edges[0]``.  A
    move reaches only edges whose g minus e has a coloring, so the first
    search with none ends the loop at the same edge as one search per
    edge would.  True rests on a coloring of each g minus e, found by a
    search or one move from a proper coloring that was built, False on an
    exhaustive search.
    """
    if g.m == 0 or not g.is_connected():
        return False
    if chi is None:
        chi = chromatic_index(g, timeout_ms=timeout_ms)
    if chi.classification != "class2":
        return False
    delta = g.max_degree
    certified: set[tuple[int, int]] = set()
    # The uncertified edges at each vertex.
    left = list(g.degrees)
    for e in g.edges:
        if e in certified:
            continue
        found = _search(g, delta, None, timeout_ms, e)
        if found is None:
            return False
        certified.add(e)
        left[e[0]] -= 1
        left[e[1]] -= 1
        c = PartialEdgeColoring.from_assignment(g, delta, found, hole=e)
        stack: list[
            tuple[PartialEdgeColoring, tuple[int, int, int, int], tuple[int, int]]
        ] = []
        while True:
            for f, move in _hole_moves(c, certified):
                certified.add(f)
                if len(certified) == g.m:
                    return True
                left[f[0]] -= 1
                left[f[1]] -= 1
                stack.append((c, move, f))
            while stack:
                parent, move, (a, b) = stack.pop()
                if left[a] or left[b]:
                    c = _moved(parent, move)
                    break
            else:
                break
    return True


def sample_colorings(
    g: Graph,
    count: int,
    seed: int,
    *,
    timeout_ms: int | None = DEFAULT_TIMEOUT_MS,
) -> list[PartialEdgeColoring]:
    """``count`` proper max-degree colorings of g minus e for every edge e
    of a critical g, in one list grouped by hole in ``g.edges`` order.

    One seeded walk draws them all.  It starts from the plain search of
    g minus ``g.edges[0]``, the first certificate :func:`is_delta_critical`
    finds, and searches no more.  Each step is, with probability 1/2, a
    Kempe step (an anchor vertex, a color alpha present there, a second
    color beta, and that whole (alpha, beta) component is exchanged), and
    otherwise a hole move: the hole e = xy, in a random orientation, moves
    along a random color missing at y.  Kempe swaps alone never leave a
    Kempe class; hole moves do.  Every ``_WALK_SWAPS`` steps the walk's
    coloring is copied into its hole's samples unless that edge has
    ``count`` already; the walk stops when every edge has ``count``.

    The walk's coloring is private and changed in place: a Kempe step is
    one :meth:`PartialEdgeColoring._flip` and a hole move one
    :meth:`PartialEdgeColoring._move_hole`, certification's move with an
    empty chain.  A Kempe step draws ``random()``, then the anchor by
    ``randrange(n)``, alpha by ``choice`` and beta by ``randrange(1, k)``,
    and nothing after the anchor if no color is present there; a hole
    move draws ``random()`` twice and its color by ``choice``.

    Deterministic for a given (seed, count), and each edge's samples are
    a prefix of its samples in a run with a larger count.  Every sample
    is its own object, never changed once made.  The distribution is not
    uniform.

    Raises UncolorableError when g minus its first edge has no such
    coloring, ValueError when a color is missing at both ends of the hole
    (g is class 1), and OracleTimeout when the start search exceeds its
    budget or ``_WALK_CAP * count * m`` steps leave an edge short, as one
    that no move reaches stays; the cap counts steps, not time.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    _check_budget(timeout_ms)
    samples: list[list[PartialEdgeColoring]] = [[] for _ in g.edges]
    short = g.m if count else 0
    if not short:
        return []
    hole = g.edges[0]
    found = _search(g, g.max_degree, None, timeout_ms, hole)
    if found is None:
        raise UncolorableError(
            f"no max-degree coloring of the graph minus {hole} exists"
        )
    walk = PartialEdgeColoring.from_assignment(g, g.max_degree, found, hole=hole)
    rng = random.Random(seed)
    # bits keeps each mask's colors for the walk.
    draw, randrange, choice = rng.random, rng.randrange, rng.choice
    flip, move = walk._flip, walk._move_hole
    present, full, n, k = walk._present, walk._full, g.n, walk.k
    bits = cache(_bits)
    cap = _WALK_CAP * count * g.m
    for step in range(1, cap + 1):
        if draw() < 0.5:
            v = randrange(n)
            if present[v] and k > 1:
                alpha = choice(bits(present[v]))
                beta = randrange(1, k)
                if beta >= alpha:
                    beta += 1
                flip(v, alpha, beta)
        else:
            x, y = walk._hole
            if draw() < 0.5:
                x, y = y, x
            move(x, choice(bits(full & ~present[y])))
        if step % _WALK_SWAPS == 0:
            kept = samples[walk._hole_at]
            if len(kept) < count:
                kept.append(walk.copy())
                short -= len(kept) == count
                if not short:
                    return [c for kept in samples for c in kept]
    e, kept = next((e, kept) for e, kept in zip(g.edges, samples) if len(kept) < count)
    raise OracleTimeout(
        f"walk took {cap} steps, and edge {e} has {len(kept)} of {count} samples"
    )


def complete_coloring(
    c: PartialEdgeColoring,
    *,
    timeout_ms: int | None = DEFAULT_TIMEOUT_MS,
) -> PartialEdgeColoring | None:
    """Extend a partial coloring to all edges except its hole, or None.

    The assigned edges act as hard constraints and the rest are searched
    in the plain deterministic order, so the same input always gives the
    same completion.  A coloring with a hole is searched as the graph
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
    found = _search(g, c.k, preset, timeout_ms, c.hole)
    if found is None:
        return None
    return PartialEdgeColoring.from_assignment(g, c.k, found, hole=c.hole)
