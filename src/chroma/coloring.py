"""Partial proper edge colorings and Kempe-chain mechanics.

A :class:`PartialEdgeColoring` assigns colors from ``1 .. k`` to a subset
of the edges of a graph; ``0`` is the uncolored sentinel.  At most one
edge is *designated* uncolored (the hole) in the states the validators
consume, but states with many unassigned edges arise too: the shell from
``empty_partial``, the input that ``oracle.complete_coloring`` extends,
and partial ``from_assignment`` dicts.  The class tolerates both.

Per-vertex bookkeeping is exact and incremental: ``present_mask(v)`` is a
bitmask of colors on edges at ``v``, ``missing_mask(v)`` its complement
within ``1 .. k``, and a slot table maps (vertex, color) to the neighbor
across the edge of that color.  All public mutating operations return a
new coloring; the input value is never changed.

Recoloring is by Kempe exchange, named as the paper's recoloring steps
name it: by a vertex and two colors.  ``kempe_chain(x, alpha, beta)``
returns the whole (alpha, beta)-chain through ``x``, ``swap(x, alpha,
beta)`` exchanges the two colors on all of it, and ``linked(x, y, alpha,
beta)`` tells whether ``y`` lies on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .graph import Graph, _bits, _normalize_edge, _outside

__all__ = [
    "PartialEdgeColoring",
    "KempeChain",
    "empty_partial",
]


@dataclass(frozen=True)
class KempeChain:
    """A maximal two-colored component: an alternating path or even cycle.

    ``vertices`` lists the component in order; for a path the order runs
    from the lower-indexed endpoint, for a cycle it starts at the smallest
    vertex and proceeds toward its smaller chain neighbor.  ``edges``
    joins consecutive vertices, and for a cycle the last to the first.
    """

    colors: tuple[int, int]
    shape: str  # "path" or "cycle"
    vertices: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]


class PartialEdgeColoring:
    """A proper partial edge coloring with exact present/missing tracking.

    The per-vertex queries and the Kempe-chain methods raise ValueError
    for a vertex outside the graph.
    """

    __slots__ = (
        "_graph", "_k", "_full", "_hole", "_hole_at", "_colors", "_count", "_present",
        "_slot",
    )

    def __init__(self, graph: Graph, k: int, hole: tuple[int, int] | None = None):
        if k < 1:
            raise ValueError(f"need at least one color, got k={k}")
        if k > 62:
            raise ValueError(f"palette limited to 62 colors, got k={k}")
        if hole is not None:
            hole = _normalize_edge(*hole)
            if not graph.has_edge(*hole):
                raise ValueError(f"designated uncolored edge {hole} not in graph")
        self._graph = graph
        self._k = k
        self._full = ((1 << k) - 1) << 1
        self._hole = hole
        self._hole_at = None if hole is None else graph.edge_index(*hole)
        self._colors = [0] * graph.m
        self._count = 0
        self._present = [0] * graph.n
        self._slot = [[-1] * (k + 1) for _ in range(graph.n)]

    # -- basic queries ---------------------------------------------------

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def k(self) -> int:
        return self._k

    @property
    def hole(self) -> tuple[int, int] | None:
        return self._hole

    def color(self, u: int, v: int) -> int:
        return self._colors[self._graph.edge_index(u, v)]

    def present_mask(self, v: int) -> int:
        if not 0 <= v < self._graph._n:
            raise _outside(v, self._graph._n)
        return self._present[v]

    def missing_mask(self, v: int) -> int:
        if not 0 <= v < self._graph._n:
            raise _outside(v, self._graph._n)
        return self._full & ~self._present[v]

    def missing(self, v: int) -> tuple[int, ...]:
        return _bits(self.missing_mask(v))

    def partner(self, v: int, color: int) -> int | None:
        """The neighbor across the color-``color`` edge at ``v``, if any."""
        if not 0 <= v < self._graph._n:
            raise _outside(v, self._graph._n)
        if not 1 <= color <= self._k:
            raise ValueError(f"color {color} outside palette 1..{self._k}")
        w = self._slot[v][color]
        return None if w < 0 else w

    def partners(self, v: int, mask: int) -> list[int]:
        """The neighbors across the colors in ``mask`` at ``v``, in
        increasing color order; colors missing at ``v`` are skipped."""
        if not 0 <= v < self._graph._n:
            raise _outside(v, self._graph._n)
        slot = self._slot[v]
        mask &= self._present[v]
        out = []
        while mask:
            low = mask & -mask
            out.append(slot[low.bit_length() - 1])
            mask ^= low
        return out

    @property
    def colored_count(self) -> int:
        return self._count

    def uncolored_edges(self) -> tuple[tuple[int, int], ...]:
        return tuple(
            e for e, c in zip(self._graph.edges, self._colors) if c == 0
        )

    def edge_items(self) -> Iterable[tuple[tuple[int, int], int]]:
        """Pairs of (edge, color) in edge order, 0 meaning unassigned."""
        return zip(self._graph.edges, self._colors)

    @property
    def edge_colors(self) -> tuple[int, ...]:
        """The color of each edge in edge order, 0 meaning unassigned."""
        return tuple(self._colors)

    @property
    def is_complete(self) -> bool:
        """True when every edge except the designated hole is colored."""
        if self._hole_at is None:
            return self._count == self._graph.m
        return self._count == self._graph.m - 1 and not self._colors[self._hole_at]

    # -- construction and mutation (private) -----------------------------

    def copy(self) -> "PartialEdgeColoring":
        other = object.__new__(PartialEdgeColoring)
        other._graph = self._graph
        other._k = self._k
        other._full = self._full
        other._hole = self._hole
        other._hole_at = self._hole_at
        other._colors = self._colors[:]
        other._count = self._count
        other._present = self._present[:]
        other._slot = list(map(list.copy, self._slot))
        return other

    @classmethod
    def from_assignment(
        cls,
        graph: Graph,
        k: int,
        assignment: dict[tuple[int, int], int],
        hole: tuple[int, int] | None = None,
    ) -> "PartialEdgeColoring":
        """Build a coloring from an explicit edge-to-color mapping, where 0
        leaves an edge uncolored.  ValueError for a pair that is not an
        edge, a color outside the palette, an edge given in both
        orientations or a color repeated at a vertex."""
        c = cls(graph, k, hole)
        index = graph._edge_index
        colors, present, slot = c._colors, c._present, c._slot
        for (u, v), color in assignment.items():
            i = index.get((u, v) if u < v else (v, u))
            if i is None:
                raise ValueError(f"({u}, {v}) is not an edge of the graph")
            if not color:
                continue
            if not 1 <= color <= k:
                raise ValueError(f"color {color} outside palette 1..{k}")
            if colors[i]:
                raise ValueError(f"edge ({u}, {v}) already colored {colors[i]}")
            bit = 1 << color
            if (present[u] | present[v]) & bit:
                raise ValueError(f"color {color} already present at an endpoint of ({u}, {v})")
            colors[i] = color
            present[u] |= bit
            present[v] |= bit
            slot[u][color] = v
            slot[v][color] = u
            c._count += 1
        return c

    # -- integrity -------------------------------------------------------

    def check_proper(self) -> list[str]:
        """Independently rescan the assignment; return a list of problems.

        The rescan rebuilds the present masks and the slot table from the
        edge colors alone and compares them with the kept ones: every
        partner lookup and Kempe walk reads the slot table.
        """
        problems = []
        seen = [0] * self._graph.n
        slot = [[-1] * (self._k + 1) for _ in range(self._graph.n)]
        count = 0
        for (u, v), c in zip(self._graph.edges, self._colors):
            if c == 0:
                continue
            count += 1
            if not 1 <= c <= self._k:
                problems.append(f"edge ({u}, {v}) has color {c} outside 1..{self._k}")
                continue
            bit = 1 << c
            if seen[u] & bit:
                problems.append(f"color {c} repeated at vertex {u}")
            if seen[v] & bit:
                problems.append(f"color {c} repeated at vertex {v}")
            seen[u] |= bit
            seen[v] |= bit
            slot[u][c] = v
            slot[v][c] = u
        for v in range(self._graph.n):
            if seen[v] != self._present[v]:
                problems.append(f"present mask drift at vertex {v}")
            if slot[v] != self._slot[v]:
                problems.append(f"slot table drift at vertex {v}")
        if count != self._count:
            problems.append(f"colored edge count drift: {self._count} kept, {count} found")
        if self._hole_at is not None and self._colors[self._hole_at]:
            problems.append(f"designated uncolored edge {self._hole} is colored")
        return problems

    # -- Kempe machinery -------------------------------------------------

    def kempe_chain(self, x: int, alpha: int, beta: int) -> KempeChain:
        """The maximal (alpha, beta)-component through ``x``: the chain
        that :meth:`swap` exchanges and :meth:`linked` walks.  Every vertex
        of the component gives the same chain.
        """
        self._check_chain(x, alpha, beta)
        verts, is_cycle = self._component(x, alpha, beta)
        if is_cycle:
            pivot = verts.index(min(verts))
            verts = verts[pivot:] + verts[:pivot]
            if verts[-1] < verts[1]:
                verts[1:] = reversed(verts[1:])
            shape, pairs = "cycle", zip(verts, verts[1:] + verts[:1])
        else:
            if verts[0] > verts[-1]:
                verts.reverse()
            shape, pairs = "path", zip(verts, verts[1:])
        edges = tuple(_normalize_edge(u, v) for u, v in pairs)
        return KempeChain((alpha, beta), shape, tuple(verts), edges)

    def _check_chain(self, x: int, alpha: int, beta: int) -> None:
        """ValueError unless ``x`` is a vertex and ``alpha`` and ``beta``
        are two different colors of the palette."""
        if not 0 <= x < self._graph._n:
            raise _outside(x, self._graph._n)
        if alpha == beta:
            raise ValueError("chain colors must differ")
        for c in (alpha, beta):
            if not 1 <= c <= self._k:
                raise ValueError(f"color {c} outside palette 1..{self._k}")

    def _component(self, x: int, alpha: int, beta: int) -> tuple[list[int], bool]:
        """The (alpha, beta)-component through ``x`` in walk order, and
        whether it is a cycle (its last vertex then meets its first)."""
        forward = self._walk(x, alpha, beta)
        if len(forward) > 1 and forward[-1] == x:
            return forward[:-1], True
        return forward[::-1] + self._walk(x, beta, alpha)[1:], False

    def _walk(self, x: int, first: int, second: int) -> list[int]:
        """Vertices met from ``x`` along edges colored ``first``, ``second``,
        ``first``, ...; ends where the next color is missing or back at ``x``.

        It only reads the slot table.  Besides :meth:`_component` and
        :meth:`linked`, certification's hole moves use it to tell whether
        a Kempe exchange would pass a vertex, and so which edge the move
        reaches, without making the exchange."""
        seq = [x]
        cur = x
        while True:
            cur = self._slot[cur][first]
            if cur < 0:
                return seq
            seq.append(cur)
            if cur == x:
                return seq
            first, second = second, first

    def swap(self, x: int, alpha: int, beta: int) -> "PartialEdgeColoring":
        """A copy with ``alpha`` and ``beta`` exchanged on the whole
        (alpha, beta)-chain through ``x``.

        The exchange is :meth:`_flip` on a copy, so it keeps the coloring
        proper, every vertex of the chain names the same exchange, and
        doing it twice restores the original value.  At a vertex with
        neither color the copy is unchanged.  Takes the arguments of
        :meth:`kempe_chain`, with its errors.
        """
        self._check_chain(x, alpha, beta)
        out = self.copy()
        out._flip(x, alpha, beta)
        return out

    def _flip(self, x: int, alpha: int, beta: int) -> None:
        """Exchange ``alpha`` and ``beta`` in place on the whole
        (alpha, beta)-component through ``x``; nothing changes when
        neither color is present at ``x``.

        Every Kempe exchange is this one: the sampler's Kempe step, the
        exchange that opens a blocked hole move in certification, and
        :meth:`swap`, which checks the arguments, on a copy.  It walks the
        slot table once from ``x``, first along ``alpha``, then along
        ``beta`` unless the first walk came back to ``x`` round a cycle.
        It recolors each edge it crosses, swaps the two colors' slot
        entries at each vertex it reaches and toggles both present bits at
        each path end, with no chain list built.  A whole component stays
        proper, so nothing is checked, and flipping it twice restores the
        coloring.
        """
        index = self._graph._edge_index
        colors, present, slot = self._colors, self._present, self._slot
        row = slot[x]
        a, b = row[alpha], row[beta]
        if a < 0 and b < 0:
            return
        row[alpha], row[beta] = b, a
        if a < 0 or b < 0:
            present[x] ^= (1 << alpha) | (1 << beta)
        for cur, c, d in ((a, alpha, beta), (b, beta, alpha)):
            # The edge from prev to cur carries c and takes d; the edge
            # leaving cur carries d and takes c.
            prev = x
            while cur >= 0:
                colors[index[(prev, cur) if prev < cur else (cur, prev)]] = d
                if cur == x:
                    return
                row = slot[cur]
                nxt = row[d]
                row[c], row[d] = nxt, prev
                if nxt < 0:
                    present[cur] ^= (1 << c) | (1 << d)
                prev, cur, c, d = cur, nxt, d, c

    def _move_hole(self, x: int, color: int) -> None:
        """Move the hole e = xy in place to the ``color``-edge xw at x,
        which e takes, as in Vizing's fan recoloring.  ``color`` must be
        missing at y and present at x, as it is on a class-2 host at its
        max degree; else ValueError.  Repeating the move undoes it.

        It is the one recoloring step besides Kempe exchange, with three
        users: certification moves the hole to certify the next edge, the
        sampler's walk mixes it with Kempe swaps, and the five-vertex
        rewrite shifts its path with it to derive a contradiction.
        """
        u, v = self._hole
        y = v if x == u else u
        w = self._slot[x][color]
        bit = 1 << color
        if x not in (u, v) or w < 0 or self._present[y] & bit:
            raise ValueError(f"cannot move the hole {self._hole} along color {color} at {x}")
        f = self._graph._edge_index[(x, w) if x < w else (w, x)]
        self._colors[f] = 0
        self._colors[self._hole_at] = color
        self._present[w] ^= bit
        self._present[y] |= bit
        self._slot[w][color] = -1
        self._slot[x][color] = y
        self._slot[y][color] = x
        self._hole = (x, w) if x < w else (w, x)
        self._hole_at = f

    def linked(self, x: int, y: int, alpha: int, beta: int) -> bool:
        """True when ``x`` and ``y`` lie on the same (alpha, beta)-chain.

        Both must be vertices.  A vertex is linked to itself whatever the
        colors; for two vertices the colors must be valid chain colors, as
        for :meth:`kempe_chain`.
        """
        if x == y and 0 <= x < self._graph._n:
            return True
        self._check_chain(x, alpha, beta)
        self._check_chain(y, alpha, beta)
        return y in self._walk(x, alpha, beta) or y in self._walk(x, beta, alpha)

    # -- vertex-set structure --------------------------------------------

    def elementary_conflict(
        self, vertices: Iterable[int]
    ) -> tuple[int, int, int] | None:
        """First pair of vertices sharing a missing color, with the color."""
        seen: list[tuple[int, int]] = []
        for v in vertices:
            mv = self.missing_mask(v)
            for u, mu in seen:
                both = mu & mv
                if both:
                    return (u, v, (both & -both).bit_length() - 1)
            seen.append((v, mv))
        return None

    def is_elementary(self, vertices: Iterable[int]) -> bool:
        """True when the vertices' missing color sets are pairwise disjoint."""
        return self.elementary_conflict(vertices) is None

    # -- serialization ---------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "k": self._k,
            "uncolored": list(self._hole) if self._hole is not None else None,
            "edges": [
                [u, v, c] for (u, v), c in zip(self._graph.edges, self._colors)
            ],
        }

    @classmethod
    def from_json_obj(cls, graph: Graph, obj: dict) -> "PartialEdgeColoring":
        for field in ("k", "edges"):
            if field not in obj:
                raise ValueError(f"witness has no {field!r} field")
        k, hole, entries = obj["k"], obj.get("uncolored"), obj["edges"]
        if type(k) is not int:
            raise ValueError(f"k is {k!r}, not an int")
        if hole is not None:
            pair = type(hole) is list and len(hole) == 2
            if not (pair and all(type(x) is int for x in hole)):
                raise ValueError(f"uncolored is {hole!r}, not null or a pair of ints")
            hole = tuple(hole)
        if type(entries) is not list:
            raise ValueError(f"edges is {entries!r}, not a list")
        listed = {}
        for entry in entries:
            triple = type(entry) is list and len(entry) == 3
            if not (triple and all(type(x) is int for x in entry[:2])):
                raise ValueError(
                    f"edges entry {entry!r} is not [u, v, color] with int endpoints"
                )
            u, v, color = entry
            e = _normalize_edge(u, v)
            if e in listed:
                raise ValueError(f"edge {e} listed twice")
            if type(color) is not int:
                raise ValueError(f"edge {e} has color {color!r}, not an int")
            listed[e] = color
        if set(listed) != set(graph.edges):
            raise ValueError("serialized edge set does not match the graph")
        c = cls.from_assignment(graph, k, listed, hole)
        if hole is not None and c.color(*hole):
            raise ValueError(f"uncolored edge {hole} has a color in the edge list")
        return c

    def __repr__(self) -> str:
        return (
            f"PartialEdgeColoring(k={self._k}, colored={self.colored_count}/"
            f"{self._graph.m}, hole={self._hole})"
        )


def empty_partial(
    graph: Graph, e: tuple[int, int] | None, k: int
) -> PartialEdgeColoring:
    """The all-uncolored shell with designated hole ``e`` and palette ``1..k``.

    Requires ``k >= max_degree``; with fewer colors no proper completion
    can exist and every consumer of these states assumes otherwise.
    """
    if k < graph.max_degree:
        raise ValueError(
            f"palette k={k} below max degree {graph.max_degree}"
        )
    return PartialEdgeColoring(graph, k, e)
