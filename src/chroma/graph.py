"""Dense immutable graphs with bitset adjacency, plus graph6 and edge-list I/O.

Vertices are the integers ``0 .. n-1``.  Graphs are simple and undirected:
loops are rejected and duplicate edges collapse to one.  Each vertex carries
its adjacency both as a sorted tuple and as an integer bitmask, so degree
and neighborhood queries cost one table lookup and set operations on
neighborhoods are single integer ANDs.
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = [
    "Graph",
    "parse_graph6",
    "to_graph6",
    "parse_edge_list",
    "iter_graph6_lines",
]

GRAPH6_HEADER = ">>graph6<<"

# graph6 packs numbers into printable ASCII by offsetting six-bit groups
# with 63, so every payload byte falls in '?' (63) .. '~' (126).
_G6_OFFSET = 63
_G6_MAX_N = 62


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    """The key of edge ``uv``: its endpoints in increasing order."""
    return (u, v) if u < v else (v, u)


def _bits(mask: int) -> tuple[int, ...]:
    """Positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _outside(v: int, n: int) -> ValueError:
    """The error for a vertex ``v`` that is not in ``0 .. n-1``."""
    return ValueError(f"vertex {v} outside 0..{n - 1}")


class Graph:
    """An immutable simple graph on vertices ``0 .. n-1``.

    ``degree``, ``neighbors`` and ``adjacency_mask`` raise ValueError for
    a vertex outside the graph.
    """

    __slots__ = (
        "_n", "_edges", "_adj_mask", "_neighbors", "_edge_index", "_degrees",
        "_max_degree",
    )

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        masks = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop ({u}, {v}) not allowed")
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        self._n = n
        self._adj_mask = tuple(masks)
        self._neighbors = tuple(_bits(masks[v]) for v in range(n))
        self._degrees = tuple(len(nb) for nb in self._neighbors)
        self._max_degree = max(self._degrees, default=0)
        edge_list: list[tuple[int, int]] = []
        for u in range(n):
            for v in self._neighbors[u]:
                if v > u:
                    edge_list.append((u, v))
        self._edges = tuple(edge_list)
        self._edge_index = {e: i for i, e in enumerate(edge_list)}

    @property
    def n(self) -> int:
        return self._n

    @property
    def m(self) -> int:
        return len(self._edges)

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        return self._edges

    def degree(self, v: int) -> int:
        if not 0 <= v < self._n:
            raise _outside(v, self._n)
        return self._degrees[v]

    @property
    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    @property
    def max_degree(self) -> int:
        return self._max_degree

    @property
    def min_degree(self) -> int:
        return min(self._degrees, default=0)

    def neighbors(self, v: int) -> tuple[int, ...]:
        if not 0 <= v < self._n:
            raise _outside(v, self._n)
        return self._neighbors[v]

    def adjacency_mask(self, v: int) -> int:
        if not 0 <= v < self._n:
            raise _outside(v, self._n)
        return self._adj_mask[v]

    def has_edge(self, u: int, v: int) -> bool:
        return 0 <= u < self._n and v >= 0 and bool(self._adj_mask[u] >> v & 1)

    def edge_index(self, u: int, v: int) -> int:
        """Position of edge ``uv`` in :attr:`edges`; raises KeyError if absent."""
        return self._edge_index[_normalize_edge(u, v)]

    def is_connected(self) -> bool:
        if self._n == 0:
            return False
        seen = 1
        frontier = 1
        full = (1 << self._n) - 1
        while frontier:
            v = (frontier & -frontier).bit_length() - 1
            frontier &= frontier - 1
            new = self._adj_mask[v] & ~seen
            seen |= new
            frontier |= new
        return seen == full

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._n == other._n and self._edges == other._edges

    def __hash__(self) -> int:
        return hash((self._n, self._edges))

    def __repr__(self) -> str:
        return f"Graph(n={self._n}, m={self.m})"


def _strip_header(line: str) -> str:
    """``line`` without surrounding whitespace or a ``>>graph6<<`` prefix,
    including any whitespace between the prefix and the payload."""
    s = line.strip()
    if s.startswith(GRAPH6_HEADER):
        s = s[len(GRAPH6_HEADER):].lstrip()
    return s


def parse_graph6(line: str) -> Graph:
    """Decode one graph from its graph6 representation.

    Accepts an optional ``>>graph6<<`` header prefix.  Only the short form
    (n <= 62, single length byte) is supported; longer forms raise
    ValueError, as does any byte outside the printable graph6 range or a
    truncated edge-bit region.
    """
    s = _strip_header(line)
    if not s:
        raise ValueError("empty graph6 string")
    data = [ord(ch) - _G6_OFFSET for ch in s]
    if any(b < 0 or b > 63 for b in data):
        raise ValueError(f"invalid graph6 character in {s!r}")
    if data[0] == 63:
        # 126 introduces the multi-byte length form for n > 62.
        raise ValueError("graph6 long form (n > 62) not supported")
    n = data[0]
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    body = data[1:]
    if len(body) < need:
        raise ValueError(f"graph6 string too short for n={n}")
    if len(body) > need:
        raise ValueError(f"trailing data after graph6 body for n={n}")
    edges = []
    idx = 0
    # Bit order follows the format: pairs (0,1), (0,2), (1,2), (0,3), ...
    for v in range(1, n):
        for u in range(v):
            if body[idx // 6] >> (5 - idx % 6) & 1:
                edges.append((u, v))
            idx += 1
    return Graph(n, edges)


def to_graph6(g: Graph) -> str:
    """Encode a graph in short-form graph6 (requires n <= 62)."""
    n = g.n
    if n > _G6_MAX_N:
        raise ValueError(f"graph6 short form limited to n <= {_G6_MAX_N}, got {n}")
    out = [chr(n + _G6_OFFSET)]
    acc = 0
    width = 0
    for v in range(1, n):
        for u in range(v):
            acc = acc << 1 | (1 if g.has_edge(u, v) else 0)
            width += 1
            if width == 6:
                out.append(chr(acc + _G6_OFFSET))
                acc = 0
                width = 0
    if width:
        out.append(chr((acc << (6 - width)) + _G6_OFFSET))
    return "".join(out)


def parse_edge_list(text: str) -> Graph:
    """Parse a whitespace edge list: one ``u v`` pair per line.

    An optional leading ``n <count>`` line fixes the vertex count; otherwise
    it is one more than the largest endpoint.  ``#`` starts a comment,
    blank lines are skipped, and duplicate edges collapse.  Loops,
    negative endpoints, and non-integer tokens raise ValueError.
    """
    n_declared: int | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if n_declared is None and not edges and parts[0] == "n":
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: malformed vertex count {raw!r}")
            try:
                n_declared = int(parts[1])
            except ValueError:
                raise ValueError(f"line {lineno}: bad vertex count {parts[1]!r}") from None
            if n_declared < 0:
                raise ValueError(f"line {lineno}: negative vertex count")
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"line {lineno}: non-integer endpoint in {raw!r}") from None
        if u < 0 or v < 0:
            raise ValueError(f"line {lineno}: negative vertex in {raw!r}")
        if u == v:
            raise ValueError(f"line {lineno}: loop {u} {v} not allowed")
        edges.append(_normalize_edge(u, v))
    n = n_declared if n_declared is not None else (max((v for e in edges for v in e), default=-1) + 1)
    return Graph(n, edges)


def iter_graph6_lines(text: str) -> Iterator[str]:
    """Yield the graph6 payload lines of a corpus, skipping blanks and comments.

    ``#`` starts a comment anywhere on a line; no graph6 payload holds it.
    """
    for raw in text.splitlines():
        line = _strip_header(raw.split("#", 1)[0])
        if line:
            yield line
