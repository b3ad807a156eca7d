"""Structures grown from an uncolored edge and their invariant checkers.

The objects here (multifans, Kierstead paths, forks, short-kites, kites)
are colored configurations anchored at the one uncolored edge of a
partial coloring.  Each checker separates three outcomes: a
StructuralError means the input is not the claimed object at all, a
``violation`` verdict means the object is valid but the checked
conclusion fails, and ``inapplicable`` means the conclusion's hypotheses
are unmet.  On hosts whose uncolored edge is critical the violations are
the interesting output: each one would falsify a known invariant.

Every shape is a table of rows ``(p, q, via)`` over its roles: edge pq
carries a color missed at one of the ``via`` roles, and row 0 is the
uncolored edge.  One finder (:func:`_embeddings`), one checker
(:func:`_unmet_row`) and one greedy grower (:func:`_grow`) read them.

A shape that a finder or grower built remembers the coloring it was
built on, and a validator handed that same coloring object skips the
row check: no public operation changes a coloring in place, so the rows
still hold.  Any other coloring, or a hand-built shape, is checked in
full.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache

from .coloring import PartialEdgeColoring
from .graph import Graph, _bits, _normalize_edge

__all__ = [
    "OK",
    "VIOLATION",
    "INAPPLICABLE",
    "Verdict",
    "StructuralError",
    "Multifan",
    "grow_multifan",
    "validate_multifan",
    "AlphaSequenceDecomposition",
    "alpha_decompose",
    "validate_fan_linkage",
    "KiersteadPath",
    "kierstead_paths",
    "grow_kierstead",
    "validate_kierstead4",
    "check_val",
    "check_degree_dichotomy",
    "ForkLike",
    "find_forklike",
    "check_fork_exclusion",
    "validate_shortkite",
    "validate_kite",
]

OK = "ok"
VIOLATION = "violation"
INAPPLICABLE = "inapplicable"


class StructuralError(ValueError):
    """The input does not satisfy the structural definition it claims."""


@dataclass(frozen=True)
class Verdict:
    status: str
    detail: str = ""

    def __bool__(self) -> bool:
        return self.status == OK


def _require_single_hole(c: PartialEdgeColoring) -> tuple[int, int]:
    if c.hole is None:
        raise StructuralError("coloring has no designated uncolored edge")
    if not c.is_complete:
        raise StructuralError("coloring must be complete apart from its hole")
    return c.hole


def _found(shape, c: PartialEdgeColoring):
    """``shape``, marked as built on the coloring ``c``.  Only finders and
    growers set the mark, so a hand-built shape is never trusted."""
    object.__setattr__(shape, "_found_on", c)
    return shape


def _embeddings(
    c: PartialEdgeColoring, rows: tuple, ascending: tuple[int, int] = (-1, -1)
) -> list[tuple[int, ...]]:
    """Every tuple of distinct vertices that fills ``rows``, in growth order.

    Rows are ``(p, q, via)`` in role indices: edge pq carries a color
    missed at one of the ``via`` roles.  Row 0 is the uncolored edge, in
    both orientations; a later row grows a new ``q`` from ``p`` or, when
    ``q`` is already placed, requires that edge.  With ``ascending = (i,
    j)``, role ``j`` is placed only above role ``i``'s vertex.
    """
    hole = _require_single_hole(c)
    missing = [c.missing_mask(v) for v in range(c.graph.n)]
    partners = c.partners
    out: list[tuple[int, ...]] = []
    low, high = ascending

    def fill(i: int, placed: list[int]) -> None:
        if i == len(rows):
            out.append(tuple(placed))
            return
        p, q, via = rows[i]
        mask = 0
        for r in via:
            mask |= missing[placed[r]]
        if q < len(placed):
            if placed[q] in partners(placed[p], mask):
                fill(i + 1, placed)
            return
        for w in partners(placed[p], mask):
            if w in placed:
                continue
            if q == high and w < placed[low]:
                continue
            placed.append(w)
            fill(i + 1, placed)
            placed.pop()

    for a, b in (hole, (hole[1], hole[0])):
        fill(1, [a, b])
    return out


def _unmet_row(
    c: PartialEdgeColoring, rows: tuple, placed: tuple[int, ...], name: str
) -> int | None:
    """Index of the first row whose color condition ``placed`` leaves
    unmet, or None when every row holds.

    ``placed[r]`` is role r's vertex, and row 0 joins roles 0 and 1, as
    in :func:`_embeddings`.  Raises StructuralError when ``placed`` is
    not the shape's skeleton: a repeated vertex, a row 0 other than the
    uncolored edge, or an edge missing from the graph.  Every later edge
    is then colored, as no later row joins roles 0 and 1.
    """
    hole = _require_single_hole(c)
    if len(set(placed)) != len(placed):
        raise StructuralError(f"{name} vertices must be distinct")
    e = _normalize_edge(placed[0], placed[1])
    if e != hole:
        raise StructuralError(
            f"{name} must start with the uncolored edge {hole}, "
            f"but its first {name} edge is {e}"
        )
    unmet = None
    for i in range(1, len(rows)):
        p, q, via = rows[i]
        u, v = placed[p], placed[q]
        try:
            color = c.color(u, v)
        except KeyError:
            raise StructuralError(f"{name} edge ({u}, {v}) not in graph") from None
        if unmet is None:
            for r in via:
                if c.missing_mask(placed[r]) >> color & 1:
                    break
            else:
                unmet = i
    return unmet


def _check_rows(
    c: PartialEdgeColoring, rows: tuple, placed: tuple[int, ...], name: str
) -> None:
    """:func:`_unmet_row` for a shape that every row defines: an unmet
    row means ``placed`` is not the shape at all."""
    i = _unmet_row(c, rows, placed, name)
    if i is not None:
        p, q, via = rows[i]
        u, v = placed[p], placed[q]
        earlier = ", ".join(str(placed[r]) for r in via)
        raise StructuralError(
            f"color {c.color(u, v)} of {name} edge ({u}, {v}) is not missed "
            f"earlier in the {name}, by any of vertices {earlier}"
        )


def _grow(c: PartialEdgeColoring, placed: list[int], rows: tuple) -> list[int]:
    """Fill the rows after ``placed`` greedily, each with the smallest
    (color, vertex) step, until a row has no step or none is left.  Each
    remaining row grows a new role from an earlier one."""
    for p, _, via in rows[len(placed) - 1:]:
        mask = 0
        for r in via:
            mask |= c.missing_mask(placed[r])
        step = [w for w in c.partners(placed[p], mask) if w not in placed]
        if not step:
            break
        placed.append(step[0])
    return placed


# ---------------------------------------------------------------------------
# Multifans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Multifan:
    """A fan at ``center``: spokes y1..yp, the first joined by the hole.

    Every later spoke's edge color is missed by some earlier spoke, which
    is what makes the rotation arguments on fans sound.
    """

    center: int
    spokes: tuple[int, ...]
    _found_on: PartialEdgeColoring | None = field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def vertices(self) -> tuple[int, ...]:
        return (self.center,) + self.spokes

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        x = self.center
        return tuple(_normalize_edge(x, y) for y in self.spokes)


@cache
def _multifan_rows(vertices: int) -> tuple:
    """A multifan as rows for :func:`_unmet_row`: role 0 is the center,
    role i is spoke yi, and each spoke edge after the hole carries a color
    missed at an earlier spoke."""
    return tuple((0, i, tuple(range(1, i))) for i in range(1, vertices))


def grow_multifan(c: PartialEdgeColoring, center: int | None = None) -> Multifan:
    """Grow a maximal multifan at one endpoint of the uncolored edge.

    ``center`` defaults to the lower endpoint of the hole.  Among the
    spokes that could be appended next, the one with the smallest
    (color, vertex) pair wins, so growth is deterministic.
    """
    hole = _require_single_hole(c)
    if center is None:
        center = hole[0]
    if center not in hole:
        raise StructuralError(f"center {center} must be an endpoint of {hole}")
    y1 = hole[1] if hole[0] == center else hole[0]
    rows = _multifan_rows(c.graph.degree(center) + 1)
    x, *spokes = _grow(c, [center, y1], rows)
    return _found(Multifan(x, tuple(spokes)), c)


def _check_multifan_structure(c: PartialEdgeColoring, f: Multifan) -> None:
    if f._found_on is c:
        return
    if not f.spokes:
        raise StructuralError("multifan needs at least one spoke")
    _check_rows(c, _multifan_rows(len(f.vertices)), f.vertices, "fan")


def validate_multifan(c: PartialEdgeColoring, f: Multifan) -> Verdict:
    """Check fan elementarity and center-to-spoke chain linkage.

    On a host whose hole is a critical edge the fan's vertex set has
    pairwise disjoint missing sets, and for every color pair (one missing
    at the center, one at a spoke) the two vertices end the same chain.
    """
    _check_multifan_structure(c, f)
    conflict = c.elementary_conflict(f.vertices)
    if conflict is not None:
        u, v, color = conflict
        return Verdict(
            VIOLATION,
            f"fan vertices {u} and {v} share missing color {color}",
        )
    x = f.center
    for alpha in c.missing(x):
        for y in f.spokes:
            for beta in c.missing(y):
                if not c.linked(x, y, alpha, beta):
                    return Verdict(
                        VIOLATION,
                        f"center {x} and spoke {y} are not ({alpha}, {beta})-linked",
                    )
    return Verdict(OK)


# ---------------------------------------------------------------------------
# Alpha-sequence decomposition of a multifan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlphaSequenceDecomposition:
    """Partition of a fan's missing colors by the seed color that induces them.

    Every spoke beyond the first hangs off the unique earlier vertex that
    misses its edge color; following those hooks back leads to a spoke
    whose edge color is missed by the first spoke, and that color is the
    class seed.  ``parent`` records the hooks (roots hang off the first
    spoke), ``induced_by`` maps every missing color of the spokes to its
    seed, and precedence compares colors within one class by ancestry.
    Missing colors of the center sit outside every class by disjointness.
    """

    center: int
    spokes: tuple[int, ...]
    parent: dict[int, int]
    seed_of_vertex: dict[int, int]
    induced_by: dict[int, int]
    vertex_of_color: dict[int, int]
    classes: dict[int, tuple[int, ...]]

    def precedes(self, first: int, second: int) -> bool:
        """True when both colors share a seed and ``first`` is induced
        strictly earlier (at a proper ancestor in the hook forest)."""
        if first == second:
            return False
        a = self.induced_by.get(first)
        b = self.induced_by.get(second)
        if a is None or b is None or a != b:
            return False
        u = self.vertex_of_color[first]
        v = self.vertex_of_color[second]
        while v in self.parent:
            v = self.parent[v]
            if v == u:
                return True
        return False


def alpha_decompose(c: PartialEdgeColoring, f: Multifan) -> AlphaSequenceDecomposition:
    """Decompose the fan's missing colors into their inducing classes.

    Requires an elementary fan; without disjoint missing sets the hooks
    are not unique and there is nothing coherent to decompose.
    """
    _check_multifan_structure(c, f)
    conflict = c.elementary_conflict(f.vertices)
    if conflict is not None:
        raise StructuralError(
            f"fan is not elementary ({conflict[0]} and {conflict[1]} share "
            f"missing color {conflict[2]}); decomposition is not unique"
        )
    return _decompose(c, f)


def _decompose(c: PartialEdgeColoring, f: Multifan) -> AlphaSequenceDecomposition:
    """:func:`alpha_decompose` on a fan already checked to be elementary."""
    x = f.center
    y1 = f.spokes[0]
    vertex_of_color: dict[int, int] = {}
    for y in f.spokes:
        for color in c.missing(y):
            vertex_of_color[color] = y
    parent: dict[int, int] = {}
    seed_of_vertex: dict[int, int] = {}
    for y in f.spokes[1:]:
        spoke_color = c.color(x, y)
        holder = parent[y] = vertex_of_color[spoke_color]
        seed_of_vertex[y] = spoke_color if holder == y1 else seed_of_vertex[holder]
    induced_by: dict[int, int] = {}
    for color in c.missing(y1):
        induced_by[color] = color
    for y in f.spokes[1:]:
        for color in c.missing(y):
            induced_by[color] = seed_of_vertex[y]
    classes: dict[int, list[int]] = {}
    for y in f.spokes[1:]:
        classes.setdefault(seed_of_vertex[y], []).append(y)
    return AlphaSequenceDecomposition(
        center=x,
        spokes=f.spokes,
        parent=parent,
        seed_of_vertex=seed_of_vertex,
        induced_by=induced_by,
        vertex_of_color=vertex_of_color,
        classes={seed: tuple(members) for seed, members in classes.items()},
    )


def validate_fan_linkage(c: PartialEdgeColoring, f: Multifan) -> Verdict:
    """Cross-class colors must be linked; in-class failures must pass the center.

    For missing colors at two different spokes: different seeds force the
    two spokes onto one chain, and with a shared seed where the first
    color is induced earlier, an unlinked pair forces the center onto the
    chain ending at the later color's spoke.  Seeds exist only in an
    elementary fan (see :func:`alpha_decompose`), so a fan whose missing
    sets overlap is ``inapplicable``.
    """
    _check_multifan_structure(c, f)
    if not c.is_elementary(f.vertices):
        return Verdict(INAPPLICABLE, "fan is not elementary")
    dec = _decompose(c, f)
    x = f.center
    spokes = f.spokes
    missing = [c.missing(y) for y in spokes]
    for i, yi in enumerate(spokes):
        for delta in missing[i]:
            for j, yj in enumerate(spokes):
                if i == j:
                    continue
                for lam in missing[j]:
                    if dec.induced_by[delta] != dec.induced_by[lam]:
                        if not c.linked(yi, yj, delta, lam):
                            return Verdict(
                                VIOLATION,
                                f"colors {delta} at {yi} and {lam} at {yj} have "
                                f"different seeds but are not linked",
                            )
                    elif dec.precedes(delta, lam):
                        if not c.linked(yi, yj, delta, lam):
                            if not c.linked(yj, x, lam, delta):
                                return Verdict(
                                    VIOLATION,
                                    f"unlinked same-seed colors {delta} at {yi}, "
                                    f"{lam} at {yj}: center {x} off the chain at {yj}",
                                )
    return Verdict(OK)


# ---------------------------------------------------------------------------
# Kierstead paths
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KiersteadPath:
    """A path v0..vp from the uncolored edge v0v1, each later edge's
    color missed by a vertex at least two positions back."""

    vertices: tuple[int, ...]
    _found_on: PartialEdgeColoring | None = field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        vs = self.vertices
        return tuple(_normalize_edge(vs[i], vs[i + 1]) for i in range(len(vs) - 1))


@cache
def _kierstead_rows(vertices: int) -> tuple:
    """A Kierstead path as rows for :func:`_unmet_row`: each edge after
    the hole carries a color missed at a vertex at least two positions
    back."""
    return tuple((i - 1, i, tuple(range(i - 1))) for i in range(1, vertices))


def _check_kierstead_structure(
    c: PartialEdgeColoring, vertices: tuple[int, ...]
) -> None:
    if len(vertices) < 2:
        raise StructuralError("a Kierstead path needs at least the uncolored edge")
    _check_rows(c, _kierstead_rows(len(vertices)), vertices, "path")


def _check_path(c: PartialEdgeColoring, k: KiersteadPath) -> None:
    """:func:`_check_kierstead_structure`, skipped for a path found on ``c``."""
    if k._found_on is not c:
        _check_kierstead_structure(c, k.vertices)


def kierstead_paths(c: PartialEdgeColoring, vertices: int) -> list[KiersteadPath]:
    """All Kierstead paths with exactly that many vertices, both
    orientations of the uncolored edge, in lexicographic growth order."""
    if not 2 <= vertices <= 5:
        raise ValueError("supported path sizes are 2..5 vertices")
    rows = _kierstead_rows(vertices)
    return [_found(KiersteadPath(p), c) for p in _embeddings(c, rows)]


def grow_kierstead(
    c: PartialEdgeColoring, seed: tuple[int, ...] | KiersteadPath
) -> KiersteadPath:
    """Greedily extend a valid seed path to at most five vertices.

    At each step the smallest (color, vertex) continuation wins, mirroring
    the fan growth rule.  The seed itself is validated first.
    """
    vertices = tuple(seed.vertices if isinstance(seed, KiersteadPath) else seed)
    _check_kierstead_structure(c, vertices)
    grown = _grow(c, list(vertices), _kierstead_rows(5))
    return _found(KiersteadPath(tuple(grown)), c)


def validate_kierstead4(c: PartialEdgeColoring, k: KiersteadPath) -> Verdict:
    """Near-elementarity of a 4-vertex Kierstead path.

    If either middle vertex has submaximal degree the whole vertex set
    must be elementary, and the far endpoint shares at most one missing
    color with the uncolored edge's endpoints.
    """
    if len(k.vertices) != 4:
        raise StructuralError(f"expected 4 vertices, got {len(k.vertices)}")
    _check_path(c, k)
    g = c.graph
    delta = g.max_degree
    v0, v1, v2, v3 = k.vertices
    if min(g.degree(v1), g.degree(v2)) < delta:
        conflict = c.elementary_conflict(k.vertices)
        if conflict is not None:
            return Verdict(
                VIOLATION,
                f"interior degree below {delta} but {conflict[0]} and "
                f"{conflict[1]} share missing color {conflict[2]}",
            )
    shared = c.missing_mask(v3) & (c.missing_mask(v0) | c.missing_mask(v1))
    if shared.bit_count() > 1:
        return Verdict(
            VIOLATION,
            f"endpoint {v3} shares colors {_bits(shared)} with the "
            f"uncolored edge's endpoints",
        )
    return Verdict(OK)


# ---------------------------------------------------------------------------
# Degree conditions
# ---------------------------------------------------------------------------


def check_val(g: Graph, x: int, y: int) -> Verdict:
    """Adjacency count at a critical edge: x needs at least
    max_degree - d(y) + 1 neighbors of maximum degree besides y."""
    if not g.has_edge(x, y):
        raise StructuralError(f"edge ({x}, {y}) not in graph")
    delta = g.max_degree
    needed = delta - g.degree(y) + 1
    have = sum(1 for z in g.neighbors(x) if z != y and g.degree(z) == delta)
    if have < needed:
        return Verdict(
            VIOLATION,
            f"vertex {x} has {have} max-degree neighbors besides {y}, needs {needed}",
        )
    return Verdict(OK)


def check_degree_dichotomy(
    g: Graph,
    a: int,
    *,
    colorings: dict[tuple[int, int], list[PartialEdgeColoring]],
) -> Verdict:
    """Low-degree anchor forces a degree gap, plus a missing-color bound.

    Inapplicable unless 3·d(a) <= 2·max_degree - n + 2.  Then every other
    vertex must have degree >= max_degree - d(a) + 1 or
    <= n - max_degree + 2·d(a) - 6, and each high-degree vertex shares at
    most one missing color with {a, b} under each coloring of the graph
    minus an edge ab to a max-degree neighbor b.  Those colorings are
    ``colorings[(min(a, b), max(a, b))]``; an edge missing from the dict
    contributes none.  StructuralError for an anchor that is not a vertex.
    """
    n = g.n
    if not 0 <= a < n:
        raise StructuralError(f"anchor {a} not a vertex of the graph")
    delta = g.max_degree
    da = g.degree(a)
    if 3 * da > 2 * delta - n + 2:
        return Verdict(INAPPLICABLE, f"anchor degree {da} above the bound")
    high = delta - da + 1
    low = n - delta + 2 * da - 6
    for v in range(n):
        if v == a:
            continue
        dv = g.degree(v)
        if not (dv >= high or dv <= low):
            return Verdict(
                VIOLATION,
                f"vertex {v} has degree {dv}, outside >= {high} and <= {low}",
            )
    for b in g.neighbors(a):
        if g.degree(b) != delta:
            continue
        for phi in colorings.get(_normalize_edge(a, b), ()):
            shared_ab = phi.missing_mask(a) | phi.missing_mask(b)
            for v in range(n):
                if v == a or g.degree(v) < high:
                    continue
                if (phi.missing_mask(v) & shared_ab).bit_count() > 1:
                    return Verdict(
                        VIOLATION,
                        f"vertex {v} shares two missing colors with the ends "
                        f"of ({a}, {b})",
                    )
    return Verdict(OK)


# ---------------------------------------------------------------------------
# Forks, short-kites, kites
# ---------------------------------------------------------------------------

# Each shape's edges as (p, q, via): the color of edge pq must be missed
# at one of the ``via`` roles, and the uncolored edge ab has no ``via``.
# The fork's last two rows close its tip edges again: its cross rule, each
# tip missing the other branch's tip-edge color.  Its one rule beyond the
# rows, branches in increasing order, is :data:`_FORK_ASCENDING` below.
_SHAPES = {
    "fork": (
        ("a", "b", ()),
        ("b", "u", ("a",)),
        ("u", "s1", ("a", "b")),
        ("u", "s2", ("a", "b")),
        ("s1", "t1", ("a", "b")),
        ("s2", "t2", ("a", "b")),
        ("s1", "t1", ("t2",)),
        ("s2", "t2", ("t1",)),
    ),
    "kite": (
        ("a", "b", ()),
        ("a", "c", ("b",)),
        ("b", "u", ("a",)),
        ("c", "u", ("a", "b")),
        ("u", "s1", ("a", "b")),
        ("u", "s2", ("a", "b", "c")),
        ("s1", "t1", ("a", "b", "u")),
        ("s2", "t2", ("a", "b", "c", "u")),
    ),
}
# A short-kite is the kite's first six rows with s1 and s2 named x and y,
# so every kite extends a short-kite.
_SHAPES["short-kite"] = tuple(
    (p, {"s1": "x", "s2": "y"}.get(q, q), via) for p, q, via in _SHAPES["kite"][:6]
)
# Role names of each kind in the order its finder fills them.
_ROLE_NAMES = {
    kind: tuple(dict.fromkeys(name for p, q, _ in edges for name in (p, q)))
    for kind, edges in _SHAPES.items()
}
# The same tables in role indices, as :func:`_embeddings` and
# :func:`_unmet_row` read them.
_SHAPE_ROWS = {
    kind: tuple(
        (names.index(p), names.index(q), tuple(names.index(r) for r in via))
        for p, q, via in _SHAPES[kind]
    )
    for kind, names in _ROLE_NAMES.items()
}


# The fork's branches come in increasing order, s1 < s2.  The finder
# rejects a smaller s2 as soon as it is placed, before growing its tips.
_FORK_ASCENDING = (_ROLE_NAMES["fork"].index("s1"), _ROLE_NAMES["fork"].index("s2"))


@dataclass(frozen=True)
class ForkLike:
    """A named embedding of one of the three branched configurations."""

    kind: str
    roles: tuple[tuple[str, int], ...]
    _found_on: PartialEdgeColoring | None = field(
        default=None, init=False, compare=False, repr=False
    )

    @property
    def role_map(self) -> dict[str, int]:
        return dict(self.roles)

    def vertex(self, name: str) -> int:
        return self.role_map[name]

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        m = self.role_map
        edges = (_normalize_edge(m[p], m[q]) for p, q, _ in _SHAPES[self.kind])
        return tuple(dict.fromkeys(edges))


def find_forklike(c: PartialEdgeColoring, kind: str) -> list[ForkLike]:
    """Exhaustively list embeddings of the requested configuration.

    Every kind is found from its rows: forks with their full color
    constraints, the cross rule included, and short-kites and kites with
    the alternating-path conditions their validators assume.  The one
    rule beyond the rows puts fork branches in increasing order.  Both
    orientations of the uncolored edge are tried, and the result order is
    fixed by the growth order of the role tuples.
    """
    if kind not in _SHAPES:
        raise ValueError(f"unknown kind {kind!r}")
    ascending = _FORK_ASCENDING if kind == "fork" else (-1, -1)
    found = _embeddings(c, _SHAPE_ROWS[kind], ascending)
    names = _ROLE_NAMES[kind]
    return [_found(ForkLike(kind, tuple(zip(names, f))), c) for f in found]


def _forklike_failure(c: PartialEdgeColoring, fl: ForkLike, kind: str) -> str | None:
    """The first row, in table order, whose color is missed at none of
    its ``via`` roles, or None when every shape condition holds.  Raises
    StructuralError when ``fl`` is not a ``kind`` skeleton."""
    if fl.kind != kind:
        raise StructuralError(f"expected a {kind}, got {fl.kind}")
    if fl._found_on is c:
        return None
    names = _ROLE_NAMES[kind]
    m = fl.role_map
    if len(fl.roles) != len(names) or set(m) != set(names):
        raise StructuralError(f"{kind} has the wrong role names")
    i = _unmet_row(c, _SHAPE_ROWS[kind], tuple(m[name] for name in names), kind)
    if i is None:
        return None
    p, q, via = _SHAPES[kind][i]
    if len(via) > 2:
        via = (", ".join(via[:-1]) + ",", via[-1])
    return f"{p}{q} color missed at {' or '.join(via)} fails"


def check_fork_exclusion(c: PartialEdgeColoring) -> Verdict:
    """No fork may exist whose degrees satisfy
    max_degree >= d(a) + d(t1) + d(t2) + 1; finding one is a violation."""
    g = c.graph
    delta = g.max_degree
    found = find_forklike(c, "fork")
    for fl in found:
        m = fl.role_map
        if delta >= g.degree(m["a"]) + g.degree(m["t1"]) + g.degree(m["t2"]) + 1:
            return Verdict(
                VIOLATION,
                f"fork at {m} with degree sum under the exclusion bound",
            )
    return Verdict(OK, f"{len(found)} forks, none under the degree bound")


def validate_shortkite(c: PartialEdgeColoring, sk: ForkLike) -> Verdict:
    """Both outer vertices sharing a missing color with the hole's
    endpoints forces one of them to have maximum degree."""
    failure = _forklike_failure(c, sk, "short-kite")
    if failure is not None:
        return Verdict(INAPPLICABLE, failure)
    g = c.graph
    m = sk.role_map
    ab_mask = c.missing_mask(m["a"]) | c.missing_mask(m["b"])
    if not (c.missing_mask(m["x"]) & ab_mask) or not (
        c.missing_mask(m["y"]) & ab_mask
    ):
        return Verdict(INAPPLICABLE, "an outer vertex shares no missing color")
    delta = g.max_degree
    if max(g.degree(m["x"]), g.degree(m["y"])) != delta:
        return Verdict(
            VIOLATION,
            f"outer degrees {g.degree(m['x'])}, {g.degree(m['y'])} both below {delta}",
        )
    return Verdict(OK)


def validate_kite(c: PartialEdgeColoring, kt: ForkLike) -> Verdict:
    """With equal tip-edge colors, the tips share at most four missing
    colors with the hole's endpoints."""
    failure = _forklike_failure(c, kt, "kite")
    if failure is not None:
        return Verdict(INAPPLICABLE, failure)
    m = kt.role_map
    if c.color(m["s1"], m["t1"]) != c.color(m["s2"], m["t2"]):
        return Verdict(INAPPLICABLE, "tip edges carry different colors")
    shared = (
        c.missing_mask(m["t1"])
        & c.missing_mask(m["t2"])
        & (c.missing_mask(m["a"]) | c.missing_mask(m["b"]))
    )
    if shared.bit_count() > 4:
        return Verdict(
            VIOLATION,
            f"tips share {shared.bit_count()} missing colors "
            f"{_bits(shared)} with the hole endpoints",
        )
    return Verdict(OK)
