"""Rewriting colorings along a five-vertex alternating path.

Given a five-vertex Kierstead path (a, b, u, s, t) anchored at the
uncolored edge ab, where t shares at least three missing colors with
{a, b}, the coloring can be rewritten by chain swaps so that the colors
of bu, us, st land in prescribed missing sets.  This module compiles
that rewriting argument into an interpreter: every branch performs the
literal swaps, every claimed chain condition is re-checked at runtime,
and the final state is validated against the target form.  A branch
whose claim fails does not crash the interpreter; it either re-enters
the case analysis (a bounded number of times) or surfaces as a dead-end
finding, which on a host with a certified critical edge would be
evidence against the argument itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coloring import PartialEdgeColoring
from .fans import (
    INAPPLICABLE,
    VIOLATION,
    KiersteadPath,
    StructuralError,
    _check_path,
    validate_kierstead4,
)
from .graph import _bits

__all__ = [
    "CANONICAL",
    "INAPPLICABLE",
    "VIOLATION",
    "DEAD_END",
    "CanonicalizeResult",
    "canonicalize_k5_path",
    "is_canonical",
]

CANONICAL = "canonical"
DEAD_END = "dead-end"

_MAX_ROUNDS = 8
_MAX_SWAPS = 64


@dataclass(frozen=True)
class CanonicalizeResult:
    """Outcome of one canonicalization attempt.

    ``coloring`` is attached whenever the target form was reached, even
    if the overall status is a degree violation; the status then records
    the stronger finding while the coloring keeps the rewrite checkable.
    """

    status: str
    coloring: PartialEdgeColoring | None
    detail: str
    transcript: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.status == CANONICAL


def is_canonical(c: PartialEdgeColoring, k: KiersteadPath) -> bool:
    """The target form: bu's color missed at a and t, us's missed at b
    and t, st's missed at a."""
    a, b, u, s, t = k.vertices
    bu = c.color(b, u)
    us = c.color(u, s)
    st = c.color(s, t)
    return bool(
        c.missing_mask(a) >> bu & 1
        and c.missing_mask(t) >> bu & 1
        and c.missing_mask(b) >> us & 1
        and c.missing_mask(t) >> us & 1
        and c.missing_mask(a) >> st & 1
    )


class _DeadEnd(Exception):
    pass


class _Interpreter:
    """One canonicalization attempt; mutates only its own coloring copy."""

    def __init__(self, c: PartialEdgeColoring, k: KiersteadPath) -> None:
        self.c = c
        self.k = k
        self.a, self.b, self.u, self.s, self.t = k.vertices
        self.role = dict(zip("abust", k.vertices))
        self.alpha = 0
        self.beta = 0
        self.transcript: list[str] = []
        self.swaps = 0

    # -- small helpers -----------------------------------------------------

    def _misses(self, v: int, color: int) -> bool:
        return bool(self.c.missing_mask(v) >> color & 1)

    def _color(self, u: int, v: int) -> int:
        return self.c.color(u, v)

    def _spend_swap(self) -> None:
        self.swaps += 1
        if self.swaps > _MAX_SWAPS:
            raise _DeadEnd("swap budget exhausted")

    def _swap_at(self, v: int, x: int, y: int, label: str) -> None:
        self._spend_swap()
        size = len(self.c.kempe_chain(v, x, y).vertices)
        self.c = self.c.swap(v, x, y)
        self.transcript.append(f"{label}: ({x},{y})-swap at {v}, {size} vertices")

    def _guard(self, condition: bool, claim: str) -> None:
        if not condition:
            raise _DeadEnd(f"guard failed: {claim}")

    def _on_chain(self, member: str, anchor: str, x: int, y: int) -> bool:
        """Whether role ``member`` lies on the (x,y)-chain at role ``anchor``."""
        return self.c.linked(self.role[anchor], self.role[member], x, y)

    # The two claims the case analysis keeps making; each builds its claim
    # text from the same roles and colors it tests.

    def _need_linked(self, p: str, q: str, x: int, y: int) -> None:
        self._guard(
            self.c.linked(self.role[p], self.role[q], x, y),
            f"{p}, {q} ({x},{y})-linked",
        )

    def _need_on_chain(self, member: str, anchor: str, x: int, y: int) -> None:
        self._guard(
            self._on_chain(member, anchor, x, y),
            f"{member} on the ({x},{y})-chain at {anchor}",
        )

    def _gamma_mask(self) -> int:
        return self.c.missing_mask(self.t) & (
            self.c.missing_mask(self.a) | self.c.missing_mask(self.b)
        )

    def _note(self, text: str) -> None:
        self.transcript.append(text)

    # -- target validation -------------------------------------------------

    def _settled(self, label: str) -> bool:
        """Terminal-branch check: accept if the target form holds now.

        A failed claim is logged and sends control back to the case
        analysis; the reruns are what close the branches whose final
        state still needs one more pass of us-edge normalization.
        """
        problems = self.c.check_proper()
        if problems:
            raise _DeadEnd(f"improper state after {label}: {problems[0]}")
        if is_canonical(self.c, self.k):
            self._note(f"{label}: target form reached")
            return True
        self._note(f"{label}: claimed final state fails validation, re-entering")
        return False

    # -- phase A: put one shared color on each side of the uncolored edge --

    def _split_shared_colors(self) -> None:
        gamma = self._gamma_mask()
        on_a = gamma & self.c.missing_mask(self.a)
        on_b = gamma & self.c.missing_mask(self.b)
        if not (on_a and on_b):
            # Swap at the endpoint that holds no shared color.
            side = "b" if on_a else "a"
            v = self.role[side]
            lam_mask = self.c.missing_mask(v)
            self._guard(lam_mask != 0, f"a color is missing at {side}")
            self._swap_at(v, _bits(gamma)[0], _bits(lam_mask)[0], "split")
            gamma = self._gamma_mask()
            on_a = gamma & self.c.missing_mask(self.a)
            on_b = gamma & self.c.missing_mask(self.b)
            self._guard(
                bool(on_a and on_b),
                "shared colors split across both endpoints after one swap",
            )
        # On a host where a and b share missing colors the low picks can
        # coincide; two distinct picks always exist because the shared
        # set has at least three colors, each on one side or the other.
        self.alpha = _bits(on_a)[0]
        if on_b & ~(1 << self.alpha):
            self.beta = _bits(on_b & ~(1 << self.alpha))[0]
        else:
            self.beta = self.alpha
            rest = on_a & ~(1 << self.beta)
            self._guard(rest != 0, "distinct shared colors for the two sides")
            self.alpha = _bits(rest)[0]
        self._note(f"picked alpha={self.alpha}, beta={self.beta}")

    # -- phase B: make bu carry alpha --------------------------------------

    def _normalize_bu(self) -> None:
        delta = self._color(self.b, self.u)
        if delta == self.alpha:
            return
        self._guard(self._misses(self.a, delta), "bu color missing at a")
        self._swap_at(self.t, self.beta, delta, "bu-normalize")
        self._swap_at(self.t, self.alpha, self.beta, "bu-normalize")
        self._note(f"alpha renamed to {delta}")
        self.alpha = delta

    def _check_invariant(self) -> None:
        self._guard(
            self._color(self.b, self.u) == self.alpha
            and self._misses(self.a, self.alpha)
            and self._misses(self.t, self.alpha)
            and self._misses(self.b, self.beta)
            and self._misses(self.t, self.beta),
            "bu carries alpha and alpha, beta stay missing where required",
        )

    # -- us-edge routes ----------------------------------------------------

    def _dispatch(self) -> bool:
        us = self._color(self.u, self.s)
        if self._misses(self.b, us):
            return self._us_on_b_side(us)
        if self._misses(self.a, us):
            return self._us_on_a_side(us)
        raise _DeadEnd("us color missed by neither end of the uncolored edge")

    def _us_on_b_side(self, tau: int) -> bool:
        u, s, t = self.u, self.s, self.t
        if tau != self.beta:
            if not self.c.linked(t, u, self.beta, tau):
                self._spend_swap()
                self.c = self.c.swap(t, self.beta, tau)
                self._note(f"us-route: ({self.beta},{tau})-swap at {t}")
                self._guard(
                    self._misses(self.t, tau)
                    and self._misses(self.b, tau)
                    and self._color(u, s) == tau,
                    "tau missing at b and t with us untouched",
                )
                self._note(f"beta renamed to {tau}")
                self.beta = tau
            else:
                self._swap_at(t, self.beta, tau, "us-route-hard")
                self._swap_at(t, self.alpha, self.beta, "us-route-hard")
                self._swap_at(t, self.alpha, tau, "us-route-hard")
                self._guard(
                    self._color(u, s) == self.beta
                    and self._misses(self.t, self.alpha)
                    and self._misses(self.t, self.beta),
                    "us recolored to beta with alpha, beta back at t",
                )
        gamma = self._color(s, t)
        if self._misses(self.a, gamma):
            return self._settled("us-route")
        raise _DeadEnd(self._shifted_path_contradiction(gamma))

    def _shifted_path_contradiction(self, gamma: int) -> str:
        """The argument here derives a contradiction: color ab, open bu,
        and the shifted four-vertex path breaks near-elementarity.
        Reproduce that derivation so the dead-end report is checkable.
        The shift is the hole move from ab along alpha at b.  It needs the
        invariant (bu carries alpha, alpha missing at a), which the hard
        us-route need not restore on a host whose hole is not critical."""
        self._check_invariant()
        shifted = self.c.copy()
        shifted._move_hole(self.b, self.alpha)
        try:
            verdict = validate_kierstead4(shifted, KiersteadPath(self.k.vertices[1:]))
            outcome = f"its near-elementarity check returns {verdict.status}"
            if verdict.detail:
                outcome += f" ({verdict.detail})"
        except StructuralError as exc:
            outcome = f"it is not even a valid path ({exc})"
        return (
            f"st carries {gamma}, missed by neither a nor b; coloring ab and "
            f"opening bu shifts the path to (b,u,s,t) and {outcome}"
        )

    def _us_on_a_side(self, delta: int) -> bool:
        self._guard(delta != self.beta, "us color distinct from beta")
        gamma = self._color(self.s, self.t)
        self._guard(
            gamma not in (self.alpha, delta), "st color distinct from alpha, delta"
        )
        if self._misses(self.b, gamma):
            return self._case_st_on_b(delta, gamma)
        if self._misses(self.u, gamma):
            return self._case_st_on_u(delta, gamma)
        if self._misses(self.a, gamma):
            return self._case_st_on_a(delta, gamma)
        raise _DeadEnd("st color missed by none of a, b, u")

    # -- case: st color missed at b ----------------------------------------

    def _case_st_on_b(self, delta: int, gamma: int) -> bool:
        a, t = self.a, self.t
        self._need_linked("a", "b", delta, self.beta)
        if self._on_chain("u", "a", self.beta, delta):
            self._swap_at(t, self.beta, delta, "st-on-b")
            self._need_linked("a", "b", delta, gamma)
            self._need_on_chain("u", "t", delta, gamma)
            self._swap_at(a, delta, gamma, "st-on-b")
            return self._settled("st-on-b")
        self._swap_at(a, self.beta, delta, "st-on-b-offchain")
        self._swap_at(a, self.beta, gamma, "st-on-b-offchain")
        return self._settled("st-on-b-offchain")

    # -- case: st color missed at u ----------------------------------------

    def _case_st_on_u(self, delta: int, gamma: int) -> bool:
        a, t = self.a, self.t
        self._need_linked("b", "u", self.beta, gamma)
        if self._misses(t, delta):
            self._swap_at(t, self.beta, gamma, "st-on-u")
            self._need_on_chain("u", "t", delta, self.beta)
            self._swap_at(a, self.beta, delta, "st-on-u")
            return self._settled("st-on-u")
        self._need_linked("a", "u", delta, gamma)
        self._swap_at(t, self.beta, gamma, "st-on-u-far")
        self._swap_at(t, gamma, delta, "st-on-u-far")
        self._need_on_chain("u", "t", self.beta, delta)
        self._swap_at(a, self.beta, delta, "st-on-u-far")
        return self._settled("st-on-u-far")

    # -- case: st color missed at a ----------------------------------------

    def _case_st_on_a(self, delta: int, gamma: int) -> bool:
        a, b, t, u = self.a, self.b, self.t, self.u
        if self._misses(t, delta):
            self._need_linked("a", "b", gamma, self.beta)
            self._swap_at(t, self.beta, gamma, "st-on-a")
            self._need_linked("a", "b", delta, self.beta)
            self._swap_at(a, self.beta, delta, "st-on-a")
            return self._settled("st-on-a")
        third = self._gamma_mask() & ~(1 << self.alpha) & ~(1 << self.beta)
        self._guard(third != 0, "a third shared color exists for this case")
        tau = _bits(third)[0]
        self._note(f"third shared color tau={tau}")
        if self._misses(u, tau):
            self._need_linked("a", "u", tau, delta)
            self._swap_at(t, tau, delta, "st-on-a-tau-u")
            return False
        if self._misses(b, tau):
            self._need_linked("a", "b", delta, tau)
            if not self._on_chain("u", "a", tau, delta):
                self._swap_at(a, tau, delta, "st-on-a-tau-b-offchain")
                return self._settled("st-on-a-tau-b-offchain")
            self._swap_at(t, tau, delta, "st-on-a-tau-b")
            return False
        return self._tau_on_a(delta, gamma, tau)

    def _tau_on_a(self, delta: int, gamma: int, tau: int) -> bool:
        a, t = self.a, self.t
        alpha, beta = self.alpha, self.beta
        self._need_linked("a", "b", delta, beta)
        if not self._on_chain("u", "a", beta, delta):
            self._swap_at(a, beta, delta, "tau-on-a-long")
            self._need_linked("a", "b", alpha, delta)
            self._need_on_chain("u", "a", alpha, delta)
            self._swap_at(t, alpha, delta, "tau-on-a-long")
            self._need_on_chain("u", "t", gamma, delta)
            self._swap_at(a, gamma, delta, "tau-on-a-long")
            self._swap_at(t, beta, gamma, "tau-on-a-long")
            self._swap_at(t, gamma, alpha, "tau-on-a-long")
            self._need_linked("a", "b", tau, gamma)
            self._swap_at(t, tau, gamma, "tau-on-a-long")
            self._swap_at(a, beta, gamma, "tau-on-a-long")
            self._need_on_chain("u", "t", beta, delta)
            self._swap_at(a, beta, delta, "tau-on-a-long")
            return self._settled("tau-on-a-long")
        self._swap_at(t, beta, delta, "tau-on-a-short")
        self._swap_at(t, tau, beta, "tau-on-a-short")
        self._swap_at(a, beta, gamma, "tau-on-a-short")
        self._swap_at(a, gamma, delta, "tau-on-a-short")
        return self._settled("tau-on-a-short")

    # -- driver ------------------------------------------------------------

    def run(self) -> CanonicalizeResult:
        try:
            self._split_shared_colors()
            self._normalize_bu()
            self._check_invariant()
            for _ in range(_MAX_ROUNDS):
                if self._dispatch():
                    return CanonicalizeResult(
                        CANONICAL, self.c, "", tuple(self.transcript)
                    )
                self._check_invariant()
            raise _DeadEnd("case analysis did not converge")
        except _DeadEnd as exc:
            return CanonicalizeResult(
                DEAD_END, None, str(exc), tuple(self.transcript)
            )


def canonicalize_k5_path(
    c: PartialEdgeColoring, k: KiersteadPath
) -> CanonicalizeResult:
    """Rewrite the coloring so the path's three colored edges land in the
    target missing sets, or report why not.

    Outcomes: ``canonical`` (new coloring attached, target form
    machine-checked), ``inapplicable`` (t shares fewer than three missing
    colors with {a, b}), ``violation`` (b or u has submaximal degree,
    which the same path forbids on a critical edge), or ``dead-end`` (a
    branch's runtime claim failed; the detail names it).

    The rewrite runs before the degree assertion, mirroring the order of
    the underlying argument; a degree violation is reported afterwards,
    with the rewritten coloring still attached if the target form was
    reached along the way.
    """
    if len(k.vertices) != 5:
        raise StructuralError(f"expected 5 vertices, got {len(k.vertices)}")
    _check_path(c, k)
    a, b, u, s, t = k.vertices
    shared = c.missing_mask(t) & (c.missing_mask(a) | c.missing_mask(b))
    if shared.bit_count() < 3:
        return CanonicalizeResult(
            INAPPLICABLE,
            None,
            f"t shares only {shared.bit_count()} missing colors with the "
            f"uncolored edge's endpoints",
            (),
        )
    if is_canonical(c, k):
        result = CanonicalizeResult(CANONICAL, c, "already in target form", ())
    else:
        result = _Interpreter(c, k).run()
    g = c.graph
    delta = g.max_degree
    if g.degree(b) == delta and g.degree(u) == delta:
        return result
    detail = (
        f"interior degrees d(b)={g.degree(b)}, d(u)={g.degree(u)} "
        f"must both equal {delta}"
    )
    if result.status == CANONICAL:
        detail += "; the rewrite itself still reached the target form"
    else:
        detail += f"; rewrite outcome: {result.status}"
        if result.detail:
            detail += f" ({result.detail})"
    return CanonicalizeResult(
        VIOLATION, result.coloring, detail, result.transcript
    )
