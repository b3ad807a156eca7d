"""End-to-end acceptance sweep: one test and one summary line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary
lines as they print; without ``-s`` they still appear on any failure.
The expensive full-corpus census is computed once and shared by the
criteria that read it.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from time import perf_counter

import pytest

from chroma import (
    CensusConfig,
    Graph,
    chromatic_index,
    degree_condition,
    families,
    is_delta_critical,
    is_overfull,
    run_census,
    sample_colorings,
    to_graph6,
)


def _report(name: str, ok: bool, extra: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({extra})" if extra else ""
    print(f"[{tag}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


def _atlas_corpus() -> str:
    nx = pytest.importorskip("networkx")

    lines = []
    for G in nx.graph_atlas_g():
        if len(G) == 0 or not nx.is_connected(G):
            continue
        g = Graph(G.number_of_nodes(), G.edges())
        lines.append(to_graph6(g))
    lines.extend(to_graph6(g) for _, g in families.basic_fixtures())
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def atlas_report():
    corpus = _atlas_corpus()
    start = perf_counter()
    report = run_census(corpus, CensusConfig(seed=0, samples=100))
    return report, perf_counter() - start


def test_criterion_sharpness_fixture():
    start = perf_counter()
    g = families.petersen_minus_vertex()
    verdict = is_overfull(g)
    critical = is_delta_critical(g)
    chi = chromatic_index(g)
    elapsed = perf_counter() - start
    ok = (
        critical
        and chi.classification == "class2"
        and not verdict.is_overfull
        and verdict.excess == 0
        and g.n == 9
        and g.m == 12
        and g.max_degree == 3
        and g.max_degree * 3 == g.n
        and elapsed < 1.0
    )
    _report(
        "criterion 1: vertex-deleted Petersen is critical, class 2, "
        "not overfull",
        ok,
        f"{elapsed:.3f}s",
    )


def test_criterion_oracle_ground_truth():
    start = perf_counter()
    expected = [
        (families.cycle(3), 3), (families.cycle(4), 2),
        (families.cycle(5), 3), (families.cycle(6), 2),
        (families.cycle(7), 3), (families.cycle(8), 2),
        (families.cycle(9), 3),
        (families.complete(2), 1), (families.complete(3), 3),
        (families.complete(4), 3), (families.complete(5), 5),
        (families.complete(6), 5), (families.complete(7), 7),
        (families.petersen(), 4),
    ]
    mistakes = [
        (g.n, g.m, got.chi_prime, want)
        for g, want in expected
        if (got := chromatic_index(g)).chi_prime != want
    ]
    elapsed = perf_counter() - start
    _report(
        "criterion 2: chromatic index matches classical values on cycles, "
        "cliques, and Petersen",
        not mistakes and elapsed < 30.0,
        f"{len(expected)} graphs, {elapsed:.2f}s"
        + (f", mistakes: {mistakes}" if mistakes else ""),
    )


def test_criterion_boundary_margin_fixture():
    g = families.subdivided_complete(4)
    hypothesis, margin = degree_condition(g)
    verdict = is_overfull(g)
    ok = (
        hypothesis
        and margin == Fraction(0)
        and isinstance(margin, Fraction)
        and is_delta_critical(g)
        and verdict.is_overfull
        and verdict.excess == 1
        and g.m == 7
        and g.max_degree * (g.n // 2) == 6
    )
    _report(
        "criterion 3: subdivided four-clique sits exactly on the degree "
        "condition boundary",
        ok,
        f"margin={margin!r}, excess={verdict.excess}",
    )


def test_criterion_full_corpus_sweep(atlas_report):
    report, elapsed = atlas_report
    bad = []
    for rec in report.records:
        for suite, tally in rec["lemmas"].items():
            if tally["violations"] or tally.get("dead_ends", 0):
                bad.append((rec["graph6"], suite, tally))
    checked = sum(
        tally["checked"]
        for rec in report.records
        for tally in rec["lemmas"].values()
    )
    ok = (
        not bad
        and report.summary["violations"] == 0
        and report.summary["dead_ends"] == 0
        and report.summary["errors"] == 0
        and report.summary["graphs"] >= 1000
        and report.summary["critical"] >= 30
        and checked > 100_000
        and elapsed < 600.0
    )
    _report(
        "criterion 4: every validator clean across all connected graphs "
        "up to 7 vertices plus fixtures",
        ok,
        f"{report.summary['graphs']} graphs, {checked} checks, "
        f"{elapsed:.1f}s" + (f", findings: {bad[:3]}" if bad else ""),
    )


# SHA-256 of the timing-stripped atlas report (967,108 bytes).  A refactor
# that keeps answers must keep this hash; a change that alters the report
# on purpose updates it and says why.
ATLAS_REPORT_SHA256 = "d287ee6c04575810a827694f591997f319a9690885f755bee94834d5a1909993"


def test_atlas_report_bytes_pinned(atlas_report):
    report, _ = atlas_report
    text = report.to_json_lines(include_timings=False)
    assert hashlib.sha256(text.encode()).hexdigest() == ATLAS_REPORT_SHA256


def test_criterion_implication_sweep(atlas_report):
    report, _ = atlas_report
    imp = report.summary["implication"]
    ok = (
        imp["counterexample"] == 0
        and imp["holds"] >= 1
        and sum(imp.values()) == report.summary["graphs"]
    )
    _report(
        "criterion 5: no counterexample to the overfull implication, with "
        "non-vacuous instances",
        ok,
        f"holds={imp['holds']}, inapplicable={imp['inapplicable']}, "
        f"undecided={imp['undecided']}",
    )


def _mechanics_pool():
    pool = []
    for g in (
        families.cycle(5),
        families.cycle(7),
        families.subdivided_complete(4),
        families.petersen_minus_vertex(),
    ):
        pool.extend(sample_colorings(g, 3, seed=17))
    pool.append(chromatic_index(families.complete(4)).witness)
    pool.append(chromatic_index(families.petersen()).witness)
    return pool


def test_criterion_randomized_chain_mechanics():
    start = perf_counter()
    rng = random.Random(20260825)
    pool = _mechanics_pool()
    ops = 0
    while ops < 10_000:
        i = rng.randrange(len(pool))
        c = pool[i]
        g = c.graph
        v = rng.randrange(g.n)
        alpha, beta = rng.sample(range(1, c.k + 1), 2)
        kind = rng.random()
        if kind < 0.5:
            flipped = c.swap(v, alpha, beta)
            assert flipped.check_proper() == []
            assert flipped.hole == c.hole
            back = flipped.swap(v, alpha, beta)
            assert dict(back.edge_items()) == dict(c.edge_items())
            pool[i] = flipped
            ops += 2
        elif kind < 0.75:
            # Any vertex of the chain through v names the same exchange.
            w = rng.choice(c.kempe_chain(v, alpha, beta).vertices)
            out = c.swap(w, alpha, beta)
            assert out.check_proper() == []
            assert out.hole == c.hole
            back = out.swap(v, alpha, beta)
            assert dict(back.edge_items()) == dict(c.edge_items())
            pool[i] = out
            ops += 1
        else:
            w = rng.randrange(g.n)
            assert c.linked(v, w, alpha, beta) == c.linked(w, v, alpha, beta)
            assert c.linked(v, v, alpha, beta)
            ops += 1
    elapsed = perf_counter() - start
    _report(
        "criterion 6: ten thousand randomized chain operations preserve "
        "properness, with swaps involutive",
        True,
        f"{ops} operations, {elapsed:.2f}s",
    )


def test_criterion_report_determinism(fixture_corpus):
    config = CensusConfig(seed=0, samples=100)
    first = run_census(fixture_corpus, config)
    second = run_census(fixture_corpus, config)
    a = first.to_json_lines(include_timings=False)
    b = second.to_json_lines(include_timings=False)
    _report(
        "criterion 7: identical configurations produce byte-identical "
        "timing-stripped reports",
        a == b,
        f"{len(a)} bytes, {first.summary['graphs']} graphs",
    )
