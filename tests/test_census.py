"""Census records, tallies, determinism, witnesses, and serialization."""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import chroma.census
import chroma.fans
import chroma.graph
import chroma.kpath5
import chroma.oracle
from chroma import (
    CANONICAL,
    CensusConfig,
    PartialEdgeColoring,
    Verdict,
    VIOLATION,
    examine_graph,
    families,
    run_census,
)

_SMALL = CensusConfig(seed=0, samples=5)


def _tally_sums_consistent(record: dict) -> None:
    for suite, tally in record["lemmas"].items():
        parts = tally["ok"] + tally["inapplicable"] + tally["violations"]
        parts += tally.get("dead_ends", 0)
        assert tally["checked"] == parts, suite


def test_examine_cycle_record():
    ex = examine_graph("Dhc", _SMALL)
    rec = ex.record
    assert ex.witnesses == []
    assert rec["graph6"] == "Dhc"
    assert (rec["n"], rec["edge_count"]) == (5, 5)
    assert (rec["max_degree"], rec["min_degree"]) == (2, 2)
    assert (rec["chi_prime"], rec["class"]) == (3, "class2")
    assert rec["is_critical"] is True
    assert rec["overfull"] == {
        "is_overfull": True,
        "excess": 1,
        "hypothesis": False,
        "hypothesis_margin": "-1",
    }
    assert rec["theorem1"]["status"] == "inapplicable"
    assert "margin -1" in rec["theorem1"]["detail"]
    lemmas = rec["lemmas"]
    assert lemmas["val"] == {
        "checked": 10, "ok": 10, "inapplicable": 0, "violations": 0
    }
    assert lemmas["multifan"]["checked"] == 50
    assert lemmas["multifan"]["ok"] == 50
    assert lemmas["fan-linkage"]["ok"] == 50
    assert lemmas["kierstead4"]["ok"] == 50
    assert lemmas["kierstead5"] == {
        "checked": 50, "ok": 0, "inapplicable": 50,
        "violations": 0, "dead_ends": 0,
    }
    assert lemmas["degree-dichotomy"] == {
        "checked": 5, "ok": 0, "inapplicable": 5, "violations": 0
    }
    assert lemmas["fork"]["checked"] == 25
    assert lemmas["short-kite"]["checked"] == 0
    assert lemmas["parity"] == {
        "checked": 1, "ok": 1, "inapplicable": 0, "violations": 0
    }
    _tally_sums_consistent(rec)
    assert set(rec["timings"]) == {"classify_ms", "total_ms"}


def test_sampling_timeout_keeps_the_classification(monkeypatch):
    def expire(g, *args, **kwargs):
        raise chroma.oracle.OracleTimeout("forced")

    monkeypatch.setattr(chroma.oracle, "sample_colorings", expire)
    rec = examine_graph("Dhc", _SMALL).record
    assert rec["error"] == "oracle budget exceeded: sampling: forced"
    assert rec["is_critical"] and rec["theorem1"]["status"] == "inapplicable"
    # One walk samples every edge before any edge's suites run, so only
    # parity, which reads the classification's witness, checked anything.
    lemmas = rec["lemmas"]
    assert lemmas["parity"]["checked"] == 1
    assert all(lemmas[s]["checked"] == 0 for s in chroma.census.SUITES if s != "parity")
    _tally_sums_consistent(rec)


def test_classification_timeout_keeps_overfull(monkeypatch):
    def slow_timeout(g, *, timeout_ms):
        time.sleep(0.005)
        raise chroma.oracle.OracleTimeout("forced")

    monkeypatch.setattr(chroma.oracle, "chromatic_index", slow_timeout)
    rec = examine_graph("Dhc", _SMALL).record
    assert rec["error"] == "oracle budget exceeded: forced"
    assert rec["overfull"] == {
        "is_overfull": True,
        "excess": 1,
        "hypothesis": False,
        "hypothesis_margin": "-1",
    }
    assert "chi_prime" not in rec
    assert rec["timings"]["classify_ms"] >= 5
    assert all(t["checked"] == 0 for t in rec["lemmas"].values())


@pytest.mark.parametrize("oracle_call", ["chromatic_index", "is_delta_critical"])
def test_classification_timeout_still_decides_theorem1(monkeypatch, oracle_call):
    # "Dhc" (C5) misses the degree condition with margin -1, so the
    # implication is inapplicable with no oracle; "Bw" (K3) meets it with
    # margin 1/2, so expiry leaves the implication undecided.
    def expire(g, **kwargs):
        raise chroma.oracle.OracleTimeout("forced")

    monkeypatch.setattr(chroma.oracle, oracle_call, expire)
    report = run_census("Dhc\nBw\n", _SMALL)
    k3, dhc = report.records
    assert (k3["graph6"], dhc["graph6"]) == ("Bw", "Dhc")
    assert dhc["theorem1"] == {
        "status": "inapplicable",
        "detail": "degree condition fails with margin -1",
    }
    assert k3["theorem1"] == {
        "status": "undecided",
        "detail": "criticality undecided: forced",
    }
    for rec in report.records:
        assert rec["error"] == "oracle budget exceeded: forced"
        assert list(rec)[-5:] == ["overfull", "theorem1", "lemmas", "error", "timings"]
    summary = report.summary
    assert summary["errors"] == summary["graphs"] == 2
    assert summary["implication"] == {
        "holds": 0, "counterexample": 0, "inapplicable": 1, "undecided": 1
    }
    assert sum(summary["implication"].values()) == summary["graphs"]


def test_examine_class_one_graph_runs_no_suites():
    rec = examine_graph("C~", _SMALL).record
    assert (rec["chi_prime"], rec["class"]) == (3, "class1")
    assert rec["is_critical"] is False
    for suite, tally in rec["lemmas"].items():
        expected = 1 if suite == "parity" else 0
        assert tally["checked"] == expected, suite
    _tally_sums_consistent(rec)


def test_examine_edgeless_graph():
    rec = examine_graph("@", _SMALL).record
    assert (rec["chi_prime"], rec["class"]) == (0, "class1")
    assert rec["is_critical"] is False
    assert rec["overfull"]["hypothesis"] is True
    assert rec["overfull"]["hypothesis_margin"] == "7/2"
    assert rec["theorem1"]["status"] == "inapplicable"
    assert all(t["checked"] == 0 for t in rec["lemmas"].values())


def test_examine_empty_graph():
    rec = examine_graph("?", _SMALL).record
    assert (rec["n"], rec["max_degree"], rec["min_degree"], rec["edge_count"]) == (0, 0, 0, 0)
    assert (rec["chi_prime"], rec["class"]) == (0, "class1")
    assert rec["is_critical"] is False
    assert rec["overfull"] is None
    assert rec["theorem1"] == {"status": "inapplicable", "detail": "empty graph"}
    assert all(t["checked"] == 0 for t in rec["lemmas"].values())
    assert "error" not in rec
    summary = run_census("?\n", _SMALL).summary
    assert (summary["graphs"], summary["class1"], summary["overfull"]) == (1, 1, 0)
    assert summary["implication"]["inapplicable"] == 1


def test_examine_rejects_bad_line():
    with pytest.raises(ValueError, match="graph6"):
        examine_graph("C", _SMALL)


def test_run_census_sorts_and_summarizes():
    report = run_census("C~\nBw\n", CensusConfig(seed=0, samples=3))
    assert [r["graph6"] for r in report.records] == ["Bw", "C~"]
    assert report.summary["graphs"] == 2
    assert report.summary["class1"] == 1
    assert report.summary["class2"] == 1
    assert report.summary["critical"] == 1
    assert report.summary["overfull"] == 1
    assert report.summary["violations"] == 0
    assert report.summary["dead_ends"] == 0
    assert report.summary["errors"] == 0
    # The triangle meets the degree condition, is critical, and is
    # overfull, so the implication holds non-vacuously there.
    assert report.summary["implication"] == {
        "holds": 1, "counterexample": 0, "inapplicable": 1, "undecided": 0
    }
    assert report.metadata["seed"] == 0
    assert report.metadata["samples"] == 3
    assert report.metadata["sampler"] == chroma.oracle.SAMPLER == "kempe-hole-walk-s3"
    assert not report.has_findings


def test_run_census_ignores_comments_in_hash():
    plain = run_census("Bw\n", CensusConfig(samples=1))
    commented = run_census("# note\n\nBw\n", CensusConfig(samples=1))
    assert plain.metadata["corpus_hash"] == commented.metadata["corpus_hash"]
    assert len(plain.records) == len(commented.records) == 1


def test_run_census_accepts_an_iterable_of_lines(tmp_path):
    config = CensusConfig(seed=0, samples=2)
    text = run_census("Dhc\nBw\n", config).to_json_lines(include_timings=False)
    listed = run_census(["# note", ">>graph6<<Dhc", "", "Bw\n"], config)
    assert listed.to_json_lines(include_timings=False) == text
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("# note\n>>graph6<<Dhc\n\nBw\n")
    with corpus.open() as lines:
        from_file = run_census(lines, config)
    assert from_file.to_json_lines(include_timings=False) == text


def test_run_census_keeps_duplicate_lines():
    report = run_census("Bw\nBw\n", CensusConfig(samples=1))
    assert [r["graph6"] for r in report.records] == ["Bw", "Bw"]


def test_run_census_examines_each_distinct_graph_once(monkeypatch):
    calls = []
    real = chroma.census.examine_graph

    def counting(line, config):
        calls.append(line)
        return real(line, config)

    monkeypatch.setattr(chroma.census, "examine_graph", counting)
    config = CensusConfig(seed=0, samples=3)
    # "Bx" is the triangle "Bw" with a padding bit set.
    report = run_census("Dhc\nBw\nBx\nDhc\n", config)
    assert calls == ["Dhc", "Bw"]
    assert [r["graph6"] for r in report.records] == ["Bw", "Bw", "Dhc", "Dhc"]
    assert report.summary["graphs"] == 4
    alone = {
        g6: json.dumps(
            {k: v for k, v in examine_graph(g6, config).record.items() if k != "timings"},
            separators=(",", ":"),
        )
        for g6 in ("Bw", "Dhc")
    }
    lines = report.to_json_lines(include_timings=False).splitlines()
    assert lines[:4] == [alone["Bw"], alone["Bw"], alone["Dhc"], alone["Dhc"]]
    # A pool examines the two distinct graphs and gives the same bytes.
    monkeypatch.setenv("CHROMA_THREADS", "2")
    monkeypatch.setattr(chroma.census, "examine_graph", real)
    pooled = run_census("Dhc\nBw\nBx\nDhc\n", config)
    assert pooled.to_json_lines(include_timings=False) == report.to_json_lines(
        include_timings=False
    )


def test_run_census_config_validation():
    with pytest.raises(ValueError, match="at least one sample"):
        run_census("Bw\n", CensusConfig(samples=0))
    with pytest.raises(ValueError, match="timeout must be positive"):
        run_census("Bw\n", CensusConfig(timeout_ms=0))
    # Zero samples would leave every per-coloring suite with no check and
    # the record with no error, so the config itself refuses them.
    with pytest.raises(ValueError, match="at least one sample"):
        examine_graph("Bw", CensusConfig(samples=0))


def test_run_census_empty_corpus():
    report = run_census("# nothing here\n")
    assert report.records == []
    assert report.summary["graphs"] == 0
    assert not report.has_findings


def test_worker_count_env_validation(monkeypatch):
    for bad in ("0", "abc"):
        monkeypatch.setenv("CHROMA_THREADS", bad)
        with pytest.raises(
            ValueError, match=f"CHROMA_THREADS must be a positive integer, got '{bad}'"
        ):
            run_census("Bw\n", CensusConfig(samples=1))
    # Unset means a serial run: starting a pool would call None and fail.
    monkeypatch.delenv("CHROMA_THREADS")
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)
    assert run_census("Bw\nC~\n", CensusConfig(samples=1)).summary["graphs"] == 2


def test_serial_census_loads_no_process_pool():
    # The pool is imported only when a run has more than one worker.
    code = (
        "import sys, chroma\n"
        "chroma.run_census('Bw\\nC~\\n', chroma.CensusConfig(samples=1))\n"
        "print(sorted(m for m in sys.modules\n"
        "    if m in ('concurrent.futures.process', 'multiprocessing')))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "CHROMA_THREADS"}
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_report_bytes_identical_across_runs():
    config = CensusConfig(seed=0, samples=2)
    first = run_census("Dhc\nBw\n", config)
    second = run_census("Dhc\nBw\n", config)
    assert first.to_json_lines(include_timings=False) == second.to_json_lines(
        include_timings=False
    )
    with_timings = first.to_json_lines()
    assert '"timings"' in with_timings
    assert '"timings"' not in first.to_json_lines(include_timings=False)


def test_report_bytes_identical_across_worker_counts(monkeypatch):
    config = CensusConfig(seed=0, samples=2)
    serial = run_census("Dhc\nBw\nC~\n", config)
    monkeypatch.setenv("CHROMA_THREADS", "2")
    pooled = run_census("Dhc\nBw\nC~\n", config)
    assert serial.to_json_lines(include_timings=False) == pooled.to_json_lines(
        include_timings=False
    )


def test_fixture_report_bytes_pinned(fixture_corpus):
    report = run_census(fixture_corpus, CensusConfig(seed=0, samples=100))
    text = report.to_json_lines(include_timings=False)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7cec48ea290dff715adf49567d097413914c2a81867aef4c209b4aca0c813cd8"
    )


def test_json_lines_round_trip():
    report = run_census("Bw\n", CensusConfig(samples=1))
    lines = report.to_json_lines().splitlines()
    assert len(lines) == 2
    record = json.loads(lines[0])
    assert record["graph6"] == "Bw"
    tail = json.loads(lines[1])
    assert set(tail) == {"summary", "metadata"}


def test_csv_output():
    report = run_census("Bw\nC~\n", CensusConfig(samples=1))
    lines = report.to_csv().strip().splitlines()
    assert lines[0].startswith("graph6,n,max_degree")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "Bw"
    assert first[1] == "3"


_CSV_PIN = """\
graph6,n,max_degree,min_degree,edge_count,chi_prime,class,is_critical,is_overfull,excess,hypothesis,hypothesis_margin,theorem1,violations,dead_ends
?,0,0,0,0,0,class1,False,,,,,inapplicable,0,0
@,1,0,0,0,0,class1,False,False,0,True,7/2,inapplicable,0,0
Bw,3,2,2,3,3,class2,True,True,1,True,1/2,holds,0,0
Cs,4,3,1,3,,,,False,-3,True,5/2,undecided,0,0
C~,4,3,3,6,3,class1,False,False,0,False,-1,inapplicable,0,0
Dhc,5,2,2,5,3,class2,True,True,1,False,-1,inapplicable,0,0
"""


def test_csv_bytes_pinned(monkeypatch):
    # The star K1,3 ("Cs") has its classification expire: its chi, class
    # and critical cells stay empty while its overfull cells are filled.
    real = chroma.oracle.chromatic_index

    def expire_on_star(g, **kwargs):
        if chroma.graph.to_graph6(g) == "Cs":
            raise chroma.oracle.OracleTimeout("forced")
        return real(g, **kwargs)

    monkeypatch.setattr(chroma.oracle, "chromatic_index", expire_on_star)
    report = run_census("Bw\nC~\nDhc\n@\n?\nCs\n", _SMALL)
    assert report.to_csv() == _CSV_PIN


def test_witness_files_on_violation(tmp_path, monkeypatch):
    monkeypatch.setenv("CHROMA_THREADS", "1")

    def always_wrong(g, x, y):
        return Verdict(VIOLATION, "forced for the witness test")

    monkeypatch.setattr(chroma.fans, "check_val", always_wrong)
    config = CensusConfig(seed=0, samples=2, witness_dir=str(tmp_path))
    report = run_census("Dhc\n", config)
    assert report.has_findings
    assert report.summary["violations"] == 10
    assert report.records[0]["lemmas"]["val"]["violations"] == 10
    files = sorted(tmp_path.glob("witness-*.json"))
    assert len(files) == 10
    assert files[0].name == "witness-00000.json"
    blob = json.loads(files[0].read_text())
    assert set(blob) == {"graph6", "edge", "coloring", "lemma", "detail"}
    assert blob["lemma"] == "val"
    assert blob["graph6"] == "Dhc"
    assert blob["coloring"] is None
    assert blob["detail"] == "forced for the witness test"


# -- each color-renaming class of an edge's samples is validated once -------

# The suites run by ``_coloring_suites``; the others are tallied elsewhere.
_COLORING_SUITES = (
    "multifan", "fan-linkage", "kierstead4", "kierstead5", "fork", "short-kite", "kite",
)


def _reference_samples(g6: str, config: CensusConfig):
    """Every sample the census draws, per edge, in census order."""
    g = chroma.graph.parse_graph6(g6)
    seed = chroma.census._graph_seed(config.seed, g6)
    for c in chroma.oracle.sample_colorings(
        g, config.samples, seed, timeout_ms=config.timeout_ms
    ):
        yield c.hole, c


def test_census_in_the_papers_regime():
    # Subdivided K8 is critical and meets the hypothesis of Theorem 1.  The
    # sampling walk searches only for its start; drawing every sample by
    # its own randomized search took over 20 s on this graph.
    g6 = chroma.graph.to_graph6(families.subdivided_complete(8))
    start = time.perf_counter()
    rec = examine_graph(g6, CensusConfig(seed=0, samples=10)).record
    elapsed = time.perf_counter() - start
    assert "error" not in rec
    assert rec["is_critical"]
    assert rec["theorem1"]["status"] == "holds"
    kite = rec["lemmas"]["kite"]
    assert kite["checked"] > kite["inapplicable"]
    assert sum(t["violations"] for t in rec["lemmas"].values()) == 0
    assert elapsed < 10.0


def _colors(c) -> tuple[int, ...]:
    return tuple(color for _, color in c.edge_items())


def _suite_calls(monkeypatch) -> list:
    """The (edge, colors) of every ``_coloring_suites`` run from now on."""
    calls = []
    real = chroma.census._coloring_suites

    def counting(e, c, tallies, found):
        calls.append((e, _colors(c)))
        return real(e, c, tallies, found)

    monkeypatch.setattr(chroma.census, "_coloring_suites", counting)
    return calls


def test_coloring_suites_run_once_per_renaming_class(monkeypatch):
    calls = _suite_calls(monkeypatch)
    rec = examine_graph("Dhc", _SMALL).record
    # C5 minus an edge is a path with exactly two 2-colorings, one the
    # other with its two colors swapped.  Seed 0 draws both on every edge,
    # and one suite run per edge stands for its 5 samples.
    assert len(calls) == len({e for e, _ in calls}) == 5
    assert rec["lemmas"]["fork"]["checked"] == 25
    assert rec["lemmas"]["multifan"]["checked"] == 50


def test_replayed_samples_keep_their_witnesses(monkeypatch):
    def always_wrong(c):
        return Verdict(VIOLATION, "forced for the replay test")

    monkeypatch.setattr(chroma.fans, "check_fork_exclusion", always_wrong)
    report = run_census("Dhc\n", _SMALL)
    assert report.records[0]["lemmas"]["fork"] == {
        "checked": 25, "ok": 0, "inapplicable": 0, "violations": 25
    }
    assert report.summary["violations"] == 25
    expected = [
        {
            "graph6": "Dhc",
            "edge": list(e),
            "coloring": c.to_json_obj(),
            "lemma": "fork",
            "detail": "forced for the replay test",
        }
        for e, c in _reference_samples("Dhc", _SMALL)
    ]
    assert len(expected) == 25
    assert report.witnesses == expected


def test_a_class_that_left_a_witness_replays_only_exact_repeats(monkeypatch):
    def names_its_colors(c):
        return Verdict(VIOLATION, str(list(_colors(c))))

    monkeypatch.setattr(chroma.fans, "check_fork_exclusion", names_its_colors)
    report = run_census("Dhc\n", _SMALL)
    assert len(report.witnesses) == 25
    for w in report.witnesses:
        assert w["detail"] == str([color for _, _, color in w["coloring"]["edges"]])
    # Both colorings of every edge left witnesses, each naming its own.
    assert len({(tuple(w["edge"]), w["detail"]) for w in report.witnesses}) == 10


def test_an_applicable_kierstead5_check_replays_only_exact_repeats(monkeypatch):
    # Every sample of C7 has five-vertex Kierstead paths, and t never
    # shares three missing colors with {a, b}, so every real check is
    # inapplicable and the 14 distinct colorings fall into 7 classes.
    def applicable(c, path):
        return chroma.kpath5.CanonicalizeResult(CANONICAL, c, "", ())

    monkeypatch.setattr(chroma.kpath5, "canonicalize_k5_path", applicable)
    calls = _suite_calls(monkeypatch)
    g6 = chroma.graph.to_graph6(families.cycle(7))
    rec = examine_graph(g6, _SMALL).record
    distinct = {(e, _colors(c)) for e, c in _reference_samples(g6, _SMALL)}
    assert len(distinct) == 14
    assert len(calls) == len(set(calls)) and set(calls) == distinct
    assert rec["lemmas"]["kierstead5"] == {
        "checked": 70, "ok": 70, "inapplicable": 0, "violations": 0, "dead_ends": 0
    }


@pytest.mark.parametrize(
    "g",
    [
        families.cycle(7),
        families.subdivided_complete(4),
        families.petersen_minus_vertex(),
        families.subdivided_complete(8),
    ],
    ids=["C7", "subdivided-K4", "petersen-minus-v", "subdivided-K8"],
)
def test_suite_tallies_do_not_depend_on_color_names(g):
    g6 = chroma.graph.to_graph6(g)
    rng = random.Random(g6)
    moved = 0
    for e, c in _reference_samples(g6, CensusConfig(seed=0, samples=10)):
        perm = list(range(1, c.k + 1))
        rng.shuffle(perm)
        assignment = {edge: perm[color - 1] for edge, color in c.edge_items() if color}
        renamed = PartialEdgeColoring.from_assignment(g, c.k, assignment, hole=e)
        moved += _colors(renamed) != _colors(c)
        runs = []
        for coloring in (c, renamed):
            tallies = {suite: chroma.census._new_tally(suite) for suite in _COLORING_SUITES}
            found: list[tuple[str, str]] = []
            chroma.census._coloring_suites(e, coloring, tallies, found)
            runs.append((tallies, len(found)))
        assert runs[0] == runs[1], (e, _colors(c), perm)
    assert moved > 0


@pytest.mark.parametrize(
    "g",
    [
        families.petersen_minus_vertex(),
        families.subdivided_complete(4),
        families.subdivided_complete(8),
    ],
    ids=["petersen-minus-v", "subdivided-K4", "subdivided-K8"],
)
def test_memoised_tallies_match_per_sample_reference(g):
    g6 = chroma.graph.to_graph6(g)
    config = CensusConfig(seed=0, samples=20)
    rec = examine_graph(g6, config).record
    assert rec["is_critical"] is True
    tallies = {suite: chroma.census._new_tally(suite) for suite in chroma.census.SUITES}
    found: list[tuple[str, str]] = []
    distinct = set()
    samples = 0
    for e, c in _reference_samples(g6, config):
        chroma.census._coloring_suites(e, c, tallies, found)
        distinct.add((e, tuple(color for _, color in c.edge_items())))
        samples += 1
    assert len(distinct) < samples == 20 * g.m
    assert found == []
    assert {s: rec["lemmas"][s] for s in _COLORING_SUITES} == {
        s: tallies[s] for s in _COLORING_SUITES
    }
