"""Batch classification and validator sweep over graph6 corpora.

One census run classifies every graph in a corpus (chromatic index,
class, criticality, overfullness), then puts each edge-critical member
through the full validator battery: adjacency and degree checks, fan and
path structures under many sampled colorings, the five-vertex path
canonicalizer, parity accounting, and the critical-implies-overfull
implication.  The output is one JSON record per graph plus a summary,
with any violation serialized as a standalone witness file.

Determinism is a design requirement: per-graph sampling seeds are derived
by hashing (run seed, graph6 string), records are sorted by their
graph6 string before emission, and wall-clock timings live in one
isolated field so reports can be compared byte for byte without them.
Graphs are independent, so a run can fan out across processes; the
``CHROMA_THREADS`` environment variable sets the number of worker
processes (default 1, a serial run).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from time import perf_counter
from typing import Iterable

from . import fans, kpath5, oracle, overfull
from .fans import INAPPLICABLE
from .graph import Graph, iter_graph6_lines, parse_graph6, to_graph6

__all__ = [
    "CensusConfig",
    "CensusReport",
    "GraphExamination",
    "SUITES",
    "examine_graph",
    "run_census",
]

# Validator suites in the order they are tallied and run.
SUITES = (
    "val",
    "multifan",
    "fan-linkage",
    "kierstead4",
    "kierstead5",
    "degree-dichotomy",
    "fork",
    "short-kite",
    "kite",
    "parity",
)

# The CSV table: each column with its cell for one record.  A field that an
# expired classification leaves out, or the empty graph's null overfull
# field, gives an empty cell.
_CSV_COLUMNS = (
    ("graph6", lambda r: r["graph6"]),
    ("n", lambda r: r["n"]),
    ("max_degree", lambda r: r["max_degree"]),
    ("min_degree", lambda r: r["min_degree"]),
    ("edge_count", lambda r: r["edge_count"]),
    ("chi_prime", lambda r: r.get("chi_prime", "")),
    ("class", lambda r: r.get("class", "")),
    ("is_critical", lambda r: r.get("is_critical", "")),
    ("is_overfull", lambda r: (r["overfull"] or {}).get("is_overfull", "")),
    ("excess", lambda r: (r["overfull"] or {}).get("excess", "")),
    ("hypothesis", lambda r: (r["overfull"] or {}).get("hypothesis", "")),
    ("hypothesis_margin", lambda r: (r["overfull"] or {}).get("hypothesis_margin", "")),
    ("theorem1", lambda r: r["theorem1"]["status"]),
    ("violations", lambda r: sum(t["violations"] for t in r["lemmas"].values())),
    ("dead_ends", lambda r: sum(t.get("dead_ends", 0) for t in r["lemmas"].values())),
)


@dataclass(frozen=True)
class CensusConfig:
    """Run parameters; the defaults finish a full n <= 8 sweep in minutes.

    Raises ValueError for fewer than one sample per edge or a budget that
    is not positive.
    """

    seed: int = 0
    samples: int = 100
    timeout_ms: int = oracle.DEFAULT_TIMEOUT_MS
    witness_dir: str | None = None

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"need at least one sample per edge, got {self.samples}")
        if self.timeout_ms <= 0:
            raise ValueError(f"timeout must be positive, got {self.timeout_ms}")


@dataclass(frozen=True)
class GraphExamination:
    """One graph's record plus any witnesses it produced."""

    record: dict
    witnesses: list[dict]


@dataclass(frozen=True)
class CensusReport:
    """Sorted per-graph records, their witnesses, and run-level bookkeeping."""

    records: list[dict]
    witnesses: list[dict]
    summary: dict
    metadata: dict

    @property
    def has_findings(self) -> bool:
        """True when any violation, dead end, or counterexample surfaced."""
        return bool(
            self.summary["violations"]
            or self.summary["dead_ends"]
            or self.summary["implication"]["counterexample"]
        )

    def to_json_lines(self, include_timings: bool = True) -> str:
        """One compact JSON line per record, then the summary object.

        With ``include_timings=False`` the per-record timing field is
        dropped, which makes reports from identical (corpus, config,
        seed) runs byte-identical.
        """
        lines = []
        for record in self.records:
            if not include_timings:
                record = {k: v for k, v in record.items() if k != "timings"}
            lines.append(json.dumps(record, separators=(",", ":")))
        lines.append(
            json.dumps(
                {"summary": self.summary, "metadata": self.metadata},
                separators=(",", ":"),
            )
        )
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        """Flat per-graph table with one row per record."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(column for column, _ in _CSV_COLUMNS)
        for r in self.records:
            writer.writerow(cell(r) for _, cell in _CSV_COLUMNS)
        return buf.getvalue()


def _new_tally(suite: str) -> dict:
    tally = {"checked": 0, "ok": 0, "inapplicable": 0, "violations": 0}
    if suite == "kierstead5":
        tally["dead_ends"] = 0
    return tally


_STATUS_KEY = {
    fans.OK: "ok",
    fans.INAPPLICABLE: "inapplicable",
    fans.VIOLATION: "violations",
    kpath5.CANONICAL: "ok",
    kpath5.DEAD_END: "dead_ends",
}


def _tally(tallies: dict, suite: str, status: str) -> bool:
    """Count one check of ``suite``; True when it must leave a witness."""
    tally = tallies[suite]
    key = _STATUS_KEY[status]
    tally["checked"] += 1
    tally[key] += 1
    return key in ("violations", "dead_ends")


def _witness(
    g6: str,
    edge: tuple[int, int] | None,
    coloring,
    lemma: str,
    detail: str,
) -> dict:
    return {
        "graph6": g6,
        "edge": list(edge) if edge is not None else None,
        "coloring": coloring.to_json_obj() if coloring is not None else None,
        "lemma": lemma,
        "detail": detail,
    }


def _graph_seed(seed: int, g6: str) -> int:
    """Stable per-graph sampling seed, independent of run order."""
    digest = hashlib.sha256(f"{seed}|{g6}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _coloring_suites(
    e: tuple[int, int],
    c,
    tallies: dict,
    found: list[tuple[str, str]],
) -> None:
    """All per-coloring validators on one sampled coloring of g minus e;
    each check that must leave a witness adds its (lemma, detail)."""
    for center in e:
        fan = fans.grow_multifan(c, center)
        verdict = fans.validate_multifan(c, fan)
        if _tally(tallies, "multifan", verdict.status):
            found.append(("multifan", verdict.detail))
        linkage = fans.validate_fan_linkage(c, fan)
        if _tally(tallies, "fan-linkage", linkage.status):
            found.append(("fan-linkage", linkage.detail))
    for suite, size, validate in (
        ("kierstead4", 4, fans.validate_kierstead4),
        ("kierstead5", 5, kpath5.canonicalize_k5_path),
    ):
        for path in fans.kierstead_paths(c, size):
            verdict = validate(c, path)
            if _tally(tallies, suite, verdict.status):
                found.append((suite, f"path {path.vertices}: {verdict.detail}"))
    verdict = fans.check_fork_exclusion(c)
    if _tally(tallies, "fork", verdict.status):
        found.append(("fork", verdict.detail))
    for kind, validate in (
        ("short-kite", fans.validate_shortkite),
        ("kite", fans.validate_kite),
    ):
        for embedding in fans.find_forklike(c, kind):
            verdict = validate(c, embedding)
            if _tally(tallies, kind, verdict.status):
                found.append((kind, f"{embedding.role_map}: {verdict.detail}"))


def _critical_suites(
    g: Graph,
    g6: str,
    config: CensusConfig,
    tallies: dict,
    witnesses: list[dict],
) -> None:
    """Edge-by-edge validator sweep; only called on certified hosts.  One
    walk samples every edge before any edge's suites run, so a sampling
    timeout leaves every suite of this sweep at zero.

    The suites run once per color-renaming class of an edge's samples.
    Each suite's status depends only on missing-color sets, chain
    linkage, tests for equal colors, and degrees.  Renaming the colors
    keeps every Kierstead path, fork, short-kite and kite as the same
    vertex tuple and keeps the multifan's vertex set, since the greedy
    fan is a closure, so no tally changes.  A sample whose class already
    ran replays that class's tallies.  The class key renames colors 1,
    2, ... in order of first appearance along ``g.edges``; the hole keeps
    0.  Two kinds of class replay only exact repeats of a color list: one
    whose first run left a witness, whose detail names that coloring's
    colors and vertices, and one where a ``kierstead5`` check applied,
    since the five-vertex rewrite picks colors by their names."""
    count = config.samples
    try:
        samples = oracle.sample_colorings(
            g, count, _graph_seed(config.seed, g6), timeout_ms=config.timeout_ms
        )
    except oracle.OracleTimeout as exc:
        raise oracle.OracleTimeout(f"sampling: {exc}") from exc
    per_edge = {e: samples[i * count : (i + 1) * count] for i, e in enumerate(g.edges)}
    for e in g.edges:
        x, y = e
        for p, q in ((x, y), (y, x)):
            verdict = fans.check_val(g, p, q)
            if _tally(tallies, "val", verdict.status):
                witnesses.append(_witness(g6, (p, q), None, "val", verdict.detail))
        # Exact color lists and renaming classes live in separate dicts, so
        # a raw list never matches a renamed key.
        seen: dict[tuple[int, ...], tuple[list, list[tuple[str, str]]]] = {}
        classes: dict[tuple[int, ...], tuple[list, list[tuple[str, str]]]] = {}
        for c in per_edge[e]:
            key = c.edge_colors
            if key not in seen:
                names = {0: 0}
                renamed = tuple([names.setdefault(x, len(names)) for x in key])
                if renamed in classes:
                    seen[key] = classes[renamed]
                else:
                    once = {suite: _new_tally(suite) for suite in SUITES}
                    found: list[tuple[str, str]] = []
                    _coloring_suites(e, c, once, found)
                    counts = [(s, f, n) for s, t in once.items() for f, n in t.items() if n]
                    seen[key] = counts, found
                    k5 = once["kierstead5"]
                    if not found and k5["checked"] == k5["inapplicable"]:
                        classes[renamed] = seen[key]
            counts, found = seen[key]
            for suite, field, n in counts:
                tallies[suite][field] += n
            for lemma, detail in found:
                witnesses.append(_witness(g6, e, c, lemma, detail))
    for a in range(g.n):
        verdict = fans.check_degree_dichotomy(g, a, colorings=per_edge)
        if _tally(tallies, "degree-dichotomy", verdict.status):
            detail = f"anchor {a}: {verdict.detail}"
            witnesses.append(_witness(g6, None, None, "degree-dichotomy", detail))


def examine_graph(line: str, config: CensusConfig = CensusConfig()) -> GraphExamination:
    """Classify one graph6 line and run every applicable validator.

    The record is filled in key order, in three phases.  The oracle
    phase writes ``chi_prime``, ``class`` and ``is_critical`` unless a call
    expires, then checks the parity of the witness.  ``overfull`` needs no
    oracle.  ``theorem1`` is the verdict of
    ``overfull.verify_overfull_implication``, except for the empty graph
    and for an expired classification of a graph that meets the degree
    condition, which stays ``undecided``.  The suite phase runs the
    validators on a critical graph.  An expiry in either oracle phase
    leaves an ``error`` note and does not abort the run.  Edgeless graphs
    get the conventional chromatic index 0 and skip every coloring-based
    check.
    """
    g = parse_graph6(line)
    g6 = to_graph6(g)
    t_start = perf_counter()
    tallies = {suite: _new_tally(suite) for suite in SUITES}
    record: dict = {
        "graph6": g6,
        "n": g.n,
        "max_degree": g.max_degree,
        "min_degree": g.min_degree,
        "edge_count": g.m,
    }
    witnesses: list[dict] = []
    expired = chi = None
    critical = False
    classify_ms = 0.0
    if g.m:
        t0 = perf_counter()
        try:
            chi = oracle.chromatic_index(g, timeout_ms=config.timeout_ms)
            critical = oracle.is_delta_critical(g, chi=chi, timeout_ms=config.timeout_ms)
        except oracle.OracleTimeout as exc:
            chi, expired = None, exc
        classify_ms = (perf_counter() - t0) * 1000
    if expired is None:
        record["chi_prime"] = 0 if chi is None else chi.chi_prime
        record["class"] = "class1" if chi is None else chi.classification
        record["is_critical"] = critical
    if chi is not None:
        verdict = overfull.parity_check(chi.witness)
        if _tally(tallies, "parity", verdict.status):
            witnesses.append(_witness(g6, None, chi.witness, "parity", verdict.detail))
    ov = overfull.is_overfull(g) if g.n else None
    record["overfull"] = None if ov is None else {
        "is_overfull": ov.is_overfull,
        "excess": ov.excess,
        "hypothesis": ov.hypothesis,
        "hypothesis_margin": str(ov.hypothesis_margin),
    }
    if ov is None:
        status, detail = INAPPLICABLE, "empty graph"
    elif expired is not None and ov.hypothesis:
        status, detail = overfull.UNDECIDED, f"criticality undecided: {expired}"
    else:
        implication = overfull.verify_overfull_implication(g, chi=chi, critical=critical)
        status, detail = implication.status, implication.detail
        if status == overfull.COUNTEREXAMPLE:
            witnesses.append(_witness(g6, None, None, "theorem1", detail))
    record["theorem1"] = {"status": status, "detail": detail}
    if critical:
        try:
            _critical_suites(g, g6, config, tallies, witnesses)
        except oracle.OracleTimeout as exc:
            expired = exc
    record["lemmas"] = tallies
    if expired is not None:
        record["error"] = f"oracle budget exceeded: {expired}"
    record["timings"] = {
        "classify_ms": round(classify_ms, 3),
        "total_ms": round((perf_counter() - t_start) * 1000, 3),
    }
    return GraphExamination(record, witnesses)


def _corpus_lines(corpus: str | Iterable[str]) -> list[str]:
    if isinstance(corpus, str):
        return list(iter_graph6_lines(corpus))
    out: list[str] = []
    for raw in corpus:
        out.extend(iter_graph6_lines(str(raw)))
    return out


def _worker_count(jobs: int) -> int:
    env = os.environ.get("CHROMA_THREADS")
    if not env:
        return 1
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"CHROMA_THREADS must be a positive integer, got {env!r}")
    return max(1, min(cap, jobs))


def _summarize(records: list[dict]) -> dict:
    summary = {
        "graphs": len(records),
        "class1": 0,
        "class2": 0,
        "critical": 0,
        "overfull": 0,
        "implication": {
            "holds": 0,
            "counterexample": 0,
            "inapplicable": 0,
            "undecided": 0,
        },
        "violations": 0,
        "dead_ends": 0,
        "errors": 0,
    }
    for r in records:
        cls = r.get("class")
        if cls in ("class1", "class2"):
            summary[cls] += 1
        if r.get("is_critical"):
            summary["critical"] += 1
        ov = r.get("overfull")
        if ov and ov["is_overfull"]:
            summary["overfull"] += 1
        th = r.get("theorem1")
        if th:
            summary["implication"][th["status"]] += 1
        for tally in r["lemmas"].values():
            summary["violations"] += tally["violations"]
            summary["dead_ends"] += tally.get("dead_ends", 0)
        if "error" in r:
            summary["errors"] += 1
    return summary


def run_census(
    corpus: str | Iterable[str], config: CensusConfig | None = None
) -> CensusReport:
    """Examine every graph6 line of a corpus and aggregate the report.

    ``corpus`` is raw text or an iterable of lines; blanks, comments, and
    format headers are skipped.  Records come back sorted by graph6
    string, so the report does not depend on input or execution order.
    When the config names a witness directory, every witness is written
    there as an individually replayable JSON file.

    Unparseable corpus lines raise ValueError.  Per-graph oracle expiry
    only annotates that graph's record; the run continues.
    """
    config = config or CensusConfig()
    lines = _corpus_lines(corpus)
    corpus_hash = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    # A record depends only on the graph and the config, so each distinct
    # graph is examined once and its result stands for every line of it.
    keys = [to_graph6(parse_graph6(line)) for line in lines]
    distinct = list(dict.fromkeys(keys))
    workers = _worker_count(len(distinct))
    if workers > 1:
        # Imported here, so a serial run never loads multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            examined = list(pool.map(partial(examine_graph, config=config), distinct))
    else:
        examined = [examine_graph(g6, config) for g6 in distinct]
    by_key = dict(zip(distinct, examined))
    results = [by_key[key] for key in keys]
    results.sort(key=lambda ex: ex.record["graph6"])
    records = [ex.record for ex in results]
    witnesses = [w for ex in results for w in ex.witnesses]
    report = CensusReport(
        records=records,
        witnesses=witnesses,
        summary=_summarize(records),
        metadata={
            "seed": config.seed,
            "samples": config.samples,
            "sampler": oracle.SAMPLER,
            "timeout_ms": config.timeout_ms,
            "corpus_hash": corpus_hash,
        },
    )
    if config.witness_dir is not None and witnesses:
        outdir = Path(config.witness_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, w in enumerate(witnesses):
            path = outdir / f"witness-{i:05d}.json"
            path.write_text(json.dumps(w, indent=2) + "\n")
    return report
