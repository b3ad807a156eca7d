#!/usr/bin/env python3
"""Benchmark for chroma: census sweeps and exact oracle decisions.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  The program is imported from the
checkout's ``src/`` directory; without it the benchmark exits with code 2
and prints no result.  One client drives the public API in a closed loop,
the way the CLI does: ``run_census`` over the whole corpus for the census
workloads, ``chromatic_index`` then ``is_delta_critical`` per graph for
the oracle workload.  Whole passes repeat until ``--seconds`` have gone by.

``--trace 0`` reports the end-to-end metrics with nothing wrapped.
``--trace 1`` runs untraced and traced serial passes and reports the
per-layer split (see tracer.py).  Every pass goes through the correctness
gate; any failed check makes the exit code 1.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  README.md lists the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))

import corpora  # noqa: E402
from tracer import Tracer  # noqa: E402

SAMPLES = 100  # the acceptance census sample count
SETUP_PROBES = 7
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
# name -> (corpus kind, worker count; None means one per available CPU)
WORKLOADS = {
    "atlas7-serial": ("atlas", 1),
    "atlas7-pool": ("atlas", None),
    "oracle-decide": ("oracle", 1),
}
END_TO_END = {
    "graphs_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_tail": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {}
for _s in SUITES:
    PER_LAYER[f"suite.{_s}.s"] = "s"
    PER_LAYER[f"suite.{_s}.checked"] = "count"
    PER_LAYER[f"suite.{_s}.applicable_ratio"] = "ratio"
PER_LAYER.update(
    {
        "oracle.classify_s": "s",
        "oracle.certify_s": "s",
        "oracle.find_s": "s",
        "oracle.refute_s": "s",
        "oracle.decide_calls": "count",
        "oracle.sample_s": "s",
        "oracle.samples": "count",
        "oracle.sample_distinct_ratio": "ratio",
        "coloring.kempe_chain_s": "s",
        "coloring.kempe_chain_calls": "count",
        "coloring.from_assignment_s": "s",
        "graph.parse_s": "s",
        "graph.parse_calls": "count",
        "overfull.s": "s",
        "census.self_s": "s",
        "census.pool_efficiency": "ratio",
        "trace.overhead_share": "ratio",
    }
)
# Layers whose times add up to the request spans' time.  census.self_s is
# examine_graph's own code; bench.decide has next to no self time.
ACCOUNTED = tuple(k for k in PER_LAYER if k.startswith("suite.") and k.endswith(".s")) + (
    "oracle.classify_s",
    "oracle.certify_s",
    "oracle.sample_s",
    "overfull.s",
    "graph.parse_s",
    "census.self_s",
)
# Counts that must repeat exactly between traced passes and traced runs.
EXACT = tuple(
    k for k in PER_LAYER if k.endswith((".checked", "_ratio", "_calls", ".samples"))
)


class Gate:
    """Collects failed correctness checks; any failure fails the run."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)
            print(f"CHECK FAILED: {message}", file=sys.stderr)

    @property
    def ok(self) -> bool:
        return not self.failures


def available_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def load_chroma():
    """Import chroma from this checkout's ``src/``, never from elsewhere."""
    if not (SRC / "chroma" / "__init__.py").is_file():
        print(f"benchmark: no chroma sources under {SRC}; run from a checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    import chroma

    if Path(chroma.__file__).resolve().parent != SRC / "chroma":
        raise SystemExit(f"benchmark: imported chroma from {chroma.__file__}, not {SRC}")
    return chroma


def build_corpus(chroma, kind: str, seed: int) -> list[str]:
    if kind == "atlas":
        return corpora.atlas_corpus(chroma)
    if kind == "oracle":
        return corpora.oracle_corpus(chroma, seed)
    raise ValueError(f"unknown corpus kind {kind!r}")


def timed_setup(kind: str, seed: int):
    """Import plus corpus generation, the set-up cost a user pays once."""
    t0 = perf_counter()
    chroma = load_chroma()
    lines = build_corpus(chroma, kind, seed)
    return chroma, lines, perf_counter() - t0


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "chroma").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def load_pinned() -> dict:
    return json.loads((HERE / "pinned.json").read_text())


def remember(key: str, field_name: str, value, gate: Gate, what: str) -> None:
    """Compare ``value`` with what an earlier run of the same sources and
    inputs stored under ``key``; store it when no earlier run did."""
    path = OUT / "runs" / f"{key}.json"
    data = json.loads(path.read_text()) if path.is_file() else {}
    if field_name in data:
        gate.check(
            data[field_name] == value,
            f"{what} differs from an earlier run of the same sources: "
            f"{data[field_name]} != {value}",
        )
        return
    data[field_name] = value
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    os.replace(tmp, path)


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values: list[float]) -> tuple[float, str]:
    """Highest whole percentile with ten or more values beyond it."""
    n = len(values)
    ordered = sorted(values)
    if n <= 10:
        return (ordered[-1] if ordered else 0.0), "max"
    p = 99
    while n - math.ceil(p * n / 100) < 10:
        p -= 1
    return ordered[math.ceil(p * n / 100) - 1], f"p{p}"


# ---------------------------------------------------------------------------
# census workloads
# ---------------------------------------------------------------------------


@dataclass
class CensusPass:
    wall: float
    workers: int
    graphs: int
    failed: int
    stripped_sha: str
    busy_s: float
    critical_ms: dict
    suite_counts: dict
    layers: dict = field(default_factory=dict)


def classification_digest(records: list[dict]) -> str:
    rows = [
        json.dumps(
            [
                r["graph6"],
                r.get("chi_prime"),
                r.get("class"),
                r.get("is_critical"),
                r.get("overfull"),
                (r.get("theorem1") or {}).get("status"),
            ],
            sort_keys=True,
            separators=(",", ":"),
        )
        for r in records
    ]
    return sha256_text("\n".join(rows))


def check_census(report, gate: Gate, pinned_digest: str | None) -> None:
    """Census invariants: tally identity, no findings, pinned classification."""
    for r in report.records:
        for suite, t in r["lemmas"].items():
            total = t["ok"] + t["inapplicable"] + t["violations"] + t.get("dead_ends", 0)
            gate.check(t["checked"] == total, f"{r['graph6']}: {suite} tally {t} does not add up")
    gate.check(report.summary["violations"] == 0, f"violations: {report.summary['violations']}")
    gate.check(report.summary["dead_ends"] == 0, f"dead ends: {report.summary['dead_ends']}")
    if pinned_digest is not None:
        digest = classification_digest(report.records)
        gate.check(digest == pinned_digest, f"classification digest {digest} != pinned {pinned_digest}")


def census_pass(chroma, text: str, seed: int, workers: int, gate: Gate, pinned_digest, tracer=None) -> CensusPass:
    os.environ["CHROMA_THREADS"] = str(workers)
    config = chroma.census.CensusConfig(seed=seed, samples=SAMPLES)
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        t0 = perf_counter()
        report = chroma.census.run_census(text, config)
        wall = perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    check_census(report, gate, pinned_digest)
    suite_counts = {s: [0, 0] for s in SUITES}
    for r in report.records:
        for suite, t in r["lemmas"].items():
            suite_counts.setdefault(suite, [0, 0])
            suite_counts[suite][0] += t["checked"]
            suite_counts[suite][1] += t["inapplicable"]
    done = CensusPass(
        wall=wall,
        workers=workers,
        graphs=len(report.records),
        failed=sum(
            1
            for r in report.records
            if "error" in r or (r.get("theorem1") or {}).get("status") == "undecided"
        ),
        stripped_sha=sha256_text(report.to_json_lines(include_timings=False)),
        busy_s=sum(r["timings"]["total_ms"] for r in report.records) / 1000,
        critical_ms={r["graph6"]: r["timings"]["total_ms"] for r in report.records if r.get("is_critical")},
        suite_counts=suite_counts,
    )
    if tracer is not None:
        done.layers = traced_layers(tracer, suite_counts)
    return done


# ---------------------------------------------------------------------------
# oracle workload
# ---------------------------------------------------------------------------


@dataclass
class OraclePass:
    wall: float
    graphs: int
    failed: int
    ms: list
    answers: list
    layers: dict = field(default_factory=dict)
    workers: int = 1

    @property
    def busy_s(self) -> float:
        return sum(t for t in self.ms if t != math.inf) / 1000

    @property
    def decided(self) -> int:
        return self.graphs - self.failed


def graph6_edges(line: str) -> tuple[int, list[tuple[int, int]]]:
    """The benchmark's own graph6 decoder (n <= 62), independent of chroma."""
    data = [ord(ch) - 63 for ch in line.strip()]
    n = data[0]
    bits = []
    for x in data[1:]:
        bits.extend((x >> s) & 1 for s in range(5, -1, -1))
    edges, k = [], 0
    for v in range(1, n):
        for u in range(v):
            if bits[k]:
                edges.append((u, v))
            k += 1
    return n, edges


def check_decision(line: str, chi_prime: int, cls: str, critical: bool, witness, gate: Gate) -> None:
    """Check one oracle answer with the benchmark's own arithmetic."""
    n, edges = graph6_edges(line)
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    delta = max(degree)
    gate.check(chi_prime in (delta, delta + 1), f"{line}: chi' {chi_prime} with max degree {delta}")
    gate.check(cls == ("class1" if chi_prime == delta else "class2"), f"{line}: class {cls} for chi' {chi_prime}")
    if len(edges) > delta * (n // 2):
        gate.check(cls == "class2", f"{line}: overfull graph reported {cls}")
    if critical:
        gate.check(cls == "class2", f"{line}: critical graph reported {cls}")
    seen = [set() for _ in range(n)]
    for u, v in edges:
        color = witness.color(u, v)
        gate.check(1 <= color <= chi_prime, f"{line}: edge {u}-{v} has color {color}")
        gate.check(
            color not in seen[u] and color not in seen[v],
            f"{line}: color {color} repeats at edge {u}-{v}",
        )
        seen[u].add(color)
        seen[v].add(color)


def oracle_pass(chroma, lines: list[str], gate: Gate, tracer=None) -> OraclePass:
    oracle = chroma.oracle
    ms, answers, witnesses, failed = [], [], [], 0
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        t_pass = perf_counter()
        for line in lines:
            span = tracer.request_span("bench.decide", line) if tracer else nullcontext()
            t0 = perf_counter()
            try:
                with span:
                    g = chroma.graph.parse_graph6(line)
                    chi = oracle.chromatic_index(g)
                    critical = oracle.is_delta_critical(g, chi=chi)
            except oracle.OracleTimeout:
                # A failed decision misses every latency limit.
                failed += 1
                ms.append(math.inf)
                answers.append(None)
                witnesses.append(None)
                continue
            ms.append((perf_counter() - t0) * 1000)
            answers.append((line, chi.chi_prime, chi.classification, critical))
            witnesses.append(chi.witness)
        wall = perf_counter() - t_pass
    finally:
        if tracer is not None:
            tracer.uninstall()
    for answer, witness in zip(answers, witnesses):
        if answer is not None:
            check_decision(*answer, witness, gate)
    done = OraclePass(wall=wall, graphs=len(lines), failed=failed, ms=ms, answers=answers)
    if tracer is not None:
        done.layers = traced_layers(tracer, {})
    return done


def oracle_digest(answers: list) -> str:
    return sha256_text("\n".join(json.dumps(a, separators=(",", ":")) for a in answers))


# ---------------------------------------------------------------------------
# per-layer split
# ---------------------------------------------------------------------------


def traced_layers(tracer: Tracer, suite_counts: dict) -> dict:
    """Per-layer values of one traced pass (times in s, counts exact)."""
    totals = tracer.layer_totals()
    seconds, calls = totals["seconds"], totals["calls"]
    out = {k: seconds.get(k, 0.0) for k in PER_LAYER if k.endswith("_s") or k.endswith(".s")}
    out["other.s"] = seconds.get("other.s", 0.0)
    for s in SUITES:
        checked, inapplicable = suite_counts.get(s, (0, 0))
        out[f"suite.{s}.checked"] = checked
        out[f"suite.{s}.applicable_ratio"] = (checked - inapplicable) / checked if checked else 0.0
    out["oracle.decide_calls"] = sum(
        v for k, v in calls.items() if k.startswith("oracle.decide_colorable[")
    )
    out["oracle.samples"] = tracer.samples
    out["oracle.sample_distinct_ratio"] = (
        tracer.distinct_samples / tracer.samples if tracer.samples else 0.0
    )
    out["coloring.kempe_chain_calls"] = calls.get("coloring.PartialEdgeColoring.kempe_chain", 0)
    out["graph.parse_calls"] = calls.get("graph.parse_graph6", 0)
    out["spans"] = sum(calls.values())
    return out


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def closed_loop(seconds: float, one_pass) -> list:
    """Whole passes, one after another, while the next is expected to end
    within ``seconds`` of the start; always at least one."""
    passes = []
    began = perf_counter()
    while not passes or (perf_counter() - began) * (len(passes) + 1) / len(passes) <= seconds:
        passes.append(one_pass())
    return passes


@dataclass
class Outcome:
    metrics: dict
    attempted: int
    failed: int
    notes: list


def run_census_workload(
    chroma, lines, seed, workers, seconds, trace, gate, pinned_digest, compare_key, spans_path
) -> Outcome:
    text = "\n".join(lines) + "\n"
    notes = []
    passes: list[CensusPass] = []
    traced: list[CensusPass] = []
    if not trace:
        passes = closed_loop(seconds, lambda: census_pass(chroma, text, seed, workers, gate, pinned_digest))
    else:
        tracer = Tracer(chroma)
        if workers > 1:
            passes.append(census_pass(chroma, text, seed, workers, gate, pinned_digest))
        passes.append(census_pass(chroma, text, seed, 1, gate, pinned_digest))
        for _ in range(2):
            traced.append(census_pass(chroma, text, seed, 1, gate, pinned_digest, tracer))
    everything = passes + traced
    stripped = everything[0].stripped_sha
    for p in everything[1:]:
        gate.check(p.stripped_sha == stripped, "timing-stripped report changed between passes")
    notes.append(f"stripped report sha256 {stripped}")
    if compare_key:
        remember(compare_key, "stripped_report_sha256", stripped, gate, "timing-stripped census report")

    attempted = sum(p.graphs for p in everything)
    failed = sum(p.failed for p in everything)
    if trace:
        tracer.write_spans(spans_path)
        metrics = layer_metrics(passes, traced, workers, gate, compare_key, notes)
        return Outcome(metrics, attempted, failed, notes)

    per_graph = {}
    for p in passes:
        for g6, ms in p.critical_ms.items():
            per_graph.setdefault(g6, []).append(ms)
    critical = [statistics.median(v) for v in per_graph.values()]
    tail_ms, tail_name = tail(critical)
    notes.append(
        f"{len(passes)} passes of {passes[0].graphs} graphs with {workers} worker(s); "
        f"{len(critical)} critical graphs, latency_ms_tail is their {tail_name}"
    )
    notes.append(f"alias critical_ms_p50 = latency_ms_p50, critical_ms_tail = latency_ms_tail ({tail_name})")
    return Outcome(
        {
            "graphs_per_s": median([p.graphs / p.wall for p in passes]),
            "latency_ms_p50": median(critical),
            "latency_ms_tail": tail_ms,
        },
        attempted,
        failed,
        notes,
    )


def run_oracle_workload(
    chroma, lines, seconds, trace, gate, pinned_digest, compare_key, spans_path
) -> Outcome:
    notes = []
    passes: list[OraclePass] = []
    traced: list[OraclePass] = []
    if not trace:
        passes = closed_loop(seconds, lambda: oracle_pass(chroma, lines, gate))
    else:
        tracer = Tracer(chroma)

        def untraced_then_traced():
            passes.append(oracle_pass(chroma, lines, gate))
            traced.append(oracle_pass(chroma, lines, gate, tracer))

        closed_loop(seconds, untraced_then_traced)
        if len(traced) < 2:
            traced.append(oracle_pass(chroma, lines, gate, tracer))
    everything = passes + traced
    first = everything[0].answers
    for p in everything[1:]:
        gate.check(p.answers == first, "oracle answers changed between passes")
    digest = oracle_digest(first)
    notes.append(f"answers sha256 {digest}")
    if pinned_digest is not None:
        gate.check(digest == pinned_digest, f"answers digest {digest} != pinned {pinned_digest}")
    attempted = sum(p.graphs for p in everything)
    failed = sum(p.failed for p in everything)
    if trace:
        tracer.write_spans(spans_path)
        metrics = layer_metrics(passes, traced, 1, gate, compare_key, notes)
        return Outcome(metrics, attempted, failed, notes)

    per_graph = [statistics.median(p.ms[i] for p in passes) for i in range(len(passes[0].ms))]
    tail_ms, tail_name = tail(per_graph)
    notes.append(
        f"{len(passes)} passes of {len(lines)} decisions; latency_ms_tail is the {tail_name} "
        f"of {len(per_graph)} per-graph medians over passes"
    )
    notes.append(
        f"alias decisions_per_s = graphs_per_s, decide_ms_p50 = latency_ms_p50, "
        f"decide_ms_tail = latency_ms_tail ({tail_name})"
    )
    return Outcome(
        {
            "graphs_per_s": median([p.decided / p.wall for p in passes]),
            "latency_ms_p50": median(per_graph),
            "latency_ms_tail": tail_ms,
        },
        attempted,
        failed,
        notes,
    )


def layer_metrics(passes, traced, workers, gate, compare_key, notes) -> dict:
    """Median of each per-layer time over traced passes; counts must repeat."""
    exact = {k: traced[0].layers[k] for k in EXACT}
    for p in traced[1:]:
        for k in EXACT:
            gate.check(p.layers[k] == exact[k], f"{k} differs between traced passes: {p.layers[k]} != {exact[k]}")
    if compare_key:
        remember(compare_key, "exact_counts", exact, gate, "per-layer exact counts")
    metrics = dict(exact)
    for k in PER_LAYER:
        if k not in metrics and k in traced[0].layers:
            metrics[k] = median([p.layers[k] for p in traced])
    pooled = [p for p in passes if p.workers == workers]
    metrics["census.pool_efficiency"] = median([p.busy_s / (p.workers * p.wall) for p in pooled])
    serial = [p.wall for p in passes if p.workers == 1]
    traced_wall = median([p.wall for p in traced])
    metrics["trace.overhead_share"] = traced_wall / median(serial) - 1
    other = median([p.layers["other.s"] for p in traced])
    accounted = other + sum(metrics[k] for k in ACCOUNTED)
    notes.append(
        f"traced pass wall {traced_wall:.3f} s, untraced serial {median(serial):.3f} s; "
        f"layers account for {accounted:.3f} s ({accounted / traced_wall:.1%} of traced wall), "
        f"{other:.3f} s of it in unmapped top-level spans; "
        f"{traced[0].layers['spans']} spans per traced pass"
    )
    return metrics


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def setup_seconds(workload: str, seed: int, expect_sha: str, gate: Gate) -> float:
    """Median set-up time over fresh interpreters; each must build the same corpus."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        gate.check(probe["sha256"] == expect_sha, f"seed {seed} built a different corpus in a fresh process")
        times.append(probe["setup_s"])
    return statistics.median(times)


def peak_rss_mb(workers: int) -> float:
    """Own peak RSS plus the largest child's peak times the worker count."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + (child * workers if workers > 1 else 0)) / 1024


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    kind, workers = WORKLOADS[args.workload]
    chroma, lines, setup_once = timed_setup(kind, args.seed)
    corpus_sha = corpora.corpus_sha256(lines)
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_once, "sha256": corpus_sha, "graphs": len(lines)}))
        return 0
    workers = workers or available_cpus()
    gate = Gate()
    pinned = load_pinned()
    print(f"workload {args.workload}: seed {args.seed}, {workers} worker(s), trace {args.trace}")
    print(f"corpus {kind}: {len(lines)} graphs, sha256 {corpus_sha}")
    compare_key = sha256_text(f"{source_sha256()}|{kind}|{args.seed}|{SAMPLES}|{corpus_sha}")
    spans_path = OUT / f"spans-{args.workload}.tsv.gz" if args.trace else None
    if kind == "atlas":
        gate.check(corpus_sha == pinned["atlas"]["corpus_sha256"], "atlas corpus differs from the pinned one")
        outcome = run_census_workload(
            chroma, lines, args.seed, workers, args.seconds, args.trace, gate,
            pinned["atlas"]["classification_sha256"], compare_key, spans_path,
        )
    else:
        seed0 = pinned["oracle-seed0"]
        if args.seed == 0:
            gate.check(corpus_sha == seed0["corpus_sha256"], "seed-0 oracle corpus differs from the pinned one")
        outcome = run_oracle_workload(
            chroma, lines, args.seconds, args.trace, gate,
            seed0["answers_sha256"] if args.seed == 0 else None, compare_key, spans_path,
        )
    if args.trace:
        names = PER_LAYER
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        names = END_TO_END
        outcome.metrics["peak_rss_mb"] = peak_rss_mb(workers)
        outcome.metrics["setup_s"] = setup_seconds(args.workload, args.seed, corpus_sha, gate)
    for note in outcome.notes:
        print(note)
    print(f"failed_share = {outcome.failed / outcome.attempted:.6f} ({outcome.failed} of {outcome.attempted})")
    for name, unit in names.items():
        print(f"{name} = {outcome.metrics[name]:.6g} {unit}")
    for message in gate.failures:
        print(f"CHECK FAILED: {message}")
    result = {
        "correct": gate.ok,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in names.items()},
    }
    print(json.dumps(result))
    return 0 if gate.ok else 1


if __name__ == "__main__":
    sys.exit(main())
