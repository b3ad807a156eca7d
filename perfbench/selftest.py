#!/usr/bin/env python3
"""Smoke self-test of the benchmark on ``families.basic_fixtures()``.

    python3 perfbench/selftest.py

Covers the serial census path, the pool path (two workers), the traced
path of both workload loops and the oracle path, on the 13 fixture
graphs, in well under a minute.  Exits 0 when every check passes.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import corpora  # noqa: E402
import run  # noqa: E402


def main() -> int:
    chroma = run.load_chroma()
    pinned = run.load_pinned()["fixtures"]
    lines = corpora.fixtures_corpus(chroma)
    text = "\n".join(lines) + "\n"
    gate = run.Gate()
    gate.check(corpora.corpus_sha256(lines) == pinned["corpus_sha256"], "fixture corpus changed")
    gate.check(lines == corpora.fixtures_corpus(chroma), "fixture corpus is not reproducible")
    gate.check(
        corpora.oracle_corpus(chroma, 5) == corpora.oracle_corpus(chroma, 5),
        "oracle corpus is not reproducible for one seed",
    )
    digest = pinned["classification_sha256"]

    serial = run.census_pass(chroma, text, 0, 1, gate, digest)
    pool = run.census_pass(chroma, text, 0, 2, gate, digest)
    gate.check(serial.stripped_sha == pool.stripped_sha, "pool report differs from serial report")
    gate.check(len(serial.critical_ms) > 0, "no critical fixture graph")

    with tempfile.TemporaryDirectory(dir=run.HERE) as tmp:
        spans = Path(tmp) / "spans.tsv.gz"
        census = run.run_census_workload(chroma, lines, 0, 1, 0, True, gate, digest, None, spans)
        gate.check(spans.stat().st_size > 0, "census spans were not written")
        decide = run.run_oracle_workload(chroma, lines, 0, True, gate, None, None, spans)
    plain = run.run_oracle_workload(chroma, lines, 0, False, gate, None, None, None)
    census_plain = run.run_census_workload(chroma, lines, 0, 2, 0, False, gate, digest, None, None)

    for name, outcome, expected in (
        ("census traced", census, run.PER_LAYER),
        ("oracle traced", decide, run.PER_LAYER),
        ("oracle untraced", plain, ("graphs_per_s", "latency_ms_p50", "latency_ms_tail")),
        ("census pool", census_plain, ("graphs_per_s", "latency_ms_p50", "latency_ms_tail")),
    ):
        missing = [k for k in expected if k not in outcome.metrics]
        gate.check(not missing, f"{name}: metrics missing: {missing}")
        gate.check(outcome.failed == 0, f"{name}: {outcome.failed} failed graphs")
    gate.check(census.metrics["suite.multifan.checked"] > 0, "traced census checked no multifan")
    gate.check(census.metrics["oracle.samples"] > 0, "traced census sampled nothing")
    gate.check(decide.metrics["oracle.decide_calls"] > 0, "traced oracle made no decisions")

    for message in gate.failures:
        print(f"FAIL {message}")
    print("selftest", "passed" if gate.ok else "failed")
    return 0 if gate.ok else 1


if __name__ == "__main__":
    sys.exit(main())
