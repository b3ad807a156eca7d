"""Command-line surface: classify graphs, dump colorings, drive the census.

Single-graph commands accept graph6 or a plain edge list and pick the
format by content (edge lists have whitespace inside their payload
lines, graph6 never does).  ``-`` reads standard input.  Exit codes: 0
on success, 1 when a census or lemma sweep surfaced a violation, dead
end, or counterexample, 2 for usage or input errors, and 3 when the
oracle budget ran out: a single-graph command's answer is then unknown,
and a sweep that found none of the above has some graph's record
carrying an error, so its checks are incomplete.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import families, oracle, overfull
from .census import CensusConfig, run_census
from .graph import Graph, iter_graph6_lines, parse_edge_list, parse_graph6, to_graph6

__all__ = ["main"]


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load_graph(path: str) -> Graph:
    """Parse one graph from a file holding graph6 or an edge list."""
    text = _read_text(path)
    lines = list(iter_graph6_lines(text))
    if any(" " in line or "\t" in line for line in lines):
        return parse_edge_list(text)
    if len(lines) != 1:
        raise ValueError(f"expected one graph, found {len(lines)} graph6 lines")
    return parse_graph6(lines[0])


def _print_row(fmt: str, row: dict) -> None:
    """Print one result as a JSON object, or as a CSV header and value line."""
    if fmt == "csv":
        print(",".join(row))
        print(",".join(str(value) for value in row.values()))
    else:
        print(json.dumps(row))


def _cmd_color(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    chi = oracle.chromatic_index(g, timeout_ms=args.timeout_ms)
    if args.format == "csv":
        print("u,v,color")
        for (u, v), color in chi.witness.edge_items():
            print(f"{u},{v},{color}")
    else:
        print(json.dumps(chi.witness.to_json_obj()))
    return 0


def _cmd_chi(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    chi = oracle.chromatic_index(g, timeout_ms=args.timeout_ms)
    _print_row(args.format, {"chi_prime": chi.chi_prime, "class": chi.classification})
    return 0


def _cmd_critical(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    chi = oracle.chromatic_index(g, timeout_ms=args.timeout_ms)
    critical = oracle.is_delta_critical(g, chi=chi, timeout_ms=args.timeout_ms)
    _print_row(
        args.format,
        {"is_critical": critical, "chi_prime": chi.chi_prime, "class": chi.classification},
    )
    return 0


def _cmd_overfull(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    verdict = overfull.is_overfull(g)
    if args.format is None:
        word = "overfull" if verdict.is_overfull else "not overfull"
        print(f"{word} excess={verdict.excess}")
        return 0
    row = {"is_overfull": verdict.is_overfull, "excess": verdict.excess}
    if args.format == "json":
        row["hypothesis"] = verdict.hypothesis
        row["hypothesis_margin"] = str(verdict.hypothesis_margin)
    _print_row(args.format, row)
    return 0


def _census_config(args: argparse.Namespace) -> CensusConfig:
    return CensusConfig(
        seed=args.seed,
        samples=args.samples,
        timeout_ms=args.timeout_ms,
        witness_dir=args.witness_dir,
    )


def _emit_report(report, fmt: str) -> int:
    sys.stdout.write(report.to_csv() if fmt == "csv" else report.to_json_lines())
    if report.has_findings:
        return 1
    return 3 if report.summary["errors"] else 0


def _cmd_census(args: argparse.Namespace) -> int:
    report = run_census(_read_text(args.corpus), _census_config(args))
    return _emit_report(report, args.format)


def _cmd_verify_lemmas(args: argparse.Namespace) -> int:
    g = _load_graph(args.input)
    report = run_census(to_graph6(g), _census_config(args))
    return _emit_report(report, args.format)


def _cmd_gen_basic(args: argparse.Namespace) -> int:
    for _, g in families.basic_fixtures():
        print(to_graph6(g))
    return 0


def _add_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("input", help="graph file, graph6 or edge list; - for stdin")


def _add_timeout(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--timeout-ms",
        type=int,
        default=oracle.DEFAULT_TIMEOUT_MS,
        help="wall-clock budget per coloring decision",
    )


def _add_format(p: argparse.ArgumentParser, default: str | None = "json") -> None:
    p.add_argument(
        "--format",
        choices=("json", "csv"),
        default=default,
        help="output format" + ("" if default else " (default: plain text)"),
    )


def _add_census_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--seed", type=int, default=CensusConfig.seed, help="run seed for sampling"
    )
    p.add_argument(
        "--samples",
        "--max-samples",
        dest="samples",
        type=int,
        default=CensusConfig.samples,
        help="sampled colorings per critical edge",
    )
    _add_timeout(p)
    _add_format(p)
    p.add_argument(
        "--witness-dir",
        default=None,
        help="directory for violation witness files",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chroma",
        description="Edge-coloring toolkit: exact chromatic index, "
        "criticality certificates, overfullness, and structure validators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text, func in (
        ("color", "print a minimum proper edge coloring", _cmd_color),
        ("chi", "decide the chromatic index", _cmd_chi),
        ("critical", "certify edge-criticality", _cmd_critical),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_input(p)
        _add_timeout(p)
        _add_format(p)
        p.set_defaults(func=func)

    p = sub.add_parser("overfull", help="report overfullness and excess")
    _add_input(p)
    _add_format(p, default=None)
    p.set_defaults(func=_cmd_overfull)

    p = sub.add_parser("census", help="classify and validate a graph6 corpus")
    p.add_argument("corpus", help="graph6 corpus file; - for stdin")
    _add_census_flags(p)
    p.set_defaults(func=_cmd_census)

    p = sub.add_parser(
        "verify-lemmas", help="run every validator suite on one graph"
    )
    _add_input(p)
    _add_census_flags(p)
    p.set_defaults(func=_cmd_verify_lemmas)

    p = sub.add_parser("gen-basic", help="emit the built-in fixture family")
    p.set_defaults(func=_cmd_gen_basic)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except oracle.OracleTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
