"""Command-line interface, exercised in process through ``main``."""

from __future__ import annotations

import io
import json

import pytest

import chroma.fans
import chroma.kpath5
import chroma.overfull
from chroma import (
    COUNTEREXAMPLE,
    DEAD_END,
    CanonicalizeResult,
    ImplicationVerdict,
    Verdict,
    VIOLATION,
    families,
    parse_graph6,
    to_graph6,
)
from chroma.cli import main


@pytest.fixture(autouse=True)
def _serial(monkeypatch):
    monkeypatch.setenv("CHROMA_THREADS", "1")


def _write(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_chi_graph6_file(tmp_path, capsys):
    for text in ("Bw\n", "Bw  # triangle\n"):
        path = _write(tmp_path, "k3.g6", text)
        assert main(["chi", path]) == 0
        assert json.loads(capsys.readouterr().out) == {
            "chi_prime": 3, "class": "class2"
        }


def test_chi_edge_list_autodetect(tmp_path, capsys):
    path = _write(tmp_path, "tri.txt", "0 1\n1 2\n0 2\n")
    assert main(["chi", path]) == 0
    assert json.loads(capsys.readouterr().out)["chi_prime"] == 3


def test_chi_from_stdin(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO("Bw\n"))
    assert main(["chi", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["class"] == "class2"


def test_chi_from_stdin_with_header_line(monkeypatch, capsys):
    monkeypatch.setattr("sys.stdin", io.StringIO(">>graph6<< Bw\n"))
    assert main(["chi", "-"]) == 0
    assert json.loads(capsys.readouterr().out) == {"chi_prime": 3, "class": "class2"}


def test_color_json_and_csv(tmp_path, capsys):
    path = _write(tmp_path, "k4.g6", "C~\n")
    assert main(["color", path]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["k"] == 3
    assert sorted(c for _, _, c in obj["edges"]) == [1, 1, 2, 2, 3, 3]
    assert main(["color", "--format", "csv", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "u,v,color"
    assert len(lines) == 7


def test_critical_json(tmp_path, capsys):
    path = _write(tmp_path, "c5.g6", "Dhc\n")
    assert main(["critical", path]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "is_critical": True, "chi_prime": 3, "class": "class2"
    }


def test_chi_and_critical_csv(tmp_path, capsys):
    path = _write(tmp_path, "c5.g6", "Dhc\n")
    assert main(["chi", "--format", "csv", path]) == 0
    assert capsys.readouterr().out == "chi_prime,class\n3,class2\n"
    assert main(["critical", "--format", "csv", path]) == 0
    assert capsys.readouterr().out == "is_critical,chi_prime,class\nTrue,3,class2\n"


def test_overfull_text_json_csv(tmp_path, capsys):
    k3 = _write(tmp_path, "k3.g6", "Bw\n")
    assert main(["overfull", k3]) == 0
    assert capsys.readouterr().out == "overfull excess=1\n"
    k4 = _write(tmp_path, "k4.g6", "C~\n")
    assert main(["overfull", k4]) == 0
    assert capsys.readouterr().out == "not overfull excess=0\n"
    assert main(["overfull", "--format", "json", k3]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj == {
        "is_overfull": True,
        "excess": 1,
        "hypothesis": True,
        "hypothesis_margin": "1/2",
    }
    assert main(["overfull", "--format", "csv", k3]) == 0
    assert capsys.readouterr().out == "is_overfull,excess\nTrue,1\n"


def test_gen_basic_emits_parseable_family(capsys):
    assert main(["gen-basic"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 13
    assert lines[0] == "Bw"
    for line in lines:
        parse_graph6(line)


def test_census_json_lines(tmp_path, capsys):
    corpus = _write(tmp_path, "corpus.g6", "Bw\nC~\n")
    assert main(["census", "--samples", "2", corpus]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert json.loads(lines[0])["graph6"] == "Bw"
    tail = json.loads(lines[2])
    assert tail["summary"]["graphs"] == 2
    assert tail["metadata"]["samples"] == 2


def test_census_max_samples_alias_and_csv(tmp_path, capsys):
    corpus = _write(tmp_path, "corpus.g6", "Bw\n")
    assert main(["census", "--max-samples", "3", "--format", "csv", corpus]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0].startswith("graph6,")
    assert len(lines) == 2


def test_census_exit_one_with_witnesses(tmp_path, capsys, monkeypatch):
    def always_wrong(g, x, y):
        return Verdict(VIOLATION, "forced")

    monkeypatch.setattr(chroma.fans, "check_val", always_wrong)
    corpus = _write(tmp_path, "corpus.g6", "Bw\n")
    wdir = tmp_path / "witnesses"
    code = main(
        ["census", "--samples", "1", "--witness-dir", str(wdir), corpus]
    )
    assert code == 1
    capsys.readouterr()
    files = list(wdir.glob("witness-*.json"))
    assert len(files) == 6


_C5 = to_graph6(families.cycle(5))
# Subdivided K8 is the smallest subdivided complete graph whose samples
# hold kites; its short-kites come along.
_SUBDIVIDED_K8 = to_graph6(families.subdivided_complete(8))
_FORCED = Verdict(VIOLATION, "forced")

# (lemma, module, validator, host, forced verdict, detail prefix, witnesses
# at one sample per edge).  The real validators find nothing on these
# hosts, so each is patched, where the census reads it, to report a
# finding on every check.
_WITNESS_PATHS = [
    ("multifan", chroma.fans, "validate_multifan", _C5, _FORCED, "forced", 10),
    ("fan-linkage", chroma.fans, "validate_fan_linkage", _C5, _FORCED, "forced", 10),
    ("kierstead4", chroma.fans, "validate_kierstead4", _C5, _FORCED, "path (", 10),
    (
        "kierstead5", chroma.kpath5, "canonicalize_k5_path", _C5,
        CanonicalizeResult(DEAD_END, None, "forced", ()), "path (", 10,
    ),
    (
        "degree-dichotomy", chroma.fans, "check_degree_dichotomy", _C5,
        _FORCED, "anchor ", 5,
    ),
    ("short-kite", chroma.fans, "validate_shortkite", _SUBDIVIDED_K8, _FORCED, "{'a': ", 480),
    ("kite", chroma.fans, "validate_kite", _SUBDIVIDED_K8, _FORCED, "{'a': ", 2880),
    ("parity", chroma.overfull, "parity_check", _C5, _FORCED, "forced", 1),
    (
        "theorem1", chroma.overfull, "verify_overfull_implication", _C5,
        ImplicationVerdict(COUNTEREXAMPLE, "forced"), "forced", 1,
    ),
]


@pytest.mark.parametrize(
    "lemma, module, validator, g6, verdict, prefix, count",
    _WITNESS_PATHS,
    ids=[row[0] for row in _WITNESS_PATHS],
)
def test_census_writes_every_kind_of_witness(
    tmp_path, capsys, monkeypatch, lemma, module, validator, g6, verdict, prefix, count
):
    monkeypatch.setattr(module, validator, lambda *args, **kwargs: verdict)
    corpus = _write(tmp_path, "corpus.g6", g6 + "\n")
    wdir = tmp_path / "witnesses"
    code = main(["census", "--samples", "1", "--witness-dir", str(wdir), corpus])
    assert code == 1
    lines = capsys.readouterr().out.strip().splitlines()
    record = json.loads(lines[0])
    summary = json.loads(lines[-1])["summary"]
    assert record["is_critical"] is True
    g = parse_graph6(g6)
    edges = [list(e) for e in g.edges]
    witnesses = [json.loads(p.read_text()) for p in sorted(wdir.glob("witness-*.json"))]
    assert len(witnesses) == count
    for w in witnesses:
        assert w["graph6"] == g6 and w["lemma"] == lemma
        assert w["detail"].startswith(prefix) and w["detail"].endswith("forced")
        if lemma in ("degree-dichotomy", "theorem1"):
            assert w["edge"] is None and w["coloring"] is None
        elif lemma == "parity":
            assert w["edge"] is None and w["coloring"]["uncolored"] is None
            assert len(w["coloring"]["edges"]) == g.m
        else:
            assert w["edge"] in edges and w["coloring"]["uncolored"] == w["edge"]
    if lemma == "theorem1":
        assert record["theorem1"] == {"status": COUNTEREXAMPLE, "detail": "forced"}
        assert summary["implication"]["counterexample"] == 1
        assert summary["violations"] == summary["dead_ends"] == 0
        return
    tally = record["lemmas"][lemma]
    field = "dead_ends" if lemma == "kierstead5" else "violations"
    assert tally["checked"] == tally[field] == count
    assert summary[field] == count
    assert summary["violations"] + summary["dead_ends"] == count


def test_verify_lemmas_single_graph(tmp_path, capsys):
    path = _write(tmp_path, "c5.txt", "0 1\n1 2\n2 3\n3 4\n0 4\n")
    assert main(["verify-lemmas", "--samples", "2", path]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["is_critical"] is True


def test_verify_lemmas_error_without_findings_exits_3(tmp_path, capsys):
    # Subdivided K10 is refuted at Δ colors without search, but certifying
    # its edges critical takes searches of far more than the 4,096 nodes
    # between deadline checks, so a 1 ms budget always expires.
    g6 = to_graph6(families.subdivided_complete(10))
    path = _write(tmp_path, "k10sub.g6", g6 + "\n")
    assert main(["verify-lemmas", path, "--timeout-ms", "1"]) == 3
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["summary"]
    assert summary["errors"] == 1
    assert summary["violations"] == summary["dead_ends"] == 0


def test_error_exits(tmp_path, capsys):
    assert main(["chi", str(tmp_path / "absent.g6")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = _write(tmp_path, "bad.g6", "C\n")
    assert main(["chi", bad]) == 2
    assert "error:" in capsys.readouterr().err
    two = _write(tmp_path, "two.g6", "Bw\nC~\n")
    assert main(["chi", two]) == 2
    assert "expected one graph, found 2" in capsys.readouterr().err
    assert main(["census", "--samples", "0", two]) == 2
    assert "at least one sample" in capsys.readouterr().err


def test_unknown_command_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
