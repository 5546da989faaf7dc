import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from d0res.cli import main
from d0res.errors import InputError
from d0res.report import emit_report, parse_report, parse_request, run_analyze

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"


def write_request(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return str(path)


CUSP_REQUEST = {"curve": {"implicit": {"poly": [[[0, 2], "1"], [[3, 0], "-1"]]}},
                "ranks": [2]}
PARAMETRIC_CUSP = {"curve": {"branches": [{"x": [[2, "1"]], "y": [[3, "1"]]}]}}


def test_parse_request_examples():
    req = parse_request(CUSP_REQUEST)
    assert req.kind == "implicit" and req.ranks == [2]
    req2 = parse_request(PARAMETRIC_CUSP)
    assert req2.kind == "branches"
    with pytest.raises(InputError):
        parse_request({"curve": {}})
    with pytest.raises(InputError):
        parse_request({"curve": {"implicit": {"poly": [[[0, 2], "1"]]},
                                 "branches": []}})
    with pytest.raises(InputError):
        parse_request({"curve": {"implicit": {"poly": [[[0, 2], 1.5]]}}})


def test_run_analyze_cusp_ranks():
    req = parse_request({**CUSP_REQUEST, "ranks": [2, 3]})
    report = run_analyze(req)
    assert report["germ"]["r0"] == 2
    assert [c["rank"] for c in report["certificates"]] == [2, 3]
    assert all(c["pass"] for c in report["certificates"])


def test_run_analyze_tacnode_below_critical():
    req = parse_request({
        "curve": {"implicit": {"poly": [[[0, 2], "1"], [[4, 0], "-1"]]}},
        "ranks": [2],
    })
    report = run_analyze(req)
    cert = report["certificates"][0]
    assert cert["below_critical"] and not cert["pass"]
    assert cert["points"][0]["result"] == "not_separated"
    assert any("below the critical rank" in w for w in report["warnings"])


def test_run_analyze_node_default_ranks():
    req = parse_request(
        {"curve": {"implicit": {"poly": [[[0, 2], "1"], [[2, 0], "-1"],
                                         [[3, 0], "-1"]]}}}
    )
    report = run_analyze(req)
    assert report["germ"]["r0"] == 2
    assert [c["rank"] for c in report["certificates"]] == [2, 3, 4]
    assert all(c["pass"] for c in report["certificates"])


def test_report_roundtrip_and_determinism():
    req = parse_request(CUSP_REQUEST)
    blob1 = emit_report(run_analyze(req), "json")
    # parse -> re-emit is byte identical
    assert emit_report(parse_report(blob1), "json") == blob1
    req2 = parse_request(CUSP_REQUEST)
    blob2 = emit_report(run_analyze(req2), "json")
    assert blob1 == blob2


def test_text_report_contains_r0(tmp_path, capsysbinary):
    path = write_request(tmp_path, "cusp.json", CUSP_REQUEST)
    rc = main(["analyze", path, "--format", "text"])
    out = capsysbinary.readouterr().out.decode()
    assert rc == 0
    assert "r0 = 2" in out


def test_cli_exit_codes(tmp_path, capsysbinary):
    bad = write_request(tmp_path, "bad.json", {"curve": {}})
    assert main(["analyze", bad]) == 2
    cubic = write_request(tmp_path, "cubic.json", {
        "curve": {"implicit": {"poly": [[[0, 3], "1"], [[3, 0], "-2"]]}}
    })
    assert main(["analyze", cubic]) == 3
    tac = write_request(tmp_path, "tac.json", {
        "curve": {"implicit": {"poly": [[[0, 2], "1"], [[4, 0], "-1"]]}},
        "ranks": [2],
    })
    assert main(["analyze", tac]) == 0          # non-strict: report only
    assert main(["analyze", tac, "--strict"]) == 1
    capsysbinary.readouterr()


CUSP_POLY = [[[0, 2], "1"], [[3, 0], "-1"]]


@pytest.mark.parametrize("request_obj, path", [
    ({"curve": {"implicit": {"poly": CUSP_POLY}}, "ranks": [True]}, "ranks"),
    ({"curve": {"implicit": {"poly": CUSP_POLY}}, "truncation": True},
     "truncation"),
    ({"curve": {"implicit": {"poly": [[[True, 2], "1"], [[3, 0], "-1"]]}}},
     "curve.implicit.poly[0]"),
    ({"curve": {"branches": [{"x": [[True, "1"]], "y": [[3, "1"]]}]}},
     "curve.branches[0].x[0]"),
    ({"field": {"generator": 5, "minpoly": ["1", "0", "1"]},
      "curve": {"implicit": {"poly": [[[0, 2], "1"], [[2, 0], "1"]]}}},
     "field.generator"),
    ({"field": {"generator": "", "minpoly": ["1", "0", "1"]},
      "curve": {"implicit": {"poly": [[[0, 2], "1"], [[2, 0], "1"]]}}},
     "field.generator"),
])
def test_malformed_fields_exit_2_without_traceback(request_obj, path):
    """JSON booleans are not integers, and a generator must be an identifier
    string: either mistake is an input error naming the field."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from d0res.cli import main; sys.exit(main())",
         "analyze", "-"],
        input=json.dumps(request_obj), capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")}, timeout=60,
    )
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert f"input error: {path}:" in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("flags, path", [
    (["--truncation", "0"], "truncation"),
    (["--truncation", "2"], "truncation"),
    (["--rank", "0"], "ranks"),
    (["--rank", "3", "--rank", "-2"], "ranks"),
])
def test_cli_overrides_follow_request_rules(flags, path, capsysbinary):
    """`--rank`/`--truncation` values go through the request parser's rules:
    an input error naming the field, not a silent default or an internal
    error."""
    rc = main(["analyze", str(CORPUS / "cusp.json"), *flags])
    captured = capsysbinary.readouterr()
    assert rc == 2
    assert captured.out == b""
    assert f"input error: {path}:".encode() in captured.err


def test_truncation_ceiling(tmp_path, capsysbinary, monkeypatch):
    monkeypatch.setenv("D0RES_MAX_TRUNCATION", "6")
    tac = write_request(tmp_path, "tac.json", {
        "curve": {"implicit": {"poly": [[[0, 2], "1"], [[4, 0], "-1"]]}},
        "truncation": 4,
    })
    rc = main(["analyze", tac])
    err = capsysbinary.readouterr().err.decode()
    assert rc == 2
    assert "D0RES_MAX_TRUNCATION" in err


def test_analyze_output_file(tmp_path, capsysbinary):
    path = write_request(tmp_path, "cusp.json", CUSP_REQUEST)
    out_path = tmp_path / "report.json"
    rc = main(["analyze", path, "--output", str(out_path)])
    capsysbinary.readouterr()
    assert rc == 0
    report = json.loads(out_path.read_text())
    assert report["germ"]["r0"] == 2


def test_corpus_runner_golden_cycle(tmp_path, capsysbinary):
    workdir = tmp_path / "corpus"
    workdir.mkdir()
    for name in ("cusp.json", "node.json"):
        shutil.copy(CORPUS / name, workdir / name)
    assert main(["corpus", str(workdir), "--update-golden"]) == 0
    capsysbinary.readouterr()
    assert main(["corpus", str(workdir)]) == 0
    out = capsysbinary.readouterr().out.decode()
    assert "golden=ok" in out and "aggregate:" in out
    # tampering makes the comparison fail
    golden = workdir / "golden" / "cusp.json"
    golden.write_text(golden.read_text().replace('"r0": 2', '"r0": 7'))
    assert main(["corpus", str(workdir)]) == 1
    out = capsysbinary.readouterr().out.decode()
    assert "DIFFERS" in out


def test_repo_corpus_matches_committed_goldens(capsysbinary):
    assert (CORPUS / "golden").is_dir()
    assert main(["corpus", str(CORPUS)]) == 0
    out = capsysbinary.readouterr().out.decode()
    assert "DIFFERS" not in out and "missing" not in out


def test_oracle_subcommand(capsysbinary):
    rc = main(["oracle", str(CORPUS / "tacnode.json")])
    out = json.loads(capsysbinary.readouterr().out.decode())
    assert rc == 0
    assert out["pass"] is True
    assert out["colength_crosscheck"][0]["colength"] == 2


def test_oracle_subcommand_matches_report_oracles(capsysbinary):
    """`d0res oracle` runs the report's oracle driver at ranks 1..4: its
    push-forward rows extend the report's, its colength rows are the
    report's (plane germs only), and `pass` is the AND of every check."""
    paths = sorted(CORPUS.glob("*.json"))
    assert len(paths) == 11
    for path in paths:
        rc = main(["oracle", str(path)])
        out = json.loads(capsysbinary.readouterr().out.decode())
        report = json.loads((CORPUS / "golden" / path.name).read_text())
        oracles = report["oracles"]
        assert out["colength_crosscheck"] == oracles["colength_crosscheck"], path
        push = out["pushforward_restriction"]
        assert [row["branch"] for row in push] == list(range(len(push)))
        assert len(push) == len(oracles["pushforward_restriction"]), path
        for row, reported in zip(push, oracles["pushforward_restriction"]):
            assert row["branch"] == reported["branch"]
            assert list(row["results"]) == ["1", "2", "3", "4"]
            assert reported["results"].items() <= row["results"].items(), path
        checks = [ok for row in push for ok in row["results"].values()]
        checks += [row["matches_l_matrix"] for row in out["colength_crosscheck"]]
        assert out["pass"] is all(checks)
        assert rc == (0 if out["pass"] else 1)
        if path.stem == "space_lines":
            assert out["colength_crosscheck"] == []


def test_gaussian_corpus_entry(capsysbinary):
    rc = main(["analyze", str(CORPUS / "gaussian_node.json")])
    out = json.loads(capsysbinary.readouterr().out.decode())
    assert rc == 0
    assert out["field"] == {"generator": "a", "minpoly": ["1", "0", "1"]}
    assert out["germ"]["r0"] == 2
    assert all(c["pass"] for c in out["certificates"])


def test_space_branches_entry(capsysbinary):
    rc = main(["analyze", str(CORPUS / "space_lines.json")])
    out = json.loads(capsysbinary.readouterr().out.decode())
    assert rc == 0
    assert out["germ"]["n"] == [1, 1, 1]
    assert all(c["pass"] for c in out["certificates"])


def test_smooth_point_warning(capsysbinary):
    rc = main(["analyze", str(CORPUS / "smooth_point.json")])
    out = json.loads(capsysbinary.readouterr().out.decode())
    assert rc == 0
    assert out["germ"]["r0"] == 1
    assert any("smooth-point" in w for w in out["warnings"])


def test_node_reports_smooth_branch_discrepancy(capsysbinary):
    rc = main(["analyze", str(CORPUS / "node.json")])
    out = json.loads(capsysbinary.readouterr().out.decode())
    assert rc == 0
    assert any("smooth branch through a singular point" in w
               for w in out["warnings"])
