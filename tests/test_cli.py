import hashlib
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from d0res import cli as cli_module
from d0res import modules as modules_module
from d0res import poly as poly_module
from d0res import report as report_module
from d0res import verify as verify_module
from d0res.cli import main
from d0res.errors import InputError
from d0res.linalg import ExactMatrix
from d0res.modules import FiniteModule
from d0res.poly import poly_text, reachable_values
from d0res.report import emit_report, parse_request, run_analyze, run_with_escalation
from d0res.series import Series

from test_newton_tree import REPEATED_PAIRS

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"
DATA = Path(__file__).resolve().parent / "data"


def write_request(tmp_path, name, obj):
    """Write the request `obj` as JSON, or, given a string, that JSON text
    as it is, which may repeat a key as no dict can."""
    path = tmp_path / name
    path.write_text(obj if isinstance(obj, str)
                    else json.dumps(obj, indent=2) + "\n")
    return str(path)


CUSP_REQUEST = {"curve": {"implicit": {"poly": [[[0, 2], "1"], [[3, 0], "-1"]]}},
                "ranks": [2]}
# (y^2 - x^3)(1 + x)^2 and (y^2 - x^3)(y - 1)^2: reduced at the origin,
# not where the squared factor vanishes
CUSP_TIMES_UNIT_SQUARE_X = [[[0, 2], "1"], [[1, 2], "2"], [[2, 2], "1"],
                            [[3, 0], "-1"], [[4, 0], "-2"], [[5, 0], "-1"]]
CUSP_TIMES_UNIT_SQUARE_Y = [[[0, 4], "1"], [[0, 3], "-2"], [[0, 2], "1"],
                            [[3, 2], "-1"], [[3, 1], "2"], [[3, 0], "-1"]]
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
    assert emit_report(json.loads(blob1), "json") == blob1
    req2 = parse_request(CUSP_REQUEST)
    blob2 = emit_report(run_analyze(req2), "json")
    assert blob1 == blob2


def test_text_report_contains_r0(tmp_path, capsysbinary):
    path = write_request(tmp_path, "cusp.json", CUSP_REQUEST)
    rc = main(["analyze", path, "--format", "text"])
    out = capsysbinary.readouterr().out.decode()
    assert rc == 0
    assert "r0 = 2" in out


def test_text_report_parenthesizes_field_coefficients(capsysbinary):
    rc = main(["analyze", str(CORPUS / "cyclotomic_triple.json"), "--format", "text"])
    out = capsysbinary.readouterr().out.decode()
    assert rc == 0
    assert "y(t) = (-1-a)*t + O(t^4)" in out
    assert "(witness x+(1+a)*y)" in out


def test_text_report_series_signs(capsysbinary):
    """Signs join the terms, and a series past six terms ends in '...';
    the node's default lift is 4 terms, so the series are lifted to 32."""
    rc = main(["analyze", str(CORPUS / "node.json"), "--format", "text",
               "--truncation", "32"])
    out = capsysbinary.readouterr().out.decode()
    assert rc == 0
    assert ("y(t) = -t - 1/2*t^2 + 1/8*t^3 - 1/16*t^4 + 5/128*t^5 - 7/256*t^6"
            " + ... + O(t^32)") in out
    assert ("y(t) = t + 1/2*t^2 - 1/8*t^3 + 1/16*t^4 - 5/128*t^5 + 7/256*t^6"
            " + ... + O(t^32)") in out


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


def lines_with_slope(slope):
    """Lines (t, t) and (t, slope*t), for a slope that is a zero divisor."""
    return [{"x": [[1, "1"]], "y": [[1, "1"]]}, {"x": [[1, "1"]], "y": [[1, slope]]}]


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
    ({"field": {"minpoly": [None, "0", "1"]},
      "curve": {"implicit": {"poly": CUSP_POLY}}}, "field.minpoly"),
    ({"field": {"minpoly": [1.5, 0, 1]},
      "curve": {"implicit": {"poly": CUSP_POLY}}}, "field.minpoly"),
    ({"field": {"minpoly": [True, False, 1]},
      "curve": {"implicit": {"poly": CUSP_POLY}}}, "field.minpoly"),
    ({"field": {"generator": "a", "minpoly": ["1", "0", "1"]},
      "curve": {"implicit": {"poly": CUSP_POLY}}, "point": ["a^-1", "0"]},
     "point[0]"),
    ({"field": {"generator": "x", "minpoly": ["1", "0", "1"]},
      "curve": {"implicit": {"poly": [[[0, 2], "1"], [[2, 0], "1"]]}}},
     "field.generator"),
    ({"field": {"generator": "t", "minpoly": ["1", "0", "1"]},
      "curve": {"implicit": {"poly": [[[0, 2], "1"], [[2, 0], "1"]]}}},
     "field.generator"),
    ({"field": {"generator": "z", "minpoly": ["1", "0", "1"]},
      "curve": {"branches": [{"x": [[1, "1"]], "y": [[1, "z"]], "z": []}]}},
     "field.generator"),
    ({"curve": {"branches": [{"x": [[2, "1"]], "y": [[3, "1"]]},
                             {"x": [[1, "1"]], "y": []},
                             {"x": [[2, "1"], [5, "0"]], "y": [[3, "1"]]}]}},
     "curve.branches[2]"),
    ({"field": {"minpoly": ["-1", "0", "1"]},
      "curve": {"branches": lines_with_slope("a+2")}}, "field.minpoly"),
    ({"field": {"minpoly": ["-1", "0", "0", "1"]},
      "curve": {"branches": lines_with_slope("a^2+2")}}, "field.minpoly"),
    ({"field": {"minpoly": ["2", "0", "3", "0", "1"]},
      "curve": {"branches": lines_with_slope("a^2+2")}}, "field.minpoly"),
    # (a^2+2)(a^3+2): no rational root, found reducible when a^2+2 is inverted
    ({"field": {"minpoly": ["4", "0", "2", "2", "0", "1"]},
      "curve": {"branches": lines_with_slope("a^2+2")}}, "field.minpoly"),
])
def test_malformed_fields_exit_2_without_traceback(request_obj, path):
    """JSON booleans are not integers, a generator must be an identifier
    string other than a coordinate name or t, minpoly coefficients must be
    exact strings, generator exponents must be non-negative, explicit
    branches must be distinct and the minpoly must be irreducible over QQ
    (decided by the parser up to degree 4, and by the first zero divisor
    met above that): each mistake is an input error naming the field."""
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


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("request_obj", [
    {"curve": {"implicit": {"poly": [[[0, 2], "1"], [[3, 0], "7" * 4200]]}}},
    {"field": {"minpoly": ["3" * 4200, "0", "1/" + "7" * 4200]},
     "curve": {"implicit": {"poly": CUSP_POLY}}},
], ids=["series", "minpoly"])
def test_a_number_too_long_to_print_exits_2_without_traceback(request_obj,
                                                              fmt):
    """4200-digit input numbers parse, but the series they grow, and the
    monic minimal polynomial, have integers past Python's 4300-digit limit
    for printing one: the limit stays, and the report is one error line
    with exit 2."""
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from d0res.cli import main; sys.exit(main())",
         "analyze", "-", "--format", fmt],
        input=json.dumps(request_obj), capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")}, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        f"error: a number in the report has more than "
        f"{sys.get_int_max_str_digits()} digits, Python's limit for "
        f"printing an integer"]


@pytest.mark.parametrize("request_obj, message", [
    ({"rank": [7], "curve": {"implicit": {"poly": CUSP_POLY}}},
     "$: unknown keys ['rank']; known keys: curve, point, ranks, truncation, "
     "format, field"),
    ({"curve": {"implicit": {"poly": CUSP_POLY}, "implict": {}}},
     "curve: unknown keys ['implict']; known keys: implicit, branches"),
    ({"curve": {"implicit": {"poly": CUSP_POLY, "extra": []}}},
     "curve.implicit: unknown keys ['extra']; known keys: poly"),
    ({"field": {"minpoly": ["1", "0", "1"], "gen": "b"},
      "curve": {"implicit": {"poly": CUSP_POLY}}},
     "field: unknown keys ['gen']; known keys: generator, minpoly"),
    ({"curve": {"branches": [{"x": [[2, "1"]], "y": [[3, "1"]], "t": []}]}},
     "curve.branches[0]: unknown keys ['t']; known keys: x, y, z, w"),
    ({"curve": {"implicit": {"poly": [[[0, 2], "1/0"], [[3, 0], "-1"]]}}},
     "curve.implicit.poly[0]: zero denominator in '1/0'"),
    ({"curve": {"implicit": {"poly": CUSP_POLY}}, "point": ["0", "-2/0"]},
     "point[1]: zero denominator in '-2/0'"),
    ({"field": {"minpoly": ["1", "0", "1/0"]},
      "curve": {"implicit": {"poly": CUSP_POLY}}},
     "field.minpoly: zero denominator in '1/0'"),
    ({"curve": {"implicit": {"poly": [[[0, 0], "1"]]}}},
     "point: curve does not pass through the designated point"),
    ({"curve": {"implicit": {"poly": CUSP_POLY}}, "point": ["1", "0"]},
     "point: curve does not pass through the designated point"),
    ({"curve": {"branches": [{"x": [[2, "1"]], "y": [[3, "1"]]},
                             {"x": [[0, "1"], [1, "1"]], "y": [[1, "1"]]}]}},
     "curve.branches[1]: branch does not pass through the origin"),
    # (y^2 - x^3)^2
    ({"curve": {"implicit": {"poly": [[[0, 4], "1"], [[3, 2], "-2"],
                                      [[6, 0], "1"]]}}},
     "curve.implicit.poly: curve is not reduced (polynomial has a square "
     "factor)"),
    ({"curve": {"branches": [{"x": [[2, "1"]], "y": [[4, "1"]]}]}},
     "curve.branches[0]: parametrization is not primitive (exponent gcd 2)"),
    ({"curve": {"branches": [{"x": [[2, "1"]], "y": [[3, "1"]]},
                             {"x": [], "y": [[3, "0"]]}]}},
     "curve.branches[1]: all coordinates are zero"),
    ({"curve": {"branches": [{"x": [[2, "1"]],
                              "y": [[3, "1"], [10 ** 9, "1"]]}]}},
     "curve.branches[0].y[1]: term of degree 1000000000 is above the "
     "truncation ceiling 4096 (set D0RES_MAX_TRUNCATION to raise it)"),
    # (y^2 - x^3)(1 + x)^2 at (-1, 0), where the square factor vanishes
    ({"curve": {"implicit": {"poly": CUSP_TIMES_UNIT_SQUARE_X}},
      "point": ["-1", "0"]},
     "curve.implicit.poly: curve is not reduced (polynomial has a square "
     "factor)"),
    # a repeated key, of which a dict would keep the last value silently
    ('{"ranks": [2], "ranks": [5], "curve": '
     + json.dumps({"implicit": {"poly": CUSP_POLY}}) + '}',
     "ranks: key is repeated"),
    ('{"curve": {"implicit": ' + json.dumps({"poly": CUSP_POLY})
     + ', "implicit": ' + json.dumps({"poly": [[[0, 2], "1"], [[5, 0], "-1"]]})
     + '}}',
     "curve.implicit: key is repeated"),
    ('{"curve": {"branches": [{"x": [[1, "1"]], "y": []}, '
     '{"x": [[2, "1"]], "y": [[3, "1"]], "x": [[2, "1"]]}]}}',
     "curve.branches[1].x: key is repeated"),
])
def test_input_errors_name_the_field_and_the_fault(tmp_path, capsysbinary,
                                                   monkeypatch, request_obj,
                                                   message):
    """A key the format does not define is rejected, not ignored (a
    misspelt `rank` would certify the default ranks), and so is a key
    repeated in one object, named by its path; a zero denominator is
    named as such; a curve or branch that misses the point is bad input
    naming `point` or the branch; a non-reduced curve is bad input naming
    its polynomial; so is an explicit branch that is imprimitive or zero,
    or has a term above the truncation ceiling."""
    monkeypatch.delenv("D0RES_MAX_TRUNCATION", raising=False)
    path = write_request(tmp_path, "bad.json", request_obj)
    assert main(["analyze", path]) == 2
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err.decode() == f"input error: {message}\n"


GAUSSIAN_FIELD = {"generator": "a", "minpoly": ["1", "0", "1"]}


@pytest.mark.parametrize("field", [None, GAUSSIAN_FIELD])
def test_a_rational_literal_reads_the_same_with_a_field_or_without(
        tmp_path, capsysbinary, field):
    """'1e1', '1.5', '1_0', '1e-5', '1e+2' and '2.5e-1' are rational
    literals whether the request declares a field or not, and give the
    report of '10', '3/2', '10', '1/100000', '100' and '1/4'; a generator
    with no field still exits 2 naming the scalar."""
    def request(coefficient):
        obj = {"curve": {"implicit": {"poly": [[[0, 2], "1"],
                                               [[3, 0], coefficient]]}},
               "ranks": [1]}
        if field is not None:
            obj["field"] = field
        return obj

    for literal, plain in (("1e1", "10"), ("1.5", "3/2"), ("1_0", "10"),
                           ("1e-5", "1/100000"), ("1e+2", "100"),
                           ("2.5e-1", "1/4")):
        reports = []
        for text in (literal, plain):
            path = write_request(tmp_path, "literal.json", request(text))
            assert main(["analyze", path]) == 0
            out = json.loads(capsysbinary.readouterr().out)
            reports.append({k: v for k, v in out.items() if k != "input"})
        assert reports[0] == reports[1]
    if field is None:
        path = write_request(tmp_path, "generator.json", request("a"))
        assert main(["analyze", path]) == 2
        assert capsysbinary.readouterr().err.decode() == (
            "input error: curve.implicit.poly[1]: non-rational scalar 'a' "
            "needs a field declaration\n")


@pytest.mark.parametrize("poly", [CUSP_TIMES_UNIT_SQUARE_X,
                                  CUSP_TIMES_UNIT_SQUARE_Y])
def test_a_square_factor_away_from_the_point_is_a_unit(tmp_path, capsysbinary,
                                                      poly):
    """A square factor that does not vanish at the point is a unit of the
    local ring: (y^2 - x^3)(1 + x)^2 and (y^2 - x^3)(y - 1)^2 at the
    origin are the cusp's germ, and print its germ table, certificates
    and oracles, passing under --strict."""
    cusp = json.loads((CORPUS / "golden" / "cusp.json").read_text())
    path = write_request(tmp_path, "unit.json",
                         {"curve": {"implicit": {"poly": poly}}})
    assert main(["analyze", path, "--strict"]) == 0
    report = json.loads(capsysbinary.readouterr().out.decode())
    assert report["germ"]["n"] == [2] and report["germ"]["r0"] == 2
    for key in ("truncation", "germ", "certificates", "oracles", "warnings"):
        assert report[key] == cusp[key], key


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


def test_main_calls_in_a_row_share_no_parsed_state(capsysbinary):
    """The parser is built once per process, and the `--rank` values and
    `--format` of one `main` call do not reach the next: a bare call prints
    the golden report, and a later `--rank` holds only its own ranks."""
    assert cli_module.build_parser() is cli_module.build_parser()
    path = str(CORPUS / "cusp.json")
    assert main(["analyze", path, "--rank", "5", "--rank", "7",
                 "--format", "text"]) == 0
    first = capsysbinary.readouterr().out.decode()
    assert "rank 5" in first and "rank 7" in first and not first.startswith("{")
    assert main(["analyze", path]) == 0
    assert capsysbinary.readouterr().out == (
        CORPUS / "golden" / "cusp.json").read_bytes()
    assert main(["analyze", path, "--rank", "3"]) == 0
    report = json.loads(capsysbinary.readouterr().out)
    assert [c["rank"] for c in report["certificates"]] == [3]


def test_rank_override_report_equals_ranks_in_request(tmp_path, capsysbinary):
    """`--rank 3` and `"ranks": [3]` in the file are one request, so they
    give one report, byte for byte (the `input` echo included)."""
    request = json.loads((CORPUS / "cusp.json").read_text())
    with_ranks = write_request(tmp_path, "cusp3.json", {**request, "ranks": [3]})
    reports = []
    for argv in (["analyze", str(CORPUS / "cusp.json"), "--rank", "3"],
                 ["analyze", with_ranks]):
        assert main(argv) == 0
        reports.append(capsysbinary.readouterr().out)
    assert reports[0] == reports[1]
    assert list(json.loads(reports[0])["input"]) == [
        "curve", "point", "ranks", "format"]


def test_truncation_ceiling(tmp_path, capsysbinary, monkeypatch):
    monkeypatch.setenv("D0RES_MAX_TRUNCATION", "6")
    tac = write_request(tmp_path, "tac.json", {
        "curve": {"implicit": {"poly": [[[0, 2], "1"], [[6, 0], "-1"]]}},
        "truncation": 4,
    })
    rc = main(["analyze", tac])
    err = capsysbinary.readouterr().err.decode()
    assert rc == 2
    assert "D0RES_MAX_TRUNCATION" in err


def test_a_term_above_the_ceiling_is_refused_before_any_lift():
    """y^2 - x^300000 is refused by the parser, naming its term, before the
    squarefree test and the Puiseux lifts, whose work grows with the
    degree, can start."""
    request = {"curve": {"implicit": {"poly": [[[0, 2], "1"],
                                               [[300000, 0], "-1"]]}}}
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    env.pop("D0RES_MAX_TRUNCATION", None)
    proc = subprocess.run(
        [sys.executable, "-m", "d0res", "analyze", "-"],
        input=json.dumps(request), capture_output=True, text=True, env=env,
        timeout=10,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == (
        "input error: curve.implicit.poly[1]: term of degree 300000 is above "
        "the truncation ceiling 4096 (set D0RES_MAX_TRUNCATION to raise it)\n")


def test_the_term_degree_limit_follows_the_ceiling(tmp_path, capsysbinary,
                                                   monkeypatch):
    """The limit is the ceiling itself: at D0RES_MAX_TRUNCATION=8 a term
    of degree 9 is refused."""
    monkeypatch.setenv("D0RES_MAX_TRUNCATION", "8")
    path = write_request(tmp_path, "a8.json", {
        "curve": {"implicit": {"poly": [[[0, 2], "1"], [[3, 0], "-1"],
                                        [[4, 5], "1"]]}}})
    assert main(["analyze", path]) == 2
    assert capsysbinary.readouterr().err.decode() == (
        "input error: curve.implicit.poly[2]: term of degree 9 is above the "
        "truncation ceiling 8 (set D0RES_MAX_TRUNCATION to raise it)\n")


def test_rank_driven_truncation_obeys_ceiling(tmp_path, capsysbinary,
                                             monkeypatch):
    """The truncation a requested rank needs is capped by
    D0RES_MAX_TRUNCATION like every doubling: y^4 - x^6 (r0 = 14, colength
    row 12) at rank 14 needs its rank-14 jet's 15 terms, one above a
    ceiling of 14, and at rank 12 needs 13."""
    monkeypatch.setenv("D0RES_MAX_TRUNCATION", "14")
    path = write_request(tmp_path, "y4_x6.json", {
        "curve": {"implicit": {"poly": [[[0, 4], "1"], [[6, 0], "-1"]]}}})
    rc = main(["analyze", path, "--rank", "14"])
    captured = capsysbinary.readouterr()
    assert rc == 2
    assert captured.out == b""
    assert b"needs truncation 15 but the ceiling is 14" in captured.err
    assert main(["analyze", path, "--rank", "12"]) == 0
    assert json.loads(capsysbinary.readouterr().out)["truncation"] == 13


def test_e6_certifies_at_rank_256(capsysbinary):
    """Above r0 the rank no longer drives the truncation: e6 at rank 256
    lifts to 5 terms, past its rank-3 jet's 4 and its characteristic
    exponent 4, and passes."""
    assert main(["analyze", str(CORPUS / "e6.json"), "--rank", "256",
                 "--strict"]) == 0
    report = json.loads(capsysbinary.readouterr().out.decode())
    assert report["truncation"] == 5
    assert [c["rank"] for c in report["certificates"]] == [256]
    assert report["certificates"][0]["pass"]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_a_rank_of_a_billion_certifies_in_a_small_report(capsysbinary, fmt):
    """A padded member is printed by its runs, so the cusp's report at rank
    10^9, whose jet power is a 2*10^9-square matrix, stays under 4 KB."""
    assert main(["analyze", str(CORPUS / "cusp.json"), "--rank", "1000000000",
                 "--strict", "--format", fmt]) == 0
    out = capsysbinary.readouterr().out
    assert len(out) < 4096
    if fmt == "json":
        cert, = json.loads(out)["certificates"]
        assert cert["padding"]["copies"] == 10 ** 9 - 2
        runs = cert["tangents"][0]["witness"]["jet_power"]
        assert [run["copies"] for run in runs] == [1, 10 ** 9 - 2]


def test_node_reports_at_ranks_256_and_1024_differ_only_in_counts(
        capsysbinary):
    """Above r0 the rank changes only the echoed rank, the certificate's
    rank, the padding's copies and the copies of each jet-power run."""
    reports = []
    for rank in (256, 1024):
        assert main(["analyze", str(CORPUS / "node.json"), "--rank",
                     str(rank), "--strict"]) == 0
        report = json.loads(capsysbinary.readouterr().out)
        assert report["input"].pop("ranks") == [rank]
        cert, = report["certificates"]
        assert cert.pop("rank") == rank
        assert cert["padding"].pop("copies") == rank - 2
        for v in cert["tangents"]:
            assert sum(len(run["row"]) * run.pop("copies")
                       for run in v["witness"]["jet_power"]) == rank
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("name, multiplicity", [("cusp", 2), ("e6", 3),
                                                ("node", 1)])
@pytest.mark.parametrize("rank", [16, 32])
def test_a_higher_rank_changes_only_the_lift(capsysbinary, name,
                                             multiplicity, rank):
    """A report at the default truncation and one lifted to the truncation
    the rank itself would need, max(32, 8 * r * n), differ only in the
    printed truncation (and its echo in the input) and branch series:
    certificates, the invariants and the oracles are identical."""
    path = str(CORPUS / f"{name}.json")
    reports = []
    for extra in ([], ["--truncation", str(max(32, 8 * rank * multiplicity))]):
        assert main(["analyze", path, "--rank", str(rank), "--strict",
                     *extra]) == 0
        reports.append(json.loads(capsysbinary.readouterr().out.decode()))
    capped, full = reports
    assert capped["truncation"] < full["truncation"]
    assert full["input"].pop("truncation") == full["truncation"]
    for report in reports:
        del report["truncation"], report["germ"]["branches"]
    assert capped == full
    assert capped["certificates"][0]["pass"]


def test_branches_agreeing_below_truncation_raise_it(tmp_path, capsysbinary):
    """y^2 = x^10 has branches y = +-x^5, equal mod t^4: a reduced germ that
    needs more truncation, not an unreduced input."""
    path = write_request(tmp_path, "a9.json", {
        "curve": {"implicit": {"poly": [[[0, 2], "1"], [[10, 0], "-1"]]}},
        "truncation": 4,
    })
    assert main(["analyze", path, "--strict"]) == 0
    report = json.loads(capsysbinary.readouterr().out.decode())
    assert report["germ"]["l_matrix"] == [[None, 5], [5, None]]
    assert report["germ"]["r0"] == 6
    assert report["truncation"] == 8
    assert all(c["pass"] for c in report["certificates"])


@pytest.mark.parametrize("request_obj, n, r0, truncation", [
    # the branch (t^2, t^35) reads (t^2, 0) at the requested truncation 32
    ({"curve": {"implicit": {"poly": [[[0, 2], "1"], [[35, 0], "-1"]]}},
      "ranks": [2], "truncation": 32}, [2], 2, 64),
    ({"curve": {"branches": [{"x": [[2, "1"]], "y": [[35, "1"]]}]},
      "ranks": [2]}, [2], 2, 64),
    # every coordinate vanishes below the truncations 4 to 32
    ({"curve": {"branches": [{"x": [[33, "1"]], "y": [[34, "1"]]}]},
      "ranks": [1]}, [33], 33, 64),
    # (t^3, t^4) reads (t^3, 0) at truncation 4
    ({"curve": {"implicit": {"poly": [[[0, 3], "1"], [[4, 0], "-1"]]}},
      "truncation": 4}, [3], 3, 8),
    # with no requested truncation the tree of (t^2, t^35) asks for 36,
    # past its characteristic exponent
    ({"curve": {"implicit": {"poly": [[[0, 2], "1"], [[35, 0], "-1"]]}},
      "ranks": [2]}, [2], 2, 36),
])
def test_exponents_past_the_truncation_raise_it(tmp_path, capsysbinary,
                                                request_obj, n, r0,
                                                truncation):
    """A primitive branch that looks imprimitive or zero at the working
    truncation needs more truncation; it is not bad input."""
    path = write_request(tmp_path, "deep.json", request_obj)
    assert main(["analyze", path]) == 0
    report = json.loads(capsysbinary.readouterr().out.decode())
    assert (report["germ"]["n"], report["germ"]["r0"]) == (n, r0)
    assert report["truncation"] == truncation


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("name, ranks", [
    ("tacnode", ["--rank", "1", "--rank", "2"]),
    ("cusp", ["--rank", "1"]),
    ("space_lines", ["--rank", "1"]),
    ("gaussian_node", ["--rank", "1"]),
])
def test_below_critical_reports_match_snapshots(capsysbinary, name, ranks,
                                                fmt):
    """Below-critical certificates come from `certify` like every other
    rank; their reports are pinned byte for byte under tests/data."""
    rc = main(["analyze", str(CORPUS / f"{name}.json"), *ranks,
               "--format", fmt])
    assert rc == 0
    assert (capsysbinary.readouterr().out
            == (DATA / f"{name}_below.{fmt}").read_bytes())


# Germs with +-p/q coefficients outside the corpus, pinned under tests/data.
RATIONAL_GERMS = [
    # y^2 + 3/4 x^2 - 7/3 x^3: the two branches live over QQ(sqrt(-3/4))
    ("conj_node", [[[0, 2], "1"], [[2, 0], "3/4"], [[3, 0], "-7/3"]]),
    # (y - 8/3 x^2)(y - 8/3 x^2 - 5/4 x^3): contact 3
    ("tacnode", [[[0, 2], "1"], [[2, 1], "-16/3"], [[3, 1], "-5/4"],
                 [[4, 0], "64/9"], [[5, 0], "10/3"]]),
    # y^3 = -3/2 x^5 + 1/4 x^6
    ("e8", [[[0, 3], "1"], [[5, 0], "3/2"], [[6, 0], "-1/4"]]),
    # y^2 = 5/2 x^3 - 2/7 x^4
    ("cusp", [[[0, 2], "1"], [[3, 0], "-5/2"], [[4, 0], "2/7"]]),
    # y^3 = -4/3 x^4 + 3/5 x^5
    ("e6", [[[0, 3], "1"], [[4, 0], "4/3"], [[5, 0], "-3/5"]]),
    # (y - 2/3 x)(y + 5/4 x)
    ("node", [[[0, 2], "1"], [[1, 1], "7/12"], [[2, 0], "-5/6"]]),
]


@pytest.mark.parametrize("name, poly", RATIONAL_GERMS)
def test_rational_germ_reports_match_snapshots(tmp_path, capsysbinary, name,
                                               poly):
    """Germs with +-p/q coefficients, outside the corpus: their reports,
    series coefficients over QQ(a) included, are pinned byte for byte."""
    path = write_request(tmp_path, f"{name}.json",
                         {"curve": {"implicit": {"poly": poly}}})
    assert main(["analyze", path]) == 0
    assert (capsysbinary.readouterr().out
            == (DATA / f"rational_{name}.json").read_bytes())


# The explicit node (t, a t + a^2 t^2), (t, -a t + (1 + a/2) t^3) over
# a^3 - 1/2 a + 1/3, a minimal polynomial with non-integer coefficients:
# its witness x+(-3/2+3*a^2)*y takes inverses in a cubic field.
CUBIC_FIELD_NODE = {
    "field": {"generator": "a", "minpoly": ["1/3", "-1/2", "0", "1"]},
    "curve": {"branches": [
        {"x": [[1, "1"]], "y": [[1, "a"], [2, "a^2"]]},
        {"x": [[1, "1"]], "y": [[1, "-a"], [3, "1+1/2*a"]]}]}}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_cubic_field_report_matches_snapshot(tmp_path, capsysbinary, fmt):
    """A node over a cubic field with a non-integral minimal polynomial:
    its report, witness included, is pinned byte for byte."""
    path = write_request(tmp_path, "cubic_field_node.json", CUBIC_FIELD_NODE)
    assert main(["analyze", path, "--format", fmt]) == 0
    assert (capsysbinary.readouterr().out
            == (DATA / f"cubic_field_node.{fmt}").read_bytes())


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_mixed_rank_report_matches_snapshot(capsysbinary, fmt):
    """Descending ranks, a repeated rank and a below-critical rank in one
    request (tacnode, r0 = 3) are certified in the order asked, each as a
    request for that rank alone would be; pinned byte for byte."""
    ranks = [arg for r in (5, 3, 4, 3, 1) for arg in ("--rank", str(r))]
    rc = main(["analyze", str(CORPUS / "tacnode.json"), *ranks,
               "--format", fmt])
    assert rc == 0
    assert (capsysbinary.readouterr().out
            == (DATA / f"tacnode_mixed.{fmt}").read_bytes())


def _family_requests():
    """Every corpus request, the rational snapshot germs, the cubic-field
    node and the mixed-rank tacnode request."""
    requests = [pytest.param(json.loads(path.read_text()), id=path.stem)
                for path in sorted(CORPUS.glob("*.json"))]
    requests += [pytest.param({"curve": {"implicit": {"poly": poly}}},
                              id=f"rational_{name}")
                 for name, poly in RATIONAL_GERMS]
    requests.append(pytest.param(CUBIC_FIELD_NODE, id="cubic_field_node"))
    tacnode = json.loads((CORPUS / "tacnode.json").read_text())
    requests.append(pytest.param({**tacnode, "ranks": [5, 3, 4, 3, 1]},
                                 id="tacnode_mixed"))
    # r0 = 2 over QQ(sqrt(-3/4)) and r0 = 4: descending, repeated and
    # below-critical ranks, each rank above r0 read from stored answers
    germs = dict(RATIONAL_GERMS)
    for name, ranks in (("conj_node", [4, 2, 1, 3, 2, 5]),
                        ("tacnode", [6, 4, 2, 5, 4, 3, 7])):
        requests.append(pytest.param(
            {"curve": {"implicit": {"poly": germs[name]}}, "ranks": ranks},
            id=f"rational_{name}_mixed"))
    return requests


def _count_builds(monkeypatch):
    """Counters on the builders `d0res.verify` calls by name, the member
    ideal's `_stable_annihilator` and its check `_is_fiber_annihilator`
    included."""
    names = ("jet_pair", "graph_skyscraper", "pad", "annihilator",
             "fiber_module", "_stable_annihilator", "_is_fiber_annihilator")
    counts = dict.fromkeys(names, 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in names:
        monkeypatch.setattr(verify_module, name,
                            counted(name, getattr(verify_module, name)))
    return counts


@pytest.mark.parametrize("request_obj", _family_requests())
def test_one_family_per_request_matches_fresh_families(monkeypatch,
                                                       request_obj):
    """Every certificate of a multi-rank request, whose ranks share one
    family, equals the certificate of a request for that rank alone; and
    a request run twice builds the same, so nothing is carried between
    requests."""
    counts = _count_builds(monkeypatch)
    req = parse_request(request_obj)
    report = run_analyze(req)
    first = dict(counts)
    assert run_analyze(parse_request(request_obj)) == report
    assert {name: counts[name] - first[name] for name in counts} == first
    monkeypatch.undo()
    for block in report["certificates"]:
        single = run_analyze(parse_request({**request_obj,
                                            "ranks": [block["rank"]]}))
        assert single["certificates"] == [block], block["rank"]


def test_corpus_builds_each_branch_jet_and_skyscraper_once(monkeypatch):
    """At the default ranks r0..r0+2 a request builds each branch's rank-r0
    jet pair and skyscraper once.  Its annihilators are the family's store:
    one annihilator, read off one bare fiber module, and one check of it
    per branch per printed cross-check rank.  Every corpus r0 is a printed
    rank, so the member ideal and the padding check's verdict are the
    cross-check's entries at r0, and nothing else builds or checks an
    annihilator."""
    counts = _count_builds(monkeypatch)
    branches = 0
    for path in sorted(CORPUS.glob("*.json")):
        before = dict(counts)
        report = run_analyze(parse_request(json.loads(path.read_text())))
        built = {name: counts[name] - before[name] for name in counts}
        k = len(report["germ"]["branches"])
        checked = sum(len(row["results"]) for row
                      in report["oracles"]["fiber_annihilator_crosscheck"])
        assert built["jet_pair"] == built["graph_skyscraper"] == k, path.name
        assert built["annihilator"] == checked, path.name
        assert built["fiber_module"] == checked, path.name
        assert built["_stable_annihilator"] == checked, path.name
        assert built["_is_fiber_annihilator"] == checked, path.name
        branches += k
    assert branches == 20
    assert (counts["jet_pair"], counts["graph_skyscraper"]) == (20, 20)


def test_corpus_computes_each_summand_answer_once(monkeypatch):
    """At the default ranks r0..r0+2 each branch's test coordinate is
    raised four times, once for all three ranks: on the fiber and on the
    jet of its rank-r0 jet pair and of its skyscraper jet.  No witness row
    is evaluated twice on one summand, and the builds are those of
    `test_corpus_builds_each_branch_jet_and_skyscraper_once`."""
    counts = _count_builds(monkeypatch)
    powers, kills = [], []
    action_power, kills_fn = verify_module._action_power, verify_module._kills

    def counted_power(module, coord, k):
        powers.append((id(module), coord, k))
        return action_power(module, coord, k)

    def counted_kills(g, at):
        kills.append((poly_text(g), id(at)))
        return kills_fn(g, at)

    monkeypatch.setattr(verify_module, "_action_power", counted_power)
    monkeypatch.setattr(verify_module, "_kills", counted_kills)
    for path in sorted(CORPUS.glob("*.json")):
        before = dict(counts)
        del powers[:], kills[:]
        report = run_analyze(parse_request(json.loads(path.read_text())))
        built = {name: counts[name] - before[name] for name in counts}
        k = len(report["germ"]["branches"])
        r0 = report["germ"]["r0"]
        assert [c["rank"] for c in report["certificates"]] == [r0, r0 + 1,
                                                               r0 + 2]
        assert len(powers) == len(set(powers)) == 4 * k, path.name
        assert len(kills) == len(set(kills)), path.name
        assert (k < 2) == (not kills), path.name
        assert built["jet_pair"] == built["graph_skyscraper"] == k, path.name
        assert built["pad"] == 2 * k, path.name


def test_no_matrix_larger_than_r0_is_built(monkeypatch):
    """`analyze` on every corpus request, at its default ranks and at
    r0 + 2 alone, builds no `ExactMatrix` larger than r0 x r0.  Modules
    hold their series, and a jet's commutation check multiplies a 1 x r
    row by an r x r Toeplitz block, so no 2r x 2r action is written."""
    trusted = ExactMatrix._trusted.__func__
    shapes = []

    def recorded(cls, rows):
        m = trusted(cls, rows)
        shapes.append((m.rows, m.cols))
        return m

    monkeypatch.setattr(ExactMatrix, "_trusted", classmethod(recorded))
    for path in sorted(CORPUS.glob("*.json")):
        request = json.loads(path.read_text())
        del shapes[:]
        r0 = run_analyze(parse_request(request))["germ"]["r0"]
        run_analyze(parse_request({**request, "ranks": [r0 + 2]}))
        assert shapes and max(map(max, shapes)) <= r0, (path.name, r0,
                                                        max(shapes))


def _contact_ladder_pins():
    """{c: (sha256, bytes)} from tests/data/contact_ladder.sha256."""
    lines = (DATA / "contact_ladder.sha256").read_text().splitlines()
    return {int(c): (sha, int(size)) for c, sha, size in (
        line.split() for line in lines if not line.startswith("#"))}


def test_contact_rung_32_prints_the_pinned_report(tmp_path, capsysbinary):
    """y^2 - x^64 (c = 32, r0 = 33) evaluates only the monomials its two
    branches reach, and its report is byte for byte the one pinned in
    tests/data/contact_ladder.sha256."""
    path = write_request(tmp_path, "contact32.json", {"curve": {"implicit": {
        "poly": [[[0, 2], "1"], [[64, 0], "-1"]]}}})
    assert main(["analyze", path, "--strict"]) == 0
    report = capsysbinary.readouterr().out
    assert (hashlib.sha256(report).hexdigest(), len(report)) == (
        _contact_ladder_pins()[32])


def _lift_ladder_pins():
    """A (request path, sha256, bytes) param per line of
    tests/data/lift_ladder.sha256, named by the request."""
    lines = (DATA / "lift_ladder.sha256").read_text().splitlines()
    return [pytest.param(path, sha, int(size), id=Path(path).stem)
            for path, sha, size in (line.split() for line in lines
                                    if not line.startswith("#"))]


@pytest.mark.parametrize("path, sha, size", _lift_ladder_pins())
def test_a_long_lift_prints_the_pinned_report(path, sha, size):
    """Each branch's regular tail lifted to 256 terms, over QQ and over
    QQ(sqrt(-2)), under `python -O` and --strict: the report is byte for
    byte the one pinned in tests/data/lift_ladder.sha256."""
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "d0res", "analyze", str(REPO / path),
         "--truncation", "256", "--strict"],
        capture_output=True, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert (hashlib.sha256(proc.stdout).hexdigest(), len(proc.stdout)) == (
        sha, size)


def test_analyze_output_file(tmp_path, capsysbinary):
    path = write_request(tmp_path, "cusp.json", CUSP_REQUEST)
    out_path = tmp_path / "report.json"
    rc = main(["analyze", path, "--output", str(out_path)])
    capsysbinary.readouterr()
    assert rc == 0
    report = json.loads(out_path.read_text())
    assert report["germ"]["r0"] == 2


def test_written_files_get_the_mode_open_would_give_them(tmp_path,
                                                         capsysbinary):
    """A report written by `--output` and a golden written by
    `--update-golden` are new files of mode 0o666 less the umask, as `open`
    makes them, not owner-only; rewritten, each keeps the mode it had."""
    workdir = tmp_path / "corpus"
    workdir.mkdir()
    shutil.copy(CORPUS / "cusp.json", workdir / "cusp.json")
    report, golden = tmp_path / "report.json", workdir / "golden" / "cusp.json"
    runs = ((report, ["analyze", str(workdir / "cusp.json"),
                      "--output", str(report)]),
            (golden, ["corpus", str(workdir), "--update-golden"]))
    umask = os.umask(0o027)
    try:
        for path, argv in runs:
            assert main(argv) == 0
            assert os.stat(path).st_mode & 0o7777 == 0o640
            os.chmod(path, 0o604)
            assert main(argv) == 0
            assert os.stat(path).st_mode & 0o7777 == 0o604
    finally:
        os.umask(umask)
    capsysbinary.readouterr()
    assert sorted(p.name for p in tmp_path.rglob(".d0res-tmp-*")) == []


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


def test_oracle_passes_where_contact_outlasts_the_first_repeat(tmp_path,
                                                              capsysbinary):
    """(t^4, t^6 + t^7) against (t^2, t^3): l_01 = 13, since
    (t^6 + t^7)^2 - t^12 = 2t^13 + t^14.  Counting the colength up to
    e + c_0 = 13 + 16 finds 13; stopping at the first two equal values
    found 12, and the oracle exited 1 on a correct germ.  The l_ij of an
    explicit germ is that count, and its oracle prints no colength row."""
    obj = {"curve": {"branches": [
        {"x": [[4, "1"]], "y": [[6, "1"], [7, "1"]]},
        {"x": [[2, "1"]], "y": [[3, "1"]]}]}}
    germ = run_with_escalation(parse_request(obj), lambda g, c, t, r: g)
    assert germ.l_matrix == ((None, 13), (13, None))
    assert main(["oracle", write_request(tmp_path, "contact13.json", obj)]) == 0
    out = json.loads(capsysbinary.readouterr().out.decode())
    assert out["colength_crosscheck"] == []
    assert out["pass"] is True


@pytest.mark.parametrize("pair", REPEATED_PAIRS, ids=["minus-t", "t-plus-t2"])
def test_a_repeated_explicit_branch_exits_2(tmp_path, capsys, pair):
    """The cusp next to itself at t -> -t or at t -> t + t^2 is refused as
    input that names both branches, at the default ceiling."""
    path = write_request(tmp_path, "repeat.json", {"curve": {"branches": pair}})
    assert main(["analyze", path]) == 2
    assert capsys.readouterr().err == ("input error: curve.branches[1]: repeats "
                                       "curve.branches[0] in another parameter\n")


def test_strict_fails_on_a_colength_mismatch(tmp_path, monkeypatch,
                                             capsysbinary):
    """A colength row that disagrees with l_matrix fails `analyze --strict`
    and `corpus`, even with every certificate passing."""
    real = report_module.colength_intersection_length
    monkeypatch.setattr(report_module, "colength_intersection_length",
                        lambda bi, bj: real(bi, bj) + 1)
    path = str(CORPUS / "node.json")
    assert main(["analyze", path, "--strict"]) == 1
    out = json.loads(capsysbinary.readouterr().out.decode())
    assert out["oracles"]["colength_crosscheck"] == [
        {"pair": [0, 1], "colength": 2, "matches_l_matrix": False}]
    assert all(c["pass"] for c in out["certificates"])
    assert main(["analyze", path]) == 0
    capsysbinary.readouterr()
    # goldens written under the same oracle: the golden matches, the row fails
    shutil.copy(path, tmp_path / "node.json")
    main(["corpus", str(tmp_path), "--update-golden"])
    capsysbinary.readouterr()
    assert main(["corpus", str(tmp_path)]) == 1
    assert "node.json: r0=2 FAIL golden=ok" in capsysbinary.readouterr().out.decode()


def test_strict_fails_on_a_false_pushforward_row(tmp_path, monkeypatch,
                                                 capsysbinary):
    """A false fiber annihilator cross-check result fails `analyze
    --strict` and `corpus`, even with every certificate passing."""
    monkeypatch.setattr(report_module, "pushforward_restriction_oracle",
                        lambda family, index, max_rank: {
                            str(r): False for r in range(1, max_rank + 1)})
    path = str(CORPUS / "cusp.json")
    assert main(["analyze", path, "--strict"]) == 1
    out = json.loads(capsysbinary.readouterr().out.decode())
    assert out["oracles"]["fiber_annihilator_crosscheck"] == [
        {"branch": 0, "results": {"1": False, "2": False}}]
    assert all(c["pass"] for c in out["certificates"])
    assert main(["analyze", path]) == 0
    capsysbinary.readouterr()
    # goldens written under the same oracle: the golden matches, the row fails
    shutil.copy(path, tmp_path / "cusp.json")
    main(["corpus", str(tmp_path), "--update-golden"])
    capsysbinary.readouterr()
    assert main(["corpus", str(tmp_path)]) == 1
    assert "cusp.json: r0=2 FAIL golden=ok" in capsysbinary.readouterr().out.decode()


def _shifted_fiber_module(b, r):
    """A valid module of another series: every column of `fiber_module`
    one step further down, the actions of t * s(t)."""
    return FiniteModule(r, columns=tuple(
        Series([Fraction(0), *s.coeffs[:r - 1]]) for s in b.coords))


def _shifted_reachable_values(series, degree):
    """The annihilator's monomial values read along t * s(t) in place of
    s(t), for each of the fiber's columns s."""
    return reachable_values(
        [Series([Fraction(0), *s.coeffs[:-1]]) for s in series], degree)


def _bumped_fiber_module(b, r):
    """`fiber_module` with x's column bumped by 1 at t^(r - 2) from rank 3
    on: the Toeplitz diagonal on which an entry at (r - 1, 1) sits.  It is
    a valid fiber of another series, so only the comparisons catch it."""
    fiber = modules_module.fiber_module(b, r)
    if r < 3:
        return fiber
    x, *rest = fiber.columns
    return FiniteModule(r, columns=(
        x + Series.monomial(r - 2, Fraction(1), r), *rest))


# What catches each mutant: `oracle`'s exit code on each corpus request
# (1 for a false cross-check row), then a request, the exit code of
# `analyze --strict` on it at its default ranks and at a padded rank (1
# for a false cross-check row and a false padding check; 2 where a point
# witness read off the faulty ideal does not kill its own fiber, and no
# report is printed), and that padded rank.
_STEMS = sorted(p.stem for p in CORPUS.glob("*.json"))
_SHIFTED = (dict.fromkeys(_STEMS, 1), "node", 1, 3)
CROSSCHECK_CATCHES = {
    "_shifted_fiber_module": _SHIFTED,
    "_shifted_reachable_values": _SHIFTED,
    "_bumped_fiber_module": (dict.fromkeys(_STEMS, 1), "tacnode", 2, 4),
}


@pytest.mark.parametrize("module, name, mutant", [
    (verify_module, "fiber_module", _shifted_fiber_module),
    (modules_module, "reachable_values", _shifted_reachable_values),
    (verify_module, "fiber_module", _bumped_fiber_module),
])
def test_shifted_fiber_fails_the_fiber_annihilator_crosscheck(
        monkeypatch, capsysbinary, module, name, mutant):
    """The family's annihilator built from the fiber of t * s(t), by
    `fiber_module` or by the monomial values `annihilator` reads, or from
    a fiber whose x column is bumped at t^(r - 2), is caught where
    `CROSSCHECK_CATCHES` says: the check at the branch's own series
    refuses it.  The shifted fibers fail `oracle` on every corpus request,
    and `analyze --strict` on the node, whose report range 1..2 holds a
    false row; the padding check reads the same verdict at r0, so the
    node at rank 3 fails it too.  The bumped fiber fails `oracle` on every
    corpus request (its ranks 1..4 reach 3).  On the tacnode (r0 = 3) the
    point witness read off its bumped ideal does not kill the branch's own
    fiber, so `analyze --strict` exits 2 at the default ranks and at rank
    4, with no report."""
    monkeypatch.setattr(module, name, mutant)
    oracle_rc, request, analyze_rc, padded_rank = CROSSCHECK_CATCHES[
        mutant.__name__]
    paths = sorted(CORPUS.glob("*.json"))
    assert [path.stem for path in paths] == list(oracle_rc)
    for path in paths:
        assert main(["oracle", str(path)]) == oracle_rc[path.stem], path
        out = json.loads(capsysbinary.readouterr().out.decode())
        assert out["pass"] is (oracle_rc[path.stem] == 0), path
    path = str(CORPUS / f"{request}.json")
    for ranks in ([], ["--rank", str(padded_rank)]):
        assert main(["analyze", path, *ranks, "--strict"]) == analyze_rc
        captured = capsysbinary.readouterr()
        if analyze_rc == 2:
            assert not captured.out
            assert b"does not annihilate its own fiber\n" in captured.err
        elif ranks:
            (cert,) = json.loads(captured.out.decode())["certificates"]
            assert cert["padding_support_ok"] is False
            assert cert["pass"] is False
        else:
            out = json.loads(captured.out.decode())
            assert not all(
                ok for row in out["oracles"]["fiber_annihilator_crosscheck"]
                for ok in row["results"].values())


_JET_PAIR = modules_module.jet_pair


def _doubled_c_row_jet_pair(b, r):
    """`jet_pair` with a wrong C row: x's jet on M2 has its row c, the
    last row of the lower-left block, doubled.  It is still a jet pair on
    M1's columns, so the frame holds."""
    jet = _JET_PAIR(b, r)
    c, *rest = jet.rows
    return modules_module.JetPair(jet.m1, (tuple(2 * x for x in c), *rest))


# What catches a wrong C row in `jet_pair` on each corpus request under
# `analyze --strict`: "commute" where the doubled row breaks c^T B = d^T A
# against another coordinate (exit 2); "golden" where every jet the
# request builds has A = 0 on every coordinate (the rank-r0 jet of a
# branch of order >= r0, and every rank-1 skyscraper), whose actions
# commute whatever c is, so every certificate still passes and only the
# printed jet power differs from the golden.
JET_FAULT_CATCHES = {
    "cusp": "golden", "cyclotomic_triple": "commute", "e6": "golden",
    "gaussian_node": "commute", "node": "commute",
    "parametric_cusp": "golden", "ramphoid_cusp": "golden",
    "smooth_point": "golden", "space_lines": "commute", "tacnode": "commute",
    "triple_point": "commute",
}


def test_a_wrong_c_row_in_jet_pair_is_caught(monkeypatch, capsysbinary):
    """With x's C row doubled in every jet pair, base and skyscraper, each
    corpus request is caught where `JET_FAULT_CATCHES` says.  The doubled
    row is still a jet, so the commutation is judged on the jet rows
    (c^T B = d^T A)."""
    for module in (modules_module, verify_module):
        monkeypatch.setattr(module, "jet_pair", _doubled_c_row_jet_pair)
    paths = sorted(CORPUS.glob("*.json"))
    assert [path.stem for path in paths] == list(JET_FAULT_CATCHES)
    for path in paths:
        rc = main(["analyze", str(path), "--strict"])
        captured = capsysbinary.readouterr()
        if JET_FAULT_CATCHES[path.stem] == "commute":
            assert rc == 2, path.name
            assert captured.err == b"error: coordinate actions must commute\n"
            assert not captured.out, path.name
        else:
            assert rc == 0, path.name
            out = json.loads(captured.out.decode())
            assert all(c["pass"] for c in out["certificates"]), path.name
            golden = (CORPUS / "golden" / path.name).read_bytes()
            assert captured.out != golden, path.name


def test_a_printed_jet_power_with_a_nonzero_fiber_power_is_refused(
        monkeypatch, capsysbinary):
    """A witness prints a jet power as its one nonzero row w, which holds
    only where the fiber power A^k is zero.  With every jet power given a
    nonzero t^(r-1) term in its column, the cusp's tangent test finds a
    nonzero jet power, and printing it stops the request with the
    refusal's message and no report.  The exit code is the one every
    internal error gets today, 2."""
    action_power = verify_module._action_power

    def misshaped(module, coord, k):
        column, row = action_power(module, coord, k)
        if not isinstance(module, modules_module.JetPair):
            return column, row
        return column + Series.monomial(column.trunc - 1, Fraction(1),
                                        column.trunc), row

    monkeypatch.setattr(verify_module, "_action_power", misshaped)
    assert main(["analyze", str(CORPUS / "cusp.json"), "--strict"]) == 2
    captured = capsysbinary.readouterr()
    assert captured.err == (b"error: a printed jet power must have a zero "
                            b"fiber power A^k, so that w is its one nonzero "
                            b"row\n")
    assert not captured.out


# A reachability threshold off by one: every route skips the monomials of
# order >= n - 1 in place of >= n.  The corner check of
# `poly.reachable_values` catches it on every corpus request, as an
# internal error (exit 2), at the first evaluation that skips a monomial of
# order n - 1; pinned here per request, for `analyze` and for `oracle`.
_SKIP_1, _SKIP_X, _SKIP_Y = (f"skipped monomial {m} is not zero mod t^{n}"
                             for m, n in (("1", 1), ("x", 2), ("y", 2)))
SKIP_FAULT_CATCHES = {
    "cusp": (_SKIP_1, _SKIP_1),
    "cyclotomic_triple": (_SKIP_X, _SKIP_1),
    "e6": (_SKIP_1, _SKIP_1),
    "gaussian_node": (_SKIP_X, _SKIP_1),
    "node": (_SKIP_X, _SKIP_1),
    "parametric_cusp": (_SKIP_1, _SKIP_1),
    "ramphoid_cusp": (_SKIP_1, _SKIP_1),
    "smooth_point": (_SKIP_1, _SKIP_1),
    "space_lines": (_SKIP_Y, _SKIP_Y),
    "tacnode": ("skipped monomial y is not zero mod t^3", _SKIP_1),
    "triple_point": (_SKIP_X, _SKIP_1),
}


def test_a_reachability_threshold_off_by_one_is_caught(monkeypatch,
                                                       capsysbinary):
    """With the skip threshold one too low, every corpus request exits 2
    under `analyze` and `oracle` with the corner check's message that
    `SKIP_FAULT_CATCHES` pins, and prints no report."""
    reach = poly_module.reachable_monomials
    monkeypatch.setattr(poly_module, "reachable_monomials",
                        lambda orders, degree, n: reach(orders, degree, n - 1))
    paths = sorted(CORPUS.glob("*.json"))
    assert [path.stem for path in paths] == list(SKIP_FAULT_CATCHES)
    for path in paths:
        for command, message in zip(("analyze", "oracle"),
                                    SKIP_FAULT_CATCHES[path.stem]):
            assert main([command, str(path)]) == 2, (command, path.name)
            captured = capsysbinary.readouterr()
            assert not captured.out, (command, path.name)
            assert captured.err.decode() == f"error: {message}\n", (
                command, path.name)


def test_a_faulty_skyscraper_fails_every_padded_rank(monkeypatch,
                                                    capsysbinary):
    """The skyscraper is planted as the rank-(r0 + 1) jet pair of its
    branch.  The rank-r0 certificate holds no skyscraper, and a request for
    r0 alone still passes.  Every request with a padded rank, alone or
    after r0 or another padded rank, is refused at its first padded rank
    with an internal error that names branch 0 and that rank: the padding
    summand is not the 1-dimensional skyscraper (`verify._check_member`).
    No report is printed."""
    for path in sorted(CORPUS.glob("*.json")):
        golden = json.loads((CORPUS / "golden" / path.name).read_text())
        r0 = golden["germ"]["r0"]
        monkeypatch.setattr(verify_module, "graph_skyscraper",
                            lambda b: modules_module.jet_pair(b, r0 + 1))
        assert main(["analyze", str(path), "--rank", str(r0), "--strict"]) == 0
        capsysbinary.readouterr()
        for ranks in ([r0, r0 + 1], [r0, r0 + 2], [r0, r0 + 1, r0 + 2],
                      [r0 + 2, r0]):
            args = [arg for r in ranks for arg in ("--rank", str(r))]
            rc = main(["analyze", str(path), *args, "--strict"])
            captured = capsysbinary.readouterr()
            padded = next(r for r in ranks if r > r0)
            assert rc == 2 and not captured.out, (path.name, ranks)
            assert (f"branch 0 at rank {padded}: a padding summand has "
                    f"rank {r0 + 1}, not the skyscraper's 1").encode() in (
                        captured.err), (path.name, ranks)


@pytest.mark.parametrize("name", ["cusp", "node", "tacnode", "e6"])
def test_a_two_dimensional_skyscraper_is_refused(monkeypatch, capsysbinary,
                                                 name):
    """With the skyscraper planted as the rank-2 jet pair of its
    branch, the padded members have rank r0 + 2*(r - r0), not r.  Every
    padded rank is refused with an internal error naming the branch and
    the rank, where a certificate of the wrong member used to pass."""
    monkeypatch.setattr(verify_module, "graph_skyscraper",
                        lambda b: modules_module.jet_pair(b, 2))
    path = str(CORPUS / f"{name}.json")
    r0 = json.loads((CORPUS / "golden" / f"{name}.json").read_text())[
        "germ"]["r0"]
    assert main(["analyze", path, "--rank", str(r0), "--strict"]) == 0
    capsysbinary.readouterr()
    for r in (r0 + 1, r0 + 2, 16):
        assert main(["analyze", path, "--rank", str(r), "--strict"]) == 2
        captured = capsysbinary.readouterr()
        assert not captured.out
        assert (f"error: branch 0 at rank {r}: a padding summand has rank "
                f"2, not the skyscraper's 1").encode() in captured.err, (name, r)


def test_a_base_jet_of_the_wrong_rank_is_refused(monkeypatch, capsysbinary):
    """With every jet pair built one rank too high, the rank-r member is
    refused for its rank, naming the branch and the rank asked for."""
    monkeypatch.setattr(verify_module, "jet_pair",
                        lambda b, r: modules_module.jet_pair(b, r + 1))
    path = str(CORPUS / "cusp.json")
    for r in (1, 2, 3):
        assert main(["analyze", path, "--rank", str(r)]) == 2
        assert (f"error: branch 0 at rank {r}: the member has rank {r + 1}"
                .encode()) in capsysbinary.readouterr().err


def test_oracle_subcommand_matches_report_oracles(capsysbinary):
    """`d0res oracle` runs the report's oracle driver at ranks 1..4: its
    fiber annihilator rows extend the report's, its colength rows are the
    report's (implicit germs only), and `pass` is the AND of every check."""
    paths = sorted(CORPUS.glob("*.json"))
    assert len(paths) == 11
    for path in paths:
        rc = main(["oracle", str(path)])
        out = json.loads(capsysbinary.readouterr().out.decode())
        report = json.loads((CORPUS / "golden" / path.name).read_text())
        oracles = report["oracles"]
        assert out["colength_crosscheck"] == oracles["colength_crosscheck"], path
        fibers = out["fiber_annihilator_crosscheck"]
        assert [row["branch"] for row in fibers] == list(range(len(fibers)))
        assert len(fibers) == len(oracles["fiber_annihilator_crosscheck"]), path
        for row, reported in zip(fibers, oracles["fiber_annihilator_crosscheck"]):
            assert row["branch"] == reported["branch"]
            assert list(row["results"]) == ["1", "2", "3", "4"]
            assert reported["results"].items() <= row["results"].items(), path
        checks = [ok for row in fibers for ok in row["results"].values()]
        checks += [row["matches_l_matrix"] for row in out["colength_crosscheck"]]
        assert out["pass"] is all(checks)
        assert rc == (0 if out["pass"] else 1)
        if "branches" in json.loads(path.read_text())["curve"]:
            assert out["colength_crosscheck"] == []


def test_gaussian_corpus_entry(capsysbinary):
    rc = main(["analyze", str(CORPUS / "gaussian_node.json")])
    out = json.loads(capsysbinary.readouterr().out.decode())
    assert rc == 0
    assert out["field"] == {"generator": "a", "minpoly": ["1", "0", "1"]}
    assert out["germ"]["r0"] == 2
    assert all(c["pass"] for c in out["certificates"])


def test_module_entry_point_prints_the_golden_report():
    proc = subprocess.run(
        [sys.executable, "-m", "d0res", "analyze", "corpus/cusp.json"],
        capture_output=True, cwd=REPO, timeout=60,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (CORPUS / "golden" / "cusp.json").read_bytes()


def test_quartic_splitting_into_gaussian_quadratics(tmp_path, capsysbinary):
    """y^4 + 4x^4 has the four branches y = (+-1 +- i)x, over QQ(i)."""
    path = write_request(tmp_path, "y4_4x4.json", {
        "curve": {"implicit": {"poly": [[[0, 4], "1"], [[4, 0], "4"]]}}})
    rc = main(["analyze", path, "--strict"])
    out = json.loads(capsysbinary.readouterr().out.decode())
    assert rc == 0
    assert out["field"]["minpoly"] in (["2", "2", "1"], ["2", "-2", "1"])
    germ = out["germ"]
    assert germ["n"] == [1, 1, 1, 1]
    assert all(v == 1 for i, row in enumerate(germ["l_matrix"])
               for j, v in enumerate(row) if i != j)
    assert germ["r0"] == 2


def test_second_extension_error_names_both_moduli(tmp_path, capsysbinary):
    """y^4 - 4x^4 = (y^2 + 2x^2)(y^2 - 2x^2) needs QQ(sqrt(-2)) and QQ(sqrt(2))."""
    path = write_request(tmp_path, "y4_m4x4.json", {
        "curve": {"implicit": {"poly": [[[0, 4], "1"], [[4, 0], "-4"]]}}})
    assert main(["analyze", path]) == 3
    err = capsysbinary.readouterr().err.decode()
    assert "Fraction(" not in err
    assert "2+a^2" in err and "-2+a^2" in err


def test_large_coefficients_do_not_stall_root_finding(tmp_path, capsysbinary):
    """Rational roots are found by bisection, not by factoring 10^18 + 3."""
    big = str(10 ** 18 + 3)
    curve = write_request(tmp_path, "curve.json", {
        "curve": {"implicit": {"poly": [[[0, 3], "1"], [[3, 0], "-" + big]]}}})
    assert main(["analyze", curve]) == 3      # needs its cube root and omega
    field = write_request(tmp_path, "field.json", {
        "field": {"minpoly": [big, "0", "0", "1"]},
        "curve": {"implicit": {"poly": CUSP_POLY}}})
    assert main(["analyze", field]) == 0
    capsysbinary.readouterr()


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


# Two open defects, each pinned by the answer it should give: the test
# fails today, as expected, and passes, so fails the strict xfail, once
# the defect is mended.
PARABOLA_TWICE = {"curve": {"branches": [{
    "x": [[2, "1"], [3, "1"]], "y": [[4, "1"], [5, "2"], [6, "1"]]}]}}


@pytest.mark.xfail(strict=True, reason="an explicit branch's covering "
                   "degree is not checked; it exits 0 with PASS")
def test_a_branch_that_covers_its_image_twice_is_refused():
    """(s, s^2) with s = t^2 + t^3 is the smooth parabola traversed 2:1:
    its exponents have gcd 1, yet the branch is not primitive.  Under
    `-O --strict` it must exit 2 with no report and an error naming the
    branch."""
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "d0res", "analyze", "-", "--strict"],
        input=json.dumps(PARABOLA_TWICE), capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")}, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "curve.branches[0]" in proc.stderr


@pytest.mark.xfail(strict=True, reason="the slopes of y^4 + x^4 lie in "
                   "QQ(a), a^4 = -1, but the request exits 3")
def test_four_smooth_branches_in_one_extension_are_certified(tmp_path,
                                                             capsysbinary):
    """y^4 + x^4 splits into four smooth branches y = a x over QQ(a),
    a^4 = -1, one simple extension: it must certify them,
    n = (1, 1, 1, 1), and pass under --strict."""
    path = write_request(tmp_path, "quartic.json", {"curve": {"implicit": {
        "poly": [[[0, 4], "1"], [[4, 0], "1"]]}}})
    rc = main(["analyze", path, "--strict"])
    captured = capsysbinary.readouterr()
    assert rc == 0, captured.err
    out = json.loads(captured.out.decode())
    assert out["germ"]["n"] == [1, 1, 1, 1]
    assert all(c["pass"] for c in out["certificates"])
