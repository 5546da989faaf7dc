"""`report.needed_truncation`: a request lifts once, to what its readers
read, and its report is its report at any longer lift with the series cut.

The reference is the margin max(32, 8 * r * max(n)) that every request
once lifted to (`oracles.margin_truncation`).  At that truncation the
report must be the same, byte for byte, once its series are cut to the
need and its truncation fields swapped (`oracles.cut_report`), so no
stored old bytes are needed.  The Newton tree states the needs of
primitivity and the colength row before any lift; on the lifted germ the
same needs come from the series, and the two must agree.
"""

import json
import sys
from pathlib import Path

import pytest

import d0res.report as report
from d0res.branches import (
    PlaneCurveInput,
    _value_semigroup,
    branch_multiplicity,
    colength_intersection_length,
    germ_invariants,
    newton_tree,
)
from d0res.cli import main
from d0res.errors import RaiseTruncation
from d0res.puiseux import FieldContext
from d0res.report import parse_request

from oracles import margin_report_mismatches
from test_newton_tree import HAND_CASES, IMPLICIT_CORPUS, analyze, poly

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"
DATA = Path(__file__).resolve().parent / "data"
if str(REPO / "perfbench") not in sys.path:
    sys.path.append(str(REPO / "perfbench"))
import workloads  # noqa: E402  (the benchmark's request lists)


def request_object(req):
    """The request object of a benchmark `analyze` call: its file or stdin
    JSON with the ranks of its `--rank` flags."""
    argv = list(req.argv)
    source = req.stdin if argv[1] == "-" else Path(argv[1]).read_text()
    obj = json.loads(source)
    ranks = [int(argv[i + 1]) for i, arg in enumerate(argv) if arg == "--rank"]
    return {**obj, "ranks": ranks} if ranks else obj


def margin_requests():
    """Every corpus request, every tests/data snapshot input, the rank
    ladder and the six rational families at seed 5."""
    params = [pytest.param(json.loads(p.read_text()), id=p.stem)
              for p in sorted(CORPUS.glob("*.json"))]
    params += [pytest.param(json.loads(p.read_text())["input"], id=f"data-{p.stem}")
               for p in sorted(DATA.glob("*.json"))]
    params += [pytest.param(request_object(r), id=r.label)
               for r in workloads.rank_ladder(REPO)]
    params += [pytest.param(request_object(r), id=f"seed5-{r.label}")
               for r in workloads.rational_germs(5)]
    return params


@pytest.mark.parametrize("request_obj", margin_requests())
def test_the_report_is_the_margin_report_cut(request_obj):
    """The report at the need equals the report at the old margin, in JSON
    and in text, once that one's series are cut to the need and its
    truncation fields swapped: no other byte moves."""
    assert margin_report_mismatches(request_obj) == []


# -- the tree states the needs -------------------------------------------------------


def tree_germs():
    """(tree, germ) params: hand cases, the implicit corpus, germs with two
    characteristic exponents or x of order above the multiplicity, and
    the rational families at seed 5, each germ lifted at its need."""
    cases = [(name, f, None) for name, (f, _, _) in HAND_CASES.items()]
    for name in IMPLICIT_CORPUS:
        req = parse_request(json.loads((CORPUS / f"{name}.json").read_text()))
        cases.append((name, req.poly, req.field))
    cases += [
        # (t^4, t^6 + t^7): characteristic exponents 6 and 7, conductor 16
        ("4-6-7", poly({(0, 4): 1, (3, 2): -2, (6, 0): 1, (5, 1): -4,
                        (7, 0): -1}), None),
        # (t^5, t^3): x of order 5 above the multiplicity 3, conductor 8
        ("y5-x3", poly({(0, 5): 1, (3, 0): -1}), None),
        # (t^3, t): smooth, x of order 3
        ("x-y3", poly({(1, 0): 1, (0, 3): -1}), None),
        ("y2-x129", poly({(0, 2): 1, (129, 0): -1}), None),
    ]
    for r in workloads.rational_germs(5):
        req = parse_request(json.loads(r.stdin))
        cases.append((r.label, req.poly, req.field))
    out = []
    for name, f, field in cases:
        ctx = FieldContext(field)
        tree = newton_tree(PlaneCurveInput(f), ctx)
        need = report.needed_truncation(tree, [tree.r0])
        germ = germ_invariants(tree.lift(need), tree=tree)
        out.append(pytest.param(tree, germ, id=name))
    return out


@pytest.mark.parametrize("tree, germ", tree_germs())
def test_the_tree_states_the_germs_needs(tree, germ):
    """The conductors the tree reads off its characteristic exponents are
    the value semigroups' on the lifted branches; the lift at the tree's
    need is primitive with no shorter need of its own; and the need of
    the germ at every rank is the tree's."""
    # a semigroup of conductor c and multiplicity m is read to c + m
    reach = max(c + m for c, m in zip(tree.conductors, tree.n))
    semigroups = [_value_semigroup(b, branch_multiplicity(b))[1]
                  for b in tree.lift(max(reach, tree.primitive_truncation))]
    assert tree.conductors == tuple(semigroups)
    assert germ.primitive_truncation <= tree.primitive_truncation
    for rank in (1, germ.r0, germ.r0 + 5):
        assert (report.needed_truncation(germ, [rank])
                == report.needed_truncation(tree, [rank]))


def test_the_characteristic_exponents_fix_the_needs_by_hand():
    """(t^4, t^6 + t^7) has conductor (4 - 2)*5 + (2 - 1)*6 = 16 and is
    primitive from 8 on; y^2 - x^129 is (t^2, t^129), primitive from 130
    on; the tacnode's two graphs are smooth, of conductor 0."""
    trees = {name: newton_tree(PlaneCurveInput(f), FieldContext())
             for name, f in (
                 ("4-6-7", poly({(0, 4): 1, (3, 2): -2, (6, 0): 1,
                                 (5, 1): -4, (7, 0): -1})),
                 ("y2-x129", poly({(0, 2): 1, (129, 0): -1})),
                 ("tacnode", HAND_CASES["tacnode"][0]))}
    assert (trees["4-6-7"].conductors, trees["4-6-7"].primitive_truncation) == ((16,), 8)
    assert (trees["y2-x129"].conductors, trees["y2-x129"].primitive_truncation) == ((128,), 130)
    assert trees["tacnode"].conductors == (0, 0)
    # l = 3, m = 1, c = 0: branch 1 is read to K*m + c = (3 + 1)*1 = 4
    assert trees["tacnode"].colength_truncation == 4


@pytest.mark.parametrize("name", ["tacnode", "y4-x6", "cusp-vs-cusp",
                                  "line-cusp", "axes-cusp"])
def test_the_colength_row_reads_exactly_its_need(name):
    """Every pair's colength is decided at the tree's colength need, and
    one term short of it some pair asks for more: the need is not padded."""
    tree = newton_tree(PlaneCurveInput(HAND_CASES[name][0]), FieldContext())
    need = tree.colength_truncation
    pairs = [(i, j) for i in range(len(tree.n)) for j in range(i + 1, len(tree.n))]
    at_need = tree.lift(max(need, tree.primitive_truncation))
    for i, j in pairs:
        assert colength_intersection_length(at_need[i], at_need[j]) == tree.l_matrix[i][j]
    short = tree.lift(max(need - 1, tree.primitive_truncation))
    raised = 0
    for i, j in pairs:
        try:
            colength_intersection_length(short[i], short[j])
        except RaiseTruncation:
            raised += 1
    assert raised >= 1


# -- the lift's own need ----------------------------------------------------------------


@pytest.mark.parametrize("f, need", [
    (poly({(0, 2): 1, (129, 0): -1}), 130),
    (poly({(0, 2): 1, (2, 0): -1, (3, 0): -1}), 2),
    (HAND_CASES["axes-cusp"][0], 4),
    (poly({(0, 3): 1, (4, 0): -1}), 5),
])
def test_a_lift_below_the_trees_need_asks_for_it(f, need):
    """Below its primitive truncation a tree does not lift: it raises
    RaiseTruncation carrying that truncation, which lifts."""
    tree = newton_tree(PlaneCurveInput(f), FieldContext())
    assert tree.primitive_truncation == need
    for trunc in (1, need - 1):
        with pytest.raises(RaiseTruncation) as info:
            tree.lift(trunc)
        assert info.value.needed == need
    branches = tree.lift(need)
    assert tuple(branch_multiplicity(b) for b in branches) == tree.n


# -- lifts per request ----------------------------------------------------------------


@pytest.fixture
def builds(monkeypatch):
    """The truncations of the pipeline's `_build_branches` calls."""
    calls = []
    build = report._build_branches

    def counted(req, trunc, tree):
        calls.append(trunc)
        return build(req, trunc, tree)

    monkeypatch.setattr(report, "_build_branches", counted)
    return calls


@pytest.mark.parametrize("request_obj, truncations", [
    (json.loads((CORPUS / "parametric_cusp.json").read_text()), [4]),
    (json.loads((CORPUS / "space_lines.json").read_text()), [4]),
    # y = +-x^5 coincide at 4; at 8 l = 5 is proven, and r0 = 6 needs 7
    ({"curve": {"branches": [{"x": [[1, "1"]], "y": [[5, "1"]]},
                             {"x": [[1, "1"]], "y": [[5, "-1"]]}]}}, [4, 8]),
    # the cusp and its transpose: the colength reads past 8 for l = 4, so
    # it is proven at 16, above the need 11 of r0 = 10
    ({"curve": {"branches": [{"x": [[2, "1"]], "y": [[3, "1"]]},
                             {"x": [[3, "1"]], "y": [[2, "1"]]}]}}, [4, 8, 16]),
])
def test_explicit_requests_build_from_4_to_the_need(request_obj, truncations,
                                                    builds):
    """Explicit branches start at 4, double while their invariants are
    undecided, and jump once to the need of the germ they prove."""
    out = report.run_analyze(parse_request(request_obj))
    assert builds == truncations
    assert out["truncation"] == truncations[-1]
    assert report.report_passes(out)


def test_the_ceiling_stops_a_need_above_it_before_any_lift(builds):
    """y^4 - x^4094 has n = (2, 2), l = 4094 and r0 = 8190: its rank-8190
    jet needs 8191 terms, above the ceiling, and the run stops before any
    lift."""
    request = {"curve": {"implicit": {"poly": [[[0, 4], "1"], [[4094, 0], "-1"]]}}}
    code, blob = analyze(["analyze", "-"], json.dumps(request))
    assert code == 2 and blob == b""
    assert builds == []


def test_an_explicit_requested_truncation_is_where_a_run_starts(builds,
                                                                 capsysbinary):
    """`--truncation` still forces a longer lift than the need."""
    assert main(["analyze", str(CORPUS / "parametric_cusp.json"),
                 "--truncation", "48"]) == 0
    assert json.loads(capsysbinary.readouterr().out)["truncation"] == 48
    assert builds == [48]


def test_the_oracle_command_lifts_once(builds, capsysbinary):
    """`d0res oracle` reads its rows up to rank 4 on every germ, so its
    need counts 5 terms: the cusp (r0 = 2) lifts once, at 5, not at the
    analysis need 4 and again at 8."""
    assert main(["oracle", str(CORPUS / "cusp.json")]) == 0
    assert json.loads(capsysbinary.readouterr().out)["truncation"] == 5
    assert builds == [5]
