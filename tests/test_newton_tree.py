"""The Newton tree's invariants and the one lift per request.

`branches.newton_tree` reads n_i and l_ij off the Newton-polygon tree with
no truncation.  They are an implicit germ's invariants, and must agree with
the colength l_ij that `germ_invariants` computes for the same branches
given with no tree.  `report.run_with_escalation` lifts
each implicit request at the truncation the tree predicts, and only a
RaiseTruncation takes it higher.
"""

import io
import json
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import d0res.report as report
from d0res import branches, puiseux
from d0res import poly as poly_module
from d0res.branches import (
    PlaneCurveInput,
    germ_invariants,
    newton_puiseux,
    newton_tree,
)
from d0res.cli import main
from d0res.errors import D0resError
from d0res.fields import NumberField
from d0res.poly import Poly
from d0res.puiseux import FieldContext, leaf_to_coords, solve_regular_tail
from d0res.report import parse_request, run_with_escalation
from d0res.series import Series

from test_random_germs import BRANCH_POOL, graph_equation

REPO = Path(__file__).resolve().parent.parent
CORPUS = REPO / "corpus"
if str(REPO / "perfbench") not in sys.path:
    sys.path.append(str(REPO / "perfbench"))
import workloads  # noqa: E402  (the benchmark's request lists)

F = Fraction


def poly(*factors):
    """The product of polynomials given as {(i, j): coefficient} dicts."""
    out = Poly.constant(2, F(1))
    for terms in factors:
        out = out * Poly(2, {e: F(c) for e, c in terms.items()})
    return out


def tree_of(f, field=None):
    return newton_tree(PlaneCurveInput(f), FieldContext(field))


def assert_routes_agree(tree, branches):
    """The tree's n and l_ij, and the colength ones `germ_invariants` takes
    for the same branches given with no tree."""
    germ = germ_invariants(branches)
    assert tree.n == germ.n
    assert tree.l_matrix == germ.l_matrix
    assert tree.r0 == germ.r0


CUSP = {(0, 2): 1, (3, 0): -1}
HAND_CASES = {
    # the cusp against y^2 = x^3 + x^4: 6 in the root chart, 2 where they part
    "cusp-vs-cusp": (poly(CUSP, {(0, 2): 1, (3, 0): -1, (4, 0): -1}),
                     (2, 2), ((None, 8), (8, None))),
    "y4-x6": (poly({(0, 4): 1, (6, 0): -1}), (2, 2), ((None, 6), (6, None))),
    # (y - x^2)(y - x^2 - x^3), the benchmark's tacnode family
    "tacnode": (poly({(0, 1): 1, (2, 0): -1}, {(0, 1): 1, (2, 0): -1, (3, 0): -1}),
                (1, 1), ((None, 3), (3, None))),
    # the branches part on different edges, slopes 1 and 3/2
    "line-cusp": (poly({(0, 1): 1, (1, 0): -1}, CUSP),
                  (1, 2), ((None, 2), (2, None))),
    # both axis branches: y = 0 first, x = 0 last
    "axes-cusp": (poly({(1, 1): 1}, CUSP), (1, 2, 1),
                  ((None, 3, 1), (3, None, 2), (1, 2, None))),
}


@pytest.mark.parametrize("name", HAND_CASES)
def test_tree_invariants_by_hand(name):
    f, n, l_matrix = HAND_CASES[name]
    tree = tree_of(f)
    assert tree.n == n
    assert tree.l_matrix == l_matrix
    assert_routes_agree(tree, tree.lift(64))


def test_the_y_axis_is_the_first_leaf():
    """y*(y^2 + x^2) over QQ(i): the y = 0 factor is the exact-tail leaf
    that sorts first, (t, 0), before y = -i*t and y = i*t, and each pair
    meets once."""
    request = {"curve": {"implicit": {"poly": [[[0, 3], "1"], [[2, 1], "1"]]}},
               "field": {"generator": "i", "minpoly": ["1", "0", "1"]}}
    code, blob = analyze(["analyze", "-"], json.dumps(request))
    assert code == 0
    germ = json.loads(blob)["germ"]
    assert germ["branches"] == [
        {"x": [[1, "1"]], "y": [], "truncation": 4},
        {"x": [[1, "1"]], "y": [[1, "-i"]], "truncation": 4},
        {"x": [[1, "1"]], "y": [[1, "i"]], "truncation": 4}]
    assert germ["n"] == [1, 1, 1]
    assert germ["l_matrix"] == [[None, 1, 1], [1, None, 1], [1, 1, None]]
    (tail, *_) = tree_of(poly({(0, 1): 1}, {(0, 2): 1, (2, 0): 1}),
                         NumberField([F(1), F(0), F(1)], generator="i")).leaves
    assert (tail.levels, tail.tail_poly, tail.order_key) == ([], None, ((-1, 0),))


IMPLICIT_CORPUS = [p.stem for p in sorted(CORPUS.glob("*.json"))
                   if "implicit" in json.loads(p.read_text())["curve"]]


@pytest.mark.parametrize("name", IMPLICIT_CORPUS)
def test_tree_agrees_on_the_corpus(name):
    req = parse_request(json.loads((CORPUS / f"{name}.json").read_text()))
    germ = run_with_escalation(req, lambda g, c, t, r: g)
    tree = tree_of(req.poly, req.field)
    assert tree.n == germ.n and tree.l_matrix == germ.l_matrix
    assert_routes_agree(tree, germ.branches)


def test_tree_agrees_on_random_germs():
    """The germs of test_random_germs: products of graph branches (same
    seed and draws) and scaled cusps."""
    rng = random.Random(2024)
    for _ in range(12):
        chosen = rng.sample(BRANCH_POOL, rng.randint(2, 3))
        f = Poly.constant(2, F(1))
        for pairs in chosen:
            f = f * graph_equation(pairs)
        tree = tree_of(f)
        assert_routes_agree(tree, tree.lift(32))
    rng = random.Random(7)
    for _ in range(6):
        tree = tree_of(poly({(0, 2): 1, (3, 0): -rng.randint(1, 5)}))
        assert tree.n == (2,) and tree.r0 == 2
        assert_routes_agree(tree, tree.lift(32))


def test_lift_follows_the_tree_at_any_truncation():
    """One tree serves lifts at every truncation, and a lift truncated is
    the lift at the lower truncation."""
    f = HAND_CASES["cusp-vs-cusp"][0]
    tree = tree_of(f)
    high = tree.lift(96)
    low = tree.lift(40)
    assert ([tuple(s.truncate(40) for s in b.coords) for b in high]
            == [b.coords for b in low])
    assert newton_puiseux(PlaneCurveInput(f), 40) == low
    assert newton_puiseux(tree, 40) == low


def coords_by_products(leaf, trunc):
    """`leaf_to_coords` by series powers and products: x = x_c^p * A and
    y = x_c^q * (B + y_c) at each level, from the tail up."""
    if leaf.tail_poly is None:
        y = Series.zero(trunc)
    else:
        y = solve_regular_tail(leaf.tail_poly, trunc)
    x = Series.variable(trunc)
    for (p, q, A, B) in reversed(leaf.levels):
        x, y = (x ** p) * A, (x ** q) * (Series.monomial(0, B, trunc) + y)
    return x, y


# (y - x^40)(y + x): the branch y = x^40 has a level shift of 40, above
# the truncation 4 its request is lifted at
SHIFT_ABOVE = poly({(0, 1): 1, (40, 0): -1}, {(0, 1): 1, (1, 0): 1})


@pytest.mark.parametrize("trunc", [4, 8, 32, 39, 40, 41, 79, 80, 96])
def test_shifts_match_the_series_products(trunc):
    """The shift back-substitution equals the product one at every
    truncation, below, at and above a level's shift, and every coordinate
    has trunc coefficients."""
    germs = [HAND_CASES[name][0] for name in ("cusp-vs-cusp", "y4-x6", "line-cusp")]
    # y = +-sqrt(-2)*x: its coefficients lie in an extension field
    germs += [SHIFT_ABOVE, poly({(0, 2): 1, (2, 0): 2})]
    for f in germs:
        for leaf in tree_of(f).leaves:
            coords = leaf_to_coords(leaf, trunc)
            assert coords == coords_by_products(leaf, trunc)
            assert [len(s.coeffs) for s in coords] == [trunc, trunc]


def test_a_shift_above_the_lift_prints_no_term():
    """The y = x^40 branch of (y - x^40)(y + x), lifted at its need 4,
    prints a zero y."""
    terms = [[list(e), str(c)] for e, c in SHIFT_ABOVE.terms.items()]
    code, blob = analyze(["analyze", "-"],
                         json.dumps({"curve": {"implicit": {"poly": terms}}}))
    assert code == 0
    germ = json.loads(blob)["germ"]
    assert json.loads(blob)["truncation"] == 4
    assert germ["branches"][1] == {"x": [[1, "1"]], "y": [], "truncation": 4}


def plant(monkeypatch, **fields):
    """Make the pipeline's Newton tree carry the given wrong fields."""
    def planted(*args):
        return replace(newton_tree(*args), **fields)

    monkeypatch.setattr(report, "newton_tree", planted)


CUSP_VS_CUSP = [[list(e), str(c)]
                for e, c in HAND_CASES["cusp-vs-cusp"][0].terms.items()]


@pytest.mark.parametrize("field, message", [
    ("n", "branch 1 has multiplicity 3 in the Newton tree, 2 on the series"),
])
def test_a_wrong_tree_stops_the_run(monkeypatch, field, message):
    """A tree n must be the multiplicity of the branch lifted from it."""
    plant(monkeypatch, **{field: (2, 3)})
    req = parse_request({"curve": {"implicit": {"poly": CUSP_VS_CUSP}},
                         "ranks": [18]})
    with pytest.raises(D0resError, match=message):
        report.run_analyze(req)


def test_a_wrong_tree_l_ij_fails_its_colength_row(monkeypatch):
    """A wrong tree l_ij stands in l_matrix, and the colength row, which
    recomputes it on the lifted branches, refutes it: `--strict` exits 1
    though every certificate passes, and so does `oracle`."""
    plant(monkeypatch, l_matrix=((None, 9), (9, None)))
    request = {"curve": {"implicit": {"poly": CUSP_VS_CUSP}}, "ranks": [20]}
    code, blob = analyze(["analyze", "-", "--strict"], json.dumps(request))
    assert code == 1
    out = json.loads(blob)
    assert out["germ"]["l_matrix"] == [[None, 9], [9, None]]
    row = {"pair": [0, 1], "colength": 8, "matches_l_matrix": False}
    assert out["oracles"]["colength_crosscheck"] == [row]
    assert all(cert["pass"] for cert in out["certificates"])
    code, blob = analyze(["oracle", "-"], json.dumps(request))
    assert code == 1
    assert json.loads(blob)["colength_crosscheck"] == [row]


# -- one lift per request --------------------------------------------------------------


def analyze(argv, stdin=None):
    """One in-process `d0res` call: (exit code, report bytes)."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    saved = sys.stdout, sys.stdin
    sys.stdout = out
    if stdin is not None:
        sys.stdin = io.StringIO(stdin)
    try:
        code = main(list(argv))
    finally:
        sys.stdout, sys.stdin = saved
    out.flush()
    return code, out.buffer.getvalue()


@pytest.fixture
def lifts(monkeypatch):
    """The truncations of the pipeline's `newton_puiseux` calls, which the
    benchmark's tracer also wraps through `d0res.report`."""
    calls = []

    def counted(curve, trunc, *args):
        calls.append(trunc)
        return newton_puiseux(curve, trunc, *args)

    monkeypatch.setattr(report, "newton_puiseux", counted)
    return calls


@pytest.fixture
def predictions(monkeypatch):
    """The values of the pipeline's `predicted_truncation` calls."""
    values = []
    predict = report.predicted_truncation

    def recorded(req, invariants):
        values.append(predict(req, invariants))
        return values[-1]

    monkeypatch.setattr(report, "predicted_truncation", recorded)
    return values


def implicit_requests():
    """The implicit corpus requests, the rank ladder and the rational germs
    at seeds 1 to 5."""
    requests = [pytest.param(r, id=r.label) for r in workloads.corpus(REPO)
                if r.germ in IMPLICIT_CORPUS]
    requests += [pytest.param(r, id=r.label) for r in workloads.rank_ladder(REPO)]
    for seed in range(1, 6):
        requests += [pytest.param(r, id=f"seed{seed}-{r.label}")
                     for r in workloads.rational_germs(seed)]
    return requests


@pytest.mark.parametrize("req", implicit_requests())
def test_one_lift_per_request(req, lifts, predictions):
    """Each request is lifted once, at the truncation the tree predicts,
    and its report prints that truncation.  The germ of that lift asks
    for the same truncation, so the run does not jump."""
    code, blob = analyze(req.argv, req.stdin)
    assert workloads.passes_gate(req, code, blob)
    assert json.loads(blob)["truncation"] == lifts[0] == predictions[0]
    assert len(lifts) == 1
    assert predictions == [lifts[0]] * 2


def explicit_plane_requests():
    """Explicit plane germs with two or more branches: y = +-x^5, the cusp
    and its transpose, the contact-13 pair, and the lifted branches of
    triple_point and cyclotomic_triple given explicitly."""
    requests = [
        {"curve": {"branches": [{"x": [[1, "1"]], "y": [[5, "1"]]},
                                {"x": [[1, "1"]], "y": [[5, "-1"]]}]}},
        {"curve": {"branches": [{"x": [[2, "1"]], "y": [[3, "1"]]},
                                {"x": [[3, "1"]], "y": [[2, "1"]]}]}},
        {"curve": {"branches": [{"x": [[4, "1"]], "y": [[6, "1"], [7, "1"]]},
                                {"x": [[2, "1"]], "y": [[3, "1"]]}]}},
    ]
    for name in ("triple_point", "cyclotomic_triple"):
        golden = json.loads((CORPUS / "golden" / f"{name}.json").read_text())
        obj = {"curve": {"branches": [
            {key: pairs for key, pairs in b.items() if key != "truncation"}
            for b in golden["germ"]["branches"]]}}
        if golden["field"] is not None:
            obj["field"] = golden["field"]
        requests.append(obj)
    return requests


REPEATED_PAIRS = [
    [{"x": [[2, "1"]], "y": [[3, "1"]]}, {"x": [[2, "1"]], "y": [[3, "-1"]]}],
    [{"x": [[2, "1"], [3, "2"], [4, "1"]],
      "y": [[3, "1"], [4, "3"], [5, "3"], [6, "1"]]},
     {"x": [[2, "1"]], "y": [[3, "1"]]}],
]


def test_implicit_requests_need_no_power_sums(monkeypatch):
    """Every request passes its gate with the power-sum equation,
    `implicit_equation`, refusing to run: the implicit requests of every
    workload, the explicit corpus requests and the explicit plane germs,
    whose l_ij come from the tree or the colength.  The repeated pairs
    exit 2 without it too."""
    def refuse(*args):
        raise AssertionError("a request ran the power-sum route")

    monkeypatch.setattr(branches, "implicit_equation", refuse)
    for param in implicit_requests():
        (req,) = param.values
        assert workloads.passes_gate(req, *analyze(req.argv, req.stdin)), req.label
    for req in workloads.corpus(REPO):
        if req.germ not in IMPLICIT_CORPUS:
            assert workloads.passes_gate(req, *analyze(req.argv, req.stdin)), req.label
    for obj in explicit_plane_requests():
        code, blob = analyze(["analyze", "-", "--strict"], json.dumps(obj))
        assert code == 0 and json.loads(blob)["oracles"]["colength_crosscheck"] == []
    for pair in REPEATED_PAIRS:
        request = json.dumps({"curve": {"branches": pair}})
        assert analyze(["analyze", "-"], request) == (2, b"")


def test_the_front_end_runs_no_gcd_and_no_substitution(monkeypatch):
    """Every rational implicit corpus request certifies reducedness mod a
    prime, with no `gcd_bivariate` call, and no tree level substitutes
    Polys (`Poly.evaluate`) inside `puiseux_transform`.  A request whose
    coefficients lie in its field takes the exact route."""
    gcds, inside, substitutions = [], [], []
    exact, transform, evaluate = (poly_module.gcd_bivariate,
                                  puiseux.puiseux_transform, Poly.evaluate)

    def counted_gcd(f, g):
        gcds.append(f)
        return exact(f, g)

    def marked_transform(*args):
        inside.append(True)
        try:
            return transform(*args)
        finally:
            inside.pop()

    def counted_evaluate(self, *args):
        if inside:
            substitutions.append(self)
        return evaluate(self, *args)

    monkeypatch.setattr(poly_module, "gcd_bivariate", counted_gcd)
    monkeypatch.setattr(puiseux, "puiseux_transform", marked_transform)
    monkeypatch.setattr(Poly, "evaluate", counted_evaluate)
    for req in workloads.corpus(REPO):
        if req.germ in IMPLICIT_CORPUS:
            assert workloads.passes_gate(req, *analyze(req.argv, req.stdin)), req.label
    assert gcds == [] and substitutions == []
    # y^2 + i*x^3 over QQ(i)
    request = {"field": {"generator": "i", "minpoly": ["1", "0", "1"]},
               "curve": {"implicit": {"poly": [[[0, 2], "1"], [[3, 0], "i"]]}}}
    code, blob = analyze(["analyze", "-", "--strict"], json.dumps(request))
    assert code == 0 and json.loads(blob)["germ"]["r0"] == 2
    assert len(gcds) == 2 and substitutions == []


def test_a_prediction_below_the_need_relifts(lifts):
    """y^2 - x^62 at rank 5: the tree's l = 31 needs no precision margin,
    and the colength row reads K*m_j + c_j = 32 terms for it, above the
    rank-5 jet's 6, so the run lifts once, at 32.  (The power-sum route,
    which must see l + 2 = 33 below its horizon, would need more.)"""
    request = {"curve": {"implicit": {"poly": [[[0, 2], "1"], [[62, 0], "-1"]]}}}
    code, blob = analyze(["analyze", "-", "--rank", "5"], json.dumps(request))
    assert code == 0
    assert json.loads(blob)["truncation"] == 32
    assert lifts == [32]


def test_a_lift_that_asks_for_more_is_dropped(lifts):
    """y^2 = x^129 is the branch (t^2, t^129), not primitive below 130: the
    tree reads the characteristic exponent 129 off its level, so the run
    lifts once, at 130, and no lift is dropped."""
    request = {"curve": {"implicit": {"poly": [[[0, 2], "1"], [[129, 0], "-1"]]}}}
    code, blob = analyze(["analyze", "-"], json.dumps(request))
    assert code == 0
    assert json.loads(blob)["truncation"] == 130
    assert lifts == [130]
