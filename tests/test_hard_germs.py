"""Deeper germs than the acceptance corpus: multi-level polygon recursion,
high critical ranks, and degenerate inputs."""

import hashlib
import inspect
import io
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from d0res.branches import (
    BranchParam,
    PlaneCurveInput,
    branch_multiplicity,
    germ_invariants,
    newton_puiseux,
    newton_tree,
)
from d0res.cli import main
from d0res.errors import D0resError
from d0res.poly import Poly, poly_text
from d0res.puiseux import FieldContext
from d0res.report import parse_request, report_passes, run_analyze
from d0res.series import Series
from d0res.verify import CertificateFamily, certify
from oracles import sylvester_resultant_equation

F = Fraction


def test_two_puiseux_pair_branch_roundtrip():
    # start from the parametrization (t^4, t^6 + t^7), eliminate, and recover
    param = BranchParam((
        Series.from_pairs([(4, F(1))], 12),
        Series.from_pairs([(6, F(1)), (7, F(1))], 12),
    ))
    g = sylvester_resultant_equation(param)
    assert poly_text(g) == "y^4-2*x^3*y^2+x^6-4*x^5*y-x^7"
    branches = newton_puiseux(PlaneCurveInput(g), 40)
    assert len(branches) == 1
    (b,) = branches
    assert branch_multiplicity(b) == 4
    x, y = b.coords
    assert x.coeffs[4] == 1 and x.order() == 4
    assert y.order() == 6 and y.coeffs[6] == 1 and y.coeffs[7] == 1
    germ = germ_invariants(branches)
    assert germ.r0 == 4
    assert certify(CertificateFamily(germ), 4).overall


def test_tangent_cusps_high_critical_rank():
    f = Poly(2, {(0, 4): F(1), (6, 0): F(-1)})   # (y^2-x^3)(y^2+x^3)
    germ = germ_invariants(newton_puiseux(PlaneCurveInput(f), 48))
    assert germ.k == 2
    assert germ.n == (2, 2)
    assert germ.l_matrix[0][1] == 6
    assert germ.r0 == 14
    cert = certify(CertificateFamily(germ), 14)
    assert cert.overall


def test_higher_cusp():
    f = Poly(2, {(0, 3): F(1), (5, 0): F(-1)})
    germ = germ_invariants(newton_puiseux(PlaneCurveInput(f), 40))
    assert germ.n == (3,) and germ.r0 == 3
    family = CertificateFamily(germ)
    assert certify(family, 3).overall and certify(family, 5).overall


def test_branch_close_to_a_polynomial_graph():
    """x((y + 2x^2)^2 - x^7): the branch (t^2, -2t^4 + t^7) has an equation
    that no truncation determines uniquely, since x^m y = -2x^(m+2) up to
    order 2m + 7.  Its free coefficients are immaterial below the equation's
    precision, so the invariants are proven at the starting truncation; they
    used to be retried up to the truncation ceiling."""
    f = Poly(2, {(1, 2): F(1), (3, 1): F(4), (5, 0): F(4), (8, 0): F(-1)})
    germ = germ_invariants(newton_puiseux(PlaneCurveInput(f), 32))
    assert germ.n == (2, 1)
    assert germ.l_matrix[0][1] == 2
    assert germ.r0 == 6
    assert certify(CertificateFamily(germ), 6).overall


def test_unit_component_is_ignored():
    # y(xy - 1): only the x-axis branch passes through the origin
    f = Poly(2, {(1, 2): F(1), (0, 1): F(-1)})
    branches = newton_puiseux(PlaneCurveInput(f), 16)
    assert len(branches) == 1
    assert branches[0].coords[1].is_zero_at_precision()


def test_four_branches_over_one_extension():
    # y^4 + 5x^2y^2 + 4x^4 = (y^2+x^2)(y^2+4x^2); all four tangents need i
    f = Poly(2, {(0, 4): F(1), (2, 2): F(5), (4, 0): F(4)})
    germ = germ_invariants(newton_puiseux(PlaneCurveInput(f), 32))
    assert germ.k == 4
    assert germ.n == (1, 1, 1, 1)
    assert germ.bii == 1 and germ.r0 == 2
    for r in (2, 3):
        assert certify(CertificateFamily(germ), r).overall


def test_non_reduced_square_rejected():
    square = Poly(2, {(0, 2): F(1), (3, 0): F(-1)}) ** 2
    with pytest.raises(Exception):
        PlaneCurveInput(square)


def deep_request(k):
    """(y - x - x^2 - ... - x^k)^2 - x^(2k + 3): one branch of multiplicity
    2, whose Newton tree has k + 1 levels, k of them on its first
    characteristic exponent 2k + 3."""
    s = Poly(2, {(i, 0): F(1) for i in range(1, k + 1)})
    f = (Poly.variable(2, 1) - s) ** 2 - Poly(2, {(2 * k + 3, 0): F(1)})
    return {"curve": {"implicit": {"poly": [[list(e), str(c)]
                                            for e, c in f.sorted_terms()]}}}


def test_a_reduced_germ_71_levels_deep_certifies():
    """The depth-71 germ is reduced, and it certifies at n = (2), r0 = 2,
    past its characteristic exponent 143.  Its 71 levels are walked with
    no Python recursion: a recursion limit a few dozen frames above the
    caller's holds."""
    req = parse_request(deep_request(70))
    curve = PlaneCurveInput(req.poly)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack()) + 40)
    try:
        tree = newton_tree(curve, FieldContext())
    finally:
        sys.setrecursionlimit(limit)
    assert [len(leaf.levels) for leaf in tree.leaves] == [71]
    out = run_analyze(req)
    assert (out["germ"]["n"], out["germ"]["r0"], out["truncation"]) == ([2], 2, 144)
    assert report_passes(out)


def _deep_tree_pins():
    """{levels: (sha256, bytes)} from tests/data/deep_tree.sha256."""
    path = Path(__file__).resolve().parent / "data" / "deep_tree.sha256"
    return {int(k): (sha, int(size)) for k, sha, size in (
        line.split() for line in path.read_text().splitlines()
        if not line.startswith("#"))}


@pytest.mark.parametrize("levels", [71, 141])
def test_a_deep_tree_prints_the_pinned_report(monkeypatch, levels):
    """The deep germs' reports, whose tree levels are built on the term
    dict, are byte for byte the ones pinned in tests/data/deep_tree.sha256."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", out)
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(deep_request(levels - 1))))
    assert main(["analyze", "-", "--strict"]) == 0
    out.flush()
    report = out.buffer.getvalue()
    assert (hashlib.sha256(report).hexdigest(), len(report)) == _deep_tree_pins()[levels]


def test_a_tree_deeper_than_the_ceiling_stops_the_run(monkeypatch):
    """A tree deeper than the ceiling stops at it with the ceiling's
    message: a leaf d levels deep needs a truncation above d."""
    req = parse_request(deep_request(10))
    monkeypatch.setenv("D0RES_MAX_TRUNCATION", "8")
    with pytest.raises(D0resError, match=(
            r"analysis needs truncation 9 but the ceiling is 8 \(set "
            r"D0RES_MAX_TRUNCATION to raise it\): the Newton polygon tree is "
            "at least 9 levels deep")):
        run_analyze(req)
