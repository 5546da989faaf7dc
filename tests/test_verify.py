import ast
import json
import random
from fractions import Fraction
from math import ceil
from pathlib import Path

import pytest

from d0res.errors import D0resError, RankBelowCritical
from d0res.linalg import eval_poly_at_matrices, eval_series_at_matrix
from d0res.modules import AnnihilatorIdeal, annihilator
from d0res.poly import Poly, poly_text
from d0res.report import parse_request, run_with_escalation
from d0res.verify import (
    INCONCLUSIVE,
    NOT_SEPARATED,
    SEPARATED,
    aggregate_critical_rank,
    _point_witness,
    certify,
    family_annihilator,
    family_jet,
    graph_jet_class_vanishes,
    pushforward_restriction_oracle,
    separates_points,
    separates_tangents,
)

F = Fraction

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


@pytest.fixture(scope="module")
def repo_corpus_germs():
    """Every `corpus/*.json` germ, both extension fields and the space
    branches included."""
    germs = {}
    for path in sorted(CORPUS.glob("*.json")):
        req = parse_request(json.loads(path.read_text()))
        germs[path.stem] = run_with_escalation(req, lambda g, c, t, r: g)
    return germs


def test_family_annihilator_matches_generic_oracle(repo_corpus_germs):
    """The series-row annihilator of each member equals the generic one
    computed from the member's action matrices, exploratory ranks too."""
    extension_and_space = {"gaussian_node", "cyclotomic_triple", "space_lines"}
    assert extension_and_space <= set(repo_corpus_germs)
    for name, germ in repo_corpus_germs.items():
        for i in range(germ.k):
            for r in range(1, 11):
                fast = family_annihilator(germ, i, r)
                oracle = annihilator(family_jet(germ, i, r).m1, r)
                assert fast == oracle, (name, i, r)
                assert ([poly_text(p) for p in fast.polys]
                        == [poly_text(p) for p in oracle.polys]), (name, i, r)


def test_node_points_r2(corpus_germs):
    verdicts = separates_points(corpus_germs["node"], 2)
    assert [v.result for v in verdicts] == [SEPARATED]
    assert verdicts[0].witness["polynomial"]


def test_axes_node_annihilators_and_witness():
    from d0res.branches import BranchParam, germ_invariants
    from d0res.modules import annihilator
    from d0res.poly import poly_text
    from d0res.series import Series

    axes = germ_invariants([
        BranchParam((Series.variable(16), Series.zero(16))),
        BranchParam((Series.zero(16), Series.variable(16))),
    ])
    assert (axes.n, axes.bii, axes.l0, axes.r0) == ((1, 1), 1, 2, 2)
    f0 = family_jet(axes, 0, 2).m1
    f1 = family_jet(axes, 1, 2).m1
    ann0 = [poly_text(p) for p in annihilator(f0, 2).polys]
    ann1 = [poly_text(p) for p in annihilator(f1, 2).polys]
    assert "y" in ann0 and "x^2" in ann0 and "x" not in ann0
    assert "x" in ann1 and "y^2" in ann1 and "y" not in ann1
    (verdict,) = separates_points(axes, 2)
    assert verdict.result == SEPARATED
    assert verdict.witness["polynomial"] == "y"


def test_tacnode_negative_control(corpus_germs):
    tac = corpus_germs["tacnode"]
    verdicts = separates_points(tac, 2, exploratory=True)
    assert [v.result for v in verdicts] == [NOT_SEPARATED]
    f0 = family_jet(tac, 0, 2).m1
    f1 = family_jet(tac, 1, 2).m1
    assert f0.same_presentation(f1)
    with pytest.raises(RankBelowCritical):
        separates_points(tac, 2)


@pytest.mark.parametrize("r", [0, -2])
def test_nonpositive_rank_rejected(corpus_germs, r):
    """The module builders reject r < 1, exploratory mode included."""
    for test in (separates_points, separates_tangents):
        with pytest.raises(D0resError, match="rank must be positive"):
            test(corpus_germs["node"], r, exploratory=True)


def test_tacnode_separates_at_r3(corpus_germs):
    verdicts = separates_points(corpus_germs["tacnode"], 3)
    assert [v.result for v in verdicts] == [SEPARATED]
    poly = verdicts[0].witness["polynomial"]
    assert poly in ("y-x^2", "y+x^2")


def test_point_witness_validity(corpus_germs):
    for name, germ in corpus_germs.items():
        if germ.k < 2:
            continue
        for v in separates_points(germ, germ.r0):
            assert v.result == SEPARATED
            i, j = v.subject
            witness = _parse_witness_poly(v.witness["polynomial"])
            fi = family_jet(germ, i, germ.r0).m1
            fj = family_jet(germ, j, germ.r0).m1
            on_i = eval_poly_at_matrices(witness, fi.actions).is_zero()
            on_j = eval_poly_at_matrices(witness, fj.actions).is_zero()
            assert on_i != on_j, (name, v.subject)


def test_point_witness_rechecks_own_fiber(corpus_germs):
    """A candidate that does not kill its own fiber is an error, also under
    `python -O`."""
    fiber = family_jet(corpus_germs["cusp"], 0, 2).m1
    one = Poly.constant(2, F(1))
    bogus = AnnihilatorIdeal(degree_bound=fiber.dim, monomials=(), echelon=(),
                             polys=(one,))
    with pytest.raises(D0resError, match="does not annihilate"):
        _point_witness(bogus, fiber, bogus, fiber)


def test_no_assert_statements_in_package():
    """`python -O` strips asserts, so no check in the package may use one."""
    package = Path(__file__).resolve().parent.parent / "src" / "d0res"
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def _parse_witness_poly(text):
    # witness polynomials are emitted by poly_text; rebuild for re-checking
    terms = {}
    txt = text.replace("-", "+-").lstrip("+")
    for part in txt.split("+"):
        sign = F(1)
        if part.startswith("-"):
            sign = F(-1)
            part = part[1:]
        exp = [0, 0]
        coeff = F(1)
        for factor in part.split("*"):
            if factor.startswith("x"):
                exp[0] = int(factor[2:]) if "^" in factor else 1
            elif factor.startswith("y"):
                exp[1] = int(factor[2:]) if "^" in factor else 1
            elif factor:
                coeff = F(factor)
        terms[tuple(exp)] = sign * coeff
    return Poly(2, terms)


def test_cusp_tangents_r2(corpus_germs):
    verdicts = separates_tangents(corpus_germs["cusp"], 2)
    (v,) = verdicts
    assert v.result == SEPARATED
    assert v.witness["coordinate"] == 0
    assert v.witness["exponent"] == 1


def test_node_tangents_exponent_two(corpus_germs):
    verdicts = separates_tangents(corpus_germs["node"], 2)
    assert all(v.result == SEPARATED for v in verdicts)
    assert all(v.witness["exponent"] == 2 for v in verdicts)


def test_tangent_witness_validity(corpus_germs):
    for name, germ in corpus_germs.items():
        for r in (germ.r0, germ.r0 + 1):
            for v in separates_tangents(germ, r):
                assert v.result == SEPARATED, name
                i = v.subject[0]
                jet = family_jet(germ, i, r)
                coord = v.witness["coordinate"]
                e = v.witness["exponent"]
                assert (jet.m1.actions[coord] ** e).is_zero()
                assert not (jet.m2.actions[coord] ** e).is_zero()


def test_tangent_test_unit_robust(corpus_germs):
    """Replacing the test function f by f*(1+c*f) must not change verdicts."""
    from d0res.series import Series

    rng = random.Random(7)
    for name, germ in corpus_germs.items():
        for i, b in enumerate(germ.branches):
            n = germ.n[i]
            e = germ.r0 // n
            jet = family_jet(germ, i, germ.r0)
            coord_idx = min(
                (k for k, s in enumerate(b.coords) if s.order() is not None),
                key=lambda k: b.coords[k].order(),
            )
            s = b.coords[coord_idx]
            for _ in range(3):
                c = F(rng.randint(1, 9), rng.randint(1, 3))
                modified = s * (Series.one(s.trunc) + s * c)
                f1 = eval_series_at_matrix(modified.truncate(germ.r0), jet.t_m1)
                f2 = eval_series_at_matrix(modified.truncate(germ.r0 + 1),
                                           jet.t_m2)
                assert (f1 ** e).is_zero(), name
                assert not (f2 ** e).is_zero(), name


def test_padding_preserves_verdicts(corpus_germs):
    for name, germ in corpus_germs.items():
        base_points = [v.result for v in separates_points(germ, germ.r0)]
        base_tangents = [v.result for v in separates_tangents(germ, germ.r0)]
        for r in range(germ.r0 + 1, germ.r0 + 4):
            assert [v.result for v in separates_points(germ, r)] == base_points
            assert ([v.result for v in separates_tangents(germ, r)]
                    == base_tangents), name


def test_certify_corpus(corpus_germs):
    for name, germ in corpus_germs.items():
        for r in (germ.r0, germ.r0 + 1, germ.r0 + 2):
            cert = certify(germ, r)
            assert cert.overall, (name, r)
            assert cert.padding_support_ok
            assert cert.padding["copies"] == r - germ.r0
            assert all(pt == germ.point for pt in cert.support_points)
        with pytest.raises(RankBelowCritical):
            certify(germ, germ.r0 - 1)


def test_monotone_negative_control(corpus_germs):
    """A NotSeparated at rank s < r0 must come from s/n_i <= bii."""
    for name, germ in corpus_germs.items():
        if germ.k < 2:
            continue
        for s in range(1, germ.r0):
            for v in separates_points(germ, s, exploratory=True):
                if v.result == NOT_SEPARATED:
                    i, j = v.subject
                    assert (s / germ.n[i] <= germ.bii
                            or s / germ.n[j] <= germ.bii), (name, s)


def test_graph_jet_class(corpus_germs):
    node = corpus_germs["node"]
    cusp = corpus_germs["cusp"]
    assert not graph_jet_class_vanishes(node.branches[0])   # smooth branch
    assert graph_jet_class_vanishes(cusp.branches[0])       # multiplicity 2


def test_pushforward_restriction_oracle_corpus(corpus_germs):
    for name, germ in corpus_germs.items():
        for b in germ.branches:
            for r in (1, 2, 3, 4):
                assert pushforward_restriction_oracle(b, r), (name, r)


def test_exploratory_tangents_only_separated_or_inconclusive(corpus_germs):
    tac = corpus_germs["tacnode"]
    for v in separates_tangents(tac, 2, exploratory=True):
        assert v.result in (SEPARATED, INCONCLUSIVE)
        if v.result == SEPARATED:
            assert v.witness["exponent"] == ceil(2 / tac.n[v.subject[0]])


def test_aggregate_critical_rank(corpus_germs):
    agg = aggregate_critical_rank(list(corpus_germs.values()))
    # max bii = 2 (tacnode), lcm over all n = lcm(1,2,3) = 6
    assert agg["l0"] == 3
    assert agg["r0"] == 18
