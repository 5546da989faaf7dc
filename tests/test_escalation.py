"""Truncation raises in `report.run_with_escalation`: each attempt computes
the germ invariants of its own lift, from the Newton tree of an implicit
germ or on the lift of explicit branches, and every request of the
workloads lifts once."""

import json
from fractions import Fraction
from pathlib import Path

import pytest

import d0res.report as report
from d0res.branches import BranchParam, PlaneCurveInput, germ_invariants, newton_tree
from d0res.errors import D0resError, RaiseTruncation
from d0res.poly import Poly
from d0res.puiseux import FieldContext
from d0res.report import parse_request, run_with_escalation
from d0res.series import Series

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def corpus_request(name, **extra):
    return {**json.loads((CORPUS / f"{name}.json").read_text()), **extra}


def implicit(terms, ranks=None):
    obj = {"curve": {"implicit": {"poly": [[list(e), c] for e, c in terms]}}}
    if ranks is not None:
        obj["ranks"] = ranks
    return obj


# cusp, e6 and node at the ladder's ranks, and y^4 - x^6 at r0 = 14, with
# the truncation each report prints (`report.needed_truncation`) and the
# margin 8 * r * max(n) the rank alone once asked for
LADDER = [
    ("cusp", 4, 4, 64), ("cusp", 8, 4, 128), ("cusp", 12, 4, 192),
    ("cusp", 16, 4, 256),
    ("e6", 4, 5, 96), ("e6", 8, 5, 192), ("e6", 12, 5, 288),
    ("e6", 16, 5, 384),
    ("node", 4, 4, 32), ("node", 8, 4, 64), ("node", 12, 4, 96),
]
Y4_X6 = [((0, 4), "1"), ((6, 0), "-1")]

# the germs of test_hard_germs.py, at the ranks it certifies
HARD_GERMS = [
    implicit([((0, 4), "1"), ((3, 2), "-2"), ((6, 0), "1"), ((5, 1), "-4"),
              ((7, 0), "-1")], ranks=[4]),
    implicit(Y4_X6, ranks=[14]),
    implicit([((0, 3), "1"), ((5, 0), "-1")], ranks=[3, 5]),
    implicit([((1, 2), "1"), ((0, 1), "-1")]),
    implicit([((0, 4), "1"), ((2, 2), "5"), ((4, 0), "4")], ranks=[2, 3]),
]

REQUESTS = (
    [corpus_request(p.stem) for p in sorted(CORPUS.glob("*.json"))]
    + [corpus_request(name, ranks=[r]) for name, r, *_ in LADDER]
    + HARD_GERMS
)


@pytest.fixture
def invariant_calls(monkeypatch):
    """The germs of the pipeline's `germ_invariants` calls, which the
    benchmark's tracer also counts through `d0res.report`."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(germ_invariants(*args, **kwargs))
        return calls[-1]

    monkeypatch.setattr(report, "germ_invariants", counted)
    return calls


def final_germ(obj, stage=None):
    req = parse_request(obj)
    return run_with_escalation(
        req, stage or (lambda germ, ctx, trunc, ranks: (req, germ, trunc)))


@pytest.mark.parametrize("obj", REQUESTS)
def test_carried_invariants_equal_recomputed(obj, invariant_calls):
    """One `germ_invariants` call per request, on the one lift, and its
    invariants equal the ones recomputed from scratch, with no tree."""
    req, germ, trunc = final_germ(obj)
    assert len(invariant_calls) == 1
    assert germ.branches[0].trunc == trunc
    assert germ_invariants(germ.branches, req.point) == germ


TRUNCATIONS = LADDER + [("y4_x6", 14, 15, 224)]


@pytest.mark.parametrize("name, rank, expected, margin", TRUNCATIONS,
                         ids=[f"{name}-{rank}-{margin}"
                              for name, rank, _, margin in TRUNCATIONS])
def test_final_truncation_is_the_ranks_need(name, rank, expected, margin):
    """The rank drives the truncation only up to r0: the final one is
    `expected`, the germ's need at rank min(r, r0), far below the margin
    8 * r * max(n) the rank once asked for.  y^4 - x^6 at r0 = 14 needs
    its rank-14 jet's 15 terms; the cusp, e6 and node need what their
    characteristic exponents, oracle rows and the floor of 4 ask for."""
    obj = implicit(Y4_X6, [rank]) if name == "y4_x6" else corpus_request(
        name, ranks=[rank])
    _, germ, trunc = final_germ(obj)
    assert trunc == expected
    assert trunc == report.needed_truncation(germ, [min(rank, germ.r0)])
    assert 8 * rank * max(germ.n) == margin > trunc


def test_raise_from_a_stage_relifts_without_reproving(invariant_calls):
    """A RaiseTruncation from the certificates or oracles doubles the
    truncation; each attempt computes the invariants of its own lift, and
    the re-lift's equal the first's."""
    stage_truncs = []

    def stage(germ, ctx, trunc, ranks):
        stage_truncs.append(trunc)
        if len(stage_truncs) == 1:
            raise RaiseTruncation("undecided at this truncation")
        return germ

    germ = final_germ(corpus_request("triple_point"), stage)
    assert stage_truncs == [4, 8]
    assert [g.branches[0].trunc for g in invariant_calls] == [4, 8]
    assert invariant_calls[-1] is germ
    assert same_invariants(invariant_calls[0], germ)
    assert germ_invariants(germ.branches, germ.point) == germ
    assert germ.l_matrix == ((None, 1, 1), (1, None, 1), (1, 1, None))


def test_invariants_are_proven_on_the_first_deciding_lift(invariant_calls):
    """y^2 = x^10 from truncation 4: the branches y = +-x^5 coincide at 4,
    but the tree's invariants hold there; the certificate at rank 6 or the
    colength oracle asks for 8, and the lift at 8 has the same invariants
    and prints 8."""
    obj = implicit([((0, 2), "1"), ((10, 0), "-1")], [6]) | {"truncation": 4}
    out = report.run_analyze(parse_request(obj))
    assert [g.branches[0].trunc for g in invariant_calls] == [4, 8]
    assert same_invariants(*invariant_calls)
    assert out["truncation"] == 8
    assert out["germ"]["l_matrix"] == [[None, 5], [5, None]]
    assert all(cert["pass"] for cert in out["certificates"])


def branch(x_pairs, y_pairs, trunc):
    return BranchParam((Series.from_pairs(x_pairs, trunc),
                        Series.from_pairs(y_pairs, trunc)))


def same_invariants(first, second):
    return ((first.n, first.l_matrix, first.bii, first.l0, first.r0)
            == (second.n, second.l_matrix, second.bii, second.l0, second.r0))


CUSP_POLY = Poly(2, {(0, 2): Fraction(1), (3, 0): Fraction(-1)})
NODE_POLY = Poly(2, {(0, 2): Fraction(1), (2, 0): Fraction(-1)})


@pytest.mark.parametrize("poly, lifted, message", [
    (CUSP_POLY, [branch([(2, 1)], [(3, 1)], 32), branch([(1, 1)], [(2, 1)], 32)],
     "the lift has 2 branches, the Newton tree 1"),
    (NODE_POLY, [branch([(1, 1)], [(1, 1)], 32)],
     "the lift has 1 branches, the Newton tree 2"),
], ids=["more", "fewer"])
def test_a_lift_must_have_the_trees_branch_count(poly, lifted, message):
    """A lift with more or fewer branches than the tree is refused; zipping
    it with the tree's n would check only the shorter list."""
    tree = newton_tree(PlaneCurveInput(poly), FieldContext())
    assert germ_invariants(tree.lift(32), tree=tree).k == len(tree.n)
    with pytest.raises(D0resError, match=message):
        germ_invariants(lifted, tree=tree)


@pytest.mark.parametrize("relift, message", [
    ([branch([(3, 1)], [(4, 1)], 64)],
     "branch 0 has multiplicity 2 in the Newton tree, 3 on the series"),
], ids=["relift0-multiplicity 3, the proven lift 2"])
def test_carry_rejects_a_different_relift(relift, message):
    """A re-lift of the cusp whose multiplicity is 3 where the lift at 32
    proved 2 is refused by the tree both lifts come from; a re-lift that
    agrees keeps the proven invariants."""
    tree = newton_tree(PlaneCurveInput(CUSP_POLY), FieldContext())
    proven = germ_invariants([branch([(2, 1)], [(3, 1)], 32)], tree=tree)
    with pytest.raises(D0resError, match=message):
        germ_invariants(relift, tree=tree)
    assert same_invariants(
        germ_invariants([branch([(2, 1)], [(3, 1)], 64)], tree=tree), proven)


def test_pipeline_checks_the_relift(monkeypatch):
    """The need-driven re-lift goes through the check: with the lift made
    at a predicted 8, the lift at 15 that y^4 - x^6 at rank 14 needs is a
    re-lift, and one whose multiplicity differs from its tree branch's
    stops the run."""
    def build(req, trunc, tree):
        first = branch([(2, 1)], [(3, 1)], trunc) if trunc == 8 else branch(
            [(3, 1)], [(4, 1)], trunc)
        return [first, branch([(2, -1)], [(3, 1)], trunc)]

    # the first prediction is the start's, on the tree; the germ's come after
    predict, starts = report.predicted_truncation, iter([8])
    monkeypatch.setattr(report, "_build_branches", build)
    monkeypatch.setattr(report, "predicted_truncation",
                        lambda req, invariants: next(starts, None)
                        or predict(req, invariants))
    with pytest.raises(D0resError,
                       match="branch 0 has multiplicity 2 in the Newton tree, 3 on"):
        final_germ(implicit(Y4_X6, [14]))
