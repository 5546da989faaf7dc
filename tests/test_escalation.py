"""Truncation raises in `report.run_with_escalation`: the germ invariants are
set once per request, from the Newton tree of an implicit germ or on the
first lift of explicit branches that decides them, and carried to every
re-lift at a higher truncation."""

import json
from pathlib import Path

import pytest

import d0res.report as report
from d0res.branches import BranchParam, germ_invariants
from d0res.errors import D0resError, RaiseTruncation
from d0res.report import carry_invariants, parse_request, run_with_escalation
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
    """Count the pipeline's `germ_invariants` calls, which the benchmark's
    tracer also reads through `d0res.report`."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return germ_invariants(*args, **kwargs)

    monkeypatch.setattr(report, "germ_invariants", counted)
    return calls


def final_germ(obj, stage=None):
    req = parse_request(obj)
    return run_with_escalation(
        req, stage or (lambda germ, ctx, trunc, ranks: (req, germ, trunc)))


@pytest.mark.parametrize("obj", REQUESTS)
def test_carried_invariants_equal_recomputed(obj, invariant_calls):
    """One `germ_invariants` call per request, and its invariants equal the
    ones recomputed from scratch, with no tree, on the final, longest
    lift."""
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
    truncation; the re-lift carries the invariants proven at 4."""
    stage_truncs = []

    def stage(germ, ctx, trunc, ranks):
        stage_truncs.append(trunc)
        if len(stage_truncs) == 1:
            raise RaiseTruncation("undecided at this truncation")
        return germ

    germ = final_germ(corpus_request("triple_point"), stage)
    assert stage_truncs == [4, 8]
    assert len(invariant_calls) == 1
    assert invariant_calls[0][0][0].trunc == 4
    assert germ.branches[0].trunc == 8
    assert germ_invariants(germ.branches, germ.point) == germ
    assert germ.l_matrix == ((None, 1, 1), (1, None, 1), (1, 1, None))


def test_invariants_are_proven_on_the_first_deciding_lift(invariant_calls):
    """y^2 = x^10 from truncation 4: the branches y = +-x^5 coincide at 4,
    but the tree's invariants hold there, so they are set once, at 4; the
    certificate at rank 6 or the colength oracle asks for 8."""
    obj = implicit([((0, 2), "1"), ((10, 0), "-1")], [6]) | {"truncation": 4}
    out = report.run_analyze(parse_request(obj))
    assert [args[0][0].trunc for args in invariant_calls] == [4]
    assert out["truncation"] == 8
    assert out["germ"]["l_matrix"] == [[None, 5], [5, None]]
    assert all(cert["pass"] for cert in out["certificates"])


def branch(x_pairs, y_pairs, trunc):
    return BranchParam((Series.from_pairs(x_pairs, trunc),
                        Series.from_pairs(y_pairs, trunc)))


@pytest.mark.parametrize("relift, message", [
    ([branch([(3, 1)], [(4, 1)], 64)], "multiplicity 3, the proven lift 2"),
    ([branch([(2, 1)], [(3, 1), (5, 1)], 64)], "disagrees with the proven lift"),
    ([branch([(2, 1)], [(3, 1)], 64), branch([(1, 1)], [(2, 1)], 64)],
     "2 branches, the proven lift 1"),
])
def test_carry_rejects_a_different_relift(relift, message):
    proven = germ_invariants([branch([(2, 1)], [(3, 1)], 32)])
    with pytest.raises(D0resError, match=message):
        carry_invariants(proven, relift)
    assert carry_invariants(proven, [branch([(2, 1)], [(3, 1)], 64)]).r0 == 2


def test_pipeline_checks_the_relift(monkeypatch):
    """The need-driven re-lift goes through the check: with the lift made
    at a predicted 8, the lift at 15 that y^4 - x^6 at rank 14 needs is a
    re-lift, and one whose multiplicity differs from the one proven at 8
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
    with pytest.raises(D0resError, match="re-lift of branch 0 has multiplicity 3"):
        final_germ(implicit(Y4_X6, [14]))
