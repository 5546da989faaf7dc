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
# the truncation each report prints, 8 * min(r, r0 + 2) * max(n) (at least
# 32), and the larger one the rank alone would ask for, 8 * r * max(n)
LADDER = [
    ("cusp", 4, 64, 64), ("cusp", 8, 64, 128), ("cusp", 12, 64, 192),
    ("cusp", 16, 64, 256),
    ("e6", 4, 96, 96), ("e6", 8, 120, 192), ("e6", 12, 120, 288),
    ("e6", 16, 120, 384),
    ("node", 4, 32, 32), ("node", 8, 32, 64), ("node", 12, 32, 96),
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


TRUNCATIONS = LADDER + [("y4_x6", 14, 224, 224)]


@pytest.mark.parametrize("name, rank, expected, uncapped", TRUNCATIONS,
                         ids=[f"{name}-{rank}-{uncapped}"
                              for name, rank, _, uncapped in TRUNCATIONS])
def test_final_truncation_is_the_ranks_need(name, rank, expected, uncapped):
    """The rank drives the truncation only up to r0 + 2: the final one is
    `expected`, below the `uncapped` need of the rank itself from r0 + 3
    on."""
    obj = implicit(Y4_X6, [rank]) if name == "y4_x6" else corpus_request(
        name, ranks=[rank])
    _, germ, trunc = final_germ(obj)
    assert trunc == expected
    assert report.default_truncation([rank], germ.n) == uncapped
    assert (trunc < uncapped) == (rank > germ.r0 + 2)


def test_raise_from_a_stage_relifts_without_reproving(invariant_calls):
    """A RaiseTruncation from the certificates or oracles doubles the
    truncation; the re-lift carries the invariants proven at 32."""
    stage_truncs = []

    def stage(germ, ctx, trunc, ranks):
        stage_truncs.append(trunc)
        if len(stage_truncs) == 1:
            raise RaiseTruncation("undecided at this truncation")
        return germ

    germ = final_germ(corpus_request("triple_point"), stage)
    assert stage_truncs == [32, 64]
    assert len(invariant_calls) == 1
    assert invariant_calls[0][0][0].trunc == 32
    assert germ.branches[0].trunc == 64
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
    """The rank-driven re-lift goes through the check: with the lift made
    at a predicted 32, the lift at 64 that rank 8 needs is a re-lift, and
    one whose multiplicity differs from the one proven at 32 stops the
    run."""
    def build(req, trunc, tree):
        return [branch([(2, 1)], [(3, 1)], trunc) if trunc == 32
                else branch([(3, 1)], [(4, 1)], trunc)]

    # the first prediction is the start's, on the tree; the germ's come after
    predict, starts = report.predicted_truncation, iter([32])
    monkeypatch.setattr(report, "_build_branches", build)
    monkeypatch.setattr(report, "predicted_truncation",
                        lambda req, invariants: next(starts, None)
                        or predict(req, invariants))
    with pytest.raises(D0resError, match="re-lift of branch 0 has multiplicity 3"):
        final_germ(corpus_request("cusp", ranks=[8]))
