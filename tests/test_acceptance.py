"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line.  Budgets and tolerances are pinned here; everything is exact
arithmetic, so "tolerance" always means equality.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import random
import time
from fractions import Fraction

from d0res.branches import PlaneCurveInput, germ_invariants, newton_puiseux
from d0res.modules import fiber_module, jet_pair, nilpotency_index, support_length
from d0res.poly import Poly
from d0res.report import emit_report, parse_request, run_analyze
from d0res.series import Series
from d0res.verify import (
    NOT_SEPARATED,
    certify,
    family_jet,
    pushforward_restriction_oracle,
    separates_points,
    separates_tangents,
)

from conftest import ACCEPTANCE_CURVES, EXPECTED_INVARIANTS

F = Fraction


def _pass(line):
    print(f"PASS {line}")


def test_germ_invariant_corpus():
    """Computed (n, bii, l0, r0) match the independently derived corpus values;
    exact match, < 5 s total."""
    t0 = time.perf_counter()
    computed = {}
    for name, terms in ACCEPTANCE_CURVES.items():
        branches = newton_puiseux(PlaneCurveInput(Poly(2, terms)), 40)
        germ = germ_invariants(branches)
        computed[name] = (germ.n, germ.bii, germ.l0, germ.r0)
    elapsed = time.perf_counter() - t0
    for name, expected in EXPECTED_INVARIANTS.items():
        assert computed[name] == expected, (
            f"{name}: computed {computed[name]}, expected {expected}"
        )
    assert elapsed < 5.0, f"germ corpus took {elapsed:.2f}s (budget 5s)"
    _pass(f"germ-invariant corpus: 6/6 exact matches in {elapsed:.2f}s")


def test_embedding_certificates_all_ranks(corpus_germs):
    """certify passes for every corpus germ at r0, r0+1, r0+2; < 30 s total."""
    t0 = time.perf_counter()
    count = 0
    for name, germ in corpus_germs.items():
        for r in (germ.r0, germ.r0 + 1, germ.r0 + 2):
            cert = certify(germ, r)
            assert cert.overall, (name, r)
            count += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"certificate suite took {elapsed:.2f}s (budget 30s)"
    _pass(f"embedding certificates: {count}/18 pass in {elapsed:.2f}s")


def test_certificates_at_rank_32(corpus_germs):
    """cusp and e6 certify at r = 32 (30 and 29 skyscraper copies on top of
    the critical-rank fiber), within the certificate suite's 30 s budget."""
    t0 = time.perf_counter()
    for name in ("cusp", "e6"):
        cert = certify(corpus_germs[name], 32)
        assert cert.overall and cert.padding_support_ok, name
        assert cert.padding["copies"] == 32 - corpus_germs[name].r0
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"rank-32 certificates took {elapsed:.2f}s (budget 30s)"
    _pass(f"rank-32 certificates: cusp and e6 pass in {elapsed:.2f}s")


def test_jet_nilpotency_jump():
    """Uniformizer nilpotency on the jet pair: index r on the fiber, r+1 on
    the jet, for r = 2..8; exact."""
    branch = newton_puiseux(
        PlaneCurveInput(Poly(2, ACCEPTANCE_CURVES["cusp"])), 16
    )[0]
    for r in range(2, 9):
        jp = jet_pair(branch, r)
        assert nilpotency_index(jp.t_m1) == r
        assert nilpotency_index(jp.t_m2) == r + 1
    _pass("jet nilpotency jump: indices (r, r+1) for r = 2..8")


def test_negative_control_below_critical(corpus_germs):
    """Tacnode at rank 2 < r0 = 3: identical fiber presentations, so the
    family cannot separate the two branches; exact."""
    tac = corpus_germs["tacnode"]
    assert tac.r0 == 3
    verdicts = separates_points(tac, 2, exploratory=True)
    assert [v.result for v in verdicts] == [NOT_SEPARATED]
    assert family_jet(tac, 0, 2).m1.same_presentation(family_jet(tac, 1, 2).m1)
    _pass("negative control: tacnode rank 2 yields identical presentations")


def test_support_length_lower_bound(corpus_germs):
    """support_length of the rank-(n*l) fiber is >= l for every corpus branch
    and l <= 6; exact."""
    checked = 0
    for name, germ in corpus_germs.items():
        for i, b in enumerate(germ.branches):
            n = germ.n[i]
            for l in range(1, 7):
                module = fiber_module(b, n * l)
                assert support_length(module) >= l, (name, i, l)
                checked += 1
    _pass(f"support-length lower bound: {checked} cases, all >= l")


def test_pushforward_restriction_commute(corpus_germs):
    """Both construction orders give the same fiber presentation (up to basis
    permutation) for every corpus branch and r <= 4."""
    checked = 0
    for name, germ in corpus_germs.items():
        for b in germ.branches:
            for r in (1, 2, 3, 4):
                assert pushforward_restriction_oracle(b, r), (name, r)
                checked += 1
    _pass(f"push-forward/restriction oracle: {checked} cases agree")


def test_branch_decomposition_residuals():
    """f(branch(t)) = 0 mod t^40 for every implicit corpus branch, and the
    branch multiplicities sum to the germ multiplicity; exact."""
    for name, terms in ACCEPTANCE_CURVES.items():
        f = Poly(2, terms)
        branches = newton_puiseux(PlaneCurveInput(f), 40)
        total = 0
        for b in branches:
            coords = [s.truncate(40) for s in b.coords]
            assert f.eval_series(coords).is_zero_at_precision(), name
            total += b.multiplicity()
        assert total == f.min_degree(), name
    _pass("branch residuals vanish mod t^40; multiplicity sums match")


def test_robustness_properties(corpus_germs):
    """Unit-reparametrization invariance (10 random substitutions per germ),
    padding invariance up to r0+3, and byte-identical reports across runs."""
    rng = random.Random(13)
    for name, germ in corpus_germs.items():
        base_point_results = [
            v.result for v in separates_points(germ, germ.r0)
        ] if germ.k >= 2 else []
        base_tangent_results = [
            v.result for v in separates_tangents(germ, germ.r0)
        ]
        for _ in range(10):
            target = rng.randrange(germ.k)
            unit = Series.from_pairs(
                [(0, F(rng.randint(1, 6))),
                 (1, F(rng.randint(-4, 4), rng.randint(1, 3))),
                 (2, F(rng.randint(-4, 4), rng.randint(1, 3)))],
                germ.branches[target].trunc,
            )
            branches = list(germ.branches)
            branches[target] = branches[target].reparametrized(unit)
            redone = germ_invariants(branches)
            assert redone.l_matrix == germ.l_matrix, name
            assert redone.r0 == germ.r0, name
            if germ.k >= 2:
                assert [v.result for v in separates_points(redone, redone.r0)] \
                    == base_point_results, name
            assert [v.result for v in separates_tangents(redone, redone.r0)] \
                == base_tangent_results, name
        # padding invariance
        for r in range(germ.r0, germ.r0 + 4):
            if germ.k >= 2:
                assert [v.result for v in separates_points(germ, r)] \
                    == base_point_results, name
            assert [v.result for v in separates_tangents(germ, r)] \
                == base_tangent_results, name
    # determinism: two full runs are byte-identical
    request = {"curve": {"implicit": {"poly": [[[0, 2], "1"], [[2, 0], "-1"],
                                               [[3, 0], "-1"]]}}}
    blob1 = emit_report(run_analyze(parse_request(request)), "json")
    blob2 = emit_report(run_analyze(parse_request(request)), "json")
    assert blob1 == blob2
    _pass("robustness: reparametrization, padding, determinism all invariant")
