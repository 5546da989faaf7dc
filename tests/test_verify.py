import ast
import json
import random
from fractions import Fraction
from functools import reduce
from math import ceil, comb, gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from d0res import verify as verify_module
from d0res.branches import BranchParam, Germ
from d0res.errors import D0resError, RaiseTruncation
from d0res.fields import NumberField, format_scalar, scalar_is_zero
from d0res.linalg import ExactMatrix, rref_rows
from d0res.modules import (
    AnnihilatorIdeal,
    DirectSum,
    JetPair,
    FiniteModule,
    _evaluation_rows,
    annihilator,
    fiber_module,
    jet_pair,
    pad,
)
from d0res.poly import Poly, monomials_upto, poly_text
from d0res.report import (
    _certificate_block,
    _verdict_block,
    parse_request,
    run_with_escalation,
)
from d0res.series import Series, SlotLayout
from d0res.verify import (
    CertificateFamily,
    INCONCLUSIVE,
    NOT_SEPARATED,
    SEPARATED,
    aggregate_critical_rank,
    _kills,
    _padding_support_unchanged,
    _point_verdicts,
    _point_witness,
    _is_fiber_annihilator,
    _stable_annihilator,
    _test_coordinate,
    certify,
    graph_jet_class_vanishes,
    pushforward_restriction_oracle,
    separates_points,
    separates_tangents,
)
from oracles import (
    DenseJet,
    assembled,
    check_jet_dense,
    dense_action,
    dense_actions,
    dense_annihilator,
    dense_jet_power,
    dense_sum,
    eval_poly_at_matrices,
    eval_series_at_matrix,
    expand_jet_power,
    fiber_ideal_below_rank,
    functional_ideal,
    padding_support_by_dense_annihilator,
    with_bare_rows,
)

F = Fraction
REPO = Path(__file__).resolve().parent.parent

def test_below_critical_rank_builds_each_member_once(repo_corpus_germs,
                                                     monkeypatch):
    """Below r0 the report's point and tangent verdicts read one family:
    on the tacnode at rank 2 that is one jet pair per branch."""
    germ = repo_corpus_germs["tacnode"]
    assert (germ.k, germ.r0) == (2, 3)
    built = []
    validate = JetPair.__post_init__

    def counted(self):
        built.append(self)
        validate(self)

    monkeypatch.setattr(JetPair, "__post_init__", counted)
    block = _certificate_block(CertificateFamily(germ), 2)
    monkeypatch.undo()
    assert len(built) == 2
    points = separates_points(CertificateFamily(germ), 2)
    tangents = separates_tangents(CertificateFamily(germ), 2)
    assert block["points"] == [_verdict_block(v) for v in points]
    assert block["tangents"] == [_verdict_block(v) for v in tangents]


def test_family_annihilator_matches_generic_oracle(repo_corpus_germs):
    """The annihilator of each member, read off its fiber's columns, is
    stored at bound d = min(r, r0) and holds every monomial of degree d.
    With the bare monomials of degree d + 1..r appended it equals the
    generic one computed from the member's action matrices at bound r,
    exploratory ranks too."""
    extension_and_space = {"gaussian_node", "cyclotomic_triple", "space_lines"}
    assert extension_and_space <= set(repo_corpus_germs)
    for name, germ in repo_corpus_germs.items():
        family = CertificateFamily(germ)
        for i in range(germ.k):
            for r in range(1, 11):
                stored = family.ideal(i, r)
                assert stored.degree_bound == min(r, germ.r0), (name, i, r)
                assert stored.holds_top_degree(), (name, i, r)
                fast = with_bare_rows(stored, r)
                oracle = dense_annihilator(
                    dense_sum(family.member(i, r)).m1, r)
                assert fast == oracle, (name, i, r)
                assert hash(fast) == hash(oracle)
                assert all([c for c, _ in row] == sorted(c for c, _ in row)
                           for row in fast.rows)
                assert ([poly_text(p) for p in fast.polys]
                        == [poly_text(p) for p in oracle.polys]), (name, i, r)


def test_family_serves_every_rank_above_r0_from_one_stored_ideal(
        repo_corpus_germs):
    """Above r0 a member's ideal is the one stored at bound r0: ranks
    r0 + 1 and 256 read the same objects, and rank 256 builds nothing."""
    for name, germ in repo_corpus_germs.items():
        family = CertificateFamily(germ)
        near = [family.ideal(i, germ.r0 + 1) for i in range(germ.k)]
        built = len(family._built)
        far = [family.ideal(i, 256) for i in range(germ.k)]
        assert all(a is b for a, b in zip(near, far)), name
        assert len(family._built) == built, name
        assert all(a.degree_bound == germ.r0 for a in far), name


def test_each_stored_power_is_scanned_once_for_zero(monkeypatch):
    """At the default ranks r0..r0+2 a base jet serves three ranks, but
    the tangent test asks each stored power whether it is zero once: no
    more series zero tests (`verify._power_is_zero`) than (summand, side,
    coordinate, exponent) keys."""
    scanned = []
    is_zero = verify_module._power_is_zero

    def counted(power):
        scanned.append(power)
        return is_zero(power)

    def certify_ranks(germ, ctx, trunc, ranks):
        family = CertificateFamily(germ)
        for r in ranks:
            certify(family, r)
        return family

    monkeypatch.setattr(verify_module, "_power_is_zero", counted)
    for path in sorted((REPO / "corpus").glob("*.json")):
        scanned.clear()
        family = run_with_escalation(
            parse_request(json.loads(path.read_text())), certify_ranks)
        powers = sum(key[0] == "power" for summand in family._built.values()
                     if isinstance(summand, verify_module._Summand)
                     for key in summand._answers)
        assert 0 < len(scanned) <= powers, path.stem


def test_member_ideal_at_bound_equal_to_rank_needs_no_second_elimination(
        corpus_germs, repo_corpus_germs):
    """A fiber read at a bound below its rank may not have stabilized: on
    the cusp fiber K[t]/(t^5), t^4 = x^2 first appears at degree 2, and
    the quotient grows from 3 to 4.  The family reads each fiber at bound
    == rank d, where every monomial of degree d has order >= d along the
    branch.  So on every corpus branch at d = 1..10 the ideal holds its
    top degree, no basis row has a constant term, and the functionals at
    d + 1 have exactly `quotient_dim` pivots: the ideal has stabilized,
    and a second elimination at d + 1 would check nothing."""
    cusp = corpus_germs["cusp"].branches[0]
    ideals = [fiber_ideal_below_rank(cusp, 5, d) for d in (1, 2, 3)]
    assert [ideal.quotient_dim for ideal in ideals] == [3, 4, 4]
    assert not ideals[0].holds_top_degree()
    cases = 0
    for name, germ in repo_corpus_germs.items():
        for b in germ.branches:
            for d in range(1, 11):
                ideal = _stable_annihilator(b, d)
                assert ideal.holds_top_degree(), (name, d)
                assert all(row[0][0] > 0 for row in ideal.rows), (name, d)
                _, rows = _evaluation_rows(fiber_module(b, d), d + 1)
                assert len(rref_rows(rows)[1]) == ideal.quotient_dim, (name, d)
                cases += 1
    assert cases == 200


@pytest.mark.parametrize("mutation", ["zeroed", "dropped"])
def test_member_ideal_with_a_constant_term_is_refused(repo_corpus_germs,
                                                      monkeypatch, mutation):
    """The fiber's t^0 row f -> f(0) is what puts its ideal inside the
    skyscraper's.  With that row zeroed or dropped, the constant 1 lies in
    the ideal, which still holds its top degree: the family build raises
    and stores no ideal, at r0 and above."""

    def mutated(module, bound):
        monomials, rows = _evaluation_rows(module, bound)
        first = [[F(0)] * len(monomials)] if mutation == "zeroed" else []
        return functional_ideal(bound, monomials, first + rows[1:])

    monkeypatch.setattr(verify_module, "annihilator", mutated)
    for name, germ in repo_corpus_germs.items():
        r0 = germ.r0
        mutant = mutated(fiber_module(germ.branches[0], r0), r0)
        assert mutant.holds_top_degree(), name
        assert mutant.rows[0] == ((0, F(1)),), name
        for r in (r0, r0 + 1):
            family = CertificateFamily(germ)
            with pytest.raises(D0resError, match="constant term"):
                family.ideal(0, r)
            assert not any(key[0] == "ideal" for key in family._built), name


def test_capped_padding_check_agrees_with_dense_reference(repo_corpus_germs):
    """The padding check at bound r0 and the reference that evaluates every
    monomial up to degree r agree on every corpus germ: on the members'
    ideals, and on ideals that must fail (the branches' ideals in reverse
    order, and each bare rank-(r0 + 1) fiber's ideal at bound r0, which
    lacks the test coordinate's power of order r0).  The reference reads
    each ideal at bound r (`with_bare_rows`).  At r = r0 nothing is padded,
    and the check holds."""
    checked = 0
    for name, germ in repo_corpus_germs.items():
        family = CertificateFamily(germ)
        longer = [fiber_ideal_below_rank(b, germ.r0 + 1, germ.r0)
                  for b in germ.branches]
        for r in (*range(germ.r0, germ.r0 + 4), 16, 32):
            ideals = [family.ideal(i, r) for i in range(germ.k)]
            padded = r > germ.r0
            cases = [(ideals, True),
                     (ideals[::-1], germ.k == 1 or not padded)]
            if padded:
                cases.append((longer, False))
            for candidate, expected in cases:
                assert _padding_support_unchanged(
                    family, r, candidate) is expected
                assert padding_support_by_dense_annihilator(
                    germ, r, [with_bare_rows(ideal, r) for ideal in candidate]
                ) is expected, (name, r)
                checked += 1
    assert checked > 0


@pytest.mark.parametrize("name, r", [("cusp", 3), ("e6", 8), ("node", 16)])
def test_padding_check_rejects_a_mutated_member_ideal(corpus_germs, name, r):
    """Above r0 a member ideal is stored at bound r0: its rows at degree r0
    are the bare monomials, and its rows below have no entry at degree r0.
    Breaking either fails the padding check, and the broken ideal no
    longer holds its top degree."""
    germ = corpus_germs[name]
    family = CertificateFamily(germ)
    ideal = family.ideal(0, r)
    assert ideal.degree_bound == germ.r0 < r
    monomials, rows = ideal.monomials, list(ideal.rows)
    width = comb(germ.r0 - 1 + 2, 2)          # the columns of degree < r0
    first_high = next(k for k, row in enumerate(rows) if row[0][0] >= width)
    assert rows[first_high] == ((width, F(1)),)
    last = len(monomials) - 1

    def check(rows):
        mutant = AnnihilatorIdeal(germ.r0, monomials, tuple(rows))
        members = [mutant]
        members += [family.ideal(i, r) for i in range(1, germ.k)]
        ok = _padding_support_unchanged(family, r, members)
        assert mutant.holds_top_degree() is ok
        return ok

    assert check(rows)
    non_bare = rows.copy()
    non_bare[first_high] = ((width, F(1)), (last, F(1)))
    dropped = rows[:first_high] + rows[first_high + 1:]
    low_entry = rows.copy()
    low_entry[0] = rows[0] + ((last, F(1)),)
    for mutated in (non_bare, dropped, low_entry):
        assert not check(mutated)


def test_holds_top_degree_rejects_a_non_closed_ideal(corpus_germs,
                                                     monkeypatch):
    """An ideal stands for every higher bound only where it holds every
    monomial of its own.  On a node branch's fiber K[t]/(t^2), x pulls back
    to order 1, so degree 1 is refused and degree 2 taken, and the ideal at
    degree 2 with the bare monomials appended is the ideal at 12.  The
    family never stores a refused ideal: with `annihilator` reading the
    rank-2 fiber where it asks for rank 1, the ideal at degree 1 is an
    error."""
    b = corpus_germs["node"].branches[0]
    assert b.coords[0].order() == 1
    ideal = annihilator(fiber_module(b, 2), 2)
    assert ideal.holds_top_degree()
    assert not fiber_ideal_below_rank(b, 2, 1).holds_top_degree()
    dense = annihilator(fiber_module(b, 2), 12)
    assert with_bare_rows(ideal, 12) == dense
    assert dense.quotient_dim == ideal.quotient_dim
    assert list(with_bare_rows(ideal, 12).polys) == list(dense.polys)
    monkeypatch.setattr(verify_module, "annihilator",
                        lambda module, bound: fiber_ideal_below_rank(
                            b, module.dim + 1, bound))
    with pytest.raises(D0resError, match="every monomial of degree 1"):
        _stable_annihilator(b, 1)


def _assert_dense_jet_identities(jet):
    """The exact-sequence identities of a `DenseJet`, checked by dense
    products on its eps/incl/proj and its uniformizer."""
    r, eps, incl, proj = jet.rank, jet.eps, jet.incl, jet.proj
    assert jet.m2.dim == 2 * r
    assert (eps * eps).is_zero()
    assert (proj * incl).is_zero()
    assert incl.rank() == r and proj.rank() == r
    assert incl * proj == eps
    pairs = list(zip(jet.m2.actions, jet.m1.actions)) + [(jet.t_m2, jet.t_m1)]
    for a2, a1 in pairs:
        assert a2 * eps == eps * a2
        assert proj * a2 == a1 * proj
        assert a2 * incl == incl * a1


def test_jet_frame_satisfies_dense_identities(repo_corpus_germs):
    """Every jet pair and family member of the corpus satisfies, on its
    derived frame, each identity the entrywise [[A, 0], [C, A]] check stands
    for: eps^2 = 0, exactness, eps-linearity and both intertwinings."""
    for name, germ in repo_corpus_germs.items():
        family = CertificateFamily(germ)
        for i, b in enumerate(germ.branches):
            for r in range(1, 7):
                _assert_dense_jet_identities(dense_sum(jet_pair(b, r)))
            for r in range(germ.r0, germ.r0 + 4):
                dense = dense_sum(family.member(i, r))
                assert sum(dense.blocks) == r, (name, i, r)
                _assert_dense_jet_identities(dense)


def _summand_ranks(germ):
    """The ranks at which the summand paths are compared with dense
    references: r0..r0+3, where the padding first appears, and 32."""
    return list(range(germ.r0, germ.r0 + 4)) + [32]


def test_family_members_pass_the_dense_reference(repo_corpus_germs):
    """Every padded member is a direct sum of its two runs; its dense sum,
    assembled by the tests through the public constructors, passes the
    dense reference."""
    for name, germ in repo_corpus_germs.items():
        family = CertificateFamily(germ)
        for i in range(germ.k):
            for r in _summand_ranks(germ):
                jet = family.member(i, r)
                assert isinstance(jet, DirectSum) == (r > germ.r0), (name, i, r)
                dense = dense_sum(jet)
                assert isinstance(dense, DenseJet), (name, i, r)
                assert dense.blocks == (germ.r0,) + (1,) * (r - germ.r0), (
                    name, i, r)
                check_jet_dense(dense)


def _assert_rows_are_the_dense_power(runs, f2):
    """The printed `jet_power` runs of a tangent witness against its dense
    power f2: each copy's row is the first r entries of the last row of
    its 2r x 2r block on the diagonal, and every other entry of f2 is
    zero."""
    zero = format_scalar(F(0))
    text = [[format_scalar(x) for x in row] for row in f2.data]
    start = 0
    for run in runs:
        r = len(run["row"])
        for _ in range(run["copies"]):
            last = text[start + 2 * r - 1]
            assert last[start:start + r] == run["row"]
            last[start:start + r] = [zero] * r
            start += 2 * r
    assert start == f2.rows
    assert all(x == zero for row in text for x in row)


def test_summand_powers_equal_dense_powers(repo_corpus_germs):
    """The tangent test's f1 and f2, raised summand by summand, equal the
    dense powers of the members' actions.  Each row a witness prints,
    fresh or read from the committed corpus goldens, is the one nonzero
    row of its summand's block of the dense f2, and the runs expand to
    the dense one's text."""
    goldens = 0
    for name, germ in repo_corpus_germs.items():
        golden = json.loads(
            (REPO / "corpus" / "golden" / f"{name}.json").read_text())
        printed = {cert["rank"]: cert["tangents"]
                   for cert in golden["certificates"]}
        for r in sorted(set(_summand_ranks(germ)) | set(printed)):
            family = CertificateFamily(germ)
            verdicts = separates_tangents(family, r)
            for i, (b, v) in enumerate(zip(germ.branches, verdicts)):
                dense = dense_sum(family.member(i, r))
                runs = family.summands(i, r)
                coord, e = _test_coordinate(b), germ.r0 // germ.n[i]
                f1 = dense.m1.actions[coord] ** e
                f2 = dense.m2.actions[coord] ** e
                for side, f in (("m1", f1), ("m2", f2)):
                    assert assembled([(dense_action(*s.power(side, coord, e)),
                                       copies)
                                      for s, copies in runs]) == f, (name, i, r)
                rows = [v.witness["jet_power"]]
                if r in printed:
                    rows.append(printed[r][i]["witness"]["jet_power"])
                    goldens += 1
                for jet_power in rows:
                    _assert_rows_are_the_dense_power(jet_power, f2)
                    assert dense_jet_power(expand_jet_power(jet_power)) == [
                        [format_scalar(x) for x in row] for row in f2.data]
    assert goldens == sum(3 * germ.k for germ in repo_corpus_germs.values())


def test_summand_kills_agree_with_dense_evaluation(repo_corpus_germs):
    """For every point witness the corpus goldens print, and every other
    annihilator basis element of a member, the family's kill answer, read
    off the summands, agrees with evaluating on the member's dense
    actions, on every member."""
    printed = 0
    for name, germ in repo_corpus_germs.items():
        if germ.k < 2:
            continue
        golden = json.loads((REPO / "corpus" / "golden" / f"{name}.json").read_text())
        for cert in golden["certificates"]:
            r = cert["rank"]
            family = CertificateFamily(germ)
            fibers = [family.member(i, r).m1 for i in range(germ.k)]
            basis = [(i, row, g) for i in range(germ.k)
                     for row, g in enumerate(family.ideal(i, r).polys)]
            witnesses = [v["witness"]["polynomial"] for v in cert["points"]]
            assert set(witnesses) <= {poly_text(g) for _, _, g in basis}, (
                name, r)
            printed += len(witnesses)
            for i, row, g in basis:
                for j, fiber in enumerate(fibers):
                    dense = eval_poly_at_matrices(
                        g, dense_sum(fiber).actions).is_zero()
                    assert family.kills(r, i, row, g, j) == dense, (
                        name, r, poly_text(g))
    assert printed > 0


def test_node_points_r2(corpus_germs):
    verdicts = separates_points(CertificateFamily(corpus_germs["node"]), 2)
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
    family = CertificateFamily(axes)
    f0, f1 = family.member(0, 2).m1, family.member(1, 2).m1
    ann0 = [poly_text(p) for p in annihilator(f0, 2).polys]
    ann1 = [poly_text(p) for p in annihilator(f1, 2).polys]
    assert "y" in ann0 and "x^2" in ann0 and "x" not in ann0
    assert "x" in ann1 and "y^2" in ann1 and "y" not in ann1
    (verdict,) = separates_points(CertificateFamily(axes), 2)
    assert verdict.result == SEPARATED
    assert verdict.witness["polynomial"] == "y"


def test_tacnode_negative_control(corpus_germs):
    tac = corpus_germs["tacnode"]
    verdicts = separates_points(CertificateFamily(tac), 2)
    assert [v.result for v in verdicts] == [NOT_SEPARATED]
    family = CertificateFamily(tac)
    f0, f1 = family.member(0, 2).m1, family.member(1, 2).m1
    assert f0.same_presentation(f1)
    cert = certify(CertificateFamily(tac), tac.r0 - 1)
    assert cert.below_critical and not cert.overall


def test_equal_ideals_with_different_runs_are_inconclusive(corpus_germs):
    """Equal annihilators give NOT_SEPARATED only for presentations known
    to be equal: equal runs, or equal dense matrices.  Sums with different
    runs, or a sum against a dense module, read INCONCLUSIVE."""
    node = corpus_germs["node"].branches
    base, sky = fiber_module(node[0], 2), fiber_module(node[0], 1)
    ideal = annihilator(base, 3)
    cases = [
        ((pad(base, sky, 1), pad(fiber_module(node[0], 2), sky, 1)),
         NOT_SEPARATED),
        ((pad(base, sky, 1), pad(base, sky, 2)), INCONCLUSIVE),
        ((pad(base, sky, 1), pad(fiber_module(node[1], 2), sky, 1)),
         INCONCLUSIVE),
        ((pad(base, sky, 1), dense_sum(pad(base, sky, 1))), INCONCLUSIVE),
        ((dense_sum(pad(base, sky, 1)), pad(base, sky, 1)), INCONCLUSIVE),
        ((base, FiniteModule(2, columns=base.columns)), NOT_SEPARATED),
    ]
    def no_search(*args):
        raise AssertionError("equal ideals are searched for no witness")

    for fibers, expected in cases:
        (verdict,) = _point_verdicts([ideal, ideal], list(fibers), no_search)
        assert verdict.result == expected, fibers


@pytest.mark.parametrize("name", ["cusp", "e6", "node", "tacnode"])
def test_certify_builds_as_many_matrix_entries_at_any_rank(corpus_germs,
                                                         monkeypatch, name):
    """Above r0 nothing `certify` builds grows with r: the entries of every
    ExactMatrix it builds add up to the same count at r0 + 1 and at 256."""
    germ = corpus_germs[name]
    trusted = ExactMatrix._trusted.__func__
    entries = []

    def counted_trusted(cls, rows):
        m = trusted(cls, rows)
        entries[-1] += m.rows * m.cols
        return m

    monkeypatch.setattr(ExactMatrix, "_trusted",
                        classmethod(counted_trusted))
    for r in (germ.r0 + 1, 256):
        entries.append(0)
        assert certify(CertificateFamily(germ), r).overall, (name, r)
    assert entries[0] == entries[1] > 0, (name, entries)


@pytest.mark.parametrize("r", [0, -2])
def test_nonpositive_rank_rejected(corpus_germs, r):
    """The module builders reject r < 1, below-critical ranks included."""
    for test in (separates_points, separates_tangents, certify):
        with pytest.raises(D0resError, match="rank must be positive"):
            test(CertificateFamily(corpus_germs["node"]), r)


def test_tacnode_separates_at_r3(corpus_germs):
    verdicts = separates_points(CertificateFamily(corpus_germs["tacnode"]), 3)
    assert [v.result for v in verdicts] == [SEPARATED]
    poly = verdicts[0].witness["polynomial"]
    assert poly in ("y-x^2", "y+x^2")


def test_point_witness_validity(corpus_germs):
    for name, germ in corpus_germs.items():
        if germ.k < 2:
            continue
        family = CertificateFamily(germ)
        for v in separates_points(family, germ.r0):
            assert v.result == SEPARATED
            i, j = v.subject
            witness = _parse_witness_poly(v.witness["polynomial"])
            fi = family.member(i, germ.r0).m1
            fj = family.member(j, germ.r0).m1
            on_i = eval_poly_at_matrices(witness, dense_actions(fi)).is_zero()
            on_j = eval_poly_at_matrices(witness, dense_actions(fj)).is_zero()
            assert on_i != on_j, (name, v.subject)


def test_point_witness_rechecks_own_fiber(corpus_germs):
    """A candidate that does not kill its own fiber is an error, also under
    `python -O`."""
    fiber = CertificateFamily(corpus_germs["cusp"]).member(0, 2).m1
    one = Poly.constant(2, F(1))
    bogus = AnnihilatorIdeal(degree_bound=fiber.dim,
                             monomials=monomials_upto(2, fiber.dim),
                             rows=(((0, F(1)),),))
    assert list(bogus.polys) == [one]
    at = SlotLayout(fiber.columns)
    with pytest.raises(D0resError, match="does not annihilate"):
        _point_witness([bogus, bogus], 0, 1,
                       lambda own, row, g, other: _kills(g, at))


def test_no_assert_statements_in_package():
    """`python -O` strips asserts, so no check in the package may use one."""
    package = Path(__file__).resolve().parent.parent / "src" / "d0res"
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


# math functions that are exact on ints and Fractions; the others round
EXACT_MATH = {"ceil", "comb", "factorial", "floor", "gcd", "isqrt", "lcm", "perm",
              "prod", "trunc"}


def test_no_floating_point_in_package():
    """Every scalar is exact: no float literal, no `float`, no rounding math."""
    package = Path(__file__).resolve().parent.parent / "src" / "d0res"
    found = []
    for path in sorted(package.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
        math_names = {alias.asname or alias.name for node in nodes
                      if isinstance(node, ast.Import)
                      for alias in node.names if alias.name == "math"}
        found += [f"{path.name}:{node.lineno}" for node in nodes if (
            isinstance(node, ast.Constant) and isinstance(node.value, (float, complex))
            or isinstance(node, ast.Name) and node.id == "float"
            or isinstance(node, ast.ImportFrom) and node.module == "math"
            and any(alias.name not in EXACT_MATH for alias in node.names)
            or isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in math_names and node.attr not in EXACT_MATH)]
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
    verdicts = separates_tangents(CertificateFamily(corpus_germs["cusp"]), 2)
    (v,) = verdicts
    assert v.result == SEPARATED
    assert v.witness["coordinate"] == 0
    assert v.witness["exponent"] == 1


def test_node_tangents_exponent_two(corpus_germs):
    verdicts = separates_tangents(CertificateFamily(corpus_germs["node"]), 2)
    assert all(v.result == SEPARATED for v in verdicts)
    assert all(v.witness["exponent"] == 2 for v in verdicts)


def test_tangent_witness_validity(corpus_germs):
    for name, germ in corpus_germs.items():
        for r in (germ.r0, germ.r0 + 1):
            family = CertificateFamily(germ)
            for v in separates_tangents(family, r):
                assert v.result == SEPARATED, name
                i = v.subject[0]
                jet = dense_sum(family.member(i, r))
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
            jet = dense_sum(CertificateFamily(germ).member(i, germ.r0))
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


def fresh_results(test, germ, r):
    """The verdict results of `test` at rank r, from a fresh family."""
    return [v.result for v in test(CertificateFamily(germ), r)]


def test_padding_preserves_verdicts(corpus_germs):
    for name, germ in corpus_germs.items():
        base_points = fresh_results(separates_points, germ, germ.r0)
        base_tangents = fresh_results(separates_tangents, germ, germ.r0)
        for r in range(germ.r0 + 1, germ.r0 + 4):
            assert fresh_results(separates_points, germ, r) == base_points
            assert fresh_results(separates_tangents, germ, r) == base_tangents, name


def test_certify_corpus(corpus_germs):
    for name, germ in corpus_germs.items():
        for r in (germ.r0, germ.r0 + 1, germ.r0 + 2):
            cert = certify(CertificateFamily(germ), r)
            assert cert.overall, (name, r)
            assert cert.padding_support_ok
            assert cert.padding["copies"] == r - germ.r0
            assert all(pt == germ.point for pt in cert.support_points)
        if germ.r0 > 1:
            cert = certify(CertificateFamily(germ), germ.r0 - 1)
            assert cert.below_critical and not cert.overall
            assert cert.padding is None and cert.padding_support_ok is None


def test_monotone_negative_control(corpus_germs):
    """A NotSeparated at rank s < r0 must come from s/n_i <= bii."""
    for name, germ in corpus_germs.items():
        if germ.k < 2:
            continue
        for s in range(1, germ.r0):
            for v in separates_points(CertificateFamily(germ), s):
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
        family = CertificateFamily(germ)
        for i in range(germ.k):
            row = pushforward_restriction_oracle(family, i, 4)
            assert row == {"1": True, "2": True, "3": True, "4": True}, name


def test_fiber_annihilator_crosscheck_holds_to_rank_8(repo_corpus_germs):
    """The matrix and series annihilators agree on every corpus branch,
    both extension fields and the space branches included, at ranks 1..8,
    past the ranks the reports print."""
    extension_and_space = {"gaussian_node", "cyclotomic_triple", "space_lines"}
    assert extension_and_space <= set(repo_corpus_germs)
    for name, germ in repo_corpus_germs.items():
        family = CertificateFamily(germ)
        for i, b in enumerate(germ.branches):
            assert b.trunc > 8, name
            row = pushforward_restriction_oracle(family, i, 8)
            assert row == {str(r): True for r in range(1, 9)}, name


ORACLE_GAUSS = NumberField([1, 0, 1], generator="i")   # i^2 = -1
ORACLE_CUBIC = NumberField([-2, 0, 0, 1])              # a^3 = 2


@st.composite
def oracle_branches(draw, fields=(None, ORACLE_GAUSS, ORACLE_CUBIC)):
    """Branches over QQ, QQ(i) or QQ(2^(1/3)), or over one of `fields`,
    with sparse coordinates of order >= 1 at truncation 5..9;
    non-primitive draws are skipped."""
    field = draw(st.sampled_from(fields))
    small = st.one_of(st.just(F(0)), st.just(F(0)),
                      st.fractions(min_value=-3, max_value=3,
                                   max_denominator=3))
    if field is None:
        scalar = small
    else:
        scalar = st.lists(small, min_size=field.degree,
                          max_size=field.degree).map(field.element)
    trunc = draw(st.integers(5, 9))
    coords = tuple(
        Series([F(0)] + [draw(scalar) for _ in range(trunc - 1)])
        for _ in range(draw(st.integers(2, 3))))
    exps = [e for s in coords for e, c in enumerate(s.coeffs)
            if not scalar_is_zero(c)]
    assume(reduce(gcd, exps, 0) in (0, 1))
    return BranchParam(coords)


def _one_branch_germ(b):
    """A germ holding the branch `b` alone.  The cross-check reads only a
    germ's branches, so its invariants here are placeholders; a drawn
    branch may be zero, which has no multiplicity."""
    return Germ(point=(F(0),) * b.ambient_dim, branches=(b,), n=(1,),
                l_matrix=((None,),), bii=None, l0=1, r0=1)


@settings(max_examples=60, deadline=None)
@given(oracle_branches(), st.integers(1, 4))
def test_fiber_annihilator_crosscheck_on_random_branches(b, r):
    family = CertificateFamily(_one_branch_germ(b))
    row = pushforward_restriction_oracle(family, 0, r)
    assert row == {str(k): True for k in range(1, r + 1)}


@settings(max_examples=60, deadline=None)
@given(oracle_branches(), st.data())
def test_reachable_annihilators_match_the_dense_reference(b, data):
    """The fiber's first-column functionals (`annihilator` on the fiber's
    columns, `fiber_ideal_below_rank` below its rank) evaluate only the
    monomials a fiber can reach, and hold the others as implicit bare
    rows.  Both give the ideal, written out
    row for row, that `dense_annihilator` reads off every monomial's
    dim x dim value: on plane and space branches over QQ, QQ(i) and
    QQ(2^(1/3)), with one coordinate zeroed half the time, at ranks 1..6
    and at bounds from 0 to twice the rank, below and above the critical
    rank of the branch alone, its multiplicity."""
    if data.draw(st.booleans()):
        coords = list(b.coords)
        coords[data.draw(st.integers(0, len(coords) - 1))] = Series.zero(b.trunc)
        try:
            b = BranchParam(tuple(coords))
        except RaiseTruncation:
            assume(False)
    rank = data.draw(st.integers(1, min(6, b.trunc)))
    bound = data.draw(st.integers(0, 2 * rank))
    fiber = fiber_module(b, rank)
    dense = dense_annihilator(fiber, bound)
    series = fiber_ideal_below_rank(b, rank, bound)
    assert series == dense
    assert series.rows == dense.rows
    assert series.quotient_dim == dense.quotient_dim
    assert series.holds_top_degree() is dense.holds_top_degree()
    if bound >= rank:
        assert annihilator(fiber, bound) == dense


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([None, ORACLE_GAUSS, ORACLE_CUBIC]), st.data())
def test_fiber_ideal_check_accepts_exactly_the_annihilator(field, data):
    """`_is_fiber_annihilator` accepts the family's ideal of the rank-d
    fiber, which is the dense reference's, on plane and space branches
    over QQ, QQ(i) and QQ(2^(1/3)) at d = 1..8.  It refuses the rank-(d+1)
    fiber's ideal read at bound d wherever that differs, as it must where
    a coordinate has order 1 (x^d has order d): every row of that ideal
    vanishes mod t^d, so the refusal is the standard monomials' rank, part
    (b).  It refuses the ideal of another branch over the same field
    wherever the two differ."""
    b = data.draw(oracle_branches(fields=(field,)))
    d = data.draw(st.integers(1, min(8, b.trunc - 1)))
    family = CertificateFamily(_one_branch_germ(b))
    ideal = family.fiber_ideal(0, d)
    assert family.verdict(0, d)
    assert ideal == dense_annihilator(fiber_module(b, d), d)
    longer = fiber_ideal_below_rank(b, d + 1, d)
    coords = [s.truncate(d) for s in b.coords]
    assert all(g.eval_series(coords).is_zero_at_precision()
               for g in longer.polys)
    assert _is_fiber_annihilator(b, longer) is (longer == ideal)
    if 1 in b.orders():
        assert longer != ideal
    other = data.draw(oracle_branches(fields=(field,)).filter(
        lambda c: c.ambient_dim == b.ambient_dim and c.trunc >= d))
    theirs = annihilator(fiber_module(other, d), d)
    assert _is_fiber_annihilator(b, theirs) is (theirs == ideal)


def test_fiber_ideal_check_refuses_a_reachable_monomial_held_bare(
        corpus_germs):
    """On the cusp (t^2, t^3) at d = 4 the monomials 1, x and y have
    orders 0, 2 and 3, below 4: they are live and independent, and the
    ideal has no live row.  Held with y bare, the ideal claims that y
    kills K[t]/(t^4).  Its live part passes (a)'s rows and (b), and only
    (a)'s order test, every monomial of order below d is live, refuses
    it."""
    b = corpus_germs["cusp"].branches[0]
    assert b.orders() == (2, 3)
    ideal = annihilator(fiber_module(b, 4), 4)
    assert ideal.live == ((0, 0), (1, 0), (0, 1)) and not ideal.live_rows
    assert _is_fiber_annihilator(b, ideal)
    assert not _is_fiber_annihilator(
        b, AnnihilatorIdeal(4, ((0, 0), (1, 0)), ()))


def test_pushforward_oracle_rejects_a_perturbed_fiber(corpus_germs,
                                                      monkeypatch):
    """The family's ideal built from a valid module of another branch, x
    doubled: the cross-check's verdict, which evaluates it at the
    branch's own series, must refuse it."""
    germ = corpus_germs["node"]
    x, *rest = germ.branches[0].coords
    other = BranchParam((x * F(2), *rest))
    assert pushforward_restriction_oracle(CertificateFamily(germ), 0, 3)["3"]
    monkeypatch.setattr(verify_module, "fiber_module",
                        lambda branch, r: fiber_module(other, r))
    assert not pushforward_restriction_oracle(CertificateFamily(germ), 0,
                                              3)["3"]


def test_exploratory_tangents_only_separated_or_inconclusive(corpus_germs):
    tac = corpus_germs["tacnode"]
    for v in separates_tangents(CertificateFamily(tac), 2):
        assert v.result in (SEPARATED, INCONCLUSIVE)
        if v.result == SEPARATED:
            assert v.witness["exponent"] == ceil(2 / tac.n[v.subject[0]])


def test_aggregate_critical_rank(corpus_germs):
    agg = aggregate_critical_rank(list(corpus_germs.values()))
    # max bii = 2 (tacnode), lcm over all n = lcm(1,2,3) = 6
    assert agg["l0"] == 3
    assert agg["r0"] == 18
