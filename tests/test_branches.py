import json
import random
import time
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from d0res.branches import (
    BranchParam,
    PlaneCurveInput,
    branch_multiplicity,
    colength_intersection_length,
    germ_invariants,
    implicit_equation,
    newton_puiseux,
)
from d0res import branches, kernels, linalg
from d0res.branches import _equation_precision, _monomial_chart
from d0res.errors import D0resError, InputError, RaiseTruncation
from d0res.fields import NumberField
from d0res.poly import Poly, poly_text
from d0res.report import parse_request, run_with_escalation
from d0res.series import Series

from conftest import EXPECTED_INVARIANTS, LONG_TRUNCATION
from oracles import (
    resultant_intersection_length,
    sylvester_resultant_equation,
    undetermined_coefficients_equation,
    undetermined_coefficients_precision,
    weierstrass_remainder,
)

F = Fraction
DATA = Path(__file__).resolve().parent / "data"
CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def B(*coords, n=16, degree=None):
    return BranchParam(tuple(
        Series.from_pairs([(e, F(c)) for e, c in pairs], n) for pairs in coords
    ), degree)


def test_branch_multiplicity_examples():
    assert branch_multiplicity(B([(2, 1)], [(3, 1)])) == 2
    assert branch_multiplicity(B([(1, 1)], [])) == 1
    assert branch_multiplicity(B([(3, 1)], [(4, 1)])) == 3
    with pytest.raises(D0resError):
        branch_multiplicity(BranchParam((Series.zero(8), Series.zero(8))))


def test_implicit_equation_examples():
    assert poly_text(implicit_equation(B([(1, 1)], [(2, 1)]))) == "y-x^2"
    assert poly_text(implicit_equation(B([(2, 1)], [(3, 1)]))) == "y^2-x^3"
    assert poly_text(implicit_equation(B([(1, 1)], []))) == "y"
    assert poly_text(implicit_equation(B([], [(1, 1)]))) == "x"


def test_implicit_equation_matches_resultant_on_polynomial_branches():
    for coords in ([[(2, 1)], [(3, 1)]],
                   [[(1, 1)], [(2, 1)]],
                   [[(2, 1)], [(5, 1)]],
                   [[(3, 1)], [(4, 1)]],
                   # y - (-2x^2) has order 7: x^m y and x^(m+2) agree
                   # mod t^(2M) near the top of the window
                   [[(2, 1)], [(4, -2), (7, 1)]]):
        b = B(*coords, n=24)
        assert implicit_equation(b) == sylvester_resultant_equation(b)


def _below_x_power(g, bound):
    return Poly(2, {e: c for e, c in g.terms.items() if e[0] < bound})


def _plane_lifts(repo_corpus_germs):
    """Every plane corpus branch, then the branches of the six rational
    germ snapshots, the QQ(sqrt(-a)) node among them, at LONG_TRUNCATION,
    where the dense solve is exact mod a positive power of x."""
    for name, germ in repo_corpus_germs.items():
        for b in germ.branches:
            if b.ambient_dim == 2:
                yield name, b
    for path in sorted(DATA.glob("rational_*.json")):
        req = parse_request({**json.loads(path.read_text())["input"],
                             "truncation": LONG_TRUNCATION})
        germ = run_with_escalation(req, lambda g, c, t, r: g)
        for b in germ.branches:
            yield path.stem, b


def test_power_sum_equation_matches_undetermined_coefficients(
        repo_corpus_germs):
    """The power-sum equation agrees with the dense undetermined-
    coefficients solve wherever that solve is exact, mod x^K_old, and the
    power-sum bound L is at least K_old."""
    seen = set()
    for name, b in _plane_lifts(repo_corpus_germs):
        seen.add(name)
        k_old = undetermined_coefficients_precision(b)
        assert k_old >= 1, name
        assert _equation_precision(b) >= k_old, name
        new = implicit_equation(b)
        old = undetermined_coefficients_equation(b)
        assert _below_x_power(new, k_old) == _below_x_power(old, k_old), name
    assert "rational_conj_node" in seen and "gaussian_node" in seen


def test_power_sum_equation_divides_the_resultant():
    """With x not a monomial the resultant is the Weierstrass polynomial
    times a unit: dividing it by the power-sum equation leaves no remainder
    below x^L."""
    for coords in ([[(2, 1), (3, 1)], [(3, 1)]],
                   [[(2, 1), (3, 1)], [(3, 1), (5, 2)]],
                   [[(2, 1), (5, -1)], [(3, 1), (4, 1)]],
                   [[(3, 2), (4, 1)], [(4, 1), (5, -1)]],
                   [[(1, 1), (2, 3)], [(2, 1)]]):
        b = B(*coords, n=40)
        g = implicit_equation(b)
        assert g.degree_in(1) == branch_multiplicity(b)
        resultant = sylvester_resultant_equation(b)
        bound = _equation_precision(b)
        assert bound >= 8
        assert weierstrass_remainder(resultant, g, bound).is_zero(), coords


def test_monomial_chart_reads_x_as_a_monomial():
    """x = a*s^n exactly at truncation T - n, and the chart is a
    parametrization of the same branch: its resultant vanishes on it."""
    sqrt_m1 = NumberField([F(1), F(0), F(1)]).gen()
    cases = [
        B([(2, 1), (3, 1)], [(3, 1)], n=24),
        B([(3, -2), (4, 1), (6, 5)], [(4, 1), (5, -1)], n=30),
        BranchParam((Series([F(0), F(0), 3 * sqrt_m1, F(1)], 20),
                     Series([F(0), F(0), F(0), sqrt_m1], 20))),
    ]
    for b in cases:
        xs, ys = b.coords
        n = xs.order()
        chart = _monomial_chart(b)
        assert chart.trunc == b.trunc - n
        assert chart.coords[0] == Series.monomial(n, xs.coeffs[n], chart.trunc)
        assert chart.coords[1].order() == ys.order()
    for b in cases[:2]:
        resultant = sylvester_resultant_equation(b)
        assert resultant.eval_series(list(
            _monomial_chart(b).coords)).is_zero_at_precision()


def test_gaussian_node_keeps_its_length_through_a_chart(repo_corpus_germs):
    """A reparametrized gaussian_node branch no longer has a monomial x;
    its equation comes through `_monomial_chart` over QQ(i), and l_ij is
    unchanged."""
    germ = repo_corpus_germs["gaussian_node"]
    unit = Series.from_pairs([(0, F(2)), (1, F(1)), (2, F(-1, 2))],
                             germ.branches[0].trunc)
    for target in range(germ.k):
        branches = list(germ.branches)
        branches[target] = branches[target].reparametrized(unit)
        x = branches[target].coords[0]
        assert sum(1 for c in x.coeffs if c) > 1
        chart = _monomial_chart(branches[target])
        assert chart.coords[0] == Series.monomial(1, x.coeffs[1], chart.trunc)
        redone = germ_invariants(branches)
        assert redone.l_matrix == germ.l_matrix
        assert redone.r0 == germ.r0


def test_monomial_chart_is_built_once_per_branch(monkeypatch):
    """Every reader of a branch's chart shares one build: the
    repeated-branch check, the equation and its precision.  The cusp given
    as ((t + t^2)^2, (t + t^2)^3), next to (t^2, t^3), is refused, and only
    its chart is built, once."""
    built = []

    def counting(b):
        built.append(b)
        return chart(b)

    chart = branches._monomial_chart
    monkeypatch.setattr(branches, "_monomial_chart", counting)
    bs = [B([(2, 1), (3, 2), (4, 1)], [(3, 1), (4, 3), (5, 3), (6, 1)],
            n=32, degree=6),
          B([(2, 1)], [(3, 1)], n=32, degree=3)]
    with pytest.raises(InputError, match=r"curve.branches\[1\]: repeats "
                       r"curve.branches\[0\] in another parameter"):
        germ_invariants(bs)
    for b in bs:
        assert implicit_equation(b).degree_in(1) == 2
        assert _equation_precision(b) >= 8
    assert built == [bs[0]]


def test_implicit_equation_runs_no_elimination(monkeypatch):
    """Neither route to the equation, monomial x or `_monomial_chart`,
    reaches an echelon form."""
    def refuse(*args, **kwargs):
        raise AssertionError("implicit_equation ran an elimination")

    monkeypatch.setattr(kernels, "ireduce", refuse)
    monkeypatch.setattr(linalg, "rref_rows", refuse)
    monkeypatch.setattr(branches, "rref_rows", refuse)
    for coords in ([[(3, 1)], [(4, 1), (5, 2)]],
                   [[(2, 1), (3, 1)], [(3, 1), (4, -1)]]):
        g = implicit_equation(B(*coords, n=40))
        assert g.degree_in(1) == coords[0][0][0]


def test_equation_precision_allows_for_x_past_the_truncation():
    """(t^2 + t^5, t) read at truncation 5 shows x = t^2.  Its equation is
    exact mod x^L for the L of `_equation_precision`, which counts the
    unseen t^5, and not one power further."""
    low = B([(2, 1), (5, 1)], [(1, 1)], n=5)
    high = B([(2, 1), (5, 1)], [(1, 1)], n=64)
    bound = _equation_precision(low)
    assert bound == 2
    g_low, g_high = implicit_equation(low), implicit_equation(high)
    assert _below_x_power(g_low, bound) == _below_x_power(g_high, bound)
    assert _below_x_power(g_low, bound + 1) != _below_x_power(
        g_high, bound + 1)


def test_intersection_length_examples():
    """The axes, the tacnode and two lines: every explicit l_ij is the
    colength, which the resultant oracle confirms."""
    for pair, expected in (((B([(1, 1)], []), B([], [(1, 1)])), 1),
                           ((B([(1, 1)], [(2, 1)]), B([(1, 1)], [(2, -1)])), 2),
                           ((B([(1, 1)], []), B([(1, 1)], [(1, 1)])), 1)):
        assert germ_invariants(pair).l_matrix[0][1] == expected
        assert resultant_intersection_length(*pair) == expected


def test_colength_oracle_cross_checks():
    pairs = [
        ((B([(1, 1)], []), B([], [(1, 1)])), 1),
        ((B([(1, 1)], [(2, 1)]), B([(1, 1)], [(2, -1)])), 2),
        ((B([(1, 1)], []), B([(1, 1)], [(1, 1)])), 1),
        # (t^6 + t^7)^2 - t^12 = 2t^13 + t^14: the count runs up to
        # e + c_0 = 13 + 16; stopping at two equal values gave 12
        ((B([(4, 1)], [(6, 1), (7, 1)], n=64), B([(2, 1)], [(3, 1)], n=64)),
         13),
        # y has order 11 on (t^2, t^11): read below precision 12 it looks
        # like an equation of that branch, and the count on the y-axis was 1
        ((B([(2, 1)], [(11, 1)], n=32), B([], [(1, 1)], n=32)), 2),
        # counted on the y-axis, where it stops at 3, l = 3 still needs the
        # generator y^3 - x^7 of degree 7; without it the count is 4
        ((B([], [(1, 1)], n=32), B([(3, 1)], [(7, 1)], n=32)), 3),
    ]
    for (bi, bj), expected in pairs:
        assert resultant_intersection_length(bi, bj) == expected
        assert colength_intersection_length(bi, bj) == expected
        assert colength_intersection_length(bj, bi) == expected


def test_space_contact_pair_takes_its_length_from_the_colength():
    """(t^4, t^6 + t^7, 0) against (t^2, t^3, 0): in space the colength is
    the only route to l = 13 and r0 = (1 + 13) * lcm(4, 2).  It ran out of
    memory when the count was redone at every degree."""
    t0 = time.perf_counter()
    bi = B([(4, 1)], [(6, 1), (7, 1)], [], n=32)
    bj = B([(2, 1)], [(3, 1)], [], n=32)
    germ = germ_invariants([bi, bj])
    assert germ.l_matrix[0][1] == 13
    assert germ.r0 == 56
    # counted on (t^2, t^3), the generators need order 52 on the other
    with pytest.raises(RaiseTruncation):
        colength_intersection_length(bj, bi)
    assert colength_intersection_length(
        B([(2, 1)], [(3, 1)], [], n=64), B([(4, 1)], [(6, 1), (7, 1)], [], n=64)
    ) == 13
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"space contact pair took {elapsed:.2f}s (budget 5s)"


def test_colength_reads_generators_past_their_degree():
    """y^4 - x^6 = (y^2 - x^3)(y^2 + x^3), l = 6.  Mod t^6, x^3 and y^2
    vanish on either branch, but neither lies in its ideal: a degree-3
    kernel read at that precision holds both, and its count gives 5.  The
    oracle reads the kernel at a precision set apart from the degree, at
    every truncation up to the benchmark's rank-14 truncation 224."""
    f = Poly(2, {(0, 4): F(1), (6, 0): F(-1)})
    for trunc in (16, 48, 224):
        bi, bj = newton_puiseux(PlaneCurveInput(f), trunc)
        for b in (bi, bj):
            x, y = b.coords
            assert (x ** 3).truncate(6).is_zero_at_precision()
            assert (y ** 2).truncate(6).is_zero_at_precision()
        assert resultant_intersection_length(bi, bj) == 6
        assert colength_intersection_length(bi, bj) == 6
        assert colength_intersection_length(bj, bi) == 6


def test_colength_of_tangent_lines_of_high_contact():
    """y = +-x^k meet with l = k; k = 20 took 13 s when the count was
    redone at every degree, within the germ corpus's 5 s budget now."""
    t0 = time.perf_counter()
    for k in (10, 15, 20):
        plus = B([(1, 1)], [(k, 1)], n=4 * k)
        minus = B([(1, 1)], [(k, -1)], n=4 * k)
        assert resultant_intersection_length(plus, minus) == k
        assert colength_intersection_length(plus, minus) == k
        assert colength_intersection_length(minus, plus) == k
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"y = +-x^k took {elapsed:.2f}s (budget 5s)"


_COEFF = st.integers(-3, 3).filter(bool).map(F)


@st.composite
def branch_pairs_with_contact(draw):
    """Two distinct plane branches (t^n, y(t)).  Half the time the second
    shares the first's x and agrees with its y below a drawn contact
    exponent, where the coefficients differ."""
    def y_terms(n):
        low = 1 if n == 1 else n + 1
        exps = draw(st.lists(st.integers(low, 12), min_size=1, max_size=3,
                             unique=True))
        return {e: draw(_COEFF) for e in exps}

    n = draw(st.sampled_from([1, 2, 3]))
    ya = y_terms(n)
    if draw(st.booleans()):
        kappa = draw(st.integers(min(ya), 12))
        yb = {e: c for e, c in ya.items() if e < kappa}
        yb[kappa] = ya.get(kappa, F(0)) + draw(_COEFF)
        yb.update((e, draw(_COEFF)) for e in draw(
            st.lists(st.integers(kappa + 1, 13), max_size=2, unique=True)))
        nb = n
    else:
        nb = draw(st.sampled_from([1, 2, 3]))
        yb = y_terms(nb)
    yb = {e: c for e, c in yb.items() if c}
    for m, y in ((n, ya), (nb, yb)):
        assume(y and gcd(m, *y) == 1)
    # (t^n, y(-t)) is the same branch for even n
    assume(not (n == nb and (ya == yb or n % 2 == 0 and yb == {
        e: (-c if e % 2 else c) for e, c in ya.items()})))
    return (n, sorted(ya.items())), (nb, sorted(yb.items()))


def _escalated(fn, pair):
    trunc = 32
    while True:
        branches = [B([(m, 1)], list(y), n=trunc) for m, y in pair]
        try:
            return fn(*branches)
        except RaiseTruncation:
            trunc *= 2
            assert trunc <= 1024


@settings(max_examples=40, deadline=None)
@given(branch_pairs_with_contact())
def test_colength_matches_series_length(pair):
    expected = _escalated(resultant_intersection_length, pair)
    assert _escalated(colength_intersection_length, pair) == expected
    assert _escalated(colength_intersection_length, pair[::-1]) == expected


@st.composite
def moved_plane_pairs(draw):
    """Two distinct plane branches as (x terms, y terms) pairs: a pair of
    `branch_pairs_with_contact` with x scaled by one drawn a for both, or
    with its second branch replaced by an axis, (t, 0) or (0, t), which has
    a zero coordinate; then either pair with its coordinates swapped.  A
    common linear change of coordinates keeps the two branches distinct."""
    (n, ya), (nb, yb) = draw(branch_pairs_with_contact())
    a = draw(_COEFF) / draw(st.sampled_from([1, 2, 3]))
    first, second = ([(n, a)], ya), ([(nb, a)], yb)
    axis = draw(st.sampled_from([None, ([(1, 1)], []), ([], [(1, 1)])]))
    if axis is not None:
        first, second = ([(n, 1)], ya), axis
    if draw(st.booleans()):
        first, second = first[::-1], second[::-1]
    return first, second


@settings(max_examples=40, deadline=None)
@given(moved_plane_pairs())
def test_colength_on_reachable_monomials_matches_the_resultant(pair):
    """The colength evaluates only the monomials each branch can reach,
    its x, y or both scaled, swapped or zero, and counts what the
    resultant does, both ways round."""
    def escalated(fn, first, second):
        trunc = 32
        while True:
            try:
                return fn(B(*first, n=trunc), B(*second, n=trunc))
            except RaiseTruncation:
                trunc *= 2
                assert trunc <= 1024

    first, second = pair
    expected = escalated(resultant_intersection_length, first, second)
    assert escalated(colength_intersection_length, first, second) == expected
    assert escalated(colength_intersection_length, second, first) == expected


def test_space_branches_use_colength():
    """Two axes, and the x-axis against a twisted curve, each meet once."""
    x_axis = B([(1, 1)], [], [], n=16)
    y_axis = B([], [(1, 1)], [], n=16)
    twisted = B([(1, 1)], [(1, 1)], [(2, 1)], n=16)
    for other in (y_axis, twisted):
        assert germ_invariants([x_axis, other]).l_matrix[0][1] == 1
        assert colength_intersection_length(other, x_axis) == 1


_CUSP = {"x": [[2, "1"]], "y": [[3, "1"]]}
_I = {"generator": "i", "minpoly": ["1", "0", "1"]}
_W = {"generator": "w", "minpoly": ["1", "1", "1"]}       # w^2 + w + 1 = 0


def _explicit_germ(branches, field=None):
    obj = {"curve": {"branches": branches}}
    if field is not None:
        obj["field"] = field
    return run_with_escalation(parse_request(obj), lambda g, c, t, r: g)


@pytest.mark.parametrize("explicit, field", [
    # t -> -t
    ([_CUSP, {"x": [[2, "1"]], "y": [[3, "-1"]]}], None),
    # t -> t + t^2, where x is no monomial, second
    ([_CUSP, {"x": [[2, "1"], [3, "2"], [4, "1"]],
              "y": [[3, "1"], [4, "3"], [5, "3"], [6, "1"]]}], None),
    # t -> i*t: zeta^2 = -1 and zeta^3 = -i give zeta = i
    ([_CUSP, {"x": [[2, "-1"]], "y": [[3, "-i"]]}], _I),
    # t -> w*t: zeta^3 = 1, zeta^4 = w and zeta^5 = w^2 give zeta = w
    ([{"x": [[3, "1"]], "y": [[4, "1"], [5, "1"]]},
      {"x": [[3, "1"]], "y": [[4, "w"], [5, "-1-w"]]}], _W),
    # the y-axis twice, read in its y chart; a line between them
    ([{"x": [], "y": [[1, "1"]]}, {"x": [[1, "1"]], "y": [[1, "1"]]},
      {"x": [], "y": [[1, "1"], [2, "1"]]}], None),
], ids=["minus-t", "t-plus-t2", "i-t", "w-t", "y-axis"])
def test_a_branch_in_another_parameter_is_refused(monkeypatch, explicit, field):
    """Two explicit plane branches that are one branch in two parameters
    have no l_ij: once the truncation passes the product of their degrees,
    the pair is refused as input naming both indices.  Every case is
    proven below 64, and a ceiling there stops a missed refusal early."""
    monkeypatch.setenv("D0RES_MAX_TRUNCATION", "64")
    last = len(explicit) - 1
    with pytest.raises(InputError, match=rf"curve.branches\[{last}\]: repeats "
                       r"curve.branches\[0\] in another parameter"):
        _explicit_germ(explicit, field)


def test_branches_that_agree_long_are_not_refused():
    """Near misses: the w-t pair with one coefficient changed meets with
    l = 4 + 5 + 4 over the three conjugates, and y = +-x^5 with l = 5.
    Read past the bound 5*5, the check itself parts the w-t pair: the
    ratios w at s^4 and 1 at s^5 are no powers of one zeta with zeta^3 = 1,
    while the repeat's w and w^2 are."""
    germ = _explicit_germ([{"x": [[3, "1"]], "y": [[4, "1"], [5, "1"]]},
                           {"x": [[3, "1"]], "y": [[4, "w"], [5, "1"]]}], _W)
    assert germ.l_matrix[0][1] == 13
    germ = _explicit_germ([{"x": [[1, "1"]], "y": [[5, "1"]]},
                           {"x": [[1, "1"]], "y": [[5, "-1"]]}])
    assert germ.l_matrix[0][1] == 5
    w = NumberField([F(1), F(1), F(1)], generator="w").gen()

    def branch(y4, y5):
        return BranchParam((Series.from_pairs([(3, F(1))], 64),
                            Series.from_pairs([(4, y4), (5, y5)], 64)), 5)

    assert branches._one_branch(branch(F(1), F(1)), branch(w, w * w))
    assert not branches._one_branch(branch(F(1), F(1)), branch(w, F(1)))


@pytest.mark.parametrize("dims", [2, 3])
def test_a_repeat_the_ceiling_cannot_prove_keeps_the_ceiling_message(
        monkeypatch, dims):
    """(t^2, t^3) and (t^2, -t^3) are proven one branch past truncation
    2 + 3*3; under a ceiling of 8 the run stops at the ceiling, as it does
    for the same pair in space, which no degree check reads."""
    monkeypatch.setenv("D0RES_MAX_TRUNCATION", "8")
    zero = [{"z": []}] * 2 if dims == 3 else [{}] * 2
    pair = [_CUSP | zero[0], {"x": [[2, "1"]], "y": [[3, "-1"]]} | zero[1]]
    with pytest.raises(D0resError, match="but the ceiling is 8") as info:
        _explicit_germ(pair)
    assert not isinstance(info.value, InputError)


def test_germ_invariants_against_expected(corpus_germs):
    for name, (n, bii, l0, r0) in EXPECTED_INVARIANTS.items():
        germ = corpus_germs[name]
        assert germ.n == n, name
        assert germ.bii == bii, name
        assert germ.l0 == l0, name
        assert germ.r0 == r0, name
        for i in range(germ.k):
            assert germ.l_matrix[i][i] is None
            for j in range(i + 1, germ.k):
                assert germ.l_matrix[i][j] == germ.l_matrix[j][i] >= 1
        for ni in germ.n:
            assert germ.r0 % ni == 0


def test_tacnode_l_matrix_value(corpus_germs):
    assert corpus_germs["tacnode"].l_matrix[0][1] == 2
    assert corpus_germs["node"].l_matrix[0][1] == 1


def test_reparametrization_invariance(corpus_germs):
    rng = random.Random(20240817)
    for name, germ in corpus_germs.items():
        if germ.k < 2:
            continue
        for _ in range(3):
            target = rng.randrange(germ.k)
            unit = Series.from_pairs(
                [(0, F(rng.randint(1, 5))),
                 (1, F(rng.randint(-3, 3))),
                 (2, F(rng.randint(-3, 3), 2))],
                germ.branches[target].trunc,
            )
            branches = list(germ.branches)
            branches[target] = branches[target].reparametrized(unit)
            redone = germ_invariants(branches)
            assert redone.n == germ.n, name
            assert redone.l_matrix == germ.l_matrix, name
            assert redone.r0 == germ.r0, name


def test_non_origin_point_translation():
    # y^2 - (x-1)^2 x  has a node at (1, 0)
    f = Poly(2, {(0, 2): F(1)}) - (
        Poly(2, {(1, 0): F(1), (0, 0): F(-1)}) ** 2 * Poly(2, {(1, 0): F(1)})
    )
    curve = PlaneCurveInput(f, (F(1), F(0)))
    branches = newton_puiseux(curve, 24)
    germ = germ_invariants(branches, curve.point)
    assert germ.point == (F(1), F(0))
    assert germ.n == (1, 1) and germ.bii == 1 and germ.r0 == 2


def test_rejects_non_reduced_input():
    square = Poly(2, {(0, 1): F(1), (2, 0): F(-1)}) ** 2
    with pytest.raises(D0resError):
        PlaneCurveInput(square)


def test_rejects_point_off_curve():
    f = Poly(2, {(0, 2): F(1), (3, 0): F(-1)})
    with pytest.raises(D0resError):
        PlaneCurveInput(f, (F(1), F(2)))


def test_smooth_point_is_fine():
    branches = newton_puiseux(
        PlaneCurveInput(Poly(2, {(0, 1): F(1), (2, 0): F(-1)})), 16
    )
    germ = germ_invariants(branches)
    assert germ.k == 1 and germ.r0 == 1 and germ.bii is None
    assert any("smooth-point" in note for note in germ.notes)
