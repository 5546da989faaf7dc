from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from d0res.branches import PlaneCurveInput, branch_multiplicity, newton_puiseux
from d0res.errors import D0resError, UnsupportedFieldExtension
from d0res import puiseux as puiseux_module
from d0res.fields import (
    FieldElement,
    NumberField,
    scalar_is_zero,
    upoly_deriv,
    upoly_divmod,
    upoly_gcd,
    upoly_sub,
    upoly_trim,
)
from d0res.poly import Poly
from d0res.puiseux import (
    FieldContext,
    _depressed_quartic_split,
    _rational_roots,
    _sturm_roots,
    has_rational_factor,
    newton_polygon_edges,
    puiseux_transform,
    roots_in_tower,
    solve_regular_tail,
    squarefree_decomposition,
)
from d0res.series import Series

from conftest import curve_poly
from oracles import (
    lift_regular_tail_by_inversion,
    puiseux_transform_by_evaluation,
    series_newton_lift,
)

F = Fraction


def decompose(terms, trunc=32):
    return newton_puiseux(PlaneCurveInput(Poly(2, terms)), trunc)


def coords_of(branch):
    return [
        [(i, c) for i, c in enumerate(s.coeffs) if c != 0]
        for s in branch.coords
    ]


def test_cusp_single_branch():
    (b,) = decompose({(0, 2): F(1), (3, 0): F(-1)})
    assert coords_of(b) == [[(2, F(1))], [(3, F(1))]]


def test_axes_two_branches_in_order():
    bs = decompose({(1, 1): F(1)})
    assert len(bs) == 2
    assert coords_of(bs[0]) == [[(1, F(1))], []]       # y = 0 branch first
    assert coords_of(bs[1]) == [[], [(1, F(1))]]       # x = 0 branch last


def test_nodal_cubic_binomial_series():
    bs = decompose({(0, 2): F(1), (2, 0): F(-1), (3, 0): F(-1)}, trunc=12)
    assert len(bs) == 2
    # y = +- x sqrt(1+x) = +-(t + t^2/2 - t^3/8 + t^4/16 - ...)
    ys = sorted(s.coeffs[1] for b in bs for s in [b.coords[1]])
    assert ys == [F(-1), F(1)]
    for b in bs:
        y = b.coords[1]
        sign = y.coeffs[1]
        assert y.coeffs[2] == sign * F(1, 2)
        assert y.coeffs[3] == sign * F(-1, 8)
        assert y.coeffs[4] == sign * F(1, 16)


def test_e6_and_ramphoid_single_branches():
    (b,) = decompose({(0, 3): F(1), (4, 0): F(-1)})
    assert coords_of(b) == [[(3, F(1))], [(4, F(1))]]
    (b2,) = decompose({(0, 2): F(1), (5, 0): F(-1)})
    assert coords_of(b2) == [[(2, F(1))], [(5, F(1))]]


def test_triple_point_three_branches():
    bs = decompose({(2, 1): F(1), (1, 2): F(-1)})
    assert len(bs) == 3
    assert coords_of(bs[0]) == [[(1, F(1))], []]
    assert coords_of(bs[1]) == [[(1, F(1))], [(1, F(1))]]
    assert coords_of(bs[2]) == [[], [(1, F(1))]]


def test_gaussian_node_needs_i():
    bs = decompose({(0, 2): F(1), (2, 0): F(1)})
    assert len(bs) == 2
    field = bs[0].coords[1].coeffs[1].field
    assert field.minpoly == (F(1), F(0), F(1))
    c0 = bs[0].coords[1].coeffs[1]
    c1 = bs[1].coords[1].coeffs[1]
    assert c0 * c0 == -1 and c1 == -c0


def test_cyclotomic_triple_point():
    bs = decompose({(0, 3): F(1), (3, 0): F(-1)})
    assert len(bs) == 3
    tangents = [b.coords[1].coeffs[1] for b in bs]
    assert tangents[0] == 1
    w = tangents[1]
    assert w ** 3 == 1 and w != 1
    assert tangents[2] == w * w


def test_quartic_resolvent_split():
    # y^4 + 5x^2 y^2 + 4x^4 = (y^2 + x^2)(y^2 + 4x^2): four branches over QQ(i)
    bs = decompose({(0, 4): F(1), (2, 2): F(5), (4, 0): F(4)})
    assert len(bs) == 4
    slopes = [b.coords[1].coeffs[1] for b in bs]
    squares = sorted(str(s * s) for s in slopes)
    assert squares == ["-1", "-1", "-4", "-4"]


def test_zero_root_keeps_the_other_rational_roots():
    # z^3 - 16z: the resolvent of u^4 + 4, whose root 4 = 2^2 splits it
    assert _rational_roots([F(0), F(-16), F(0), F(1)]) == [F(-4), F(0), F(4)]


def roots_by_divisors(p):
    """Rational roots by the rational root theorem: +-a/b, a | a0, b | an."""
    denom = 1
    for c in p:
        denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [int(c * denom) for c in p]
    low = next(k for k, v in enumerate(ints) if v)
    divisors = lambda n: [d for d in range(1, n + 1) if n % d == 0]
    cands = {F(0)} if low else set()
    for a in divisors(abs(ints[low])):
        for b in divisors(abs(ints[-1])):
            cands |= {F(a, b), F(-a, b)}
    return sorted(c for c in cands if sum(k * c ** i for i, k in enumerate(p)) == 0)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.fractions(min_value=-6, max_value=6, max_denominator=4), max_size=3),
       st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(lambda c: c[-1]))
def test_rational_roots_match_the_divisor_search(linear_roots, other):
    p = [F(c) for c in other]
    for r in linear_roots:      # times (u - r)
        p = [a - r * b for a, b in zip([F(0)] + p, p + [F(0)])]
    found = _rational_roots(p)
    assert found == roots_by_divisors(p)
    assert set(linear_roots) <= set(found)


small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=6)


@settings(max_examples=200, deadline=None)
@given(small_fractions.filter(bool), small_fractions, small_fractions,
       st.one_of(st.just(F(0)), small_fractions))
def test_quadratic_roots_match_the_bisection(lead, a, b, shift):
    """A quadratic's roots come from its discriminant; they equal Sturm
    bisection's, sorted, on lead * (u - a)(u - b) + shift: two roots, a
    double root, or none when the shift leaves no rational square."""
    p = [lead * a * b + shift, -lead * (a + b), lead]
    assert _rational_roots(p) == _sturm_roots(p)
    if not shift:
        assert _rational_roots(p) == sorted({a, b})


def test_rational_roots_of_large_coefficients():
    big = 10 ** 18 + 9
    assert _rational_roots([F(-big ** 3), F(0), F(0), F(1)]) == [F(big)]
    assert _rational_roots([F(big), F(0), F(0), F(1, big)]) == []
    assert not has_rational_factor([F(10 ** 18 + 3), F(0), F(0), F(1)])


def test_biquadratic_without_square_discriminant_uses_the_resolvent():
    # u^4 + 4 = (u^2 + 2u + 2)(u^2 - 2u + 2), although 0^2 - 4*4 < 0
    assert _depressed_quartic_split([F(4), F(0), F(0), F(0), F(1)]) == (
        [F(2), F(2), F(1)], [F(2), F(-2), F(1)])


def test_has_rational_factor_decides_reducibility_up_to_degree_4():
    assert has_rational_factor([F(-1), F(0), F(1)])               # (u-1)(u+1)
    assert has_rational_factor([F(-1), F(0), F(0), F(1)])         # u^3 - 1
    assert has_rational_factor([F(2), F(0), F(3), F(0), F(1)])    # (u^2+1)(u^2+2)
    assert has_rational_factor([F(4), F(0), F(0), F(0), F(1)])    # u^4 + 4
    assert not has_rational_factor([F(1), F(0), F(1)])
    assert not has_rational_factor([F(1), F(1), F(1)])
    assert not has_rational_factor([F(-2), F(0), F(0), F(1)])
    assert not has_rational_factor([F(2), F(0), F(0), F(0), F(1)])


def test_unsupported_cubic_extension():
    with pytest.raises(UnsupportedFieldExtension):
        decompose({(0, 3): F(1), (3, 0): F(-2)})  # needs cbrt(2) and omega


def test_residuals_and_multiplicity_sum(corpus_germs):
    for name, germ in corpus_germs.items():
        f = curve_poly(name)
        total = 0
        for b in germ.branches:
            assert f.eval_series(list(b.coords)).is_zero_at_precision()
            total += branch_multiplicity(b)
        assert total == f.min_degree(), name


def test_polygon_edges_in_increasing_slope_order():
    f = Poly(2, {(0, 3): F(1), (1, 1): F(1), (3, 0): F(1)})
    edges = newton_polygon_edges(f)
    slopes = [F(q, p) for p, q, _ in edges]
    assert slopes == sorted(slopes)
    assert slopes == [F(1, 2), F(2)]


def test_roots_in_tower_multiplicities():
    ctx = FieldContext()
    # u^3 - 3u + 2 = (u-1)^2 (u+2)
    roots = roots_in_tower([F(2), F(-3), F(0), F(1)], ctx)
    assert sorted((str(r), m) for r, m in roots) == [("-2", 1), ("1", 2)]
    sq = squarefree_decomposition([F(2), F(-3), F(0), F(1)])
    assert [(m, len(f) - 1) for f, m in sq] == [(1, 1), (2, 1)]


def _yun(p):
    """Yun's algorithm, gcds and divisions all the way: the reference that
    `squarefree_decomposition` skips on linear input."""
    p = upoly_trim(list(p))
    if len(p) <= 1:
        return []
    inv = 1 / p[-1]
    p = [c * inv for c in p]
    dp = upoly_deriv(p)
    a = upoly_gcd(p, dp)
    b, _ = upoly_divmod(p, a)
    c, _ = upoly_divmod(dp, a)
    d = upoly_sub(c, upoly_deriv(b))
    out, i = [], 1
    while len(b) > 1:
        a = upoly_gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, _ = upoly_divmod(b, a)
        c, _ = upoly_divmod(d, a)
        d = upoly_sub(c, upoly_deriv(b))
        i += 1
    return out


_LINEAR_SCALARS = (F(0), F(1), F(-3, 2), F(7))


@pytest.mark.parametrize("field", [None, NumberField([1, 0, 1], generator="i")])
def test_a_linear_characteristic_is_its_own_decomposition(field, monkeypatch):
    """A linear p decomposes as [(monic p, 1)] with no gcd or division,
    equal to Yun's output over QQ and QQ(i); higher degrees still run
    Yun's algorithm and agree with it too."""
    scalars = (_LINEAR_SCALARS if field is None else
               [field.element([a, b]) for a in _LINEAR_SCALARS
                for b in _LINEAR_SCALARS])
    linear = [[c0, c1] for c0 in scalars for c1 in scalars
              if not scalar_is_zero(c1)]
    expected = [_yun(p) for p in linear]

    def refused(*args):
        raise AssertionError("a gcd or division on a linear polynomial")

    for name in ("upoly_gcd", "upoly_divmod"):
        monkeypatch.setattr(puiseux_module, name, refused)
    for p, want in zip(linear, expected):
        got = squarefree_decomposition(p + [F(0)])
        assert got == want and len(got) == 1 and got[0][1] == 1, p
        assert got[0][0][-1] == 1, p
    monkeypatch.undo()
    one = F(1) if field is None else field.one()
    for p in ([F(2), F(-3), F(0), F(1)], [F(1), F(0), F(1)],
              [F(0), F(0), F(1)]):
        p = [c * one for c in p]
        assert squarefree_decomposition(p) == _yun(p), p


def test_non_primitive_parametrization_rejected():
    from d0res.branches import BranchParam
    with pytest.raises(D0resError):
        BranchParam((Series.from_pairs([(2, F(1))], 8),
                     Series.from_pairs([(4, F(1))], 8)))


def test_smooth_graph_branch():
    (b,) = decompose({(0, 1): F(1), (2, 0): F(-1)})
    assert coords_of(b) == [[(1, F(1))], [(2, F(1))]]


# -- the series lift of a regular tail ---------------------------------------------

GAUSS = NumberField([1, 0, 1], generator="i")
LIFT_TRUNCATIONS = (1, 2, 3, 5, 8, 33, 120)


def lift_by_coefficients(f1, trunc):
    """y_k = -[x^k] f1(x, y_<k) / f_y(0,0), one coefficient at a time.

    pw[j][k] = [x^k] y^j.  As y(0) = 0, [x^k] y^j for j >= 2 involves only
    y_<k, and y_k enters [x^k] f1(x, y) only through the x^0 y^1 term.
    """
    dy = max(j for _, j in f1.terms)
    pw = [[F(1)] + [F(0)] * (trunc - 1)] + [[F(0)] * trunc for _ in range(dy)]
    y = pw[1]
    for k in range(trunc):
        for j in range(2, dy + 1):
            acc = F(0)
            for a in range(1, k + 1):
                acc = acc + y[a] * pw[j - 1][k - a]
            pw[j][k] = acc
        acc = F(0)
        for (i, j), c in f1.terms.items():
            if i <= k:
                acc = acc + c * pw[j][k - i]
        y[k] = -acc / f1.coefficient((0, 1))
    return y


# QQ, QQ(i), and u^2 + 3/5 and u^3 - u/2 + 1/3, whose minimal polynomials
# are not integral, so that reducing mod m(u) rescales the denominator
LIFT_FIELDS = (None, GAUSS, NumberField([F(3, 5), 0, 1], generator="u"),
               NumberField([F(1, 3), F(-1, 2), 0, 1], generator="u"))


def _scalar(field):
    small = st.integers(-3, 3)
    if field is None:
        return small.map(F)
    return st.lists(small, min_size=field.degree,
                    max_size=field.degree).map(field.element)


@st.composite
def regular_tails(draw, fields=(None, GAUSS)):
    """f1 with f1(0,0) = 0, f_y(0,0) != 0 and a y-free term, over one of
    `fields` (None for QQ)."""
    scalar = _scalar(draw(st.sampled_from(fields)))
    unit = scalar.filter(lambda c: c != 0)
    exps = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                         max_size=6, unique=True))
    terms = {e: draw(scalar) for e in exps if e not in ((0, 0), (0, 1))}
    terms[(0, 1)] = draw(unit)
    terms[(draw(st.integers(1, 3)), 0)] = draw(unit)
    return Poly(2, terms)


@settings(max_examples=30, deadline=None)
@given(regular_tails(), st.sampled_from(LIFT_TRUNCATIONS), st.data())
def test_lift_matches_coefficientwise_solver(f1, trunc, data):
    y = solve_regular_tail(f1, trunc)
    assert y.trunc == trunc
    assert list(y.coeffs) == lift_by_coefficients(f1, trunc)
    assert f1.eval_series([Series.variable(trunc), y]).is_zero_at_precision()
    shorter = data.draw(st.sampled_from([t for t in LIFT_TRUNCATIONS if t <= trunc]))
    assert y.truncate(shorter) == solve_regular_tail(f1, shorter)


@settings(max_examples=40, deadline=None)
@given(regular_tails(), st.sampled_from(LIFT_TRUNCATIONS + (9, 17, 64)))
def test_carried_inverse_matches_inverting_at_every_step(f1, trunc):
    """The lift that refines g = 1/f_y(x, y) by one Newton step per step
    equals the lift that inverts f_y(x, y) from scratch at every step."""
    assert solve_regular_tail(f1, trunc) == lift_regular_tail_by_inversion(
        f1, trunc)


@settings(max_examples=40, deadline=None)
@given(regular_tails(LIFT_FIELDS), st.sampled_from(LIFT_TRUNCATIONS + (64,)))
# u y + y^2 + (1 - u^2/2) x y - u x over each non-integral field, to x^64
@example(Poly(2, {(0, 1): LIFT_FIELDS[2].gen(), (0, 2): F(1),
                  (1, 1): LIFT_FIELDS[2].element([1, 0, F(-1, 2)]),
                  (1, 0): -LIFT_FIELDS[2].gen()}), 64)
@example(Poly(2, {(0, 1): LIFT_FIELDS[3].gen(), (0, 2): F(1),
                  (1, 1): LIFT_FIELDS[3].element([1, 0, F(-1, 2)]),
                  (1, 0): -LIFT_FIELDS[3].gen()}), 64)
# y + y^9 + 2 x y^9 - x^3 to x^20: y has order 3, so y^8 and y^9 vanish
# mod x^20, and the y^9 terms reach neither f1 nor f_y there
@example(Poly(2, {(0, 1): F(1), (0, 9): F(1), (1, 9): F(2), (3, 0): F(-1)}), 20)
def test_integer_lift_matches_every_series_route(f1, trunc):
    """The lift on integer vectors equals the Newton lift in `Series`
    arithmetic that it replaced (`oracles.series_newton_lift`), the lift
    that inverts f_y(x, y) from scratch at every step and the
    coefficient-wise solver, over QQ, QQ(i) and two fields whose minimal
    polynomials are not integral; each coefficient is a Fraction exactly
    where the Series route leaves one."""
    y = solve_regular_tail(f1, trunc)
    want = series_newton_lift(f1, trunc)
    assert y == want
    assert [type(c) for c in y.coeffs] == [type(c) for c in want.coeffs]
    assert y == lift_regular_tail_by_inversion(f1, trunc)
    assert list(y.coeffs) == lift_by_coefficients(f1, trunc)


def test_lift_inverts_at_doubling_precisions(monkeypatch):
    """A tail's lift inverts one scalar, f_y(0, 0), and no series: each step
    refines the carried inverse.  Its evaluations (`puiseux._at_y`) run at
    the step precisions, which double up to trunc: f1 mod x^2, x^4, ...,
    x^256, and f_y mod x^(m - n) wherever the carried inverse is short of
    that, i.e. at every step but the first."""
    series_inverses, scalar_inverses, precisions = [], [], []
    invert, inverse, at_y = Series.invert, FieldElement.inverse, puiseux_module._at_y

    def counted_invert(self):
        series_inverses.append(self.trunc)
        return invert(self)

    def counted_inverse(self):
        scalar_inverses.append(self)
        return inverse(self)

    def recorded(cs, den, yd, ys, m):
        precisions.append((len(cs) - 1, m))
        return at_y(cs, den, yd, ys, m)

    monkeypatch.setattr(Series, "invert", counted_invert)
    monkeypatch.setattr(FieldElement, "inverse", counted_inverse)
    monkeypatch.setattr(puiseux_module, "_at_y", recorded)
    # per step: f_y (degree 2) mod x^(m - n) when g is short of it, then f1
    # (degree 3) mod x^m, for m = 2, 4, ..., 256
    schedule = [(3, 2)] + [e for k in (2, 4, 8, 16, 32, 64, 128)
                           for e in ((2, k), (3, 2 * k))]
    # y + y^3 = x: a tail that is not exact
    f1 = Poly(2, {(0, 1): F(1), (0, 3): F(1), (1, 0): F(-1)})
    y = solve_regular_tail(f1, 256)
    assert y.coeffs[:6] == (0, 1, 0, -1, 0, 3)
    assert series_inverses == []
    assert precisions == schedule
    # i*y + y^3 = x over QQ(i): the one scalar inverse is 1/i
    precisions.clear()
    i = GAUSS.gen()
    y = solve_regular_tail(Poly(2, {(0, 1): i, (0, 3): F(1), (1, 0): F(-1)}),
                           256)
    assert y.coeffs[1] == -i
    assert scalar_inverses == [i] and series_inverses == []
    assert precisions == schedule
    # trunc 5: m = 2, 4, 5, and the last step needs g mod x^1 only
    precisions.clear()
    solve_regular_tail(f1, 5)
    assert precisions == [(3, 2), (2, 2), (3, 4), (3, 5)]
    precisions.clear()
    decompose({(0, 2): F(1), (3, 0): F(-1)}, trunc=256)   # cusp: tail y = 0
    assert series_inverses == [] and precisions == []


def test_exact_tail_is_read_off_the_y_free_terms():
    # y(1 + x) + x^5: the lift is y = 0 below x^5 and nonzero from there on
    f1 = Poly(2, {(0, 1): F(1), (1, 1): F(1), (5, 0): F(1)})
    assert solve_regular_tail(f1, 5) == Series.zero(5)
    assert solve_regular_tail(f1, 6).coeffs == (0, 0, 0, 0, 0, -1)


# -- one Newton-polygon level ------------------------------------------------------


@st.composite
def transform_levels(draw):
    """(f, p, q, A, B): f with small +-p/q coefficients and a level with
    p = 1 or p > 1, over QQ, or over QQ(i) with some coefficients
    FieldElements of rational value, so that Fraction and FieldElement
    terms meet in one sum."""
    rational = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    if draw(st.booleans()):
        scalar = rational
    else:
        scalar = st.one_of(rational, _scalar(GAUSS))
    nonzero = scalar.filter(lambda c: c != 0)
    terms = draw(st.dictionaries(st.tuples(st.integers(0, 4), st.integers(0, 3)),
                                 scalar, min_size=1, max_size=6))
    f = Poly(2, terms)
    assume(not f.is_zero())
    p = draw(st.sampled_from([1, 2, 3]))
    q = draw(st.integers(1, 5).filter(lambda q: gcd(p, q) == 1))
    A = F(1) if p == 1 and draw(st.booleans()) else draw(nonzero)
    return f, p, q, A, draw(nonzero)


@settings(max_examples=120, deadline=None)
@given(transform_levels())
# x^2 + (-1)*x*y + 2*y^2 at (1, 1, 1, 1): the three terms meet at x1^2 in
# graded order, and the rational-valued FieldElement sum 1 - 1 is dropped
# before the last, so the coefficient is the Fraction 2
@example((Poly(2, {(2, 0): GAUSS.one(), (1, 1): F(-1), (0, 2): F(2)}),
          1, 1, F(1), F(1)))
def test_the_transform_matches_substitution(level):
    """The term-dict transform equals substituting Polys into f
    (`Poly.evaluate`), coefficient by coefficient and in the type of each:
    a FieldElement exactly where the substitution leaves one."""
    got = puiseux_transform(*level)
    want = puiseux_transform_by_evaluation(*level)
    assert got == want
    assert ({e: type(c) for e, c in got.terms.items()}
            == {e: type(c) for e, c in want.terms.items()})
