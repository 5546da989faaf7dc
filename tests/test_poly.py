from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from d0res import poly as poly_module
from d0res.errors import D0resError
from d0res.fields import FieldElement, NumberField, format_scalar
from d0res.poly import (
    Poly,
    certifies_squarefree,
    gcd_bivariate,
    graded_monomials,
    grlex_key,
    is_reduced_at,
    monomial_values,
    monomials_upto,
    poly_text,
    reachable_monomials,
    reachable_values,
)
from d0res.series import Series, SlotLayout
from oracles import total_degree

F = Fraction
GAUSS = NumberField([1, 0, 1], generator="i")   # i^2 = -1
CUBIC = NumberField([-2, 0, 0, 1])              # a^3 = 2
# a^3 = 1/2 a - 1/3: not integral, so products reduce in b = 6a
RATIONAL_CUBIC = NumberField([F(1, 3), F(-1, 2), 0, 1])


def P(d):
    return Poly(2, {k: F(v) for k, v in d.items()})


def test_arithmetic_and_text():
    f = P({(0, 2): 1, (3, 0): -1})
    g = P({(1, 0): 1})
    assert poly_text(f) == "y^2-x^3"
    assert poly_text(f * g) == "x*y^2-x^4"
    assert (f - f).is_zero()
    assert total_degree(f) == 3
    assert f.min_degree() == 2


def test_text_parenthesizes_multi_term_field_coefficients():
    w = NumberField([1, 1, 1], generator="w").gen()     # w^2 + w + 1 = 0
    f = Poly(2, {(1, 0): F(1), (0, 1): 1 + w, (0, 0): 1 + w})
    assert poly_text(f) == "1+w+x+(1+w)*y"
    assert poly_text(Poly(2, {(1, 0): -1 - w, (0, 1): -w, (1, 1): 2 * w})) \
        == "(-1-w)*x-w*y+2*w*x*y"
    assert poly_text(Poly(2, {(0, 1): w * w})) == "(-1-w)*y"


def test_diff_and_monomial_division():
    f = P({(2, 1): 3, (0, 3): 1})
    assert f.diff(0) == P({(1, 1): 6})
    assert f.diff(1) == P({(2, 0): 3, (0, 2): 3})
    assert f.divide_by_monomial(1, 1) == P({(2, 0): 3, (0, 2): 1})
    with pytest.raises(D0resError):
        f.divide_by_monomial(0, 1)


def test_eval_series():
    f = P({(0, 2): 1, (3, 0): -1})  # y^2 - x^3
    x = Series.from_pairs([(2, F(1))], 12)
    y = Series.from_pairs([(3, F(1))], 12)
    assert f.eval_series([x, y]).is_zero_at_precision()
    g = P({(0, 1): 1, (2, 0): -1})  # y - x^2
    t = Series.variable(8)
    assert g.eval_series([t, Series.zero(8)]).order() == 2
    # coordinates zero at precision keep only the terms free of them
    h = P({(0, 0): 3, (2, 0): 1, (0, 1): 5, (1, 1): 7})
    assert h.eval_series([Series.zero(6), Series.zero(9)]) == Series.monomial(0, F(3), 6)
    assert (h.eval_series([t, Series.zero(8)])
            == Series.from_pairs([(0, F(3)), (2, F(1))], 8))
    assert (h.eval_series([Series.zero(8), t])
            == Series.from_pairs([(0, F(3)), (1, F(5))], 8))
    assert P({}).eval_series([t, t]) == Series.zero(8)
    with pytest.raises(D0resError):
        h.eval_series([t])


small = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def scalars(draw, field):
    """A Fraction, or over a field possibly a FieldElement (rational or not)."""
    if field is None or draw(st.booleans()):
        return draw(small)
    return field.element([draw(small) for _ in range(field.degree)])


@st.composite
def coordinates(draw, field, nvars):
    """Series of differing truncations: dense, sparse from some order on,
    or zero at precision."""
    coords = []
    for _ in range(nvars):
        n = draw(st.integers(1, 20))
        coeffs = [F(0)] * n
        shape = draw(st.sampled_from(("dense", "dense", "sparse", "zero")))
        start = draw(st.integers(0, 3))
        if shape == "dense":
            coeffs[start:] = [draw(scalars(field)) for _ in range(start, n)]
        elif shape == "sparse":
            for k in draw(st.sets(st.integers(start, n + 2), max_size=4)):
                if k < n:
                    coeffs[k] = draw(scalars(field))
        coords.append(Series(coeffs))
    return coords


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_eval_series_matches_generic_evaluation(data):
    """eval_series on integer vectors equals Poly.evaluate over Series.one(n)
    at the truncated coordinates: over QQ, QQ(i), QQ(cbrt 2) and a cubic
    field whose minimal polynomial is not integral, and with FieldElement
    coefficients on rational series."""
    coeff_field = data.draw(st.sampled_from((None, GAUSS, CUBIC, RATIONAL_CUBIC)))
    series_field = data.draw(st.sampled_from((None, coeff_field)))
    nvars = data.draw(st.sampled_from((2, 3)))
    shape = data.draw(st.sampled_from(("zero", "constant") + ("random",) * 4))
    exponents = st.tuples(*[st.integers(0, 4)] * nvars)
    if shape == "zero":
        terms = {}
    elif shape == "constant":
        terms = {(0,) * nvars: data.draw(scalars(coeff_field))}
    else:
        terms = data.draw(st.dictionaries(exponents, scalars(coeff_field),
                                          max_size=10))
    f = Poly(nvars, terms)
    coords = data.draw(coordinates(series_field, nvars))
    n = min(s.trunc for s in coords)
    got = f.eval_series(coords)
    want = f.evaluate([s.truncate(n) for s in coords], Series.one(n))
    assert got.trunc == n
    assert got == want
    assert ([format_scalar(c) for c in got.coeffs]
            == [format_scalar(c) for c in want.coeffs])
    # a coefficient with no generator part comes back as a Fraction
    assert not any(isinstance(c, FieldElement) and c.is_rational() for c in got.coeffs)
    # one layout of the coordinates serves several polynomials, read-only
    at = SlotLayout(coords)
    for g in (f, f.diff(nvars - 1), f):
        assert g.eval_series(at) == g.eval_series(coords)


def test_eval_series_field_blocks_below_rational_ones():
    """A Horner block over QQ(i) below a rational one widens the slots."""
    i = GAUSS.gen()
    f = Poly(2, {(0, 2): F(1), (1, 1): i, (0, 0): 1 + i})     # y^2 + i*x*y + 1 + i
    x = Series.from_pairs([(1, F(1, 2))], 6)
    y = Series.from_pairs([(1, F(1)), (2, F(-3))], 6)
    assert f.eval_series([x, y]) == f.evaluate([x, y], Series.one(6))
    assert f.eval_series([x, y]).coeffs[:3] == (1 + i, F(0), 1 + i / 2)


@pytest.mark.parametrize("degree", [0, 1, 2, 3, 6])
def test_monomial_values_one_product_per_monomial(degree):
    """Over a ring whose elements record their monomial and count products,
    every monomial of degree >= 2 costs at most one product."""
    products = []

    class Monomial:
        def __init__(self, exponent):
            self.exponent = exponent

        def __mul__(self, other):
            products.append((self.exponent, other.exponent))
            return Monomial(tuple(a + b for a, b in zip(self.exponent, other.exponent)))

    monomials = monomials_upto(3, degree)
    variables = [Monomial(tuple(int(i == j) for j in range(3))) for i in range(3)]
    values = monomial_values(variables, monomials, Monomial((0, 0, 0)))
    assert [v.exponent for v in values] == monomials
    assert len(products) <= sum(1 for e in monomials if sum(e) >= 2)


def test_translate():
    f = P({(0, 1): 1, (2, 0): -1})  # y - x^2
    g = f.translate([F(1), F(1)])   # y+1 - (x+1)^2
    assert g == P({(0, 1): 1, (2, 0): -1, (1, 0): -2})
    assert g.evaluate([F(0), F(0)], F(1)) == 0


def test_squarefree_detection():
    """A square factor makes the curve non-reduced exactly where that
    factor vanishes; elsewhere it is a unit of the local ring."""
    origin = (F(0), F(0))
    assert is_reduced_at(P({(0, 2): 1, (3, 0): -1}), origin)
    assert is_reduced_at(P({(1, 1): 1}), origin)
    square = P({(0, 1): 1, (2, 0): -1}) * P({(0, 1): 1, (2, 0): -1})
    assert not is_reduced_at(square, origin)
    mixed = square * P({(1, 0): 1})
    assert not is_reduced_at(mixed, origin)
    assert not is_reduced_at(mixed, (F(2), F(4)))
    assert is_reduced_at(mixed, (F(1), F(0)))
    assert is_reduced_at(P({(0, 1): 1, (2, 0): -1}) * P({(1, 0): 1}), origin)
    cusp = P({(0, 2): 1, (3, 0): -1})
    unit_x = cusp * P({(0, 0): 1, (1, 0): 1}) * P({(0, 0): 1, (1, 0): 1})
    assert is_reduced_at(unit_x, origin)
    assert not is_reduced_at(unit_x, (F(-1), F(0)))
    unit_y = cusp * P({(0, 0): -1, (0, 1): 1}) * P({(0, 0): -1, (0, 1): 1})
    assert is_reduced_at(unit_y, origin)
    assert not is_reduced_at(unit_y, (F(1), F(1)))
    assert not is_reduced_at(P({}), origin)


def _counted_gcds(monkeypatch):
    """The calls `is_reduced_at` makes to the exact route, `gcd_bivariate`."""
    calls = []
    exact = poly_module.gcd_bivariate

    def counted(f, g):
        calls.append((f, g))
        return exact(f, g)

    monkeypatch.setattr(poly_module, "gcd_bivariate", counted)
    return calls


def test_reducedness_is_exact_only_where_the_certificate_cannot_tell(monkeypatch):
    """A squarefree rational curve is certified mod a prime, with no
    gcd; a square factor, even a unit one at the point, and a coefficient
    in an extension take the exact route."""
    origin = (F(0), F(0))
    calls = _counted_gcds(monkeypatch)
    cusp = P({(0, 2): 1, (3, 0): -1})
    wide = P({(0, 2): 1, (3, 0): -1, (2048, 2048): -1})
    assert certifies_squarefree(cusp) and certifies_squarefree(wide)
    assert is_reduced_at(cusp, origin) and is_reduced_at(wide, origin)
    assert is_reduced_at(P({(1, 0): 1}), origin)      # no y: x alone is tested
    assert calls == []
    square = cusp * cusp
    assert not certifies_squarefree(square)
    assert not is_reduced_at(square, origin) and len(calls) == 2
    unit_x = cusp * P({(0, 0): 1, (1, 0): 1}) ** 2
    assert not certifies_squarefree(unit_x)
    assert is_reduced_at(unit_x, origin) and len(calls) == 4
    gaussian = P({(0, 2): 1}) + Poly(2, {(2, 0): GAUSS.gen()})   # y^2 + i*x^2
    assert not certifies_squarefree(gaussian)
    assert is_reduced_at(gaussian, origin) and len(calls) == 6


_SMALL = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def factor_pairs(draw):
    """(h, g): two plane polynomials with small +-p/q coefficients, each
    variable of degree 0 to 2, so that one is sometimes missing."""
    def factor():
        dx, dy = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        terms = draw(st.dictionaries(
            st.tuples(st.integers(0, dx), st.integers(0, dy)), _SMALL,
            min_size=1, max_size=4))
        return Poly(2, terms)
    return factor(), factor()


@settings(max_examples=150, deadline=None)
@given(factor_pairs(), st.sampled_from([1, 2]))
def test_the_certificate_never_passes_a_repeated_factor(pair, k):
    """Whenever the certificate holds for f = h * g^k, the exact G =
    gcd(f, f_x, f_y) is a unit; and it never holds when g^2 divides f
    with g not constant."""
    h, g = pair
    f = h * g ** k
    assume(not f.is_zero())
    if certifies_squarefree(f):
        exact = gcd_bivariate(gcd_bivariate(f, f.diff(0)), f.diff(1))
        assert total_degree(exact) == 0
        assert not (k == 2 and total_degree(g) > 0)


def test_gcd_bivariate():
    a = P({(0, 1): 1, (2, 0): -1})       # y - x^2
    b = P({(0, 1): 1, (1, 0): 1})        # y + x
    g = gcd_bivariate(a * b, a * P({(0, 1): 2, (1, 0): 1}))
    # common factor is a (up to normalization)
    assert total_degree(g) == total_degree(a)
    assert total_degree(gcd_bivariate(a, b)) == 0


def test_monomials_upto_order():
    mons = monomials_upto(2, 2)
    assert mons == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(monomials_upto(3, 3)) == 20


polys = st.builds(
    lambda d: Poly(2, d),
    st.dictionaries(
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        st.fractions(min_value=-4, max_value=4, max_denominator=5),
        max_size=5,
    ),
)


@settings(max_examples=50, deadline=None)
@given(polys, polys, polys)
def test_poly_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 3).flatmap(lambda k: st.lists(
    st.one_of(st.none(), st.integers(0, 4)), min_size=k, max_size=k)),
       st.integers(0, 7), st.integers(0, 12))
def test_reachable_monomials_match_a_scan_of_every_monomial(orders, degree, n):
    """The live monomials are those of degree <= `degree` and order below
    n, in graded order, and the corners are the minimal others, as a scan
    of every monomial finds them; a value of order None kills every
    monomial that holds it.  `graded_monomials` walks the graded order."""
    def order(e):
        if any(k and o is None for k, o in zip(e, orders)):
            return None
        return sum(k * o for k, o in zip(e, orders) if k)

    every = sorted((e for e in product(range(degree + 1), repeat=len(orders))
                    if sum(e) <= degree), key=grlex_key)
    assert list(graded_monomials(len(orders), degree)) == every
    live = [e for e in every if order(e) is not None and order(e) < n]
    dead = [e for e in every if e not in live]

    def divides(a, b):
        return a != b and all(x <= y for x, y in zip(a, b))

    corners = [e for e in dead if not any(divides(d, e) for d in dead)]
    assert reachable_monomials(tuple(orders), degree, n) == (
        tuple(live), tuple(corners))


def test_a_skipped_monomial_that_is_not_zero_is_an_error(monkeypatch):
    """`reachable_values` evaluates the corners it skips: with the skip
    threshold one too low (order >= n - 1) at x = t, y = t^2, the corners
    y and x^2 of order 2 are skipped mod t^3, and the check refuses the
    first."""
    x, y = Series([F(0), F(1), F(0)]), Series([F(0), F(0), F(1)])
    monomials, values = reachable_values([x, y], 4)
    assert monomials == ((0, 0), (1, 0), (0, 1), (2, 0))
    assert [v.coeffs for v in values] == [
        (F(1), F(0), F(0)), (F(0), F(1), F(0)), (F(0), F(0), F(1)),
        (F(0), F(0), F(1))]
    reach = poly_module.reachable_monomials
    monkeypatch.setattr(poly_module, "reachable_monomials",
                        lambda orders, degree, n: reach(orders, degree, n - 1))
    with pytest.raises(D0resError,
                       match=r"skipped monomial y is not zero mod t\^3"):
        reachable_values([x, y], 4)
