from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from d0res.errors import D0resError, ReducibleModulus, UnsupportedFieldExtension
from d0res.fields import (
    FieldElement,
    NumberField,
    format_scalar,
    parse_scalar,
    rational_sqrt,
    sqrt_in_field,
    upoly_deriv,
    upoly_divmod,
    upoly_gcd,
    upoly_mul,
    upoly_sub,
    upoly_trim,
)
from d0res.puiseux import has_rational_factor, squarefree_decomposition
from oracles import euclid_inverse, fraction_product, reduce_mod

F = Fraction
GAUSS = NumberField([1, 0, 1], generator="i")   # i^2 = -1
OMEGA = NumberField([1, 1, 1], generator="w")   # w^2 + w + 1 = 0


def test_gaussian_basics():
    i = GAUSS.gen()
    assert i * i == -1
    assert (1 + i) * (1 - i) == 2
    z = GAUSS.element([F(1, 2), F(3)])
    assert z + z == GAUSS.element([1, 6])
    assert z - z == 0
    assert (z / z) == 1


def test_omega_is_cube_root():
    w = OMEGA.gen()
    assert w ** 3 == 1
    assert w ** 2 + w + 1 == 0
    assert w != 1


def test_inverse_and_division():
    i = GAUSS.gen()
    z = 3 + 4 * i
    inv = z.inverse()
    assert z * inv == 1
    assert inv == GAUSS.element([F(3, 25), F(-4, 25)])
    with pytest.raises(ZeroDivisionError):
        GAUSS.zero().inverse()


def test_zero_divisor_in_reducible_modulus():
    # u^2 - 1 is squarefree but reducible: (a-1)(a+1) = 0
    ring = NumberField([-1, 0, 1])
    a = ring.gen()
    assert (a - 1) * (a + 1) == 0
    with pytest.raises(ZeroDivisionError):
        (a - 1).inverse()


def test_non_squarefree_modulus_rejected():
    with pytest.raises(D0resError):
        NumberField([1, 2, 1])  # (u+1)^2


def test_mixing_extensions_rejected():
    with pytest.raises(UnsupportedFieldExtension):
        GAUSS.gen() + OMEGA.gen()


def test_rational_interop():
    i = GAUSS.gen()
    assert F(1, 2) + i == GAUSS.element([F(1, 2), 1])
    assert 2 * i == GAUSS.element([0, 2])
    assert (F(3, 2) / (1 + i)) == GAUSS.element([F(3, 4), F(-3, 4)])
    assert i != F(1, 2)


def test_format_parse_roundtrip():
    samples = [
        GAUSS.element([F(1, 2), F(-3, 4)]),
        GAUSS.gen(),
        -GAUSS.gen(),
        GAUSS.element([0, 2]),
        GAUSS.element([5, 0]),
    ]
    for z in samples:
        text = format_scalar(z)
        back = parse_scalar(text, GAUSS)
        if isinstance(back, Fraction):
            assert z.is_rational() and z.coeffs[0] == back
        else:
            assert back == z
    assert parse_scalar("-3/2") == F(-3, 2)
    with pytest.raises(ValueError):
        parse_scalar("1+i")  # needs the field
    for text in ("i^-1", "2*i^-2", "1-i^-1"):
        with pytest.raises(ValueError):
            parse_scalar(text, GAUSS)


def test_rational_literals_parse_with_a_field_and_without():
    """One rule for a rational literal, `Fraction`'s, whether the request
    declares a field or not, a signed decimal exponent included; a
    generator without a field, and an exponent too long to expand, are
    refused on both paths.  Over a field whose generator is e, a sign
    after e starts a term: 2e-1 is 2e - 1."""
    for text, value in (("1e1", 10), ("1.5", F(3, 2)), ("1_0", 10),
                        ("-2.5e1", -25), ("1E3", 1000), ("1e-5", F(1, 10**5)),
                        ("1e+2", 100), ("2.5e-1", F(1, 4)),
                        ("-1.E-2", F(-1, 100))):
        assert parse_scalar(text) == value
        assert parse_scalar(text, GAUSS) == value
        assert type(parse_scalar(text, GAUSS)) is Fraction
    assert parse_scalar("1e-5+2.5e-1*i", GAUSS) == GAUSS.element(
        [F(1, 10**5), F(1, 4)])
    with pytest.raises(ValueError, match="non-rational scalar 'i' needs a "
                       "field declaration"):
        parse_scalar("i")
    for field in (None, GAUSS):
        for text in ("1e100000000", "1e-10000000"):
            with pytest.raises(ValueError, match="more than four digits"):
                parse_scalar(text, field)
    euler = NumberField([1, 0, 1], generator="e")
    assert parse_scalar("2e-1", euler) == euler.element([-1, 2])
    assert parse_scalar("1E-5", euler) == F(1, 10**5)


def test_rational_sqrt():
    assert rational_sqrt(F(9, 4)) == F(3, 2)
    assert rational_sqrt(F(2)) is None
    assert rational_sqrt(F(0)) == 0
    assert rational_sqrt(F(-1)) is None


def test_sqrt_in_gaussian_field():
    r = sqrt_in_field(F(-4), GAUSS)
    assert r is not None and r * r == -4
    assert sqrt_in_field(F(2), GAUSS) is None
    # in QQ(w): sqrt(-3) = 1 + 2w since (1+2w)^2 = 1+4w+4w^2 = -3
    r3 = sqrt_in_field(F(-3), OMEGA)
    assert r3 is not None and r3 * r3 == -3


rationals = st.fractions(
    min_value=-10, max_value=10, max_denominator=12
)


@settings(max_examples=60, deadline=None)
@given(rationals, rationals, rationals, rationals, rationals, rationals)
def test_field_ring_axioms(a0, a1, b0, b1, c0, c1):
    a = GAUSS.element([a0, a1])
    b = GAUSS.element([b0, b1])
    c = GAUSS.element([c0, c1])
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a * b == b * a
    if not b.is_zero():
        assert (a / b) * b == a


gaussians = st.tuples(rationals, rationals).map(lambda c: GAUSS.element(list(c)))


def upolys(coeffs):
    return st.lists(coeffs, max_size=4).map(upoly_trim)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.tuples(*[upolys(rationals)] * 3),
                 st.tuples(*[upolys(gaussians)] * 3)))
def test_univariate_kit_properties(polys):
    a, b, c = polys
    p = upoly_mul(upoly_mul(a, c), c)
    d = upoly_mul(b, c)
    assert (upoly_sub(upoly_deriv(d), upoly_mul(upoly_deriv(b), c))
            == upoly_mul(b, upoly_deriv(c)))
    if d:
        q, r = upoly_divmod(p, d)
        assert upoly_sub(p, upoly_mul(q, d)) == r
        assert len(r) < len(d)
    g = upoly_gcd(p, d)
    if p or d:
        assert g[-1] == 1
        assert upoly_divmod(p, g)[1] == []
        assert upoly_divmod(d, g)[1] == []
        if c:
            assert upoly_divmod(g, c)[1] == []
    if len(p) > 1:
        product = [F(1)]
        factors = squarefree_decomposition(p)
        for factor, mult in factors:
            assert factor[-1] == 1
            for _ in range(mult):
                product = upoly_mul(product, factor)
        inv = 1 / p[-1]
        assert product == [x * inv for x in p]
        if len(c) > 1:
            assert max(mult for _, mult in factors) >= 2
    for x in a + b + c:
        if not isinstance(x, FieldElement):
            continue
        if x.is_zero():     # inner coefficients may be zero
            with pytest.raises(ZeroDivisionError):
                x.inverse()
        else:
            assert x * x.inverse() == 1


# Fields of degree 2-4, among them minimal polynomials with non-integer
# coefficients, where `NumberField.reduce` works in b = scale * a.
NAMED_FIELDS = [
    NumberField([1, 0, 1], generator="i"),
    NumberField([F(3, 5), 0, 1]),                   # u^2 + 3/5
    NumberField([F(1, 3), F(-1, 2), 0, 1]),         # u^3 - 1/2 u + 1/3
    NumberField([-2, 0, 0, 1]),                     # u^3 - 2
    NumberField([F(2, 7), 0, F(-1, 3), 0, 1]),      # u^4 - 1/3 u^2 + 2/7
]


def _number_field(coeffs):
    try:
        return NumberField(list(coeffs) + [1])
    except D0resError:          # not squarefree
        return None


small_rationals = st.fractions(min_value=-6, max_value=6, max_denominator=7)
number_fields = st.one_of(
    st.sampled_from(NAMED_FIELDS),
    st.integers(2, 4).flatmap(
        lambda d: st.lists(small_rationals, min_size=d, max_size=d))
    .map(_number_field).filter(lambda k: k is not None))


@st.composite
def field_elements(draw, count=2):
    field = draw(number_fields)
    elements = [field.element(draw(st.lists(rationals, min_size=field.degree,
                                             max_size=field.degree)))
                for _ in range(count)]
    return field, elements


@settings(max_examples=150, deadline=None)
@given(field_elements(count=3))
def test_field_arithmetic_matches_the_fraction_reference(drawn):
    """Products and inverses on integers equal the Fraction convolution and
    extended Euclid, coefficient by coefficient, over fields of degree 2-4
    with integral and non-integral minimal polynomials; the ring axioms
    hold.  A random minimal polynomial may be reducible: then both routes
    refuse the same zero divisors with the same text."""
    field, (x, y, z) = drawn
    product = x * y
    assert product.coeffs == fraction_product(x, y).coeffs
    assert all(type(c) is Fraction for c in product.coeffs)
    assert len(product.coeffs) == field.degree
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x
    assert 3 * x == x * F(3) == x + x + x
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inverse()
        return
    try:
        expected = euclid_inverse(x)
    except ReducibleModulus as refusal:
        with pytest.raises(ReducibleModulus) as caught:
            x.inverse()
        assert str(caught.value) == str(refusal)
        return
    assert x.inverse().coeffs == expected.coeffs
    assert (y / x) * x == y


@settings(max_examples=150, deadline=None)
@given(number_fields, st.data())
def test_element_reduces_lists_of_any_length(field, data):
    """`element` and `reduce` take coefficient lists longer than the 2d - 1
    a product leaves, as Horner's slots are, and agree with long division
    by the minimal polynomial."""
    d = field.degree
    coeffs = data.draw(st.lists(rationals, min_size=0, max_size=4 * d))
    expected = tuple(reduce_mod(coeffs, field.minpoly))
    assert field.element(coeffs).coeffs == expected
    nums = data.draw(st.lists(st.integers(-10**6, 10**6), max_size=4 * d))
    den = data.draw(st.integers(1, 10**4))
    assert (field.reduce(nums, den).coeffs
            == tuple(reduce_mod([F(v, den) for v in nums], field.minpoly)))
    a = field.gen()
    assert field.element([0] * (3 * d) + [1]).coeffs == (a ** (3 * d)).coeffs


irreducible_fields = st.one_of(
    st.sampled_from(NAMED_FIELDS),
    st.integers(2, 4).flatmap(
        lambda d: st.lists(small_rationals, min_size=d, max_size=d))
    .map(_number_field)
    .filter(lambda k: k is not None and not has_rational_factor(k.minpoly)))
wide_rationals = st.fractions(min_value=-10**6, max_value=10**6,
                              max_denominator=10**6)


@settings(max_examples=150, deadline=None)
@given(irreducible_fields, st.data())
def test_inverse_by_elimination_matches_euclid(field, data):
    """Over an irreducible modulus of degree 2-4, integral or not, the
    inverse by one fraction-free elimination of the augmented
    multiplication matrix (`kernels.ireduce`) is extended Euclid's, for
    sparse and dense elements with small and large coefficients, and it
    inverts back."""
    coeffs = data.draw(st.lists(
        st.one_of(st.just(F(0)), rationals, wide_rationals),
        min_size=field.degree, max_size=field.degree))
    x = field.element(coeffs)
    assume(not x.is_zero())
    inverse = x.inverse()
    assert inverse.coeffs == euclid_inverse(x).coeffs
    assert all(type(c) is Fraction for c in inverse.coeffs)
    assert x * inverse == 1
    assert inverse.inverse() == x


@pytest.mark.parametrize("minpoly, zero_divisor", [
    ([-1, 0, 1], [-1, 1]),                      # u^2 - 1 = (u - 1)(u + 1)
    ([0, -1, 0, 1], [0, 1]),                    # u^3 - u, at u
    ([F(-1, 2), 1, F(-1, 2), 1], [1, 0, 1]),    # (u^2 + 1)(u - 1/2)
    ([F(1, 9), 0, F(-10, 9), 0, 1], [F(-1, 9), 0, 1]),  # (u^2 - 1)(u^2 - 1/9)
])
def test_a_reducible_modulus_is_refused_with_the_same_text(minpoly,
                                                           zero_divisor):
    """A zero divisor of a reducible modulus raises `ReducibleModulus`, a
    ZeroDivisionError, with the text extended Euclid gives."""
    ring = NumberField(minpoly)
    x = ring.element(zero_divisor)
    with pytest.raises(ReducibleModulus) as reference:
        euclid_inverse(x)
    with pytest.raises(ZeroDivisionError) as caught:
        x.inverse()
    assert type(caught.value) is ReducibleModulus
    assert str(caught.value) == str(reference.value)
    assert "is a zero divisor (reducible modulus" in str(caught.value)
