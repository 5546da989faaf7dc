from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d0res.errors import D0resError, UnsupportedFieldExtension
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
from d0res.puiseux import squarefree_decomposition

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
