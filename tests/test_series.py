import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d0res.errors import D0resError, UnsupportedFieldExtension
from d0res.fields import FieldElement, NumberField, format_scalar, scalar_is_zero
from d0res.poly import Poly
from d0res.series import Series
from oracles import invert_by_recurrence

F = Fraction
GAUSS = NumberField([1, 0, 1], generator="i")   # i^2 = -1
CUBIC = NumberField([-2, 0, 0, 1])              # a^3 = 2
# a^3 = 1/2 a - 1/3: not integral, so products reduce in b = 6a
RATIONAL_CUBIC = NumberField([F(1, 3), F(-1, 2), 0, 1])


def S(pairs, n=10):
    return Series.from_pairs([(e, F(c)) for e, c in pairs], n)


def test_order_examples():
    assert S([(3, 1), (5, 2)]).order() == 3
    assert S([(0, 1), (1, 1)]).order() == 0
    assert Series.zero(10).order() is None
    assert Series.zero(10).is_zero_at_precision()


def test_product_example():
    one_plus = S([(0, 1), (1, 1)])
    one_minus = S([(0, 1), (1, -1)])
    assert one_plus * one_minus == S([(0, 1), (2, -1)])


def test_invert_geometric_series():
    inv = S([(0, 1), (1, 1)], 4).invert()
    assert inv == S([(0, 1), (1, -1), (2, 1), (3, -1)], 4)
    with pytest.raises(D0resError):
        S([(1, 1)], 4).invert()


def test_compose_example():
    outer = S([(2, 1)], 4)
    inner = S([(1, 1), (2, 1)], 4)
    assert outer.compose(inner) == S([(2, 1), (3, 2)], 4)
    with pytest.raises(D0resError):
        outer.compose(S([(0, 1)], 4))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_compose_matches_evaluation_at_the_inner_series(data):
    """compose is the outer coefficients as a polynomial, evaluated at the
    inner series by the generic evaluator over Series.one(n)."""
    field = data.draw(st.sampled_from((None, GAUSS, CUBIC, RATIONAL_CUBIC)))
    outer = data.draw(field_series(field, data.draw(st.integers(1, 16))))
    inner = data.draw(field_series(field, data.draw(st.integers(1, 16))))
    inner = Series((F(0),) + inner.coeffs[1:])      # order >= 1
    n = min(outer.trunc, inner.trunc)
    f = Poly(1, {(k,): c for k, c in enumerate(outer.coeffs[:n])})
    got = outer.compose(inner)
    assert got.trunc == n
    assert got == f.evaluate([inner.truncate(n)], Series.one(n))


def test_truncation_propagation():
    a = S([(0, 1)], 10)
    b = S([(1, 1)], 6)
    assert (a + b).trunc == 6
    assert (a * b).trunc == 6
    assert a.compose(b).trunc == 6


def test_extend_only_explicit():
    a = S([(1, 1)], 4)
    with pytest.raises(D0resError):
        a.truncate(8)


coeffs = st.lists(
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
    min_size=1, max_size=6,
)


@settings(max_examples=50, deadline=None)
@given(coeffs, coeffs, coeffs)
def test_ring_axioms(a, b, c):
    n = 6
    sa, sb, sc = (Series(x, trunc=n) for x in (a, b, c))
    assert (sa + sb) + sc == sa + (sb + sc)
    assert sa * (sb + sc) == sa * sb + sa * sc
    assert (sa * sb) * sc == sa * (sb * sc)
    assert sa * sb == sb * sa


@settings(max_examples=40, deadline=None)
@given(coeffs)
def test_unit_inverse_roundtrip(a):
    n = 6
    s = Series([F(1)] + list(a), trunc=n)
    assert (s * s.invert()) == Series.one(n)


def schoolbook_product(a, b):
    """Reference product: one scalar multiply-add per pair of nonzero terms."""
    n = min(a.trunc, b.trunc)
    out = [F(0)] * n
    for i, x in enumerate(a.coeffs[:n]):
        if scalar_is_zero(x):
            continue
        for j in range(n - i):
            y = b.coeffs[j]
            if not scalar_is_zero(y):
                out[i + j] = out[i + j] + x * y
    return Series(out)


small = st.fractions(min_value=-9, max_value=9, max_denominator=7)


@st.composite
def field_series(draw, field, trunc):
    """Dense, sparse or all-zero series; over a field, each coefficient is
    a Fraction or a FieldElement (possibly rational, possibly zero)."""
    def scalar():
        if field is None or draw(st.booleans()):
            return draw(small)
        return field.element([draw(small) for _ in range(field.degree)])

    shape = draw(st.sampled_from(("dense", "sparse", "zero")))
    coeffs = [F(0)] * trunc
    if shape == "dense":
        coeffs = [scalar() for _ in range(trunc)]
    elif shape == "sparse":
        for k in draw(st.sets(st.integers(0, trunc - 1), max_size=4)):
            coeffs[k] = scalar()
    return Series(coeffs)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_product_matches_schoolbook(data):
    field = data.draw(st.sampled_from((None, GAUSS, CUBIC, RATIONAL_CUBIC)))
    na = data.draw(st.integers(1, 40))
    nb = data.draw(st.one_of(st.just(na), st.integers(1, 40)))
    a = data.draw(field_series(field, na))
    b = data.draw(field_series(field, nb))
    got, want = a * b, schoolbook_product(a, b)
    assert got.trunc == want.trunc == min(na, nb)
    assert got.coeffs == want.coeffs
    assert [format_scalar(c) for c in got.coeffs] == [format_scalar(c) for c in want.coeffs]
    # a coefficient with no generator part comes back as a Fraction
    assert not any(isinstance(c, FieldElement) and c.is_rational() for c in got.coeffs)


def test_product_of_distinct_fields_raises():
    a = Series([GAUSS.gen(), F(1)])
    b = Series([F(1), CUBIC.gen()])
    with pytest.raises(UnsupportedFieldExtension):
        a * b
    with pytest.raises(UnsupportedFieldExtension):
        b * a


def _unit(rng, field, n, shape):
    """A unit series over `field` (QQ when None): dense, sparse, or with a
    FieldElement constant term."""
    def scalar():
        value = F(rng.randint(-9, 9), rng.randint(1, 7))
        if field is None or rng.random() < 0.3:
            return value
        return field.element([F(rng.randint(-9, 9), rng.randint(1, 7))
                              for _ in range(field.degree)])

    coeffs = [scalar() if shape == "dense" or rng.random() < 0.15 else F(0)
              for _ in range(n)]
    coeffs[0] = F(rng.randint(1, 9), rng.randint(1, 7))
    if field is not None and shape == "field unit":
        coeffs[0] = field.element([F(1, 3)] + [F(k + 2, 5)
                                               for k in range(field.degree - 1)])
    return Series(coeffs)


@pytest.mark.parametrize("field", [None, GAUSS, CUBIC, RATIONAL_CUBIC],
                         ids=["QQ", "QQ(i)", "QQ(cbrt2)", "QQ(a^3-a/2+1/3)"])
@pytest.mark.parametrize("shape", ["dense", "sparse", "field unit"])
def test_invert_matches_coefficient_recurrence(field, shape):
    """Newton doubling gives the recurrence's inverse at every truncation
    1..70, coefficient types included (a rational one is a Fraction)."""
    degree = 1 if field is None else field.degree
    unit = _unit(random.Random(f"{shape} {degree}"), field, 70, shape)
    want = invert_by_recurrence(unit)
    for n in range(1, 71):
        got = unit.truncate(n).invert()
        assert got.trunc == n
        assert got.coeffs == want.coeffs[:n]
        assert [format_scalar(c) for c in got.coeffs] == [
            format_scalar(c) for c in want.coeffs[:n]]
        assert not any(isinstance(c, FieldElement) and c.is_rational()
                       for c in got.coeffs)


def test_invert_inverts_one_scalar(monkeypatch):
    """Only the constant term goes through FieldElement.inverse."""
    calls = []
    inverse = FieldElement.inverse
    monkeypatch.setattr(FieldElement, "inverse",
                        lambda self: calls.append(self) or inverse(self))
    unit = Series([CUBIC.gen() + 1] + [CUBIC.gen() * k for k in range(1, 40)])
    assert unit * unit.invert() == Series.one(40)
    assert len(calls) == 1
