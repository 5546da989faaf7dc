"""Truncated power series in one variable t over the exact scalars.

A Series holds exactly `trunc` coefficients c_0..c_{trunc-1}; it represents an
element of K[[t]] known modulo t^trunc.  Every arithmetic result carries the
minimum truncation of its inputs.  A series whose stored coefficients all
vanish is only "zero at precision": order() returns None for it and callers
must decide whether that means zero or insufficient truncation.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import D0resError
from .fields import FieldElement, common_field, power, scalar_is_zero
from .kernels import iconv

_ZERO = Fraction(0)


def _nonzero_terms(coeffs, n):
    """(field, [(k, parts)]) for the nonzero coeffs[k], k < n: `parts` are
    the rational coordinates over 1, a, a^2, ...; a Fraction is its own
    rational part.  `field` is None when no FieldElement occurs."""
    field = None
    terms = []
    for k, c in enumerate(coeffs[:n]):
        if not c:
            continue
        if isinstance(c, FieldElement):
            field = common_field(field, c.field)
            terms.append((k, c.coeffs))
        else:
            terms.append((k, (c,)))
    return field, terms


def _integer_vectors(terms, n):
    """(den, vectors) with vectors[p][k] / den the coefficient of a^p t^k;
    one vector per power of a up to the highest that the terms carry."""
    den = 1
    for _, parts in terms:
        for x in parts:
            if x.denominator != 1:
                den = lcm(den, x.denominator)
    vectors = [[0] * n for _ in range(max(len(parts) for _, parts in terms))]
    for k, parts in terms:
        for p, x in enumerate(parts):
            if x:
                vectors[p][k] = x.numerator * (den // x.denominator)
    return den, vectors


class Series:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs, trunc=None):
        coeffs = list(coeffs)
        if trunc is not None:
            if trunc <= 0:
                raise D0resError("truncation order must be positive")
            if len(coeffs) < trunc:
                coeffs += [_ZERO] * (trunc - len(coeffs))
            else:
                coeffs = coeffs[:trunc]
        elif not coeffs:
            raise D0resError("series needs coefficients or an explicit truncation")
        self.coeffs = tuple(coeffs)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, trunc):
        return cls([], trunc=trunc)

    @classmethod
    def one(cls, trunc):
        return cls([Fraction(1)], trunc=trunc)

    @classmethod
    def variable(cls, trunc):
        return cls.monomial(1, Fraction(1), trunc)

    @classmethod
    def monomial(cls, exponent, coeff, trunc):
        coeffs = [_ZERO] * trunc
        if exponent < trunc:
            coeffs[exponent] = coeff
        return cls(coeffs)

    @classmethod
    def from_pairs(cls, pairs, trunc):
        coeffs = [_ZERO] * trunc
        for exponent, coeff in pairs:
            if exponent < 0:
                raise D0resError("negative exponent in series data")
            if exponent < trunc:
                coeffs[exponent] = coeffs[exponent] + coeff
        return cls(coeffs)

    # -- structure ------------------------------------------------------------

    @property
    def trunc(self):
        return len(self.coeffs)

    def order(self):
        """Least index with nonzero coefficient; None when zero at precision."""
        for i, c in enumerate(self.coeffs):
            if not scalar_is_zero(c):
                return i
        return None

    def is_zero_at_precision(self):
        return self.order() is None

    def coefficient(self, k):
        if k >= len(self.coeffs):
            raise D0resError(f"coefficient {k} beyond truncation {self.trunc}")
        return self.coeffs[k]

    def truncate(self, n):
        if n > self.trunc:
            raise D0resError("cannot extend a truncated series")
        return Series(self.coeffs[:n])

    # -- arithmetic -----------------------------------------------------------

    def _common(self, other):
        if not isinstance(other, Series):
            return None
        return min(self.trunc, other.trunc)

    def __add__(self, other):
        n = self._common(other)
        if n is None:
            return NotImplemented
        return Series([self.coeffs[i] + other.coeffs[i] for i in range(n)])

    def __sub__(self, other):
        n = self._common(other)
        if n is None:
            return NotImplemented
        return Series([self.coeffs[i] - other.coeffs[i] for i in range(n)])

    def __neg__(self):
        return Series([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, Series):
            # Integer convolutions over one common denominator per operand;
            # each coefficient is normalized, and reduced mod m(a), once.
            n = min(self.trunc, other.trunc)
            fa, a = _nonzero_terms(self.coeffs, n)
            fb, b = _nonzero_terms(other.coeffs, n) if a else (None, a)
            if not b or a[0][0] + b[0][0] >= n:     # zero at this precision
                return Series([_ZERO] * n)
            field = common_field(fa, fb)
            da, va = _integer_vectors(a, n)
            db, vb = _integer_vectors(b, n)
            scale = da * db
            # slots[s][k]: coefficient of a^s t^k, before reduction mod m(a);
            # over QQ there is one slot and nothing to reduce
            slots = [[0] * n for _ in range(len(va) + len(vb) - 1)]
            for p, x in enumerate(va):
                for q, y in enumerate(vb):
                    iconv(x, y, n, slots[p + q])
            out = [Fraction(x, scale) if x else _ZERO for x in slots[0]]
            for k in {k for s in slots[1:] for k, v in enumerate(s) if v}:
                c = field.element([Fraction(s[k], scale) for s in slots])
                out[k] = c.coeffs[0] if c.is_rational() else c
            return Series(out)
        # scalar multiple; zero coefficients stay as they are
        return Series([c if scalar_is_zero(c) else c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise D0resError("negative series power")
        return power(self, n, Series.one(self.trunc))

    def compose(self, inner: "Series") -> "Series":
        """self(inner), requiring ord(inner) >= 1."""
        o = inner.order()
        if o is not None and o < 1:
            raise D0resError("composition needs an inner series of order >= 1")
        n = min(self.trunc, inner.trunc)
        result = Series.zero(n)
        # Horner from the top coefficient down
        for k in range(n - 1, -1, -1):
            result = result * inner.truncate(n)
            c = self.coeffs[k]
            if not scalar_is_zero(c):
                result = result + Series.monomial(0, c, n)
        return result

    def invert(self) -> "Series":
        """Multiplicative inverse of a unit (ord == 0) series."""
        o = self.order()
        if o != 0:
            raise D0resError("only unit series (order 0) are invertible")
        n = self.trunc
        a0 = self.coeffs[0]
        inv0 = 1 / a0 if isinstance(a0, Fraction) else a0.inverse()
        out = [inv0] + [_ZERO] * (n - 1)
        for k in range(1, n):
            acc = _ZERO
            for j in range(1, k + 1):
                aj = self.coeffs[j]
                if not scalar_is_zero(aj):
                    acc = acc + aj * out[k - j]
            out[k] = -inv0 * acc
        return Series(out)

    # -- comparisons / display --------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        terms = []
        for i, c in enumerate(self.coeffs):
            if scalar_is_zero(c):
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "t" if i == 1 else f"t^{i}"
                terms.append(var if c == 1 else f"{c}*{var}")
            if len(terms) >= 8:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"<{body} + O(t^{self.trunc})>"
