"""Exact scalars: rationals plus at most one simple extension QQ[a]/(m(a)).

A scalar is either a `fractions.Fraction` or a `FieldElement` attached to a
`NumberField`.  Mixed Fraction/FieldElement arithmetic works through the usual
reflected operators; two distinct extensions never mix (UnsupportedFieldExtension).
Everything is immutable and hashable.

An element shows its coefficients on 1, a, ..., a^(d-1) as normalized
Fractions, and that is what printing, equality and hashing read.  Products
and inverses run on integers instead (Cohen 1993, section 4.2): the
coefficients over one common denominator (`kernels.integers`).  A product
is one integer convolution, reduced mod m(a) by `NumberField.reduce`, the
one reduction routine, which also serves `element` and the series
product's slots.  When m is not integral, `reduce` works in b = L*a, L the
lcm of m's denominators, whose minimal polynomial is monic over ZZ.  An
inverse solves x*y = 1 by one fraction-free elimination
(`kernels.ireduce`) of x's integer multiplication matrix augmented by the
unit vector, whatever the degree.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import isqrt, lcm

from .errors import D0resError, ReducibleModulus, UnsupportedFieldExtension
from .kernels import integers, ireduce

_ZERO = Fraction(0)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


class NumberField:
    """QQ[a]/(m(a)) for a monic minimal polynomial m with rational coefficients.

    `minpoly` is the coefficient tuple (c0, ..., c_{d-1}, 1) of m, lowest degree
    first.  m must be squarefree; the arithmetic only needs m to define the
    quotient ring, and inversion raises on zero divisors if m is reducible.
    """

    def __init__(self, minpoly, generator="a"):
        coeffs = tuple(_as_fraction(c) for c in minpoly)
        if len(coeffs) < 3:
            raise D0resError("extension degree must be at least 2")
        if coeffs[-1] != 1:
            # normalize to monic
            lead = coeffs[-1]
            if lead == 0:
                raise D0resError("minimal polynomial has zero leading coefficient")
            coeffs = tuple(c / lead for c in coeffs)
        if len(upoly_gcd(coeffs, upoly_deriv(coeffs))) != 1:
            raise D0resError("minimal polynomial must be squarefree")
        self.minpoly = coeffs
        self.degree = len(coeffs) - 1
        self.generator = generator
        # b = scale * a is a root of b^d - sum_i top[i] b^i, integer top:
        # top[i] = -c_i scale^(d-i) = -nums[i] scale^(d-1-i)
        nums, scale = integers(coeffs)
        d = self.degree
        self._scale = scale
        self._top = tuple(-v * scale ** (d - 1 - i)
                          for i, v in enumerate(nums[:-1]))

    def __eq__(self, other):
        return (
            isinstance(other, NumberField)
            and self.minpoly == other.minpoly
            and self.generator == other.generator
        )

    def __hash__(self):
        return hash((self.minpoly, self.generator))

    def __repr__(self):
        return f"NumberField({self.generator}: {poly_str(self.minpoly, 'a')})"

    def zero(self):
        return FieldElement(self, (Fraction(0),) * self.degree)

    def one(self):
        return self.from_rational(Fraction(1))

    def gen(self):
        coeffs = [Fraction(0)] * self.degree
        coeffs[1] = Fraction(1)
        return FieldElement(self, tuple(coeffs))

    def from_rational(self, value):
        coeffs = [Fraction(0)] * self.degree
        coeffs[0] = _as_fraction(value)
        return FieldElement(self, tuple(coeffs))

    def element(self, coeffs):
        """The element sum_k coeffs[k] a^k, for rationals of any number."""
        return self.reduce(*integers([_as_fraction(c) for c in coeffs]))

    def reduce(self, nums, den=1):
        """The element sum_k nums[k] a^k / den, for integers nums of any
        length and a nonzero integer den: the one reduction mod m(a)
        (`reduce_integers`)."""
        return FieldElement(self, _fractions(*self.reduce_integers(nums, den),
                                             self.degree))

    def reduce_integers(self, nums, den=1):
        """(nums', den') with at most d integers nums' and
        sum_k nums'[k] a^k / den' = sum_k nums[k] a^k / den mod m(a): the
        integer core of `reduce`.  den' depends only on den and len(nums),
        so vectors of one length reduce onto one denominator.

        The sum is rewritten in b = scale * a, as sum_k nums[k]
        scale^(n-1-k) b^k over den scale^(n-1), reduced by b's monic
        integer minimal polynomial, and read back through b^j = scale^j
        a^j; scale is 1 when m is integral."""
        d, n, scale = self.degree, len(nums), self._scale
        if n > d and scale == 1:
            nums = _fold(list(nums), self._top, d)
        elif n > d:
            nums = _fold(_scaled(nums[::-1], scale)[::-1], self._top, d)
            nums, den = _scaled(nums, scale), den * scale ** (n - 1)
        return nums, den


def _scaled(nums, scale):
    """[nums[k] * scale^k for each k]."""
    out, weight = [], 1
    for v in nums:
        out.append(v * weight)
        weight *= scale
    return out


def _fold(nums, top, d):
    """The first d entries of the integer vector nums once each b^k, k >= d,
    is folded back through b^d = sum_i top[i] b^i; consumes nums."""
    for k in range(len(nums) - 1, d - 1, -1):
        c = nums.pop()
        if c:
            for i, t in enumerate(top, k - d):
                if t:
                    nums[i] += c * t
    return nums


def _fractions(nums, den, d):
    """The d Fractions nums[k] / den, zeros past the end of nums."""
    out = tuple(Fraction(x, den) if x else _ZERO for x in nums)
    return out + (_ZERO,) * (d - len(out))


def common_field(field, other):
    """The one field of two, None standing for QQ; two distinct extensions
    raise UnsupportedFieldExtension."""
    if field is None or field is other:
        return other
    if other is not None and other != field:
        raise UnsupportedFieldExtension(
            "cannot mix elements of distinct extensions "
            f"({field.generator} vs {other.generator})"
        )
    return field


class FieldElement:
    """Element of a NumberField, stored as coefficients of 1, a, ..., a^{d-1}."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        self.field = field
        self.coeffs = coeffs

    # -- helpers -------------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, FieldElement):
            common_field(self.field, other.field)
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def is_zero(self):
        return not any(self.coeffs)

    def is_rational(self):
        return not any(self.coeffs[1:])

    def rational_part(self):
        if not self.is_rational():
            raise D0resError(f"{self} is not rational")
        return self.coeffs[0]

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, tuple(a + b for a, b in zip(self.coeffs, o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return FieldElement(self.field, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        xs, dx = integers(self.coeffs)
        ys, dy = integers(o.coeffs)
        prod = [0] * (len(xs) + len(ys) - 1)
        for i, x in enumerate(xs):
            if x:
                for j, y in enumerate(ys, i):
                    prod[j] += x * y
        return self.field.reduce(prod, dx * dy)

    __rmul__ = __mul__

    def inverse(self):
        """The y with x*y = 1, by one fraction-free elimination of the
        integer multiplication matrix of x augmented by e_0; raises on
        zero divisors.

        With x = X(b) / D in the integer layout of `NumberField.reduce`
        (b = scale * a, D = den * scale^(d-1)), column j of the matrix is
        X * b^j folded mod b's minimal polynomial, and the solution z of
        (matrix) z = e_0 gives y = sum_j D z_j b^j.  `ireduce` leaves row
        k as (p_k e_k | w_k) when the matrix is invertible, so z_k is
        w_k / p_k."""
        if self.is_zero():
            raise ZeroDivisionError("division by zero field element")
        field = self.field
        d, scale, top = field.degree, field._scale, field._top
        xs, den = integers(self.coeffs)
        col = _scaled(xs[::-1], scale)[::-1]
        columns = [col]
        for _ in range(d - 1):
            col = _fold([0] + col, top, d)
            columns.append(col)
        rows = [[*row, int(k == 0)] for k, row in enumerate(zip(*columns))]
        if ireduce(rows) != list(range(d)):
            raise ReducibleModulus(
                f"{self} is a zero divisor (reducible modulus "
                f"{poly_str(self.field.minpoly, 'a')}); the minimal polynomial "
                "must be irreducible over QQ"
            )
        q = lcm(*[row[k] for k, row in enumerate(rows)])
        lead = den * scale ** (d - 1)
        z = [row[d] * lead * (q // row[k]) for k, row in enumerate(rows)]
        return field.reduce(_scaled(z, scale), q)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n):
        if n < 0:
            return power(self.inverse(), -n, self.field.one())
        return power(self, n, self.field.one())

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_rational() and self.coeffs[0] == other
        if isinstance(other, FieldElement):
            return self.field == other.field and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        if self.is_rational():
            return hash(self.coeffs[0])
        return hash((self.field, self.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def __repr__(self):
        return format_scalar(self)


def power(base, n, one):
    """base ** n for an int n >= 0, by square-and-multiply in base's ring,
    whose unit is `one`.  No product by `one` and no unused square."""
    result = None
    while n:
        if n & 1:
            result = base if result is None else result * base
        n >>= 1
        if n:
            base = base * base
    return one if result is None else result


# -- generic scalar helpers (Fraction | FieldElement) -------------------------


def scalar_is_zero(x) -> bool:
    if isinstance(x, FieldElement):
        return x.is_zero()
    return x == 0


def demote(x):
    """x, as a Fraction when it is a FieldElement with a rational value."""
    if isinstance(x, FieldElement) and x.is_rational():
        return x.coeffs[0]
    return x


# -- formatting and parsing ----------------------------------------------------


def format_scalar(x) -> str:
    """Lossless string form: '3/2', '-1', '1+2*a', '1/2*a^2-1'.  An integer
    with more digits than Python converts to a string raises D0resError."""
    try:
        if not isinstance(x, FieldElement):
            return str(_as_fraction(x))
        if x.is_rational():
            return str(x.coeffs[0])
        return poly_str(x.coeffs, x.field.generator)
    except ValueError:
        raise D0resError(f"a number in the report has more than "
                         f"{sys.get_int_max_str_digits()} digits, Python's "
                         f"limit for printing an integer") from None


def factor_text(text) -> str:
    """A scalar's text as the factor of a product: parenthesized when it is
    a sum of more than one term ('1+a' -> '(1+a)', '-1/2*a' unchanged)."""
    return f"({text})" if any(ch in "+-" for ch in text[1:]) else text


def poly_str(coeffs, sym) -> str:
    parts = []
    for k, c in enumerate(coeffs):
        if c == 0:
            continue
        if k == 0:
            term = str(c)
        else:
            var = sym if k == 1 else f"{sym}^{k}"
            if c == 1:
                term = var
            elif c == -1:
                term = f"-{var}"
            else:
                term = f"{c}*{var}"
        parts.append(term)
    if not parts:
        return "0"
    out = parts[0]
    for term in parts[1:]:
        out += term if term.startswith("-") else "+" + term
    return out


def parse_scalar(text, field=None):
    """Inverse of format_scalar.  A term without the generator is a rational
    literal (`_rational`), with `field` or without; generator terms require
    `field` (matching generator name)."""
    text = text.strip().replace(" ", "")
    if not text:
        raise ValueError("empty scalar string")
    terms = _split_terms(text, None if field is None else field.generator)
    if field is None:
        # a letter other than a decimal exponent's e is a generator's
        if len(terms) == 1 and not any(
                ch.isalpha() for ch in text.lower().replace("e", "")):
            return _rational(text)
        raise ValueError(f"non-rational scalar {text!r} needs a field declaration")
    coeffs = [Fraction(0)] * field.degree
    for term in terms:
        coeff, power = _parse_term(term, field.generator)
        if power >= field.degree:
            raise ValueError(f"term exponent {power} exceeds extension degree")
        coeffs[power] += coeff
    return demote(field.element(coeffs))


def _rational(term):
    """The rational literal `term` as `Fraction` reads it ('-3/2', '1.5',
    '1e1', '1_0'): the one rule for rational terms, with a field or
    without.  A decimal exponent of more than four digits is refused
    before `Fraction` expands it: 1e10000000 alone takes seconds."""
    _, e, exponent = term.lower().partition("e")
    if e and len(exponent.lstrip("+-0")) > 4:
        raise ValueError(f"decimal exponent of {term!r} has more than four digits")
    return Fraction(term)


def _split_terms(text, gen=None):
    """`text` cut before each sign that starts a term: not an operand's
    ('x*-1'), nor a decimal exponent's ('1e-5'; over QQ(e), 2e-1 is 2e - 1)."""
    terms, start = [], 0
    for i, ch in enumerate(text):
        if (ch in "+-" and i > start and text[i - 1] not in "+-*^/"
                and not (text[i - 1] in "eE" and text[i - 1] != gen
                         and text[max(start, i - 2)] in "0123456789.")):
            terms.append(text[start:i])
            start = i
    terms.append(text[start:])
    return terms


def _parse_term(term, gen):
    if gen not in term:
        return _rational(term), 0
    head, _, tail = term.partition(gen)
    power = 1
    if tail.startswith("^"):
        power = int(tail[1:])
        if power < 0:
            raise ValueError(f"negative exponent in term {term!r}")
    elif tail:
        raise ValueError(f"cannot parse term {term!r}")
    head = head.rstrip("*")
    if head in ("", "+"):
        coeff = Fraction(1)
    elif head == "-":
        coeff = Fraction(-1)
    else:
        coeff = _rational(head)
    return coeff, power


# -- univariate polynomial kit (dense lists, lowest degree first) --------------
#
# Coefficients are Fractions, or FieldElements of one NumberField mixed with
# Fractions.  Zero tests use truthiness and normalisation uses `1 / lead`; both
# work unchanged for either scalar type.


def upoly_trim(p):
    """Drop trailing zero coefficients of `p` in place; returns `p`.

    Also trims lists whose entries are polynomials, since `[]` is falsy."""
    while p and not p[-1]:
        p.pop()
    return p


def upoly_sub(p, q):
    n = max(len(p), len(q))
    out = [_ZERO] * n
    for i, c in enumerate(p):
        out[i] = out[i] + c
    for i, c in enumerate(q):
        out[i] = out[i] - c
    return upoly_trim(out)


def upoly_mul(p, q):
    if not p or not q:
        return []
    out = [_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return upoly_trim(out)


def upoly_divmod(p, q):
    """(quotient, remainder) of p by a nonzero q."""
    p = upoly_trim(list(p))
    q = upoly_trim(list(q))
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [_ZERO] * max(0, len(p) - len(q) + 1)
    while len(p) >= len(q):
        shift = len(p) - len(q)
        factor = p[-1] / q[-1]
        quot[shift] = factor
        for i, c in enumerate(q):
            p[i + shift] = p[i + shift] - factor * c
        upoly_trim(p)
    return quot, p


def upoly_gcd(p, q):
    """Monic gcd of p and q ([] when both are zero)."""
    p, q = upoly_trim(list(p)), upoly_trim(list(q))
    while q:
        _, r = upoly_divmod(p, q)
        p, q = q, r
    if p:
        inv = 1 / p[-1]
        p = [c * inv for c in p]
    return p


def upoly_deriv(p):
    return upoly_trim([c * k for k, c in enumerate(p)][1:])


def rational_sqrt(value):
    """Exact square root of a nonnegative rational, or None."""
    v = _as_fraction(value)
    if v < 0:
        return None
    if v == 0:
        return Fraction(0)
    rn, rd = isqrt(v.numerator), isqrt(v.denominator)
    if rn * rn == v.numerator and rd * rd == v.denominator:
        return Fraction(rn, rd)
    return None


def sqrt_in_field(value, field):
    """Exact square root of a rational inside QQ or a quadratic NumberField.

    Returns a scalar with square equal to `value`, or None.  Only the rational
    and quadratic-extension cases are attempted (enough for one simple extension).
    """
    v = _as_fraction(value)
    r = rational_sqrt(v)
    if r is not None:
        return r if field is None else field.from_rational(r)
    if field is None or field.degree != 2:
        return None
    # want (e0 + e1*a)^2 = v with a^2 = -m1*a - m0
    m0, m1 = field.minpoly[0], field.minpoly[1]
    # e0 = e1*m1/2 makes the a-coefficient vanish; then
    # e1^2*(m1^2/4 - m0) = v
    denom = m1 * m1 / 4 - m0
    if denom == 0:
        return None
    w = v / denom
    e1 = rational_sqrt(w)
    if e1 is None:
        return None
    e0 = e1 * m1 / 2
    cand = field.element([e0, e1])
    if cand * cand == field.from_rational(v):
        return cand
    return None
