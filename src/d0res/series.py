"""Truncated power series in one variable t over the exact scalars.

A Series holds exactly `trunc` coefficients c_0..c_{trunc-1}; it represents an
element of K[[t]] known modulo t^trunc.  Every arithmetic result carries the
minimum truncation of its inputs.  A series whose stored coefficients all
vanish is only "zero at precision": order() returns None for it and callers
must decide whether that means zero or insufficient truncation.

Products and polynomial evaluation run on one integer layout, the slots: a
series mod t^n over QQ(a) becomes one common denominator and one integer
vector per power of the generator a (`_slots`).  A product is one integer
convolution (`kernels.iconv`) per pair of slots, and `_from_slots` turns
slots back into a Series, reducing each coefficient's integers mod m(a)
(`NumberField.reduce`) and normalizing it, once.  `polynomial_at`
evaluates a polynomial at series by Horner on slots; it serves
`Poly.eval_series` and `Series.compose`.  Series at which many
polynomials are evaluated are slotted once, as a `SlotLayout`.  Newton's
iteration takes one step on these slots, `_newton_update`: `invert`
doubles the precision of an inverse by it, and the lift of a regular tail
(`puiseux.solve_regular_tail`) its root and the inverse of its
derivative, with no `Series` between the first scalar inverse and the
result.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import D0resError
from .fields import FieldElement, common_field, demote, power, scalar_is_zero
from .kernels import iconv, nonzero_pairs

_ZERO = Fraction(0)


def _slots(coeffs, n):
    """The slot layout of coeffs[:n]: (field, den, slots, order) with
    slots[p][k] / den the rational coordinate of a^p t^k, one integer vector
    per power of the generator a up to the highest the coefficients carry
    (a Fraction is its own rational part), and `order` the least k with a
    nonzero coefficient.  `field` is None when no FieldElement occurs.
    None when coeffs[:n] all vanish."""
    field = None
    den = 1
    terms = []
    for k, c in enumerate(coeffs[:n]):
        if not c:
            continue
        if isinstance(c, FieldElement):
            field = common_field(field, c.field)
            parts = c.coeffs
        else:
            parts = (c,)
        for x in parts:
            if x.denominator != 1:
                den = lcm(den, x.denominator)
        terms.append((k, parts))
    if not terms:
        return None
    slots = [[0] * n for _ in range(max(len(parts) for _, parts in terms))]
    for k, parts in terms:
        for p, x in enumerate(parts):
            if x:
                slots[p][k] = x.numerator * (den // x.denominator)
    return field, den, slots, terms[0][0]


def _product(xs, ys, n):
    """Slots of the product of two slot lists mod t^n, before reduction
    mod m(a): one `iconv` per pair of slots, added into slot p + q.  The
    slots of ys come as their `nonzero_pairs`."""
    out = [[0] * n for _ in range(len(xs) + len(ys) - 1)]
    for p, x in enumerate(xs):
        for q, y in enumerate(ys):
            iconv(x, y, n, out[p + q])
    return out


def _from_slots(field, den, slots):
    """The Series whose t^k coefficient is sum_p a^p slots[p][k] / den.
    Each coefficient's integers are reduced mod m(a) by `field.reduce`, and
    normalized, once; one with no generator part is a Fraction."""
    out = [Fraction(x, den) if x else _ZERO for x in slots[0]]
    for k in {k for s in slots[1:] for k, v in enumerate(s) if v}:
        out[k] = demote(field.reduce([s[k] for s in slots], den))
    return Series(out)


def _add_scaled(acc, slots, scale, n):
    """acc += scale * slots mod t^n, slot by slot, in place; acc gains
    zero slots up to the number `slots` has."""
    acc += [[0] * n for _ in range(len(slots) - len(acc))]
    for s, b in zip(acc, slots):
        for k, v in enumerate(b[:n]):
            if v:
                s[k] += v * scale


def _horner(terms, operands, n):
    """(den, slots) of the polynomial with `terms` [(exponent, coefficient)]
    at `operands` (`SlotLayout.operands`, None for a zero series) mod t^n;
    None when no term contributes.  Horner in the last variable x: each
    step multiplies the accumulator by x and adds the next coefficient
    block, itself evaluated in the other variables.  A block of x^j is
    multiplied by x^j later, so when x has order o it is only needed mod
    t^(n - j*o).  The slots of x come scanned for their nonzero entries,
    once for every step and every polynomial at the same layout."""
    if not terms:
        return None
    if not operands:                    # the one term left is a constant
        return _slots((terms[0][1],), n)[1:3]
    blocks = {}
    for e, c in terms:
        blocks.setdefault(e[-1], []).append((e[:-1], c))
    rest = operands[:-1]
    if operands[-1] is None:
        return _horner(blocks.get(0, ()), rest, n)
    _, dx, xs, o = operands[-1]
    top = max(blocks) if not o else min(max(blocks), (n - 1) // o)
    den, acc = 1, None
    for j in range(top, -1, -1):
        m = n - j * o
        if acc is not None:
            acc, den = _product(acc, xs, m), den * dx
        block = _horner(blocks.get(j, ()), rest, m)
        if block is None:
            continue
        if acc is None:
            den, acc = block
            continue
        # scaled add over the least common denominator
        bden, bslots = block
        common = lcm(den, bden)
        if common != den:
            scale = common // den
            acc = [[v * scale for v in s] for s in acc]
        _add_scaled(acc, bslots, common // bden, m)
        den = common
    return None if acc is None else (den, acc)


def _newton_update(field, z, lo, value, g, hi):
    """z - value * g mod t^hi, for z, value and g as (den, slots), when
    value vanishes mod t^lo: the one Newton step, at which the lift of a
    regular tail updates its root y (value f1(x, y)) and its g = 1/f_y
    (value f_y(x, y) g - 1), and `Series.invert` its inverse b of s
    (value s b - 1, with g = b).  z mod t^lo stays, and only value's
    coefficients from t^lo on are read, so a value of the form w - 1 may
    be passed as w.  That part of value and the result are
    `_normalized`."""
    vd, vs = _normalized(field, value[0], [s[lo:] for s in value[1]])
    (zd, zs), (gd, gs) = z, g
    corr = _product(vs, [nonzero_pairs(s) for s in gs], hi - lo)
    common = lcm(zd, vd * gd)
    a, b = common // zd, common // (vd * gd)
    low = [[v * a for v in s[:lo]] for s in zs]
    high = [[-v * b for v in s] for s in corr]
    low += [[0] * lo for _ in range(len(high) - len(low))]
    high += [[0] * (hi - lo) for _ in range(len(low) - len(high))]
    return _normalized(field, common, [p + q for p, q in zip(low, high)])


def _normalized(field, den, slots):
    """The vector (den, slots) in lowest terms: over QQ(a) its generator
    slots are reduced mod m(a) coefficient by coefficient, onto one
    denominator (`NumberField.reduce_integers`); zero top slots are
    dropped; den and the entries are divided by their gcd."""
    if field is not None and len(slots) > field.degree:
        cols = [field.reduce_integers(col, den) for col in zip(*slots)]
        den = cols[0][1]
        slots = [list(s) for s in zip(*(nums for nums, _ in cols))]
    while len(slots) > 1 and not any(slots[-1]):
        slots.pop()
    g = gcd(den, *(v for s in slots for v in s if v))
    if g > 1:
        den, slots = den // g, [[v // g for v in s] for s in slots]
    return den, slots


class SlotLayout:
    """Series laid out once for every polynomial evaluated at them: their
    least truncation n, the one field they share (None for QQ) and, per
    series, its `_slots` layout mod t^n as (field, den, pairs, order),
    each slot given by its `nonzero_pairs`, or None for a series that
    vanishes mod t^n."""

    __slots__ = ("n", "field", "operands")

    def __init__(self, coords):
        self.n = n = min(s.trunc for s in coords)
        self.field = None
        self.operands = []
        for s in coords:
            x = _slots(s.coeffs, n)
            if x is not None:
                self.field = common_field(self.field, x[0])
                x = (x[0], x[1], [nonzero_pairs(v) for v in x[2]], x[3])
            self.operands.append(x)

    def __len__(self):
        return len(self.operands)


def polynomial_at(terms, coords) -> "Series":
    """f(coords) mod t^n for the polynomial f with `terms` {exponent:
    coefficient} at one Series per variable, n their least truncation, or
    at their `SlotLayout`, which every polynomial at the same series can
    share.

    The whole evaluation runs on the slot layout of `Series.__mul__`
    (`_horner`); only the result is normalized, once per coefficient.
    """
    at = coords if isinstance(coords, SlotLayout) else SlotLayout(coords)
    field = at.field
    for c in terms.values():
        if isinstance(c, FieldElement):
            field = common_field(field, c.field)
    value = _horner(list(terms.items()), at.operands, at.n)
    return Series.zero(at.n) if value is None else _from_slots(field, *value)


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
            # integer convolutions over one common denominator per operand
            n = min(self.trunc, other.trunc)
            a = _slots(self.coeffs, n)
            b = _slots(other.coeffs, n) if a else None
            if b is None or a[3] + b[3] >= n:      # zero at this precision
                return Series([_ZERO] * n)
            field = common_field(a[0], b[0])
            return _from_slots(field, a[1] * b[1], _product(
                a[2], [nonzero_pairs(s) for s in b[2]], n))
        # scalar multiple; zero coefficients stay as they are
        return Series([c if scalar_is_zero(c) else c * other for c in self.coeffs])

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise D0resError("negative series power")
        return power(self, n, Series.one(self.trunc))

    def compose(self, inner: "Series") -> "Series":
        """self(inner), requiring ord(inner) >= 1: the polynomial of the
        coefficients below the common truncation, at inner."""
        o = inner.order()
        if o is not None and o < 1:
            raise D0resError("composition needs an inner series of order >= 1")
        n = min(self.trunc, inner.trunc)
        terms = {(k,): c for k, c in enumerate(self.coeffs[:n]) if c}
        return polynomial_at(terms, [inner.truncate(n)])

    def invert(self) -> "Series":
        """Multiplicative inverse of a unit (ord == 0) series, by Newton
        doubling (Kung 1974): if b = 1/self mod t^h and k <= 2h, then
        b - b * (self * b - 1) = 1/self mod t^k, which leaves b mod t^h as
        it is.  Only the constant term is inverted as a scalar; each step
        is one product self * b mod t^k and one `_newton_update`, on the
        slot layout, and the inverse is built as a Series once."""
        if self.order() != 0:
            raise D0resError("only unit series (order 0) are invertible")
        n = self.trunc
        field, den, slots, _ = _slots(self.coeffs, n)
        a0 = self.coeffs[0]
        b = _slots((1 / a0 if isinstance(a0, Fraction) else a0.inverse(),), 1)[1:3]
        h = 1
        while h < n:
            k = min(2 * h, n)
            bd, bs = b
            e = (den * bd, _product(slots, [nonzero_pairs(s) for s in bs], k))
            b, h = _newton_update(field, b, h, e, b, k), k
        return _from_slots(field, *b)

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
