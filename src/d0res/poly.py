"""Sparse multivariate polynomials over the exact scalars.

Exponents are tuples of non-negative ints; zero coefficients are never stored.
The monomial order used everywhere (annihilator bases, implicit equations,
deterministic reports) is graded lexicographic with the LAST variable strongest,
so that for plane curves (x, y) the pure y-powers lead within a degree.

Evaluation is written once for every ring: `monomial_values` computes the
monomials at commuting elements of a ring with memoized products, and
`Poly.evaluate` sums them with the coefficients.  The rings in use are the
scalars, action matrices (a polynomial acting on a module) and polynomials
(a change of origin).  A polynomial along a branch, at truncated series,
takes the faster path `Poly.eval_series`: Horner in the last variable on
the integer slot layout of `Series.__mul__` (`series.polynomial_at`), with
each output coefficient normalized once.  `evaluate` over `Series.one(n)`
gives the same series and is the reference the tests compare it with.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import D0resError
from .fields import (
    factor_text,
    format_scalar,
    power,
    scalar_is_zero,
    upoly_divmod,
    upoly_gcd,
    upoly_mul,
    upoly_sub,
    upoly_trim,
)
from .series import Series, polynomial_at

_ZERO = Fraction(0)
_ONE = Fraction(1)


def grlex_key(exponent):
    """Sort key: by total degree, then lexicographically on reversed exponents."""
    return (sum(exponent), tuple(reversed(exponent)))


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = nvars
        clean = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != nvars:
                raise D0resError(f"exponent {exp} has arity != {nvars}")
            if any(e < 0 for e in exp):
                raise D0resError("negative exponent")
            if not scalar_is_zero(coeff):
                clean[exp] = coeff
        self.terms = clean

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, nvars):
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars, value):
        return cls(nvars, {(0,) * nvars: value})

    @classmethod
    def variable(cls, nvars, index):
        exp = [0] * nvars
        exp[index] = 1
        return cls(nvars, {tuple(exp): Fraction(1)})

    @classmethod
    def monomial(cls, exponent, coeff):
        return cls(len(exponent), {tuple(exponent): coeff})

    # -- structure ------------------------------------------------------------

    def is_zero(self):
        return not self.terms

    def min_degree(self):
        """Order of vanishing at the origin (multiplicity of the lowest part)."""
        if not self.terms:
            return None
        return min(sum(e) for e in self.terms)

    def degree_in(self, index):
        if not self.terms:
            return -1
        return max(e[index] for e in self.terms)

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

    def coefficient(self, exponent):
        return self.terms.get(tuple(exponent), _ZERO)

    # -- arithmetic -----------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise D0resError("arity mismatch")
            return other
        if isinstance(other, (int, Fraction)) or hasattr(other, "field"):
            return Poly.constant(self.nvars, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for e, c in o.terms.items():
            out[e] = out.get(e, _ZERO) + c
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, _ZERO) + c1 * c2
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise D0resError("negative polynomial power")
        return power(self, n, Poly.constant(self.nvars, _ONE))

    def scale(self, scalar):
        return Poly(self.nvars, {e: c * scalar for e, c in self.terms.items()})

    def diff(self, index):
        out = {}
        for e, c in self.terms.items():
            if e[index] == 0:
                continue
            ne = list(e)
            ne[index] -= 1
            out[tuple(ne)] = c * e[index]
        return Poly(self.nvars, out)

    def divide_by_monomial(self, index, power):
        """Exact division by x_index^power."""
        out = {}
        for e, c in self.terms.items():
            if e[index] < power:
                raise D0resError("monomial division is not exact")
            ne = list(e)
            ne[index] -= power
            out[tuple(ne)] = c
        return Poly(self.nvars, out)

    def monomial_content(self, index):
        """Largest power of x_index dividing every term (0 for the zero poly)."""
        if not self.terms:
            return 0
        return min(e[index] for e in self.terms)

    # -- evaluation -----------------------------------------------------------

    def evaluate(self, values, one):
        """f(values) for commuting `values` of the ring whose unit is `one`:
        scalars, series, square matrices or polynomials."""
        if len(values) != self.nvars:
            raise D0resError("wrong number of values")
        terms = self.sorted_terms()
        monomials = monomial_values(values, [e for e, _ in terms], one)
        acc = one * _ZERO
        for value, (_, c) in zip(monomials, terms):
            acc = acc + value * c
        return acc

    def eval_series(self, coords) -> Series:
        """f at one Series per variable, at their common truncation, on
        integer vectors (`series.polynomial_at`); equal to `evaluate` at
        the truncated coords with unit `Series.one(n)`.  `coords` may be
        their `series.SlotLayout`, laid out once for many polynomials."""
        if len(coords) != self.nvars:
            raise D0resError("wrong number of values")
        return polynomial_at(self.terms, coords)

    def translate(self, point):
        """f(x + p): recenter so that `point` moves to the origin."""
        shifted = [Poly.variable(self.nvars, i) + p for i, p in enumerate(point)]
        return self.evaluate(shifted, Poly.constant(self.nvars, _ONE))

    # -- display / comparison ----------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(self.sorted_terms())))

    def __repr__(self):
        return poly_text(self)


def monomial_values(values, exponents, one):
    """The value of each monomial in `exponents` at the commuting `values`,
    elements of one ring whose unit is `one`.

    Memoized: x_i^k extends x_i^(k-1) by one product, and a mixed monomial
    is one product, the power of its first variable times the value of the
    rest.  Over all monomials up to some degree that is at most one product
    per monomial of degree >= 2.
    """
    powers = [[one, v] for v in values]
    memo = {}

    def power_of(i, k):
        row = powers[i]
        while len(row) <= k:
            row.append(row[-1] * values[i])
        return row[k]

    def value(exp):
        if exp not in memo:
            first = next((i for i, k in enumerate(exp) if k), None)
            if first is None:
                memo[exp] = one
            else:
                head = power_of(first, exp[first])
                rest = (0,) * (first + 1) + exp[first + 1:]
                memo[exp] = head * value(rest) if any(rest) else head
        return memo[exp]

    return [value(tuple(e)) for e in exponents]


def monomials_upto(nvars, degree):
    """All exponent tuples with total degree <= degree, in graded-lex order."""
    return list(graded_monomials(nvars, degree))


def graded_monomials(nvars, degree):
    """The exponent tuples of total degree <= degree, in graded-lex order:
    by degree, then with the last variable strongest.  Each is made only
    when the iteration reaches it."""

    def of_degree(d, slots):
        if slots == 1:
            yield (d,)
            return
        for last in range(d + 1):
            for rest in of_degree(d - last, slots - 1):
                yield rest + (last,)

    for d in range(degree + 1):
        yield from of_degree(d, nvars)


@lru_cache(maxsize=1024)
def reachable_monomials(orders, degree, n):
    """(live, corners), two tuples, for commuting values of t-orders
    `orders` (a tuple, None for a value that is zero) in K[t]/(t^n).

    Leading coefficients multiply in a field, so the monomial with exponent
    e has order sum e_k * orders[k] exactly, and it is zero mod t^n iff
    that order is >= n or it holds a zero value.  `live` are the monomials
    of degree <= `degree` whose order is below n, in graded-lex order.
    `corners` are the minimal others of degree <= `degree`, each a live
    monomial times one variable with every divisor live.  Every skipped
    monomial is a multiple of a corner, so its value is zero once each
    corner's is (`reachable_values` checks them).  The answer depends on
    small integers alone, and the same few repeat across the ranks, routes
    and branches of a request, so it is kept."""
    if n <= 0:                        # the constant is the one corner
        return (), ((0,) * len(orders),)
    live = []

    def rec(prefix, k, left, budget):
        if k == len(orders):
            live.append(prefix)
            return
        o = orders[k]
        top = 0 if o is None else left if not o else min(left, budget // o)
        for e in range(top + 1):
            rec(prefix + (e,), k + 1, left - e, budget - e * (o or 0))

    rec((), 0, degree, n - 1)
    live.sort(key=grlex_key)
    held = set(live)
    corners = set()
    for e in live:
        if sum(e) == degree:
            continue
        for k in range(len(e)):
            c = e[:k] + (e[k] + 1,) + e[k + 1:]
            if c not in held and all(
                    c[:j] + (c[j] - 1,) + c[j + 1:] in held
                    for j in range(len(c)) if c[j]):
                corners.add(c)
    return tuple(live), tuple(sorted(corners, key=grlex_key))


def reachable_values(series, degree):
    """(monomials, values): the monomials of degree <= `degree` that can be
    nonzero at the commuting `series`, all of one truncation n, and their
    values mod t^n.  The monomials are read off the series' orders
    (`reachable_monomials`), and no other monomial is evaluated but the
    corners, each checked to be zero mod t^n: a skip that the orders got
    wrong is an error, not a missing column."""
    n = series[0].trunc
    live, corners = reachable_monomials(tuple(s.order() for s in series),
                                        degree, n)
    values = monomial_values(series, live + corners, Series.one(n))
    for e, value in zip(corners, values[len(live):]):
        if not value.is_zero_at_precision():
            raise D0resError(f"skipped monomial {poly_text(Poly.monomial(e, _ONE))} "
                             f"is not zero mod t^{n}")
    return live, values[:len(live)]


_VAR_NAMES = ("x", "y", "z", "w")


def var_names(nvars):
    if nvars <= len(_VAR_NAMES):
        return _VAR_NAMES[:nvars]
    return tuple(f"x{i+1}" for i in range(nvars))


def poly_text(f: Poly) -> str:
    names = var_names(f.nvars)
    parts = []
    for e, c in f.sorted_terms():
        factors = []
        for name, k in zip(names, e):
            if k == 1:
                factors.append(name)
            elif k > 1:
                factors.append(f"{name}^{k}")
        if not factors:
            parts.append(format_scalar(c))
        elif c == 1:
            parts.append("*".join(factors))
        elif c == -1:
            parts.append("-" + "*".join(factors))
        else:
            parts.append(factor_text(format_scalar(c)) + "*" + "*".join(factors))
    if not parts:
        return "0"
    out = parts[0]
    for p in parts[1:]:
        out += p if p.startswith("-") else "+" + p
    return out


# -- bivariate gcd / squarefree test (univariate-in-y over K[x]) ---------------


def _as_y_coeffs(f: Poly):
    """f(x, y) as a list of univariate-in-x coefficient lists, index = y-degree."""
    dy = f.degree_in(1)
    out = [[] for _ in range(dy + 1)]
    dx = f.degree_in(0)
    for j in range(dy + 1):
        out[j] = [_ZERO] * (dx + 1)
    for (i, j), c in f.terms.items():
        out[j][i] = c
    return [upoly_trim(c) for c in out]


def _ypoly_pseudo_rem(a, b):
    """Pseudo-remainder of y-polynomials with K[x] coefficients (b nonzero)."""
    db = len(b) - 1
    lc_b = b[-1]
    r = [list(c) for c in a]
    r = upoly_trim(r)
    while r and len(r) - 1 >= db:
        dr = len(r) - 1
        lead = r[-1]
        r = [upoly_mul(c, lc_b) for c in r]
        shift = dr - db
        for j in range(db + 1):
            r[j + shift] = upoly_sub(r[j + shift], upoly_mul(lead, b[j]))
        r = upoly_trim(r)
    return r


def _content_and_primitive(coeffs):
    cont = []
    for c in coeffs:
        cont = upoly_gcd(cont, c) if cont else upoly_trim(list(c))
        if len(cont) == 1:
            break
    if not cont:
        return [], [list(c) for c in coeffs]
    prim = []
    for c in coeffs:
        q, r = upoly_divmod(c, cont)
        if r:
            raise D0resError("content division left a remainder")
        prim.append(q)
    return cont, prim


def gcd_bivariate(f: Poly, g: Poly) -> Poly:
    """gcd of two plane polynomials over the scalar field (primitive PRS).

    The result is normalized so its graded-lex leading coefficient is 1.
    """
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    fy = upoly_trim(_as_y_coeffs(f))
    gy = upoly_trim(_as_y_coeffs(g))
    cf, pf = _content_and_primitive(fy)
    cg, pg = _content_and_primitive(gy)
    ccont = upoly_gcd(cf, cg)
    a, b = pf, pg
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _ypoly_pseudo_rem(a, b)
        if r:
            _, r = _content_and_primitive(r)
        a, b = b, r
    _, a = _content_and_primitive(a)
    out = {}
    for j, cx in enumerate(a):
        for i, c in enumerate(upoly_mul(cx, ccont)):
            if not scalar_is_zero(c):
                out[(i, j)] = c
    result = Poly(2, out)
    if not result.is_zero():
        lead = result.terms[max(result.terms, key=grlex_key)]
        inv = 1 / lead if isinstance(lead, Fraction) else lead.inverse()
        result = result.scale(inv)
    return result


# -- a modular squarefree certificate ------------------------------------------

_CERTIFICATE_PRIME = (1 << 61) - 1
_SPECIALIZATIONS = (1, 2, 3)


def certifies_squarefree(f: Poly) -> bool:
    """True when a modular certificate shows that the plane polynomial f
    has no repeated factor; False when it cannot tell.

    For rational f, q = 2^61 - 1 and a small integer c, the certificate
    for y is that f(c, y) mod q has the full y-degree of f and gcd(p, p')
    = 1 in F_q[y]; for x it is the same with f(x, d).  A variable of which
    f has degree 0 needs no test.  Both holding, f is squarefree (Brown,
    JACM 1971):

    Say f = g^2 h over QQ with g not constant.  Every coefficient of f
    lies in Z_(q), the rationals whose denominator q does not divide (it
    is checked), a discrete valuation ring.  Scale g to content 1 there;
    by Gauss's lemma g^2 has content 1 too, so h = f / g^2 has the content
    of f and lies in Z_(q)[x, y].  Reducing mod q gives f = g^2 h in
    F_q[x, y], and setting x = c gives p = g(c, y)^2 h(c, y).  Over a field
    degrees add, and setting x = c lowers none of them; p keeps the full
    degree deg_y f = 2 deg_y g + deg_y h, so g(c, y) keeps deg_y g.  If
    deg_y g > 0, g(c, y)^2 divides p, so g(c, y) divides gcd(p, p') and the
    y certificate fails.  Otherwise deg_x g > 0 and the x certificate fails
    the same way.

    Each variable tries the values in `_SPECIALIZATIONS` in turn: a bad
    value (a tangent line, a fiber through a singular point, a leading
    coefficient that vanishes there) only fails to certify.  A coefficient
    outside QQ also answers False."""
    q = _CERTIFICATE_PRIME
    residues = []
    for e, c in f.terms.items():
        if not isinstance(c, (int, Fraction)) or c.denominator % q == 0:
            return False
        residues.append((e, c.numerator * pow(c.denominator, -1, q) % q))
    for k in (0, 1):
        degree = f.degree_in(k)
        if degree > 0 and not any(
                _squarefree_specialization(residues, k, degree, v, q)
                for v in _SPECIALIZATIONS):
            return False
    return True


def _squarefree_specialization(residues, k, degree, value, q):
    """True iff f with the variable other than x_k set to `value`, mod q,
    has x_k-degree `degree` and is coprime to its derivative."""
    p = [0] * (degree + 1)
    powers = {}
    for e, r in residues:
        other = e[1 - k]
        if other not in powers:
            powers[other] = pow(value, other, q)
        p[e[k]] = (p[e[k]] + r * powers[other]) % q
    if not p[degree]:
        return False
    dp = [i * a % q for i, a in enumerate(p)][1:]
    return _coprime_mod(p[::-1], _trimmed(dp[::-1]), q)


def _trimmed(p):
    """p, highest degree first, without its leading zeros."""
    start = 0
    while start < len(p) and not p[start]:
        start += 1
    return p[start:]


def _coprime_mod(a, b, q):
    """True iff gcd(a, b) = 1 in F_q[t] for deg a >= deg b and b nonzero,
    both highest degree first and trimmed (Euclid)."""
    while len(b) > 1:
        inv, db = pow(b[0], -1, q), len(b) - 1
        a = list(a)
        for i in range(len(a) - db):
            c = a[i] * inv % q
            if c:
                for j in range(1, db + 1):
                    a[i + j] = (a[i + j] - c * b[j]) % q
        a, b = b, _trimmed(a[-db:])
    return len(b) == 1


def is_reduced_at(f: Poly, point) -> bool:
    """True iff the plane curve f = 0 is reduced at `point`.

    Char-0 criterion: an irreducible g with g^2 | f divides f, f_x and
    f_y, and an irreducible common factor of all three divides f twice.
    So the repeated factors of f are those of G = gcd(f, f_x, f_y), and f
    is reduced at the point iff G does not vanish there.  A square factor
    away from the point is a unit of the local ring and is allowed.

    A squarefree f is reduced at every point, so a rational f that
    `certifies_squarefree` (integer arithmetic mod a prime) needs no G.
    Only when the certificate cannot tell, or a coefficient lies in an
    extension, is G computed exactly (`gcd_bivariate`).
    """
    if f.nvars != 2:
        raise D0resError("reducedness check is for plane polynomials")
    if f.is_zero():
        return False
    if certifies_squarefree(f):
        return True
    g = gcd_bivariate(f, f.diff(0))
    g = gcd_bivariate(g, f.diff(1))
    return not scalar_is_zero(g.evaluate(list(point), _ONE))
