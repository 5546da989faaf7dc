"""Branch decomposition of a plane curve germ at the origin.

The classical polygon recursion in its rational form: for each polygon edge of
slope q/p (coprime), the reduced characteristic polynomial is read off in the
collapsed variable u = c^p, so each of its roots corresponds to exactly one
branch and conjugate expansions are never enumerated separately.  A root u*
with Bezout exponent m (m*q = -1 mod p) rescales the substitution to

    x = u*^m * x1^p,     y = x1^q * (u*^((m*q+1)/p) + y1)

which keeps all coefficients inside QQ(u*).  Multiple roots recurse.  A
simple root leaves a tail f1 with f1(0,0) = 0 and f1_y(0,0) != 0, whose
unique root y(x) mod x^trunc is lifted by Newton steps that double the
precision (mod x^2, x^4, ..., ending exactly at x^trunc), on integer
vectors over one denominator, and then checked once by the general series
evaluator: f1(x, y(x)) = 0 mod x^trunc (see solve_regular_tail).

Only the fields QQ and one simple extension are supported; roots requiring
more raise UnsupportedFieldExtension (callers may pass explicit branch
parametrizations instead).
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, comb, gcd

from .errors import D0resError, RaiseTruncation, UnsupportedFieldExtension
from .fields import (
    FieldElement,
    NumberField,
    demote,
    poly_str,
    rational_sqrt,
    scalar_is_zero,
    sqrt_in_field,
    upoly_deriv,
    upoly_divmod,
    upoly_gcd,
    upoly_sub,
    upoly_trim,
)
from .kernels import integers, nonzero_pairs
from .poly import Poly
from .series import (
    Series,
    _add_scaled,
    _from_slots,
    _newton_update,
    _product,
    _slots,
)

_ZERO = Fraction(0)


class FieldContext:
    """Tracks the single extension a decomposition is allowed to introduce."""

    def __init__(self, field=None):
        self.field = field

    def adjoin(self, minpoly_coeffs):
        """Return the extension defined by the given monic minimal polynomial,
        reusing the active one when the modulus matches."""
        candidate = NumberField(minpoly_coeffs)
        if self.field is None:
            self.field = candidate
            return candidate
        if self.field.minpoly == candidate.minpoly:
            return self.field
        raise UnsupportedFieldExtension(
            "a second extension would be required (active modulus "
            f"{poly_str(self.field.minpoly, self.field.generator)}, "
            f"new {poly_str(candidate.minpoly, candidate.generator)})"
        )


# -- univariate scalar polynomials (lowest degree first) -----------------------


def _ueval(p, x):
    acc = _ZERO
    for c in reversed(p):
        acc = acc * x + c
    return acc


def squarefree_decomposition(p):
    """Yun's algorithm over a field of characteristic zero.

    Returns [(factor, multiplicity)] with factor monic and squarefree.  A
    linear p is its own decomposition, with no gcd or division.
    """
    p = upoly_trim(list(p))
    if len(p) <= 1:
        return []
    inv = 1 / p[-1]
    p = [c * inv for c in p]
    if len(p) == 2:
        return [(p, 1)]
    dp = upoly_deriv(p)
    a = upoly_gcd(p, dp)
    b, _ = upoly_divmod(p, a)
    c, _ = upoly_divmod(dp, a)
    d = upoly_sub(c, upoly_deriv(b))
    out = []
    i = 1
    while len(b) > 1:
        a = upoly_gcd(b, d)
        if len(a) > 1:
            out.append((a, i))
        b, _ = upoly_divmod(b, a)
        c, _ = upoly_divmod(d, a)
        d = upoly_sub(c, upoly_deriv(b))
        i += 1
    return out


# -- root finding within QQ plus one simple extension ---------------------------


def _rational_roots(p):
    """The distinct rational roots of a nonzero rational polynomial, sorted.

    A quadratic's roots are (-c1 -+ s) / (2 c2) when its discriminant has
    a rational square root s, and it has none otherwise.  Other degrees
    are bisected (`_sturm_roots`)."""
    p = upoly_trim(list(p))
    if len(p) != 3:
        return _sturm_roots(p)
    c0, c1, c2 = p
    s = rational_sqrt(c1 * c1 - 4 * c2 * c0)
    if s is None:
        return []
    return sorted({(-c1 - s) / (2 * c2), (-c1 + s) / (2 * c2)})


def _sturm_roots(p):
    """The distinct rational roots of a nonzero rational polynomial, sorted,
    by Sturm bisection.

    With integer coefficients of content 1, a root u/v in lowest terms has
    v | an, the leading coefficient, so every rational root lies on the
    grid k/an.  Sturm's theorem counts the distinct real roots between two
    half-grid points (2k+1)/(2an), which are never roots; bisecting down to
    one grid point at a time and testing it finds them all.  The steps grow
    with the bit length of the coefficients, not with their size, as a
    search over the divisors of a0 and an would.
    """
    p = upoly_trim(list(p))
    if len(p) < 2:
        return []
    ints, _ = integers(p)
    an = abs(ints[-1]) // gcd(*ints)
    # Cauchy: every root r has |r| < 1 + max |c_i / c_n|
    reach = an * (1 + max(abs(c / p[-1]) for c in p[:-1]))
    chain = [p, upoly_deriv(p)]
    while True:
        _, rem = upoly_divmod(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])

    def variations(k):
        x = Fraction(2 * k + 1, 2 * an)
        signs = [v > 0 for v in (_ueval(q, x) for q in chain) if v != 0]
        return sum(a != b for a, b in zip(signs, signs[1:]))

    roots = []
    top = ceil(reach)
    stack = [(-top - 1, top)]
    while stack:
        lo, hi = stack.pop()
        if variations(lo) == variations(hi):
            continue
        if hi - lo == 1:
            if _ueval(p, Fraction(hi, an)) == 0:
                roots.append(Fraction(hi, an))
            continue
        mid = (lo + hi) // 2
        stack += [(lo, mid), (mid, hi)]
    return sorted(roots)


def has_rational_factor(p):
    """True when the monic rational polynomial p has a rational root or, at
    degree 4, splits into two rational quadratics.  For degrees 2 to 4 that
    is exactly reducibility over QQ."""
    return bool(_rational_roots(p)) or (
        len(p) == 5 and _depressed_quartic_split(p) is not None)


def _deflate(p, root):
    """Divide by (u - root); remainder must vanish."""
    lin = [-root, Fraction(1) if isinstance(root, Fraction) else root.field.one()]
    q, r = upoly_divmod(p, lin)
    if r:
        raise D0resError("deflation by a non-root")
    return q


def _all_rational(p):
    return all(isinstance(c, Fraction) for c in p)


def _quadratic_roots(p, ctx: FieldContext):
    """Both roots of a squarefree quadratic, extending the field if permitted."""
    c0, c1, c2 = p[0], p[1], p[2]
    disc = c1 * c1 - 4 * c2 * c0
    if isinstance(disc, FieldElement) and disc.is_rational():
        disc = disc.rational_part()
    if isinstance(disc, Fraction):
        r = rational_sqrt(disc) if disc >= 0 else None
        if r is None and ctx.field is not None:
            r = sqrt_in_field(disc, ctx.field)
        if r is not None:
            half = Fraction(1, 2)
            inv_c2 = 1 / c2 if isinstance(c2, Fraction) else c2.inverse()
            return [(-c1 - r) * half * inv_c2, (-c1 + r) * half * inv_c2]
        if _all_rational(p):
            # irreducible over QQ: adjoin a root
            inv = 1 / c2
            field = ctx.adjoin([c0 * inv, c1 * inv, Fraction(1)])
            alpha = field.gen()
            other = field.from_rational(-c1 * inv) - alpha
            return [alpha, other]
    raise UnsupportedFieldExtension(
        "quadratic root outside the supported single-extension fields"
    )


def _depressed_quartic_split(p):
    """Try to split a monic rational quartic into two rational-coefficient
    quadratics (Descartes resolvent).  Returns (quad1, quad2) or None."""
    c0, c1, c2, c3 = p[0], p[1], p[2], p[3]
    # depress via the shift u = w - c3/4, computed exactly
    sh = -c3 / 4
    base = [c0, c1, c2, c3, Fraction(1)]
    shifted = _shift_upoly(base, sh)
    r0, q0, p0 = shifted[0], shifted[1], shifted[2]
    zdisc = p0 * p0 - 4 * r0
    zs = rational_sqrt(zdisc) if q0 == 0 and zdisc >= 0 else None
    if zs is not None:
        # biquadratic: w^4 + p0 w^2 + r0 = (w^2 - z1)(w^2 - z2)
        z1, z2 = (-p0 - zs) / 2, (-p0 + zs) / 2
        quad1 = [-z1, Fraction(0), Fraction(1)]
        quad2 = [-z2, Fraction(0), Fraction(1)]
    else:
        # (w^2 + a w + b)(w^2 - a w + c) with a != 0: z = a^2 is a positive
        # root of the resolvent z^3 + 2 p0 z^2 + (p0^2 - 4 r0) z - q0^2
        cubic = [-q0 * q0, zdisc, 2 * p0, Fraction(1)]
        roots = [rational_sqrt(z) for z in _rational_roots(cubic) if z > 0]
        a = next((root for root in roots if root is not None), None)
        if a is None:
            return None
        b = (p0 + a * a - q0 / a) / 2
        c = (p0 + a * a + q0 / a) / 2
        quad1 = [b, a, Fraction(1)]
        quad2 = [c, -a, Fraction(1)]
    # undo the shift w = u - sh
    return _shift_upoly(quad1, -sh), _shift_upoly(quad2, -sh)


def _shift_upoly(p, s):
    """p(u + s) by Horner-style synthetic shifts."""
    out = list(p)
    n = len(out)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            out[j] = out[j] + s * out[j + 1]
    return out


def roots_in_tower(p, ctx: FieldContext):
    """All roots of p (with multiplicity) inside QQ or the single extension.

    Returns a list of (root, multiplicity) in deterministic order.  Raises
    UnsupportedFieldExtension when any root falls outside.
    """
    found = []
    for factor, mult in squarefree_decomposition(p):
        for root in _roots_squarefree(factor, ctx):
            found.append((root, mult))
    return found


def _roots_squarefree(p, ctx: FieldContext):
    p = upoly_trim(list(p))
    if len(p) <= 1:
        return []
    if len(p) == 2:
        return [-(p[0] / p[1])]
    work = list(p)
    out = []
    if _all_rational(work):
        for r in _rational_roots(work):
            out.append(r)
            work = _deflate(work, r)
    work = upoly_trim(work)
    while len(work) - 1 >= 1:
        deg = len(work) - 1
        if deg == 1:
            out.append(-(work[0] / work[1]))
            work = [work[1]]
        elif deg == 2:
            pair = _quadratic_roots(work, ctx)
            out.extend(pair)
            work = [work[-1]]
        elif deg == 3 and _all_rational(work):
            # no rational roots remain, so the cubic is irreducible: adjoin
            inv = 1 / work[-1]
            field = ctx.adjoin([c * inv for c in work])
            alpha = field.gen()
            out.append(alpha)
            work = _deflate([field.from_rational(c) if isinstance(c, Fraction) else c
                             for c in work], alpha)
        elif deg == 4 and _all_rational(work):
            inv = 1 / work[-1]
            monic = [c * inv for c in work]
            split = _depressed_quartic_split(monic)
            if split is not None:
                q1, q2 = split
                out.extend(_roots_squarefree(q1, ctx))
                out.extend(_roots_squarefree(q2, ctx))
                work = [work[-1]]
            else:
                field = ctx.adjoin(monic)
                alpha = field.gen()
                out.append(alpha)
                work = _deflate([field.from_rational(c) for c in monic], alpha)
        else:
            raise UnsupportedFieldExtension(
                f"cannot resolve degree-{deg} characteristic factor inside "
                "QQ plus one simple extension; pass explicit branch "
                "parametrizations instead"
            )
    return out


# -- polygon machinery ----------------------------------------------------------


def newton_polygon_edges(f: Poly):
    """Edges of the origin Newton polygon, in increasing slope order.

    Each edge is (p, q, points) with slope q/p in lowest terms and `points`
    the support points on the edge, listed from the top (max y-exponent) down.
    Requires that the caller has already divided out x- and y-axis
    factors and that f(0,0) = 0.
    """
    support = set(f.terms)
    # minimal i for each j
    by_j = {}
    for (i, j) in support:
        if j not in by_j or i < by_j[j]:
            by_j[j] = i
    # start at the y-axis point (smallest j with i == 0 ... i.e. ord of f(0,y))
    ys = [j for (i, j) in support if i == 0]
    xs = [i for (i, j) in support if j == 0]
    if not ys or not xs:
        raise D0resError("polygon needs both axis intercepts (divide axes out first)")
    a = (0, min(ys))
    bottom_j = 0
    edges = []
    while a[1] > bottom_j:
        best = None
        best_slope = None
        for j, i in by_j.items():
            if j >= a[1]:
                continue
            slope = Fraction(i - a[0], a[1] - j)
            if best_slope is None or slope < best_slope or (
                slope == best_slope and j < best[1]
            ):
                best_slope = slope
                best = (i, j)
        q = best_slope.numerator
        p = best_slope.denominator
        pts = []
        span = a[1] - best[1]
        for k in range(span // p + 1):
            pt = (a[0] + k * q, a[1] - k * p)
            if pt in support:
                pts.append(pt)
        edges.append((p, q, pts))
        a = best
    # walking down from the y-axis intercept, convexity makes the slopes
    # increase, so the edges are already in increasing-slope order
    return edges


def edge_characteristic(f: Poly, p, q, pts):
    """Reduced characteristic polynomial Phi(u), u = c^p, lowest degree first."""
    j_min = min(j for (_, j) in pts)
    degree = (max(j for (_, j) in pts) - j_min) // p
    coeffs = [_ZERO] * (degree + 1)
    for (i, j) in pts:
        coeffs[(j - j_min) // p] = f.terms.get((i, j), _ZERO)
    return coeffs


def puiseux_transform(f: Poly, p, q, A, B):
    """f(A*x1^p, x1^q*(B + y1)) divided by the largest power of x1, on the
    term dict.

    A term c*x^i*y^j goes to c*A^i * binom(j, k)*B^(j-k) * x1^(p*i+q*j) *
    y1^k for k = 0..j: one binomial row, with the rows and the powers of
    A kept for the call, and one Poly is built at the end (Duval,
    Compositio Math. 1989, per edge).  The terms are taken in graded order
    and a sum is dropped when it reaches zero, as adding the substituted
    terms one Poly at a time does, so each coefficient is a Fraction or a
    FieldElement exactly where that substitution leaves one (the tests
    compare the two)."""
    one = Fraction(1)
    a_powers, rows, out = {}, {}, {}
    for (i, j), c in f.sorted_terms():
        if i:
            if i not in a_powers:
                a_powers[i] = A ** i
            c = c * a_powers[i]
        if j not in rows:
            rows[j] = [comb(j, k) * B ** (j - k) for k in range(j)] + [one]
        shift = p * i + q * j
        for k, w in enumerate(rows[j]):
            t = c * w if k < j else c
            e = (shift, k)
            s = out.get(e)
            if s is None:
                out[e] = t
            else:
                s = s + t
                if s:
                    out[e] = s
                else:
                    del out[e]
    v = min((i for i, _ in out), default=0)
    return Poly(2, {(i - v, k): c for (i, k), c in out.items()})


# -- expansion chains -------------------------------------------------------------


class _Leaf:
    __slots__ = ("levels", "tail_poly", "order_key")

    def __init__(self, levels, tail_poly, order_key):
        self.levels = levels          # [(p, q, A, B), ...] outermost first
        self.tail_poly = tail_poly    # None means the tail is exactly zero
        self.order_key = order_key    # tuple used for deterministic sorting


def _regular_ready(f1: Poly) -> bool:
    """A simple characteristic root always lands here: f1(0,0)=0, f1_y(0,0)!=0."""
    if not scalar_is_zero(f1.coefficient((0, 0))):
        return False
    return not scalar_is_zero(f1.coefficient((0, 1)))


def expansion_leaves(f: Poly, ctx: FieldContext, max_depth=None):
    """All expansion leaves of f at the origin (f free of the x-axis factor),
    sorted by order key.

    The levels are walked depth first, in the order of their edges and
    roots, so that any extension is adjoined in that order; a stack of
    `_level_children` walks, not Python recursion, holds the path.  A node
    d levels deep shares them with every leaf below it: two of those
    leaves meet with l_ij > d, and a lone one has a characteristic
    exponent above d.  So a node deeper than max_depth (None for no limit)
    asks for a truncation above it."""
    leaves = []
    stack = [_level_children(f, [], (), ctx, leaves)]
    while stack:
        node = next(stack[-1], None)
        if node is None:
            stack.pop()
            continue
        depth = len(node[1])
        if max_depth is not None and depth > max_depth:
            raise RaiseTruncation(f"the Newton polygon tree is at least {depth} "
                                  "levels deep", needed=depth)
        stack.append(_level_children(*node, ctx, leaves))
    leaves.sort(key=lambda leaf: leaf.order_key)
    return leaves


def _level_children(f: Poly, levels, prefix_key, ctx: FieldContext, leaves):
    """The leaves of one node f below `levels`, appended to `leaves`, and
    its children (f1, levels, key) to expand, yielded one at a time."""
    # exact tail: y | f
    ytail = f.monomial_content(1)
    if ytail:
        if ytail > 1:
            raise D0resError("repeated y-axis factor; input not squarefree")
        leaves.append(_Leaf(levels, None, prefix_key + ((-1, 0),)))
        f = f.divide_by_monomial(1, 1)
    if not scalar_is_zero(f.coefficient((0, 0))):
        return
    if f.monomial_content(0):
        # a vertical component inside the recursion means the input was not
        # in the expected shape (the caller strips x | f at the top level)
        raise D0resError("unexpected vertical component in polygon recursion")
    for edge_idx, (p, q, pts) in enumerate(newton_polygon_edges(f)):
        phi = edge_characteristic(f, p, q, pts)
        m = 0 if p == 1 else (-pow(q, -1, p)) % p
        for root_idx, (u_star, mult) in enumerate(roots_in_tower(phi, ctx)):
            A = u_star ** m if m else Fraction(1)
            exp_b = (m * q + 1) // p
            B = u_star ** exp_b
            key = prefix_key + ((edge_idx, root_idx),)
            f1 = puiseux_transform(f, p, q, A, B)
            below = levels + [(p, q, A, B)]
            if mult == 1 and _regular_ready(f1):
                leaves.append(_Leaf(below, f1, key))
            else:
                yield f1, below, key


def solve_regular_tail(f1: Poly, trunc) -> Series:
    """The series y(x) with y(0) = 0 and f1(x, y(x)) = 0 mod x^trunc.

    Needs f1(0,0) = 0 and f1_y(0,0) != 0, so the solution is unique mod
    x^trunc.  When f1 has no y-free term below x^trunc it is y = 0, read off
    the terms without evaluating anything.  Otherwise a Newton lift doubles
    the precision (Kung and Traub 1978): knowing y mod x^n, one step gives
    y mod x^m, m = min(2n, trunc), as y - f1(x, y) * g mod x^m.  f1(x, y)
    vanishes mod x^n, so only its coefficients from x^n on enter, and g =
    f_y(x, y)^-1 is only needed mod x^(m-n).  It is carried from step to
    step, starting from 1/f_y(0, 0) mod x, the one scalar inverse.  Before
    every step but the last, m = 2n, so the next step needs g mod x^(m'-n')
    with m' - n' <= n' = 2(m - n): twice the precision g has, at a y
    unchanged below x^n.  One Newton step g - g * (f_y(x, y) * g - 1)
    doubles it, as in `Series.invert`; f_y(x, y) * g - 1 vanishes below
    the precision g has, so again only its higher coefficients enter.

    From that inverse to the result, y, g and each step's values are
    integer vectors over one denominator, the slot layout of
    `Series.__mul__` (`series._slots`, `_product`).  f1 is read once as
    sum_j C_j(x) y^j, one slot list per power of y (`_y_coefficients`),
    f_y's are j C_j, and each evaluation is Horner in y alone (`_at_y`).
    Each update of y or g is `series._newton_update`, the one Newton step,
    which `Series.invert` takes too.  It normalizes y, g and the part of
    each value that enters a product once (`series._normalized`): reduced
    mod m(a) over QQ(a), and divided by the gcd of denominator and entries.
    The result is built once (`series._from_slots`), and the lift ends with
    one check, by the general evaluator `Poly.eval_series`, which shares
    none of this code: f1(x, y) = 0 mod x^trunc.
    """
    if not scalar_is_zero(f1.coefficient((0, 0))):
        raise D0resError("tail polynomial does not vanish at the origin")
    fy0 = f1.coefficient((0, 1))
    if scalar_is_zero(fy0):
        raise D0resError("tail root is not simple; recursion should have continued")
    if all(i >= trunc for (i, j) in f1.terms if j == 0):
        return Series.zero(trunc)
    field, den, cs = _y_coefficients(f1, trunc)
    dcs = [c and [[j * v for v in s] for s in c] for j, c in enumerate(cs) if j]
    g0 = 1 / fy0 if isinstance(fy0, Fraction) else fy0.inverse()
    g = _slots((g0,), 1)[1:3]
    y = (1, [[0]])
    n = h = 1                       # y is known mod x^n, g mod x^h
    while n < trunc:
        m = min(2 * n, trunc)
        if h < m - n:
            fd, fs = _at_y(dcs, den, *y, m - n)
            gd, gs = g
            e = (fd * gd, _product(fs, [nonzero_pairs(s) for s in gs], m - n))
            g, h = _newton_update(field, g, h, e, g, m - n), m - n
        y, n = _newton_update(field, y, n, _at_y(cs, den, *y, m), g, m), m
    y = _from_slots(field, *y)
    if not f1.eval_series([Series.variable(trunc), y]).is_zero_at_precision():
        raise D0resError("series lift failed to converge")
    return y


def _y_coefficients(f1: Poly, trunc):
    """(field, den, cs): f1 mod x^trunc as sum_j C_j(x) y^j, with C_j =
    cs[j] / den, cs[j] the slot list of C_j (None when C_j = 0 mod
    x^trunc) and den one denominator for all of them, laid out by one
    `_slots` of the C_j end to end.  The root y has the order o of f1's
    y-free part, so a term x^i y^j with i >= trunc or (j - 1) o >= trunc
    is left out: it vanishes mod x^trunc in f1 and in f_y."""
    o = min(i for (i, j) in f1.terms if j == 0)
    terms = [(i, j, c) for (i, j), c in f1.terms.items()
             if i < trunc and (j - 1) * o < trunc]
    top = max(j for _, j, _ in terms)
    flat = [_ZERO] * ((top + 1) * trunc)
    for i, j, c in terms:
        flat[j * trunc + i] = c
    field, den, slots, _ = _slots(flat, len(flat))
    cs = [[s[j * trunc:(j + 1) * trunc] for s in slots] for j in range(top + 1)]
    return field, den, [c if any(map(any, c)) else None for c in cs]


def _at_y(cs, den, yd, ys, m):
    """(den', slots) of sum_j C_j y^j mod x^m, for C_j = cs[j] / den (cs as
    `_y_coefficients` gives it, cs[0] not None) and y = ys / yd: Horner in
    y alone, one `_product` per power.  y^j vanishes mod x^m once j times
    y's order reaches m, so the powers stop below there, at a top with
    C_top not None; the value is sum_j cs[j] Y^j yd^(top - j) over
    den yd^top, Y = ys."""
    pairs = [nonzero_pairs(s[:m]) for s in ys]
    order = min((p[0][0] for p in pairs if p), default=m)
    top = min(len(cs) - 1, (m - 1) // order)
    while cs[top] is None:
        top -= 1
    acc = [s[:m] for s in cs[top]]
    weight = 1
    for c in reversed(cs[:top]):
        acc = _product(acc, pairs, m)
        weight *= yd
        if c is not None:
            _add_scaled(acc, c, weight, m)
    return den * weight, acc


def leaf_to_coords(leaf: _Leaf, trunc):
    """Back-substitute one expansion leaf into (x(t), y(t)) series.

    At every level x is a monomial c*t^e, so x^p * A is the monomial
    c^p*A*t^(e*p) and x^q * (B + y) is B + y scaled by c^q and shifted by
    e*q: no series product.  A coefficient whose value is rational is a
    Fraction, as a series product leaves it."""
    if leaf.tail_poly is None:
        y = [_ZERO] * trunc
    else:
        y = list(solve_regular_tail(leaf.tail_poly, trunc).coeffs)
    c, e = Fraction(1), 1                       # x = c * t^e
    for (p, q, A, B) in reversed(leaf.levels):
        scale, shift = c ** q, e * q
        y[0] = y[0] + B
        y = [_ZERO] * min(shift, trunc) + [
            demote(scale * v) if v else _ZERO for v in y[:max(trunc - shift, 0)]]
        c, e = demote(c ** p * A), e * p
    return Series.monomial(e, c, trunc), Series(y)


def chart_orders(leaf: _Leaf):
    """(ord_t x_c, ord_t y_c) of a leaf's branch in each chart c it passes
    through, from the root chart down to the chart of its tail, None
    standing for an infinite order.

    In the tail's chart x = t, and y has the order of the tail
    polynomial's y-free part (the tail's root y(x) is that part times a
    unit), or is infinite (None) for a zero tail.  A level (p, q, A, B)
    above a chart where ord x = m gives x = A*x_c^p and y = x_c^q*(B + y_c)
    with B != 0, hence (p*m, q*m) in the chart above.  No truncation
    enters."""
    tail = None
    if leaf.tail_poly is not None:
        tail = min((i for (i, j) in leaf.tail_poly.terms if j == 0), default=None)
    orders, m = [(1, tail)], 1
    for (p, q, _, _) in reversed(leaf.levels):
        orders.append((p * m, q * m))
        m *= p
    return orders[::-1]


def characteristic(leaf: _Leaf):
    """(N, pairs) of a leaf's branch: x = c*t^N, and for each level with
    p > 1, outermost first, the pair (beta, e) of a characteristic exponent
    beta of y with respect to x and the gcd e of N and every exponent of y
    up to beta.

    Below level i the chart's x_i is a monomial of order M_i (the product
    of the p below it, M_0 = N), and y = x_1^q_1*(B_1 + x_2^q_2*(B_2 + ...))
    with every B != 0.  So y's exponents are S_i = q_1*M_1 + ... + q_i*M_i,
    one per level, then S_i plus the tail's; the gcd of N, S_1..S_i is M_i,
    which drops exactly at the levels with p > 1.  No truncation enters."""
    ms = [1]
    for (p, _, _, _) in reversed(leaf.levels):
        ms.append(ms[-1] * p)
    ms.reverse()
    pairs, beta = [], 0
    for i, (p, q, _, _) in enumerate(leaf.levels):
        beta += q * ms[i + 1]
        if p > 1:
            pairs.append((beta, ms[i + 1]))
    return ms[0], pairs
