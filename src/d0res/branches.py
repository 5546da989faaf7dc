"""Branches of a curve germ and their numerical invariants.

A BranchParam is a truncated parametrization t -> (x_1(t), ..., x_m(t)) of one
analytic branch through the origin.  From the branch set this module computes
the multiplicity n of each branch, pairwise intersection lengths l_ij, the
branch intersection index bii = max l_ij, l0 = 1 + bii (1 for unibranch germs)
and the critical rank r0 = l0 * lcm(n_i).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .errors import D0resError, InputError, RaiseTruncation
from .fields import scalar_is_zero
from .linalg import ExactMatrix, rref_rows, solve_exact
from .poly import Poly, grlex_key, is_squarefree, monomial_values, monomials_upto
from .puiseux import FieldContext, expansion_leaves, leaf_to_coords
from .series import Series

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class BranchParam:
    """One branch, as truncated power-series coordinates of a primitive
    parametrization through the origin.  A common divisor of the truncated
    exponents asks for more truncation; explicit input is checked for
    primitivity exactly when it is parsed."""

    coords: tuple

    def __post_init__(self):
        if len(self.coords) < 2:
            raise D0resError("a branch needs at least two ambient coordinates")
        exps = []
        for s in self.coords:
            o = s.order()
            if o == 0:
                raise D0resError("branch does not pass through the origin")
            exps.extend(i for i, c in enumerate(s.coeffs) if not scalar_is_zero(c))
        if exps:
            g = 0
            for e in exps:
                g = gcd(g, e)
            if g != 1:
                raise RaiseTruncation(
                    f"parametrization is not primitive at truncation "
                    f"{self.trunc} (exponent gcd {g})", needed=2 * self.trunc)

    @property
    def ambient_dim(self):
        return len(self.coords)

    @property
    def trunc(self):
        return min(s.trunc for s in self.coords)

    def orders(self):
        return tuple(s.order() for s in self.coords)

    def multiplicity(self):
        return branch_multiplicity(self)

    def reparametrized(self, unit: Series) -> "BranchParam":
        """Substitute t -> unit(t) * t (unit(0) != 0); same branch, new chart."""
        if unit.order() != 0:
            raise D0resError("reparametrization needs a unit series")
        inner = unit * Series.variable(unit.trunc)
        return BranchParam(
            tuple(s.truncate(min(s.trunc, inner.trunc)).compose(inner)
                  for s in self.coords))


@dataclass(frozen=True)
class PlaneCurveInput:
    """Reduced plane curve with a designated singular point (default origin)."""

    poly: Poly
    point: tuple = None

    def __post_init__(self):
        if self.poly.nvars != 2:
            raise D0resError("implicit input must be a plane polynomial")
        if self.poly.is_zero():
            raise D0resError("zero polynomial does not define a curve")
        pt = self.point if self.point is not None else (_ZERO, _ZERO)
        object.__setattr__(self, "point", tuple(pt))
        if not scalar_is_zero(self.poly.evaluate(self.point, _ONE)):
            raise InputError("point", "curve does not pass through the designated point")
        if not is_squarefree(self.poly):
            raise InputError("curve.implicit.poly",
                             "curve is not reduced (polynomial has a square factor)")

    def local_poly(self) -> Poly:
        """The defining polynomial recentered at the designated point."""
        if all(scalar_is_zero(c) for c in self.point):
            return self.poly
        return self.poly.translate(list(self.point))


@dataclass(frozen=True)
class Germ:
    """A singular point with its branches and all numerical invariants."""

    point: tuple
    branches: tuple
    n: tuple
    l_matrix: tuple          # symmetric, None on the diagonal
    bii: object              # int or None (single branch)
    l0: int
    r0: int
    notes: tuple = field(default_factory=tuple)

    @property
    def k(self):
        return len(self.branches)

    def is_singular(self):
        return self.k >= 2 or any(ni >= 2 for ni in self.n)


def branch_multiplicity(b: BranchParam) -> int:
    """Least vanishing order among the coordinate pullbacks."""
    orders = [o for o in b.orders() if o is not None]
    if not orders:
        raise RaiseTruncation(
            f"all coordinates vanish below truncation {b.trunc}",
            needed=2 * b.trunc)
    return min(orders)


def newton_puiseux(curve: PlaneCurveInput, trunc: int, ctx: FieldContext = None):
    """Complete branch decomposition of the germ at the designated point.

    Branch order: the y=0 tail first, then polygon edges by increasing slope
    with characteristic roots in deterministic order, then the x=0 axis last.
    """
    if trunc < 4:
        raise D0resError("truncation too small for branch decomposition")
    f = local = curve.local_poly()
    if ctx is None:
        ctx = FieldContext()
    pre = []
    post = []
    ydeg = f.monomial_content(1)
    if ydeg:
        if ydeg > 1:
            raise D0resError("input is not reduced (y-axis factor repeated)")
        pre.append(BranchParam((Series.variable(trunc), Series.zero(trunc))))
        f = f.divide_by_monomial(1, 1)
    xdeg = f.monomial_content(0)
    if xdeg:
        if xdeg > 1:
            raise D0resError("input is not reduced (x-axis factor repeated)")
        post.append(BranchParam((Series.zero(trunc), Series.variable(trunc))))
        f = f.divide_by_monomial(0, 1)
    middle = []
    if not scalar_is_zero(f.coefficient((0, 0))):
        leaves = []
    else:
        leaves = expansion_leaves(f, ctx)
    for leaf in leaves:
        x, y = leaf_to_coords(leaf, trunc)
        middle.append(BranchParam((x, y)))
    branches = pre + middle + post
    if not branches:
        raise D0resError("no branches through the designated point")
    for b in branches:
        residual = local.eval_series(list(b.coords))
        if not residual.is_zero_at_precision():
            raise D0resError("branch residual does not vanish at precision")
    total = sum(branch_multiplicity(b) for b in branches)
    expected = local.min_degree()
    if total != expected:
        raise D0resError(
            f"branch multiplicities sum to {total}, expected germ multiplicity "
            f"{expected}; decomposition incomplete"
        )
    return branches


# -- implicit equations ----------------------------------------------------------


def _evaluation_columns(b: BranchParam, monomials, nt):
    """Column per monomial: coefficients of its evaluation along the branch."""
    n = min(nt, b.trunc)
    values = monomial_values([s.truncate(n) for s in b.coords], monomials,
                             Series.one(n))
    return [list(v.coeffs) for v in values], n


def implicit_equation(b: BranchParam) -> Poly:
    """Local equation of a plane branch to the working precision.

    Monic Weierstrass form y^n + a_{n-1}(x) y^{n-1} + ... + a_0(x) with n the
    order of the x-pullback and each a_k truncated at x^M, solved exactly by
    undetermined coefficients from g(x(t), y(t)) = 0 mod t^(n*M).  For
    polynomial branches the solution terminates and is the exact irreducible
    equation; for transcendental-looking branches (one analytic branch of an
    irreducible curve) it is the branch generator to precision, which is what
    intersection lengths need.
    """
    if b.ambient_dim != 2:
        raise D0resError("implicit equations are for plane branches only")
    xs, ys = b.coords
    n = xs.order()
    if n is None:
        if ys.order() is None:
            raise D0resError("degenerate branch")
        return Poly.variable(2, 0)
    nt = b.trunc
    m_cap = nt // n - 1
    # the solve window n*m_cap must see past every coordinate's pullback
    # order, otherwise a spuriously short equation looks consistent
    orders = [o for o in b.orders() if o is not None]
    q_max = max(orders)
    if m_cap < max(2, q_max + 1):
        raise RaiseTruncation(
            "truncation too small to solve for the branch equation",
            needed=n * (q_max + 3),
        )
    t_prec = n * m_cap
    exponents = [(m, k) for k in range(n) for m in range(m_cap)] + [(0, n)]
    *products, y_n = monomial_values([s.truncate(nt) for s in b.coords],
                                     exponents, Series.one(nt))
    columns = []
    labels = []
    for exp, prod in zip(exponents, products):
        col = prod.coeffs[:t_prec]
        if all(scalar_is_zero(c) for c in col):
            # contributes nothing below the working precision; its
            # canonical value is zero
            continue
        columns.append(col)
        labels.append(exp)
    rows = [[columns[j][i] for j in range(len(columns))] for i in range(t_prec)]
    rhs = [-c for c in y_n.coeffs[:t_prec]]
    solution, n_free = solve_exact(rows, rhs)
    if solution is None:
        raise RaiseTruncation(
            "no truncated branch equation at this precision", needed=2 * nt
        )
    if n_free:
        raise RaiseTruncation(
            "branch equation not unique at this precision", needed=2 * nt
        )
    terms = {(0, n): Fraction(1)}
    for (m, k), c in zip(labels, solution):
        if not scalar_is_zero(c):
            terms[(m, k)] = c
    return Poly(2, terms)


def _normalize_equation(g: Poly) -> Poly:
    ydeg = g.degree_in(1)
    pure = (0, ydeg)
    lead = g.terms.get(pure)
    if lead is None or ydeg == 0:
        lead = g.terms[max(g.terms, key=grlex_key)]
    inv = 1 / lead if isinstance(lead, Fraction) else lead.inverse()
    return g.scale(inv)


def sylvester_resultant_equation(b: BranchParam) -> Poly:
    """Implicit equation by literal elimination: Res_s(x - x(s), y - y(s)).

    Only sensible for polynomial parametrizations of small degree; used as an
    independent cross-check of implicit_equation.
    """
    if b.ambient_dim != 2:
        raise D0resError("resultant elimination is for plane branches")
    xs, ys = b.coords
    dx = max((i for i, c in enumerate(xs.coeffs) if not scalar_is_zero(c)), default=0)
    dy = max((i for i, c in enumerate(ys.coeffs) if not scalar_is_zero(c)), default=0)
    if dx + dy == 0:
        raise D0resError("degenerate parametrization")
    # rows of the Sylvester matrix in s, entries in Poly(x, y)
    #   P(s) = x - x(s): degree dx,  Q(s) = y - y(s): degree dy
    def as_s_poly(series, which, deg):
        coeffs = []
        for k in range(deg + 1):
            c = series.coeffs[k] if k < series.trunc else _ZERO
            poly = Poly.constant(2, -c)
            if k == 0:
                poly = poly + Poly.variable(2, which)
            coeffs.append(poly)
        return coeffs

    p_coeffs = as_s_poly(xs, 0, dx)
    q_coeffs = as_s_poly(ys, 1, dy)
    size = dx + dy
    rows = []
    for shift in range(dy):
        row = [Poly.zero(2)] * size
        for k, c in enumerate(reversed(p_coeffs)):
            row[shift + k] = c
        rows.append(row)
    for shift in range(dx):
        row = [Poly.zero(2)] * size
        for k, c in enumerate(reversed(q_coeffs)):
            row[shift + k] = c
        rows.append(row)
    det = _poly_determinant(rows)
    return _normalize_equation(det) if not det.is_zero() else det


def _poly_determinant(rows):
    """Fraction-free (Bareiss) determinant over the polynomial ring."""
    n = len(rows)
    m = [[p for p in row] for row in rows]
    sign = 1
    prev = Poly.constant(2, Fraction(1))
    for k in range(n - 1):
        if m[k][k].is_zero():
            swap = next((i for i in range(k + 1, n) if not m[i][k].is_zero()), None)
            if swap is None:
                return Poly.zero(2)
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                m[i][j] = _poly_div_exact(num, prev)
            m[i][k] = Poly.zero(2)
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return det if sign == 1 else -det


def _poly_div_exact(num: Poly, den: Poly) -> Poly:
    if den.total_degree() == 0:
        c = den.terms[(0, 0)]
        inv = 1 / c if isinstance(c, Fraction) else c.inverse()
        return num.scale(inv)
    out = {}
    rem = num
    den_lead = max(den.terms, key=grlex_key)
    den_c = den.terms[den_lead]
    while not rem.is_zero():
        lead = max(rem.terms, key=grlex_key)
        exp = tuple(a - b for a, b in zip(lead, den_lead))
        if any(e < 0 for e in exp):
            raise D0resError("inexact polynomial division")
        c = rem.terms[lead] / den_c
        out[exp] = c
        rem = rem - den * Poly.monomial(exp, c)
    return Poly(2, out)


# -- intersection lengths ----------------------------------------------------------


def intersection_length(bi: BranchParam, bj: BranchParam) -> int:
    """Length of the scheme intersection of two distinct branches at the point.

    Plane branches: order of one branch's equation along the other (checked
    symmetric).  Higher ambient dimension: colength oracle.
    """
    if bi.ambient_dim != bj.ambient_dim:
        raise D0resError("branches live in different ambient spaces")
    shared = min(bi.trunc, bj.trunc)
    if all(si.truncate(shared) == sj.truncate(shared)
           for si, sj in zip(bi.coords, bj.coords)):
        raise RaiseTruncation(
            "branches coincide at the working truncation; intersection "
            "lengths need distinct branches", needed=2 * shared)
    if bi.ambient_dim == 2:
        gi = implicit_equation(bi)
        gj = implicit_equation(bj)
        lij = gj.eval_series(list(bi.coords)).order()
        lji = gi.eval_series(list(bj.coords)).order()
        if lij is None or lji is None:
            raise RaiseTruncation(
                "branches indistinguishable at this truncation",
                needed=2 * min(bi.trunc, bj.trunc),
            )
        if lij != lji:
            raise RaiseTruncation(
                f"asymmetric intersection lengths {lij} != {lji}; raise truncation",
                needed=2 * min(bi.trunc, bj.trunc),
            )
        # the truncated equations are only trusted below their error order
        margin = _equation_error_order(bi, bj)
        if lij + 2 > margin:
            raise RaiseTruncation(
                f"intersection length {lij} too close to the precision horizon "
                f"{margin}",
                needed=2 * min(bi.trunc, bj.trunc),
            )
        return lij
    return colength_intersection_length(bi, bj)


def _equation_error_order(bi: BranchParam, bj: BranchParam) -> int:
    """Order below which ord(g_j(branch_i)) is provably exact (and symmetric)."""
    ni = branch_multiplicity(bi)
    nj = branch_multiplicity(bj)
    mj = bj.trunc // max(1, bj.coords[0].order() or 1) - 1
    mi = bi.trunc // max(1, bi.coords[0].order() or 1) - 1
    return min(mj * ni, mi * nj)


def colength_intersection_length(bi: BranchParam, bj: BranchParam) -> int:
    """Independent route: dimension of the local algebra modulo both branch
    ideals, by kernel stabilization over increasing degree and truncation."""
    m = bi.ambient_dim
    previous = None
    max_s = max(4, min(bi.trunc, bj.trunc) // 2)
    for s in range(2, max_s + 1):
        nt = min(2 * s, bi.trunc, bj.trunc)
        kernel_polys = _branch_kernel(bj, s, nt)
        value = _relative_colength(bi, kernel_polys, nt)
        if previous is not None and value == previous:
            return value
        previous = value
    raise RaiseTruncation(
        "colength did not stabilize; raise truncation",
        needed=2 * min(bi.trunc, bj.trunc),
    )


def _branch_kernel(b: BranchParam, degree, nt):
    monomials = monomials_upto(b.ambient_dim, degree)
    cols, n_used = _evaluation_columns(b, monomials, nt)
    rows = [[cols[j][i] for j in range(len(monomials))] for i in range(n_used)]
    kernel = ExactMatrix(rows).nullspace()
    return [Poly(b.ambient_dim, {m: c for m, c in zip(monomials, vec)})
            for vec in kernel]


def _relative_colength(bi: BranchParam, kernel_polys, nt):
    """dim span{monomial evals along bi} - dim span{(monomial*h) evals}."""
    monomials = monomials_upto(bi.ambient_dim, nt)
    amb_cols, n_used = _evaluation_columns(bi, monomials, nt)
    amb_rank = _rank_of_columns(amb_cols, n_used)
    prod_cols = []
    coords = [s.truncate(n_used) for s in bi.coords]
    mono_evals = [Series(col) for col in amb_cols]
    for h in kernel_polys:
        h_eval = h.eval_series(coords)
        for mono_eval in mono_evals:
            prod_cols.append(list((h_eval * mono_eval).coeffs))
    prod_rank = _rank_of_columns(prod_cols, n_used)
    return amb_rank - prod_rank


def _rank_of_columns(cols, nrows):
    if not cols:
        return 0
    rows = [[col[i] for col in cols] for i in range(nrows)]
    _, pivots = rref_rows(rows)
    return len(pivots)


# -- germ assembly -------------------------------------------------------------------


def germ_invariants(branches, point=None) -> Germ:
    """Fill n, l_matrix, bii, l0 and r0 for a branch set at one point."""
    branches = tuple(branches)
    if not branches:
        raise D0resError("a germ needs at least one branch")
    if point is None:
        point = (_ZERO,) * branches[0].ambient_dim
    n = tuple(branch_multiplicity(b) for b in branches)
    k = len(branches)
    l_matrix = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            lij = intersection_length(branches[i], branches[j])
            l_matrix[i][j] = lij
            l_matrix[j][i] = lij
    if k >= 2:
        bii = max(l_matrix[i][j] for i in range(k) for j in range(i + 1, k))
        l0 = 1 + bii
    else:
        bii = None
        l0 = 1
    r0 = l0 * lcm(*n)
    notes = []
    if k == 1 and n[0] == 1:
        notes.append("smooth-point: the germ is not singular (one branch, n=1)")
    if k >= 2 and any(ni == 1 for ni in n):
        notes.append(
            "smooth-branch-at-singular-point: some branch has n=1 although the "
            "point is singular; the classical 'n>1 iff singular' phrasing does "
            "not hold branchwise here"
        )
    return Germ(
        point=tuple(point),
        branches=branches,
        n=n,
        l_matrix=tuple(tuple(row) for row in l_matrix),
        bii=bii,
        l0=l0,
        r0=r0,
        notes=tuple(notes),
    )
