"""Branches of a curve germ and their numerical invariants.

A BranchParam is a truncated parametrization t -> (x_1(t), ..., x_m(t)) of one
analytic branch through the origin.  From the branch set this module computes
the multiplicity n of each branch, pairwise intersection lengths l_ij, the
branch intersection index bii = max l_ij, l0 = 1 + bii (1 for unibranch germs)
and the critical rank r0 = l0 * lcm(n_i).

An implicit germ takes each n_i and each l_ij from its Newton-polygon tree
(`newton_tree`), by the toric recursion, with no truncation: r0 is known
before any lift, and `NewtonTree.lift` lifts the branches from that tree to
any truncation.  The colength of the two branch ideals
(`colength_intersection_length`) is the independent check of those l_ij.

Explicit branches have no tree: every l_ij, plane or space, is the
colength, and a plane pair that `_one_branch` proves one branch in two
parameters is refused.  `implicit_equation` builds a plane branch's
equation from power sums, in a chart where x = a*t^n (`_monomial_chart`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm

from .errors import D0resError, InputError, RaiseTruncation
from .fields import scalar_is_zero
from .linalg import rref_rows
from .poly import Poly, is_reduced_at, reachable_values
from .puiseux import (
    FieldContext,
    chart_orders,
    characteristic,
    expansion_leaves,
    leaf_to_coords,
)
from .series import Series

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class BranchParam:
    """One branch, as truncated power-series coordinates of a primitive
    parametrization through the origin.  A common divisor of the truncated
    exponents asks for more truncation; explicit input is checked for
    primitivity exactly when it is parsed.  `degree` is the degree of the
    polynomials an explicit branch was given by, None for a lift or any
    other series."""

    coords: tuple
    degree: int = None

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

    @cached_property
    def _equation_chart(self):
        """(x, y, T') of a plane branch with x != 0: its coordinates in a
        parameter where x = a*t^n exactly, through `_monomial_chart` when x
        is not a monomial, and the precision T' to which y is known there
        (`_equation_precision`).  Built once, whichever readers ask."""
        xs, ys = self.coords
        if not _is_monomial(xs):
            chart = _monomial_chart(self)
            return (*chart.coords, self.trunc - xs.order())
        n, o = xs.order(), ys.order()
        known = self.trunc if o is None else min(self.trunc, self.trunc - n + o)
        return xs, ys, known

    @cached_property
    def _semigroup(self):
        """`_value_semigroup` of this branch, built once, whichever pairs
        and truncation needs read it."""
        return _value_semigroup(self, branch_multiplicity(self))

    @property
    def primitive_truncation(self):
        """The least truncation at which this branch's exponents have gcd
        1 (`primitive_at`); a longer lift of the same branch keeps them."""
        return primitive_at(i for s in self.coords
                            for i, c in enumerate(s.coeffs) if not scalar_is_zero(c))

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
    """Plane curve with a designated singular point (default origin), reduced
    at that point: a square factor that does not vanish there is a unit of
    the local ring, and the germ is the same without it.  `is_reduced_at`
    decides it, by a modular certificate that a rational curve is
    squarefree, or else by the exact gcd(f, f_x, f_y) at the point."""

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
        if not is_reduced_at(self.poly, self.point):
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

    @property
    def primitive_truncation(self):
        """The truncation past which every branch is primitive, read off
        its exponents."""
        return max(b.primitive_truncation for b in self.branches)

    @property
    def colength_truncation(self):
        """The truncation the colength reads on these branches
        (`colength_reach`), from each branch's value semigroup; 0 for a
        space germ or a single branch."""
        if self.k < 2 or self.branches[0].ambient_dim != 2:
            return 0
        return colength_reach(self.n, self.l_matrix,
                              [b._semigroup[1] for b in self.branches])


def primitive_at(exponents) -> int:
    """The least truncation T at which the exponents below T have gcd 1;
    None when they never do."""
    g = 0
    for e in sorted(exponents):
        g = gcd(g, e)
        if g == 1:
            return e + 1
    return None


def branch_multiplicity(b: BranchParam) -> int:
    """Least vanishing order among the coordinate pullbacks."""
    orders = [o for o in b.orders() if o is not None]
    if not orders:
        raise RaiseTruncation(
            f"all coordinates vanish below truncation {b.trunc}",
            needed=2 * b.trunc)
    return min(orders)


@dataclass(frozen=True)
class NewtonTree:
    """The Newton-polygon tree of a plane germ: its expansion leaves and
    the x = 0 axis, in the order of their lift, and the invariants n and
    l_matrix they fix with no truncation (`newton_tree`)."""

    local: Poly
    leaves: tuple
    x_axis: bool
    n: tuple
    l_matrix: tuple          # symmetric, None on the diagonal

    @property
    def r0(self):
        return critical_rank(self.n, self.l_matrix)[2]

    @cached_property
    def _characteristics(self):
        """`puiseux.characteristic` of each branch, in lift order; the x = 0
        axis is the smooth (1, [])."""
        return [characteristic(leaf) for leaf in self.leaves] + [(1, [])] * self.x_axis

    @property
    def primitive_truncation(self):
        """The truncation past which every lifted branch is primitive:
        past x's exponent N and y's characteristic exponents, as far as
        their gcd reaches 1 (`primitive_at`).  Those terms are nonzero in
        every lift that reaches them.  A tail term may bring the gcd to 1
        sooner, but it is unknown before the lift."""
        return max(primitive_at([big_n, *(beta for beta, _ in pairs)])
                   for big_n, pairs in self._characteristics)

    @property
    def conductors(self):
        """The conductor c of each branch's value semigroup, from its
        characteristic exponents beta_i with respect to x = a*t^N and the
        gcds e_i after them (e_0 = N):

            c = sum_i (e_(i-1) - e_i) * (beta_i - 1).

        The conductor of a branch is its Milnor number mu.  Along the
        branch f_y has order sum_i (e_(i-1) - e_i) * beta_i, the sum of the
        orders of y(t) - y(zeta*t) over the N-th roots of unity zeta != 1,
        and I(f, x) = N; Teissier's lemma I(f, f_y) = mu + I(f, x) - 1
        gives mu.  x need not be transversal, so N may exceed the
        multiplicity (Wall, Singular Points of Plane Curves, 2004, ch. 4).
        An axis branch is smooth, of conductor 0."""
        out = []
        for big_n, pairs in self._characteristics:
            c, prev = 0, big_n
            for beta, e in pairs:
                c += (prev - e) * (beta - 1)
                prev = e
            out.append(c)
        return tuple(out)

    @property
    def colength_truncation(self):
        """The truncation the colength row reads (`colength_reach`)."""
        return colength_reach(self.n, self.l_matrix, self.conductors)

    def lift(self, trunc: int):
        """The branches lifted to truncation trunc, in tree order, each
        checked to annihilate the local equation to that precision, their
        multiplicities summing to the germ's.  No part of the tree depends
        on trunc; below its `primitive_truncation` some branch would not be
        primitive, and the lift asks for that truncation."""
        need = self.primitive_truncation
        if trunc < need:
            raise RaiseTruncation(f"the tree's branches are primitive from "
                                  f"truncation {need} on", needed=need)
        branches = [BranchParam(leaf_to_coords(leaf, trunc)) for leaf in self.leaves]
        if self.x_axis:
            branches.append(BranchParam((Series.zero(trunc), Series.variable(trunc))))
        for b in branches:
            residual = self.local.eval_series(list(b.coords))
            if not residual.is_zero_at_precision():
                raise D0resError("branch residual does not vanish at precision")
        total = sum(branch_multiplicity(b) for b in branches)
        expected = self.local.min_degree()
        if total != expected:
            raise D0resError(
                f"branch multiplicities sum to {total}, expected germ multiplicity "
                f"{expected}; decomposition incomplete"
            )
        return branches


def newton_tree(curve: PlaneCurveInput, ctx: FieldContext,
                max_depth=None) -> NewtonTree:
    """The Newton-polygon tree of the germ at the designated point, with
    any field extension its roots need adjoined to ctx.  A tree deeper than
    max_depth levels asks for a truncation above it
    (`puiseux.expansion_leaves`).

    Branch order: the y=0 tail first, then polygon edges by increasing slope
    with characteristic roots in deterministic order, then the x=0 axis last.

    Each branch has, in each chart c it passes through, root first, the
    orders (a, b) = (ord_t x_c, ord_t y_c) of `puiseux.chart_orders`, None
    standing for an infinite order; the y = 0 tail has (1, None), and the
    x = 0 axis (None, 1) in the root chart only.  Two leaves pass
    through the same charts as far as their order keys agree, and part in
    the next one.  So n_i = min(a_i, b_i) in the root chart, and l_ij is
    the sum of min(a_i*b_j, a_j*b_i) over the charts both pass through,
    the chart where they part included: the toric (Halphen-Zeuthen)
    recursion l = p*q*m_i*m_j + l(next chart) while two branches share a
    level (p, q, A, B), and the contact of two Puiseux leading terms where
    they part (Wall, Singular Points of Plane Curves, 2004).
    """
    f = local = curve.local_poly()
    xdeg = f.monomial_content(0)
    if xdeg:
        if xdeg > 1:
            raise D0resError("input is not reduced (x-axis factor repeated)")
        f = f.divide_by_monomial(0, 1)
    leaves = ()
    if scalar_is_zero(f.coefficient((0, 0))):
        leaves = tuple(expansion_leaves(f, ctx, max_depth))
    keys = [leaf.order_key for leaf in leaves] + [()] * bool(xdeg)
    orders = [chart_orders(leaf) for leaf in leaves] + [[(None, 1)]] * bool(xdeg)
    k = len(orders)
    if not k:
        raise D0resError("no branches through the designated point")
    l_matrix = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            shared = 0
            while (shared < min(len(keys[i]), len(keys[j]))
                   and keys[i][shared] == keys[j][shared]):
                shared += 1
            l_matrix[i][j] = l_matrix[j][i] = sum(
                _chart_contact(u, v)
                for u, v in zip(orders[i][:shared + 1], orders[j][:shared + 1]))
    return NewtonTree(local=local, leaves=leaves, x_axis=bool(xdeg),
                      n=tuple(min(o for o in ab[0] if o is not None) for ab in orders),
                      l_matrix=tuple(tuple(row) for row in l_matrix))


def _chart_contact(u, v):
    """min(a_i*b_j, a_j*b_i) for the orders u = (a_i, b_i) and v = (a_j, b_j)
    of two branches in one chart, None standing for an infinite order."""
    return min(s * t for s, t in ((u[0], v[1]), (v[0], u[1]))
               if s is not None and t is not None)


def newton_puiseux(curve, trunc: int, ctx: FieldContext = None):
    """Complete branch decomposition of the germ at the designated point,
    lifted to truncation trunc, in the order of its `newton_tree`.

    `curve` is a PlaneCurveInput, whose tree is built here with its
    extension adjoined to ctx, or a NewtonTree, which has its extension
    already and serves the lifts at every truncation (`NewtonTree.lift`).
    """
    if not isinstance(curve, NewtonTree):
        curve = newton_tree(curve, FieldContext() if ctx is None else ctx)
    return curve.lift(trunc)


# -- implicit equations ----------------------------------------------------------


def _evaluation_columns(b: BranchParam, degree, nt):
    """(monomials, columns, n): the monomials of degree <= `degree` that can
    be nonzero along the branch mod t^n, n = min(nt, b.trunc), in graded
    order, and one column per monomial, the coefficients of its value.
    They are read off the orders of the truncated coordinates
    (`poly.reachable_values`); every other monomial is zero mod t^n, and
    none is evaluated but the checked corners."""
    n = min(nt, b.trunc)
    monomials, values = reachable_values([s.truncate(n) for s in b.coords],
                                         degree)
    return monomials, [list(v.coeffs) for v in values], n


def _is_monomial(s: Series) -> bool:
    return sum(1 for c in s.coeffs if not scalar_is_zero(c)) == 1


def _monomial_chart(b: BranchParam) -> BranchParam:
    """The plane branch b in a parameter s with x = a*s^n, n = ord x.

    Write x = a*t^n*u(t) with u(0) = 1.  Then s = t*w(t) with w = u^(1/n)
    gives x = a*s^n.  w comes from the Miller power recurrence
    w_k = sum_{j=1..k} ((1/n + 1)*j - k) * u_j * w_(k-j) / k, and the
    inverse t = s*v(s) from Lagrange inversion,
    [s^k] v = [t^k] w^-(k+1) / (k+1).  x is known mod t^T, so u, w and v
    are known mod t^(T - n), and `BranchParam.reparametrized` truncates
    the chart there.  Composed with s*v(s), x reads a*s^n mod s^(T - n),
    and the true x of the branch is a*s^n*(1 + O(s^(T - n))).
    """
    xs, _ = b.coords
    n, trunc = xs.order(), b.trunc
    prec = trunc - n
    if prec <= n:
        raise RaiseTruncation(
            f"the chart x = a*s^{n} needs truncation above {2 * n}",
            needed=2 * trunc)
    a = xs.coeffs[n]
    u = [c / a for c in xs.coeffs[n:trunc]]
    exponent = Fraction(1, n) + 1
    w = [_ONE]
    for k in range(1, prec):
        acc = _ZERO
        for j in range(1, k + 1):
            if not scalar_is_zero(u[j]):
                acc = acc + (exponent * j - k) * u[j] * w[k - j]
        w.append(acc / k)
    h = Series(w).invert()
    power, v = Series.one(prec), []
    for k in range(prec):
        power = power * h                       # h^(k+1)
        v.append(power.coeffs[k] / (k + 1))
    return b.reparametrized(Series(v))


def implicit_equation(b: BranchParam) -> Poly:
    """Local equation of a plane branch to the working precision.

    Monic Weierstrass form y^n + c_1(x) y^(n-1) + ... + c_n(x), n = ord x,
    with no linear algebra.  In a chart where x = a*t^n (`_monomial_chart`
    makes one when x is not a monomial), the Weierstrass polynomial is
    prod_zeta (Y - y(zeta*t)) over the n-th roots of unity zeta.  Its
    power sums are p_k(x) = n * sum_m [t^(n*m)] y(t)^k * a^(-m) * x^m, as
    the sum over zeta of zeta^j is n when n divides j and 0 otherwise, and
    Newton's identities give c_k = -(c_(k-1) p_1 + ... + c_0 p_k) / k with
    c_0 = 1.  No root of unity or field extension enters.

    `BranchParam._equation_chart` picks the chart and the precision T' to
    which y is known there; each c_k is computed to the chart's truncation,
    and `_equation_precision` proves it exact mod x^ceil(T'/n).  For
    polynomial branches each c_k is a polynomial, and once ceil(T'/n)
    passes its degree the result is the exact irreducible equation.
    """
    if b.ambient_dim != 2:
        raise D0resError("implicit equations are for plane branches only")
    xs, ys = b.coords
    n = xs.order()
    if n is None:
        if ys.order() is None:
            raise D0resError("degenerate branch")
        return Poly.variable(2, 0)
    xs, ys, _ = b._equation_chart
    length = -(-ys.trunc // n)
    a = xs.coeffs[n]
    scale = [_ONE]                      # a^(-m)
    for _ in range(1, length):
        scale.append(scale[-1] / a)
    sums, y_power = [], ys
    for k in range(1, n + 1):
        if k > 1:
            y_power = y_power * ys
        sums.append(Series([n * y_power.coeffs[n * m] * scale[m]
                            for m in range(length)]))
    coeffs = [Series.one(length)]
    for k in range(1, n + 1):
        acc = sums[k - 1]
        for i in range(1, k):
            acc = acc + coeffs[k - i] * sums[i - 1]
        coeffs.append(acc * Fraction(-1, k))
    terms = {}
    for k, c in enumerate(coeffs):
        for m, value in enumerate(c.coeffs):
            terms[(m, n - k)] = value
    return Poly(2, terms)


def _equation_precision(b: BranchParam) -> int:
    """L such that implicit_equation(b) equals the Weierstrass polynomial g
    of the branch modulo x^L, coefficient by coefficient in y.

    Let n = ord x, and in the parameter s of the equation let
    x = a*s^n*(1 + O(s^(T_x - n))) and y be known mod s^T_y, o = ord y.
    The chart r with x = a*r^n exactly has s = r*(1 + O(r^(T_x - n))), and
    y(s) - y(r) = (s - r) * q(r, s) with ord q >= o - 1, so y is known mod
    r^T' with T' = min(T_y, T_x - n + o).  As ord y >= 1, every y^k is
    known mod r^T' too, so the coefficients [r^(n*m)] y^k behind p_k are
    exact for n*m < T', that is for m < L = ceil(T'/n).  Each c_k is a
    polynomial in p_1..p_k over QQ (Newton's identities), so it is exact
    mod x^L as well.

    A monomial x is known mod t^T, so T_x = T_y = T and T' = min(T, T - n
    + o).  Through `_monomial_chart`, T_x = T and T_y = T - n, so
    T' = T - n.  `BranchParam._equation_chart` gives T' together with the
    chart the equation is built in, so route and bound cannot part.  A
    branch with x = 0 has the exact equation x.
    """
    n = b.coords[0].order()
    if n is None:
        return b.trunc - 1
    return -(-b._equation_chart[2] // n)


# -- intersection lengths ----------------------------------------------------------


def colength_intersection_length(bi: BranchParam, bj: BranchParam) -> int:
    """Independent route to l_ij = dim O/(P_i + P_j), counted on branch i.

    O is the ambient power-series ring, m its maximal ideal and P_i, P_j
    the branch ideals.  The ring O_i = O/P_i sits in K[[t]] by pullback
    along branch i, with value semigroup Γ_i, multiplicity m_i and
    conductor c_i.  l_ij is the colength of J = P_j O_i, which is
    #(Γ_i ∖ v(J)) (Kunz 1970).  J holds an element of least order
    e = min v(J), so it holds all of t^(e + c_i) K[[t]], and with N = e + c_i

        l_ij = #(Γ_i ∩ [0, N)) - dim (J mod t^N).

    The generators of J are read off branch j to a precision T that is not
    tied to their degree: W is the space of polynomials of degree <= D
    whose order along branch j is >= T, with

        K = ceil((e + c_i) / m_i) + 1,   T = K m_j + c_j,   D = ceil(T / m_j) - 1,

    where e is the least order of W along branch i.  e is found by raising
    a guess until the W it gives has that least order.  One echelon of
    each monomial's [value along branch j mod t^T | value along branch i]
    gives W's orders along branch i: the pivots past the first T columns.
    A monomial whose order is past both precisions is a zero row, and only
    the others are evaluated (`_evaluation_columns`, `_joined_columns`).

    No spurious generator can lower the count.  An h in W has order >= T
    on branch j; orders >= K m_j + c_j on branch j lie in x^K O_j for a
    coordinate x of order m_j, so h lies in P_j + m^K.  Hence
    I_W = P_i + (W) lies in I + m^K, where I = P_i + P_j.  I_W also holds
    every order >= e + c_i on branch i, so it holds m^(K-1), whose orders
    are >= (K - 1) m_i >= e + c_i.  Then m^(K-1) lies in I + m * m^(K-1),
    so in I by Nakayama's lemma, and I_W lies in I.  A missing generator
    can only raise the count, since a smaller ideal has a larger colength.
    None is missing: f in P_j is its part of degree <= D plus a tail in
    m^(D+1), which lies in m^(K-1), so in I_W.  The part has the tail's order
    on branch j, >= (D + 1) m_j >= T, so it lies in W.  So I_W = I.

    J mod t^N is spanned by h * mono for h in W and monomials mono of
    degree d with d m_i < c_i, the other products having order >= N.  The
    part of h * mono of degree <= D lies in W, and the rest has order
    >= (D + 1) m_i > N on branch i, so these products add nothing to W mod
    t^N: dim (J mod t^N) is the number of W's orders below N.  The count is
    exact.  Space germs take their l_ij, and so their r0, from it.
    """
    mi, mj = branch_multiplicity(bi), branch_multiplicity(bj)
    below_ci, ci = bi._semigroup
    cj = bj._semigroup[1]
    e = mi
    while True:
        k = -(-(e + ci) // mi) + 1
        t_prec = k * mj + cj
        reach = (k - 1) * mi
        if t_prec > bj.trunc or e + ci > bi.trunc:
            raise RaiseTruncation(
                f"colength needs precision {t_prec} on one branch and "
                f"{e + ci} on the other", needed=max(t_prec, e + ci))
        degree = -(-t_prec // mj) - 1
        on_j = _evaluation_columns(bj, degree, t_prec)
        on_i = _evaluation_columns(bi, degree, 2 * reach)
        n_i = on_i[2]
        _, pivots = rref_rows(_joined_columns(on_j, on_i))
        orders = [p - t_prec for p in pivots if p >= t_prec]
        if not orders:
            if n_i < 2 * reach:
                raise RaiseTruncation(
                    "colength generators vanish along the other branch below "
                    f"truncation {n_i}", needed=2 * n_i)
            e = n_i
            continue
        if orders[0] + ci > min(reach, n_i):
            e = orders[0]
            continue
        n = orders[0] + ci
        return below_ci + (n - ci) - sum(1 for v in orders if v < n)


def colength_reach(n, l_matrix, conductors) -> int:
    """The truncation at which `colength_intersection_length(b_i, b_j)`
    decides every pair i < j of branches with multiplicities n,
    intersection lengths l_matrix and conductors c.

    On a plane germ e = min v(J) is l_ij, as J = g_j O_i for the equation
    g_j of branch j.  The count reads branch i to e + c_i and branch j to
    T = K*m_j + c_j with K = ceil((e + c_i) / m_i) + 1, and raises below
    either.  T > l_ij, so the element of order l_ij is seen.  Each guess
    of e on the way is at most the least order along branch i of a space
    W that holds the part of g_j of degree <= D, so at most l_ij unless
    that part cancels to a higher order; such a guess raises, and costs a
    re-lift.  The conductors come first, at c + m (`_value_semigroup`),
    which l_ij + c_i >= m_i + c_i and T >= 2*m_j + c_j cover."""
    need = 0
    for i in range(len(n)):
        for j in range(i + 1, len(n)):
            reach = l_matrix[i][j] + conductors[i]
            k = -(-reach // n[i]) + 1
            need = max(need, reach, k * n[j] + conductors[j])
    return need


def _value_semigroup(b: BranchParam, m: int):
    """(#(Γ ∩ [0, c)), c) for the value semigroup Γ of a branch of
    multiplicity m and its conductor c.  Γ ∩ [0, n) is the pivot set of one
    echelon of the monomials of degree d < n / m taken mod t^n; the others
    have order >= n.  Only those of order below n are evaluated
    (`_evaluation_columns`), so every row is nonzero.  c is where m
    consecutive values first appear: adding m then reaches every later
    integer."""
    if m == 1:
        return 0, 0
    n = 4 * m
    while True:
        _, columns, n = _evaluation_columns(b, -(-n // m) - 1, n)
        _, values = rref_rows(columns)
        for k in range(m - 1, len(values)):
            if values[k] - values[k - m + 1] == m - 1:
                return k - m + 1, values[k - m + 1]
        if n >= b.trunc:
            raise RaiseTruncation(
                f"branch conductor not reached below truncation {n}",
                needed=2 * n)
        n *= 2


def _joined_columns(on_j, on_i):
    """One row per monomial that can be nonzero along either branch: its
    column on branch j, then its column on branch i, from two
    `_evaluation_columns` results.  A monomial live on one branch only is
    zero on the other; a monomial live on neither is a zero row, and is
    left out."""
    (mono_j, cols_j, n_j), (mono_i, cols_i, n_i) = on_j, on_i
    zero_j, zero_i = [_ZERO] * n_j, [_ZERO] * n_i
    by_j, by_i = dict(zip(mono_j, cols_j)), dict(zip(mono_i, cols_i))
    return [by_j.get(e, zero_j) + by_i.get(e, zero_i)
            for e in {**by_j, **by_i}]


# -- germ assembly -------------------------------------------------------------------


def _one_branch(bi: BranchParam, bj: BranchParam) -> bool:
    """True when the plane branches bi and bj, given by polynomials of
    degrees D_i and D_j, are proven one branch at their truncation T.

    Distinct branches meet with l_ij <= D_i*D_j: by Bezout for two image
    curves, each of degree at most its parametrization's, and as l_ij <=
    delta <= (D - 1)(D - 2)/2 for two branches of one curve.  One branch
    has the same orders in every parameter.  In the chart where the
    coordinate u of least order n reads a*s^n (`BranchParam._equation_chart`
    knows the other one, v, mod s^(T - n) at least), l_ij is the sum of
    ord_s(v_j(s) - v_i(zeta*s)) over zeta^n = a_j/a_i.  So agreement past
    s^(D_i*D_j) for one zeta proves one branch.  Each ratio w_k of the s^k
    coefficients of v_j and v_i must be zeta^k: extended Euclid over these
    k and n gives zeta^g for their gcd g, and each w_k must be its power.
    """
    if (bi.degree is None or bj.degree is None or bi.ambient_dim != 2
            or bi.orders() != bj.orders()):
        return False
    bound, n = bi.degree * bj.degree, branch_multiplicity(bi)
    if min(bi.trunc, bj.trunc) - n <= bound:
        return False
    (ui, vi, _), (uj, vj, _) = (
        (b if b.coords[0].order() == n else BranchParam(b.coords[::-1]))._equation_chart
        for b in (bi, bj))
    powers = [(n, uj.coeffs[n] / ui.coeffs[n])]       # (k, zeta^k)
    for k in range(1, bound + 1):
        ci, cj = vi.coeffs[k], vj.coeffs[k]
        if scalar_is_zero(ci) != scalar_is_zero(cj):
            return False
        if not scalar_is_zero(ci):
            powers.append((k, cj / ci))
    g, root = powers[0]                                # root = zeta^g
    for k, w in powers[1:]:
        h = gcd(g, k)
        p = pow(g // h, -1, k // h)                    # p*g + q*k = h
        root, g = root ** p * w ** ((h - p * g) // k), h
    return all(w == root ** (k // g) for k, w in powers)


def critical_rank(n, l_matrix):
    """(bii, l0, r0) of branches with multiplicities n and intersection
    lengths l_matrix: bii = max l_ij (None for one branch), l0 = 1 + bii
    (1 for one branch) and r0 = l0 * lcm(n_i)."""
    k = len(n)
    bii = max((l_matrix[i][j] for i in range(k) for j in range(i + 1, k)),
              default=None)
    l0 = 1 if bii is None else 1 + bii
    return bii, l0, l0 * lcm(*n)


def germ_invariants(branches, point=None, tree=None) -> Germ:
    """Fill n, l_matrix, bii, l0 and r0 for a branch set at one point.

    Branches lifted from a Newton tree `tree` take its n and l_matrix,
    which hold with no truncation; there must be one branch per tree
    branch, each with its tree n as multiplicity.  Explicit branches, plane
    or space, with no tree, take each l_ij from
    `colength_intersection_length`.  A plane pair whose colength asks for
    more truncation and that `_one_branch` proves to be one branch is
    refused as input naming both indices.
    """
    branches = tuple(branches)
    if not branches:
        raise D0resError("a germ needs at least one branch")
    if point is None:
        point = (_ZERO,) * branches[0].ambient_dim
    n = tuple(branch_multiplicity(b) for b in branches)
    k = len(branches)
    if tree is not None:
        if len(tree.n) != k:
            raise D0resError(f"the lift has {k} branches, the Newton tree "
                             f"{len(tree.n)}")
        for i, (tree_n, series_n) in enumerate(zip(tree.n, n)):
            if tree_n != series_n:
                raise D0resError(f"branch {i} has multiplicity {tree_n} in the "
                                 f"Newton tree, {series_n} on the series")
        l_matrix = tree.l_matrix
    else:
        rows = [[None] * k for _ in range(k)]
        for i in range(k):
            for j in range(i + 1, k):
                try:
                    rows[i][j] = rows[j][i] = colength_intersection_length(
                        branches[i], branches[j])
                except RaiseTruncation:
                    if _one_branch(branches[i], branches[j]):
                        raise InputError(f"curve.branches[{j}]",
                                         f"repeats curve.branches[{i}] in "
                                         "another parameter")
                    raise
        l_matrix = tuple(tuple(row) for row in rows)
    bii, l0, r0 = critical_rank(n, l_matrix)
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
        l_matrix=l_matrix,
        bii=bii,
        l0=l0,
        r0=r0,
        notes=tuple(notes),
    )
