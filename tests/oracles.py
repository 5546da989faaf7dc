"""Reference implementations the tests compare the program against.

They compute the same objects as the program by slower, more literal
routes, and only the tests call them:

* reduce_mod / euclid_inverse / fraction_product: number-field arithmetic
  on Fraction coefficients, a rational vector of any length reduced mod
  the monic minimal polynomial by long division, the inverse by extended
  Euclid against the minimal polynomial, and the product as a Fraction
  convolution reduced by reduce_mod; the references for the integer route
  of `NumberField.reduce`, `FieldElement.inverse` and `__mul__`.
* sylvester_resultant_equation: a plane branch's implicit equation by
  eliminating the parameter, Res_s(x - x(s), y - y(s)), with a
  fraction-free (Bareiss) determinant over the polynomial ring; the
  reference for `branches.implicit_equation` on polynomial branches.
  weierstrass_remainder compares the two when x is not a monomial, where
  the resultant is the Weierstrass polynomial times a unit.
* resultant_intersection_length: l_ij as the order along branch i of
  branch j's resultant equation; the reference for the colength that
  `branches.germ_invariants` takes every explicit l_ij from.
* undetermined_coefficients_equation: a plane branch's Weierstrass
  polynomial mod x^M by one dense exact solve (`solve_exact`) of
  g(x(t), y(t)) = 0 mod t^(n*M), exact mod x^K for the conductor-based K
  of undetermined_coefficients_precision; the reference for the power-sum
  route of `branches.implicit_equation`.
* DenseMatrix: an `ExactMatrix` with the whole dense API, checked
  construction, zeros and identity, entries, sums, scalar multiples,
  powers, elimination and rank, in which the tests state their facts.
  The program keeps only the product and equality.
* dense_action / dense_actions: the dense action matrix of a column (the
  lower-triangular Toeplitz matrix of a fiber action) or of a (column, c)
  pair (the jet action [[A, 0], [e c^T, A]]), and the dense
  actions of a `modules.FiniteModule`, which holds only those series.
  They also expand a closed-form power of `modules._action_power`, which
  has the same two shapes.
* multiplication_matrix: multiplication by a series on K[t]/(t^r), one
  shifted column per basis vector t^j; the reference for the Toeplitz
  actions of `modules.fiber_module`.
* eval_series_at_matrix: s(A) for a truncated series and a nilpotent
  matrix, power by power; the reference for the closed-form jet actions
  of `modules.jet_pair`.
* invert_by_recurrence: 1/s for a unit series by the coefficient
  recurrence b_k = -b_0 * sum_{j=1..k} s_j b_{k-j}; the reference for the
  Newton doubling of `Series.invert`.
* series_newton_lift: the Newton lift of a regular tail in `Series`
  arithmetic, g = 1/f_y(x, y) carried and refined once per step; the
  reference for the integer-vector lift of `puiseux.solve_regular_tail`.
* lift_regular_tail_by_inversion: the Newton lift of a regular tail that
  inverts f_y(x, y) from scratch at every step; the reference for the
  carried inverse of `puiseux.solve_regular_tail`.
* DenseModule: a module held by its dense action matrices, of any
  shape, checked by `check_module_dense` when built (`NotNilpotent` names
  an action whose dim-th power is not zero).  `modules.FiniteModule`
  holds only the series of strictly lower-triangular Toeplitz and jet
  actions; the tests build dense views, dense sums, conjugated fibers
  and planted faults as DenseModules and compare the program's series
  readings with them.
* jet_uniformizer / jet_frame / DenseJet: the uniformizer's actions on a
  rank-r fiber and its jet, S and T = [[S, 0], [N, S]], and the frame maps
  eps, incl and proj of a jet of several blocks.  `modules.JetPair` holds
  only the fiber and the jet on one fixed frame and builds neither; a
  `DenseJet` carries them beside its m1 and m2, and checks its frame
  entry by entry when built.
* block_diag / dense_sum: the block-diagonal sum of matrices; the
  DenseModule of a module or of a `modules.DirectSum` of modules, or the
  `DenseJet` of a jet pair or a sum of them, every action and uniformizer
  the block-diagonal sum of its summands'.  The program never builds it: it
  reads a sum through its summands, and the tests compare those readings
  (kills, powers, annihilators) with this dense sum.
* check_module_dense / check_jet_dense: module and jet validation on the
  dense matrices, pairwise commutators, the dim-th power of every action
  and the [[A, 0], [C, A]] frame of every block entry by entry, the
  uniformizer's included; they check that a direct sum's dense matrices
  are a valid module or jet.
* with_bare_rows: an ideal that holds every monomial of its degree bound,
  read at a higher bound by appending those bare rows; it reads a member
  ideal, which the program stores at bound min(r, r0), at the rank r the
  references compute at.
* dense_annihilator: the annihilator of a module from all dim^2 entries
  of every monomial's value, one matrix product per monomial; the
  reference for `modules.annihilator`, which reads a Toeplitz fiber's dim
  first-column entries.
* functional_ideal / fiber_ideal_below_rank: the ideal cut out by
  evaluation functionals on graded monomials, and the annihilator of a
  rank-R fiber read at a degree bound below R, where it need not have
  stabilized; `modules.annihilator` refuses a bound below the fiber's
  rank, and the tests read these for ideals that must be refused.
* padding_support_by_dense_annihilator: the padding check against the
  dense annihilator of each bare rank-r0 fiber at the full bound r; the
  reference for `verify._padding_support_unchanged`, which reads the
  family's verdict on each member ideal at bound r0, the one ideal
  `modules.annihilator` built and `verify._is_fiber_annihilator` checked.
* assembled: the block-diagonal matrix of (block, copies) runs, each
  block a summand's `modules._action_power` expanded by `dense_action`,
  to compare with the dense power of a dense sum.
* expand_jet_power: the dense rows of a tangent witness's printed
  `jet_power`, rebuilt from its (block, copies) runs with "0" off the
  blocks; the report prints the runs, and the tests compare these rows
  with the dense power of the member's dense sum.
* margin_truncation / cut_report: the truncation an analysis once lifted
  to by default, max(32, 8 * max(min(r, r0 + 2)) * max(n)), and a longer
  report cut down to a shorter truncation; the reference for the reports
  at `report.needed_truncation`, which must differ from the reports at
  that margin in nothing but the truncation and the series tails.
* puiseux_transform_by_evaluation: one Newton-polygon level,
  f(A*x^p, x^q*(B + y)) / x^v, by substituting Polys into f
  (`Poly.evaluate`); the reference for `puiseux.puiseux_transform`, which
  builds the same polynomial on the term dict.
* nullspace, eval_poly_at_matrices, nilpotency_index, is_strictly_lower,
  support_length, total_degree: small algebra facts the tests state about
  modules, jets and polynomials (a kernel basis, f at commuting matrices,
  the least k with A^k = 0, zeros on and above the diagonal, the
  dimension of the algebra the actions generate, the largest degree of a
  term).  The program reads none of them.
"""

import copy
from dataclasses import dataclass
from fractions import Fraction

from d0res.branches import BranchParam, _value_semigroup, branch_multiplicity
from d0res.errors import (D0resError, NonCommutingActions, RaiseTruncation,
                          ReducibleModulus)
from d0res.fields import (
    FieldElement,
    format_scalar,
    poly_str,
    power,
    scalar_is_zero,
    upoly_divmod,
    upoly_mul,
    upoly_sub,
    upoly_trim,
)
from d0res.linalg import ExactMatrix, rref_rows
from d0res.modules import (
    AnnihilatorIdeal,
    DirectSum,
    FiniteModule,
    JetPair,
    _evaluation_rows,
    fiber_module,
    kernel_echelon,
)
from d0res.poly import Poly, grlex_key, monomial_values, monomials_upto
from d0res.report import emit_report, parse_request, run_analyze
from d0res.series import Series

_ZERO = Fraction(0)
_ONE = Fraction(1)


def reduce_mod(coeffs, minpoly):
    """The d coefficients of coeffs (lowest degree first, any length) mod
    the monic polynomial minpoly of degree d, by long division."""
    coeffs = list(coeffs)
    d = len(minpoly) - 1
    top = [-c for c in minpoly[:-1]]
    for k in range(len(coeffs) - 1, d - 1, -1):
        c = coeffs[k]
        if c == 0:
            continue
        coeffs[k] = _ZERO
        for i, t in enumerate(top):
            coeffs[k - d + i] += c * t
    out = coeffs[:d]
    out += [_ZERO] * (d - len(out))
    return out


def fraction_product(x: FieldElement, y: FieldElement) -> FieldElement:
    """x * y by a convolution of their Fraction coefficients, reduced by
    reduce_mod."""
    prod = [_ZERO] * (len(x.coeffs) + len(y.coeffs) - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            prod[i + j] += a * b
    return FieldElement(x.field, tuple(reduce_mod(prod, x.field.minpoly)))


def euclid_inverse(x: FieldElement) -> FieldElement:
    """1/x by extended Euclid against the minimal polynomial, in Fractions;
    ReducibleModulus, with the program's text, on a zero divisor."""
    if x.is_zero():
        raise ZeroDivisionError("division by zero field element")
    minpoly = x.field.minpoly
    # invariant: r_i = s_i * m + t_i * x as polynomials
    r0, r1 = list(minpoly), list(x.coeffs)
    t0, t1 = [_ZERO], [_ONE]
    while any(c != 0 for c in r1):
        q, r = upoly_divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, upoly_sub(t0, upoly_mul(q, t1))
    r0 = upoly_trim(r0)
    if len(r0) != 1:
        raise ReducibleModulus(
            f"{x} is a zero divisor (reducible modulus "
            f"{poly_str(minpoly, 'a')}); the minimal polynomial "
            "must be irreducible over QQ"
        )
    inv_lead = 1 / r0[0]
    return FieldElement(x.field, tuple(
        reduce_mod([c * inv_lead for c in t0], minpoly)))


class NotNilpotent(D0resError):
    """A matrix expected to be nilpotent is not (support not punctual)."""


class DenseMatrix(ExactMatrix):
    """An `ExactMatrix` with the dense API: built from any rows of ints,
    `Fraction`s and `FieldElement`s, checked for ragged rows; entries,
    sums, scalar multiples, powers, elimination and rank.  Products of two
    DenseMatrices run the program's `ExactMatrix.__mul__`."""

    __slots__ = ()

    def __init__(self, data):
        data = tuple(tuple(_norm(x) for x in row) for row in data)
        if data and any(len(row) != len(data[0]) for row in data):
            raise D0resError("ragged matrix rows")
        self.data = data
        self.rows = len(data)
        self.cols = len(data[0]) if data else 0

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[_ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    def __getitem__(self, idx):
        i, j = idx
        return self.data[i][j]

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"DenseMatrix[{self.rows}x{self.cols}: {body}]"

    def is_zero(self):
        return all(scalar_is_zero(x) for row in self.data for x in row)

    def is_square(self):
        return self.rows == self.cols

    def flat(self):
        """Row-major entry tuple (used to column-ize matrices)."""
        return tuple(x for row in self.data for x in row)

    def _same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise D0resError("shape mismatch")

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._same_shape(other)
        return DenseMatrix([[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._same_shape(other)
        return DenseMatrix([[a - b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.data, other.data)])

    def __neg__(self):
        return DenseMatrix([[-x for x in row] for row in self.data])

    def scale(self, scalar):
        return DenseMatrix([[x * scalar for x in row] for row in self.data])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.scale(other)
        return super().__mul__(other)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        if not self.is_square():
            raise D0resError("powers need a square matrix")
        if n < 0:
            raise D0resError("negative matrix power")
        return power(self, n, DenseMatrix.identity(self.rows))

    def rref(self):
        """(reduced row echelon form, pivot columns); deterministic pivoting."""
        rows, pivots = rref_rows([list(r) for r in self.data])
        return DenseMatrix(rows), pivots

    def rank(self):
        if self.rows == 0 or self.cols == 0:
            return 0
        return len(self.rref()[1])


def _norm(x):
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (Fraction, FieldElement)):
        return x
    raise D0resError(f"not an exact scalar: {x!r}")


def dense_action(column, c=None) -> DenseMatrix:
    """The dense action of a fiber column, the lower-triangular Toeplitz
    matrix of `column`, entry (i, j) = column_(i-j) on and below the
    diagonal and zero above it; or, with a row `c`, the jet action
    [[A, 0], [e c^T, A]], A that Toeplitz matrix and e the last unit
    vector.  `modules._action_power`'s (column, row) is expanded the same
    way."""
    r, s = column.trunc, column.coeffs
    a = [[s[i - j] if i >= j else _ZERO for j in range(r)] for i in range(r)]
    if c is None:
        return DenseMatrix(a)
    zeros = [_ZERO] * r
    rows = [row + zeros for row in a] + [zeros + row for row in a]
    rows[-1][:r] = c
    return DenseMatrix(rows)


def dense_actions(module) -> tuple:
    """The dense action matrices of a `modules.FiniteModule`, written from
    the columns or the (column, c) jets it holds."""
    if module.columns is not None:
        return tuple(dense_action(col) for col in module.columns)
    return tuple(dense_action(col, c) for col, c in module.jets)


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


def resultant_intersection_length(bi: BranchParam, bj: BranchParam) -> int:
    """ord_t of `sylvester_resultant_equation(bj)` along branch i.

    The resultant of a polynomial branch is the equation of its image
    curve raised to the degree of t -> b_j(t) onto that image, and the order
    along branch i counts every branch of the image at the origin.  So the
    order is l_ij when t -> b_j(t) is birational and only t = 0 maps to
    the origin, as for a primitive (a*t^n, y(t)) and for the branches the
    tests pass.  An order at or past branch i's truncation asks for more."""
    order = sylvester_resultant_equation(bj).eval_series(list(bi.coords)).order()
    if order is None:
        raise RaiseTruncation("the resultant vanishes along the other branch "
                              f"below truncation {bi.trunc}", needed=2 * bi.trunc)
    return order


def weierstrass_remainder(f: Poly, g: Poly, bound: int) -> Poly:
    """The remainder of f on division by g, monic in y, with every
    coefficient taken mod x^bound.  It is zero when f is g times a series
    in K[[x]][y] modulo x^bound."""
    n = g.degree_in(1)
    if g.terms.get((0, n)) != 1 or any(e[1] == n and e != (0, n) for e in g.terms):
        raise D0resError("division needs an equation monic in y")
    rem = {e: c for e, c in f.terms.items() if e[0] < bound}
    while True:
        top = max((e[1] for e in rem), default=-1)
        if top < n:
            return Poly(2, rem)
        for e in [e for e in rem if e[1] == top]:
            c = rem.pop(e)
            for (gm, gk), gc in g.terms.items():
                if (gm, gk) == (0, n) or e[0] + gm >= bound:
                    continue
                key = (e[0] + gm, top - n + gk)
                value = rem.get(key, _ZERO) - c * gc
                if scalar_is_zero(value):
                    rem.pop(key, None)
                else:
                    rem[key] = value


def solve_exact(rows, rhs):
    """One exact solution of A x = b, or None when inconsistent.

    Free variables are set to zero (rref particular solution); also returns
    the number of free variables so callers can detect non-uniqueness:
    (solution, n_free) or (None, 0).
    """
    if not rows:
        return [], 0
    ncols = len(rows[0])
    augmented = [list(r) + [v] for r, v in zip(rows, rhs)]
    red, pivots = rref_rows(augmented)
    if ncols in pivots:
        return None, 0
    solution = [_ZERO] * ncols
    for i, p in enumerate(pivots):
        solution[p] = red[i][ncols]
    return solution, ncols - len(pivots)


def undetermined_coefficients_equation(b: BranchParam) -> Poly:
    """Weierstrass form y^n + a_(n-1)(x) y^(n-1) + ... + a_0(x), n = ord x,
    each a_k truncated at x^M for M = trunc // n - 1, solved exactly by
    undetermined coefficients from g(x(t), y(t)) = 0 mod t^(n*M).  When
    some x^m y^k near the top of the window are dependent mod t^(n*M), as
    for (t^2, t^4 + t^7), the free coefficients are set to zero; the
    result is exact mod x^K for the K of
    `undetermined_coefficients_precision`."""
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
    q_max = max(o for o in b.orders() if o is not None)
    if m_cap < max(2, q_max + 1):
        raise RaiseTruncation(
            "truncation too small to solve for the branch equation",
            needed=n * (q_max + 3))
    t_prec = n * m_cap
    exponents = [(m, k) for k in range(n) for m in range(m_cap)] + [(0, n)]
    *products, y_n = monomial_values([s.truncate(nt) for s in b.coords],
                                     exponents, Series.one(nt))
    columns, labels = [], []
    for exp, prod in zip(exponents, products):
        col = prod.coeffs[:t_prec]
        if any(not scalar_is_zero(c) for c in col):
            columns.append(col)
            labels.append(exp)
    rows = [[col[i] for col in columns] for i in range(t_prec)]
    solution, _ = solve_exact(rows, [-c for c in y_n.coeffs[:t_prec]])
    if solution is None:
        raise RaiseTruncation(
            "no truncated branch equation at this precision", needed=2 * nt)
    terms = {(0, n): Fraction(1)}
    terms.update(zip(labels, solution))
    return Poly(2, terms)


def undetermined_coefficients_precision(b: BranchParam) -> int:
    """K such that `undetermined_coefficients_equation(b)` is exact mod
    x^K: K = M - ceil(c / n), c the branch's conductor.  The solution
    differs from the Weierstrass polynomial g by h of y-degree < n and
    order >= n M along the branch; every element of the branch ring of
    order >= n K + c lies in x^K times it, and Weierstrass division of h
    by g then leaves h = x^K r' with r' of y-degree < n.  A branch with
    x = 0 has the exact equation x."""
    n = b.coords[0].order()
    if n is None:
        return b.trunc - 1
    _, c = _value_semigroup(b, branch_multiplicity(b))
    return b.trunc // n - 1 - -(-c // n)


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


def total_degree(f: Poly) -> int:
    """The largest total degree of a term of f; -1 for the zero Poly."""
    return max(map(sum, f.terms), default=-1)


def _poly_div_exact(num: Poly, den: Poly) -> Poly:
    if total_degree(den) == 0:
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


def multiplication_matrix(s: Series, r: int) -> DenseMatrix:
    """Multiplication by s on K[t]/(t^r) in the power basis: column j is
    t^j * s(t) mod t^r."""
    cols = []
    for j in range(r):
        shifted = [_ZERO] * r
        for i, c in enumerate(s.coeffs[: max(0, r - j)]):
            shifted[i + j] = c
        cols.append(shifted)
    return DenseMatrix([[cols[j][i] for j in range(r)] for i in range(r)])


def eval_series_at_matrix(s, matrix: DenseMatrix):
    """s(A) for a truncated series s and nilpotent A with A^trunc == 0.

    Exact as long as the nilpotency index of A is at most the truncation of s;
    the caller is responsible for that precondition (checked cheaply here).
    The tests compare `modules.jet_pair`'s closed-form jet actions with it.
    """
    n = matrix.rows
    if not matrix.is_square():
        raise D0resError("series evaluation needs a square matrix")
    acc = DenseMatrix.zeros(n, n)
    power = DenseMatrix.identity(n)
    for k, c in enumerate(s.coeffs):
        if k > 0:
            power = power * matrix
            if power.is_zero():
                return acc
        if not scalar_is_zero(c):
            acc = acc + power.scale(c)
    if not (power * matrix).is_zero():
        raise D0resError(
            "matrix is not nilpotent within the series truncation; "
            "the evaluation would be inexact"
        )
    return acc


def invert_by_recurrence(s: Series) -> Series:
    """1/s for a unit series s, one coefficient at a time:
    b_k = -b_0 * sum_{j=1..k} s_j b_{k-j}, with b_0 = 1/s_0."""
    if scalar_is_zero(s.coeffs[0]):
        raise D0resError("only unit series (order 0) are invertible")
    a0 = s.coeffs[0]
    inv0 = 1 / a0 if isinstance(a0, Fraction) else a0.inverse()
    out = [inv0]
    for k in range(1, s.trunc):
        acc = _ZERO
        for j in range(1, k + 1):
            if not scalar_is_zero(s.coeffs[j]):
                acc = acc + s.coeffs[j] * out[k - j]
        out.append(-inv0 * acc)
    return Series(out)


def series_newton_lift(f1, trunc) -> Series:
    """The series y(x) with y(0) = 0 and f1(x, y(x)) = 0 mod x^trunc, by
    the Newton lift of `puiseux.solve_regular_tail` written in `Series`
    arithmetic: y <- y - f1(x, y) * g mod x^m, m = min(2n, trunc), with
    g = f_y(x, y)^-1 mod x^(m-n) carried from 1/f_y(0, 0) and refined by
    g <- g - g * (f_y(x, y) * g - 1) once per step, every value a
    `Poly.eval_series` and every product a `Series` product.  Needs
    f1(0, 0) = 0 and f1_y(0, 0) != 0."""
    fy = f1.diff(1)
    y, n = Series.zero(1), 1
    g = Series([fy.coefficient((0, 0))]).invert()
    while n < trunc:
        m = min(2 * n, trunc)
        y = Series(y.coeffs, m)
        val = f1.eval_series([Series.variable(m), y])
        g = Series(g.coeffs, m - n)
        dfy = fy.eval_series([Series.variable(m - n), y.truncate(m - n)])
        g = g - g * (dfy * g - Series.one(m - n))
        y, n = y - val * Series(g.coeffs, m), m
    return Series(y.coeffs, trunc)


def lift_regular_tail_by_inversion(f1, trunc) -> Series:
    """The series y(x) with y(0) = 0 and f1(x, y(x)) = 0 mod x^trunc, by
    the Newton lift y <- y - f1(x, y) * g mod x^m, m = min(2n, trunc), that
    inverts g = f_y(x, y)^-1 from scratch at precision m - n every step.
    Needs f1(0, 0) = 0 and f1_y(0, 0) != 0."""
    fy = f1.diff(1)
    y, n = Series.zero(1), 1
    while n < trunc:
        m = min(2 * n, trunc)
        y = Series(y.coeffs, m)
        val = f1.eval_series([Series.variable(m), y])
        g = fy.eval_series([Series.variable(m - n), y.truncate(m - n)]).invert()
        y, n = y - val * Series(g.coeffs, m), m
    return Series(y.coeffs, trunc)


def jet_uniformizer(r: int):
    """(S, T): the uniformizer t acting on the rank-r fiber K[t]/(t^r), the
    r x r down-shift S, and on its 2r-dimensional jet, T = [[S, 0], [N, S]]
    on (tops, bottoms), N = r*eps from the last top.  A coordinate s acts
    on the fiber as s(S) and on the jet as s(T); S has nilpotency index r
    and T, as the jet does not split, r + 1."""
    shift = [[_ZERO] * r for _ in range(r)]
    for i in range(r - 1):
        shift[i + 1][i] = _ONE
    data = [[_ZERO] * (2 * r) for _ in range(2 * r)]
    for i in range(2 * r - 1):
        data[i + 1][i] = _ONE
    data[r][r - 1] = _ZERO
    data[2 * r - 1][r - 1] = Fraction(r)
    return DenseMatrix(shift), DenseMatrix(data)


def _frame_indices(blocks):
    """The jet indices of the tops and of the bottoms, in fiber order: a
    rank-k block has k tops, then their k eps-multiples, the bottoms."""
    tops, bottoms, start = [], [], 0
    for k in blocks:
        tops += range(start, start + k)
        bottoms += range(start + k, start + 2 * k)
        start += 2 * k
    return tops, bottoms


def jet_frame(blocks):
    """(eps, incl, proj) of the jet frame of `blocks`: eps maps each top to
    its bottom, incl embeds the fiber onto the bottoms and proj reads the
    tops, so 0 -> M1 -> M2 -> M1 -> 0 is exact."""
    tops, bottoms = _frame_indices(blocks)
    r = len(tops)

    def unit(rows, cols, ones):
        data = [[_ZERO] * cols for _ in range(rows)]
        for i, j in ones:
            data[i][j] = _ONE
        return DenseMatrix(data)

    return (unit(2 * r, 2 * r, zip(bottoms, tops)),
            unit(2 * r, r, zip(bottoms, range(r))),
            unit(r, 2 * r, zip(range(r), tops)))


@dataclass(frozen=True)
class DenseModule:
    """A module held by its dense action matrices alone, whatever their
    shape; `check_module_dense` checks it when built."""

    dim: int
    actions: tuple

    def __post_init__(self):
        check_module_dense(self)

    @property
    def ambient_dim(self):
        return len(self.actions)

    def same_presentation(self, other) -> bool:
        return (isinstance(other, DenseModule) and self.dim == other.dim
                and self.actions == other.actions)


@dataclass(frozen=True)
class DenseJet:
    """A jet laid out densely: the fiber m1 and the jet m2, each a
    DenseModule, the uniformizer's actions t_m1 and t_m2,
    and the ranks `blocks` of its direct summands, each on its own frame,
    laid end to end.  Its frame is checked entry by entry when built
    (`check_jet_frame`)."""

    m1: DenseModule
    m2: DenseModule
    t_m1: DenseMatrix
    t_m2: DenseMatrix
    blocks: tuple

    def __post_init__(self):
        check_jet_frame(self)

    @property
    def rank(self):
        return self.m1.dim

    @property
    def eps(self):
        return jet_frame(self.blocks)[0]

    @property
    def incl(self):
        return jet_frame(self.blocks)[1]

    @property
    def proj(self):
        return jet_frame(self.blocks)[2]


def block_diag(*blocks):
    """The block-diagonal sum of `blocks`; rectangular blocks too."""
    out = [[_ZERO] * sum(b.cols for b in blocks)
           for _ in range(sum(b.rows for b in blocks))]
    r0 = c0 = 0
    for b in blocks:
        for i, brow in enumerate(b.data):
            out[r0 + i][c0:c0 + b.cols] = brow
        r0 += b.rows
        c0 += b.cols
    return DenseMatrix(out)


def dense_sum(member):
    """The DenseModule of a `FiniteModule` (`dense_actions`) or of a
    `DirectSum` of modules, its actions the block-diagonal sums of its
    runs'; the `DenseJet` of a jet pair or of a `DirectSum` of jet pairs,
    each summand one block with the uniformizer of `jet_uniformizer`; any
    other module or jet as it is."""
    if isinstance(member, FiniteModule):
        return DenseModule(member.dim, dense_actions(member))
    if isinstance(member, JetPair):
        return DenseJet(dense_sum(member.m1), dense_sum(member.m2),
                        *jet_uniformizer(member.rank), (member.rank,))
    if not isinstance(member, DirectSum):
        return member
    runs = [(dense_sum(s), copies) for s, copies in member.runs]

    def block_sum(matrix_of):
        return block_diag(*[matrix_of(s) for s, copies in runs
                            for _ in range(copies)])

    if isinstance(runs[0][0], DenseModule):
        return DenseModule(member.dim, tuple(
            block_sum(lambda s: s.actions[k]) for k in range(member.ambient_dim)))
    return DenseJet(dense_sum(member.m1), dense_sum(member.m2),
                    block_sum(lambda s: s.t_m1), block_sum(lambda s: s.t_m2),
                    tuple(k for s, copies in runs for k in s.blocks * copies))


def check_module_dense(module):
    """Raise D0resError unless the dense actions are square of the module
    dim, commute pairwise (by their products; `NonCommutingActions`) and
    are nilpotent (by their dim-th powers, with no triangularity
    shortcut; `NotNilpotent`)."""
    acts = module.actions
    if any(not a.is_square() or a.rows != module.dim for a in acts):
        raise D0resError("action matrices must be square of the module dim")
    for i in range(len(acts)):
        for j in range(i + 1, len(acts)):
            if acts[i] * acts[j] != acts[j] * acts[i]:
                raise NonCommutingActions("coordinate actions must commute")
    for a in acts:
        if not (a ** module.dim).is_zero():
            raise NotNilpotent("action is not nilpotent")


def check_jet_frame(jet):
    """Raise D0resError unless the jet's blocks are positive and fit its
    dims, and every M2 action, the uniformizer's included, reads
    [[A, 0], [C, A]] on the (tops, bottoms) of its blocks, A its M1
    counterpart, entry by entry."""
    if (any(k < 1 for k in jet.blocks) or sum(jet.blocks) != jet.m1.dim
            or jet.m2.dim != 2 * jet.m1.dim):
        raise D0resError("jet blocks do not fit the module dims")
    tops, bottoms = _frame_indices(jet.blocks)
    pairs = list(zip(jet.m2.actions, jet.m1.actions)) + [(jet.t_m2, jet.t_m1)]
    for a2, a1 in pairs:
        if (a1.rows, a2.rows) != (len(tops), 2 * len(tops)):
            raise D0resError("action has the wrong shape for the jet frame")
        for i, (ti, bi) in enumerate(zip(tops, bottoms)):
            for j, (tj, bj) in enumerate(zip(tops, bottoms)):
                if (not scalar_is_zero(a2[ti, bj]) or a2[ti, tj] != a1[i, j]
                        or a2[bi, bj] != a1[i, j]):
                    raise D0resError("action is off the jet frame")


def check_jet_dense(jet):
    """Raise D0resError unless both modules of the `DenseJet` of `jet` pass
    `check_module_dense` and its frame passes `check_jet_frame`."""
    jet = dense_sum(jet)
    check_module_dense(jet.m1)
    check_module_dense(jet.m2)
    check_jet_frame(jet)


def dense_annihilator(module, degree_bound: int):
    """The annihilator of `module` at `degree_bound`: every monomial up to
    that degree evaluated on the dense action matrices (`dense_sum`), one
    row per entry of the dim x dim values, whatever the actions' shape."""
    module = dense_sum(module)
    monomials = monomials_upto(module.ambient_dim, degree_bound)
    values = monomial_values(module.actions, monomials,
                             DenseMatrix.identity(module.dim))
    cols = [value.flat() for value in values]
    rows = [[col[i] for col in cols] for i in range(module.dim * module.dim)]
    return functional_ideal(degree_bound, monomials, rows)


def functional_ideal(degree_bound, monomials, rows):
    """The AnnihilatorIdeal at `degree_bound` cut out by the evaluation
    functionals `rows` on the graded `monomials` of degree <= bound, one
    `modules.kernel_echelon`; a monomial left out is a bare row."""
    basis = kernel_echelon(rows, len(monomials))
    return AnnihilatorIdeal(degree_bound, tuple(monomials),
                            tuple(tuple(sorted(row.items())) for row in basis))


def fiber_ideal_below_rank(b, rank: int, bound: int):
    """The annihilator of fiber_module(b, rank) at a degree bound that may
    lie below the rank, which `modules.annihilator` refuses: the fiber's
    first-column functionals on the monomials of degree <= bound it
    reaches (`modules._evaluation_rows`).  Below the rank it need not hold
    every monomial of its bound."""
    return functional_ideal(bound, *_evaluation_rows(fiber_module(b, rank),
                                                     bound))


def padding_support_by_dense_annihilator(germ, r: int, ideals) -> bool:
    """Each member ideal in `ideals` equals the dense annihilator of its
    bare rank-r0 fiber, every monomial up to degree r evaluated on the
    fiber's action matrices."""
    if r == germ.r0:
        return True
    return all(dense_annihilator(fiber_module(b, germ.r0), r) == ideal
               for b, ideal in zip(germ.branches, ideals))


def with_bare_rows(ideal, bound: int):
    """`ideal` at the higher degree bound `bound`: its rows, then one bare
    row for each monomial of degree above its own bound, on the graded
    monomials up to `bound`.  This is the ideal at `bound` when `ideal`
    holds every monomial of its own bound."""
    monomials = monomials_upto(ideal.nvars, bound)
    start = len(ideal.monomials)
    if bound < ideal.degree_bound or tuple(monomials[:start]) != ideal.monomials:
        raise D0resError("bare rows extend an ideal on its graded monomials")
    bare = tuple(((c, Fraction(1)),) for c in range(start, len(monomials)))
    return AnnihilatorIdeal(bound, monomials, ideal.rows + bare)


def assembled(runs):
    """The block-diagonal sum of the (block, copies) `runs`."""
    return block_diag(*[b for b, c in runs for _ in range(c)])


def expand_jet_power(runs):
    """The rows of the block-diagonal matrix whose printed runs are `runs`,
    [{"block": rows, "copies": c}, ...]: each block `c` times down the
    diagonal, every entry off the blocks formatted zero."""
    blocks = [run["block"] for run in runs for _ in range(run["copies"])]
    size = sum(len(block) for block in blocks)
    zero = format_scalar(_ZERO)
    rows, start = [], 0
    for block in blocks:
        for row in block:
            rows.append([zero] * start + row
                        + [zero] * (size - start - len(row)))
        start += len(block)
    return rows


def margin_truncation(report) -> int:
    """The truncation the margin rule max(32, 8 * r * max(n)), each
    certified rank r capped at r0 + 2, gives the germ of `report`."""
    germ = report["germ"]
    ranks = [min(cert["rank"], germ["r0"] + 2) for cert in report["certificates"]]
    return max(32, 8 * max(ranks) * max(germ["n"]))


def cut_report(report, trunc: int):
    """`report` with every printed series cut below `trunc`, every
    truncation field set to `trunc` and no echoed truncation."""
    out = copy.deepcopy(report)
    out["input"].pop("truncation", None)
    out["truncation"] = trunc
    for branch in out["germ"]["branches"]:
        for name in ("x", "y", "z", "w"):
            if name in branch:
                branch[name] = [pair for pair in branch[name] if pair[0] < trunc]
        branch["truncation"] = trunc
    return out


def margin_report_mismatches(request_obj) -> list:
    """The formats in which the report of `request_obj` differs from its
    report at the margin's truncation (`margin_truncation`) cut down to
    the report's own truncation (`cut_report`); empty when only the
    truncation fields, the echoed truncation and the series tails differ.
    Raises if the margin lift is not the longer one."""
    short = run_analyze(parse_request(request_obj))
    margin = margin_truncation(short)
    long = run_analyze(parse_request({**request_obj, "truncation": margin}))
    if long["truncation"] < short["truncation"]:
        raise D0resError(f"the margin's lift {long['truncation']} is shorter "
                         f"than the need {short['truncation']}")
    cut = cut_report(long, short["truncation"])
    return [fmt for fmt in ("json", "text")
            if emit_report(cut, fmt) != emit_report(short, fmt)]


def puiseux_transform_by_evaluation(f: Poly, p, q, A, B) -> Poly:
    """f(A*x1^p, x1^q*(B + y1)) divided by the largest power of x1, by
    substituting the two Polys into f."""
    x1 = Poly(2, {(p, 0): A})
    y1 = Poly(2, {(q, 1): Fraction(1), (q, 0): B})
    g = f.evaluate([x1, y1], Poly.constant(2, Fraction(1)))
    v = g.monomial_content(0)
    if v:
        g = g.divide_by_monomial(0, v)
    return g


def nullspace(m: DenseMatrix):
    """Exact basis of the right kernel of m, one vector per free column.

    The vector for free column f has 1 in slot f and -rref[i][f] in the
    i-th pivot slot.  Empty list iff m is injective on columns.
    """
    if m.cols == 0:
        return []
    if m.rows == 0:
        rref_data, pivots = [], []
    else:
        reduced, pivots = m.rref()
        rref_data = reduced.data
    pivot_set = set(pivots)
    basis = []
    for f in range(m.cols):
        if f in pivot_set:
            continue
        vec = [_ZERO] * m.cols
        vec[f] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -rref_data[i][f]
        basis.append(tuple(vec))
    return basis


def eval_poly_at_matrices(f, mats):
    """f(A_1, ..., A_m) for pairwise commuting square matrices of equal size.

    The commutation check is mandatory: without it the substitution is not a
    ring homomorphism and the module axioms are broken.
    """
    if f.nvars != len(mats):
        raise D0resError("polynomial arity != number of matrices")
    if not mats:
        raise D0resError("need at least one matrix")
    n = mats[0].rows
    for m in mats:
        if not m.is_square() or m.rows != n:
            raise D0resError("matrices must be square and same size")
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if mats[i] * mats[j] != mats[j] * mats[i]:
                raise NonCommutingActions(
                    f"action matrices {i} and {j} do not commute"
                )
    return f.evaluate(mats, DenseMatrix.identity(n))


def nilpotency_index(a: DenseMatrix) -> int:
    """Smallest k with a^k = 0; error if not nilpotent within dim steps."""
    if not a.is_square():
        raise D0resError("nilpotency index needs a square matrix")
    power = DenseMatrix.identity(a.rows)
    for k in range(1, a.rows + 1):
        power = power * a
        if power.is_zero():
            return k
    raise NotNilpotent("matrix is not nilpotent within its dimension")


def is_strictly_lower(a: DenseMatrix) -> bool:
    """Square with every entry on and above the diagonal zero, which
    proves it nilpotent (its dim-th power is zero)."""
    return a.is_square() and all(
        scalar_is_zero(x) for i, row in enumerate(a.data) for x in row[i:])


def support_length(module: FiniteModule, degree_bound: int = None) -> int:
    """Dimension of the algebra generated by the actions: the length of the
    scheme-theoretic support.  Checks stabilization at bound+1."""
    if degree_bound is None:
        degree_bound = module.dim
    value = _image_algebra_dim(module, degree_bound)
    check = _image_algebra_dim(module, degree_bound + 1)
    if value != check:
        raise D0resError(
            f"support length not stabilized at degree {degree_bound} "
            f"({value} vs {check})"
        )
    return value


def _image_algebra_dim(module, degree):
    _, rows = _evaluation_rows(module, degree)
    return DenseMatrix(rows).rank()
