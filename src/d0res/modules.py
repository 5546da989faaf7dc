"""Finite-length modules over the ambient local ring, each a fiber held by
the series its commuting nilpotent actions are made of, plus the
first-order jet pairs used by the tangent test.

The key constructions:

* fiber_module(b, r): K[t]/(t^r) with each ambient coordinate acting by
  multiplication with its pullback series: the strictly lower-triangular
  Toeplitz matrix of that series, held as the series truncated to r, its
  first column (`FiniteModule.columns`).  Such actions commute with no
  matrix product, a polynomial in them is the Toeplitz matrix of the same
  polynomial in their columns, and it is zero iff that series is.  So
  `annihilator` eliminates r first-column rows, `verify._kills` evaluates
  a witness on series, and `_action_power` raises an action as a series
  power.  A zero t^0 coefficient in every column makes every action
  nilpotent, and that is checked when a module is built.  The fiber is
  also the jet pair's special fiber, and the certificate reads each
  branch's fiber annihilators off it.
* jet_pair(b, r): the rank-r fiber M1 = fiber_module(b, r) of the branch
  and its first-order jet M2 over the dual numbers (`JetPair`).  A
  coordinate s acts on M2 as [[A, 0], [e c^T, A]], A its action on M1, e
  the last unit vector and c_(r-k) = r*s_k (k = 1..r; s_0 = 0 as the
  branch passes through the origin), so M1 and one row c per coordinate
  fix M2, and they are all the pair holds.  That is s(T) for the jet's
  uniformizer T = [[S, 0], [N, S]], S the r x r down-shift and N = r*eps
  from the last top: S N = 0, so T^k = [[S^k, 0], [N S^(k-1), S^k]].  T
  has nilpotency index r + 1, one more than S, exactly when the jet does
  not split.  jet_pair writes the rows in closed form and builds no
  uniformizer; the tests build T (`tests/oracles.jet_uniformizer`) and
  compare.  Two jet actions commute iff c^T B = d^T A, one 1 x r by r x r
  product per side, and `_action_power` raises them in closed form.  No
  dense action is written: the only matrices a module builds are the
  r x r Toeplitz blocks and 1 x r rows of that check
  (`ExactMatrix._trusted`).  The tests write the dense actions of a fiber
  and of a jet (`tests/oracles.dense_actions`, `dense_jet_actions`) and
  keep dense modules of their own as references.
* graph_skyscraper(b): the rank-1 padding, jet_pair(b, 1); its fiber is
  `.m1`.
* pad(base, filler, copies): the direct sum of base with `copies` copies
  of filler, held as a `DirectSum` of (summand, copies) runs in block
  order; no matrix is built.  Its dims, ranks and (for jets) m1 are
  read off the runs.  Every question the certificate asks of a sum is
  answered summand by summand: a polynomial kills a direct sum iff it
  kills each summand, and a power of a block-diagonal action is the
  block-diagonal sum of the blocks' powers (one closed-form
  `_action_power` per summand, which `verify.CertificateFamily` keeps).
  Each summand was validated when it was built, and block-diagonal
  matrices add and multiply block by block, so the sum's actions
  commute, are nilpotent and read [[A, 0], [C, A]] on the jet frame laid
  end to end because each summand's do.  The tests assemble the dense
  sums (`tests/oracles.py`) and check them on the dense matrices.
* annihilator: the ideal of polynomials killing a fiber, the separation
  invariant, read off the fiber's columns: the dim first-column
  functionals of its Toeplitz actions, one elimination.  The fiber
  K[t]/(t^r) is cyclic, generated by 1, so those functionals are the r
  coefficients of f(x(t)) mod t^r.  Its t^0 row is f -> f(0), so the
  ideal lies in {f : f(0) = 0}, the annihilator of the 1 x 1 graph
  skyscraper, and padding the fiber with skyscrapers does not change it.
  It is the unique reduced echelon basis, so equal ideals are equal
  exactly, not just up to a change of basis.
  `verify` checks each ideal it stores against its branch with a
  different evaluator (`verify._is_fiber_annihilator`).
* reachable monomials: on a fiber, the value of x^e is the product of the
  coordinates' series, and leading coefficients multiply in a field, so
  it has order sum e_k * ord x_k exactly.  A monomial of order >= r is
  zero on K[t]/(t^r): a zero column, free in `kernel_echelon` and
  dependent on nothing, whose basis row is the bare monomial.  So
  `annihilator` evaluates only the monomials of order below r, read off
  the fiber's first columns (`_evaluation_rows`), one series product
  each, and builds no other.
  The skip is checked, not trusted: the minimal skipped monomials, the
  corners of the staircase, are evaluated, and one that is not zero mod
  t^r is an error (`poly.reachable_values`); every other skipped monomial
  is a multiple of a corner.  For y = x^128 at r = 129 that is about 130
  of 8,515 monomials.  The ideal holds its bare rows implicitly
  (`AnnihilatorIdeal`): it stores the live columns and the sparse rows
  `kernel_echelon` gives on them, and a row becomes a polynomial only
  when `polys` is iterated up to it.
* top degree: once an ideal holds every monomial of degree d, its reduced
  echelon basis on graded columns is fixed above d.  Each row that leads
  at degree >= d is that bare monomial, and no row that leads below d has
  an entry at degree >= d.  An `AnnihilatorIdeal` whose live columns all
  lie below d holds both by construction (`holds_top_degree` gives the
  argument and checks it at d = its bound).  So such an ideal is stored
  at bound d and never built higher: two of them are equal at any bound
  >= d iff they are equal at d, and a row above d, a monomial both hold,
  separates nothing.  A punctual module of dim m is killed by every
  monomial of degree >= m, and a fiber K[t]/(t^r) by every monomial of
  degree >= r, as each has order >= r.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .branches import BranchParam
from .errors import D0resError, NonCommutingActions, RaiseTruncation
from .fields import scalar_is_zero
from .linalg import ExactMatrix, rref_rows
from .poly import Poly, graded_monomials, monomials_upto, reachable_values
from .series import Series

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _toeplitz_matrix(s: Series) -> ExactMatrix:
    """The lower-triangular Toeplitz matrix of `s`, multiplication by s on
    K[t]/(t^trunc): entry (i, j) is s_(i-j)."""
    c, r = s.coeffs, s.trunc
    return ExactMatrix._trusted(
        [c[i::-1] + (_ZERO,) * (r - 1 - i) for i in range(r)])


@dataclass(frozen=True)
class FiniteModule:
    """Punctual module at the origin of dimension `dim`, a fiber held by
    the series its actions are made of: for each coordinate, the Series of
    length dim that is its action's first column (`columns`).  The action
    is that series' strictly lower-triangular Toeplitz matrix,
    multiplication in K[t]/(t^dim); such actions always commute.  Built,
    the module checks the lengths and that each column's t^0 coefficient
    is zero, which makes every action strictly lower-triangular and so
    nilpotent."""

    dim: int
    columns: tuple

    def __post_init__(self):
        if any(col.trunc != self.dim for col in self.columns):
            raise D0resError("action columns must fit the module dim")
        if any(not scalar_is_zero(col.coeffs[0]) for col in self.columns):
            raise D0resError("an action's column has a nonzero t^0 "
                             "coefficient, so the action is not nilpotent")

    @property
    def ambient_dim(self):
        return len(self.columns)

    def same_presentation(self, other) -> bool:
        """Equal dims and equal series, which fix equal action matrices;
        False for a `DirectSum`, whose matrices are never built to
        compare."""
        return isinstance(other, FiniteModule) and self == other


@dataclass(frozen=True)
class JetPair:
    """The rank-r fiber M1 of one branch and its first-order jet M2 over
    the dual numbers, held as M1 and one row c of r scalars per
    coordinate (`rows`), and nothing else.

    M2's basis is the r tops, lifting M1's basis, then the r bottoms,
    their eps-multiples, so 0 -> M1 -> M2 -> M1 -> 0 is exact by
    construction.  Coordinate k acts on M2 as [[A_k, 0], [e c_k^T, A_k]],
    A_k the Toeplitz matrix of `m1.columns[k]` and e the last unit vector,
    so every M2 action respects that frame by its shape.

    Built, the pair checks the rows' lengths and that the M2 actions
    commute.  [[A, 0], [e c^T, A]] and [[B, 0], [e d^T, B]] commute iff
    c^T B = d^T A: AB = BA as both are Toeplitz, and A e = B e = 0 as both
    are strictly lower, so the lower-left blocks of the two products are
    e c^T B and e d^T A.
    """

    m1: FiniteModule
    rows: tuple

    def __post_init__(self):
        if (len(self.rows) != self.m1.ambient_dim
                or any(len(c) != self.m1.dim for c in self.rows)):
            raise D0resError("a jet pair needs one c row of the fiber's "
                             "length per coordinate")
        rows = [ExactMatrix._trusted((c,)) for c in self.rows]
        blocks = [_toeplitz_matrix(col) for col in self.m1.columns]
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                if rows[i] * blocks[j] != rows[j] * blocks[i]:
                    raise NonCommutingActions(
                        "coordinate actions must commute")

    @property
    def rank(self):
        return self.m1.dim

    @property
    def ambient_dim(self):
        return self.m1.ambient_dim


def fiber_module(b: BranchParam, r: int) -> FiniteModule:
    """K[t]/(t^r) with coordinates acting by their pullback multiplication,
    each held as its series truncated to r."""
    if r < 1:
        raise D0resError("rank must be positive")
    if b.trunc < r:
        raise RaiseTruncation("fiber construction needs truncation >= rank", needed=r)
    return FiniteModule(r, tuple(s.truncate(r) for s in b.coords))


def jet_pair(b: BranchParam, r: int) -> JetPair:
    """The rank-r jet pair of a branch over its dual-number base."""
    if r < 1:
        raise D0resError("rank must be positive")
    if b.trunc < r + 1:
        raise RaiseTruncation("jet construction needs truncation >= rank+1",
                              needed=r + 1)
    # c_j = r * s_(r-j), j = 0..r-1: the last row of C in [[A, 0], [C, A]]
    return JetPair(fiber_module(b, r),
                   tuple(tuple(r * s.coeffs[r - j] for j in range(r))
                         for s in b.coords))


def graph_skyscraper(b: BranchParam) -> JetPair:
    """The rank-1 padding: the skyscraper's jet pair, jet_pair(b, 1); its
    fiber is `.m1`."""
    return jet_pair(b, 1)


def pad(base, filler, copies: int):
    """The direct sum of `base` with `copies` copies of `filler`, two modules
    or two jet pairs, as a `DirectSum` of their runs; `base` itself when
    `copies` is 0."""
    if copies < 0:
        raise D0resError("copies must be non-negative")
    if not (isinstance(base, FiniteModule) and isinstance(filler, FiniteModule)
            or isinstance(base, JetPair) and isinstance(filler, JetPair)):
        raise D0resError("pad needs two modules or two jet pairs")
    if base.ambient_dim != filler.ambient_dim:
        raise D0resError("ambient dimension mismatch in padding")
    return base if copies == 0 else DirectSum(((base, 1), (filler, copies)))


@dataclass(frozen=True)
class DirectSum:
    """The direct sum of its (summand, copies) `runs`, in block order: all
    FiniteModules or all JetPairs, of one ambient dimension, each with
    copies >= 1.  It is held by its runs alone; no matrix of the sum is
    built (module docstring).  A sum of jet pairs has the sum of its
    summands' m1 as its own."""

    runs: tuple

    def __post_init__(self):
        kind = type(self.runs[0][0]) if self.runs else None
        if kind not in (FiniteModule, JetPair) or any(
                type(s) is not kind or not isinstance(c, int) or c < 1
                for s, c in self.runs):
            raise D0resError("direct summands must be all modules or all jet "
                             "pairs, with positive copy counts")
        if any(s.ambient_dim != self.ambient_dim for s, _ in self.runs):
            raise D0resError("ambient dimension mismatch in padding")

    @property
    def ambient_dim(self):
        return self.runs[0][0].ambient_dim

    @property
    def dim(self):
        return sum(s.dim * c for s, c in self.runs)

    @property
    def rank(self):
        return sum(s.rank * c for s, c in self.runs)

    @property
    def m1(self):
        return DirectSum(tuple((s.m1, c) for s, c in self.runs))

    def same_presentation(self, other) -> bool:
        """Equal runs mean equal block sums.  Different runs read False,
        even where their sums might be equal: no equality is claimed that
        was not checked."""
        return isinstance(other, DirectSum) and self.runs == other.runs


def _action_power(module, coord: int, k: int):
    """The action of coordinate `coord` to the power k >= 1 (every tangent
    exponent is at least 1) on a fiber `module`, or on the jet of a jet
    pair `module`, in closed form, as the (column, row) it is made of; no
    matrix is built.

    A fiber action is multiplication by its column a(t)
    (`FiniteModule.columns`), and its power is multiplication by a(t)^k:
    (a(t)^k, None).  A jet action [[A, 0], [e c^T, A]] (`JetPair`) has the
    power [[A^k, 0], [e w^T, A^k]], w^T = c^T A^(k-1): the lower-left
    block of the power is the sum of A^i e c^T A^j over i + j = k - 1, and
    A^i e = 0 for i >= 1 because A's last column is zero.  So the power is
    (a(t)^k, w), of the jet's own shape.  Entry j of w is
    sum_i c_i q_(i-j), q(t) = a(t)^(k-1), which is the t^(r-1-j)
    coefficient of rev(c)(t) q(t), rev(c) the series of c read backwards.
    At k = 0 a jet action is refused, as a negative series power."""
    if isinstance(module, FiniteModule):
        return module.columns[coord] ** k, None
    col, c = module.m1.columns[coord], module.rows[coord]
    q = col ** (k - 1)
    return q * col, (Series(c[::-1]) * q).coeffs[::-1]


# -- annihilators and lengths ------------------------------------------------------


class AnnihilatorIdeal:
    """Reduced echelon basis of the polynomials (degree <= bound) killing a
    module, on the graded monomials of degree <= bound; comparable across
    modules of the same ambient dimension.  The basis is unique, so equal
    bases mean equal ideals.

    It is held in two parts.  A monomial whose functionals all vanish is a
    zero column: `kernel_echelon` leaves it free, dependent on nothing,
    and its basis row is the bare monomial.  Those rows are held
    implicitly, one for every monomial of degree <= bound that is not
    `live`.  The other rows are `live_rows`, each the (index into `live`,
    coefficient) pairs of its nonzero entries in column order, in the
    order of their leading columns; a live row depends only on pivots, so
    it has no entry at a zero column.

    The constructor takes graded columns `monomials` and sparse `rows` on
    their indices.  A monomial of degree <= bound that is not among them is
    a bare row, and so is a row ((c, 1),) at which no other row has an
    entry: both go to the implicit part, so that equal bases have equal
    parts, and `==` compares those.  `monomials` and `rows` write the whole
    basis out, bare rows and all, for tests; the program reads neither.
    """

    def __init__(self, degree_bound, monomials, rows):
        self.degree_bound = degree_bound
        self.nvars = len(monomials[0])
        rows = tuple(rows)
        bare = {row[0][0] for row in rows if len(row) == 1 and row[0][1] == _ONE}
        if bare:
            bare -= {c for row in rows if len(row) > 1 for c, _ in row}
            kept = [c for c in range(len(monomials)) if c not in bare]
            index = {c: k for k, c in enumerate(kept)}
            monomials = [monomials[c] for c in kept]
            rows = tuple(tuple((index[c], v) for c, v in row)
                         for row in rows if row[0][0] not in bare)
        self.live = tuple(monomials)
        self.live_rows = rows

    def _basis(self, degree):
        """The basis rows that lead below `degree`, in row order, each as the
        (monomial, coefficient) pairs of its entries in column order, made
        only when the iteration reaches it: the live row that leads at a
        live monomial, if any, and the bare row of any other monomial."""
        index = {m: k for k, m in enumerate(self.live)}
        lead = {row[0][0]: row for row in self.live_rows}
        for m in graded_monomials(self.nvars,
                                  min(degree - 1, self.degree_bound)):
            k = index.get(m)
            if k is None:
                yield ((m, _ONE),)
            elif k in lead:
                yield tuple((self.live[c], v) for c, v in lead[k])

    def polys_below(self, degree):
        """The basis rows that lead below `degree` as polynomials, in row
        order, each built only when the iteration reaches it."""
        for row in self._basis(degree):
            yield Poly(self.nvars, dict(row))

    @property
    def polys(self):
        """The basis rows as polynomials, in row order, each built only
        when the iteration reaches it."""
        return self.polys_below(self.degree_bound + 1)

    @property
    def monomials(self):
        """Every monomial of degree <= bound, in graded order: the columns
        of `rows`."""
        return tuple(monomials_upto(self.nvars, self.degree_bound))

    @property
    def rows(self):
        """The whole basis as sparse rows on `monomials`, bare rows
        written out, in the order of their leading columns."""
        index = {m: c for c, m in enumerate(self.monomials)}
        return tuple(tuple((index[m], v) for m, v in row)
                     for row in self._basis(self.degree_bound + 1))

    @property
    def quotient_dim(self):
        """Dimension of the polynomials of degree <= bound modulo the ideal:
        the dimension of the algebra the actions generate at that degree.
        Each bare row removes its own monomial, so it is the live columns
        that lead no live row."""
        return len(self.live) - len(self.live_rows)

    def holds_top_degree(self) -> bool:
        """True iff the ideal holds every monomial of degree `degree_bound`:
        no live monomial has that degree, so each of them is a bare row, and
        no live row, whose entries are all at live columns, has an entry
        there.

        An ideal is closed under multiplication, so it then holds every
        monomial of degree >= bound, and on graded columns that fixes its
        reduced echelon basis at any higher bound: the columns of higher
        degree are zero functionals, so none is a pivot of
        `kernel_echelon`'s reversed elimination.  Each leads a row, and its
        dependency on the pivots after it is empty: the row is the bare
        monomial.  A row that leads lower depends only on pivots, all of
        lower degree, so it has no entry at a higher degree; and zero
        columns change neither the pivots nor the reduced entries.  So the
        ideal at any bound above has the same live part, the bare
        monomials of the new degrees joining the implicit one, and two such
        ideals agree at every higher bound iff they agree at this one.
        """
        return max(map(sum, self.live), default=-1) < self.degree_bound

    def in_maximal_ideal(self) -> bool:
        """True iff no basis row has an entry at the constant monomial, so
        that every polynomial in the ideal vanishes at the origin.  The
        constant is the first column, and only a row that leads there can
        have an entry there: it must be live and lead no live row."""
        return (bool(self.live) and not any(self.live[0])
                and not (self.live_rows and self.live_rows[0][0][0] == 0))

    def __eq__(self, other):
        if not isinstance(other, AnnihilatorIdeal):
            return NotImplemented
        return ((self.degree_bound, self.nvars, self.live, self.live_rows)
                == (other.degree_bound, other.nvars, other.live,
                    other.live_rows))

    def __hash__(self):
        return hash((self.degree_bound, self.nvars, self.quotient_dim))

    def __repr__(self):
        return (f"AnnihilatorIdeal(degree_bound={self.degree_bound}, "
                f"monomials={self.live!r}, rows={self.live_rows!r})")


def kernel_echelon(rows, ncols):
    """Reduced row echelon basis of the right kernel of `rows` (each of
    length `ncols`), sparse: one {column: coefficient} dict per basis row,
    in the order of their leading columns.

    One elimination of the column-reversed matrix gives it.  There a free
    column depends on the columns before it, that is on the original
    columns after it.  So original column c leads a kernel row iff it is
    free there, and its unique dependency on the pivot columns is that row:
    1 at c, minus the dependency coefficients at the pivots, zero at every
    other leading column.  The reduced echelon basis of a subspace is
    unique, so this equals the RREF of any kernel basis.

    A zero column is free and depends on nothing, so its row is the bare
    column, and it changes neither the pivots nor any other row.
    `annihilator` passes only the live columns, the monomials a Toeplitz
    fiber can reach, and eliminates only those; the zero columns it
    leaves out are the bare rows that `AnnihilatorIdeal` holds
    implicitly.  A zero column that is passed comes back as a bare row.
    """
    reversed_rows = [row[::-1] for row in rows
                     if any(not scalar_is_zero(x) for x in row)]
    if reversed_rows:
        reduced, pivots = rref_rows(reversed_rows)
    else:
        reduced, pivots = [], []
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols - 1, -1, -1):
        if f in pivot_set:
            continue
        entries = {ncols - 1 - f: _ONE}
        for i, p in enumerate(pivots):
            if p > f:
                break
            c = reduced[i][f]
            if not scalar_is_zero(c):
                entries[ncols - 1 - p] = -c
        basis.append(entries)
    return basis


def _evaluation_rows(module: FiniteModule, degree):
    """(monomials, rows): the evaluation map Poly_<=degree -> End(module)
    on the graded `monomials` it is read on, one row per functional; every
    monomial of degree <= `degree` left out is zero on the module.

    Each monomial's value is the Toeplitz matrix of the product of the
    module's first columns (`columns`), and the rows are the dim entries
    of that first column.  Every other entry of
    the value repeats one of them or is zero, so these rows have the same
    kernel, and the same rank, as the dim^2 rows of all entries.  The
    product has the sum of the columns' orders, so only the monomials
    whose order is below dim are evaluated, one series product each, and
    the corners of the rest are checked to be zero
    (`poly.reachable_values`)."""
    monomials, values = reachable_values(module.columns, degree)
    cols = [value.coeffs for value in values]
    return monomials, [[col[i] for col in cols] for i in range(module.dim)]


def annihilator(module: FiniteModule, degree_bound: int = None) -> AnnihilatorIdeal:
    """Reduced basis of the ideal of polynomials of degree <= bound that kill
    the fiber `module`, from its columns, the first columns of its
    Toeplitz actions: dim first-column rows on the monomials they reach
    (`_evaluation_rows`).  The reduced echelon basis of the kernel is
    unique, so it equals the one from all dim^2 entries of the dense
    actions on every monomial.  The default bound (module dim) is provably
    enough: every monomial of degree >= dim kills a punctual module of
    that dimension.
    """
    if degree_bound is None:
        degree_bound = module.dim
    if degree_bound < module.dim:
        raise D0resError("annihilator degree bound below module dimension")
    monomials, rows = _evaluation_rows(module, degree_bound)
    basis = kernel_echelon(rows, len(monomials))
    return AnnihilatorIdeal(degree_bound, tuple(monomials),
                            tuple(tuple(sorted(row.items())) for row in basis))
