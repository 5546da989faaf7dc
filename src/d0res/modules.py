"""Finite-length modules over the ambient local ring, as commuting nilpotent
action matrices of two shapes, plus the first-order jet pairs used by the
tangent test.

The key constructions:

* fiber_module(b, r): K[t]/(t^r) with each ambient coordinate acting by
  multiplication with its pullback series (lower-triangular Toeplitz); also
  the jet pair's special fiber and the matrix route of the fiber
  annihilator cross-check.
* jet_pair(b, r): the rank-r fiber M1 = fiber_module(b, r) of the branch
  and its first-order jet M2 over the dual numbers, 2r-dimensional on a
  fixed frame: tops 0..r-1 lifting M1's basis, then bottoms r..2r-1, their
  eps-multiples.  A coordinate s acts on M2 as [[A, 0], [C, A]], A its
  action on M1, and C is zero but for its last row, whose column r-k holds
  r*s_k (k = 1..r; s_0 = 0 as the branch passes through the origin).
  That is s(T) for the jet's uniformizer T = [[S, 0], [N, S]], S the
  r x r down-shift and N = r*eps from the last top: S N = 0, so
  T^k = [[S^k, 0], [N S^(k-1), S^k]].  T has nilpotency index r + 1, one
  more than S, exactly when the jet does not split.  jet_pair writes the
  actions in closed form and builds no uniformizer; the tests build T
  (`tests/oracles.jet_uniformizer`) and compare.
* graph_skyscraper(b): the rank-1 padding, jet_pair(b, 1) and its fiber.
* Two shapes of action: a fiber's actions are strictly lower-triangular
  Toeplitz, multiplication by their first columns in K[t]/(t^r), a
  commutative algebra.  `toeplitz_column` reads that shape entry by entry
  in O(r^2), and a module whose actions all have it keeps their first
  columns (`FiniteModule.columns`).  Such actions commute with no matrix
  product, a polynomial in them is the Toeplitz matrix of the same
  polynomial in their columns, and it is zero iff that series is.  So
  `annihilator` eliminates r first-column rows, `verify._kills` evaluates
  a witness on series, and `_action_power` raises an action as a series
  power.  A jet's actions read [[A, 0], [e c^T, A]], A of that shape and
  e the last unit vector; a module whose actions all read so, and not all
  as Toeplitz, keeps each once as (first column of A, c)
  (`FiniteModule.jets`).  Two of them commute iff c^T B = d^T A, one
  1 x r by r x r product per side, and `_action_power` raises them in
  closed form.  A jet pair checks its frame on whichever reading its M2
  has, by first columns (`JetPair`): the rank-1 skyscrapers and the jets
  with A = 0 are Toeplitz, every other jet is read as jets.  Every such
  matrix is built once, from entries already normalized
  (`ExactMatrix._trusted`).  A module with an action of any other shape
  is refused when built, and so is a series reading (`annihilator`,
  `verify._kills`, a jet pair's fiber) of a module not read by
  `columns`.  The tests keep dense modules of their own
  (`tests/oracles.py`) as references.
* pad(base, filler, copies): the direct sum of base with `copies` copies
  of filler, held as a `DirectSum` of (summand, copies) runs in block
  order; no matrix is built.  Its dims, ranks and (for jets) m1 and m2
  are read off the runs.  Every question the certificate asks of a sum is
  answered summand by summand: a polynomial kills a direct sum iff it
  kills each summand, and a power of a block-diagonal action is the
  block-diagonal sum of the blocks' powers (one closed-form
  `_action_power` per summand, which `verify.CertificateFamily` keeps).
  Each summand was validated when it was built, and block-diagonal
  matrices add and multiply block by block, so the sum's actions
  commute, are nilpotent and read [[A, 0], [C, A]] on the jet frame laid
  end to end because each summand's do.  The tests
  assemble the dense sums (`tests/oracles.py`) and check them on the
  dense matrices.
* annihilator: the ideal of polynomials killing a fiber, the separation
  invariant.  `annihilator` reads the ideal off the fiber's Toeplitz
  action matrices, the dim first-column functionals, and serves as the
  oracle; it refuses any other module.  `functional_ideal` over
  `fiber_functionals`, which the certificates read, gives the same ideal
  from r series coefficients: the fiber K[t]/(t^r) is cyclic, generated
  by 1, so f kills it iff f(x(t)) = 0 mod t^r.  Its
  t^0 row is f -> f(0), so the ideal lies in {f : f(0) = 0}, the
  annihilator of the 1 x 1 graph skyscraper, and padding the fiber with
  skyscrapers does not change it.  Both return the unique reduced echelon
  basis, so they agree exactly, not just up to a change of basis.
* reachable monomials: on a fiber, the value of x^e is the product of the
  coordinates' series, and leading coefficients multiply in a field, so
  it has order sum e_k * ord x_k exactly.  A monomial of order >= r is
  zero on K[t]/(t^r): a zero column, free in `kernel_echelon` and
  dependent on nothing, whose basis row is the bare monomial.  So both
  routes evaluate only the monomials of order below r, read off their own
  series (`branches._evaluation_columns`) or first columns
  (`_evaluation_rows`), one series product each, and build no other.
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

from dataclasses import dataclass, field
from fractions import Fraction

from .branches import BranchParam, _evaluation_columns
from .errors import D0resError, NonCommutingActions, RaiseTruncation
from .fields import scalar_is_zero
from .linalg import ExactMatrix, rref_rows
from .poly import Poly, graded_monomials, monomials_upto, reachable_values
from .series import Series

_ZERO = Fraction(0)
_ONE = Fraction(1)


def toeplitz_column(a: ExactMatrix):
    """The first column of `a` as a Series when `a` is strictly
    lower-triangular Toeplitz, checked entry by entry in O(dim^2): every
    entry on and above the diagonal is zero and a[i][j] = a[i-j][0] below
    it.  None for any other matrix.

    Such a matrix is multiplication by its first column c(t) on
    K[t]/(t^dim): the polynomial c(S) in the down-shift S.  These form the
    commutative algebra K[t]/(t^dim), so two of them commute, each is
    nilpotent, and a polynomial in them is the Toeplitz matrix of the same
    polynomial in their columns, fixed by its own first column."""
    r = a.rows
    if r == 0 or a.cols != r:
        return None
    data = a.data
    col = tuple(row[0] for row in data)
    # the last row is the first column read backwards: a cheap early exit
    if col[0] or data[-1] != col[::-1]:
        return None
    # a zero entry is `_ZERO` itself where a module wrote it, so comparing
    # with `zeros` mostly compares identities
    zeros = (_ZERO,) * r
    for i, row in enumerate(data):
        if row[i + 1:] != zeros[i + 1:] or row[:i + 1] != col[i::-1]:
            return None
    return Series(col)


def _toeplitz_matrix(s: Series) -> ExactMatrix:
    """The lower-triangular Toeplitz matrix of `s`, multiplication by s on
    K[t]/(t^trunc): entry (i, j) is s_(i-j)."""
    c, r = s.coeffs, s.trunc
    return ExactMatrix._trusted(
        [c[i::-1] + (_ZERO,) * (r - 1 - i) for i in range(r)])


@dataclass(frozen=True)
class FiniteModule:
    """Punctual module at the origin: dim + one action matrix per coordinate,
    each read once, in one of two shapes, or refused.

    When every action is strictly lower-triangular Toeplitz
    (`toeplitz_column`), as every fiber's is, `columns` holds their first
    columns and `jets` is None.  Otherwise every action must read
    [[A, 0], [e c^T, A]] (`_jet_column`), as every jet's does; `jets` holds
    (column, c) for each and `columns` is None.  A module with an action
    of any other shape is refused.  Both readings are strictly
    lower-triangular, so every action is nilpotent.  Two Toeplitz actions
    commute, with no matrix product.  Two jet actions [[A, 0], [e c^T, A]]
    and [[B, 0], [e d^T, B]] commute iff c^T B = d^T A: AB = BA as both
    are Toeplitz, and A e = B e = 0 as both are strictly lower, so the
    lower-left blocks of the two products are e c^T B and e d^T A.  That is
    one 1 x r by r x r product per side, on the top-left blocks
    `_jet_column` read.
    """

    dim: int
    actions: tuple
    columns: tuple = field(init=False, repr=False, compare=False)
    jets: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for a in self.actions:
            if not a.is_square() or a.rows != self.dim:
                raise D0resError("action matrices must be square of the module dim")
        columns = tuple(toeplitz_column(a) for a in self.actions)
        jets = None
        if None in columns:
            jets = tuple(_jet_column(a) for a in self.actions)
            if None in jets:
                raise D0resError("an action is neither strictly "
                                 "lower-triangular Toeplitz nor a jet action")
            for i, (_, c, a) in enumerate(jets):
                for j in range(i + 1, len(jets)):
                    if columns[i] is not None and columns[j] is not None:
                        continue
                    _, d, b = jets[j]
                    if (ExactMatrix._trusted((c,)) * b
                            != ExactMatrix._trusted((d,)) * a):
                        raise NonCommutingActions(
                            "coordinate actions must commute")
            columns = None
            jets = tuple((column, c) for column, c, _ in jets)
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "jets", jets)

    @property
    def ambient_dim(self):
        return len(self.actions)

    def same_presentation(self, other) -> bool:
        """Equal dims and equal action matrices; False for a `DirectSum`,
        whose dense matrices are never built to compare."""
        return (isinstance(other, FiniteModule) and self.dim == other.dim
                and self.actions == other.actions)


@dataclass(frozen=True)
class JetPair:
    """The rank-r fiber M1 of one branch and its first-order jet M2 over
    the dual numbers, and nothing else.

    The frame is fixed: M2's basis is the r tops 0..r-1, lifting M1's
    basis, then the r bottoms r..2r-1, their eps-multiples.  So eps maps
    tops to bottoms, the inclusion M1 -> M2 lands on the bottoms and the
    projection M2 -> M1 reads the tops: 0 -> M1 -> M2 -> M1 -> 0 is exact
    by construction.  The actions respect the frame iff each M2 action
    reads [[A, 0], [C, A]], A its M1 counterpart.

    M1 must be read by `columns` (`FiniteModule`), as a fiber is; a jet
    pair whose M1 is read as jets is refused.  The frame is checked once
    per action on the reading M2 already has, by first columns:

    * M2 read by `jets`: each action is [[A', 0], [e c^T, A']] with A'
      strictly lower-triangular Toeplitz, so it respects the frame iff
      A' = A, and two Toeplitz matrices are equal iff their first columns
      are.
    * M2 read by `columns`: each action is the strictly lower-triangular
      Toeplitz matrix of a column c of length 2r, entry (i, j) = c_(i-j)
      for i > j and 0 otherwise.  Its top-right block (i < r <= j) lies
      above the diagonal, so it is zero.  Its top-left block has entry
      c_(i-j) at (i, j), and its bottom-right block the same entry at
      (r + i, r + j): both are the Toeplitz matrix of c_0..c_(r-1).  So it
      respects the frame iff that matrix is A, iff c truncated to r is A's
      first column.

    `FiniteModule` reads M2 one way or the other, or refuses it.
    """

    m1: FiniteModule
    m2: FiniteModule

    def __post_init__(self):
        if self.m2.dim != 2 * self.m1.dim:
            raise D0resError("jet must have twice the fiber dimension")
        if len(self.m1.actions) != len(self.m2.actions):
            raise D0resError("fiber and jet must share the ambient dimension")
        r, columns = self.m1.dim, _fiber_columns(self.m1)
        if self.m2.jets is not None:
            read = tuple(jet[0] for jet in self.m2.jets)
        else:
            read = tuple(c.truncate(r) for c in self.m2.columns)
        if read != columns:
            raise D0resError("inclusion and projection must intertwine "
                             "the coordinate actions")

    @property
    def rank(self):
        return self.m1.dim

    @property
    def ambient_dim(self):
        return self.m1.ambient_dim


def _fiber_columns(module: FiniteModule):
    """The first columns of the module's strictly lower-triangular Toeplitz
    actions (`FiniteModule.columns`), which every series reading of a
    fiber reads; a module read as jets is refused."""
    if module.columns is None:
        raise D0resError("a fiber's actions must be strictly "
                         "lower-triangular Toeplitz")
    return module.columns


def fiber_module(b: BranchParam, r: int) -> FiniteModule:
    """K[t]/(t^r) with coordinates acting by their pullback multiplication."""
    if r < 1:
        raise D0resError("rank must be positive")
    if b.trunc < r:
        raise RaiseTruncation("fiber construction needs truncation >= rank", needed=r)
    zeros = (_ZERO,) * r
    actions = []
    for s in b.coords:
        c = s.coeffs
        # entry (i, j < i) is the coefficient of t^i in x_k(t) * t^j, c_(i-j);
        # ord >= 1 keeps the diagonal zero
        actions.append(ExactMatrix._trusted(
            [c[i:0:-1] + zeros[i:] for i in range(r)]))
    return FiniteModule(r, tuple(actions))


def jet_pair(b: BranchParam, r: int) -> JetPair:
    """The rank-r jet pair of a branch over its dual-number base."""
    if r < 1:
        raise D0resError("rank must be positive")
    if b.trunc < r + 1:
        raise RaiseTruncation("jet construction needs truncation >= rank+1",
                              needed=r + 1)
    m1 = fiber_module(b, r)
    zeros = (_ZERO,) * r
    actions = []
    for s, a in zip(b.coords, m1.actions):
        # [[A, 0], [C, A]]: C is r * s_k at (last, r - k), k = 1..r
        c = tuple(r * s.coeffs[r - j] for j in range(r))
        tops = [row + zeros for row in a.data]
        bottoms = [zeros + row for row in a.data]
        bottoms[-1] = c + a.data[-1]
        actions.append(ExactMatrix._trusted(tops + bottoms))
    return JetPair(m1, FiniteModule(2 * r, tuple(actions)))


def graph_skyscraper(b: BranchParam):
    """The rank-1 padding: (skyscraper fiber, its dual-number jet), one
    jet pair and the fiber it holds."""
    jet = jet_pair(b, 1)
    return jet.m1, jet


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
    built (module docstring).  A sum of jet pairs has the sums of its
    summands' m1 and m2 as its own."""

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

    @property
    def m2(self):
        return DirectSum(tuple((s.m2, c) for s, c in self.runs))

    def same_presentation(self, other) -> bool:
        """Equal runs mean equal block sums.  Different runs read False,
        even where their sums might be equal: no equality is claimed that
        was not checked."""
        return isinstance(other, DirectSum) and self.runs == other.runs


def _action_power(module: FiniteModule, coord: int, k: int) -> ExactMatrix:
    """The action of coordinate `coord` on `module` to the power k >= 1
    (every tangent exponent is at least 1).

    A strictly lower-triangular Toeplitz action is multiplication by its
    first column a(t) (`module.columns`), and its power multiplication by
    a(t)^k.  A jet action [[A, 0], [C, A]] with A of that shape and C zero
    but for its last row c, read once as (a(t), c) (`module.jets`), has
    the power [[A^k, 0], [e c^T A^(k-1), A^k]], e the last unit vector:
    the lower-left block of the power is the sum of A^i C A^j over
    i + j = k - 1, and A^i C = 0 for i >= 1 because A's last column is
    zero.  The row c^T A^(k-1) has entry j = sum_i c_i q_(i-j), q(t) =
    a(t)^(k-1), which is the t^(r-1-j) coefficient of rev(c)(t) q(t),
    rev(c) the series of c read backwards.  Either way the dense block is
    built once, for the report, from entries already normalized.  Every
    `FiniteModule` is read one way or the other; at k = 0 a jet action is
    refused, as a negative series power."""
    if module.columns is not None:
        return _toeplitz_matrix(module.columns[coord] ** k)
    col, c = module.jets[coord]
    q = col ** (k - 1)
    top = _toeplitz_matrix(q * col)
    row = (Series(c[::-1]) * q).coeffs[::-1]
    zeros = (_ZERO,) * col.trunc
    return ExactMatrix._trusted(
        [t + zeros for t in top.data] + [zeros + t for t in top.data[:-1]]
        + [row + top.data[-1]])


def _jet_column(a: ExactMatrix):
    """(column, c, top) when `a` reads [[A, 0], [C, A]] on two halves of
    its basis, A strictly lower-triangular Toeplitz with first column
    `column` (a Series) and C zero but for its last row c (a tuple),
    checked entry by entry; `top` is A, the block the reading sliced.  None
    otherwise."""
    if a.rows % 2 or a.cols != a.rows or not a.rows:
        return None
    r = a.rows // 2
    data = a.data
    top = ExactMatrix._trusted([row[:r] for row in data[:r]])
    col = toeplitz_column(top)
    if col is None:
        return None
    zeros = (_ZERO,) * r
    for top_row, bottom in zip(data[:r], data[r:]):
        if top_row[r:] != zeros or bottom[r:] != top_row[:r]:
            return None
    if any(bottom[:r] != zeros for bottom in data[r:-1]):
        return None
    return col, data[-1][:r], top


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
    column, and it changes neither the pivots nor any other row.  The
    annihilators pass only the live columns, the monomials a Toeplitz
    fiber or a branch can reach, and eliminate only those; the zero
    columns they leave out are the bare rows that `AnnihilatorIdeal` holds
    implicitly.  A module of any other shape is refused before a row is
    built.  A zero column that is passed comes back as a bare row.
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


def functional_ideal(degree_bound, monomials, rows) -> AnnihilatorIdeal:
    """The AnnihilatorIdeal at `degree_bound` cut out by the evaluation
    functionals `rows` on the graded `monomials`; every monomial of degree
    <= bound that is not among them is a zero functional, a bare row.
    They may run past the bound: they are graded, so the monomials of
    degree <= bound are a prefix, and only its columns are read."""
    width = sum(1 for m in monomials if sum(m) <= degree_bound)
    if len(monomials) > width:
        monomials = monomials[:width]
        rows = [row[:width] for row in rows]
    basis = kernel_echelon(rows, width)
    return AnnihilatorIdeal(degree_bound, tuple(monomials),
                            tuple(tuple(sorted(row.items())) for row in basis))


def _evaluation_rows(module: FiniteModule, degree):
    """(monomials, rows): the evaluation map Poly_<=degree -> End(module)
    on the graded `monomials` it is read on, one row per functional; every
    monomial of degree <= `degree` left out is zero on the module.

    The actions must be strictly lower-triangular Toeplitz (`columns`), as
    a fiber's are; a module read as jets is refused.  Each monomial's value
    is the Toeplitz matrix of the product of their first columns, and the
    rows are the dim entries of that first column.  Every other entry of
    the value repeats one of them or is zero, so these rows have the same
    kernel, and the same rank, as the dim^2 rows of all entries.  The
    product has the sum of the columns' orders, so only the monomials
    whose order is below dim are evaluated, one series product each, and
    the corners of the rest are checked to be zero
    (`poly.reachable_values`)."""
    monomials, values = reachable_values(_fiber_columns(module), degree)
    cols = [value.coeffs for value in values]
    return monomials, [[col[i] for col in cols] for i in range(module.dim)]


def annihilator(module: FiniteModule, degree_bound: int = None) -> AnnihilatorIdeal:
    """Reduced basis of the ideal of polynomials of degree <= bound that kill
    the fiber `module`, from its Toeplitz action matrices: dim first-column
    rows on the monomials they reach (`_evaluation_rows`); a module read as
    jets is refused.  The reduced echelon basis of the kernel is unique,
    so it equals the one from all dim^2 entries on every monomial.  The
    default bound (module dim) is provably enough: every monomial of
    degree >= dim kills a punctual module of that dimension.
    """
    if degree_bound is None:
        degree_bound = module.dim
    if degree_bound < module.dim:
        raise D0resError("annihilator degree bound below module dimension")
    monomials, rows = _evaluation_rows(module, degree_bound)
    return functional_ideal(degree_bound, monomials, rows)


def fiber_functionals(b: BranchParam, rank: int, degree_bound: int):
    """(monomials, rows): the evaluation functionals on the polynomials of
    degree <= bound whose common kernel is the annihilator of
    fiber_module(b, rank), on the monomials that can be nonzero mod
    t^rank (`branches._evaluation_columns`); each one left out is zero
    there, a bare row of the ideal.

    The fiber is cyclic, generated by 1, so f kills it iff the t^0..t^(rank-1)
    coefficients of f(x(t)) vanish: `rank` rows.  The branch passes through
    the origin, so the t^0 row is f -> f(0).
    """
    if rank < 1:
        raise D0resError("rank must be positive")
    if b.trunc < rank:
        raise RaiseTruncation("fiber construction needs truncation >= rank",
                              needed=rank)
    monomials, cols, _ = _evaluation_columns(b, degree_bound, rank)
    return monomials, [[col[i] for col in cols] for i in range(rank)]
