"""Finite-length modules over the ambient local ring, as commuting nilpotent
action matrices, plus the first-order jet pairs used by the tangent test.

The key constructions:

* fiber_module(b, r): K[t]/(t^r) with each ambient coordinate acting by
  multiplication with its pullback series (lower-triangular Toeplitz); also
  the jet pair's special fiber and the matrix route of the fiber
  annihilator cross-check.
* jet_pair(b, r): the rank-r restriction over the dual numbers, one block
  of the JetPair frame.  Its special fiber M1 is fiber_module(b, r), on
  which the uniformizer acts as the r x r down-shift S; on the 2r-dim jet M2
  it acts as t_m2 = [[S, 0], [N, S]], S on the tops and on the bottoms plus
  N = r*eps from the last top.  Its nilpotency index jumps from r to r+1
  exactly when the jet does not split.  A coordinate s acts on M2 as
  s(t_m2) = [[A, 0], [C, A]], A its action on M1.  S N = 0 (N lands on
  the last bottom, which S kills), so t_m2^k = [[S^k, 0], [N S^(k-1), S^k]]
  and C is zero but for its last row, whose column r-k holds r*s_k
  (k = 1..r; s_0 = 0 as the branch passes through the origin).
  jet_pair writes the actions in this closed form; tests compare it with
  the reference eval_series_at_matrix(s, t_m2) in tests/oracles.py.
* graph_skyscraper(b): the rank-1 padding, fiber_module(b, 1) and
  jet_pair(b, 1).
* pad(base, filler, copies): the direct sum of base with `copies` copies
  of filler, held as a `DirectSum` of (summand, copies) runs in block
  order; no matrix is built.  Its dims, blocks and (for jets) m1 and m2
  are read off the runs.  Every question the certificate asks of a sum is
  answered summand by summand: a polynomial kills a direct sum iff it
  kills each summand, and a power of a block-diagonal action is the
  block-diagonal sum of the blocks' powers (`power_runs`, one power per
  distinct summand).  Each summand was validated when it was built, and
  block-diagonal matrices add and multiply block by block, so the sum's
  actions commute, are nilpotent and read [[A, 0], [C, A]] on the jet
  frame laid end to end because each summand's do.  The tests assemble
  the dense sums (`tests/oracles.py`) and check them on the dense
  matrices.
* annihilator / support_length: the ideal of polynomials killing a module and
  the dimension of the algebra it generates; the separation invariants.
  `annihilator` reads the ideal off the module's action matrices (dim^2
  functionals) and serves as the oracle.  `fiber_annihilator`, which the
  certificates read as `functional_ideal` over `fiber_functionals`, reads
  the same ideal off r series coefficients: the fiber K[t]/(t^r) is
  cyclic, generated by 1, so f kills it iff f(x(t)) = 0 mod t^r.  Its
  t^0 row is f -> f(0), so the ideal lies in {f : f(0) = 0}, the
  annihilator of the 1 x 1 graph skyscraper, and padding the fiber with
  skyscrapers does not change it.  Both return the unique reduced echelon
  basis, so they agree exactly, not just up to a change of basis.  Both
  evaluate the monomials with `poly.monomial_values`, one over the action
  matrices and one over the pullback series.  The basis is stored once,
  as the sparse rows of `kernel_echelon`; a row becomes a polynomial only
  when `polys` is iterated up to it.
* top degree: once an ideal holds every monomial of degree d, its reduced
  echelon basis on graded columns is fixed above d.  Each row that leads
  at degree >= d is that bare monomial, and no row that leads below d has
  an entry at degree >= d (`AnnihilatorIdeal.holds_top_degree` gives the
  argument and checks both at d = its bound).  So such an ideal is stored
  at bound d and never built higher: two of them are equal at any bound
  >= d iff they are equal at d, and a row above d, a monomial both hold,
  separates nothing.  A punctual module of dim m is killed by every
  monomial of degree >= m, and a fiber K[t]/(t^r) by every monomial of
  degree >= r.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .branches import BranchParam, _evaluation_columns
from .errors import D0resError, NotNilpotent, RaiseTruncation
from .fields import scalar_is_zero
from .linalg import ExactMatrix, commute, rref_rows
from .poly import Poly, monomial_values, monomials_upto
from .series import Series

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class FiniteModule:
    """Punctual module at the origin: dim + one action matrix per coordinate.

    Validation checks shapes, that the actions commute pairwise and that
    each is nilpotent.  A strictly lower-triangular action is nilpotent, as
    every fiber, jet and padded action built here is; any other action is
    raised to the power dim.
    """

    dim: int
    actions: tuple

    def __post_init__(self):
        for a in self.actions:
            if not a.is_square() or a.rows != self.dim:
                raise D0resError("action matrices must be square of the module dim")
        for i in range(len(self.actions)):
            for j in range(i + 1, len(self.actions)):
                if not commute(self.actions[i], self.actions[j]):
                    raise D0resError("coordinate actions must commute")
        for a in self.actions:
            if not a.is_strictly_lower() and not (a ** self.dim).is_zero():
                raise NotNilpotent("action is not nilpotent: support is not punctual")

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
    """Rank-r module M1 with its first-order jet M2 over the dual numbers.

    `blocks` are the ranks of the direct summands.  A rank-k summand has k
    basis vectors of M1 and 2k of M2: k tops lifting them, then k bottoms,
    their eps-multiples.  So eps maps tops to bottoms, `incl` embeds M1 onto
    the bottoms and `proj` reads the tops: 0 -> M1 -> M2 -> M1 -> 0 is exact
    by construction.  The actions respect this frame iff each reads
    [[A, 0], [C, A]] on (tops, bottoms), A its M1 counterpart.
    """

    m1: FiniteModule
    m2: FiniteModule
    t_m1: ExactMatrix
    t_m2: ExactMatrix
    blocks: tuple

    def __post_init__(self):
        if any(k < 1 for k in self.blocks) or sum(self.blocks) != self.m1.dim:
            raise D0resError("jet blocks must be positive and sum to the fiber dim")
        if self.m2.dim != 2 * self.m1.dim:
            raise D0resError("jet must have twice the fiber dimension")
        if len(self.m1.actions) != len(self.m2.actions):
            raise D0resError("fiber and jet must share the ambient dimension")
        tops, bottoms = self._frame()
        for a2, a1 in zip(self.m2.actions, self.m1.actions):
            _check_jet_shape(a2, a1, tops, bottoms, "coordinate action")
        _check_jet_shape(self.t_m2, self.t_m1, tops, bottoms, "uniformizer action")

    @property
    def rank(self):
        return self.m1.dim

    @property
    def ambient_dim(self):
        return self.m1.ambient_dim

    def _frame(self):
        """The M2 indices of the tops and of the bottoms, in M1 order."""
        tops, bottoms, start = [], [], 0
        for k in self.blocks:
            tops.extend(range(start, start + k))
            bottoms.extend(range(start + k, start + 2 * k))
            start += 2 * k
        return tops, bottoms

    @property
    def eps(self):
        tops, bottoms = self._frame()
        return _unit_matrix(2 * self.rank, 2 * self.rank, zip(bottoms, tops))

    @property
    def incl(self):
        return _unit_matrix(2 * self.rank, self.rank,
                            zip(self._frame()[1], range(self.rank)))

    @property
    def proj(self):
        return _unit_matrix(self.rank, 2 * self.rank,
                            zip(range(self.rank), self._frame()[0]))


def _unit_matrix(rows, cols, ones):
    """The rows x cols 0/1 matrix with ones at the (i, j) pairs `ones`."""
    data = [[_ZERO] * cols for _ in range(rows)]
    for i, j in ones:
        data[i][j] = _ONE
    return ExactMatrix(data)


def _check_jet_shape(a2, a1, tops, bottoms, what):
    """a2 reads [[a1, 0], [C, a1]] on (tops, bottoms), entry by entry."""
    r = len(tops)
    if (a1.rows, a1.cols, a2.rows, a2.cols) != (r, r, 2 * r, 2 * r):
        raise D0resError(f"{what} has the wrong shape for the jet frame")
    for row1, ti, bi in zip(a1.data, tops, bottoms):
        top, bottom = a2.data[ti], a2.data[bi]
        for x, tj, bj in zip(row1, tops, bottoms):
            if not scalar_is_zero(top[bj]) or top[tj] != x or bottom[bj] != x:
                raise D0resError(f"inclusion and projection must intertwine "
                                 f"the {what}s")


def fiber_module(b: BranchParam, r: int) -> FiniteModule:
    """K[t]/(t^r) with coordinates acting by their pullback multiplication."""
    if r < 1:
        raise D0resError("rank must be positive")
    if b.trunc < r:
        raise RaiseTruncation("fiber construction needs truncation >= rank", needed=r)
    actions = []
    for s in b.coords:
        data = [[_ZERO] * r for _ in range(r)]
        for i in range(r):
            for j in range(i):
                # coefficient of t^i in x_k(t) * t^j
                data[i][j] = s.coeffs[i - j]
            # ord >= 1 keeps the diagonal zero
        actions.append(ExactMatrix(data))
    return FiniteModule(r, tuple(actions))


def multiplication_matrix(s: Series, r: int) -> ExactMatrix:
    """Multiplication by s on K[t]/(t^r) in the power basis (independent of
    the Toeplitz shortcut; used by oracles)."""
    cols = []
    for j in range(r):
        shifted = [_ZERO] * r
        for i, c in enumerate(s.coeffs[: max(0, r - j)]):
            shifted[i + j] = c
        cols.append(shifted)
    return ExactMatrix([[cols[j][i] for j in range(r)] for i in range(r)])


def jet_pair(b: BranchParam, r: int) -> JetPair:
    """The rank-r jet pair of a branch over its dual-number base."""
    if r < 1:
        raise D0resError("rank must be positive")
    if b.trunc < r + 1:
        raise RaiseTruncation("jet construction needs truncation >= rank+1",
                              needed=r + 1)
    shift = _unit_matrix(r, r, ((i + 1, i) for i in range(r - 1)))
    # S on the tops and on the bottoms, plus r*eps from the last top
    data = [list(row) for row in ExactMatrix.block_diag(shift, shift).data]
    data[2 * r - 1][r - 1] = Fraction(r)
    t_m2 = ExactMatrix(data)
    m1 = fiber_module(b, r)
    actions = []
    for s, a in zip(b.coords, m1.actions):
        # s(t_m2) = [[A, 0], [C, A]]: C is r * s_k at (last, r - k), k = 1..r
        tops = [row + (_ZERO,) * r for row in a.data]
        bottoms = [(_ZERO,) * r + row for row in a.data]
        bottoms[-1] = tuple(r * s.coeffs[r - j] for j in range(r)) + a.data[-1]
        actions.append(ExactMatrix(tops + bottoms))
    return JetPair(m1, FiniteModule(2 * r, tuple(actions)), shift, t_m2, (r,))


def graph_skyscraper(b: BranchParam):
    """The rank-1 padding: skyscraper fiber and its dual-number jet."""
    return fiber_module(b, 1), jet_pair(b, 1)


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
    def blocks(self):
        return tuple(k for s, c in self.runs for k in s.blocks * c)

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


def power_runs(module, coord: int, exponent: int):
    """The action of coordinate `coord` raised to `exponent`, as (block,
    copies) runs in block order.  A block-diagonal matrix's power is the
    block-diagonal sum of its blocks' powers, so a direct sum raises each
    distinct summand's block once."""
    runs = module.runs if isinstance(module, DirectSum) else ((module, 1),)
    return [(s.actions[coord] ** exponent, c) for s, c in runs]


# -- annihilators and lengths ------------------------------------------------------


class AnnihilatorIdeal:
    """Reduced echelon basis of the polynomials (degree <= bound) killing a
    module; comparable across modules of the same ambient dimension.  Each
    row is sparse: the (column, coefficient) pairs of its nonzero entries in
    column order, columns indexing the graded `monomials`, and the rows are
    in the order of their leading (lowest) columns.  The basis is unique,
    so equal bases mean equal ideals.
    """

    def __init__(self, degree_bound, monomials, rows):
        self.degree_bound = degree_bound
        self.monomials = tuple(monomials)
        self.rows = tuple(rows)

    @property
    def nvars(self):
        return len(self.monomials[0])

    def polys_below(self, degree):
        """The basis rows that lead below `degree` as polynomials, in row
        order, each built only when the iteration reaches it."""
        for row in self.rows:
            if sum(self.monomials[row[0][0]]) >= degree:
                return
            yield Poly(self.nvars, {self.monomials[c]: v for c, v in row})

    @property
    def polys(self):
        """The basis rows as polynomials, in row order, each built only
        when the iteration reaches it."""
        return self.polys_below(self.degree_bound + 1)

    @property
    def quotient_dim(self):
        """Dimension of the polynomials of degree <= bound modulo the ideal:
        the dimension of the algebra the actions generate at that degree."""
        return len(self.monomials) - len(self.rows)

    def holds_top_degree(self) -> bool:
        """True iff the ideal holds every monomial of degree `degree_bound`,
        read off the basis: each of those monomials is a bare row, and no
        row that leads below that degree has an entry there.

        An ideal is closed under multiplication, so it then holds every
        monomial of degree >= bound, and on graded columns that fixes its
        reduced echelon basis at any higher bound: the columns of higher
        degree are zero functionals, so none is a pivot of
        `kernel_echelon`'s reversed elimination.  Each leads a row, and its
        dependency on the pivots after it is empty: the row is the bare
        monomial.  A row that leads lower depends only on pivots, all of
        lower degree, so it has no entry at a higher degree; and zero
        columns change neither the pivots nor the reduced entries.  So the
        ideal at any bound above is this basis with the bare monomials of
        the new degrees appended, and two such ideals agree at every higher
        bound iff they agree at this one.
        """
        width = comb(self.degree_bound - 1 + self.nvars, self.nvars)
        low = tuple(row for row in self.rows if row[0][0] < width)
        return (all(row[-1][0] < width for row in low)
                and self.rows[len(low):] == tuple(
                    ((c, _ONE),) for c in range(width, len(self.monomials))))

    def __eq__(self, other):
        if not isinstance(other, AnnihilatorIdeal):
            return NotImplemented
        return ((self.degree_bound, self.monomials, self.rows)
                == (other.degree_bound, other.monomials, other.rows))

    def __hash__(self):
        return hash((self.degree_bound, self.nvars, self.quotient_dim))

    def __repr__(self):
        return (f"AnnihilatorIdeal(degree_bound={self.degree_bound}, "
                f"monomials={self.monomials!r}, rows={self.rows!r})")


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
    functionals `rows` on the graded `monomials`.  These may run past the
    bound: `monomials_upto` is graded, so the monomials of degree <= bound
    are a prefix, and only its columns are read."""
    width = sum(1 for m in monomials if sum(m) <= degree_bound)
    if len(monomials) > width:
        monomials = monomials[:width]
        rows = [row[:width] for row in rows]
    basis = kernel_echelon(rows, width)
    return AnnihilatorIdeal(degree_bound, tuple(monomials),
                            tuple(tuple(sorted(row.items())) for row in basis))


def _evaluation_rows(module: FiniteModule, degree):
    """Matrix of the evaluation map Poly_<=degree -> End(module); columns in
    graded-lex monomial order, rows = flattened matrix entries."""
    monomials = monomials_upto(module.ambient_dim, degree)
    values = monomial_values(module.actions, monomials,
                             ExactMatrix.identity(module.dim))
    cols = [value.flat() for value in values]
    rows = [[cols[j][i] for j in range(len(monomials))]
            for i in range(module.dim * module.dim)]
    return monomials, rows


def annihilator(module: FiniteModule, degree_bound: int = None) -> AnnihilatorIdeal:
    """Reduced basis of the ideal of polynomials of degree <= bound that kill
    the module, from its dim^2 action-matrix entries.  The default bound
    (module dim) is provably enough: every monomial of degree >= dim kills a
    punctual module of that dimension.
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
    fiber_module(b, rank).

    The fiber is cyclic, generated by 1, so f kills it iff the t^0..t^(rank-1)
    coefficients of f(x(t)) vanish: `rank` rows.  The branch passes through
    the origin, so the t^0 row is f -> f(0).
    """
    if rank < 1:
        raise D0resError("rank must be positive")
    if b.trunc < rank:
        raise RaiseTruncation("fiber construction needs truncation >= rank",
                              needed=rank)
    monomials = monomials_upto(b.ambient_dim, degree_bound)
    cols, _ = _evaluation_columns(b, monomials, rank)
    return monomials, [[col[i] for col in cols] for i in range(rank)]


def fiber_annihilator(b: BranchParam, rank: int,
                      degree_bound: int) -> AnnihilatorIdeal:
    """Annihilator of fiber_module(b, rank) from series coefficients
    (`fiber_functionals`)."""
    return functional_ideal(degree_bound,
                            *fiber_functionals(b, rank, degree_bound))


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
    return ExactMatrix(rows).rank()


def nilpotency_index(a: ExactMatrix) -> int:
    """Smallest k with a^k = 0; error if not nilpotent within dim steps."""
    if not a.is_square():
        raise D0resError("nilpotency index needs a square matrix")
    power = ExactMatrix.identity(a.rows)
    for k in range(1, a.rows + 1):
        power = power * a
        if power.is_zero():
            return k
    raise NotNilpotent("matrix is not nilpotent within its dimension")
