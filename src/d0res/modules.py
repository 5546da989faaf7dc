"""Finite-length modules over the ambient local ring, as commuting nilpotent
action matrices, plus the first-order jet pairs used by the tangent test.

The key constructions:

* fiber_module(b, r): K[t]/(t^r) with each ambient coordinate acting by
  multiplication with its pullback series (lower-triangular Toeplitz); also
  the jet pair's special fiber and route 1 of the push-forward oracle.
* jet_pair(b, r): the rank-r restriction over the dual numbers.  Its special
  fiber M1 is fiber_module(b, r), on which the uniformizer acts as the
  r x r down-shift S; on the jet M2 it acts as S + r*eps in the bottom-right
  corner, flattened to 2r x 2r with a distinguished eps endomorphism.  The
  inclusion/projection pair (a, b) makes 0 -> M1 -> M2 -> M1 -> 0 exact,
  and the uniformizer's nilpotency index jumps from r to r+1 exactly when
  the jet does not split.
* graph_skyscraper(b): the rank-1 padding module and its dual-number jet.
* annihilator / support_length: the ideal of polynomials killing a module and
  the dimension of the algebra it generates; the separation invariants.
  `annihilator` reads the ideal off the module's action matrices (dim^2
  functionals) and serves as the oracle.  `fiber_annihilator`, which the
  certificates use, reads the same ideal off r series coefficients: the
  fiber K[t]/(t^r) is cyclic, generated by 1, so f kills it iff
  f(x(t)) = 0 mod t^r.  Both return the unique reduced echelon basis, so
  they agree exactly, not just up to a change of basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .branches import BranchParam, _evaluation_columns
from .errors import D0resError, NotNilpotent, RaiseTruncation
from .fields import scalar_is_zero
from .linalg import ExactMatrix, commute, eval_series_at_matrix, rref_rows
from .poly import Poly, monomials_upto
from .series import Series

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class FiniteModule:
    """Punctual module at the origin: dim + one action matrix per coordinate."""

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
            if not (a ** self.dim).is_zero():
                raise NotNilpotent("action is not nilpotent: support is not punctual")

    @property
    def ambient_dim(self):
        return len(self.actions)

    def same_presentation(self, other: "FiniteModule") -> bool:
        return self.dim == other.dim and self.actions == other.actions


@dataclass(frozen=True)
class JetPair:
    """Rank-r module M1 with its first-order jet M2 over the dual numbers.

    `eps` is the distinguished square-zero endomorphism of M2; `incl` embeds
    M1 as eps*M2 and `proj` is the quotient by it, making
    0 -> M1 -> M2 -> M1 -> 0 exact.
    """

    m1: FiniteModule
    m2: FiniteModule
    eps: ExactMatrix
    incl: ExactMatrix
    proj: ExactMatrix
    t_m1: ExactMatrix
    t_m2: ExactMatrix

    def __post_init__(self):
        r, d2 = self.m1.dim, self.m2.dim
        if d2 != 2 * r:
            raise D0resError("jet must have twice the fiber dimension")
        if not (self.eps * self.eps).is_zero():
            raise D0resError("eps must square to zero")
        if not (self.proj * self.incl).is_zero():
            raise D0resError("jet sequence is not a complex")
        if self.incl.rank() != r or self.proj.rank() != r:
            raise D0resError("jet inclusion/projection must have full rank")
        # image(incl) == kernel(proj) follows from rank counts + proj*incl = 0
        if not (self.incl * self.proj - self.eps).is_zero():
            raise D0resError("inclusion must be multiplication by eps")
        if len(self.m1.actions) != len(self.m2.actions):
            raise D0resError("fiber and jet must share the ambient dimension")
        for a2, a1 in zip(self.m2.actions, self.m1.actions):
            if not (a2 * self.eps - self.eps * a2).is_zero():
                raise D0resError("actions must be eps-linear")
            if not (self.proj * a2 - a1 * self.proj).is_zero():
                raise D0resError("projection must intertwine the actions")
            if not (a2 * self.incl - self.incl * a1).is_zero():
                raise D0resError("inclusion must intertwine the actions")
        if not (self.t_m2 * self.eps - self.eps * self.t_m2).is_zero():
            raise D0resError("uniformizer action must be eps-linear")

    @property
    def rank(self):
        return self.m1.dim


def _downshift(r):
    data = [[_ONE if i == j + 1 else _ZERO for j in range(r)] for i in range(r)]
    return ExactMatrix(data)


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
    shift = _downshift(r)
    zero_r = ExactMatrix.zeros(r, r)
    corner = ExactMatrix([[Fraction(r) if (i == r - 1 and j == r - 1) else _ZERO
                           for j in range(r)] for i in range(r)])
    t_m2 = _block2x2(shift, zero_r, corner, shift)
    eps = _block2x2(zero_r, zero_r, ExactMatrix.identity(r), zero_r)
    incl = ExactMatrix([[_ONE if i == r + j else _ZERO for j in range(r)]
                        for i in range(2 * r)])
    proj = ExactMatrix([[_ONE if i == j else _ZERO for j in range(2 * r)]
                        for i in range(r)])
    m2 = FiniteModule(2 * r, tuple(eval_series_at_matrix(s.truncate(r + 1), t_m2)
                                   for s in b.coords))
    return JetPair(fiber_module(b, r), m2, eps, incl, proj, shift, t_m2)


def graph_skyscraper(b: BranchParam):
    """The rank-1 padding: skyscraper fiber and its dual-number jet."""
    m = b.ambient_dim
    fiber = FiniteModule(1, tuple(ExactMatrix.zeros(1, 1) for _ in range(m)))
    zero1 = ExactMatrix.zeros(1, 1)
    eps = _block2x2(zero1, zero1, ExactMatrix.identity(1), zero1)
    actions = []
    for s in b.coords:
        c1 = s.coeffs[1] if s.trunc > 1 else _ZERO
        actions.append(_block2x2(zero1, zero1,
                                 ExactMatrix([[c1]]), zero1))
    jet_m2 = FiniteModule(2, tuple(actions))
    incl = ExactMatrix([[_ZERO], [_ONE]])
    proj = ExactMatrix([[_ONE, _ZERO]])
    jet = JetPair(fiber, jet_m2, eps, incl, proj, zero1, eps)
    return fiber, jet


def _block2x2(a, b, c, d):
    top = [list(ra) + list(rb) for ra, rb in zip(a.data, b.data)]
    bottom = [list(rc) + list(rd) for rc, rd in zip(c.data, d.data)]
    return ExactMatrix(top + bottom)


def pad(base, filler, copies: int):
    """Block-diagonal direct sum of `base` with `copies` copies of `filler`."""
    if copies < 0:
        raise D0resError("copies must be non-negative")
    if isinstance(base, FiniteModule) and isinstance(filler, FiniteModule):
        if base.ambient_dim != filler.ambient_dim:
            raise D0resError("ambient dimension mismatch in padding")
        if copies == 0:
            return base
        actions = []
        for k in range(base.ambient_dim):
            blocks = [base.actions[k]] + [filler.actions[k]] * copies
            actions.append(ExactMatrix.block_diag(*blocks))
        return FiniteModule(base.dim + copies * filler.dim, tuple(actions))
    if isinstance(base, JetPair) and isinstance(filler, JetPair):
        if base.m1.ambient_dim != filler.m1.ambient_dim:
            raise D0resError("ambient dimension mismatch in padding")
        if copies == 0:
            return base
        m1 = pad(base.m1, filler.m1, copies)
        m2 = pad(base.m2, filler.m2, copies)
        eps = ExactMatrix.block_diag(base.eps, *([filler.eps] * copies))
        incl = ExactMatrix.block_diag(base.incl, *([filler.incl] * copies))
        proj = ExactMatrix.block_diag(base.proj, *([filler.proj] * copies))
        t1 = ExactMatrix.block_diag(base.t_m1, *([filler.t_m1] * copies))
        t2 = ExactMatrix.block_diag(base.t_m2, *([filler.t_m2] * copies))
        return JetPair(m1, m2, eps, incl, proj, t1, t2)
    raise D0resError("pad needs two modules or two jet pairs")


# -- annihilators and lengths ------------------------------------------------------


@dataclass(frozen=True)
class AnnihilatorIdeal:
    """Reduced echelon basis of the polynomials (degree <= bound) killing a
    module; comparable across modules of the same ambient dimension."""

    degree_bound: int
    monomials: tuple
    echelon: tuple            # tuple of coefficient tuples, RREF rows
    polys: tuple

    def __eq__(self, other):
        if not isinstance(other, AnnihilatorIdeal):
            return NotImplemented
        return (self.degree_bound == other.degree_bound
                and self.monomials == other.monomials
                and self.echelon == other.echelon)

    @property
    def quotient_dim(self):
        """Dimension of the polynomials of degree <= bound modulo the ideal:
        the dimension of the algebra the actions generate at that degree."""
        return len(self.monomials) - len(self.echelon)


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


def _dense(entries, ncols):
    vec = [_ZERO] * ncols
    for c, v in entries.items():
        vec[c] = v
    return tuple(vec)


def _ideal(nvars, degree_bound, monomials, rows):
    """The AnnihilatorIdeal cut out by the evaluation functionals `rows`."""
    basis = kernel_echelon(rows, len(monomials))
    return AnnihilatorIdeal(
        degree_bound=degree_bound,
        monomials=tuple(monomials),
        echelon=tuple(_dense(entries, len(monomials)) for entries in basis),
        polys=tuple(Poly(nvars, {monomials[c]: entries[c] for c in sorted(entries)})
                    for entries in basis),
    )


def _evaluation_rows(module: FiniteModule, degree):
    """Matrix of the evaluation map Poly_<=degree -> End(module); columns in
    graded-lex monomial order, rows = flattened matrix entries."""
    monomials = monomials_upto(module.ambient_dim, degree)
    identity = ExactMatrix.identity(module.dim)
    cols = []
    cache = {}

    def mono_matrix(exp):
        if exp in cache:
            return cache[exp]
        if sum(exp) == 0:
            out = identity
        else:
            idx = next(i for i, e in enumerate(exp) if e > 0)
            smaller = tuple(e - 1 if i == idx else e for i, e in enumerate(exp))
            out = module.actions[idx] * mono_matrix(smaller)
        cache[exp] = out
        return out

    for exp in monomials:
        cols.append(mono_matrix(exp).flat())
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
    return _ideal(module.ambient_dim, degree_bound, monomials, rows)


def fiber_annihilator(b: BranchParam, rank: int, degree_bound: int,
                      filler: FiniteModule = None) -> AnnihilatorIdeal:
    """Annihilator of fiber_module(b, rank), or of its direct sum with one or
    more copies of `filler`, from series coefficients.

    The fiber is cyclic, generated by 1, so f kills it iff the t^0..t^(rank-1)
    coefficients of f(x(t)) vanish: `rank` rows.  A direct sum is killed iff
    every summand is, so the filler's evaluation rows are stacked below;
    one copy gives the same kernel as many.
    """
    if rank < 1:
        raise D0resError("rank must be positive")
    if b.trunc < rank:
        raise RaiseTruncation("fiber construction needs truncation >= rank",
                              needed=rank)
    monomials = monomials_upto(b.ambient_dim, degree_bound)
    cols, _ = _evaluation_columns(b, monomials, rank)
    rows = [[col[i] for col in cols] for i in range(rank)]
    if filler is not None:
        rows.extend(_evaluation_rows(filler, degree_bound)[1])
    return _ideal(b.ambient_dim, degree_bound, monomials, rows)


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
