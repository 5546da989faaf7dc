"""Integer kernels and the Fraction-level wrappers used by linalg and series.

Clearing denominators up front lets the whole elimination/product run on
plain ints, skipping the per-operation gcd that Fraction arithmetic pays.
`imatmul` and `irow_echelon` serve the matrix products and eliminations
(`fmatmul`, `frref`); `iconv` serves the truncated series product, which
`Series.__mul__` feeds one integer vector per power of the field generator,
the second factor as its `nonzero_pairs`; `isolve` serves the inverse of a
number-field element (`FieldElement.inverse`).
`IMPLEMENTATION` names these kernels in benchmark result stamps.
"""

from fractions import Fraction
from math import gcd, lcm

IMPLEMENTATION = "pure"


def imatmul(a, b):
    """Matrix product of list-of-list integer matrices.

    A row saxpy over the nonzero entries of `a`, each touching only the
    nonzero entries of the row of `b` it scales: the shift, Toeplitz and
    padded block-diagonal factors of the certificates are mostly zero.
    """
    m = len(b[0]) if b else 0
    b_nonzero = [[(j, w) for j, w in enumerate(row) if w] for row in b]
    out = []
    for ai in a:
        row = [0] * m
        for l, v in enumerate(ai):
            if v:
                for j, w in b_nonzero[l]:
                    row[j] += v * w
        out.append(row)
    return out


def nonzero_pairs(b):
    """The (index, value) pairs of the nonzero entries of b, by index: the
    form in which `iconv` takes its second factor, so that a factor used
    in many products is scanned once."""
    return [(j, w) for j, w in enumerate(b) if w]


def iconv(a, b_pairs, n, out=None):
    """Convolution of integer coefficient vectors a and b, truncated mod t^n,
    with b given by its `nonzero_pairs`.

    Like `imatmul`, it multiplies nonzero pairs only: series met in
    the certificates and colength products are often sparse.  The
    product is added into `out` (length n) when given, else into zeros.
    """
    if out is None:
        out = [0] * n
    for i, v in enumerate(a[:n]):
        if v:
            room = n - i
            for j, w in b_pairs:
                if j >= room:
                    break
                out[i + j] += v * w
    return out


def irow_echelon(rows):
    """Fraction-free Gaussian elimination with first-nonzero pivoting.

    Mutates `rows` (lists of ints) into row-echelon form with content-reduced
    rows; returns the pivot column indices in order.
    """
    if not rows:
        return []
    ncols = len(rows[0])
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if rows[i][c]:
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nrows):
            v = rows[i][c]
            if not v:
                continue
            ri = rows[i]
            rr = rows[r]
            for j in range(c, ncols):
                ri[j] = ri[j] * piv - rr[j] * v
            g = 0
            for j in range(c, ncols):
                if ri[j]:
                    g = gcd(g, ri[j])
            if g > 1:
                for j in range(c, ncols):
                    ri[j] //= g
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return pivots


def _common_denominator(rows):
    d = 1
    for row in rows:
        for x in row:
            if x.denominator != 1:
                d = lcm(d, x.denominator)
    return d


def fmatmul(a, b):
    """Product of two list-of-list Fraction matrices via the integer kernel."""
    da = _common_denominator(a)
    db = _common_denominator(b)
    ia = [[(x * da).numerator if da != 1 else x.numerator for x in row] for row in a]
    ib = [[(x * db).numerator if db != 1 else x.numerator for x in row] for row in b]
    prod = imatmul(ia, ib)
    scale = da * db
    if scale == 1:
        return [[Fraction(x) for x in row] for row in prod]
    return [[Fraction(x, scale) for x in row] for row in prod]


def frref(rows):
    """Reduced row echelon form of a list-of-list Fraction matrix.

    Returns (rref rows as Fractions, pivot column list).  Deterministic:
    the pivot is the first row with a nonzero entry in column order.
    Row-wise denominator clearing does not change the RREF.
    """
    if not rows or not rows[0]:
        return [list(r) for r in rows], []
    irows = []
    for row in rows:
        d = 1
        for x in row:
            if x.denominator != 1:
                d = lcm(d, x.denominator)
        irows.append([(x * d).numerator if d != 1 else x.numerator for x in row])
    pivots = irow_echelon(irows)
    ncols = len(irows[0])
    # back-substitute (still fraction-free), then normalize pivots to 1
    for k in range(len(pivots) - 1, -1, -1):
        c = pivots[k]
        rk = irows[k]
        piv = rk[c]
        for i in range(k):
            ri = irows[i]
            v = ri[c]
            if not v:
                continue
            for j in range(ncols):
                ri[j] = ri[j] * piv - rk[j] * v
            g = 0
            for j in range(ncols):
                if ri[j]:
                    g = gcd(g, ri[j])
            if g > 1:
                for j in range(ncols):
                    ri[j] //= g
    out = []
    for k in range(len(pivots)):
        piv = irows[k][pivots[k]]
        out.append([Fraction(x, piv) for x in irows[k]])
    for _ in range(len(pivots), len(irows)):
        out.append([Fraction(0)] * ncols)
    return out, pivots


def isolve(rows, rhs):
    """(nums, den) with z = nums / den the solution of rows * z = rhs, for a
    square integer matrix `rows` and an integer vector `rhs`; None when the
    matrix is singular.

    Fraction-free Gauss-Jordan elimination (Bareiss 1968): after the step
    on pivot k, every entry is a minor of the matrix, so each division by
    the previous pivot is exact, the diagonal holds the last pivot, and
    that pivot is the determinant up to sign.
    """
    n = len(rows)
    a = [list(row) + [b] for row, b in zip(rows, rhs)]
    prev = 1
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return None
        a[k], a[p] = a[p], a[k]
        pivot_row = a[k]
        piv = pivot_row[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(piv * v - f * w) // prev
                        for v, w in zip(a[i], pivot_row)]
        prev = piv
    return [row[n] for row in a], prev
