"""Integer kernels and the Fraction-level wrappers used by linalg, series
and fields.

Clearing denominators up front lets the whole elimination/product run on
plain ints, skipping the per-operation gcd that Fraction arithmetic pays.
`integers` is the one conversion of rationals to integers over a common
denominator, by integer arithmetic alone.  `imatmul` serves the matrix
products (`fmatmul`); `ireduce`, the one fraction-free elimination, serves
`frref` and the inverse of a number-field element (`FieldElement.inverse`,
on its augmented multiplication matrix); `iconv` serves the truncated
series product, which `Series.__mul__` feeds one integer vector per power
of the field generator, the second factor as its `nonzero_pairs`.
`IMPLEMENTATION` names these kernels in benchmark result stamps.
"""

from fractions import Fraction
from math import gcd, lcm

IMPLEMENTATION = "pure"

_ZERO = Fraction(0)


def integers(values, den=None):
    """(nums, den): the rationals `values` as the integers nums[k] / den
    over their least common denominator, or over `den` when given, a
    common multiple of theirs; with no Fraction arithmetic."""
    if den is None:
        den = lcm(*[x.denominator for x in values])
    if den == 1:
        return [x.numerator for x in values], 1
    return [x.numerator * (den // x.denominator) for x in values], den


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


def ireduce(rows):
    """Fraction-free Gauss-Jordan elimination with first-nonzero pivoting;
    returns the pivot column indices in order.

    Mutates `rows` (equal-length lists of ints) into reduced row-echelon
    form up to one factor per row: row k has its pivot in column
    pivots[k] and every other row a zero there, the rows past the last
    pivot are zero, and each changed row is divided by the gcd of its
    entries.  A forward pass makes the echelon form, then back-substitution
    clears above each pivot, the last first.
    """
    nrows = len(rows)
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        for p in range(r, nrows):
            if rows[p][c]:
                break
        else:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        for i in range(r + 1, nrows):
            if rows[i][c]:
                _eliminate(rows[i], rows[r], c, c)
        pivots.append(c)
        if r + 1 == nrows:
            break
    for k in range(len(pivots) - 1, 0, -1):
        c = pivots[k]
        for i in range(k):
            if rows[i][c]:
                _eliminate(rows[i], rows[k], c, pivots[i])
    return pivots


def _eliminate(row, pivot_row, c, start):
    """row <- (pivot_row[c] * row - row[c] * pivot_row) / content in place,
    which clears row[c]; both rows vanish before column `start`."""
    piv, v = pivot_row[c], row[c]
    new = [a * piv - b * v for a, b in zip(row[start:], pivot_row[start:])]
    g = gcd(*new)
    if g > 1:
        new = [x // g for x in new]
    row[start:] = new


def _integer_rows(rows):
    """(nums, den): a matrix of rationals as integer rows over one least
    common denominator, the lcm of the rows' own, converted row by row."""
    den = lcm(*[lcm(*[x.denominator for x in row]) for row in rows])
    return [integers(row, den)[0] for row in rows], den


def fmatmul(a, b):
    """Product of two list-of-list Fraction matrices via the integer kernel."""
    ia, da = _integer_rows(a)
    ib, db = _integer_rows(b)
    prod = imatmul(ia, ib)
    scale = da * db
    if scale == 1:
        return [[Fraction(x) for x in row] for row in prod]
    return [[Fraction(x, scale) for x in row] for row in prod]


def frref(rows):
    """Reduced row echelon form of a list-of-list Fraction matrix.

    Returns (rref rows as Fractions, pivot column list).  Deterministic:
    the pivot is the first row with a nonzero entry in column order.
    Each row is cleared of denominators on its own (`integers`), which
    does not change the RREF, and reduced by `ireduce`.
    """
    if not rows or not rows[0]:
        return [list(r) for r in rows], []
    irows = [integers(row)[0] for row in rows]
    pivots = ireduce(irows)
    out = [[Fraction(x, row[c]) if x else _ZERO for x in row]
           for row, c in zip(irows, pivots)]
    ncols = len(irows[0])
    out += [[_ZERO] * ncols for _ in range(len(irows) - len(pivots))]
    return out, pivots
