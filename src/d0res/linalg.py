"""Exact matrices over the scalar field: one product and deterministic
elimination.

A product or elimination whose operands are all plain rationals routes
through the integer kernels, scanned for when it runs; one with an
extension element uses the generic scalar path.
Everything is immutable; no operation ever rounds.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import D0resError
from .fields import scalar_is_zero
from .kernels import fmatmul, frref

_ZERO = Fraction(0)


class ExactMatrix:
    """An immutable matrix of exact scalars, held by its rows: what the
    program needs of a matrix is one product and equality.  The tests'
    `oracles.DenseMatrix` adds the rest of the dense API on top."""

    __slots__ = ("rows", "cols", "data")

    @classmethod
    def _trusted(cls, rows):
        """Trusted construction from equal-length rows whose entries are
        already `Fraction`s or `FieldElement`s, such as kernel output or a
        closed form written from a module's own entries: no normalization
        and no ragged-row check."""
        m = cls.__new__(cls)
        m.data = tuple(map(tuple, rows))
        m.rows = len(m.data)
        m.cols = len(m.data[0]) if m.data else 0
        return m

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return ((self.rows, self.cols, self.data)
                == (other.rows, other.cols, other.data))

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise D0resError(
                f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}"
            )
        if _rational(self.data) and _rational(other.data):
            return self._trusted(fmatmul(self.data, other.data))
        return self._trusted(_generic_matmul(self.data, other.data))


def _generic_matmul(a, b):
    n, k = len(a), len(b)
    m = len(b[0]) if k else 0
    out = [[_ZERO] * m for _ in range(n)]
    for i in range(n):
        for l in range(k):
            v = a[i][l]
            if scalar_is_zero(v):
                continue
            brow = b[l]
            orow = out[i]
            for j in range(m):
                w = brow[j]
                if not scalar_is_zero(w):
                    orow[j] = orow[j] + v * w
    return out


def rref_rows(rows):
    """RREF of a list-of-list scalar matrix; returns (rows, pivot columns)."""
    if not rows or not rows[0]:
        return rows, []
    if _rational(rows):
        return frref(rows)
    return _rref_generic(rows)


def _rref_generic(rows):
    nrows, ncols = len(rows), len(rows[0])
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        pr = -1
        for i in range(r, nrows):
            if not scalar_is_zero(rows[i][c]):
                pr = i
                break
        if pr < 0:
            continue
        if pr != r:
            rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        inv = 1 / piv if isinstance(piv, Fraction) else piv.inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i == r:
                continue
            v = rows[i][c]
            if scalar_is_zero(v):
                continue
            rows[i] = [a - v * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    # move zero rows to the bottom, preserving order of nonzero ones
    nonzero = [row for row in rows if any(not scalar_is_zero(x) for x in row)]
    zero = [row for row in rows if all(scalar_is_zero(x) for x in row)]
    return nonzero + zero, pivots


def _rational(rows) -> bool:
    """Every entry is a plain rational, so the integer kernels apply."""
    return all(isinstance(x, Fraction) for row in rows for x in row)
