"""Exact dense matrices over the scalar field, with deterministic elimination.

A product or elimination whose operands are all plain rationals routes
through the integer kernels, scanned for when it runs; one with an
extension element uses the generic scalar path.
Everything is immutable; no operation ever rounds.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import D0resError
from .fields import FieldElement, power, scalar_is_zero
from .kernels import fmatmul, frref

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ExactMatrix:
    __slots__ = ("rows", "cols", "data")

    def __init__(self, data):
        data = tuple(tuple(_norm(x) for x in row) for row in data)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise D0resError("ragged matrix rows")
        else:
            width = 0
        self.data = data
        self.rows = len(data)
        self.cols = width

    @classmethod
    def _trusted(cls, rows):
        """Trusted construction from equal-length rows whose entries are
        already `Fraction`s or `FieldElement`s, such as kernel output or a
        closed form written from a module's own entries: no `_norm` and no
        ragged-row check."""
        m = cls.__new__(cls)
        m.data = tuple(map(tuple, rows))
        m.rows = len(m.data)
        m.cols = len(m.data[0]) if m.data else 0
        return m

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[_ZERO] * cols for _ in range(rows)])

    @classmethod
    def identity(cls, n):
        return cls([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    # -- basics ---------------------------------------------------------------

    def __getitem__(self, idx):
        i, j = idx
        return self.data[i][j]

    def is_zero(self):
        # every entry is a Fraction or a FieldElement, false exactly at zero
        return not any(map(any, self.data))

    def is_square(self):
        return self.rows == self.cols

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.rows != other.rows or self.cols != other.cols:
            return False
        return all(
            self.data[i][j] == other.data[i][j]
            for i in range(self.rows)
            for j in range(self.cols)
        )

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.data)
        return f"ExactMatrix[{self.rows}x{self.cols}: {body}]"

    def flat(self):
        """Row-major entry tuple (used to column-ize matrices)."""
        return tuple(x for row in self.data for x in row)

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check_same_shape(other)
        return ExactMatrix([
            [a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)
        ])

    def __sub__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        self._check_same_shape(other)
        return ExactMatrix([
            [a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.data, other.data)
        ])

    def __neg__(self):
        return ExactMatrix([[-x for x in row] for row in self.data])

    def scale(self, scalar):
        return ExactMatrix([[x * scalar for x in row] for row in self.data])

    def __mul__(self, other):
        if isinstance(other, ExactMatrix):
            if self.cols != other.rows:
                raise D0resError(
                    f"shape mismatch {self.rows}x{self.cols} * {other.rows}x{other.cols}"
                )
            if _rational(self.data) and _rational(other.data):
                return ExactMatrix._trusted(fmatmul(self.data, other.data))
            return ExactMatrix(_generic_matmul(self.data, other.data))
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, FieldElement)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n):
        if not self.is_square():
            raise D0resError("powers need a square matrix")
        if n < 0:
            raise D0resError("negative matrix power")
        return power(self, n, ExactMatrix.identity(self.rows))

    def _check_same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise D0resError("shape mismatch")

    # -- elimination ------------------------------------------------------------

    def rref(self):
        """(reduced row echelon form, pivot columns); deterministic pivoting."""
        rows, pivots = rref_rows([list(r) for r in self.data])
        return ExactMatrix(rows), pivots

    def rank(self):
        if self.rows == 0 or self.cols == 0:
            return 0
        _, pivots = self.rref()
        return len(pivots)

def _norm(x):
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, (Fraction, FieldElement)):
        return x
    raise D0resError(f"not an exact scalar: {x!r}")


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
