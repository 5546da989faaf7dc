"""The integer kernels and their Fraction-level wrappers."""

import random
from fractions import Fraction

from d0res import kernels
from d0res.kernels import iconv, imatmul, isolve, nonzero_pairs
from d0res.linalg import _rref_generic
from d0res.series import Series, polynomial_at

F = Fraction


def test_pure_matmul_correct():
    a = [[1, 2], [3, 4]]
    b = [[5, 6], [7, 8]]
    assert imatmul(a, b) == [[19, 22], [43, 50]]


def _naive_product(a, b):
    return [[sum(a[i][l] * b[l][j] for l in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def test_imatmul_matches_naive_product():
    rng = random.Random(7)
    for density in (0.0, 0.15, 0.5, 1.0):
        for _ in range(30):
            n, k, m = rng.randint(1, 7), rng.randint(1, 7), rng.randint(1, 7)

            def draw(rows, cols):
                return [[rng.randint(-9, 9) if rng.random() < density else 0
                         for _ in range(cols)] for _ in range(rows)]

            a, b = draw(n, k), draw(k, m)
            if n > 1:
                a[rng.randrange(n)] = [0] * k       # a zero row
            if k > 1:
                b[rng.randrange(k)] = [0] * m
            assert imatmul(a, b) == _naive_product(a, b)


def _naive_convolution(a, b, n):
    return [sum(a[i] * b[k - i] for i in range(k + 1) if i < len(a) and k - i < len(b))
            for k in range(n)]


def test_iconv_matches_naive_convolution():
    rng = random.Random(11)
    for density in (0.0, 0.15, 0.5, 1.0):
        for _ in range(40):
            n = rng.randint(1, 12)

            def draw():
                vec = [rng.randint(-9, 9) if rng.random() < density else 0
                       for _ in range(rng.randint(1, n + 3))]
                start = rng.randrange(len(vec))     # a run of zeros
                end = min(len(vec), start + rng.randint(0, 4))
                vec[start:end] = [0] * (end - start)
                return vec

            a, b = draw(), draw()
            pairs = nonzero_pairs(b)
            assert iconv(a, pairs, n) == _naive_convolution(a, b, n)
            acc = [rng.randint(-9, 9) for _ in range(n)]
            expected = [u + v for u, v in zip(acc, _naive_convolution(a, b, n))]
            assert iconv(a, pairs, n, acc) is acc
            assert acc == expected


def test_one_scan_serves_products_at_every_length():
    """Horner's pattern: the nonzero pairs of x, taken once, multiply a
    new accumulator at every step, mod t^n for n falling with the step.
    Each product, and the whole evaluation, equals the dense one."""
    rng = random.Random(23)
    for _ in range(30):
        n = rng.randint(1, 14)
        x = [0] + [rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n - 1)]
        pairs = nonzero_pairs(x)
        for m in range(n, 0, -1):
            acc = [rng.randint(-9, 9) for _ in range(m)]
            assert iconv(acc, pairs, m) == _naive_convolution(acc, x, m)
        coeffs = [rng.randint(-9, 9) for _ in range(rng.randint(1, 6))]
        dense = [0] * n
        for c in reversed(coeffs):
            dense = _naive_convolution(dense, x, n)
            dense[0] += c
        value = polynomial_at({(k,): F(c) for k, c in enumerate(coeffs) if c},
                              [Series([F(v) for v in x])])
        assert value == Series([F(v) for v in dense])


def test_frref_matches_generic_path():
    rng = random.Random(4)
    for _ in range(25):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        rows = [[F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(m)]
                for _ in range(n)]
        fast, piv_fast = kernels.frref([r[:] for r in rows])
        slow, piv_slow = _rref_generic([r[:] for r in rows])
        assert piv_fast == piv_slow
        assert [list(r) for r in fast] == [list(r) for r in slow]


def test_isolve_matches_fraction_elimination():
    """The fraction-free solve agrees with Fraction Gauss-Jordan on the
    augmented matrix: the solution when that has full rank, None when the
    matrix is singular, and its denominator is the determinant up to
    sign."""
    rng = random.Random(11)
    singular = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [[rng.choice((0, 0, rng.randint(-6, 6))) for _ in range(n)]
                for _ in range(n)]
        if rng.random() < 0.2:      # a repeated row
            rows[-1] = list(rows[0])
        rhs = [rng.randint(-5, 5) for _ in range(n)]
        solved = isolve(rows, rhs)
        reduced, pivots = _rref_generic(
            [[F(v) for v in row] + [F(b)] for row, b in zip(rows, rhs)])
        if pivots[:n] != list(range(n)):
            assert solved is None
            singular += 1
            continue
        nums, den = solved
        assert [F(v, den) for v in nums] == [row[n] for row in reduced]
        det = _determinant([[F(v) for v in row] for row in rows])
        assert abs(den) == abs(det)
    assert 0 < singular < 200


def _determinant(rows):
    """The determinant of a square Fraction matrix, by cofactors."""
    if len(rows) == 1:
        return rows[0][0]
    return sum((-1) ** j * rows[0][j]
               * _determinant([row[:j] + row[j + 1:] for row in rows[1:]])
               for j in range(len(rows)) if rows[0][j])


def test_implementation_flag():
    assert kernels.IMPLEMENTATION == "pure"
