"""The integer kernels and their Fraction-level wrappers."""

import random
from fractions import Fraction
from math import gcd

from d0res import kernels
from d0res.fields import NumberField
from d0res.kernels import iconv, imatmul, nonzero_pairs
from d0res.linalg import _rref_generic
from d0res.series import Series, polynomial_at
from oracles import euclid_inverse, fraction_product

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


def _fraction_matrix(rng, n, m, density=0.6):
    return [[F(rng.randint(-9, 9), rng.randint(1, 4)) if rng.random() < density
             else F(0) for _ in range(m)] for _ in range(n)]


def _shaped_matrices(rng):
    """Fraction matrices of the shapes an elimination meets: square, tall,
    wide, rank-deficient (a row a combination of two others, a column a
    multiple of another), with zero rows and all zero, dense and sparse."""
    for n, m in ((4, 4), (7, 3), (3, 7), (1, 6), (6, 1), (1, 1)):
        for density in (0.3, 1.0):
            rows = _fraction_matrix(rng, n, m, density)
            yield rows
            if n > 2:
                p, q = F(rng.randint(-3, 3), 2), F(rng.randint(1, 3), 5)
                yield rows[:-1] + [[p * x + q * y for x, y in zip(rows[0],
                                                                  rows[1])]]
            if m > 1:
                c = F(rng.randint(-4, 4), 3)
                yield [[c * row[1]] + row[1:] for row in rows]
            zero = [F(0)] * m
            yield rows[:1] + [zero] + rows[1:]
            yield [zero] + rows + [zero]
            yield [list(zero) for _ in range(n)]


def test_frref_matches_generic_path():
    """`frref`, integer rows reduced by `ireduce`, equals the Fraction
    Gauss-Jordan elimination of `_rref_generic` (rows and pivots) on
    square, tall, wide, rank-deficient and zero-row matrices, and leaves
    its input as it was."""
    rng = random.Random(4)
    ranks = set()
    for _ in range(4):
        for rows in _shaped_matrices(rng):
            before = [list(r) for r in rows]
            fast, piv_fast = kernels.frref(rows)
            slow, piv_slow = _rref_generic([r[:] for r in rows])
            assert rows == before
            assert piv_fast == piv_slow
            assert [list(r) for r in fast] == [list(r) for r in slow]
            assert all(type(x) is Fraction for r in fast for x in r)
            ranks.add((len(rows), len(rows[0]), len(piv_fast)))
    for _ in range(25):
        rows = _fraction_matrix(rng, rng.randint(1, 5), rng.randint(1, 6))
        fast, piv_fast = kernels.frref([r[:] for r in rows])
        slow, piv_slow = _rref_generic([r[:] for r in rows])
        assert piv_fast == piv_slow
        assert [list(r) for r in fast] == [list(r) for r in slow]
    # full, deficient and zero rank, tall and wide
    assert {r == min(n, m) for n, m, r in ranks if r} == {True, False}
    assert any(r == 0 for _, _, r in ranks)
    assert any(n > m for n, m, _ in ranks) and any(n < m for n, m, _ in ranks)


def test_ireduce_leaves_scaled_reduced_rows():
    """`ireduce` leaves one pivot per row in order, zeros above and below
    every pivot, zero rows last and each changed row of content 1; the
    rows divided by their pivots are the reduced echelon form."""
    rng = random.Random(9)
    for _ in range(150):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rows = [[rng.choice((0, 0, rng.randint(-20, 20))) for _ in range(m)]
                for _ in range(n)]
        if n > 1 and rng.random() < 0.3:
            rows[-1] = [2 * x - 3 * y for x, y in zip(rows[0], rows[1])]
        reduced = [list(r) for r in rows]
        pivots = kernels.ireduce(reduced)
        assert pivots == sorted(set(pivots))
        for k, c in enumerate(pivots):
            assert reduced[k][c] != 0
            assert all(row[c] == 0 for i, row in enumerate(reduced) if i != k)
            assert all(x == 0 for x in reduced[k][:c])
        assert all(not any(row) for row in reduced[len(pivots):])
        assert all(gcd(*row) == 1 for row in reduced if any(row)
                   and row not in rows)
        expected, want = _rref_generic([[F(x) for x in r] for r in rows])
        assert pivots == want
        assert [[F(x, row[c]) for x in row] for row, c in zip(reduced, pivots)
                ] == [list(r) for r in expected[:len(pivots)]]
    assert kernels.ireduce([]) == []


def test_integers_clears_denominators():
    assert kernels.integers([F(1, 2), F(-2, 3), F(0), F(5)]) == ([3, -4, 0, 30], 6)
    assert kernels.integers((F(4), F(-7))) == ([4, -7], 1)
    assert kernels.integers([]) == ([], 1)


def test_clearing_denominators_makes_no_fraction_product(monkeypatch):
    """`fmatmul`, `frref` and the number-field product and inverse clear
    denominators by integer arithmetic (`kernels.integers`): on operands
    with denominators they multiply no two Fractions."""
    calls = []
    for name in ("__mul__", "__rmul__"):
        def counting(*args, _original=getattr(Fraction, name)):
            calls.append(args)
            return _original(*args)
        monkeypatch.setattr(Fraction, name, counting)
    assert F(1, 2) * 2 == 1 and len(calls) == 1       # the counter counts
    rng = random.Random(5)
    a = _fraction_matrix(rng, 4, 6)
    b = _fraction_matrix(rng, 6, 3)
    a[0][0], b[1][2] = F(1, 6), F(-5, 4)                  # denominators
    field = NumberField([F(1, 3), F(-1, 2), 0, 1])        # u^3 - 1/2 u + 1/3
    x, y = field.element([F(1, 2), F(-2, 3), 3]), field.element([F(5, 7), 1])
    calls.clear()
    product, (reduced, pivots) = kernels.fmatmul(a, b), kernels.frref(a)
    field_product, inverse = x * y, x.inverse()
    assert calls == []
    monkeypatch.undo()
    assert product == _naive_product(a, b)
    assert (reduced, pivots) == _rref_generic(a)
    assert field_product.coeffs == fraction_product(x, y).coeffs
    assert inverse.coeffs == euclid_inverse(x).coeffs


def test_implementation_flag():
    assert kernels.IMPLEMENTATION == "pure"
