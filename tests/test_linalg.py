from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from d0res.errors import D0resError, NonCommutingActions
from d0res.fields import NumberField
from d0res import linalg as linalg_module
from d0res.poly import Poly
from d0res.series import Series
from oracles import (
    DenseMatrix,
    block_diag,
    eval_poly_at_matrices,
    eval_series_at_matrix,
    is_strictly_lower,
    nullspace,
    solve_exact,
)

F = Fraction


def M(rows):
    return DenseMatrix([[F(x) for x in row] for row in rows])


def test_nullspace_examples():
    assert nullspace(M([[1, 2], [2, 4]])) == [(F(-2), F(1))]
    assert nullspace(DenseMatrix.identity(3)) == []
    basis = nullspace(DenseMatrix.zeros(2, 3))
    assert len(basis) == 3
    assert basis[0] == (F(1), F(0), F(0))


def test_rref_deterministic_pivoting():
    m = M([[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    red, pivots = m.rref()
    assert pivots == [0, 1]
    assert red == M([[1, 0, -1], [0, 1, 2], [0, 0, 0]])


def test_matmul_and_pow():
    shift = M([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    sq = shift * shift
    assert sq == M([[0, 0, 0], [0, 0, 0], [1, 0, 0]])
    assert (shift ** 3).is_zero()
    assert shift ** 0 == DenseMatrix.identity(3)


def test_eval_poly_at_matrices_examples():
    shift3 = M([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    zero3 = DenseMatrix.zeros(3, 3)
    one = Poly.constant(2, F(1))
    assert eval_poly_at_matrices(one, [shift3, zero3]) == DenseMatrix.identity(3)
    xsq = Poly(2, {(2, 0): F(1)})
    assert eval_poly_at_matrices(xsq, [shift3, zero3]) == shift3 * shift3
    xy = Poly(2, {(1, 1): F(1)})
    assert eval_poly_at_matrices(xy, [shift3, zero3]).is_zero()


def test_eval_poly_rejects_non_commuting():
    a = M([[0, 1], [0, 0]])
    b = M([[0, 0], [1, 0]])
    with pytest.raises(NonCommutingActions):
        eval_poly_at_matrices(Poly(2, {(1, 1): F(1)}), [a, b])


def test_eval_series_at_matrix():
    shift = M([[0, 0], [1, 0]])
    s = Series.from_pairs([(1, F(2)), (2, F(5))], 4)
    assert eval_series_at_matrix(s, shift) == shift.scale(F(2))
    with pytest.raises(D0resError):
        eval_series_at_matrix(Series.from_pairs([(0, F(1))], 1),
                              M([[1, 0], [0, 1]]))


def test_solve_exact():
    rows = [[F(1), F(2)], [F(3), F(4)]]
    sol, free = solve_exact(rows, [F(5), F(6)])
    assert free == 0
    assert sol == [F(-4), F(9, 2)]
    sol2, _ = solve_exact([[F(1), F(1)], [F(2), F(2)]], [F(1), F(3)])
    assert sol2 is None


def test_block_diag():
    a = M([[1, 2], [3, 4]])
    b = M([[5]])
    c = block_diag(a, b)
    assert c.rows == 3 and c.cols == 3
    assert c[2, 2] == 5 and c[2, 0] == 0


def _assert_as_if_checked(m):
    """`m` equals DenseMatrix(m's rows) built through the checked
    constructor, slot by slot: tuple rows, entry types and shape."""
    checked = DenseMatrix([list(row) for row in m.data])
    assert type(m.data) is tuple and all(type(row) is tuple for row in m.data)
    assert m.data == checked.data
    assert [type(x) for row in m.data for x in row] == [
        type(x) for row in checked.data for x in row]
    assert (m.rows, m.cols) == (checked.rows, checked.cols)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4), st.data())
def test_trusted_products_and_direct_sums(n, k, m, data):
    """Products of rational matrices skip the constructor's checks; they
    still equal the checked matrix, and so do the tests' direct sums."""
    a = DenseMatrix([[data.draw(rationals) for _ in range(k)] for _ in range(n)])
    b = DenseMatrix([[data.draw(rationals) for _ in range(m)] for _ in range(k)])
    prod = a * b
    _assert_as_if_checked(prod)
    assert prod == DenseMatrix([[sum(a[i, l] * b[l, j] for l in range(k))
                                 for j in range(m)] for i in range(n)])
    total = block_diag(a, b, prod)
    _assert_as_if_checked(total)
    assert (total.rows, total.cols) == (n + k + n, k + m + m)


def test_direct_sum_with_field_elements_is_checked(monkeypatch):
    """A product scans its two operands for its kernel: rational by
    rational runs the integer kernel, and a field element on either side
    the generic one.  Both products, and direct sums mixing the two kinds
    of block, equal the checked matrix."""
    kernels = []
    for name in ("fmatmul", "_generic_matmul"):
        def recorded(a, b, name=name, product=getattr(linalg_module, name)):
            kernels.append(name)
            return product(a, b)
        monkeypatch.setattr(linalg_module, name, recorded)
    gauss = NumberField([1, 0, 1], generator="i")
    field_block = DenseMatrix([[gauss.gen(), F(0)], [F(1), gauss.gen()]])
    rational_block = M([[1, 2], [3, 4]])
    for blocks in ((field_block, rational_block), (rational_block, field_block)):
        _assert_as_if_checked(block_diag(*blocks))
        _assert_as_if_checked(blocks[0] * blocks[1])
    _assert_as_if_checked(rational_block * rational_block)
    assert kernels == ["_generic_matmul", "_generic_matmul", "fmatmul"]


def test_is_strictly_lower():
    assert is_strictly_lower(M([[0, 0], [5, 0]]))
    assert is_strictly_lower(DenseMatrix.zeros(3, 3))
    assert not is_strictly_lower(M([[0, 0], [5, 1]]))
    assert not is_strictly_lower(M([[0, 1], [0, 0]]))
    assert not is_strictly_lower(DenseMatrix.zeros(2, 3))


def test_extension_field_matrices():
    gauss = NumberField([1, 0, 1], generator="i")
    i = gauss.gen()
    m = DenseMatrix([[i, gauss.from_rational(1)],
                     [gauss.from_rational(-1), i]])
    # (i row-reduces to a rank-1 matrix: second row = -i * first)
    assert m.rank() == 1
    ns = nullspace(m)
    assert len(ns) == 1
    v = ns[0]
    assert all((m.data[r][0] * v[0] + m.data[r][1] * v[1]).is_zero()
               for r in range(2))


entries = st.integers(min_value=-9, max_value=9)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.integers(1, 4), st.data())
def test_nullspace_property(rows, cols, data):
    mat = M([[data.draw(entries) for _ in range(cols)] for _ in range(rows)])
    basis = nullspace(mat)
    assert len(basis) == cols - mat.rank()
    for v in basis:
        assert (mat * M([[x] for x in v])).is_zero()


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_eval_poly_is_ring_homomorphism(data):
    # commuting pair: powers of one matrix
    base = M([[data.draw(entries) for _ in range(3)] for _ in range(3)])
    a = base
    b = base * base
    fs = st.dictionaries(
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        max_size=4,
    )
    f = Poly(2, data.draw(fs))
    g = Poly(2, data.draw(fs))
    lhs = eval_poly_at_matrices(f * g, [a, b])
    rhs = eval_poly_at_matrices(f, [a, b]) * eval_poly_at_matrices(g, [a, b])
    assert lhs == rhs
    # the same f, g over truncated series and over scalars
    series = [Series([F(data.draw(entries)) for _ in range(6)]) for _ in range(2)]
    scalars = [F(data.draw(entries), data.draw(st.integers(1, 5))) for _ in range(2)]
    for values, one in ((series, Series.one(6)), (scalars, F(1))):
        assert (f * g).evaluate(values, one) == (
            f.evaluate(values, one) * g.evaluate(values, one))
        assert (f + g).evaluate(values, one) == (
            f.evaluate(values, one) + g.evaluate(values, one))
