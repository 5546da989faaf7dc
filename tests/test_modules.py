from dataclasses import fields, replace
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from d0res.branches import BranchParam
from d0res.errors import D0resError, NonCommutingActions, RaiseTruncation
from d0res.fields import FieldElement, NumberField, format_scalar, scalar_is_zero
from d0res import linalg as linalg_module
from d0res.linalg import ExactMatrix, rref_rows
from d0res.modules import (
    DirectSum,
    _action_power,
    FiniteModule,
    JetPair,
    annihilator,
    fiber_module,
    graph_skyscraper,
    jet_pair,
    kernel_echelon,
    pad,
)
from d0res.poly import Poly, poly_text
from d0res.series import Series
from d0res.verify import (
    CertificateFamily,
    _fiber_layout,
    _kills,
    _power_is_zero,
    _printed,
)
from oracles import (
    DenseJet,
    DenseMatrix,
    DenseModule,
    NotNilpotent,
    assembled,
    block_diag,
    check_jet_dense,
    check_module_dense,
    dense_action,
    dense_actions,
    dense_annihilator,
    dense_sum,
    eval_poly_at_matrices,
    eval_series_at_matrix,
    is_strictly_lower,
    jet_uniformizer,
    multiplication_matrix,
    nilpotency_index,
    nullspace,
    support_length,
    total_degree,
)

F = Fraction


def B(*coords, n=16):
    return BranchParam(tuple(
        Series.from_pairs([(e, F(c)) for e, c in pairs], n) for pairs in coords
    ))


CUSP = B([(2, 1)], [(3, 1)])
NODE1 = B([(1, 1)], [])
SMOOTH = NODE1


def M(rows):
    return DenseMatrix([[F(x) for x in row] for row in rows])


# what `FiniteModule` says of a column with a t^0 term and of a jet row of
# the wrong length, what `JetPair` says of a jet off its fiber's columns,
# and what a series reading says of a module held as jets
NOT_NILPOTENT = ("an action's column has a nonzero t^0 coefficient, so the "
                 "action is not nilpotent")
C_LENGTH = "a jet's c row must have the fiber's length"
FRAME = "inclusion and projection must intertwine the coordinate actions"
NOT_A_FIBER = "a fiber's actions must be strictly lower-triangular Toeplitz"
NOT_COMMUTING = "coordinate actions must commute"


def _dense_of(columns=(), jets=()):
    """The dense actions that `columns` or `jets` write, whether or not
    `FiniteModule` would hold them."""
    return (tuple(dense_action(col) for col in columns)
            + tuple(dense_action(col, c) for col, c in jets))


def test_fiber_module_examples():
    fm = fiber_module(CUSP, 2)
    assert fm.columns == (Series.zero(2), Series.zero(2)) and fm.jets is None
    assert all(a.is_zero() for a in dense_actions(fm))
    fm2 = fiber_module(NODE1, 2)
    assert dense_actions(fm2)[0] == M([[0, 0], [1, 0]])
    assert dense_actions(fm2)[1].is_zero()
    fm3 = fiber_module(SMOOTH, 1)
    assert fm3.dim == 1 and all(a.is_zero() for a in dense_actions(fm3))


def test_fiber_module_needs_truncation():
    with pytest.raises(RaiseTruncation):
        fiber_module(B([(2, 1)], [(3, 1)], n=4), 5)


def test_fiber_equals_multiplication_table():
    for branch in (CUSP, NODE1, B([(1, 1)], [(2, 1)])):
        for r in (1, 2, 3, 4, 6):
            fm = fiber_module(branch, r)
            for s, a in zip(branch.coords, dense_actions(fm)):
                assert multiplication_matrix(s.truncate(r), r) == a


def test_jet_pair_structure():
    jp = dense_sum(jet_pair(CUSP, 3))
    r = jp.rank
    assert jp.m1.dim == 3 and jp.m2.dim == 6
    assert (jp.eps * jp.eps).is_zero()
    assert (jp.proj * jp.incl).is_zero()
    assert jp.incl * jp.proj == jp.eps
    assert jp.incl.rank() == r and jp.proj.rank() == r
    # uniformizer nilpotency jumps by exactly one on the jet
    assert nilpotency_index(jp.t_m1) == 3
    assert nilpotency_index(jp.t_m2) == 4


@pytest.mark.parametrize("r", range(2, 9))
def test_jet_nilpotency_indices(r):
    jp = dense_sum(jet_pair(CUSP, r))
    assert nilpotency_index(jp.t_m1) == r
    assert nilpotency_index(jp.t_m2) == r + 1


def test_cusp_jet_coordinate_action():
    jp = jet_pair(CUSP, 2)
    assert jp.m2.jets[0] == (Series.zero(2), (F(2), F(0)))
    x2 = dense_actions(jp.m2)[0]
    assert x2 == M([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [2, 0, 0, 0]])
    assert dense_actions(jp.m1)[0].is_zero()


def test_jet_matches_fiber():
    for r in (1, 2, 3):
        jp = jet_pair(CUSP, r)
        fm = fiber_module(CUSP, r)
        assert jp.m1.same_presentation(fm)


def test_graph_skyscraper():
    jet = graph_skyscraper(SMOOTH)
    fib = jet.m1
    assert jet == jet_pair(SMOOTH, 1)
    assert fib.dim == 1 and all(a.is_zero() for a in dense_actions(fib))
    assert not dense_actions(jet.m2)[0].is_zero()   # coefficient of t is 1
    assert dense_actions(jet.m2)[1].is_zero()
    jet_cusp = graph_skyscraper(CUSP)
    assert all(a.is_zero() for a in dense_actions(jet_cusp.m2))


def _bumped(a, i, j):
    """`a` with 1 added at entry (i, j)."""
    data = [list(row) for row in a.data]
    data[i][j] += 1
    return DenseMatrix(data)


# the cusp's rank-2 jet: all M1 actions zero, M2's x action 2*E(3, 0);
# padded with two skyscrapers its M2 frame has tops 0, 1, 4, 6 and
# bottoms 2, 3, 5, 7
CUSP_JET = jet_pair(CUSP, 2)
CUSP_PADDED = pad(CUSP_JET, graph_skyscraper(CUSP), 2)


@pytest.mark.parametrize("jet, entry", [
    (CUSP_JET, (1, 2)),         # top-right: a bottom mapped into the tops
    (CUSP_JET, (3, 2)),         # bottom-right differs from the M1 action
    (CUSP_JET, (1, 0)),         # top-left differs from the M1 action
    (CUSP_PADDED, (4, 7)),      # top-right across two blocks
    (CUSP_PADDED, (7, 5)),      # bottom-right across two blocks
])
def test_jet_pair_rejects_actions_off_the_frame(jet, entry):
    """An M2 action that is a valid module action, as the dense reference
    finds, but does not read [[A, 0], [C, A]] on (tops, bottoms) is
    rejected by the tests' `DenseJet`, on one block and across several.
    A jet held by its series cannot be such an action: it holds only A's
    column and C's last row."""
    dense = dense_sum(jet)
    assert replace(dense) == dense
    x2 = _bumped(dense.m2.actions[0], *entry)
    actions = (x2,) + dense.m2.actions[1:]
    DenseModule(dense.m2.dim, actions)                  # still valid
    with pytest.raises(D0resError, match="off the jet frame"):
        replace(dense, m2=DenseModule(dense.m2.dim, actions))


def test_a_jet_pair_is_its_fiber_and_its_jet():
    """A jet pair holds M1 and M2 and nothing else, on one fixed frame; it
    refuses a jet of the wrong dimension or ambient dimension, an M2 held
    by columns, and jets whose columns are not its fiber's, with the text
    the CLI prints."""
    jet = CUSP_JET
    assert [f.name for f in fields(JetPair)] == ["m1", "m2"]
    assert JetPair(jet.m1, jet.m2) == jet
    with pytest.raises(D0resError, match="twice the fiber dimension"):
        JetPair(jet.m1, jet_pair(CUSP, 3).m2)
    space = jet_pair(B([(2, 1)], [(3, 1)], [(4, 1)]), 2)
    with pytest.raises(D0resError, match="share the ambient dimension"):
        JetPair(jet.m1, space.m2)
    with pytest.raises(D0resError, match="M2 must be held as jets"):
        JetPair(jet.m1, fiber_module(CUSP, 4))
    with pytest.raises(D0resError) as caught:
        JetPair(fiber_module(NODE1, 2), jet_pair(B([(1, 1)], [(1, 1)]), 2).m2)
    assert str(caught.value) == FRAME


def test_the_dense_jet_checks_uniformizer_and_blocks():
    """The tests' dense jet refuses a uniformizer off its frame and blocks
    that do not fit its dims."""
    jet = dense_sum(CUSP_JET)
    with pytest.raises(D0resError):     # t_m1 is not t_m2's diagonal block
        replace(jet, t_m1=DenseMatrix.zeros(2, 2))
    with pytest.raises(D0resError):     # t_m2 maps a bottom into the tops
        replace(jet, t_m2=_bumped(jet.t_m2, 0, 3))
    for blocks in ((1,), (3,), (2, 0), (1, 1)):
        with pytest.raises(D0resError):
            replace(jet, blocks=blocks)


def test_pad_examples():
    jet = graph_skyscraper(NODE1)
    fib = jet.m1
    base = fiber_module(NODE1, 2)
    assert pad(base, fib, 0) is base
    padded = pad(base, fib, 1)
    assert padded.dim == 3
    assert dense_sum(padded).actions[0] == M([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    jp = pad(jet_pair(NODE1, 2), jet, 2)
    assert jp.m1.dim == 4 and jp.m2.dim == 8 and jp.rank == 4
    dense = dense_sum(jp)
    assert (dense.eps * dense.eps).is_zero()
    assert dense.incl * dense.proj == dense.eps
    with pytest.raises(D0resError):
        pad(base, fiber_module(B([(1, 1)], [], [], n=8), 1), 1)


def test_pad_builds_a_direct_sum_of_its_summands():
    """`pad` holds base and filler as (summand, copies) runs; a jet sum's m1
    and m2 are the sums of its summands' m1 and m2.  The dense sums the
    tests assemble pass the dense reference and the public constructors."""
    sky_jet = graph_skyscraper(NODE1)
    sky = sky_jet.m1
    base = fiber_module(NODE1, 2)
    padded = pad(base, sky, 3)
    assert padded == DirectSum(((base, 1), (sky, 3)))
    assert (padded.dim, padded.ambient_dim) == (5, 2)
    check_module_dense(dense_sum(padded))
    jet = pad(jet_pair(NODE1, 2), sky_jet, 3)
    assert jet.runs == ((jet_pair(NODE1, 2), 1), (sky_jet, 3))
    assert dense_sum(jet).blocks == (2, 1, 1, 1) and jet.rank == 5
    assert jet.m1 == DirectSum(((jet_pair(NODE1, 2).m1, 1), (sky_jet.m1, 3)))
    assert jet.m2 == DirectSum(((jet_pair(NODE1, 2).m2, 1), (sky_jet.m2, 3)))
    check_jet_dense(dense_sum(jet))
    assert dense_sum(jet).m2.actions[0] == block_diag(
        dense_actions(jet_pair(NODE1, 2).m2)[0],
        *[dense_actions(sky_jet.m2)[0]] * 3)


def test_pad_builds_no_matrix(monkeypatch):
    """Padding a jet pair with a million skyscraper jets builds no matrix:
    the sum is its two runs."""
    sky_jet = graph_skyscraper(NODE1)
    base = jet_pair(NODE1, 2)

    def refuse(*args):
        raise AssertionError("pad built a matrix")

    monkeypatch.setattr(ExactMatrix, "_trusted", refuse)
    jet = pad(base, sky_jet, 10**6)
    assert jet.rank == 2 + 10**6 and jet.runs == ((base, 1), (sky_jet, 10**6))
    assert jet.m1.runs == ((base.m1, 1), (sky_jet.m1, 10**6))


def test_pad_rejects_mismatched_ambient_dimensions():
    space = B([(1, 1)], [], [], n=8)
    with pytest.raises(D0resError, match="ambient dimension"):
        pad(fiber_module(NODE1, 2), graph_skyscraper(space).m1, 1)
    with pytest.raises(D0resError, match="ambient dimension"):
        pad(jet_pair(NODE1, 2), graph_skyscraper(space), 1)
    with pytest.raises(D0resError, match="two modules or two jet pairs"):
        pad(jet_pair(NODE1, 2), graph_skyscraper(NODE1).m1, 1)


def test_a_bad_filler_is_refused_when_built():
    """A filler whose actions are not nilpotent, or do not commute, never
    exists to be padded: `FiniteModule` refuses a column with a t^0 term
    and jets whose rows break c^T B = d^T A, and the dense reference
    refuses their dense actions by its powers or its products.  Each
    module's dim is the one its dense actions read."""
    shift = Series([F(0), F(1)])
    not_nilpotent = {"columns": (Series([F(1)]), Series.zero(1))}
    # [[S, 0], [e (0, 1), S]] and [[S, 0], [0, S]]: e c^T S = e (1, 0)
    not_commuting = {"jets": ((shift, (F(0), F(1))), (shift, (F(0), F(0))))}
    assert (Series.zero(2), None) not in not_commuting["jets"]
    for held, dim, text, dense_error in (
            (not_nilpotent, 1, NOT_NILPOTENT, NotNilpotent),
            (not_commuting, 4, NOT_COMMUTING, NonCommutingActions)):
        actions = _dense_of(**held)
        assert all(a.rows == dim for a in actions)
        with pytest.raises(D0resError) as caught:
            FiniteModule(dim, **held)
        assert str(caught.value) == text
        with pytest.raises(dense_error):
            DenseModule(dim, actions)


PADDED = pad(fiber_module(NODE1, 2), graph_skyscraper(NODE1).m1, 2)
SPACE_SKY = graph_skyscraper(B([(1, 1)], [], [], n=8))


@pytest.mark.parametrize("runs", [
    (PADDED.runs[0], (PADDED.runs[1][0], 0)),           # zero copies
    (PADDED.runs[0], (PADDED.runs[1][0], -1)),          # negative copies
    ((PADDED.runs[0][0].columns[0], 1), PADDED.runs[1]),  # a series summand
    (PADDED.runs[0], (CUSP_JET, 1)),                    # a module and a jet
    (PADDED.runs[0], (SPACE_SKY.m1, 2)),                # ambient mismatch
    (),                                                 # no runs
])
def test_a_direct_sum_must_be_its_summands(runs):
    """A sum of modules is built only from modules of one ambient
    dimension, each with a positive copy count."""
    assert DirectSum(PADDED.runs) == PADDED
    with pytest.raises(D0resError, match="summands|ambient"):
        DirectSum(runs)


def test_a_padded_jet_must_be_its_summands():
    """A sum of jet pairs is built only from jet pairs of one ambient
    dimension, each with a positive copy count, and its m1 and m2 are
    the sums of its summands'."""
    jet = pad(CUSP_JET, graph_skyscraper(CUSP), 2)
    assert DirectSum(jet.runs) == jet
    assert jet.m1.runs == ((CUSP_JET.m1, 1), (graph_skyscraper(CUSP).m1, 2))
    assert jet.m2.dim == 2 * jet.m1.dim == 2 * jet.rank == 8
    bad = [
        (jet.runs[0], (jet.runs[1][0], 0)),
        (jet.runs[0], (CUSP_JET.m1, 1)),
        (jet.runs[0], (SPACE_SKY, 2)),
        (),
    ]
    for runs in bad:
        with pytest.raises(D0resError, match="summands|ambient"):
            DirectSum(runs)


def test_annihilator_examples():
    ann = annihilator(fiber_module(NODE1, 2), 2)
    texts = [poly_text(p) for p in ann.polys]
    assert "y" in texts and "x^2" in texts
    assert all("x" != t for t in texts)
    sky = graph_skyscraper(NODE1).m1
    ann_sky = annihilator(sky, 2)
    assert [poly_text(p) for p in ann_sky.polys] == ["x", "y", "x^2", "x*y", "y^2"]
    ann_cusp = annihilator(fiber_module(CUSP, 2), 2)
    texts_cusp = [poly_text(p) for p in ann_cusp.polys]
    assert "x" in texts_cusp and "y" in texts_cusp


def test_annihilator_ideal_closure():
    module = fiber_module(B([(1, 1)], [(2, 1)]), 3)
    ann = annihilator(module)
    # multiplying a basis element by a coordinate stays inside the ideal
    for p in ann.polys:
        for var in range(2):
            shifted = p * Poly.variable(2, var)
            if total_degree(shifted) <= ann.degree_bound:
                assert eval_poly_at_matrices(
                    shifted, dense_actions(module)).is_zero()


def test_annihilator_is_iso_invariant_not_basis_dependent():
    mod = fiber_module(NODE1, 3)
    # conjugate by an invertible change of basis: annihilator must not change
    p = M([[1, 0, 0], [2, 1, 0], [0, 1, 1]])
    p_inv = M([[1, 0, 0], [-2, 1, 0], [2, -1, 1]])
    assert p * p_inv == DenseMatrix.identity(3)
    conj = DenseModule(3, tuple(p * a * p_inv for a in dense_actions(mod)))
    assert dense_annihilator(conj, 3) == annihilator(mod, 3)


GAUSS = NumberField([1, 0, 1], generator="i")
# mostly zeros, so that kernels and dependent columns are common
sparse_rationals = st.one_of(
    st.just(F(0)), st.just(F(0)),
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
)
sparse_gaussians = st.tuples(sparse_rationals, sparse_rationals).map(
    lambda c: GAUSS.element(list(c)))


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 5), st.integers(1, 7), st.data())
def test_kernel_echelon_matches_nullspace_rref(nrows, ncols, data):
    scalars = data.draw(st.sampled_from([sparse_rationals, sparse_gaussians]))
    rows = [[data.draw(scalars) for _ in range(ncols)] for _ in range(nrows)]
    kernel = nullspace(DenseMatrix(rows))
    expected = []
    if kernel:
        reduced, _ = rref_rows([list(v) for v in kernel])
        expected = [tuple(r) for r in reduced
                    if any(not scalar_is_zero(x) for x in r)]
    dense = []
    for entries in kernel_echelon(rows, ncols):
        vec = [F(0)] * ncols
        for c, v in entries.items():
            vec[c] = v
        dense.append(tuple(vec))
    assert dense == expected


def test_fiber_annihilator_matches_generic_oracle():
    """The bare fiber's annihilator, read off its columns, is the dense
    one of the fiber, and of the fiber padded with two skyscrapers: its
    t^0 row f -> f(0) already holds it inside the skyscraper's
    annihilator."""
    for branch in (CUSP, NODE1, B([(1, 1)], [(2, 1)]), B([(3, 1)], [(4, 1), (5, 2)])):
        sky = graph_skyscraper(branch).m1
        for rank in (1, 2, 3, 5):
            fiber = fiber_module(branch, rank)
            padded = dense_sum(pad(fiber, sky, 2))
            for bound in (rank, rank + 2):
                assert (annihilator(fiber, bound)
                        == dense_annihilator(fiber, bound))
                assert (annihilator(fiber, bound + 2)
                        == dense_annihilator(padded, bound + 2))
    with pytest.raises(RaiseTruncation):
        fiber_module(B([(2, 1)], [(3, 1)], n=4), 5)


def test_annihilator_rows_are_sparse_in_column_order():
    """Each stored basis row lists its nonzero entries by increasing
    monomial column; on y = x^2 + x^3 at rank 4 some row has three."""
    ann = annihilator(fiber_module(B([(1, 1)], [(2, 1), (3, 1)]), 4), 4)
    assert max(len(row) for row in ann.rows) >= 3
    for row in ann.rows:
        cols = [c for c, _ in row]
        assert cols == sorted(cols)
        assert not any(scalar_is_zero(v) for _, v in row)


def test_support_length_examples():
    assert support_length(fiber_module(NODE1, 2)) == 2
    assert support_length(fiber_module(CUSP, 2)) == 1
    sky = graph_skyscraper(NODE1).m1
    assert support_length(sky) == 1


def test_support_length_lower_bound_small():
    for branch, n in ((CUSP, 2), (NODE1, 1)):
        for l in (1, 2, 3):
            module = fiber_module(branch, n * l)
            assert support_length(module) >= l


def test_nilpotency_index_examples():
    shift = M([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert nilpotency_index(shift) == 3
    assert nilpotency_index(DenseMatrix.zeros(2, 2)) == 1
    with pytest.raises(NotNilpotent):
        nilpotency_index(DenseMatrix.identity(2))


def test_finite_module_validation():
    """`FiniteModule` checks the series it holds and nothing else, with the
    texts the CLI prints: one of the two shapes, columns of the module's
    length, a zero t^0 coefficient in every column, fiber's or jet's, and
    jet rows of the fiber's length.  The dense reference finds the dense
    action of a column with a t^0 term not nilpotent."""
    fiber = fiber_module(NODE1, 3)
    x, y = fiber.columns
    jet = jet_pair(NODE1, 3).m2
    (x_column, c), y_jet = jet.jets
    on_diagonal = x + Series.one(3)
    with pytest.raises(NotNilpotent):
        DenseModule(3, _dense_of(columns=(on_diagonal, y)))
    for held, text in (
            ({"columns": (on_diagonal, y)}, NOT_NILPOTENT),
            ({"jets": ((on_diagonal, c), y_jet)}, NOT_NILPOTENT),
            ({"jets": ((x_column, c[:-1]), y_jet)}, C_LENGTH)):
        with pytest.raises(D0resError) as caught:
            FiniteModule(6 if "jets" in held else 3, **held)
        assert str(caught.value) == text
    for dim, held in ((2, {"columns": fiber.columns}),
                      (7, {"jets": jet.jets}), (3, {"jets": jet.jets})):
        with pytest.raises(D0resError, match="columns must fit the module dim"):
            FiniteModule(dim, **held)
    for held in ({}, {"columns": fiber.columns, "jets": jet.jets}):
        with pytest.raises(D0resError, match="either fiber columns or jets"):
            FiniteModule(3, **held)


def test_non_triangular_module_is_validated_by_its_powers(monkeypatch):
    """A conjugated fiber is nilpotent but not triangular, so no module
    held by its series is it: only the dense reference holds it, and it
    validates it by a ** dim; conjugated non-nilpotent actions fail there.
    A fiber held by its columns is built with no matrix power."""
    p = M([[1, 2, 0], [0, 1, 0], [1, 0, 1]])
    p_inv = M([[1, -2, 0], [0, 1, 0], [-1, 2, 1]])
    fiber = fiber_module(B([(1, 1)], [(2, 1)]), 3)
    conj = tuple(p_inv * a * p for a in dense_actions(fiber))
    assert conj[0] == M([[-2, -4, 0], [1, 2, 0], [2, 5, 0]])
    assert not is_strictly_lower(conj[0]) and is_strictly_lower(conj[1])
    powers = []
    original = DenseMatrix.__pow__

    def counted(self, n):
        powers.append(n)
        return original(self, n)

    monkeypatch.setattr(DenseMatrix, "__pow__", counted)
    FiniteModule(3, columns=fiber.columns)
    assert powers == []
    assert DenseModule(3, conj).actions == conj
    assert powers == [3, 3]
    with pytest.raises(NotNilpotent):
        DenseModule(3, (p_inv * _bumped(dense_actions(fiber)[0], 0, 0) * p,
                        DenseMatrix.zeros(3, 3)))


def test_jet_actions_equal_series_at_the_jet_uniformizer(repo_corpus_germs):
    """jet_pair writes each M2 action in closed form, [[A, 0], [C, A]]; it
    equals the coordinate series evaluated at the 2r x 2r uniformizer, for
    every corpus branch at r = 1..10 (the extension fields' elements and
    the three coordinates of space_lines included)."""
    branches = [b for germ in repo_corpus_germs.values() for b in germ.branches]
    assert any(b.ambient_dim == 3 for b in branches)
    assert any(isinstance(x, FieldElement) and not x.is_rational()
               for b in branches for s in b.coords for x in s.coeffs)
    for b in branches:
        for r in range(1, 11):
            t_m2 = jet_uniformizer(r)[1]
            assert dense_actions(jet_pair(b, r).m2) == tuple(
                eval_series_at_matrix(s.truncate(r + 1), t_m2)
                for s in b.coords), (b, r)


def test_triangular_shortcut_agrees_with_dense_powers(repo_corpus_germs):
    """Every action of every corpus member at r0..r0+3, fiber and jet, is
    strictly lower-triangular, and its dim-th power is indeed zero."""
    for name, germ in repo_corpus_germs.items():
        family = CertificateFamily(germ)
        for i in range(germ.k):
            for r in range(germ.r0, germ.r0 + 4):
                jet = dense_sum(family.member(i, r))
                for module in (jet.m1, jet.m2):
                    for a in module.actions:
                        assert is_strictly_lower(a), (name, i, r)
                        assert (a ** module.dim).is_zero(), (name, i, r)


# -- the Toeplitz routes against the dense ones ----------------------------

# the fields of the Gaussian node and of the cyclotomic triple
CYCLOTOMIC = NumberField([1, 1, 1])


@st.composite
def toeplitz_branches(draw):
    """A branch over QQ, QQ(i) or QQ(a), a^2 + a + 1 = 0, with two or three
    sparse coordinates of order >= 1 at truncation 10, enough for jets of
    rank 8; non-primitive draws are skipped."""
    field = draw(st.sampled_from([None, GAUSS, CYCLOTOMIC]))
    small = st.one_of(st.just(F(0)), st.just(F(0)),
                      st.fractions(min_value=-3, max_value=3,
                                   max_denominator=3))
    scalar = small if field is None else st.lists(
        small, min_size=2, max_size=2).map(field.element)
    coords = tuple(Series([F(0)] + [draw(scalar) for _ in range(9)])
                   for _ in range(draw(st.integers(2, 3))))
    exps = [e for s in coords for e, c in enumerate(s.coeffs)
            if not scalar_is_zero(c)]
    assume(reduce(gcd, exps, 0) in (0, 1))
    return BranchParam(coords)


@settings(max_examples=30, deadline=None)
@given(toeplitz_branches(), st.integers(1, 8))
def test_toeplitz_annihilator_equals_the_dense_one(b, r):
    """The fiber's actions are read as Toeplitz, and its annihilator from
    r first-column rows equals the one from all r^2 entries, at bound r
    and above it."""
    fiber = fiber_module(b, r)
    assert fiber.columns == tuple(s.truncate(r) for s in b.coords)
    for bound in (r, r + 1):
        assert annihilator(fiber, bound) == dense_annihilator(fiber, bound)


@settings(max_examples=30, deadline=None)
@given(toeplitz_branches(), st.integers(1, 8))
def test_toeplitz_and_jet_powers_equal_dense_powers(b, r):
    """`_action_power` on the bare rank-r jet, expanded by
    `oracles.dense_action`, equals its dense power, and
    on it and the skyscraper jet, assembled block by block, the dense
    power of the jet padded with two skyscraper jets: fiber and jet, every
    coordinate, k = 1..r+1 (every tangent exponent is at least 1)."""
    jet, sky = jet_pair(b, r), graph_skyscraper(b)
    runs = ((jet, 1), (sky, 2))
    dense = dense_sum(pad(jet, sky, 2))
    for side in ("m1", "m2"):
        for coord, a in enumerate(getattr(dense, side).actions):
            bare = dense_actions(getattr(jet, side))[coord]
            for k in range(1, r + 2):
                assert dense_action(*_action_power(getattr(jet, side), coord,
                                                   k)) == bare ** k
                assert assembled([
                    (dense_action(*_action_power(getattr(s, side), coord, k)),
                     copies)
                    for s, copies in runs]) == a ** k


@settings(max_examples=30, deadline=None)
@given(toeplitz_branches(), st.integers(1, 8))
def test_toeplitz_kills_agree_with_dense_evaluation(b, r):
    """Each basis row of the rank-r fiber's annihilator is judged on the
    fibers of ranks 1..8, which those above r need not be killed by, as
    the dense evaluation judges it; and on the rank-r fiber padded with
    skyscrapers, summand by summand, as on the dense sum."""
    ideal = annihilator(fiber_module(b, r), r)
    fibers = [fiber_module(b, k) for k in range(1, 9)]
    padded = pad(fibers[r - 1], graph_skyscraper(b).m1, 2)
    dense_padded = dense_sum(padded)
    for g in ideal.polys:
        for fiber in fibers:
            assert _kills(g, _fiber_layout(fiber)) == g.evaluate(
                dense_actions(fiber), DenseMatrix.identity(fiber.dim)).is_zero()
        assert all(_kills(g, _fiber_layout(s))
                   for s, _ in padded.runs) == g.evaluate(
            dense_padded.actions,
            DenseMatrix.identity(dense_padded.dim)).is_zero()


def test_power_runs_raise_no_matrix_on_fiber_and_jet_actions(
        repo_corpus_germs, monkeypatch):
    """Every summand of every corpus member, fiber and jet, at r0 and
    padded at r0 + 2, is raised in closed form, tested for zero and
    printed with no matrix built."""
    summands = []
    for germ in repo_corpus_germs.values():
        family = CertificateFamily(germ)
        for i in range(germ.k):
            for r in (germ.r0, germ.r0 + 2):
                summands += [(s, germ.branches[i].ambient_dim, germ.r0)
                             for s, _ in family.summands(i, r)]

    def refused(*args):
        raise AssertionError("a matrix was built")

    monkeypatch.setattr(ExactMatrix, "_trusted", refused)
    for s, ambient_dim, r0 in summands:
        for coord in range(ambient_dim):
            for e in (1, r0):
                for side in ("m1", "m2"):
                    s.power_is_zero(side, coord, e)
                s.printed(coord, e)


def test_toeplitz_action_with_a_diagonal_is_not_nilpotent():
    """A Toeplitz action with a nonzero diagonal, a column with a t^0
    term, is refused by `FiniteModule` with the text the CLI prints; it
    commutes with a fiber action, and the dense reference finds its power
    not zero."""
    fiber = fiber_module(B([(1, 1)], [(2, 1)]), 3)
    diagonal = Series([F(1), F(1), F(0)])
    assert dense_action(diagonal) == M([[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    with pytest.raises(D0resError) as caught:
        FiniteModule(3, columns=(diagonal, fiber.columns[1]))
    assert str(caught.value) == NOT_NILPOTENT
    with pytest.raises(NotNilpotent):
        DenseModule(3, _dense_of(columns=(diagonal, fiber.columns[1])))


def test_one_entry_below_the_first_column_is_checked_densely():
    """A fiber action bumped one entry below its first column is no longer
    Toeplitz, so no module held by its columns is it; checked densely, by
    the dense reference, the pair does not commute.  Bumped along that
    whole diagonal, the column bumped at t^1, it is a fiber again, and
    its dense actions commute."""
    fiber = fiber_module(B([(1, 1)], [(1, 1), (2, 1)]), 4)
    x, y = dense_actions(fiber)
    with pytest.raises(NonCommutingActions):
        DenseModule(4, (_bumped(x, 2, 1), y))
    column = fiber.columns[0] + Series.monomial(1, F(1), 4)
    bumped = FiniteModule(4, columns=(column, fiber.columns[1]))
    assert dense_actions(bumped)[0] == _bumped(_bumped(_bumped(x, 1, 0), 2, 1),
                                               3, 2)
    check_module_dense(dense_sum(bumped))


_JET_X = dense_actions(jet_pair(B([(1, 1)], [(2, 1)]), 3).m2)[0]


@pytest.mark.parametrize("action", [
    _bumped(_JET_X, 4, 0),              # C nonzero off its last row
    _bumped(_JET_X, 5, 3),              # bottom-right block is not A
    M([[0, 1], [0, 0]]),                # top-right block is not zero
])
def test_actions_off_the_closed_jet_form_are_raised_densely(action):
    """An action that is not [[A, 0], [e c^T, A]] with A Toeplitz, nor
    Toeplitz, differs from both actions written from its own first column
    and last row, so no module held by its series is it, and
    `_action_power` never meets it; only the dense reference holds it, and
    raises it by `**` to zero."""
    r = action.rows // 2
    first = Series([action[i, 0] for i in range(action.rows)])
    assert action != dense_action(first)
    assert action != dense_action(first.truncate(r), action.data[-1][:r])
    dense = DenseModule(action.rows, (action,))
    assert (dense.actions[0] ** dense.dim).is_zero()


# -- jet actions read once, in closed form ------------------------------------


def _judge_c_bumps(b, r, seen):
    """Build M2 of the rank-r jet of `b` with one entry of one jet's c row
    bumped by 1, for each coordinate and entry, and check the outcome of
    c^T B = d^T A against the dense products of the dense actions; add
    whether they commute to `seen` for each."""
    jets = jet_pair(b, r).m2.jets
    for coord, (column, c) in enumerate(jets):
        for j in range(r):
            bumped = (jets[:coord] + ((column, c[:j] + (c[j] + 1,) + c[j + 1:]),)
                      + jets[coord + 1:])
            actions = _dense_of(jets=bumped)
            commuting = all(x * y == y * x for i, x in enumerate(actions)
                            for y in actions[i + 1:])
            try:
                FiniteModule(2 * r, jets=bumped)
            except NonCommutingActions as err:
                assert str(err) == NOT_COMMUTING
                assert not commuting, (b, r, coord, j)
            else:
                assert commuting, (b, r, coord, j)
            seen.add(commuting)


def test_row_and_dense_commutation_agree(repo_corpus_germs):
    """Over every corpus branch at r = 1..8, M2 with one entry of one c
    row bumped is accepted exactly when the dense products commute: the
    c^T B = d^T A rows judge it as the dense products do.  A bump anywhere
    else in C is not a jet, and only the dense reference holds it."""
    seen = set()
    for germ in repo_corpus_germs.values():
        for b in germ.branches:
            for r in range(1, 9):
                _judge_c_bumps(b, r, seen)
    assert seen == {True, False}, seen


@settings(max_examples=40, deadline=None)
@given(toeplitz_branches(), st.integers(1, 8))
def test_every_built_module_is_read_by_columns_or_jets(b, r):
    """Every module the program builds holds its series as they were
    built, over rational branches and branches over QQ(i) and QQ(a): every
    fiber of `fiber_module`, `jet_pair` and `graph_skyscraper` holds the
    coordinates' series truncated to its rank, and every jet holds
    (column, (r * s_(r-j))_j), the A = 0 jets included.  Their dense views
    equal the references, `multiplication_matrix` on a fiber and the
    series at the jet's uniformizer on a jet, on a valid dense jet.  On
    both, `_action_power`'s closed form, expanded, equals the dense power
    at k = 1..r+1, its zero test agrees, and a jet's printed power is
    `format_scalar` of the dense power, entry by entry.  The c bumps of
    the corpus test are judged on these branches too."""
    sky = graph_skyscraper(b)
    jet = jet_pair(b, r)
    for module, rank in ((fiber_module(b, r), r), (jet.m1, r), (sky.m1, 1)):
        assert module.jets is None
        assert module.columns == tuple(s.truncate(rank) for s in b.coords)
        assert dense_actions(module) == tuple(multiplication_matrix(s, rank)
                                              for s in b.coords)
    for pair in (jet, sky):
        rank = pair.rank
        assert pair.m2.columns is None
        assert pair.m2.jets == tuple(
            (s.truncate(rank), tuple(rank * s.coeffs[rank - j]
                                     for j in range(rank)))
            for s in b.coords)
        t_m2 = jet_uniformizer(rank)[1]
        assert dense_actions(pair.m2) == tuple(
            eval_series_at_matrix(s.truncate(rank + 1), t_m2) for s in b.coords)
        check_jet_dense(pair)
        for side in ("m1", "m2"):
            module = getattr(pair, side)
            for coord, a in enumerate(dense_actions(module)):
                for k in range(1, rank + 2):
                    power, dense = _action_power(module, coord, k), a ** k
                    assert dense_action(*power) == dense
                    assert _power_is_zero(power) == dense.is_zero()
                    if side == "m2":
                        assert _printed(power) == [
                            [format_scalar(x) for x in row] for row in dense.data]
    _judge_c_bumps(b, r, set())


def test_series_readings_refuse_a_module_read_as_jets():
    """A jet pair whose M1 is held as jets, and the annihilator and the
    witness check of such a module, are refused as not a fiber, with the
    text the CLI prints."""
    b = B([(1, 1)], [(2, 1)])
    jet = jet_pair(b, 3)
    assert jet.m2.columns is None and jet.m2.jets is not None
    for read in (lambda: JetPair(jet.m2, jet_pair(b, 6).m2),
                 lambda: annihilator(jet.m2),
                 lambda: _fiber_layout(jet.m2)):
        with pytest.raises(D0resError) as caught:
            read()
        assert str(caught.value) == NOT_A_FIBER


def test_jet_pair_compares_first_columns(repo_corpus_germs):
    """A single-block jet pair is checked by first columns: an M2 of
    another branch's jet, valid on its own, is refused where its columns
    differ from M1's and accepted where they agree."""
    branches = [b for germ in repo_corpus_germs.values() for b in germ.branches]
    refused = accepted = 0
    for b in branches:
        for other in branches:
            if other.ambient_dim != b.ambient_dim:
                continue
            jet, foreign = jet_pair(b, 4), jet_pair(other, 4)
            same = all(
                c == col for (c, _), col in zip(foreign.m2.jets,
                                                jet.m1.columns))
            try:
                JetPair(jet.m1, foreign.m2)
            except D0resError as err:
                assert str(err) == FRAME
                assert not same
                refused += 1
            else:
                assert same
                accepted += 1
    assert refused and accepted


def test_trusted_matrices_equal_checked_ones(repo_corpus_germs, monkeypatch):
    """Every matrix built on trust while building the jet pairs of every
    corpus branch at r = 1..6 (the Gaussian node's and the space lines'
    included), the Toeplitz blocks and c rows of the commutation check and
    the products of the two, equals the one `DenseMatrix` builds from the
    same entries, with the same entry types, and none has more than r
    rows or columns."""
    branches = [b for germ in repo_corpus_germs.values() for b in germ.branches]
    assert any(b.ambient_dim == 3 for b in branches)
    assert any(isinstance(x, FieldElement) and not x.is_rational()
               for b in branches for s in b.coords for x in s.coeffs)
    trusted = ExactMatrix._trusted.__func__
    built = []

    def recorded(cls, rows):
        built.append(trusted(cls, rows))
        return built[-1]

    monkeypatch.setattr(ExactMatrix, "_trusted", classmethod(recorded))
    types = set()
    for b in branches:
        for r in range(1, 7):
            del built[:]
            jet_pair(b, r)
            assert built, (b, r)
            for m in built:
                checked = DenseMatrix(m.data)
                assert m == checked and max(m.rows, m.cols) <= r, (b, r)
                entry_types = [type(x) for row in m.data for x in row]
                assert entry_types == [type(x) for row in checked.data
                                       for x in row], (b, r)
                types.update(entry_types)
    assert types == {Fraction, FieldElement}


def test_jet_pair_runs_no_dense_product(repo_corpus_germs, monkeypatch):
    """Building any corpus jet, at r = 1..10, multiplies only one-row
    matrices: the c^T B = d^T A rows of `FiniteModule`, never a dense
    2r x 2r product, on either the integer or the generic path."""
    left_rows = []

    def recorded(product):
        def wrapped(a, b):
            left_rows.append(len(a))
            return product(a, b)
        return wrapped

    monkeypatch.setattr(linalg_module, "fmatmul",
                        recorded(linalg_module.fmatmul))
    monkeypatch.setattr(linalg_module, "_generic_matmul",
                        recorded(linalg_module._generic_matmul))
    for germ in repo_corpus_germs.values():
        for b in germ.branches:
            for r in range(1, 11):
                jet_pair(b, r)
    assert left_rows and set(left_rows) == {1}


def test_non_commuting_actions_raise_their_own_class(monkeypatch):
    """Actions that do not commute raise `NonCommutingActions`, with the
    text the CLI prints: a jet's c row doubled, judged by c^T B = d^T A
    with one-row products only, as the dense reference judges it."""
    jet = jet_pair(B([(1, 1)], [(2, 1)]), 3)
    (column, c), y = jet.m2.jets
    doubled = ((column, tuple(2 * x for x in c)), y)
    left_rows = []
    product = linalg_module.fmatmul

    def recorded(a, b):
        left_rows.append(len(a))
        return product(a, b)

    with monkeypatch.context() as patched:
        patched.setattr(linalg_module, "fmatmul", recorded)
        with pytest.raises(NonCommutingActions) as caught:
            FiniteModule(6, jets=doubled)
    assert left_rows and set(left_rows) == {1}
    assert str(caught.value) == NOT_COMMUTING
    with pytest.raises(NonCommutingActions):
        DenseModule(6, _dense_of(jets=doubled))


def _frame_mutants(jet):
    """(kind, M2 jets) for the mutants of the jet's M2: the jets as they
    are, and one jet changed at a time.  Its column bumped at one t^k,
    k = 1..r-1, moves one whole subdiagonal of both diagonal blocks
    together: a jet with another first column.  One entry of its c row
    bumped moves one entry of C's last row."""
    r, jets = jet.rank, jet.m2.jets
    yield "none", jets
    for coord, (column, c) in enumerate(jets):
        def with_jet(new):
            return jets[:coord] + (new,) + jets[coord + 1:]

        for k in range(1, r):
            yield "column", with_jet((column + Series.monomial(k, F(1), r), c))
        for j in range(r):
            yield "c row", with_jet((column, c[:j] + (c[j] + 1,) + c[j + 1:]))


def _jet_outcome(m1, jets):
    """The text of the refusal of the jet pair of the fiber `m1` and the
    jet held as `jets`, None if it is accepted."""
    try:
        JetPair(m1, FiniteModule(2 * m1.dim, jets=jets))
    except D0resError as err:
        return str(err)
    return None


def _dense_accepts(m1, m2_actions):
    """The dense reference accepts these M2 actions over the dense fiber
    `m1`: a valid module whose every action reads [[A, 0], [C, A]] on the
    jet frame, entry by entry (`DenseJet`)."""
    try:
        DenseJet(m1, DenseModule(2 * m1.dim, m2_actions),
                 *jet_uniformizer(m1.dim), (m1.dim,))
    except D0resError:
        return False
    return True


def test_first_column_and_entrywise_frame_checks_agree(repo_corpus_germs):
    """Over the base jets and skyscrapers of every corpus branch at
    r = 1..6, each M2 mutant of `_frame_mutants` is accepted by
    `FiniteModule` and `JetPair`, which compare series, exactly when the
    dense reference accepts its dense actions, checking products, powers
    and the frame entry by entry.  A wrong first column is refused by the
    frame check or, first, by the commutation; a c row bump by the
    commutation or not at all."""
    branches = [b for germ in repo_corpus_germs.values() for b in germ.branches]
    assert any(b.ambient_dim == 3 for b in branches)
    assert any(isinstance(x, FieldElement) and not x.is_rational()
               for b in branches for s in b.coords for x in s.coeffs)
    seen = set()
    for b in branches:
        for jet in [graph_skyscraper(b)] + [jet_pair(b, r) for r in range(1, 7)]:
            dense_m1 = dense_sum(jet.m1)
            for kind, jets in _frame_mutants(jet):
                error = _jet_outcome(jet.m1, jets)
                assert (error is None) == _dense_accepts(
                    dense_m1, _dense_of(jets=jets)), (b, jet.rank, kind, error)
                seen.add((kind, error))
    assert seen == {("none", None), ("column", FRAME), ("column", NOT_COMMUTING),
                    ("c row", None), ("c row", NOT_COMMUTING)}, seen
