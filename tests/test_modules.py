from dataclasses import fields, replace
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from d0res.branches import BranchParam
from d0res.errors import (D0resError, NonCommutingActions, NotNilpotent,
                          RaiseTruncation)
from d0res.fields import FieldElement, NumberField, scalar_is_zero
from d0res import linalg as linalg_module
from d0res.linalg import ExactMatrix, rref_rows
from d0res.modules import (
    DirectSum,
    _action_power,
    _jet_column,
    FiniteModule,
    JetPair,
    annihilator,
    fiber_functionals,
    fiber_module,
    functional_ideal,
    graph_skyscraper,
    jet_pair,
    kernel_echelon,
    pad,
    toeplitz_column,
)
from d0res.poly import Poly, poly_text
from d0res.series import Series
from d0res.verify import CertificateFamily, _kills
from oracles import (
    DenseJet,
    DenseModule,
    assembled,
    block_diag,
    check_jet_dense,
    check_module_dense,
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
    return ExactMatrix([[F(x) for x in row] for row in rows])


# what `FiniteModule` says of an action it reads neither way, and what a
# series reading says of a module read as jets
REFUSED = ("an action is neither strictly lower-triangular Toeplitz nor a "
           "jet action")
NOT_A_FIBER = "a fiber's actions must be strictly lower-triangular Toeplitz"


def test_fiber_module_examples():
    fm = fiber_module(CUSP, 2)
    assert all(a.is_zero() for a in fm.actions)
    fm2 = fiber_module(NODE1, 2)
    assert fm2.actions[0] == M([[0, 0], [1, 0]])
    assert fm2.actions[1].is_zero()
    fm3 = fiber_module(SMOOTH, 1)
    assert fm3.dim == 1 and all(a.is_zero() for a in fm3.actions)


def test_fiber_module_needs_truncation():
    with pytest.raises(RaiseTruncation):
        fiber_module(B([(2, 1)], [(3, 1)], n=4), 5)


def test_fiber_equals_multiplication_table():
    for branch in (CUSP, NODE1, B([(1, 1)], [(2, 1)])):
        for r in (1, 2, 3, 4, 6):
            fm = fiber_module(branch, r)
            for s, a in zip(branch.coords, fm.actions):
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
    x2 = jp.m2.actions[0]
    assert x2 == M([[0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [2, 0, 0, 0]])
    assert jp.m1.actions[0].is_zero()


def test_jet_matches_fiber():
    for r in (1, 2, 3):
        jp = jet_pair(CUSP, r)
        fm = fiber_module(CUSP, r)
        assert jp.m1.same_presentation(fm)


def test_graph_skyscraper():
    fib, jet = graph_skyscraper(SMOOTH)
    assert fib is jet.m1 and jet == jet_pair(SMOOTH, 1)
    assert fib.dim == 1 and all(a.is_zero() for a in fib.actions)
    assert not jet.m2.actions[0].is_zero()      # coefficient of t is 1
    assert jet.m2.actions[1].is_zero()
    _, jet_cusp = graph_skyscraper(CUSP)
    assert all(a.is_zero() for a in jet_cusp.m2.actions)


def _bumped(a, i, j):
    """`a` with 1 added at entry (i, j)."""
    data = [list(row) for row in a.data]
    data[i][j] += 1
    return ExactMatrix(data)


# the cusp's rank-2 jet: all M1 actions zero, M2's x action 2*E(3, 0);
# padded with two skyscrapers its M2 frame has tops 0, 1, 4, 6 and
# bottoms 2, 3, 5, 7
CUSP_JET = jet_pair(CUSP, 2)
CUSP_PADDED = dense_sum(pad(CUSP_JET, graph_skyscraper(CUSP)[1], 2))


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
    rejected: on one block by `FiniteModule`, which reads it neither as
    Toeplitz nor as a jet, across several by the tests' `DenseJet`."""
    assert replace(jet) == jet
    x2 = _bumped(jet.m2.actions[0], *entry)
    actions = (x2,) + jet.m2.actions[1:]
    DenseModule(jet.m2.dim, actions)                    # still valid
    with pytest.raises(D0resError):
        replace(jet, m2=type(jet.m2)(jet.m2.dim, actions))


def test_a_jet_pair_is_its_fiber_and_its_jet():
    """A jet pair holds M1 and M2 and nothing else, on one fixed frame; it
    refuses a jet of the wrong dimension or ambient dimension."""
    jet = CUSP_JET
    assert [f.name for f in fields(JetPair)] == ["m1", "m2"]
    assert JetPair(jet.m1, jet.m2) == jet
    with pytest.raises(D0resError, match="twice the fiber dimension"):
        JetPair(jet.m1, jet_pair(CUSP, 3).m2)
    space = jet_pair(B([(2, 1)], [(3, 1)], [(4, 1)]), 2)
    with pytest.raises(D0resError, match="share the ambient dimension"):
        JetPair(jet.m1, space.m2)


def test_the_dense_jet_checks_uniformizer_and_blocks():
    """The tests' dense jet refuses a uniformizer off its frame and blocks
    that do not fit its dims."""
    jet = dense_sum(CUSP_JET)
    with pytest.raises(D0resError):     # t_m1 is not t_m2's diagonal block
        replace(jet, t_m1=ExactMatrix.zeros(2, 2))
    with pytest.raises(D0resError):     # t_m2 maps a bottom into the tops
        replace(jet, t_m2=_bumped(jet.t_m2, 0, 3))
    for blocks in ((1,), (3,), (2, 0), (1, 1)):
        with pytest.raises(D0resError):
            replace(jet, blocks=blocks)


def test_pad_examples():
    fib, jet = graph_skyscraper(NODE1)
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
    sky, sky_jet = graph_skyscraper(NODE1)
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
        jet_pair(NODE1, 2).m2.actions[0], *[sky_jet.m2.actions[0]] * 3)


def test_pad_builds_no_matrix(monkeypatch):
    """Padding a jet pair with a million skyscraper jets builds no matrix:
    the sum is its two runs."""
    sky_jet = graph_skyscraper(NODE1)[1]
    base = jet_pair(NODE1, 2)

    def refuse(*args):
        raise AssertionError("pad built a matrix")

    monkeypatch.setattr(ExactMatrix, "__init__", refuse)
    monkeypatch.setattr(ExactMatrix, "_trusted", refuse)
    jet = pad(base, sky_jet, 10**6)
    assert jet.rank == 2 + 10**6 and jet.runs == ((base, 1), (sky_jet, 10**6))
    assert jet.m1.runs == ((base.m1, 1), (sky_jet.m1, 10**6))


def test_pad_rejects_mismatched_ambient_dimensions():
    space = B([(1, 1)], [], [], n=8)
    with pytest.raises(D0resError, match="ambient dimension"):
        pad(fiber_module(NODE1, 2), graph_skyscraper(space)[0], 1)
    with pytest.raises(D0resError, match="ambient dimension"):
        pad(jet_pair(NODE1, 2), graph_skyscraper(space)[1], 1)
    with pytest.raises(D0resError, match="two modules or two jet pairs"):
        pad(jet_pair(NODE1, 2), graph_skyscraper(NODE1)[0], 1)


def test_a_bad_filler_is_refused_when_built():
    """A filler whose actions are not nilpotent, or do not commute, never
    exists to be padded: `FiniteModule` refuses it by its shape, and the
    dense reference by its powers or its products."""
    not_nilpotent = (M([[1]]), M([[0]]))
    not_commuting = (M([[0, 1], [0, 0]]), M([[0, 0], [1, 0]]))
    for actions, dense_error in ((not_nilpotent, NotNilpotent),
                                 (not_commuting, NonCommutingActions)):
        with pytest.raises(D0resError) as caught:
            FiniteModule(actions[0].rows, actions)
        assert str(caught.value) == REFUSED
        with pytest.raises(dense_error):
            DenseModule(actions[0].rows, actions)


PADDED = pad(fiber_module(NODE1, 2), graph_skyscraper(NODE1)[0], 2)
SPACE_SKY = graph_skyscraper(B([(1, 1)], [], [], n=8))


@pytest.mark.parametrize("runs", [
    (PADDED.runs[0], (PADDED.runs[1][0], 0)),           # zero copies
    (PADDED.runs[0], (PADDED.runs[1][0], -1)),          # negative copies
    ((PADDED.runs[0][0].actions[0], 1), PADDED.runs[1]),  # a matrix summand
    (PADDED.runs[0], (CUSP_JET, 1)),                    # a module and a jet
    (PADDED.runs[0], (SPACE_SKY[0], 2)),                # ambient mismatch
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
    jet = pad(CUSP_JET, graph_skyscraper(CUSP)[1], 2)
    assert DirectSum(jet.runs) == jet
    assert jet.m1.runs == ((CUSP_JET.m1, 1), (graph_skyscraper(CUSP)[1].m1, 2))
    assert jet.m2.dim == 2 * jet.m1.dim == 2 * jet.rank == 8
    bad = [
        (jet.runs[0], (jet.runs[1][0], 0)),
        (jet.runs[0], (CUSP_JET.m1, 1)),
        (jet.runs[0], (SPACE_SKY[1], 2)),
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
    sky, _ = graph_skyscraper(NODE1)
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
                assert eval_poly_at_matrices(shifted, module.actions).is_zero()


def test_annihilator_is_iso_invariant_not_basis_dependent():
    mod = fiber_module(NODE1, 3)
    # conjugate by an invertible change of basis: annihilator must not change
    p = M([[1, 0, 0], [2, 1, 0], [0, 1, 1]])
    p_inv = M([[1, 0, 0], [-2, 1, 0], [2, -1, 1]])
    assert p * p_inv == ExactMatrix.identity(3)
    conj = DenseModule(3, tuple(p * a * p_inv for a in mod.actions))
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
    kernel = nullspace(ExactMatrix(rows))
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
    """The series ideal of the bare fiber is the generic one of the fiber,
    and of the fiber padded with two skyscrapers: its t^0 row f -> f(0)
    already holds it inside the skyscraper's annihilator."""
    for branch in (CUSP, NODE1, B([(1, 1)], [(2, 1)]), B([(3, 1)], [(4, 1), (5, 2)])):
        sky, _ = graph_skyscraper(branch)
        for rank in (1, 2, 3, 5):
            for bound in (rank, rank + 2):
                functionals = fiber_functionals(branch, rank, bound)
                assert (functional_ideal(bound, *functionals)
                        == annihilator(fiber_module(branch, rank), bound))
                padded = dense_sum(pad(fiber_module(branch, rank), sky, 2))
                functionals = fiber_functionals(branch, rank, bound + 2)
                assert (functional_ideal(bound + 2, *functionals)
                        == dense_annihilator(padded, bound + 2))
    with pytest.raises(RaiseTruncation):
        fiber_functionals(B([(2, 1)], [(3, 1)], n=4), 5, 5)


def test_annihilator_rows_are_sparse_in_column_order():
    """Each stored basis row lists its nonzero entries by increasing
    monomial column; on y = x^2 + x^3 at rank 4 some row has three."""
    ann = functional_ideal(
        4, *fiber_functionals(B([(1, 1)], [(2, 1), (3, 1)]), 4, 4))
    assert max(len(row) for row in ann.rows) >= 3
    for row in ann.rows:
        cols = [c for c, _ in row]
        assert cols == sorted(cols)
        assert not any(scalar_is_zero(v) for _, v in row)


def test_support_length_examples():
    assert support_length(fiber_module(NODE1, 2)) == 2
    assert support_length(fiber_module(CUSP, 2)) == 1
    sky, _ = graph_skyscraper(NODE1)
    assert support_length(sky) == 1


def test_support_length_lower_bound_small():
    for branch, n in ((CUSP, 2), (NODE1, 1)):
        for l in (1, 2, 3):
            module = fiber_module(branch, n * l)
            assert support_length(module) >= l


def test_nilpotency_index_examples():
    shift = M([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    assert nilpotency_index(shift) == 3
    assert nilpotency_index(ExactMatrix.zeros(2, 2)) == 1
    with pytest.raises(NotNilpotent):
        nilpotency_index(ExactMatrix.identity(2))


def test_finite_module_validation():
    """`FiniteModule` refuses actions of the wrong size, and any action it
    reads neither as Toeplitz nor as a jet, whatever else is wrong with
    it; the dense reference names what is."""
    a = M([[0, 1], [0, 0]])
    b = M([[0, 0], [1, 0]])
    # strictly lower-triangular, so nilpotent, but not commuting
    lower_a = M([[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    lower_b = M([[0, 0, 0], [0, 0, 0], [0, 1, 0]])
    assert is_strictly_lower(lower_a) and is_strictly_lower(lower_b)
    # one entry on the diagonal of a fiber action: lower-triangular, not
    # nilpotent
    fiber = fiber_module(NODE1, 3)
    on_diagonal = _bumped(fiber.actions[0], 2, 2)
    assert not is_strictly_lower(on_diagonal)
    for actions, dense_error in (
            ((a, b), NonCommutingActions),
            ((ExactMatrix.identity(2),), NotNilpotent),
            ((lower_a, lower_b), NonCommutingActions),
            ((on_diagonal, fiber.actions[1]), NotNilpotent)):
        with pytest.raises(D0resError, match=REFUSED):
            FiniteModule(actions[0].rows, actions)
        with pytest.raises(dense_error):
            DenseModule(actions[0].rows, actions)
    with pytest.raises(D0resError, match="square of the module dim"):
        FiniteModule(2, fiber.actions)


def test_non_triangular_module_is_validated_by_its_powers(monkeypatch):
    """A conjugated fiber is nilpotent but not triangular: `FiniteModule`
    refuses it by its shape, raising no matrix power, and only the dense
    reference validates it, by a ** dim; conjugated non-nilpotent actions
    fail there."""
    p = M([[1, 2, 0], [0, 1, 0], [1, 0, 1]])
    p_inv = M([[1, -2, 0], [0, 1, 0], [-1, 2, 1]])
    fiber = fiber_module(B([(1, 1)], [(2, 1)]), 3)
    conj = tuple(p_inv * a * p for a in fiber.actions)
    assert conj[0] == M([[-2, -4, 0], [1, 2, 0], [2, 5, 0]])
    assert is_strictly_lower(conj[1])
    powers = []
    original = ExactMatrix.__pow__

    def counted(self, n):
        powers.append(n)
        return original(self, n)

    monkeypatch.setattr(ExactMatrix, "__pow__", counted)
    with pytest.raises(D0resError, match=REFUSED):
        FiniteModule(3, conj)
    FiniteModule(3, fiber.actions)
    assert powers == []
    assert DenseModule(3, conj).actions == conj
    assert powers == [3, 3]
    with pytest.raises(NotNilpotent):
        DenseModule(3, (p_inv * _bumped(fiber.actions[0], 0, 0) * p,
                        ExactMatrix.zeros(3, 3)))


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
            assert jet_pair(b, r).m2.actions == tuple(
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
    """`_action_power` on the bare rank-r jet equals its dense power, and
    on it and the skyscraper jet, assembled block by block, the dense
    power of the jet padded with two skyscraper jets: fiber and jet, every
    coordinate, k = 1..r+1 (every tangent exponent is at least 1)."""
    jet, sky = jet_pair(b, r), graph_skyscraper(b)[1]
    runs = ((jet, 1), (sky, 2))
    dense = dense_sum(pad(jet, sky, 2))
    for side in ("m1", "m2"):
        for coord, a in enumerate(getattr(dense, side).actions):
            bare = getattr(jet, side).actions[coord]
            for k in range(1, r + 2):
                assert _action_power(getattr(jet, side), coord, k) == bare ** k
                assert assembled([
                    (_action_power(getattr(s, side), coord, k), copies)
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
    padded = pad(fibers[r - 1], graph_skyscraper(b)[0], 2)
    dense_padded = dense_sum(padded)
    for g in ideal.polys:
        for fiber in fibers:
            assert _kills(g, fiber) == g.evaluate(
                fiber.actions, ExactMatrix.identity(fiber.dim)).is_zero()
        assert all(_kills(g, s) for s, _ in padded.runs) == g.evaluate(
            dense_padded.actions,
            ExactMatrix.identity(dense_padded.dim)).is_zero()


def test_toeplitz_column_reads_entry_by_entry():
    """The reader returns the first column of a strictly lower-triangular
    Toeplitz matrix, and None once any one entry breaks the shape.  The
    bottom entry of the first column lies on a diagonal of its own, so
    bumping it gives the Toeplitz matrix of s + t^3."""
    b = B([(1, 1), (2, 3)], [(2, 1), (3, F(1, 2))])
    for a, s in zip(fiber_module(b, 4).actions, b.coords):
        assert toeplitz_column(a) == s.truncate(4)
        for i in range(4):
            for j in range(4):
                if (i, j) != (3, 0):
                    assert toeplitz_column(_bumped(a, i, j)) is None, (i, j)
        assert (toeplitz_column(_bumped(a, 3, 0))
                == s.truncate(4) + Series.monomial(3, F(1), 4))
    assert toeplitz_column(ExactMatrix.zeros(3, 3)) == Series.zero(3)
    assert toeplitz_column(ExactMatrix.zeros(2, 3)) is None


def test_power_runs_raise_no_matrix_on_fiber_and_jet_actions(
        repo_corpus_germs, monkeypatch):
    """Every summand of every corpus member, fiber and jet, at r0 and
    padded at r0 + 2, is raised in closed form, with no matrix power."""
    def refused(self, n):
        raise AssertionError("dense power")

    monkeypatch.setattr(ExactMatrix, "__pow__", refused)
    for germ in repo_corpus_germs.values():
        family = CertificateFamily(germ)
        for i in range(germ.k):
            for r in (germ.r0, germ.r0 + 2):
                for s, _ in family.summands(i, r):
                    for coord in range(germ.branches[i].ambient_dim):
                        for e in (1, germ.r0):
                            s.power("m1", coord, e)
                            s.power("m2", coord, e)


def test_toeplitz_action_with_a_diagonal_is_not_nilpotent():
    """A Toeplitz action with a nonzero diagonal is not read as Toeplitz,
    and `FiniteModule` refuses it; it commutes with a fiber action, and the
    dense reference finds its power not zero."""
    fiber = fiber_module(B([(1, 1)], [(2, 1)]), 3)
    diagonal = M([[1, 0, 0], [1, 1, 0], [0, 1, 1]])
    assert toeplitz_column(diagonal) is None
    with pytest.raises(D0resError, match=REFUSED):
        FiniteModule(3, (diagonal, fiber.actions[1]))
    with pytest.raises(NotNilpotent):
        DenseModule(3, (diagonal, fiber.actions[1]))


def test_one_entry_below_the_first_column_is_checked_densely():
    """A fiber action bumped one entry below its first column is no longer
    Toeplitz, nor a jet action, and `FiniteModule` refuses it with the
    text the CLI prints; checked densely, by the dense reference, the pair
    does not commute."""
    fiber = fiber_module(B([(1, 1)], [(1, 1), (2, 1)]), 4)
    x = _bumped(fiber.actions[0], 2, 1)
    assert toeplitz_column(x) is None and _jet_column(x) is None
    with pytest.raises(D0resError) as caught:
        FiniteModule(4, (x, fiber.actions[1]))
    assert str(caught.value) == REFUSED
    with pytest.raises(NonCommutingActions):
        DenseModule(4, (x, fiber.actions[1]))


_JET_X = jet_pair(B([(1, 1)], [(2, 1)]), 3).m2.actions[0]


@pytest.mark.parametrize("action", [
    _bumped(_JET_X, 4, 0),              # C nonzero off its last row
    _bumped(_JET_X, 5, 3),              # bottom-right block is not A
    M([[0, 1], [0, 0]]),                # top-right block is not zero
])
def test_actions_off_the_closed_jet_form_are_raised_densely(action):
    """An action that is not [[A, 0], [C, A]] with A Toeplitz and C zero
    but for its last row, nor Toeplitz, is refused by `FiniteModule`, so
    `_action_power` never meets it; only the dense reference holds it, and
    raises it by `**` to zero."""
    assert toeplitz_column(action) is None and _jet_column(action) is None
    with pytest.raises(D0resError, match=REFUSED):
        FiniteModule(action.rows, (action,))
    dense = DenseModule(action.rows, (action,))
    assert (dense.actions[0] ** dense.dim).is_zero()


# -- jet actions read once, in closed form ------------------------------------


def _jet_bumps(jet):
    """(coordinate, entry, on the last row) for single-entry bumps of C in
    each M2 action [[A, 0], [C, A]]: every entry of C's last row, which the
    jet reading keeps as c, and, from rank 2 on, C's first row and the
    last entry of the row above the last, which break the reading."""
    r = jet.rank
    for coord in range(jet.ambient_dim):
        for j in range(r):
            yield coord, (2 * r - 1, j), True
        if r >= 2:
            for entry in [(r, j) for j in range(r)] + [(2 * r - 2, r - 1)]:
                yield coord, entry, False


def _judge_c_bumps(b, r, seen):
    """Build M2 of the rank-r jet of `b` with one action bumped at one
    entry of C, for each bump of `_jet_bumps`, and check the outcome
    against the dense products; add (on the last row, all Toeplitz,
    commuting) to `seen` for each."""
    jet = jet_pair(b, r)
    for coord, entry, on_last_row in _jet_bumps(jet):
        actions = list(jet.m2.actions)
        actions[coord] = _bumped(actions[coord], *entry)
        toeplitz = all(toeplitz_column(a) is not None for a in actions)
        read = all(_jet_column(a) is not None for a in actions)
        assert read == on_last_row, (b, r, entry)
        commuting = all(x * y == y * x for i, x in enumerate(actions)
                        for y in actions[i + 1:])
        try:
            module = FiniteModule(2 * r, tuple(actions))
        except D0resError as err:
            if read or toeplitz:
                assert str(err) == "coordinate actions must commute"
                assert not commuting, (b, r, coord, entry)
            else:
                assert str(err) == REFUSED, (b, r, coord, entry)
        else:
            assert commuting and (read or toeplitz), (b, r, coord, entry)
            assert (module.jets is not None) == (not toeplitz), (
                b, r, coord, entry)
            if module.jets is not None:
                assert module.jets == tuple(_jet_column(a)[:2]
                                            for a in actions)
        seen.add((on_last_row, toeplitz, commuting))


def test_row_and_dense_commutation_agree(repo_corpus_germs):
    """Over every corpus branch at r = 1..8, M2 with one action bumped at
    one entry of C is accepted exactly when `_jet_column` still reads each
    action (or all are Toeplitz) and the dense products commute.  `jets`
    is set exactly when not every action is Toeplitz: a bump on C's last
    row keeps the reading and is judged by c^T B = d^T A as the dense
    products judge it, a bump elsewhere in C breaks it and is refused,
    whether the dense products commute or not."""
    seen = set()
    for germ in repo_corpus_germs.values():
        for b in germ.branches:
            for r in range(1, 9):
                _judge_c_bumps(b, r, seen)
    # each reading met both verdicts, except a Toeplitz sum, which
    # commutes; the refusal met both
    assert seen >= {(True, False, True), (True, False, False),
                    (False, False, True), (False, False, False)}, seen


@settings(max_examples=40, deadline=None)
@given(toeplitz_branches(), st.integers(1, 8))
def test_every_built_module_is_read_by_columns_or_jets(b, r):
    """The refusal never fires on a module the program builds: over
    rational branches and branches over QQ(i) and QQ(a), every fiber of
    `fiber_module`, `jet_pair` and `graph_skyscraper` is read by
    `columns`, and every jet by `columns` when all its actions are
    Toeplitz, by `jets` exactly when not, each reading the actions' own
    first columns and C rows.  The C bumps of the corpus test are judged
    on these branches too."""
    sky_fiber, sky = graph_skyscraper(b)
    jet = jet_pair(b, r)
    for module in (fiber_module(b, r), jet.m1, sky_fiber, sky.m1):
        assert module.jets is None
        assert module.columns == tuple(toeplitz_column(a)
                                       for a in module.actions)
    for module in (jet.m2, sky.m2):
        columns = tuple(toeplitz_column(a) for a in module.actions)
        if None in columns:
            assert module.columns is None
            assert module.jets == tuple(_jet_column(a)[:2]
                                        for a in module.actions)
        else:
            assert module.columns == columns and module.jets is None
    _judge_c_bumps(b, r, set())


def test_series_readings_refuse_a_module_read_as_jets():
    """A jet pair whose M1 is read as jets, and the annihilator and the
    witness check of such a module, are refused as not a fiber.  (The
    refusal of a non-Toeplitz fiber action and of a jet action with a
    nonzero top-right entry is pinned with the tests that plant them.)"""
    b = B([(1, 1)], [(2, 1)])
    jet = jet_pair(b, 3)
    assert jet.m2.columns is None and jet.m2.jets is not None
    for read in (lambda: JetPair(jet.m2, jet_pair(b, 6).m2),
                 lambda: annihilator(jet.m2),
                 lambda: _kills(Poly.variable(2, 1), jet.m2)):
        with pytest.raises(D0resError) as caught:
            read()
        assert str(caught.value) == NOT_A_FIBER


def test_jet_pair_compares_first_columns(repo_corpus_germs):
    """A single-block jet pair whose M2 reads as jets is checked by first
    columns: an M2 of another branch's jet, valid on its own, is refused
    where its columns differ from M1's and accepted where they agree."""
    branches = [b for germ in repo_corpus_germs.values() for b in germ.branches]
    refused = accepted = 0
    for b in branches:
        for other in branches:
            if other.ambient_dim != b.ambient_dim:
                continue
            jet, foreign = jet_pair(b, 4), jet_pair(other, 4)
            if foreign.m2.jets is None or jet.m1.columns is None:
                continue
            same = all(
                c == col for (c, _), col in zip(foreign.m2.jets,
                                                jet.m1.columns))
            try:
                JetPair(jet.m1, foreign.m2)
            except D0resError as err:
                assert "intertwine the coordinate actions" in str(err)
                assert not same
                refused += 1
            else:
                assert same
                accepted += 1
    assert refused and accepted


def test_trusted_matrices_equal_checked_ones(repo_corpus_germs):
    """Every matrix `fiber_module`, `jet_pair` and `_action_power` build on
    trust equals the one `ExactMatrix` builds from the same entries, with
    the same entry types, over every corpus branch at r = 1..6 (the
    Gaussian node's and the space lines' included)."""
    branches = [b for germ in repo_corpus_germs.values() for b in germ.branches]
    assert any(b.ambient_dim == 3 for b in branches)
    assert any(isinstance(x, FieldElement) and not x.is_rational()
               for b in branches for s in b.coords for x in s.coeffs)
    types = set()
    for b in branches:
        for r in range(1, 7):
            jet = jet_pair(b, r)
            built = [*fiber_module(b, r).actions, *jet.m1.actions,
                     *jet.m2.actions]
            for module in (jet.m1, jet.m2):
                built += [_action_power(module, coord, k)
                          for coord in range(b.ambient_dim)
                          for k in range(1, r + 2)]
            for m in built:
                checked = ExactMatrix(m.data)
                assert m == checked, (b, r)
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
    text the CLI prints: a jet's C row doubled, judged by c^T B = d^T A
    with one-row products only, as the dense reference judges it."""
    jet = jet_pair(B([(1, 1)], [(2, 1)]), 3)
    data = [list(row) for row in jet.m2.actions[0].data]
    data[-1][:3] = [2 * x for x in data[-1][:3]]
    doubled = (ExactMatrix(data), jet.m2.actions[1])
    assert all(_jet_column(a) is not None for a in doubled)
    left_rows = []
    product = linalg_module.fmatmul

    def recorded(a, b):
        left_rows.append(len(a))
        return product(a, b)

    with monkeypatch.context() as patched:
        patched.setattr(linalg_module, "fmatmul", recorded)
        with pytest.raises(NonCommutingActions) as caught:
            FiniteModule(6, doubled)
    assert left_rows and set(left_rows) == {1}
    assert str(caught.value) == "coordinate actions must commute"
    with pytest.raises(NonCommutingActions):
        DenseModule(6, doubled)


def _frame_mutants(jet):
    """(kind, M2 actions) for the mutants of the jet's M2: the actions as
    they are, and one action bumped at a time.  Single entries are bumped
    in the top-right block and in the bottom-right block alone.  The
    diagonal blocks are bumped together at matching Toeplitz positions,
    one whole subdiagonal of each (for the last, the one corner entry):
    a jet stays read as a jet, with another first column.  An M2 read by
    `columns` also has each whole diagonal of one action bumped, which
    keeps it Toeplitz: below the diagonal blocks' reach that respects the
    frame, within it the first column is wrong."""
    r, actions = jet.rank, jet.m2.actions
    yield "none", actions
    for coord, a in enumerate(actions):
        def bumped(entries):
            data = [list(row) for row in a.data]
            for i, j in entries:
                data[i][j] += 1
            return actions[:coord] + (ExactMatrix(data),) + actions[coord + 1:]

        for i, j in {(0, r), (0, 2 * r - 1), (r - 1, r), (r - 1, 2 * r - 1)}:
            yield "top-right", bumped([(i, j)])
        for i in range(r):
            for j in range(i + 1):
                yield "bottom-right", bumped([(r + i, r + j)])
        for k in range(1, r):
            yield "diagonal blocks", bumped(
                [(i, i - k) for i in range(k, r)]
                + [(r + i, r + i - k) for i in range(k, r)])
        if jet.m2.columns is not None:
            for k in range(1, 2 * r):
                yield "Toeplitz", bumped([(i, i - k) for i in range(k, 2 * r)])


def _jet_outcome(r, m1_actions, m2_actions):
    """(route, error) of building the jet pair of these actions: the
    reading M2 took, None if it was refused, and the text of the refusal,
    None if it is accepted."""
    route = None
    try:
        m2 = FiniteModule(2 * r, m2_actions)
        route = "jets" if m2.jets is not None else "columns"
        JetPair(FiniteModule(r, m1_actions), m2)
    except D0resError as err:
        return route, str(err)
    return route, None


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
    `FiniteModule`, which reads the actions, and `JetPair`, which compares
    first columns, exactly when the dense reference accepts it, checking
    products, powers and the frame entry by entry.  Both readings of M2
    accept a jet and refuse a wrong first column, and a bump off the frame
    is refused by its shape."""
    branches = [b for germ in repo_corpus_germs.values() for b in germ.branches]
    assert any(b.ambient_dim == 3 for b in branches)
    assert any(isinstance(x, FieldElement) and not x.is_rational()
               for b in branches for s in b.coords for x in s.coeffs)
    seen = set()
    for b in branches:
        for jet in [graph_skyscraper(b)[1]] + [jet_pair(b, r) for r in range(1, 7)]:
            r, m1 = jet.rank, jet.m1.actions
            dense_m1 = DenseModule(r, m1)
            for kind, m2 in _frame_mutants(jet):
                route, error = _jet_outcome(r, m1, m2)
                assert (error is None) == _dense_accepts(dense_m1, m2), (
                    b, r, kind, route, error)
                seen.add((route, kind, error))
    frame = ("inclusion and projection must intertwine the coordinate "
             "actions")
    assert seen >= {("jets", "none", None), ("jets", "diagonal blocks", frame),
                    ("columns", "none", None), ("columns", "Toeplitz", None),
                    ("columns", "Toeplitz", frame),
                    (None, "top-right", REFUSED),
                    (None, "bottom-right", REFUSED)}, seen
