"""Randomized round-trip of the whole branches layer.

Build germs as products of known polynomial branch equations, decompose them,
and check the decomposition recovers exactly the constructed branches with
the intersection lengths computable directly from the constructions.
"""

import random
from fractions import Fraction
from math import lcm

from d0res.branches import (
    BranchParam,
    PlaneCurveInput,
    branch_multiplicity,
    germ_invariants,
    implicit_equation,
    newton_puiseux,
)
from d0res.poly import Poly, is_reduced_at
from d0res.series import Series
from d0res.verify import CertificateFamily, certify

F = Fraction

# pool of primitive polynomial branches with known equations, kept small so
# products stay reduced and truncations modest
BRANCH_POOL = [
    ((1, 1),),                # y = x           (as (exp, coeff) pairs for y)
    ((1, -1),),               # y = -x
    ((1, 2),),                # y = 2x
    ((2, 1),),                # y = x^2
    ((2, -1),),               # y = -x^2
    ((1, 1), (2, 1)),         # y = x + x^2
    ((3, 1),),                # y = x^3
]


def graph_branch(pairs, trunc):
    return BranchParam((
        Series.variable(trunc),
        Series.from_pairs([(e, F(c)) for e, c in pairs], trunc),
    ))


def graph_equation(pairs):
    # y - sum c x^e
    terms = {(0, 1): F(1)}
    for e, c in pairs:
        terms[(e, 0)] = terms.get((e, 0), F(0)) - F(c)
    return Poly(2, terms)


def direct_intersection(pairs_a, pairs_b, trunc=32):
    ga = graph_equation(pairs_a)
    b = graph_branch(pairs_b, trunc)
    return ga.eval_series(list(b.coords)).order()


def test_random_products_of_graph_branches():
    rng = random.Random(2024)
    for trial in range(12):
        k = rng.randint(2, 3)
        chosen = rng.sample(BRANCH_POOL, k)
        f = Poly.constant(2, F(1))
        for pairs in chosen:
            f = f * graph_equation(pairs)
        assert is_reduced_at(f, (F(0), F(0)))
        branches = newton_puiseux(PlaneCurveInput(f), 32)
        assert len(branches) == k, (trial, chosen)
        # match recovered branches to constructions by their y-series
        recovered = {tuple(
            (i, c) for i, c in enumerate(b.coords[1].coeffs) if c != 0
        ) for b in branches}
        expected = {tuple((e, F(c)) for e, c in pairs if c != 0)
                    for pairs in chosen}
        assert recovered == expected, (trial, chosen)
        germ = germ_invariants(branches)
        assert germ.n == (1,) * k
        # every pairwise length agrees with the direct order computation
        order = {tuple((e, F(c)) for e, c in pairs if c != 0): idx
                 for idx, pairs in enumerate(chosen)}
        for bi in range(k):
            for bj in range(bi + 1, k):
                key_i = tuple((i, c) for i, c in
                              enumerate(branches[bi].coords[1].coeffs) if c != 0)
                key_j = tuple((i, c) for i, c in
                              enumerate(branches[bj].coords[1].coeffs) if c != 0)
                direct = direct_intersection(
                    chosen[order[key_i]], chosen[order[key_j]]
                )
                assert germ.l_matrix[bi][bj] == direct, (trial, bi, bj)
        assert germ.r0 == (1 + germ.bii) * lcm(*germ.n)
        assert certify(CertificateFamily(germ), germ.r0).overall, trial


def test_random_scaled_cusps():
    rng = random.Random(7)
    for _ in range(6):
        a = F(rng.randint(1, 5))
        terms = {(0, 2): F(1), (3, 0): -a}   # y^2 = a x^3
        branches = newton_puiseux(PlaneCurveInput(Poly(2, terms)), 32)
        assert len(branches) == 1
        (b,) = branches
        assert branch_multiplicity(b) == 2
        g = implicit_equation(b)
        # normalized local equation reproduces y^2 - a x^3
        assert g == Poly(2, {(0, 2): F(1), (3, 0): -a})
        germ = germ_invariants(branches)
        assert germ.r0 == 2
        assert certify(CertificateFamily(germ), 2).overall
