"""The two separation criteria and the per-germ embedding certificate.

The rank-r family member over a branch is one object, `family_jet`: the
rank-r0 jet pair padded with r - r0 graph-skyscraper jets (below r0, the
bare rank-r jet pair).  Its special fiber m1 is the member's fiber module.

Point separation: for each pair of branches, the members' fibers must have
distinct annihilator ideals; a polynomial lying in exactly one annihilator
is the machine-checkable witness.  Tangent separation: for each branch, the
coordinate f of minimal pullback order n acts on the member's jet pair so
that f^(r0/n) kills the special fiber assembly but not the jet assembly:
the nilpotency jump that certifies a non-split extension.  Verdicts are
three-valued; only a witnessed verdict counts as Separated.

The annihilators are computed from series functionals: a member's fiber is
the cyclic K[t]/(t^r0) plus skyscrapers, so at degree <= r its annihilator
is the kernel of the r0 coefficients of f(x(t), y(t)) and the skyscraper's
evaluation row (`family_annihilator`).  This is exact: f acts by zero on a
cyclic module iff it kills the generator, and on a direct sum iff it does
on each summand.  The action matrices still give the independent checks:
every witness is re-verified on the members' fibers, and the padding check
compares each member's ideal with the generic annihilator of a fresh bare
rank-r0 fiber.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import ceil, comb

from .branches import Germ
from .errors import D0resError, RaiseTruncation, RankBelowCritical
from .fields import format_scalar, scalar_is_zero
from .linalg import ExactMatrix, eval_poly_at_commuting, rref_rows
from .modules import (
    AnnihilatorIdeal,
    JetPair,
    annihilator,
    fiber_annihilator,
    fiber_module,
    graph_skyscraper,
    jet_pair,
    pad,
)
from .poly import poly_text

_ZERO = Fraction(0)

SEPARATED = "separated"
NOT_SEPARATED = "not_separated"
INCONCLUSIVE = "inconclusive"

# The push-forward oracle compares up to r! basis permutations.
ORACLE_MAX_RANK = 4


@dataclass(frozen=True)
class SeparationVerdict:
    kind: str                 # "points" | "tangents"
    subject: tuple            # (i, j) branch pair or (i,) single branch
    result: str
    witness: dict = None
    reason: str = None

    def is_separated(self):
        return self.result == SEPARATED


@dataclass(frozen=True)
class EmbeddingCertificate:
    germ: Germ
    rank: int
    point_verdicts: tuple
    tangent_verdicts: tuple
    padding: dict
    padding_support_ok: bool
    support_points: tuple
    overall: bool


# -- family members ---------------------------------------------------------------


def family_jet(germ: Germ, index: int, r: int) -> JetPair:
    """The rank-r member over branch `index` as a jet pair: the rank-r0 jet
    pair padded with r - r0 graph-skyscraper jets (exploratory: the bare
    rank-r jet pair when r < r0).  Its special fiber `m1` is the member."""
    return _member_jet(germ, index, r, _skyscraper_jet(germ, index, r))


def family_annihilator(germ: Germ, index: int, r: int) -> AnnihilatorIdeal:
    """Annihilator of family_jet(germ, index, r).m1 at degree bound r, read
    off the branch's series coefficients (`modules.fiber_annihilator`), with
    the stabilization check at bound r + 1."""
    return _member_annihilator(germ, index, r, _skyscraper_jet(germ, index, r))


def _skyscraper_jet(germ: Germ, index: int, r: int):
    """The graph-skyscraper jet padded into the rank-r member, None at r <= r0."""
    return graph_skyscraper(germ.branches[index])[1] if r > germ.r0 else None


def _member_jet(germ: Germ, index: int, r: int, sky_jet) -> JetPair:
    base = jet_pair(germ.branches[index], min(r, germ.r0))
    return base if sky_jet is None else pad(base, sky_jet, r - germ.r0)


def _member_annihilator(germ: Germ, index: int, r: int,
                        sky_jet) -> AnnihilatorIdeal:
    b = germ.branches[index]
    base_rank = min(r, germ.r0)
    filler = None if sky_jet is None else sky_jet.m1
    ideal = fiber_annihilator(b, base_rank, r, filler)
    up = fiber_annihilator(b, base_rank, r + 1, filler)
    if up.quotient_dim != ideal.quotient_dim:
        raise D0resError(f"annihilator not stabilized at degree {r}")
    return ideal


def _family(germ: Germ, r: int):
    """Each branch's member ideal and member jet, built from one skyscraper."""
    skies = [_skyscraper_jet(germ, i, r) for i in range(germ.k)]
    ideals = [_member_annihilator(germ, i, r, sky) for i, sky in enumerate(skies)]
    return ideals, [_member_jet(germ, i, r, sky) for i, sky in enumerate(skies)]


def _check_rank(germ: Germ, r: int, exploratory: bool):
    # r < 1 is rejected by the module builders
    if r < germ.r0 and not exploratory:
        raise RankBelowCritical(
            f"rank {r} below critical rank {germ.r0}; the criteria are only "
            "guaranteed from the critical rank up (use exploratory mode)"
        )


# -- point separation ---------------------------------------------------------------


def separates_points(germ: Germ, r: int, exploratory: bool = False):
    """Pairwise annihilator comparison of the rank-r family members."""
    _check_rank(germ, r, exploratory)
    ideals, jets = _family(germ, r)
    return _point_verdicts(ideals, [jet.m1 for jet in jets])


def _point_verdicts(ideals, fibers):
    """Verdicts from the members' ideals; witnesses are re-checked on the
    members' action matrices `fibers`."""
    verdicts = []
    for i in range(len(ideals)):
        for j in range(i + 1, len(ideals)):
            pair = (i, j)
            if ideals[i] != ideals[j]:
                witness = _point_witness(ideals[i], fibers[i], ideals[j], fibers[j])
                verdicts.append(SeparationVerdict(
                    kind="points", subject=pair, result=SEPARATED,
                    witness=witness,
                ))
            elif fibers[i].same_presentation(fibers[j]):
                verdicts.append(SeparationVerdict(
                    kind="points", subject=pair, result=NOT_SEPARATED,
                    reason="identical fiber presentations",
                ))
            else:
                verdicts.append(SeparationVerdict(
                    kind="points", subject=pair, result=INCONCLUSIVE,
                    reason="equal annihilators but different matrices; "
                           "annihilator separation cannot decide",
                ))
    return verdicts


def _point_witness(ann_i, fiber_i, ann_j, fiber_j):
    """A polynomial in exactly one of the two annihilators, re-verified."""
    for g in ann_i.polys:
        if not eval_poly_at_commuting(g, fiber_j.actions).is_zero():
            _check_kills(g, fiber_i)
            return {
                "polynomial": poly_text(g),
                "annihilates_branch": "first",
                "nonzero_on_branch": "second",
            }
    for g in ann_j.polys:
        if not eval_poly_at_commuting(g, fiber_i.actions).is_zero():
            _check_kills(g, fiber_j)
            return {
                "polynomial": poly_text(g),
                "annihilates_branch": "second",
                "nonzero_on_branch": "first",
            }
    raise D0resError("distinct annihilators but no separating element found")


def _check_kills(g, fiber):
    if not eval_poly_at_commuting(g, fiber.actions).is_zero():
        raise D0resError(
            f"witness {poly_text(g)} does not annihilate its own fiber"
        )


# -- tangent separation ---------------------------------------------------------------


def separates_tangents(germ: Germ, r: int, exploratory: bool = False):
    """Nilpotency-jump test on the padded jet pair of every branch."""
    _check_rank(germ, r, exploratory)
    jets = [family_jet(germ, i, r) for i in range(germ.k)]
    return _tangent_verdicts(germ, r, jets, exploratory)


def _tangent_verdicts(germ: Germ, r: int, jets, exploratory: bool):
    verdicts = []
    for i, (b, jet) in enumerate(zip(germ.branches, jets)):
        n = germ.n[i]
        coord = _test_coordinate(b)
        if r >= germ.r0:
            exponent, remainder = divmod(germ.r0, n)
            if remainder:
                raise D0resError(
                    f"critical rank {germ.r0} is not divisible by n={n}"
                )
        else:
            exponent = ceil(r / n)
        f1 = jet.m1.actions[coord] ** exponent
        f2 = jet.m2.actions[coord] ** exponent
        if f1.is_zero() and not f2.is_zero():
            verdicts.append(SeparationVerdict(
                kind="tangents", subject=(i,), result=SEPARATED,
                witness={
                    "coordinate": coord,
                    "exponent": exponent,
                    "fiber_power_zero": True,
                    "jet_power": [[format_scalar(x) for x in row]
                                  for row in f2.data],
                },
            ))
        elif not exploratory and r >= germ.r0:
            verdicts.append(SeparationVerdict(
                kind="tangents", subject=(i,), result=INCONCLUSIVE,
                reason="nilpotency jump absent for the guaranteed family; "
                       "this should not happen and deserves a bug report",
            ))
        else:
            verdicts.append(SeparationVerdict(
                kind="tangents", subject=(i,), result=INCONCLUSIVE,
                reason="no nilpotency jump at this rank",
            ))
    return verdicts


def _test_coordinate(b) -> int:
    """Index of the ambient coordinate of minimal pullback order (ties by
    lowest index)."""
    best = None
    for idx, s in enumerate(b.coords):
        o = s.order()
        if o is None:
            continue
        if best is None or o < b.coords[best].order():
            best = idx
    if best is None:
        raise D0resError("degenerate branch: no coordinate pulls back nonzero")
    return best


def graph_jet_class_vanishes(b) -> bool:
    """True iff the graph-skyscraper jet splits: every coordinate pullback has
    order >= 2, i.e. the branch multiplicity exceeds 1."""
    for s in b.coords:
        o = s.order()
        if o is not None and o < 2:
            return False
    return True


# -- certificates ---------------------------------------------------------------


def certify(germ: Germ, r: int) -> EmbeddingCertificate:
    """Run both separation suites on the rank-r family, each member built
    once, and assemble verdicts."""
    if r < germ.r0:
        raise RankBelowCritical(
            f"rank {r} < critical rank {germ.r0} for this germ"
        )
    ideals, jets = _family(germ, r)
    point_verdicts = tuple(_point_verdicts(ideals, [jet.m1 for jet in jets]))
    tangent_verdicts = tuple(_tangent_verdicts(germ, r, jets, exploratory=False))
    padding_ok = _padding_support_unchanged(germ, r, ideals)
    padding = {
        "filler": "graph-skyscraper",
        "copies": r - germ.r0,
        "base_rank": germ.r0,
    }
    support_points = tuple(germ.point for _ in germ.branches)
    overall = (
        all(v.is_separated() for v in point_verdicts)
        and all(v.is_separated() for v in tangent_verdicts)
        and padding_ok
    )
    return EmbeddingCertificate(
        germ=germ,
        rank=r,
        point_verdicts=point_verdicts,
        tangent_verdicts=tangent_verdicts,
        padding=padding,
        padding_support_ok=padding_ok,
        support_points=support_points,
        overall=overall,
    )


def _padding_support_unchanged(germ: Germ, r: int, ideals) -> bool:
    """Padding with skyscrapers must not change the scheme support of any
    fiber: each member's annihilator (`ideals`, read off series rows) equals
    the generic one of its bare rank-r0 fiber, read off that fiber's action
    matrices, at the same degree bound."""
    if r == germ.r0:
        return True
    return all(annihilator(fiber_module(b, germ.r0), r) == ideal
               for b, ideal in zip(germ.branches, ideals))


# -- push-forward / restriction oracle ------------------------------------------------


def pushforward_restriction_oracle(b, r: int) -> bool:
    """Build the rank-r fiber by both operation orders and compare.

    Route 1 restricts the diagonal family to the point first and then reads
    the coordinate actions through the pullbacks: the `fiber_module` the
    certificates use.  Route 2 forms the module on a truncated product
    neighborhood first (quotient by the r-th diagonal power), pushes the
    coordinate actions forward, and restricts by the first factor at the end.
    Equality is checked up to a basis permutation.
    """
    if r > ORACLE_MAX_RANK:
        raise D0resError(
            f"oracle intended for small ranks (<= {ORACLE_MAX_RANK})")
    if b.trunc < r + 1:
        raise RaiseTruncation("oracle needs branch truncation >= rank + 1",
                              needed=r + 1)
    # route 1: restrict, then push forward
    route1 = fiber_module(b, r).actions

    # route 2: push forward on the product neighborhood, then restrict
    n1, n2 = r + 1, 2 * r + 2
    mons = [(i, j) for i in range(n1) for j in range(n2)]
    index = {m: k for k, m in enumerate(mons)}
    dim = len(mons)

    def mono_vec(coeff_map):
        v = [_ZERO] * dim
        for (i, j), c in coeff_map.items():
            if i < n1 and j < n2:
                v[index[(i, j)]] = v[index[(i, j)]] + c
        return v

    # (t1 - t2)^r expansion
    diag = {}
    for k in range(r + 1):
        diag[(k, r - k)] = Fraction((-1) ** (r - k) * comb(r, k))
    u_rows = []
    for (i, j) in mons:
        shifted = {(i + a, j + c): v for (a, c), v in diag.items()}
        u_rows.append(mono_vec(shifted))
        u_rows.append(mono_vec({(i + 1, j): Fraction(1)}))
    reduced, pivots = rref_rows([row for row in u_rows
                                 if any(not scalar_is_zero(x) for x in row)])
    pivot_set = set(pivots)
    complement = [k for k in range(dim) if k not in pivot_set]
    if len(complement) != r:
        return False

    def reduce_vec(vec):
        vec = list(vec)
        for row_idx, p in enumerate(pivots):
            c = vec[p]
            if scalar_is_zero(c):
                continue
            row = reduced[row_idx]
            for k in range(dim):
                if not scalar_is_zero(row[k]):
                    vec[k] = vec[k] - c * row[k]
        return vec

    route2 = []
    for s in b.coords:
        cols = []
        for basis_k in complement:
            (bi, bj) = mons[basis_k]
            prod = {}
            for e, c in enumerate(s.coeffs[:n2]):
                if scalar_is_zero(c):
                    continue
                prod[(bi, bj + e)] = c
            vec = reduce_vec(mono_vec(prod))
            cols.append([vec[k] for k in complement])
        route2.append(ExactMatrix([[cols[j][i] for j in range(r)]
                                   for i in range(r)]))

    return _equal_up_to_permutation(route1, route2)


def _equal_up_to_permutation(mats_a, mats_b) -> bool:
    d = mats_a[0].rows
    for perm in permutations(range(d)):
        ok = True
        for a, m in zip(mats_a, mats_b):
            permuted = ExactMatrix([[m.data[perm[i]][perm[j]] for j in range(d)]
                                    for i in range(d)])
            if permuted != a:
                ok = False
                break
        if ok:
            return True
    return False


# -- corpus-level aggregation ----------------------------------------------------------


def aggregate_critical_rank(germs) -> dict:
    """Combine per-germ invariants the way a whole curve would: one lcm over
    all branch multiplicities and the max bii over multibranch points."""
    from math import lcm

    all_n = [n for g in germs for n in g.n]
    biis = [g.bii for g in germs if g.bii is not None]
    l0 = 1 + max(biis) if biis else 1
    r0 = l0 * lcm(*all_n) if all_n else l0
    return {
        "l0": l0,
        "r0": r0,
        "per_germ_r0": [g.r0 for g in germs],
    }
