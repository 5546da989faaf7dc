"""The two separation criteria and the per-germ embedding certificate.

The rank-r family member over a branch is one object: the rank-r0 jet
pair padded with r - r0 graph-skyscraper jets (below r0, the bare rank-r
jet pair).  Padded, it is a `modules.DirectSum` of those two runs, and no
matrix of the sum is built.  Its special fiber m1 is the member's fiber
module.  A request's ranks share one `CertificateFamily`, which builds each
branch's base jet, skyscraper, member ideal and padding reference once.

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
on each summand.

Above r0 the cost does not grow with r.  Every coordinate pulls back to a
series of order >= 1, so a monomial of degree >= d = min(r, r0) has order
>= d and kills K[t]/(t^d), and it kills the skyscraper, whose actions are
zero.  So the member ideal holds every monomial of degree >= d, and its
reduced echelon basis at bound r is its basis at bound d with the bare
monomials of degree d + 1..r appended (`AnnihilatorIdeal.holds_top_degree`).
Those rows are the same for every member, so the ideals are compared,
searched and checked at bound d, and no row above d is built.  The
functionals are evaluated once, at d + 1: one pivot count there checks
that the ideal at d has stabilized, and the ideal is checked to hold
every monomial of degree d when it is stored.  A monomial of degree d
kills every member at rank r, so it is never a point witness, and the
witness search stops below d.

The action matrices still give the independent checks, read summand by
summand.  Every witness is re-verified on the action matrices of the
member's summands, the rank-r0 fiber and the 1 x 1 skyscraper: a
polynomial kills a direct sum iff it kills each summand.  The padding
check compares each member's ideal with the generic annihilator of the
family's rank-r0 fiber, read off its action matrices at degree r0; as
both hold every monomial of degree r0, equality there is equality at
bound r.  The fiber annihilator
cross-check (`pushforward_restriction_oracle`) compares the series and
matrix annihilators of each bare rank-r fiber at the report's small
ranks, reading each branch's series once.  The tangent test raises the
test coordinate's action on each distinct summand once
(`modules.power_runs`) and prints the 2r x 2r jet power from those
blocks, the one part of a certificate whose cost still grows with r.

`certify` serves every rank r >= 1.  Below r0 the same tests run on the
bare rank-r members, and the certificate (`below_critical`) has no padding
and never passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

from .branches import Germ
from .errors import D0resError, RaiseTruncation
from .fields import format_scalar
from .linalg import ExactMatrix, rref_rows
from .modules import (
    AnnihilatorIdeal,
    DirectSum,
    annihilator,
    fiber_functionals,
    fiber_module,
    functional_ideal,
    graph_skyscraper,
    jet_pair,
    pad,
    power_runs,
)
from .poly import poly_text

_ZERO = Fraction(0)

SEPARATED = "separated"
NOT_SEPARATED = "not_separated"
INCONCLUSIVE = "inconclusive"

# The top rank of the cross-check rows that reports and `d0res oracle`
# print; the check itself holds at any rank.
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
    below_critical: bool
    point_verdicts: tuple
    tangent_verdicts: tuple
    padding: dict             # None below the critical rank, as the next two
    padding_support_ok: bool
    support_points: tuple
    overall: bool


# -- the family ---------------------------------------------------------------


class CertificateFamily:
    """One germ's family over the ranks of one request.  Each branch's base
    jet `jet_pair(b, min(r, r0))`, skyscraper jet, member ideal at bound
    min(r, r0) and padding reference are built on first use, then read from
    memory: above r0 they are the same at every rank, and below r0 they are
    keyed by the rank.  `certify` pads and checks at each rank."""

    def __init__(self, germ: Germ):
        self.germ = germ
        self._built = {}

    def _once(self, key, build, *args):
        if key not in self._built:
            self._built[key] = build(*args)
        return self._built[key]

    def member(self, index: int, r: int):
        """The rank-r member over branch `index`: the rank-r0 jet pair padded
        with r - r0 graph-skyscraper jets, a `DirectSum` (the bare jet pair
        at r = r0; exploratory, the bare rank-r jet pair when r < r0).  Its
        special fiber `m1` is the member."""
        r0 = self.germ.r0
        base = self._base_jet(index, min(r, r0))
        return base if r <= r0 else pad(base, self._sky_jet(index), r - r0)

    def ideal(self, index: int, r: int) -> AnnihilatorIdeal:
        """Annihilator of member(index, r).m1 at degree bound d = min(r, r0)
        (`_stable_annihilator`), stored once per bound and filler.  It holds
        every monomial of degree d, so it stands for the ideal at bound r
        (module docstring)."""
        bound = min(r, self.germ.r0)
        filler = self._sky_jet(index).m1 if r > bound else None
        return self._once(("ideal", index, bound, filler is not None),
                          _stable_annihilator, self.germ.branches[index],
                          bound, bound, filler)

    def padding_reference(self, index: int) -> AnnihilatorIdeal:
        """The generic annihilator of the branch's rank-r0 fiber, the base
        jet's m1, at degree r0, read off its action matrices."""
        r0 = self.germ.r0
        return self._once(("padding", index), annihilator,
                          self._base_jet(index, r0).m1, r0)

    def _base_jet(self, index: int, rank: int):
        return self._once(("jet", index, rank), jet_pair,
                          self.germ.branches[index], rank)

    def _sky_jet(self, index: int):
        return self._once(("sky", index), graph_skyscraper,
                          self.germ.branches[index])[1]


def family_jet(germ: Germ, index: int, r: int):
    """The rank-r member's jet pair over branch `index`, from a fresh family."""
    return CertificateFamily(germ).member(index, r)


def family_annihilator(germ: Germ, index: int, r: int) -> AnnihilatorIdeal:
    """Annihilator of family_jet(germ, index, r).m1 at degree bound
    min(r, r0), from a fresh family."""
    return CertificateFamily(germ).ideal(index, r)


def _stable_annihilator(b, rank: int, bound: int,
                        filler=None) -> AnnihilatorIdeal:
    """modules.fiber_annihilator at degree `bound`, checked to have
    stabilized: the functionals at bound + 1 have rank equal to its
    quotient dimension, so no monomial of degree bound + 1 adds to the
    quotient.  At bound >= rank every monomial of degree bound kills the
    fiber and the 1 x 1 skyscraper (module docstring), and the ideal is
    checked to hold them all (`holds_top_degree`): the family stores it at
    that bound for every higher one.  The functionals are evaluated once,
    at bound + 1; `functional_ideal` reads the ideal at bound off their
    columns of degree <= bound."""
    monomials, rows = fiber_functionals(b, rank, bound + 1, filler)
    ideal = functional_ideal(bound, monomials, rows)
    if len(rref_rows(rows)[1]) != ideal.quotient_dim:
        raise D0resError(f"annihilator not stabilized at degree {bound}")
    if bound >= rank and not ideal.holds_top_degree():
        raise D0resError(f"annihilator does not hold every monomial of "
                         f"degree {bound}")
    return ideal


# -- point separation ---------------------------------------------------------------


def separates_points(germ: Germ, r: int):
    """Pairwise annihilator comparison of the rank-r family members
    (exploratory below the critical rank), from a fresh family."""
    family = CertificateFamily(germ)
    return _point_verdicts([family.ideal(i, r) for i in range(germ.k)],
                           [family.member(i, r).m1 for i in range(germ.k)])


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
    """A polynomial in exactly one of the two annihilators, re-verified;
    the first branch's annihilator is searched first.  Both share one
    degree bound, and a row that leads there is a bare monomial that both
    ideals hold, never a witness, so the search stops below it."""
    bound = ann_i.degree_bound
    first, second = ("first", ann_i, fiber_i), ("second", ann_j, fiber_j)
    for (own, ann, fiber), (other, _, other_fiber) in ((first, second),
                                                       (second, first)):
        for g in ann.polys_below(bound):
            if not _kills(g, other_fiber):
                _check_kills(g, fiber)
                return {
                    "polynomial": poly_text(g),
                    "annihilates_branch": own,
                    "nonzero_on_branch": other,
                }
    raise D0resError("distinct annihilators but no separating element found")


def _kills(g, fiber):
    """g acts as zero on the module `fiber` (its actions commute).  A direct
    sum is killed iff every summand is, so each distinct one is checked."""
    if isinstance(fiber, DirectSum):
        return all(_kills(g, s) for s, _ in fiber.runs)
    return g.evaluate(fiber.actions, ExactMatrix.identity(fiber.dim)).is_zero()


def _check_kills(g, fiber):
    if not _kills(g, fiber):
        raise D0resError(
            f"witness {poly_text(g)} does not annihilate its own fiber"
        )


# -- tangent separation ---------------------------------------------------------------


def separates_tangents(germ: Germ, r: int):
    """Nilpotency-jump test on the padded jet pair of every branch
    (exploratory below the critical rank), from a fresh family."""
    family = CertificateFamily(germ)
    return _tangent_verdicts(germ, r,
                             [family.member(i, r) for i in range(germ.k)])


def _tangent_verdicts(germ: Germ, r: int, jets):
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
        f1 = power_runs(jet.m1, coord, exponent)
        f2 = power_runs(jet.m2, coord, exponent)
        if (all(p.is_zero() for p, _ in f1)
                and not all(p.is_zero() for p, _ in f2)):
            verdicts.append(SeparationVerdict(
                kind="tangents", subject=(i,), result=SEPARATED,
                witness={
                    "coordinate": coord,
                    "exponent": exponent,
                    "fiber_power_zero": True,
                    "jet_power": _block_diag_text(f2),
                },
            ))
        elif r >= germ.r0:
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


def _block_diag_text(runs):
    """The rows of the block-diagonal sum of the (block, copies) `runs`,
    each entry formatted: every distinct block is formatted once, and the
    zeros outside the blocks share one string."""
    size = sum(block.rows * copies for block, copies in runs)
    zero = format_scalar(_ZERO)
    rows, start = [], 0
    for block, copies in runs:
        texts = [[format_scalar(x) for x in row] for row in block.data]
        for _ in range(copies):
            left, right = [zero] * start, [zero] * (size - start - block.cols)
            rows.extend(left + row + right for row in texts)
            start += block.rows
    return rows


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


def certify(family: CertificateFamily, r: int) -> EmbeddingCertificate:
    """Run both separation suites on the rank-r members of `family`, and
    assemble verdicts.  What the family already holds from another rank is
    read, not rebuilt; every check runs at this rank.  Below the critical
    rank the certificate is exploratory: it has no padding, runs no padding
    check and cannot pass."""
    germ = family.germ
    ideals = [family.ideal(i, r) for i in range(germ.k)]
    jets = [family.member(i, r) for i in range(germ.k)]
    point_verdicts = tuple(_point_verdicts(ideals, [jet.m1 for jet in jets]))
    tangent_verdicts = tuple(_tangent_verdicts(germ, r, jets))
    below_critical = r < germ.r0
    padding = padding_ok = support_points = None
    if not below_critical:
        padding_ok = _padding_support_unchanged(family, r, ideals)
        padding = {
            "filler": "graph-skyscraper",
            "copies": r - germ.r0,
            "base_rank": germ.r0,
        }
        support_points = tuple(germ.point for _ in germ.branches)
    overall = (
        not below_critical
        and all(v.is_separated() for v in point_verdicts)
        and all(v.is_separated() for v in tangent_verdicts)
        and padding_ok
    )
    return EmbeddingCertificate(
        germ=germ,
        rank=r,
        below_critical=below_critical,
        point_verdicts=point_verdicts,
        tangent_verdicts=tangent_verdicts,
        padding=padding,
        padding_support_ok=padding_ok,
        support_points=support_points,
        overall=overall,
    )


def _padding_support_unchanged(family, r: int, ideals) -> bool:
    """Padding with skyscrapers must not change the scheme support of any
    fiber: each member's annihilator (`ideals`, read off series rows at
    bound r0) equals the generic one of its bare rank-r0 fiber, the
    family's padding reference, read off that fiber's action matrices at
    the same bound.  The member ideal was checked to hold every monomial of
    degree r0 when it was stored, so equality at r0 is equality at any
    bound r above (module docstring)."""
    if r == family.germ.r0:
        return True
    return all(family.padding_reference(i) == ideal
               for i, ideal in enumerate(ideals))


# -- fiber annihilator cross-check ---------------------------------------------------


def pushforward_restriction_oracle(b, max_rank: int) -> dict:
    """The fiber annihilator cross-check: at each rank r = 1..max_rank, the
    annihilator of the rank-r fiber over branch `b`, read two ways, at
    degree bound r.  Returns the row {"1": ok, ..., str(max_rank): ok}.

    The fiber is the push-forward of K[t]/(t^r) along the branch map, and
    its annihilator is the ideal of the image subscheme.  The matrix route
    evaluates every monomial on the Toeplitz actions `fiber_module` writes
    (`annihilator`), at each rank.  The series route reads the t^0..t^(r-1)
    coefficients of f(x(t), y(t)), which is exact because the fiber is
    generated by 1.  The branch's series are read once, at max_rank
    (`fiber_functionals`): a series truncated there agrees below t^r with
    its truncation at r, so rank r's functionals are the first r rows, and
    `functional_ideal` reads their columns of degree <= r.  Both routes
    give reduced echelon bases on the same graded columns, which are
    unique, so `==` is exact.

    This checks equal annihilators, not isomorphic modules: K[t]/(t^r) need
    not be cyclic over the ambient ring (on the cusp at r = 2 every
    coordinate acts by zero), so the annihilator does not fix the module.
    """
    if b.trunc < max_rank + 1:
        raise RaiseTruncation("oracle needs branch truncation >= rank + 1",
                              needed=max_rank + 1)
    monomials, rows = fiber_functionals(b, max_rank, max_rank)
    return {str(r): annihilator(fiber_module(b, r), r)
            == functional_ideal(r, monomials, rows[:r])
            for r in range(1, max_rank + 1)}


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
