"""The two separation criteria and the per-germ embedding certificate.

The rank-r family member over a branch is one object: the rank-r0 jet
pair padded with r - r0 graph-skyscraper jets (below r0, the bare rank-r
jet pair).  Padded, it is a `modules.DirectSum` of those two runs, and no
matrix of the sum is built.  Its special fiber m1 is the member's fiber
module.  A request's ranks share one `CertificateFamily`, which builds each
branch's base jet and skyscraper once, and keeps each one's answers: every
kill of a witness row on its fiber and every power of an action on it is
computed once, on that summand, and read by every rank whose members hold
it.  So a rank above r0 computes only what its skyscraper run adds, and
only if no rank before it did.  The family is also the request's one
store of annihilators: for each branch and rank d, the bare rank-d fiber's
ideal, read off the fiber module's columns, and one check of it against
the branch, each built once and read by every rank and the cross-check.

Point separation: for each pair of branches, the members' fibers must have
distinct annihilator ideals; a polynomial lying in exactly one annihilator
is the machine-checkable witness.  Tangent separation: for each branch, the
coordinate f of minimal pullback order n acts on the member's jet pair so
that f^(r0/n) kills the special fiber assembly but not the jet assembly:
the nilpotency jump that certifies a non-split extension.  Verdicts are
three-valued; only a witnessed verdict counts as Separated.

The annihilators are read off the fibers' columns.  At rank r a member's
fiber is K[t]/(t^d), d = min(r, r0), plus r - r0 graph skyscrapers above
r0.  The fiber is cyclic, generated by 1, and f kills a cyclic module iff
it kills the generator, so its ideal at degree <= d is the kernel of the
d coefficients of f(x(t), y(t)), the first columns of f's action
(`modules.annihilator`).  f kills a direct sum iff it kills each
summand.  The skyscraper's actions are zero, so its
annihilator is {f : f(0) = 0}; every coordinate pulls back to a series of
order >= 1, so the fiber's t^0 row is f -> f(0), and the fiber's ideal
lies in the skyscraper's.  So a padded member's ideal is its fiber's, and
a branch has one member ideal per bound d (`_stable_annihilator`).

Above r0 the cost does not grow with r.  A monomial of degree d has order
>= d along the branch and kills K[t]/(t^d), so the member ideal holds
every monomial of degree d, and its reduced echelon basis at bound r is
its basis at bound d with the bare monomials of degree d + 1..r appended
(`AnnihilatorIdeal.holds_top_degree`).  Those rows are the same for every
member, so the ideals are compared, searched and checked at bound d, and
no row above d is built.  The functionals are evaluated at d and
eliminated once, and only on the monomials of order below d along the
branch: every other monomial is zero on K[t]/(t^d), a bare row that the
ideal holds implicitly, so the work follows the monomials the branch
reaches, not all O(d^2) of degree <= d (`modules`, "reachable
monomials").  The stored ideal is checked to hold every monomial of
degree d, which also proves that it has stabilized, and to have no basis
row with a constant term, so that it kills the skyscraper.  A monomial of
degree d kills every member at rank r, so it is never a point witness,
and the witness search stops below d.

The modules the family builds give the independent checks, summand by
summand.  Every witness is re-verified on the member's summands, the
rank-r0 fiber and the 1 x 1 skyscraper: a polynomial kills a direct sum
iff it kills each summand (`CertificateFamily.kills`).  A fiber holds the
first columns of its Toeplitz actions, so g kills it iff g at those
columns is zero mod t^dim (`_kills`), laid out once per summand
(`SlotLayout`).  Each stored ideal is checked against its branch by
simpler code than the code that built it (`_is_fiber_annihilator`).  The
fiber annihilator cross-check (`pushforward_restriction_oracle`) prints
those verdicts at ranks 1..max_rank, and the padding check reads the one
at r0; no ideal is built or checked twice.

The tangent test raises the test coordinate's action on each summand's
fiber and jet once for all ranks, in closed form (`modules._action_power`,
given the fiber or the jet pair): a fiber action as the power of its
column, a jet action [[A, 0], [e c^T, A]], read off the fiber's column
and the pair's row c, as the column of A^k and the row w = c^T A^(k-1).
Its zero test reads the series.  A witness needs A^k = 0, and then w is
the power's one nonzero row, so only w is printed, as entry strings
(`_printed`).  A block-diagonal matrix's power is the block-diagonal sum
of its blocks' powers, so the jet power prints as (row, copies) runs: no
part of a certificate grows with r above r0, or faster than r0.

`certify` serves every rank r >= 1.  Below r0 the same tests run on the
bare rank-r members, and the certificate (`below_critical`) has no padding
and never passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from itertools import accumulate
from math import ceil
from operator import mul

from .branches import Germ
from .errors import D0resError, RaiseTruncation
from .fields import format_scalar
from .linalg import rref_rows
from .modules import (
    AnnihilatorIdeal,
    _action_power,
    annihilator,
    fiber_module,
    graph_skyscraper,
    jet_pair,
    pad,
)
from .poly import Poly, poly_text
from .series import Series, SlotLayout

SEPARATED = "separated"
NOT_SEPARATED = "not_separated"
INCONCLUSIVE = "inconclusive"

# The top rank of the cross-check rows that reports and `d0res oracle`
# print; the check itself holds at any rank.
ORACLE_MAX_RANK = 4


def oracle_rank(r0: int) -> int:
    """The top rank of a report's cross-check rows: r0, at least 2 and at
    most ORACLE_MAX_RANK."""
    return min(ORACLE_MAX_RANK, max(2, r0))


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


def _once(store: dict, key, build, *args):
    """`store[key]`, built as `build(*args)` on first use."""
    if key not in store:
        store[key] = build(*args)
    return store[key]


class _Summand:
    """A jet pair that the family's members are summed from, and its
    answers: each kill, power, power's zero test and printed power row
    is computed on first use, on this summand, and read by every rank
    whose members hold it."""

    def __init__(self, jet):
        self.jet = jet
        self._answers = {}

    def kills(self, row_key, g) -> bool:
        """g, the stored-ideal basis row named `row_key`, acts as zero on
        this summand's fiber (`_kills`), at its columns' layout, built on
        the first kill."""
        at = _once(self._answers, "layout", SlotLayout, self.jet.m1.columns)
        return _once(self._answers, ("kills", row_key), _kills, g, at)

    def power(self, side: str, coord: int, k: int):
        """Coordinate `coord`'s action on this summand's fiber ("m1") or jet
        ("m2") to the power k, as its (column, row) (`_action_power`)."""
        return _once(self._answers, ("power", side, coord, k), _action_power,
                     self.jet.m1 if side == "m1" else self.jet, coord, k)

    def power_is_zero(self, side: str, coord: int, k: int) -> bool:
        """power(side, coord, k) is zero, read off its series once."""
        return _once(self._answers, ("zero", side, coord, k),
                     _power_is_zero, self.power(side, coord, k))

    def printed(self, coord: int, k: int):
        """power("m2", coord, k) as its one nonzero row w (`_printed`)."""
        return _once(self._answers, ("printed", coord, k), _printed,
                     self.power("m2", coord, k))


def _power_is_zero(power) -> bool:
    """A power (column, row) of `_action_power` is zero: A^k = 0 iff its
    column is zero mod t^r, and a jet power also needs its row
    w = c^T A^(k-1) zero."""
    column, row = power
    return column.is_zero_at_precision() and not any(row or ())


def _printed(power):
    """The entry strings of w, the one nonzero row of the jet power
    [[A^k, 0], [e w^T, A^k]] given as (column of A^k, w) when A^k = 0; a
    power whose column is not zero mod t^r has more, and is refused."""
    column, row = power
    if not column.is_zero_at_precision():
        raise D0resError("a printed jet power must have a zero fiber power "
                         "A^k, so that w is its one nonzero row")
    return tuple(format_scalar(x) for x in row)


class CertificateFamily:
    """One germ's family over the ranks of one request, and the one store
    of its per-branch summands and annihilators.  Each branch's base jet
    `jet_pair(b, min(r, r0))`, under ("jet", i, min(r, r0)), its
    skyscraper jet, under ("sky", i), each padded member and the two
    annihilators of each bare rank-d fiber are built on first use, then
    read from memory, and each summand keeps its answers (`_Summand`).
    So a rank above r0 pays only for what its skyscraper run adds, the
    first time one does, and the cross-check reads the same annihilators."""

    def __init__(self, germ: Germ):
        self.germ = germ
        self._built = {}

    def member(self, index: int, r: int):
        """The rank-r member over branch `index`: the rank-r0 jet pair padded
        with r - r0 graph-skyscraper jets, a `DirectSum` (the bare jet pair
        at r = r0; exploratory, the bare rank-r jet pair when r < r0).  Its
        special fiber `m1` is the member."""
        r0 = self.germ.r0
        if r <= r0:
            return self._base(index, r).jet
        return _once(self._built, ("member", index, r), pad,
                     self._base(index, r0).jet, self._sky(index).jet, r - r0)

    def summands(self, index: int, r: int):
        """member(index, r) as (`_Summand`, copies) runs in block order: the
        base jet once, then above r0 the skyscraper jet r - r0 times."""
        r0 = self.germ.r0
        runs = [(self._base(index, min(r, r0)), 1)]
        if r > r0:
            runs.append((self._sky(index), r - r0))
        return runs

    def kills(self, r: int, index: int, row: int, g, other: int) -> bool:
        """g, basis row `row` of ideal(index, r), kills member(other, r).m1:
        a polynomial kills a direct sum iff it kills each summand, and each
        summand's answer is its own (`_Summand.kills`)."""
        row_key = ("ideal", index, min(r, self.germ.r0), row)
        return all(s.kills(row_key, g) for s, _ in self.summands(other, r))

    def ideal(self, index: int, r: int) -> AnnihilatorIdeal:
        """Annihilator of member(index, r).m1 at degree bound d = min(r, r0):
        the annihilator of the bare rank-d fiber.  It holds every monomial
        of degree d, so it stands for the ideal at bound r (module
        docstring)."""
        return self.fiber_ideal(index, min(r, self.germ.r0))

    def fiber_ideal(self, index: int, d: int) -> AnnihilatorIdeal:
        """The annihilator of the bare rank-d fiber over branch `index` at
        degree d (`_stable_annihilator`)."""
        return _once(self._built, ("ideal", index, d), _stable_annihilator,
                     self.germ.branches[index], d)

    def verdict(self, index: int, d: int) -> bool:
        """fiber_ideal(index, d) is the annihilator of the rank-d fiber of
        its branch, checked by another evaluator than the one that built it
        (`_is_fiber_annihilator`)."""
        return _once(self._built, ("check", index, d), _is_fiber_annihilator,
                     self.germ.branches[index], self.fiber_ideal(index, d))

    def _base(self, index: int, rank: int) -> _Summand:
        b = self.germ.branches[index]
        return _once(self._built, ("jet", index, rank),
                     lambda: _Summand(jet_pair(b, rank)))

    def _sky(self, index: int) -> _Summand:
        b = self.germ.branches[index]
        return _once(self._built, ("sky", index),
                     lambda: _Summand(graph_skyscraper(b)))


def _stable_annihilator(b, bound: int) -> AnnihilatorIdeal:
    """The member ideal at degree `bound`, `modules.annihilator` of the
    rank-`bound` fiber module over `b`.  It must hold every monomial of
    degree `bound` (`holds_top_degree`), so that the family stores it at
    that bound for every higher one.  No basis row may have an entry at
    the constant monomial, so that every polynomial in it vanishes at 0
    and kills the 1 x 1 skyscraper: then it is also the ideal of the fiber
    padded with skyscrapers (module docstring)."""
    ideal = annihilator(fiber_module(b, bound), bound)
    if not ideal.holds_top_degree():
        raise D0resError(f"annihilator does not hold every monomial of "
                         f"degree {bound}")
    if not ideal.in_maximal_ideal():
        raise D0resError("annihilator holds a polynomial with a constant "
                         "term, which the skyscraper does not")
    return ideal


def _is_fiber_annihilator(b, ideal: AnnihilatorIdeal) -> bool:
    """True iff `ideal` is Ann, the annihilator of K[t]/(t^d) over `b` at
    its own bound d, checked at the branch's own series by simpler code
    than `modules.annihilator`: g kills the fiber iff g(x(t)) = 0 mod t^d.
    (a) ideal <= Ann: every live row vanishes (`Poly.eval_series`, at
        the coordinates laid out once, `SlotLayout`), and every monomial
        of order below d is live, so each bare row, of order >= d,
        vanishes too (x^e has order sum e_k * ord x_k).
    (b) codim ideal <= codim Ann: there are quotient_dim standard
        monomials, the live ones that lead no row, so the rows lead at
        distinct columns and these span a complement of the ideal; their
        values, products of the coordinates' powers, are independent
        (`rref_rows`), so that complement meets Ann in 0."""
    d = ideal.degree_bound
    coords = [s.truncate(d) for s in b.coords]
    live = set(ideal.live)
    orders = [d if o is None else o for o in (s.order() for s in coords)]
    if any(e not in live for e in _monomials_below(orders, d)):
        return False
    at = SlotLayout(coords)
    if not all(Poly(ideal.nvars, {ideal.live[c]: v for c, v in row})
               .eval_series(at).is_zero_at_precision()
               for row in ideal.live_rows):
        return False
    leads = {row[0][0] for row in ideal.live_rows}
    standard = [m for k, m in enumerate(ideal.live) if k not in leads]
    one = Series.one(d)
    powers = [list(accumulate([s] * max((m[k] for m in standard), default=0),
                              mul, initial=one)) for k, s in enumerate(coords)]
    values = [reduce(mul, [p[e] for p, e in zip(powers, m) if e] or [one])
              .coeffs for m in standard]
    return len(rref_rows(values)[1]) == len(values) == ideal.quotient_dim


def _monomials_below(orders, n):
    """The exponents e with sum e_k * orders[k] below n, all orders >= 1."""
    found = [((), 0)]
    for o in orders:
        found = [(e + (k,), w + k * o) for e, w in found
                 for k in range((n - 1 - w) // o + 1)]
    return [e for e, _ in found]


# -- point separation ---------------------------------------------------------------


def separates_points(family: CertificateFamily, r: int):
    """Pairwise annihilator comparison of the rank-r members of `family`
    (exploratory below the critical rank)."""
    k = family.germ.k
    return _point_verdicts([family.ideal(i, r) for i in range(k)],
                           [family.member(i, r).m1 for i in range(k)],
                           partial(family.kills, r))


def _point_verdicts(ideals, fibers, kills):
    """Verdicts from the members' ideals.  Witnesses are re-checked on the
    members' modules by `kills` (`_point_witness`); equal ideals compare
    the members' presentations `fibers`."""
    verdicts = []
    for i in range(len(ideals)):
        for j in range(i + 1, len(ideals)):
            pair = (i, j)
            if ideals[i] != ideals[j]:
                witness = _point_witness(ideals, i, j, kills)
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


def _point_witness(ideals, i, j, kills):
    """A polynomial in exactly one of ideals[i] and ideals[j], re-verified:
    `kills(a, row, g, b)` tells whether g, basis row `row` of ideals[a],
    acts as zero on member b's modules.  The first branch's
    annihilator is searched first.  Both share one degree bound, and a row
    that leads there is a bare monomial that both ideals hold, never a
    witness, so the search stops below it."""
    bound = ideals[i].degree_bound
    for own, other, own_name, other_name in ((i, j, "first", "second"),
                                             (j, i, "second", "first")):
        for row, g in enumerate(ideals[own].polys_below(bound)):
            if not kills(own, row, g, other):
                if not kills(own, row, g, own):
                    raise D0resError(f"witness {poly_text(g)} does not "
                                     f"annihilate its own fiber")
                return {
                    "polynomial": poly_text(g),
                    "annihilates_branch": own_name,
                    "nonzero_on_branch": other_name,
                }
    raise D0resError("distinct annihilators but no separating element found")


def _kills(g, at: SlotLayout) -> bool:
    """g acts as zero on the fiber whose columns (`FiniteModule.columns`)
    are laid out as `at`: g(A) is the Toeplitz matrix of g at those
    columns, so it is zero iff that series is."""
    return g.eval_series(at).is_zero_at_precision()


# -- tangent separation ---------------------------------------------------------------


def separates_tangents(family: CertificateFamily, r: int):
    """Nilpotency-jump test on the padded jet pair of every rank-r member
    of `family` (exploratory below the critical rank)."""
    germ = family.germ
    verdicts = []
    for i, b in enumerate(germ.branches):
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
        runs = family.summands(i, r)
        if (all(s.power_is_zero("m1", coord, exponent) for s, _ in runs)
                and not all(s.power_is_zero("m2", coord, exponent)
                            for s, _ in runs)):
            verdicts.append(SeparationVerdict(
                kind="tangents", subject=(i,), result=SEPARATED,
                witness={
                    "coordinate": coord,
                    "exponent": exponent,
                    "fiber_power_zero": True,
                    "jet_power": [{"row": list(s.printed(coord, exponent)),
                                   "copies": copies} for s, copies in runs],
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
    assemble verdicts.  Every kill and power the certificate claims is
    read from the summand it names (`_Summand`); the ideal comparisons and
    the padding check run at this rank.  Below the critical rank the
    certificate is exploratory: it has no padding, runs no padding check
    and cannot pass."""
    germ = family.germ
    for i in range(germ.k):
        _check_member(family, i, r)
    point_verdicts = tuple(separates_points(family, r))
    tangent_verdicts = tuple(separates_tangents(family, r))
    below_critical = r < germ.r0
    padding = padding_ok = support_points = None
    if not below_critical:
        padding_ok = _padding_support_unchanged(
            family, r, [family.ideal(i, r) for i in range(germ.k)])
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


def _check_member(family, index: int, r: int):
    """Raise unless member(index, r) is what a rank-r certificate claims:
    above r0 each padding summand is the skyscraper jet, of rank 1, and
    the member has rank r."""
    for summand, _ in family.summands(index, r)[1:]:
        if summand.jet.rank != 1:
            raise D0resError(f"branch {index} at rank {r}: a padding summand "
                             f"has rank {summand.jet.rank}, not the "
                             f"skyscraper's 1")
    rank = family.member(index, r).rank
    if rank != r:
        raise D0resError(f"branch {index} at rank {r}: the member has rank "
                         f"{rank}")


def _padding_support_unchanged(family, r: int, ideals) -> bool:
    """Padding with skyscrapers must not change the scheme support of any
    fiber.  Each member's annihilator (`ideals`, stored at bound r0) must
    be its branch's rank-r0 fiber ideal, which the family checked against
    the branch (`CertificateFamily.verdict`, the cross-check row at r0).
    It must hold every monomial of degree r0, so that it is the ideal at
    any bound r above (module docstring), and have no basis row with a
    constant term, so that it kills the skyscrapers too."""
    r0 = family.germ.r0
    if r == r0:
        return True
    return all(ideal == family.fiber_ideal(i, r0) and family.verdict(i, r0)
               and ideal.holds_top_degree() and ideal.in_maximal_ideal()
               for i, ideal in enumerate(ideals))


# -- fiber annihilator cross-check ---------------------------------------------------


def pushforward_restriction_oracle(family: CertificateFamily, index: int,
                                   max_rank: int) -> dict:
    """The fiber annihilator cross-check: at each rank d = 1..max_rank, the
    family's annihilator of the bare rank-d fiber over branch `index`, at
    degree bound d, checked against the branch.  Returns the row
    {"1": ok, ..., str(max_rank): ok}.

    The fiber is the push-forward of K[t]/(t^d) along the branch map, and
    its annihilator is the ideal of the image subscheme.  The ideal is
    built once, `annihilator(fiber_module(b, d), d)`: the first columns of
    the fiber's Toeplitz actions, multiplied out on the monomials whose
    order is below d, and eliminated.  Each row is the family's verdict on
    it (`CertificateFamily.verdict`): `_is_fiber_annihilator` evaluates the
    ideal's rows and standard monomials at the branch's own series with
    `Poly.eval_series`, so a fault in the fiber or in its elimination shows
    as a false row.  The row at r0 is the verdict the padding check reads.

    This checks the annihilator, not the module: K[t]/(t^d) need not be
    cyclic over the ambient ring (on the cusp at d = 2 every coordinate
    acts by zero), so the annihilator does not fix the module.
    """
    if family.germ.branches[index].trunc < max_rank + 1:
        raise RaiseTruncation("oracle needs branch truncation >= rank + 1",
                              needed=max_rank + 1)
    return {str(d): family.verdict(index, d) for d in range(1, max_rank + 1)}


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
