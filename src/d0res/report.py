"""Request parsing, the analysis pipeline with truncation escalation, and
report emission (JSON and text).

All scalars cross the interface as exact strings ("-3/2", "1+2*a"); floats
never appear.  JSON reports round-trip byte-for-byte: the emitter is
deterministic and the parser preserves the same canonical layout.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from . import __version__
from .branches import (
    BranchParam,
    Germ,
    PlaneCurveInput,
    colength_intersection_length,
    germ_invariants,
    newton_puiseux,
    newton_tree,
)
from .errors import D0resError, InputError, RaiseTruncation
from .fields import (
    NumberField,
    factor_text,
    format_scalar,
    parse_scalar,
    poly_str,
    scalar_is_zero,
)
from .poly import Poly, var_names
from .puiseux import FieldContext, has_rational_factor
from .series import Series
from .verify import (
    CertificateFamily,
    certify,
    graph_jet_class_vanishes,
    oracle_rank,
    pushforward_restriction_oracle,
)

_ZERO = Fraction(0)

DEFAULT_TRUNCATION_CEILING = 4096
_NEED = "the report's checks read that far"
_REQUEST_KEYS = ("curve", "point", "ranks", "truncation", "format", "field")
_CURVE_KEYS = ("implicit", "branches")
_COORD_KEYS = ("x", "y", "z", "w")
_quote = json.encoder.encode_basestring


@dataclass
class AnalysisRequest:
    kind: str                  # "implicit" | "branches"
    poly: Poly = None
    branch_data: list = None   # list of dicts coord -> [(exp, scalar)]
    point: tuple = None
    ranks: list = None
    truncation: int = None
    fmt: str = "json"
    field: NumberField = None
    echo: dict = None          # canonicalized input for the report
    oracle_top: int = None     # top oracle rank; None for oracle_rank(r0)


# -- parsing ------------------------------------------------------------------------


def parse_request(obj) -> AnalysisRequest:
    if not isinstance(obj, dict):
        raise InputError("$", "request must be a JSON object")
    _check_keys(obj, _REQUEST_KEYS, "$")
    field = None
    if "field" in obj:
        field = _parse_field(obj["field"])
    curve = obj.get("curve")
    if not isinstance(curve, dict) or not curve:
        raise InputError("curve", "missing or empty curve object")
    _check_keys(curve, _CURVE_KEYS, "curve")
    variants = [k for k in _CURVE_KEYS if k in curve]
    if len(variants) != 1:
        raise InputError("curve", "exactly one of 'implicit' or 'branches' required")
    fmt = obj.get("format", "json")
    if fmt not in ("json", "text"):
        raise InputError("format", f"unknown format {fmt!r}")
    ranks = obj.get("ranks")
    if ranks is not None:
        check_ranks(ranks)
    truncation = obj.get("truncation")
    if truncation is not None:
        check_truncation(truncation)

    if variants[0] == "implicit":
        poly = _parse_poly(curve["implicit"], field)
        nvars = 2
        req = AnalysisRequest(kind="implicit", poly=poly, ranks=ranks,
                              truncation=truncation, fmt=fmt, field=field)
    else:
        branch_data, nvars = _parse_branches(curve["branches"], field)
        req = AnalysisRequest(kind="branches", branch_data=branch_data,
                              ranks=ranks, truncation=truncation, fmt=fmt,
                              field=field)
    # witnesses and series print the generator next to these names
    if field is not None and field.generator in var_names(nvars) + ("t",):
        raise InputError("field.generator", f"generator {field.generator!r} "
                         "is also a coordinate or series variable name")
    req.point = _parse_point(obj.get("point"), nvars, field)
    req.echo = _canonical_echo(req)
    return req


def _check_keys(obj, known, path):
    """Reject keys the format does not define, which would otherwise be
    ignored silently (a misspelt `rank` would certify the default ranks)."""
    unknown = sorted(set(obj) - set(known))
    if unknown:
        raise InputError(path, f"unknown keys {unknown}; known keys: "
                         f"{', '.join(known)}")


def check_ranks(ranks):
    """The request's `ranks` rule, also applied to `--rank` overrides."""
    if (not isinstance(ranks, list) or not ranks
            or not all(_is_int(r) and r >= 1 for r in ranks)):
        raise InputError("ranks", "ranks must be a non-empty list of positive ints")


def check_truncation(truncation):
    """The request's `truncation` rule, also applied to `--truncation`: no
    analysis can start above the ceiling."""
    ceiling = truncation_ceiling()
    if not _is_int(truncation) or not 4 <= truncation <= ceiling:
        raise InputError("truncation", "truncation must be an integer from 4 "
                         f"to the ceiling {ceiling} (set D0RES_MAX_TRUNCATION "
                         "to raise it)")


def _is_int(value):
    """A JSON integer; JSON true/false load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_field(spec):
    if not isinstance(spec, dict):
        raise InputError("field", "field must be an object")
    _check_keys(spec, ("generator", "minpoly"), "field")
    gen = spec.get("generator", "a")
    if not isinstance(gen, str) or not gen.isidentifier():
        raise InputError("field.generator",
                         "generator must be a non-empty identifier string")
    minpoly = spec.get("minpoly")
    if not isinstance(minpoly, list) or len(minpoly) < 3:
        raise InputError("field.minpoly",
                         "minpoly must list >= 3 coefficient strings")
    if not all(isinstance(c, str) for c in minpoly):
        raise InputError("field.minpoly", "coefficients must be exact strings")
    coeffs = []
    for c in minpoly:
        try:
            coeffs.append(Fraction(c))
        except ZeroDivisionError:
            raise InputError("field.minpoly", f"zero denominator in {c!r}")
        except ValueError as exc:
            raise InputError("field.minpoly", str(exc))
    try:
        field = NumberField(coeffs, generator=gen)
    except D0resError as exc:
        raise InputError("field.minpoly", str(exc))
    if has_rational_factor(list(field.minpoly)):
        raise InputError("field.minpoly", "minimal polynomial "
                         f"{poly_str(field.minpoly, gen)} must be irreducible over QQ")
    return field


def _parse_scalar_str(text, field, path):
    if not isinstance(text, str):
        raise InputError(path, "coefficients must be exact strings")
    try:
        return parse_scalar(text, field)
    except ZeroDivisionError:
        raise InputError(path, f"zero denominator in {text!r}")
    except ValueError as exc:
        raise InputError(path, str(exc))


def _parse_poly(spec, field):
    if not isinstance(spec, dict) or "poly" not in spec:
        raise InputError("curve.implicit", "missing poly")
    _check_keys(spec, ("poly",), "curve.implicit")
    terms = {}
    data = spec["poly"]
    if not isinstance(data, list) or not data:
        raise InputError("curve.implicit.poly", "poly must be a non-empty list")
    for idx, item in enumerate(data):
        path = f"curve.implicit.poly[{idx}]"
        if (not isinstance(item, list) or len(item) != 2
                or not isinstance(item[0], list) or len(item[0]) != 2):
            raise InputError(path, "expected [[i, j], coeff-string]")
        i, j = item[0]
        if not _is_int(i) or not _is_int(j) or i < 0 or j < 0:
            raise InputError(path, "exponents must be non-negative integers")
        _check_degree(i + j, path)
        coeff = _parse_scalar_str(item[1], field, path)
        key = (i, j)
        terms[key] = terms.get(key, _ZERO) + coeff
    poly = Poly(2, terms)
    if poly.is_zero():
        raise InputError("curve.implicit.poly", "polynomial is zero")
    return poly


def _check_degree(degree, path):
    """A term's degree is at most the truncation ceiling, checked before
    any lift: the squarefree test and every Puiseux lift take time that
    grows with the degree, so a term far above the truncations the ceiling
    allows would stall the request before its first check."""
    ceiling = truncation_ceiling()
    if degree > ceiling:
        raise InputError(path, f"term of degree {degree} is above the "
                         f"truncation ceiling {ceiling} (set "
                         "D0RES_MAX_TRUNCATION to raise it)")


def _parse_branches(data, field):
    if not isinstance(data, list) or not data:
        raise InputError("curve.branches", "need at least one branch")
    nvars = None
    parsed, keys_seen = [], []
    for bidx, bobj in enumerate(data):
        path = f"curve.branches[{bidx}]"
        if not isinstance(bobj, dict):
            raise InputError(path, "branch must be an object of coordinate lists")
        _check_keys(bobj, _COORD_KEYS, path)
        keys = [k for k in _COORD_KEYS if k in bobj]
        if len(keys) < 2 or keys != list(_COORD_KEYS[:len(keys)]):
            raise InputError(
                path, "coordinates must be a contiguous prefix of x, y, z, w"
            )
        if nvars is None:
            nvars = len(keys)
        elif nvars != len(keys):
            raise InputError(path, "all branches must share the ambient dimension")
        coords = []
        for key in keys:
            pairs = bobj[key]
            cpath = f"{path}.{key}"
            if not isinstance(pairs, list):
                raise InputError(cpath, "coordinate must be a list of [exp, coeff]")
            series_pairs = []
            for pidx, pair in enumerate(pairs):
                if (not isinstance(pair, list) or len(pair) != 2
                        or not _is_int(pair[0]) or pair[0] < 0):
                    raise InputError(f"{cpath}[{pidx}]", "expected [exp, coeff-string]")
                _check_degree(pair[0], f"{cpath}[{pidx}]")
                series_pairs.append(
                    (pair[0], _parse_scalar_str(pair[1], field, f"{cpath}[{pidx}]"))
                )
            coords.append(series_pairs)
        key = [_series_key(pairs) for pairs in coords]
        if any(0 in series for series in key):
            raise InputError(path, "branch does not pass through the origin")
        exps = [e for series in key for e in series]
        if not exps:
            raise InputError(path, "all coordinates are zero")
        g = gcd(*exps)
        if g > 1:
            raise InputError(path, "parametrization is not primitive "
                             f"(exponent gcd {g})")
        if key in keys_seen:
            raise InputError(path, f"repeats curve.branches[{keys_seen.index(key)}]")
        keys_seen.append(key)
        parsed.append(coords)
    return parsed, nvars


def _series_key(pairs):
    """{exponent: coefficient} without zeros: equal iff the series are."""
    total = {}
    for e, c in pairs:
        total[e] = total.get(e, _ZERO) + c
    return {e: c for e, c in total.items() if not scalar_is_zero(c)}


def _parse_point(spec, nvars, field):
    if spec is None:
        return (_ZERO,) * nvars
    if not isinstance(spec, list) or len(spec) != nvars:
        raise InputError("point", f"point must list {nvars} coordinate strings")
    return tuple(_parse_scalar_str(c, field, f"point[{i}]")
                 for i, c in enumerate(spec))


def _canonical_echo(req: AnalysisRequest) -> dict:
    echo = {}
    if req.kind == "implicit":
        echo["curve"] = {"implicit": {"poly": [
            [[e[0], e[1]], format_scalar(c)] for e, c in req.poly.sorted_terms()
        ]}}
    else:
        names = var_names(len(req.branch_data[0]))
        echo["curve"] = {"branches": [
            {name: [[e, format_scalar(c)] for e, c in coord]
             for name, coord in zip(names, coords)}
            for coords in req.branch_data
        ]}
    echo["point"] = [format_scalar(c) for c in req.point]
    if req.ranks is not None:
        echo["ranks"] = list(req.ranks)
    if req.truncation is not None:
        echo["truncation"] = req.truncation
    echo["format"] = req.fmt
    if req.field is not None:
        echo["field"] = {
            "generator": req.field.generator,
            "minpoly": [format_scalar(c) for c in req.field.minpoly],
        }
    return echo


# -- pipeline ------------------------------------------------------------------------


def truncation_ceiling() -> int:
    raw = os.environ.get("D0RES_MAX_TRUNCATION")
    if raw:
        try:
            value = int(raw)
        except ValueError:
            raise D0resError("D0RES_MAX_TRUNCATION must be an integer")
        if value < 4:
            raise D0resError("D0RES_MAX_TRUNCATION must be at least 4")
        return value
    return DEFAULT_TRUNCATION_CEILING


def needed_truncation(invariants, ranks, oracle_top=None) -> int:
    """The truncation a request's readers need at these ranks, on a germ
    or its Newton tree, both of which carry n, l_matrix and r0 (the tree's
    are the germ's): the largest of these needs.

    - Fibers and jets.  The rank-r member is the rank-d jet pair, d =
      min(r, r0), padded above r0 with rank-1 skyscraper jets.  A rank-d
      fiber reads t^0..t^(d-1), and `modules.jet_pair` reads d + 1 terms,
      so the ranks need min(max(ranks), r0) + 1: above r0 the rank does
      not drive the truncation.
    - The oracle.  The fiber cross-check at ranks 1..oracle_top, by
      default `oracle_rank(r0)`, needs one term more than its top rank.
    - Primitivity.  A branch lifted short of its last characteristic
      exponent is not primitive and asks for more (`BranchParam`); the
      tree reads that exponent off its levels (`primitive_truncation`).
    - The colength row.  It reads branch i to l_ij + c_i and branch j to
      K*m_j + c_j, with each branch's conductor c from its characteristic
      exponents on a tree and from its value semigroup on a germ
      (`branches.colength_reach`).

    The need is at least 4, the least truncation a request may ask for
    (`check_truncation`), so that every report can be asked for again at
    the truncation it prints.  Every reader keeps its own RaiseTruncation:
    a need stated too small here costs a re-lift, never a verdict.
    """
    r0 = invariants.r0
    if oracle_top is None:
        oracle_top = oracle_rank(r0)
    return max(4, min(max(ranks), r0) + 1, oracle_top + 1,
               invariants.primitive_truncation, invariants.colength_truncation)


def _ranks(req: AnalysisRequest, invariants):
    """The requested ranks, r0..r0 + 2 by default, on a germ or a Newton
    tree, both of which carry `r0`."""
    r0 = invariants.r0
    return req.ranks or [r0, r0 + 1, r0 + 2]


def predicted_truncation(req: AnalysisRequest, invariants) -> int:
    """The truncation a request needs on a germ or a Newton tree: the
    requested one, else the one its readers need (`needed_truncation`).
    An implicit run starts there; an explicit run jumps there once an
    attempt has proven the germ's invariants.  Only a RaiseTruncation
    takes a run above it."""
    if req.truncation is not None:
        return req.truncation
    return needed_truncation(invariants, _ranks(req, invariants), req.oracle_top)


def _build_branches(req: AnalysisRequest, trunc: int, tree):
    if tree is not None:
        return newton_puiseux(tree, trunc)
    # the parser checked each branch exactly; a BranchParam error here can
    # only ask for more truncation
    return [BranchParam(tuple(Series.from_pairs(pairs, trunc) for pairs in coords),
                        degree=max(e for pairs in coords for e, _ in pairs))
            for coords in req.branch_data]


def run_with_escalation(req: AnalysisRequest, stage):
    """Run `stage(germ, ctx, trunc, ranks)` with automatic truncation raises.

    An implicit request builds its Newton tree (`branches.newton_tree`)
    once.  The tree fixes n, l_ij, r0 and each branch's characteristic
    exponents with no truncation, so the run starts at the truncation the
    checks ask for (`predicted_truncation`), checked against the ceiling
    before any lift; a tree deeper than the ceiling stops the run there.
    Explicit branches have no tree: their ladder starts at 4 (or the
    requested truncation), and the run jumps to `predicted_truncation` on
    the first germ that decides its invariants if it is below it (never
    with a requested truncation, which it starts at).

    Each attempt lifts the branches at its own truncation and computes
    their invariants (`germ_invariants`): an implicit germ's are the
    tree's, and each lifted branch must match its tree branch in count and
    multiplicity; explicit branches take each l_ij from the colength on
    the lift, and a repeated plane branch is refused.  The report's
    colength row recomputes every tree l_ij on the final branches as the
    independent check.  A raise goes to the truncation the checks
    need, or doubles after a RaiseTruncation from the branches, the
    invariants, certificates or oracles.  The retry sequence depends only
    on the input, and every truncation tried, requested, needed by the
    checks or doubled, is capped by the ceiling.

    Above r0 a member is the rank-r0 jet plus skyscrapers, and its checks
    read r0 + 1 series terms whatever the rank (`needed_truncation`); a
    reader that needs more raises RaiseTruncation, and the truncation
    doubles.
    """
    ceiling = truncation_ceiling()
    ctx = FieldContext(req.field)
    tree = None
    if req.kind == "implicit":
        try:
            tree = newton_tree(PlaneCurveInput(req.poly, req.point), ctx, ceiling)
            trunc, reason = predicted_truncation(req, tree), _NEED
        except RaiseTruncation as exc:
            # a tree deeper than the ceiling needs more: the loop stops at once
            trunc, reason = exc.needed, exc
    else:
        trunc, reason = req.truncation or 4, "the starting truncation"
    while True:
        if trunc > ceiling:
            raise D0resError(
                f"analysis needs truncation {trunc} but the ceiling is "
                f"{ceiling} (set D0RES_MAX_TRUNCATION to raise it): {reason}"
            )
        try:
            germ = germ_invariants(_build_branches(req, trunc, tree), req.point, tree)
            needed = predicted_truncation(req, germ)
            if trunc < needed:
                trunc, reason = needed, _NEED
                continue
            return stage(germ, ctx, trunc, _ranks(req, germ))
        except RaiseTruncation as exc:
            trunc, reason = max(trunc * 2, exc.needed or 0), exc


def run_analyze(req: AnalysisRequest) -> dict:
    """Full pipeline: germ invariants, certificates per rank, oracle checks."""
    return run_with_escalation(
        req, lambda g, c, t, r: assemble_report(req, g, c, t, r))


def assemble_report(req, germ, ctx, trunc, ranks) -> dict:
    """The report of one analysed germ: one family's certificates, oracles."""
    family = CertificateFamily(germ)
    certificates = [_certificate_block(family, r) for r in ranks]
    oracles = _oracle_block(family, oracle_rank(germ.r0), req.kind)
    warnings = list(germ.notes)
    for r in ranks:
        if r < germ.r0:
            warnings.append(
                f"rank {r} is below the critical rank {germ.r0}; its "
                "certificate is exploratory and cannot pass"
            )
    for i, b in enumerate(germ.branches):
        if germ.is_singular() and not graph_jet_class_vanishes(b):
            warnings.append(
                f"branch {i}: the padding jet class is nonzero although the "
                "point is singular (smooth branch through a singular point); "
                "the literal criterion is 'vanishes iff multiplicity >= 2'"
            )
    report = {
        "version": __version__,
        "input": req.echo,
        "field": _field_block(ctx),
        "truncation": trunc,
        "germ": _germ_block(germ),
        "certificates": certificates,
        "oracles": oracles,
        "warnings": warnings,
    }
    return report


def _field_block(ctx: FieldContext):
    if ctx.field is None:
        return None
    return {
        "generator": ctx.field.generator,
        "minpoly": [format_scalar(c) for c in ctx.field.minpoly],
    }


def _germ_block(germ: Germ) -> dict:
    names = var_names(germ.branches[0].ambient_dim)
    branches = []
    for b in germ.branches:
        entry = {}
        for name, s in zip(names, b.coords):
            entry[name] = [[i, format_scalar(c)] for i, c in enumerate(s.coeffs)
                           if not scalar_is_zero(c)]
        entry["truncation"] = b.trunc
        branches.append(entry)
    return {
        "point": [format_scalar(c) for c in germ.point],
        "branches": branches,
        "n": list(germ.n),
        "l_matrix": [[v for v in row] for row in germ.l_matrix],
        "bii": germ.bii,
        "l0": germ.l0,
        "r0": germ.r0,
    }


def _verdict_block(v) -> dict:
    out = {
        "subject": list(v.subject),
        "result": v.result,
    }
    if v.witness is not None:
        out["witness"] = v.witness
    if v.reason is not None:
        out["reason"] = v.reason
    return out


def _certificate_block(family: CertificateFamily, r: int) -> dict:
    """The rank-r certificate; below r0 it has no padding entries."""
    cert = certify(family, r)
    block = {
        "rank": r,
        "below_critical": cert.below_critical,
        "points": [_verdict_block(v) for v in cert.point_verdicts],
        "tangents": [_verdict_block(v) for v in cert.tangent_verdicts],
    }
    if not cert.below_critical:
        block["padding"] = cert.padding
        block["padding_support_ok"] = cert.padding_support_ok
        block["support_points"] = [[format_scalar(c) for c in pt]
                                   for pt in cert.support_points]
    block["pass"] = cert.overall
    return block


def _oracle_block(family: CertificateFamily, max_rank: int, kind: str) -> dict:
    """The construction cross-checks on `family`'s germ: the fiber
    annihilator cross-check per branch at ranks 1..max_rank, on the
    family's stored annihilators, and on an implicit request (`kind`) the
    colength recomputation of every l_ij its Newton tree gave.  Explicit
    germs have no colength rows: their l_ij are colengths already."""
    germ = family.germ
    fibers = [{"branch": i,
               "results": pushforward_restriction_oracle(family, i, max_rank)}
              for i in range(germ.k)]
    colength = []
    if kind == "implicit":
        for i in range(germ.k):
            for j in range(i + 1, germ.k):
                value = colength_intersection_length(
                    germ.branches[i], germ.branches[j]
                )
                colength.append({
                    "pair": [i, j],
                    "colength": value,
                    "matches_l_matrix": value == germ.l_matrix[i][j],
                })
    return {
        "fiber_annihilator_crosscheck": fibers,
        "colength_crosscheck": colength,
    }


# -- emission -----------------------------------------------------------------------


def emit_report(report: dict, fmt: str) -> bytes:
    """The report as UTF-8 bytes: in "json" exactly those of
    `json.dumps(report, indent=2, ensure_ascii=False) + "\\n"`."""
    if fmt == "json":
        return (json_text(report) + "\n").encode()
    if fmt == "text":
        return _emit_text(report).encode()
    raise D0resError(f"unknown format {fmt!r}")


def json_text(value) -> str:
    """`json.dumps(value, indent=2, ensure_ascii=False)` on what reports
    hold: dicts with str keys, lists, str, int, bool and None.  Anything
    else raises TypeError.  Strings go through the C encoder, which
    `json.dumps` with an indent never uses."""
    pieces = []
    _json_pieces(value, "\n", pieces)
    return "".join(pieces)


def _json_pieces(value, newline, out):
    """Append `value` to `out` as `json_text` writes it at the nesting
    whose line break and indent is `newline`."""
    cls = value.__class__
    if cls is str:
        out.append(_quote(value))
    elif cls is list:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if value[0].__class__ is str:
            try:
                out.append(f"[{inner}{(',' + inner).join(map(_quote, value))}{newline}]")
                return
            except TypeError:  # a later item is not a string
                pass
        lead = "[" + inner
        for item in value:
            out.append(lead)
            _json_pieces(item, inner, out)
            lead = "," + inner
        out.append(newline + "]")
    elif cls is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        lead = "{" + inner
        for key, item in value.items():
            # a key that is not a str raises TypeError naming its type
            out.append(lead + _quote(key) + ": ")
            _json_pieces(item, inner, out)
            lead = "," + inner
        out.append(newline + "}")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif cls is int:
        out.append(int.__repr__(value))
    else:
        raise TypeError(f"a report holds no {cls.__name__}")


def _emit_text(report: dict) -> str:
    lines = []
    germ = report["germ"]
    lines.append(f"d0res report (version {report['version']})")
    lines.append("")
    lines.append(f"point: ({', '.join(germ['point'])})")
    lines.append(f"branches: {len(germ['branches'])}")
    for i, b in enumerate(germ["branches"]):
        coords = []
        for name in ("x", "y", "z", "w"):
            if name in b:
                coords.append(f"{name}(t) = " + _series_text(b[name], b["truncation"]))
        lines.append(f"  branch {i}: " + "; ".join(coords))
    lines.append("")
    lines.append(f"n = ({', '.join(str(v) for v in germ['n'])})")
    lines.append("l_matrix:")
    for row in germ["l_matrix"]:
        lines.append("  [" + ", ".join("." if v is None else str(v) for v in row) + "]")
    bii = germ["bii"]
    lines.append(f"bii = {'-' if bii is None else bii}")
    lines.append(f"l0 = {germ['l0']}")
    lines.append(f"r0 = {germ['r0']}")
    lines.append("")
    lines.append("certificates:")
    for cert in report["certificates"]:
        status = "PASS" if cert["pass"] else (
            "BELOW-CRITICAL" if cert.get("below_critical") else "FAIL"
        )
        lines.append(f"  rank {cert['rank']}: {status}")
        for v in cert["points"]:
            pair = v["subject"]
            extra = ""
            if "witness" in v and "polynomial" in v["witness"]:
                extra = f" (witness {v['witness']['polynomial']})"
            lines.append(f"    points {tuple(pair)}: {v['result']}{extra}")
        for v in cert["tangents"]:
            extra = ""
            if "witness" in v:
                extra = (f" (coordinate {v['witness']['coordinate']}, "
                         f"exponent {v['witness']['exponent']})")
            lines.append(f"    tangents {tuple(v['subject'])}: {v['result']}{extra}")
    lines.append("")
    if report["warnings"]:
        lines.append("warnings:")
        for w in report["warnings"]:
            lines.append(f"  - {w}")
    else:
        lines.append("warnings: none")
    return "\n".join(lines) + "\n"


def _series_text(pairs, trunc) -> str:
    if not pairs:
        return "0"
    parts = []
    for exp, coeff in pairs:
        if exp == 0:
            parts.append(coeff)
        else:
            t = "t" if exp == 1 else f"t^{exp}"
            if coeff == "1":
                parts.append(t)
            elif coeff == "-1":
                parts.append("-" + t)
            else:
                parts.append(f"{factor_text(coeff)}*{t}")
        if len(parts) >= 6:
            parts.append("...")
            break
    # signs as in fields.poly_str: a leading minus becomes the joining one
    text = parts[0]
    for part in parts[1:]:
        text += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
    return text + f" + O(t^{trunc})"


def report_passes(report: dict) -> bool:
    """Every certificate passes and every oracle check holds."""
    return (all(cert["pass"] for cert in report["certificates"])
            and oracles_pass(report["oracles"]))


def oracles_pass(oracles: dict) -> bool:
    """Every fiber annihilator cross-check result is true and every
    colength row matches l_matrix."""
    return (all(ok for row in oracles["fiber_annihilator_crosscheck"]
                for ok in row["results"].values())
            and all(row["matches_l_matrix"]
                    for row in oracles["colength_crosscheck"]))
