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

from . import __version__
from .branches import (
    BranchParam,
    Germ,
    PlaneCurveInput,
    colength_intersection_length,
    germ_invariants,
    newton_puiseux,
)
from .errors import D0resError, InputError, RaiseTruncation
from .fields import NumberField, format_scalar, parse_scalar, scalar_is_zero
from .poly import Poly, var_names
from .puiseux import FieldContext
from .series import Series
from .verify import (
    ORACLE_MAX_RANK,
    certify,
    graph_jet_class_vanishes,
    pushforward_restriction_oracle,
    separates_points,
    separates_tangents,
)

_ZERO = Fraction(0)

DEFAULT_TRUNCATION_CEILING = 4096
_COORD_KEYS = ("x", "y", "z", "w")


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


# -- parsing ------------------------------------------------------------------------


def parse_request(obj) -> AnalysisRequest:
    if not isinstance(obj, dict):
        raise InputError("$", "request must be a JSON object")
    field = None
    if "field" in obj:
        field = _parse_field(obj["field"])
    curve = obj.get("curve")
    if not isinstance(curve, dict) or not curve:
        raise InputError("curve", "missing or empty curve object")
    variants = [k for k in ("implicit", "branches") if k in curve]
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
        point = _parse_point(obj.get("point"), 2, field)
        req = AnalysisRequest(kind="implicit", poly=poly, point=point,
                              ranks=ranks, truncation=truncation, fmt=fmt,
                              field=field)
    else:
        branch_data, nvars = _parse_branches(curve["branches"], field)
        point = _parse_point(obj.get("point"), nvars, field)
        req = AnalysisRequest(kind="branches", branch_data=branch_data,
                              point=point, ranks=ranks, truncation=truncation,
                              fmt=fmt, field=field)
    req.echo = _canonical_echo(req)
    return req


def check_ranks(ranks):
    """The request's `ranks` rule, also applied to `--rank` overrides."""
    if (not isinstance(ranks, list) or not ranks
            or not all(_is_int(r) and r >= 1 for r in ranks)):
        raise InputError("ranks", "ranks must be a non-empty list of positive ints")


def check_truncation(truncation):
    """The request's `truncation` rule, also applied to `--truncation`."""
    if not _is_int(truncation) or truncation < 4:
        raise InputError("truncation", "truncation must be an integer >= 4")


def _is_int(value):
    """A JSON integer; JSON true/false load as bool, a subclass of int."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_field(spec):
    if not isinstance(spec, dict):
        raise InputError("field", "field must be an object")
    gen = spec.get("generator", "a")
    if not isinstance(gen, str) or not gen.isidentifier():
        raise InputError("field.generator",
                         "generator must be a non-empty identifier string")
    minpoly = spec.get("minpoly")
    if not isinstance(minpoly, list) or len(minpoly) < 3:
        raise InputError("field.minpoly",
                         "minpoly must list >= 3 coefficient strings")
    try:
        coeffs = [Fraction(c) for c in minpoly]
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError("field.minpoly", str(exc))
    try:
        return NumberField(coeffs, generator=gen)
    except D0resError as exc:
        raise InputError("field.minpoly", str(exc))


def _parse_scalar_str(text, field, path):
    if not isinstance(text, str):
        raise InputError(path, "coefficients must be exact strings")
    try:
        return parse_scalar(text, field)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(path, str(exc))


def _parse_poly(spec, field):
    if not isinstance(spec, dict) or "poly" not in spec:
        raise InputError("curve.implicit", "missing poly")
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
        coeff = _parse_scalar_str(item[1], field, path)
        key = (i, j)
        terms[key] = terms.get(key, _ZERO) + coeff
    poly = Poly(2, terms)
    if poly.is_zero():
        raise InputError("curve.implicit.poly", "polynomial is zero")
    return poly


def _parse_branches(data, field):
    if not isinstance(data, list) or not data:
        raise InputError("curve.branches", "need at least one branch")
    nvars = None
    parsed = []
    for bidx, bobj in enumerate(data):
        path = f"curve.branches[{bidx}]"
        if not isinstance(bobj, dict):
            raise InputError(path, "branch must be an object of coordinate lists")
        keys = [k for k in _COORD_KEYS if k in bobj]
        if len(keys) < 2 or keys != list(_COORD_KEYS[:len(keys)]):
            raise InputError(
                path, "coordinates must be a contiguous prefix of x, y, z, w"
            )
        extra = set(bobj) - set(keys)
        if extra:
            raise InputError(path, f"unknown coordinate keys {sorted(extra)}")
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
                series_pairs.append(
                    (pair[0], _parse_scalar_str(pair[1], field, f"{cpath}[{pidx}]"))
                )
            coords.append(series_pairs)
        parsed.append(coords)
    return parsed, nvars


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
            "minpoly": [str(c) for c in req.field.minpoly],
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


def default_truncation(ranks, multiplicities) -> int:
    return max(32, 8 * max(ranks) * max(multiplicities))


def _build_branches(req: AnalysisRequest, trunc: int, ctx: FieldContext):
    if req.kind == "implicit":
        curve = PlaneCurveInput(req.poly, req.point)
        return newton_puiseux(curve, trunc, ctx)
    branches = []
    for coords in req.branch_data:
        series = tuple(Series.from_pairs(pairs, trunc) for pairs in coords)
        branches.append(BranchParam(series))
    return branches


def run_with_escalation(req: AnalysisRequest, stage):
    """Run `stage(germ, ctx, trunc, ranks)` with automatic truncation doubling.

    Any RaiseTruncation from branch decomposition, invariants, certificates or
    oracles restarts the whole pipeline at a larger truncation (deterministic:
    the retry sequence depends only on the input).
    """
    ceiling = truncation_ceiling()
    trunc = req.truncation or 32
    if trunc > ceiling:
        raise D0resError("requested truncation exceeds D0RES_MAX_TRUNCATION")
    while True:
        ctx = FieldContext(req.field)
        try:
            branches = _build_branches(req, trunc, ctx)
            germ = germ_invariants(branches, req.point)
            ranks = req.ranks or [germ.r0, germ.r0 + 1, germ.r0 + 2]
            needed = default_truncation(ranks, germ.n)
            if req.truncation is None and trunc < needed:
                trunc = needed
                continue
            return stage(germ, ctx, trunc, ranks)
        except RaiseTruncation as exc:
            new_trunc = max(trunc * 2, exc.needed or 0)
            if new_trunc > ceiling or new_trunc <= trunc:
                raise D0resError(
                    f"analysis needs truncation > {trunc} but the ceiling is "
                    f"{ceiling} (set D0RES_MAX_TRUNCATION to raise it): {exc}"
                )
            trunc = new_trunc


def run_analyze(req: AnalysisRequest) -> dict:
    """Full pipeline: germ invariants, certificates per rank, oracle checks."""
    return run_with_escalation(
        req, lambda g, c, t, r: assemble_report(req, g, c, t, r))


def assemble_report(req, germ, ctx, trunc, ranks) -> dict:
    """The report of one analysed germ: certificates per rank and oracles."""
    certificates = []
    for r in ranks:
        certificates.append(_certificate_block(germ, r))
    oracles = _oracle_block(germ, min(ORACLE_MAX_RANK, max(2, germ.r0)))
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
        "minpoly": [str(c) for c in ctx.field.minpoly],
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


def _certificate_block(germ: Germ, r: int) -> dict:
    if r < germ.r0:
        points = separates_points(germ, r, exploratory=True)
        tangents = separates_tangents(germ, r, exploratory=True)
        return {
            "rank": r,
            "below_critical": True,
            "points": [_verdict_block(v) for v in points],
            "tangents": [_verdict_block(v) for v in tangents],
            "pass": False,
        }
    cert = certify(germ, r)
    return {
        "rank": r,
        "below_critical": False,
        "points": [_verdict_block(v) for v in cert.point_verdicts],
        "tangents": [_verdict_block(v) for v in cert.tangent_verdicts],
        "padding": cert.padding,
        "padding_support_ok": cert.padding_support_ok,
        "support_points": [[format_scalar(c) for c in pt]
                           for pt in cert.support_points],
        "pass": cert.overall,
    }


def _oracle_block(germ: Germ, max_rank: int) -> dict:
    """The construction cross-checks: the push-forward/restriction oracle
    per branch at ranks 1..max_rank, and the colength recomputation of
    every l_ij.  Colength rows are plane-only: on space germs the l_ij are
    colengths already, so the row would compare a value with itself."""
    push = []
    for i, b in enumerate(germ.branches):
        row = {"branch": i, "results": {}}
        for r in range(1, max_rank + 1):
            row["results"][str(r)] = pushforward_restriction_oracle(b, r)
        push.append(row)
    colength = []
    if germ.branches[0].ambient_dim == 2:
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
        "pushforward_restriction": push,
        "colength_crosscheck": colength,
    }


# -- emission -----------------------------------------------------------------------


def emit_report(report: dict, fmt: str) -> bytes:
    if fmt == "json":
        return (json.dumps(report, indent=2, ensure_ascii=False) + "\n").encode()
    if fmt == "text":
        return _emit_text(report).encode()
    raise D0resError(f"unknown format {fmt!r}")


def parse_report(blob: bytes) -> dict:
    return json.loads(blob.decode())


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
            parts.append(t if coeff == "1" else f"{coeff}*{t}")
        if len(parts) >= 6:
            parts.append("...")
            break
    return " + ".join(parts) + f" + O(t^{trunc})"


def report_passes(report: dict) -> bool:
    return all(cert["pass"] for cert in report["certificates"])
