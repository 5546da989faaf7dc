"""The benchmark's workloads: each one is a list of `analyze` requests with
the correctness gate every response must pass.

* corpus: the `corpus/*.json` requests at their default ranks; each report
  must be byte-identical to `corpus/golden/<name>.json`.
* rank_ladder: cusp, e6 and node at explicit ranks plus `y^4 - x^6` at its
  critical rank 14; each must pass `--strict` with the known `n`, `l_ij`
  and `r0` and certify the requested rank.
* rational_germs: implicit germs drawn from the seed out of fixed families
  with coefficients +-p/q (p <= 9, q <= 5); the gate checks `n`, `l_ij` and
  `r0` derived from the construction.

Only the inputs depend on the seed (and, for the fixed workloads, the order
in which a pass visits them); the program sees nothing but the request.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path


@dataclass(frozen=True)
class Request:
    """One `d0res analyze` call and the gate its output must pass."""

    label: str                 # unique within the workload
    germ: str                  # germ family, for the rank-scaling fit
    argv: tuple                # arguments to `d0res.cli.main`
    stdin: str = None          # request JSON when argv reads '-'
    golden: bytes = None       # exact expected report
    expect: tuple = ()         # (germ-block key, expected value) pairs
    ranks: tuple = None        # ranks the report must certify


def passes_gate(req: Request, code, blob: bytes) -> bool:
    """True when `analyze --strict` exited 0 and its report is correct."""
    if code != 0:
        return False
    if req.golden is not None:
        return blob == req.golden
    try:
        report = json.loads(blob)
        germ = report["germ"]
        if any(germ[key] != value for key, value in req.expect):
            return False
        certified = tuple(c["rank"] for c in report["certificates"])
    except (ValueError, KeyError, TypeError):
        return False
    return req.ranks is None or certified == req.ranks


# Passes a run always completes, so that every request's median latency
# rests on at least this many calls however slow the host is.
MIN_PASSES = {"corpus": 10, "rank_ladder": 4, "rational_germs": 2}

LADDER = (("cusp", (4, 8, 12, 16)), ("e6", (4, 8, 12, 16)), ("node", (4, 8, 12)))
KNOWN = {  # germ family -> (n, l_matrix, r0)
    "cusp": ([2], [[None]], 2),
    "e6": ([3], [[None]], 3),
    "e8": ([3], [[None]], 3),
    "node": ([1, 1], [[None, 1], [1, None]], 2),
    "tacnode": ([1, 1], [[None, 3], [3, None]], 4),
    "conj_node": ([1, 1], [[None, 1], [1, None]], 2),
    "y4_x6": ([2, 2], [[None, 6], [6, None]], 14),
}
# More germs per pass than the ~16 first planned: the pass time then depends
# less on which coefficients a seed happens to draw.
GERMS_PER_FAMILY = 6


def build(name: str, seed: int, root: Path) -> list:
    """The requests of workload `name`, read from or generated under `root`."""
    if name == "corpus":
        return corpus(root)
    if name == "rank_ladder":
        return rank_ladder(root)
    if name == "rational_germs":
        return rational_germs(seed)
    raise ValueError(f"unknown workload {name!r}")


def corpus(root: Path) -> list:
    directory = root / "corpus"
    requests = []
    for path in sorted(directory.glob("*.json")):
        requests.append(Request(
            label=path.name,
            germ=path.stem,
            argv=("analyze", str(path), "--strict"),
            golden=(directory / "golden" / path.name).read_bytes(),
        ))
    if not requests:
        raise FileNotFoundError(f"no requests in {directory}")
    return requests


def _expect(family):
    n, l_matrix, r0 = KNOWN[family]
    return (("n", n), ("l_matrix", l_matrix), ("r0", r0))


def rank_ladder(root: Path) -> list:
    requests = []
    for germ, ranks in LADDER:
        path = root / "corpus" / f"{germ}.json"
        if not path.is_file():
            raise FileNotFoundError(path)
        for r in ranks:
            requests.append(Request(
                label=f"{germ}@r{r}", germ=germ,
                argv=("analyze", str(path), "--strict", "--rank", str(r)),
                expect=_expect(germ), ranks=(r,),
            ))
    y4_x6 = {(0, 4): Fraction(1), (6, 0): Fraction(-1)}
    requests.append(Request(
        label="y4_x6@r14", germ="y4_x6",
        argv=("analyze", "-", "--strict", "--rank", "14"),
        stdin=_request_json(y4_x6), expect=_expect("y4_x6"), ranks=(14,),
    ))
    return requests


# -- rational germ families ---------------------------------------------------------


def _mul(f, g):
    out = {}
    for (i1, j1), a in f.items():
        for (i2, j2), b in g.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + a * b
    return {k: v for k, v in out.items() if v}


def _terms(*pairs):
    """{(i, j): c} from ((i, j), c) pairs, i the x- and j the y-exponent."""
    return {e: Fraction(c) for e, c in pairs}


def _family_poly(family, rng):
    def coeff(positive=False):
        value = Fraction(rng.randint(1, 9), rng.randint(1, 5))
        return value if positive or rng.random() < 0.5 else -value

    a, b = coeff(), coeff()
    if family == "cusp":        # y^2 = a x^3 + b x^4
        return _terms(((0, 2), 1), ((3, 0), -a), ((4, 0), -b))
    if family == "e6":          # y^3 = a x^4 + b x^5
        return _terms(((0, 3), 1), ((4, 0), -a), ((5, 0), -b))
    if family == "e8":          # y^3 = a x^5 + b x^6
        return _terms(((0, 3), 1), ((5, 0), -a), ((6, 0), -b))
    if family == "node":        # (y - a x)(y - b x), distinct slopes
        while b == a:
            b = coeff()
        return _mul(_terms(((0, 1), 1), ((1, 0), -a)),
                    _terms(((0, 1), 1), ((1, 0), -b)))
    if family == "tacnode":     # (y - a x^2)(y - a x^2 - b x^3): contact 3
        return _mul(_terms(((0, 1), 1), ((2, 0), -a)),
                    _terms(((0, 1), 1), ((2, 0), -a), ((3, 0), -b)))
    if family == "conj_node":   # y^2 + a x^2 + b x^3, a > 0: needs QQ(sqrt(-a))
        a = coeff(positive=True)
        return _terms(((0, 2), 1), ((2, 0), a), ((3, 0), b))
    raise ValueError(family)


FAMILIES = ("cusp", "e6", "e8", "node", "tacnode", "conj_node")


def rational_germs(seed: int) -> list:
    rng = random.Random(seed)
    requests = []
    for family in FAMILIES:
        for k in range(GERMS_PER_FAMILY):
            requests.append(Request(
                label=f"{family}#{k}", germ=family,
                argv=("analyze", "-", "--strict"),
                stdin=_request_json(_family_poly(family, rng)),
                expect=_expect(family),
            ))
    return requests


def _request_json(poly) -> str:
    terms = [[[i, j], str(c)] for (i, j), c in sorted(poly.items())]
    return json.dumps({"curve": {"implicit": {"poly": terms}}})
