import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from d0res.branches import PlaneCurveInput, germ_invariants, newton_puiseux
from d0res.poly import Poly
from d0res.report import parse_request, run_with_escalation

F = Fraction

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

# the six acceptance germs, keyed by name -> implicit polynomial terms
ACCEPTANCE_CURVES = {
    "node": {(0, 2): F(1), (2, 0): F(-1), (3, 0): F(-1)},
    "cusp": {(0, 2): F(1), (3, 0): F(-1)},
    "tacnode": {(0, 2): F(1), (4, 0): F(-1)},
    "triple_point": {(2, 1): F(1), (1, 2): F(-1)},
    "ramphoid_cusp": {(0, 2): F(1), (5, 0): F(-1)},
    "e6": {(0, 3): F(1), (4, 0): F(-1)},
}

EXPECTED_INVARIANTS = {
    # name: (n tuple, bii, l0, r0)
    "node": ((1, 1), 1, 2, 2),
    "cusp": ((2,), None, 1, 2),
    "tacnode": ((1, 1), 2, 3, 3),
    "triple_point": ((1, 1, 1), 1, 2, 2),
    "ramphoid_cusp": ((2,), None, 1, 2),
    "e6": ((3,), None, 1, 3),
}


def curve_poly(name):
    return Poly(2, ACCEPTANCE_CURVES[name])


@pytest.fixture(scope="session")
def corpus_germs():
    germs = {}
    for name, terms in ACCEPTANCE_CURVES.items():
        branches = newton_puiseux(PlaneCurveInput(Poly(2, terms)), 48)
        germs[name] = germ_invariants(branches)
    return germs


# A truncation past what the tests read off the corpus branches (jets to
# rank 10, fibers to r0 + 3, dense equation solves); a request lifts only
# as far as its own checks read (`report.needed_truncation`).
LONG_TRUNCATION = 32


@pytest.fixture(scope="session")
def repo_corpus_germs():
    """Every `corpus/*.json` germ, both extension fields and the space
    branches included, lifted to LONG_TRUNCATION."""
    germs = {}
    for path in sorted(CORPUS.glob("*.json")):
        req = parse_request({**json.loads(path.read_text()),
                             "truncation": LONG_TRUNCATION})
        germs[path.stem] = run_with_escalation(req, lambda g, c, t, r: g)
    return germs
