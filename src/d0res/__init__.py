"""Exact-arithmetic toolkit: decompose a reduced curve germ into branches,
compute its critical rank, build the punctual module family at and above that
rank, and machine-verify that the family separates points and tangents."""

__version__ = "0.3.0"

from .branches import (  # noqa: F401
    BranchParam,
    Germ,
    PlaneCurveInput,
    branch_multiplicity,
    colength_intersection_length,
    germ_invariants,
    implicit_equation,
    newton_puiseux,
)
from .errors import (  # noqa: F401
    D0resError,
    InputError,
    NonCommutingActions,
    RaiseTruncation,
    UnsupportedFieldExtension,
)
from .fields import FieldElement, NumberField, format_scalar, parse_scalar  # noqa: F401
from .linalg import ExactMatrix  # noqa: F401
from .modules import (  # noqa: F401
    AnnihilatorIdeal,
    DirectSum,
    FiniteModule,
    JetPair,
    annihilator,
    fiber_module,
    graph_skyscraper,
    jet_pair,
    pad,
)
from .poly import Poly  # noqa: F401
from .series import Series  # noqa: F401
from .verify import (  # noqa: F401
    CertificateFamily,
    EmbeddingCertificate,
    SeparationVerdict,
    aggregate_critical_rank,
    certify,
    graph_jet_class_vanishes,
    pushforward_restriction_oracle,
    separates_points,
    separates_tangents,
)
