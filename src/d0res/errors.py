"""Exception taxonomy shared by every layer."""


class D0resError(Exception):
    """Base class for all toolkit errors."""


class UnsupportedFieldExtension(D0resError):
    """A required root lives outside QQ plus a single simple extension.

    Callers can still analyze the curve by supplying explicit branch
    parametrizations instead of an implicit equation.
    """


class RaiseTruncation(D0resError):
    """Internal signal: the current series truncation cannot decide the question.

    The orchestrator catches this, doubles the truncation (up to the
    D0RES_MAX_TRUNCATION ceiling) and reruns the analysis.
    """

    def __init__(self, message, needed=None):
        super().__init__(message)
        self.needed = needed


class NonCommutingActions(D0resError):
    """Coordinate action matrices must commute (module axiom)."""


class InputError(D0resError):
    """Malformed analysis request; carries the offending field path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


class ReducibleModulus(InputError, ZeroDivisionError):
    """A nonzero field element turned out to be a zero divisor, so the
    declared minimal polynomial is reducible.  The parser rejects reducible
    moduli up to degree 4; above that, this is where one is found.  It is
    also a ZeroDivisionError, as any failed inversion is."""

    def __init__(self, message):
        super().__init__("field.minpoly", message)
