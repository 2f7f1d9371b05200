"""Exception types shared across the package.

Every error raised on a geometric or numerical precondition derives from
:class:`CurveLabError`, so callers can distinguish "bad input / bad request"
from genuine bugs.  Inadmissibility (vanishing tangent projection, lightlike
normal direction, inflection points) gets its own branch because the command
line maps it to a dedicated exit status.
"""


class CurveLabError(Exception):
    """Base class for all errors raised by pg_curvelab."""


class EmptyDomainError(CurveLabError):
    """A parameter interval [s_min, s_max] with s_min >= s_max."""


class StepTooSmallError(CurveLabError):
    """Finite-difference step below the round-off guard."""


class NarrowDomainError(CurveLabError):
    """Domain too short to hold the finite-difference stencils."""


class EmptyGridError(CurveLabError):
    """A sweep was requested over an empty (or too small) sample grid."""


class JetOrderError(CurveLabError):
    """A derivative order beyond what the curve was built to provide."""


class InadmissibleCurveError(CurveLabError):
    """The curve violates an admissibility condition at some parameter.

    Carries the offending parameter value in :attr:`param` when known.
    """

    def __init__(self, message: str, param: float | None = None):
        super().__init__(message)
        self.param = param


class NumericalInflectionError(InadmissibleCurveError):
    """kappa is finite at :attr:`param` but numerically zero: rho = 1/kappa
    overflows, or a mate's acceleration cancels to within a few ulps."""


class MateInadmissibleError(InadmissibleCurveError):
    """A constructed Bertrand mate fails the admissibility conditions."""


class LightlikeNormalError(CurveLabError):
    """The principal normal direction is lightlike, so it cannot be
    normalized with the signed scalar product."""


class UnknownCurveError(CurveLabError):
    """Requested fixture name is not in the registry."""


class ParameterConstraintError(CurveLabError):
    """Fixture parameters (or domain) violate the fixture's constraints."""
