"""Exception hierarchy for curvemates.

Every error raised by the library derives from CurveMatesError so callers can
catch library failures without masking programming errors.
"""
from __future__ import annotations


class CurveMatesError(Exception):
    """Base class for all curvemates errors; ``s`` locates it when known."""

    def __init__(self, message: str, s: float | None = None):
        super().__init__(message)
        self.s = s


class DomainError(CurveMatesError):
    """A parameter value lies outside the curve's domain."""


class InsufficientDataError(CurveMatesError):
    """A sampled curve has too few points for the requested stencil."""


class RegularityError(CurveMatesError):
    """Near-zero speed detected; carries the offending parameter value."""


class CurvatureDegenerateError(CurveMatesError):
    """Curvature below the configured floor; normal and binormal undefined."""


class SpecificationError(CurveMatesError):
    """Invalid coefficients, parameters, or family prerequisites."""


class PlanarityError(SpecificationError):
    """Tangent/osculating association attempted on a non-planar base curve."""


class AlignmentError(CurveMatesError):
    """Grids of two objects that must share samples do not match."""


class TorsionDegenerateError(CurveMatesError):
    """Torsion below the floor where a solver divides by it."""


class FiniteEscapeError(CurveMatesError):
    """An ODE trajectory escaped the blow-up cap; carries the escape location."""


class PoleError(CurveMatesError):
    """The linearizing function crossed zero (general solution has a pole)."""


class SingularOdeError(CurveMatesError):
    """The second-derivative coefficient of an implicit ODE vanished."""


class QuadratureRangeError(CurveMatesError):
    """Exponential overflow in an integrating-factor solve; split the domain."""


class UsageError(CurveMatesError):
    """Command line usage error (exit code 64)."""


class ParseError(UsageError):
    """Malformed input file (exit code 64)."""
