"""Exception types raised by the solver and its verification tools."""


class ChapgasError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(ChapgasError, ValueError):
    """Invalid problem data or configuration."""


class NonPositiveDensity(ValidationError):
    """A density that must be positive is zero or negative."""


class NegativeAmplitude(ValidationError):
    """The pressure amplitude A is negative."""


class AlphaOutOfRange(ValidationError):
    """A > 0 requires the pressure exponent alpha to lie strictly in (0, 1)."""


class NonFiniteInput(ValidationError):
    """An input field is nan or infinite."""


class PressurelessNotApplicable(ChapgasError):
    """Phase-plane classification is undefined at A = 0; order u_l, u_r instead."""


class RegionMismatch(ChapgasError):
    """The requested construction does not exist for this phase-plane region."""


class DensityOutOfRange(ChapgasError):
    """A quantity leaves what float64 can represent or resolve.

    Raised for a star density, or a wave speed or jump flux derived from it,
    outside the float64 range; for a rarefaction state whose fan is narrower
    than one ulp; and for a problem scale whose cube, which sets the check
    tolerances, overflows.
    """


class OutsideFan(ChapgasError):
    """Rarefaction interior requested at a slope outside the fan."""


class NegativeTime(ChapgasError):
    """Solution evaluation requires t > 0."""


class Unreachable(ChapgasError):
    """The delta-shock trajectory never passes through the requested point."""


class UnsupportedQuadOrder(ValidationError):
    """Quadrature order outside the supported integer range."""


class CaseMismatch(ChapgasError):
    """Threshold amplitudes are defined only for compressive data u_l > u_r."""


class CflViolation(ChapgasError):
    """Time step request violates the CFL bound or wave speeds are not finite."""


class WindowOutOfDomain(ValidationError):
    """Measurement window (plus its background cells) leaves the grid."""


class TimeMismatch(ChapgasError):
    """Finite-volume state and exact solution are at different times."""
