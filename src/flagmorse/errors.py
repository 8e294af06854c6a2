"""Exception types shared across the package."""


class FlagmorseError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedFamily(FlagmorseError, ValueError):
    """Family/rank combination outside the supported tables."""


class DimensionMismatch(FlagmorseError, ValueError):
    """Vectors from incompatible ambient spaces were combined."""


class NotARoot(FlagmorseError, ValueError):
    """A vector given as a root is not a root of the system."""


class HypothesisViolated(FlagmorseError, RuntimeError):
    """A short-root case hypothesis fails; caller should perturb and retry."""


class UnsupportedDelta(FlagmorseError, ValueError):
    """The chosen root shape is outside the case split handled here."""


class NotInK(FlagmorseError, ValueError):
    """Perturbing root does not lie in the isotropy part of the split."""


class NotInTangent(FlagmorseError, ValueError):
    """A pair-space root is not a positive root of the tangent block."""


class NoTangentBlock(FlagmorseError, ValueError):
    """Every node is painted, so a frame would have no tangent block."""


class DegenerateCoefficients(FlagmorseError, ValueError):
    """Both twisting coefficients vanish, or a velocity that must move is zero."""


class UnknownSuite(FlagmorseError, ValueError):
    """Requested verification suite name is not registered."""


class InvalidSampling(FlagmorseError, ValueError):
    """A trial count below one, a negative seed, or no configuration to search."""


class NegativeDimension(FlagmorseError, ValueError):
    """A dimension given to the index-bound arithmetic is below zero."""
