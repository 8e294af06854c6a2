"""Exception types shared across the package."""


class FlagmorseError(Exception):
    """Base class for all package-specific errors."""


class UnsupportedFamily(FlagmorseError, ValueError):
    """Family/rank combination outside the supported tables."""


class DimensionMismatch(FlagmorseError, ValueError):
    """Vectors from incompatible ambient spaces were combined."""


class NotARoot(FlagmorseError, ValueError):
    """A vector given as a root is not a root of the system."""


class SuperminimalNotFound(FlagmorseError, LookupError):
    """No element of the given support set qualifies as superminimal."""


class HypothesisViolated(FlagmorseError, RuntimeError):
    """A short-root case hypothesis fails; caller should perturb and retry."""


class UnsupportedDelta(FlagmorseError, ValueError):
    """The chosen root shape is outside the case split handled here."""


class NotInK(FlagmorseError, ValueError):
    """Perturbing root does not lie in the isotropy part of the split."""


class DegenerateCoefficients(FlagmorseError, ValueError):
    """Both twisting coefficients vanish."""


class UnknownSuite(FlagmorseError, ValueError):
    """Requested verification suite name is not registered."""
