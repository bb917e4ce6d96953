"""Exception types shared across the package."""


class LorenzDctError(Exception):
    """Base class for all errors raised by this package."""


class InvalidKeyError(LorenzDctError, ValueError):
    """Secret key or schedule is malformed (wrong length, bad characters,
    bad rotations or shifts)."""


class IntegrationDivergedError(LorenzDctError, ArithmeticError):
    """A state variable became non-finite during integration."""


class NoRealEquilibriaError(LorenzDctError, ValueError):
    """Requested the nontrivial equilibria below the pitchfork (rho < 1)."""


class DegenerateKeystreamError(LorenzDctError, ValueError):
    """Keystream construction hit an empty coefficient vector."""


class UndefinedCorrelationError(LorenzDctError, ArithmeticError):
    """Correlation requested on data with no pairs or zero variance."""


class DimensionMismatchError(LorenzDctError, ValueError):
    """Operands do not share the required dimensions."""


class FormatError(LorenzDctError, ValueError):
    """A file (PPM image or cipher container) is malformed or unsupported."""
