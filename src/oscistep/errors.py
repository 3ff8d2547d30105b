"""Exception types shared across the package.  Those that reject an input
are also ValueErrors, like the plain argument checks (CLI exit code 2)."""


class OscistepError(Exception):
    pass


class JetMismatchError(OscistepError):
    """Operands disagree in base point, order or variable count."""


class JetOrderError(OscistepError):
    """A derivative was requested beyond a jet's truncation order."""


class RegimeError(OscistepError, ValueError):
    """Oscillator parameters outside the supported regime (omega <= 0,
    nu <= -1, or either not finite)."""


class DegenerateOscillatorError(OscistepError, ValueError):
    """All Fourier coefficients vanish after mean removal."""


class NumericStepError(OscistepError):
    """Non-finite arithmetic encountered while stepping or bounding."""


class DomainError(OscistepError):
    """Closed-form expression evaluated outside its domain."""


class ResolutionError(OscistepError):
    """Micro time step too coarse to resolve the oscillation."""


class QuadratureError(OscistepError):
    """Adaptive quadrature failed to reach the requested tolerance."""


class ConfigError(OscistepError, ValueError):
    """Invalid run configuration."""
