"""Exception types shared across the package."""


class SecratesError(Exception):
    """Base class for all package-specific errors."""


class NonConvergence(SecratesError):
    """Adaptive quadrature failed to meet the requested tolerance."""


class NonMonotone(SecratesError):
    """The constraint value rose with the secrecy rate beyond its error bars."""


class InvalidRates(SecratesError):
    """A secrecy rate exceeds the channel-encoding rate it is carved out of."""


class PolicyRegimeMismatch(SecratesError):
    """Rate policy shape is not admissible under the given CSI regime."""


class UnsupportedRegime(SecratesError):
    """The requested closed form does not exist for this CSI regime."""


class AlphaOutOfRange(SecratesError):
    """Outage threshold must lie in (0, 1]."""


class ConfigError(SecratesError):
    """Invalid experiment configuration."""
