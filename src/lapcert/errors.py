"""Exception types shared across the package."""


class LapcertError(Exception):
    """Base class for all package-specific errors."""


class NonConvergence(LapcertError, RuntimeError):
    """An iterative numerical routine exceeded its iteration budget."""


class IndexOutOfRange(LapcertError, IndexError):
    """Eigenvalue index outside 1..n."""


class InvalidProbability(LapcertError, ValueError):
    """Probability parameter outside its valid range."""


class OddDimension(LapcertError, ValueError):
    """An even node count is required (balanced two-community models)."""


class NonSignVector(LapcertError, ValueError):
    """Vector has entries other than +1/-1."""


class InvalidAdjacency(LapcertError, ValueError):
    """Array is not a square symmetric 0/1 matrix with zero diagonal."""


class InvalidMeasurements(LapcertError, ValueError):
    """Sign-flip measurements are not -1/0/1 with a zero diagonal."""


class MissingLabels(LapcertError, ValueError):
    """Graph sample carries no planted labels."""


class RequiresDiscreteInstance(LapcertError, ValueError):
    """Operation is defined only for sign-flip (non-Gaussian) instances."""


class NonLaplacian(LapcertError, ValueError):
    """Row sums do not vanish within tolerance."""


class NonPositiveDiagonalMax(LapcertError, ValueError):
    """Largest diagonal entry is not positive; ratio undefined."""


class DomainError(LapcertError, ValueError):
    """Scalar argument outside the valid domain."""


class ConfigError(LapcertError, ValueError):
    """Sweep or CLI configuration is invalid."""


class IoError(LapcertError, OSError):
    """Failed to read or write an output artifact."""
