"""Exception types shared across the package."""


class WhisksimError(Exception):
    """Base class for all whisksim errors."""


class ConfigError(WhisksimError):
    """Invalid or inconsistent experiment configuration."""


class PhysicsError(WhisksimError, ValueError):
    """Physically invalid parameter or evaluation request."""


class TrainingDivergedError(WhisksimError, RuntimeError):
    """Network training produced non-finite values."""
