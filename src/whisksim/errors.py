"""Exception types shared across the package.

Each class names its exit: the command line prints `<prefix>: <message>`
on stderr and exits with the class's exit_code.
"""


class WhisksimError(Exception):
    """Base class for all whisksim errors."""
    exit_code = 3
    prefix = "error"


class ConfigError(WhisksimError):
    """Invalid or inconsistent experiment configuration."""
    exit_code = 2
    prefix = "config error"


class PhysicsError(WhisksimError, ValueError):
    """Physically invalid parameter or evaluation request."""


class TrainingDivergedError(WhisksimError, RuntimeError):
    """Network training produced non-finite values."""
    exit_code = 4
    prefix = "training diverged"


class WorkerDiedError(WhisksimError, RuntimeError):
    """A forked worker exited before it replied (killed by the kernel, say)."""
    exit_code = 5
