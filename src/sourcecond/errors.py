"""Exception types shared across the package."""


class InputError(ValueError):
    """Malformed data handed to an operation (bad shapes, non-finite values)."""


class ConfigurationError(ValueError):
    """Inadmissible solver or run configuration (e.g. unstable step sizes)."""


class VerificationError(RuntimeError):
    """An a-posteriori check failed, or a solve diverged, in a way that
    invalidates the result."""
