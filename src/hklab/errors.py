"""Shared exception types."""


class ParameterError(ValueError):
    """A builder or checker was called with an out-of-range parameter."""


class PointCapExceeded(RuntimeError):
    """A builder would produce more points than the configured cap allows."""

    def __init__(self, requested: int | str, cap: int):
        self.requested = requested
        self.cap = cap
        super().__init__(
            f"builder needs {requested} points but the cap is {cap}; "
            f"pass point_cap={requested} to allow it"
        )


class UnsupportedKernelError(ValueError):
    """A check was asked to run on a kernel whose support pattern it cannot handle."""
