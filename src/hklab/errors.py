"""Shared exception types, and the finiteness guard on numeric parameters."""

import math


class ParameterError(ValueError):
    """A builder or checker was called with an out-of-range parameter."""


def _require_finite(**params: float | None) -> None:
    """Refuse a NaN or an infinite parameter, which no comparison would
    catch; None, an optional parameter left unset, passes."""
    for name, value in params.items():
        if value is not None and not math.isfinite(value):
            raise ParameterError(f"{name} must be finite")


class PointCapExceeded(RuntimeError):
    """A builder would produce more points than the configured cap allows, or
    (``dense``) dense work was asked for above the fixed dense-matrix cap."""

    def __init__(self, requested: int | str, cap: int, dense: bool = False):
        self.requested = requested
        self.cap = cap
        super().__init__(
            f"dense work on {requested} points exceeds the fixed dense-matrix cap of "
            f"{cap} points, which no point_cap lifts" if dense else
            f"builder needs {requested} points but the cap is {cap}; "
            f"pass point_cap={requested} to allow it"
        )


class UnsupportedKernelError(ValueError):
    """A check was asked to run on a kernel whose support pattern it cannot handle."""
