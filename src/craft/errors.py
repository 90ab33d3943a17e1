"""Exception types shared across the package, and the integer and real-number
checks every validator uses before raising them.

The CLI maps each class onto a stable exit code; see docs/FORMATS.md.
"""

import math
import numbers


def is_integer(value) -> bool:
    """True for Python and numpy integers; False for bools and for floats,
    even integral ones such as ``2.0``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite_real(value) -> bool:
    """True for finite Python and numpy reals, integers included; False for bools."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and math.isfinite(value))


class CraftError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(CraftError):
    """Malformed or inconsistent numeric input (shape, finiteness, range)."""


class RankError(CraftError):
    """Requested decomposition ranks violate the tensor extents."""


class ConvergenceError(CraftError):
    """An iterative solver exhausted its sweep budget.

    Carries the relative residual reached when the budget ran out, and the
    tensor mode being decomposed when raised from hosvd.
    """

    def __init__(self, message, residual, mode=None):
        detail = f"{message} (residual={residual:.3e})"
        if mode is not None:
            detail = f"mode {mode}: {detail}"
        super().__init__(detail)
        self.residual = residual
        self.mode = mode


class FormatError(CraftError):
    """A serialized file failed structural or checksum validation."""


class ConfigError(CraftError):
    """A run-configuration file failed parsing or eager validation."""


class PretrainError(CraftError):
    """Toy-model pretraining missed its accuracy floor within the step cap."""


class DivergenceError(CraftError):
    """Training produced a non-finite loss, gradient or update."""

    def __init__(self, message, step=None):
        super().__init__(message if step is None else f"{message} (step {step})")
        self.step = step
