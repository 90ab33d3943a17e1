"""Exception types shared across the package, and the one policy every
validator applies to integer and real arguments (:func:`check_int`,
:func:`check_real`).

The CLI exit codes live on the classes as ``exit_code``; see docs/FORMATS.md.
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
    exit_code = 1


class ValidationError(CraftError):
    """Malformed or inconsistent numeric input (shape, finiteness, range)."""
    exit_code = 2


class RankError(CraftError):
    """Requested decomposition ranks violate the tensor extents."""
    exit_code = 3


class ConvergenceError(CraftError):
    """An iterative solver exhausted its sweep budget.

    Carries the residual reached when the budget ran out, the absolute
    off-diagonal measure ``sqrt(off) / ||m||_F^2`` of ``TruncatedSVD``, and
    the tensor mode being decomposed when raised from hosvd.
    """
    exit_code = 4

    def __init__(self, message, residual, mode=None):
        detail = f"{message} (residual={residual:.3e})"
        if mode is not None:
            detail = f"mode {mode}: {detail}"
        super().__init__(detail)
        self.residual = residual
        self.mode = mode


class FormatError(CraftError):
    """A serialized file failed structural or checksum validation."""
    exit_code = 2


class ConfigError(CraftError):
    """A run-configuration file failed parsing or eager validation."""
    exit_code = 2


class PretrainError(CraftError):
    """Toy-model pretraining missed its accuracy floor within the step cap."""
    exit_code = 5


class DivergenceError(CraftError):
    """Training produced a non-finite loss, gradient or update."""
    exit_code = 6

    def __init__(self, message, step=None):
        super().__init__(message if step is None else f"{message} (step {step})")
        self.step = step


def check_int(value, name: str, low: int = 1, high: int | None = None,
              error=ValidationError) -> int:
    """``value`` as an ``int`` if an integer in ``[low, high]``, else ``error`` naming it."""
    if not is_integer(value) or value < low or (high is not None and value > high):
        bound = f">= {low}" if high is None else f"in [{low}, {high}]"
        raise error(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


def check_real(value, name: str, low: float | None = None,
               error=ValidationError) -> float:
    """``value`` as a ``float`` if finite and ``>= low``, else ``error`` naming it."""
    if not is_finite_real(value) or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise error(f"{name} must be a finite real{bound}, got {value!r}")
    return float(value)
