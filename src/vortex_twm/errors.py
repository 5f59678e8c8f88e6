"""Exception taxonomy shared across the package, and the two type checks of a config value.

The CLI maps these onto exit codes: configuration problems exit 1,
I/O failures exit 2, verification failures exit 3.
"""
from numbers import Integral, Real


class VortexTwmError(Exception):
    """Base class for all package-specific errors."""


class InvalidConfigError(VortexTwmError):
    """A configuration field is missing, malformed, or out of range."""


def real(path: str, value, kind: str = "a number") -> float:
    """value as a Python float: a real number, never a bool, a string or None."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidConfigError(f"'{path}' must be {kind}, got {value!r}")
    try:
        return float(value)
    except OverflowError:  # an integer beyond the largest double
        raise InvalidConfigError(f"'{path}' exceeds the float range") from None


def integer(path: str, value) -> int:
    """value as a Python int: an int or NumPy integer, never a bool or a float."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InvalidConfigError(f"'{path}' must be an integer, got {value!r}")
    return int(value)


class DegenerateMediumError(VortexTwmError):
    """The response denominator Y vanished (zero decays and zero control)."""


class StepSizeError(VortexTwmError):
    """Time step too large for the fastest rate in the coherence equations."""


class StepCountError(VortexTwmError):
    """Numeric channel integration requires at least 100 steps."""


class AmplitudeFloorError(VortexTwmError):
    """No angular order dominates the ring above the floor; its phase may vanish."""


class StructurelessProfileError(VortexTwmError):
    """Azimuthal profile has no harmonic content, peak angle undefined."""


class ZeroFieldError(VortexTwmError):
    """Operation requires a field with at least one nonzero sample."""


class NonFiniteFieldError(InvalidConfigError):
    """A field, or a radial part read from its closed form, has a NaN or infinite value."""


class OutOfGridError(InvalidConfigError):
    """Requested ring radius extends beyond the sampled grid."""


class VerificationError(VortexTwmError):
    """One or more verification suites exceeded its tolerance."""
