"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: configuration problems exit 1,
I/O failures exit 2, verification failures exit 3.
"""


class VortexTwmError(Exception):
    """Base class for all package-specific errors."""


class InvalidConfigError(VortexTwmError):
    """A configuration field is missing, malformed, or out of range."""


class GridMismatchError(VortexTwmError):
    """Fields that must share one grid were sampled on different grids."""


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


class NoClosedFormError(VortexTwmError):
    """A ring observable was asked of a field that carries no angular orders."""


class OutOfGridError(InvalidConfigError):
    """Requested ring radius extends beyond the sampled grid."""


class VerificationError(VortexTwmError):
    """One or more verification suites exceeded its tolerance."""
