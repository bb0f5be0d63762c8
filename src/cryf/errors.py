"""Shared exception types; `cli.main` ends a ConfigurationError, or a subclass, with exit 2."""


class ConfigurationError(ValueError):
    """An input the run cannot use: grid sizes, config values or file contents."""


class PositivityError(ConfigurationError):
    """Conformal factor at or below the positivity floor."""


class StepPositivityError(RuntimeError):
    """An integrator stage left the admissible positive cone (retry with smaller dt)."""


class FloatRangeError(ConfigurationError):
    """A value computed from the inputs overflowed float64 or became nan."""


class ShiftAlignmentError(ConfigurationError):
    """Requested central translation does not land on a lattice point."""


class SnapshotFormatError(ConfigurationError):
    """Snapshot file fails magic/version/shape validation."""
