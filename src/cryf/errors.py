"""Shared exception types."""


class ConfigurationError(ValueError):
    """Invalid grid sizes, configuration values, or config-file contents."""


class PositivityError(ValueError):
    """Conformal factor at or below the positivity floor."""


class StepPositivityError(RuntimeError):
    """An integrator stage left the admissible positive cone (retry with smaller dt)."""


class StepUnderflowError(RuntimeError):
    """Error control pushed the step size below dt_min."""


class PositivityFloorError(RuntimeError):
    """Positivity retries pushed the step size below dt_min; the flow hit the floor."""


class FloatRangeError(ValueError):
    """A value computed from the inputs overflowed float64 or became nan."""


class ShiftAlignmentError(ValueError):
    """Requested central translation does not land on a lattice point."""


class SnapshotFormatError(ValueError):
    """Snapshot file fails magic/version/shape validation."""
