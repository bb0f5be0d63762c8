"""Curvature-flow simulator and verification harness on the discrete Heisenberg nilmanifold."""

from .analysis import (
    DiagnosticsRecord,
    constancy_verdict,
    curvature_evolution_residual,
    curvature_variance,
    dE_dt_formula,
    identity_window,
    make_record,
    mean_curvature_rate_residual,
    monotonicity_audit,
    volume_rate_residual,
    yamabe_quantity,
)
from .conformal import (
    ConformalState,
    conformal_sub_laplacian,
    conformal_volume_element,
    pullback_state,
    scale_state,
    webster_curvature,
)
from .config import FlowConfig, RunConfig, load_config, parse_config
from .errors import (
    ConfigurationError,
    PositivityError,
    ShiftAlignmentError,
    SnapshotFormatError,
    StepPositivityError,
)
from .flow import (
    FlowStop,
    FlowTermination,
    Trajectory,
    integrate_fixed,
    probe_window,
    run_flow,
    step_adaptive,
)
from .geometry import (
    BaseGeometry,
    GridSpec,
    build_nilmanifold,
    integrate_base,
    pullback_z_shift,
    sub_laplacian_base,
    weighted_div_form,
)
from .presets import make_initial_state, seven_point_smooth
from .snapshot import read_snapshot, write_snapshot
from .soliton import (
    SolitonFamily,
    Verdict,
    scan_family,
    soliton_invariance_check,
    soliton_state,
    soliton_theorem_harness,
)

__version__ = "0.1.0"
