"""Curvature-flow simulator and verification harness on the discrete Heisenberg nilmanifold."""

from .analysis import (
    DiagnosticsRecord,
    constancy_verdict,
    curvature_evolution_residual,
    curvature_variance,
    dE_dt_formula,
    dE_dt_from_moments,
    identity_window,
    make_record,
    mean_curvature_rate_residual,
    monotonicity_audit,
    probe_window,
    volume_rate_residual,
    yamabe_quantity,
)
from .conformal import (
    ConformalState,
    conformal_sub_laplacian,
    conformal_volume_element,
    integrate_conformal,
    pullback_state,
    scale_state,
    webster_curvature,
)
from .config import RunConfig, load_config, parse_config
from .errors import (
    ConfigurationError,
    PositivityError,
    PositivityFloorError,
    ShiftAlignmentError,
    SnapshotFormatError,
    StepPositivityError,
    StepUnderflowError,
)
from .flow import (
    FlowConfig,
    FlowTermination,
    Trajectory,
    integrate_fixed,
    run_flow,
    step_adaptive,
)
from .geometry import (
    BaseGeometry,
    GridSpec,
    build_nilmanifold,
    canonical_index,
    frame_commutator_check,
    frame_derivative,
    frame_derivative_adjoint,
    grid_inner,
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
