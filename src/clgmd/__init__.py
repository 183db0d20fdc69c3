"""Competitive looming detection with escape steering.

A four-field LGMD-style collision detector: frame differencing, lateral
inhibition, grouping, diagonal quadrant competition, tanh normalization
and consecutive-spike confirmation, plus a synthetic stimulus generator
and a closed-loop point-mass quadcopter simulation.
"""

from .competition import (
    CLgmdPotentials,
    DetectorState,
    NormParams,
    Quadrant,
    accumulate_quadrants,
    build_quadrant_mask,
    normalize,
    update_spike_state,
)
from .detector import CollisionDetector, DetectionResult
from .errors import ClgmdError, ConfigError, DataError, InputError, UsageError
from .flightsim import (
    Outcome,
    Placement,
    TrialConfig,
    TrialRecord,
    TrialTrace,
    VehicleState,
    check_collision,
    run_trial,
    step_vehicle,
    write_trace_csv,
)
from .layers import (
    CoreParams,
    Frame,
    InhibitionKernel,
    compute_g_layer,
    compute_inhibition,
    compute_p_layer,
    compute_s_layer,
)
from .steering import (
    Axis,
    EscapeCommand,
    SteeringParams,
    command_to_setpoint,
    select_escape,
    select_quietest,
)
from .stimulus import (
    CameraModel,
    Direction,
    ScenarioSpec,
    Scene,
    Sphere,
    generate_sequence,
    make_scenario,
    render_frame,
)

__version__ = "0.1.0"

__all__ = [
    "Axis",
    "CLgmdPotentials",
    "CameraModel",
    "ClgmdError",
    "CollisionDetector",
    "ConfigError",
    "CoreParams",
    "DataError",
    "DetectionResult",
    "DetectorState",
    "Direction",
    "EscapeCommand",
    "Frame",
    "InhibitionKernel",
    "InputError",
    "NormParams",
    "Outcome",
    "Placement",
    "Quadrant",
    "ScenarioSpec",
    "Scene",
    "Sphere",
    "SteeringParams",
    "TrialConfig",
    "TrialRecord",
    "TrialTrace",
    "UsageError",
    "VehicleState",
    "accumulate_quadrants",
    "build_quadrant_mask",
    "check_collision",
    "command_to_setpoint",
    "compute_g_layer",
    "compute_inhibition",
    "compute_p_layer",
    "compute_s_layer",
    "generate_sequence",
    "make_scenario",
    "normalize",
    "render_frame",
    "run_trial",
    "select_escape",
    "select_quietest",
    "step_vehicle",
    "update_spike_state",
    "write_trace_csv",
]
