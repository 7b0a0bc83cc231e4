"""Circuit simulator: MNA, DC, AC, transient, noise and sensitivities."""

from repro.analysis.ac import (
    AcResult,
    BodeMetrics,
    SmallSignalSystem,
    ac_analysis,
    bode_metrics,
    logspace_frequencies,
    small_signal_system,
)
from repro.analysis.dcop import (
    ConvergenceError,
    OperatingPoint,
    dc_operating_point,
    dc_sweep,
)
from repro.analysis.measures import (
    StepResponse,
    cmrr_db,
    common_mode_gain,
    differential_gain,
    full_characterization,
    output_swing,
    psrr_db,
    systematic_offset,
    unity_step_response,
)
from repro.analysis.mismatch import (
    MismatchSigma,
    OffsetStatistics,
    area_for_offset,
    gradient_offset,
    monte_carlo_offsets,
    pair_offset_statistics,
    pelgrom_sigma,
)
from repro.analysis.mna import (
    MnaSystem,
    MosOperatingPoint,
    SingularCircuitError,
    mos_level1,
    threshold_voltage,
)
from repro.analysis.noise import (
    NoiseResult,
    equivalent_noise_charge,
    noise_analysis,
)
from repro.analysis.sensitivity import (
    AcSensitivity,
    ParameterRef,
    ac_adjoint_sensitivities,
    finite_difference_sensitivities,
    normalized,
)
from repro.analysis import solver
from repro.analysis.solver import (
    FactorizationCache,
    FactorizedOperator,
    factorize,
    solve_stack,
)
from repro.analysis.transient import TransientResult, transient

__all__ = [
    "AcResult",
    "StepResponse",
    "MismatchSigma",
    "OffsetStatistics",
    "area_for_offset",
    "gradient_offset",
    "monte_carlo_offsets",
    "pair_offset_statistics",
    "pelgrom_sigma",
    "cmrr_db",
    "common_mode_gain",
    "differential_gain",
    "full_characterization",
    "output_swing",
    "psrr_db",
    "systematic_offset",
    "unity_step_response",
    "AcSensitivity",
    "BodeMetrics",
    "ConvergenceError",
    "FactorizationCache",
    "FactorizedOperator",
    "factorize",
    "solve_stack",
    "solver",
    "MnaSystem",
    "MosOperatingPoint",
    "NoiseResult",
    "OperatingPoint",
    "ParameterRef",
    "SingularCircuitError",
    "SmallSignalSystem",
    "TransientResult",
    "ac_adjoint_sensitivities",
    "ac_analysis",
    "bode_metrics",
    "dc_operating_point",
    "dc_sweep",
    "equivalent_noise_charge",
    "finite_difference_sensitivities",
    "logspace_frequencies",
    "mos_level1",
    "noise_analysis",
    "normalized",
    "small_signal_system",
    "threshold_voltage",
    "transient",
]
