"""Constrained adaptive filtering with logarithmic-cost error kernels."""

from .constraints import (
    ConstraintSet,
    RankDeficiencyError,
    build_constraint_set,
    linear_phase_constraints,
)
from .kernels import (
    ALGORITHMS,
    AlgorithmParams,
    DegenerateDirectionError,
    DivergenceError,
    FilterState,
    SparseStepAux,
    clms_step,
    clmls_step,
    error_nonlinearity,
    l1_clms_step,
    l1_clmls_step,
    l1_wclms_step,
    l1_wclmls_step,
    lms_step,
    lmls_step,
)
from .simulation import (
    EnsembleDivergedError,
    RunResult,
    SignalModel,
    StepSizeMatchError,
    SystemSchedule,
    ar1_signal_model,
    generate_signals,
    iterations_to_within_db,
    l1_budget_for,
    linear_phase_system,
    match_step_size,
    noise_var_from_snr,
    optimal_constrained_wiener,
    run_monte_carlo,
    run_step_size_sweep,
    segment_optima,
    sparse_system_schedule,
    steady_state_emse_sim,
    steady_state_plateau_db,
    white_signal_model,
)
from .theory import (
    GaussianErrorModel,
    SteadyStatePrediction,
    TheoryTrace,
    h_G,
    h_U,
    steady_state_emse,
    transient_predictor,
    transient_sweep,
)

__version__ = "0.1.0"
