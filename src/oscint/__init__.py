"""Structure-preserving integrators for highly oscillatory mechanical systems."""

from .analysis import (
    ENERGY_ERROR_CAP,
    STABILITY_TOL,
    DegenerateInput,
    StabilityReport,
    convergence_order,
    imex_stability,
    max_energy_error,
    modified_frequency,
    propagation_matrix,
    windowed_mean,
)
from .experiments import (
    ConvergenceRow,
    ExchangeResult,
    SweepRow,
    convergence_study,
    fpu_exchange,
    model_exact_state,
    resonance_sweep,
)
from .steppers import (
    BLOWUP,
    BLOWUP_NORM_CAP,
    COMPLETED,
    Method,
    NoConvergence,
    StepperSpec,
    Trajectory,
    integrate,
    kick_slow,
    step_imex,
    step_midpoint_fast,
    step_midpoint_full,
    step_modified_impulse,
    step_respa,
    step_stormer_verlet,
)
from .systems import (
    FpuParams,
    OscillatorySystem,
    State,
    coupled_oscillator_build,
    fpu_build,
    fpu_initial_state,
    fpu_inverse_transform,
    fpu_transform,
    stiff_energies,
)

__version__ = "0.1.0"
