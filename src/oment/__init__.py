"""Stationary continuous-variable entanglement of a driven optomechanical
cavity with geometrical (Duffing-type softening) nonlinearity.

Pipeline: classical steady state -> linearized drift/diffusion matrices ->
Routh-Hurwitz and spectral stability -> Lyapunov covariance matrix ->
logarithmic negativity; plus detuning/nonlinearity/occupation sweeps and a
CLI reproducing the reference figure data.
"""

from .constants import C_LIGHT, HBAR, K_B
from .gaussian import (
    CM_SCALE,
    EntanglementReport,
    NegativeRadicandError,
    eta_spectrum,
    log_negativity,
    sigma,
    symplectic_eta,
    two_mode_squeezed_cm,
)
from .linmodel import (
    StabilityReport,
    assess_stability,
    build_diffusion,
    build_drift,
    coupling_threshold_blue,
    coupling_threshold_red,
    drift_matrix,
    routh_conditions,
    routh_hurwitz,
    spectral_abscissa,
    spectral_stability,
)
from .lyapunov import (
    CovarianceMatrix,
    IllConditionedWarning,
    UnstableDriftError,
    residual,
    solve_lyapunov,
)
from .params import (
    ConfigError,
    DerivedParams,
    PhysicalParams,
    default_params,
    derive,
    drive_amplitude,
    inverse_thermal_occupation,
    load_config,
    thermal_occupation,
)
from .steadystate import (
    DegenerateRootsWarning,
    SteadyState,
    from_bare_detuning,
    from_effective_detuning,
    monic_cubic_roots,
    nonlinearity_from_betaprime,
)
from .sweep import (
    PointResult,
    SweepRecord,
    SweepSpec,
    emit,
    evaluate_point,
    figure_preset,
    nth_entanglement_threshold,
    run_sweep,
)

__version__ = "0.1.0"
