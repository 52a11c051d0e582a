"""Numerical laboratory for the 1D semilinear damped wave equation u_tt + u_t - u_xx = |u|^p."""

from .grid import (
    GridSpec,
    GridFunction,
    Trajectory,
    lp_norm,
    moment,
)
from .special import (
    lambert_w0,
    gaussian_derivative,
    make_data_family,
    DataFamily,
    LifespanPrediction,
    predict_lifespan,
    predicted_exponent,
    tilde_T2p,
    tilde_T2p_closed_form,
)
from .fitting import ExponentFit, fit_loglog, fit_critical_lifespan
from .propagators import (
    PropagatorSymbol,
    damped_symbol,
    apply_S,
    apply_dtS,
    apply_S_kernel,
    DecayReport,
    decay_scan,
    residual_scan,
)
from .solver import (
    SolverControls,
    LifespanEstimate,
    MarchTrace,
    BlowupSignal,
    SamplingError,
    integrate,
    solve_lifespan,
    duhamel_residual,
)
from .odi import (
    OdiConfig,
    OdiTrace,
    simulate_odi,
    odi_scaling_fit,
    odi_target_slope,
)

__version__ = "0.1.0"
