"""cliffscale: simulate and analyze data-scaling cliffs.

Three toy models (linear regression, binary Gaussian classification,
bandlimited harmonic learning) produce scaling curves; the curves module
fits power laws and flags regions of log-log concavity where error falls
faster than any power law.
"""

from .curves import (
    CliffRegion,
    CurveError,
    FitError,
    PowerLawFit,
    ScalingCurve,
    aggregate_trials,
    detect_cliffs,
    fit_power_law,
    log_spaced_ns,
    loglog_second_differences,
    powerlaw_loglog_convexity,
)
from .gaussian import (
    GaussianTask,
    approx_error,
    asymptotic_error,
    exact_error,
    run_gaussian_scaling,
    sample_error_sufficient,
    simulate_error,
    std_normal_cdf,
)
from .linreg import (
    LinearTask,
    fit_least_squares,
    fit_ridge,
    linear_test_mse,
    nn_test_mse,
    run_linreg_scaling,
    sample_dataset,
    sample_task,
)

__version__ = "0.1.0"

__all__ = [
    "CliffRegion",
    "CurveError",
    "FitError",
    "GaussianTask",
    "LinearTask",
    "PowerLawFit",
    "ScalingCurve",
    "aggregate_trials",
    "approx_error",
    "asymptotic_error",
    "detect_cliffs",
    "exact_error",
    "fit_least_squares",
    "fit_power_law",
    "fit_ridge",
    "linear_test_mse",
    "log_spaced_ns",
    "loglog_second_differences",
    "nn_test_mse",
    "powerlaw_loglog_convexity",
    "run_gaussian_scaling",
    "run_linreg_scaling",
    "sample_dataset",
    "sample_error_sufficient",
    "sample_task",
    "simulate_error",
    "std_normal_cdf",
    "__version__",
]
