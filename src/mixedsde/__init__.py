"""Numerical laboratory for mixed stochastic differential equations.

Synthesizes Wiener and fractional Brownian drivers exactly on uniform
grids, integrates Holder paths pathwise, solves equations driven by both
noise types with one Euler scheme, and runs the Monte Carlo studies that
probe moment and exponential-moment finiteness of the solutions.
"""

from .analysis import holder_seminorm_batch
from .errors import (
    ConfigError,
    DomainError,
    EstimationError,
    GridMismatchError,
    MixedSdeError,
    ResourceError,
    SynthesisError,
)
from .fbm import (
    fbm_covariance_matrix,
    generate_fbm,
    generate_wiener,
)
from .grids import DriverSpec, TimeGrid, check_hurst
from .models import (
    AssumptionReport,
    CoefficientField,
    CoupledModelSpec,
    ModelSpec,
    model_zoo,
    coupled_growth_power_bound,
    validate_assumptions,
)
from .moments import (
    FerniqueTailReport,
    MomentEstimate,
    MomentTarget,
    StabilityTable,
    fernique_tail_check,
    moment_estimate,
    exp_moment_exponent_bound,
)
from .paths import PathBatch
from .solver import (
    SolveOutput,
    closed_form_geometric_batch,
    euler_coupled,
    euler_mixed,
    geometric_convergence_study,
    solve_coupled,
    solve_model,
    stage_drivers,
)
from .young import YoungResult, rs_sum, young_integrate, young_love_constant, young_love_rhs

__version__ = "0.1.0"
