"""Numerical laboratory for weighted L2-minimal holomorphic extensions.

The package builds model domains and their Hartogs lifts, evaluates
closed-form pluricomplex Green functions with their gap functions and Azukawa
indicatrices, computes true least-norm extensions in truncated weighted
Bergman spaces, and compares the resulting norms against the available
extension bounds.
"""

from ._version import __version__
from .bergman import (
    ExtensionResult,
    GramMatrix,
    MultiIndexBasis,
    gram_matrix,
    kernel_diag_at,
    min_norm_extension,
)
from .bounds import (
    ExtensionScenario,
    ball_bound_ratio,
    lift_route_rhs,
    indicatrix_bound_rhs,
)
from .geometry import (
    Ball,
    HartogsLift,
    Polydisc,
)
from .green import (
    AzukawaForm,
    BallPairModel,
    BallPointModel,
    RadialLiftModel,
    azukawa,
    eval_green,
    gap_B,
    indicatrix_volume,
    sublevel_scaling,
)
from .integrate import (
    QuadratureResult,
    fubini_mc_oracle,
    fubini_sides,
    mc_integrate,
    radial_integrate,
    sigma_mu,
    volume,
)
from .scenarios import Report, ScenarioConfig, run_scenario
from .weights import (
    BallStandardWeight,
    EpsilonRegularizedProfile,
    LogSingularProfile,
    RadialWeight,
    ScaledLogProfile,
    TrivialWeight,
    fiber_psi,
)
