"""obslab: a numerical laboratory for penalized reflected S(P)DE obstacle
problems — deterministic skeleton solvers, small-noise simulation, backward
cross-validation, and large-deviation rate analysis with rare-event Monte
Carlo."""

__version__ = "0.1.0"

from .grid import (Field, Grid, GridMismatchError, Trajectory,  # noqa: F401
                   gradient, h_norm, ht_distance, laplacian, v_norm)
from .problem import (CoefficientSet, LipschitzInfo, Obstacle,  # noqa: F401
                      ProblemSpec, ValidationReport, eval_all, validate)
from .families import make_problem  # noqa: F401
from .skeleton import (Control, PenalizedSolution,  # noqa: F401
                       SkeletonSolution, complementarity_residual,
                       constant_control, solve_penalized, solve_projected,
                       solve_skeleton, zero_control)
from .spde import (NoisePath, StochasticSolution,  # noqa: F401
                   condition_i_distance, sample_noise, solve_spde)
from .bsde import (PathEnsemble, bsde_residual,  # noqa: F401
                   path_energy_bounds, sample_paths, star_integral_check)
from .ldp import (RateResult, TargetEvent, condition_ii_test,  # noqa: F401
                  mc_ldp_compare, minimize_rate, rate_functional)
