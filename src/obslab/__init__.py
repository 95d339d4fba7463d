"""obslab: a numerical laboratory for penalized reflected S(P)DE obstacle
problems — deterministic skeleton solvers, small-noise simulation, backward
cross-validation, and large-deviation rate analysis with rare-event Monte
Carlo."""

__version__ = "0.1.0"

from .grid import (Field, Grid, GridMismatchError, Trajectory,  # noqa: F401
                   ht_distance)
from .problem import (CoefficientSet, LipschitzInfo, ProblemSpec,  # noqa: F401
                      ValidationReport, validate)
from .families import make_problem  # noqa: F401
from .skeleton import (Control, Solution,  # noqa: F401
                       complementarity_residual, constant_control,
                       solve_penalized, solve_projected, solve_skeleton,
                       zero_control)
from .spde import (NoisePath, condition_i_distance,  # noqa: F401
                   sample_noise)
from .bsde import (PathEnsemble, bsde_residual, sample_paths,  # noqa: F401
                   star_integral_check)
from .ldp import (RateResult, TargetEvent, condition_ii_test,  # noqa: F401
                  mc_ldp_compare, minimize_rate, rate_functional)
