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
from .bsde import (PathEnsemble, bsde_residual, path_chunks,  # noqa: F401
                   sample_paths, star_integral_check)
from .ldp import (RateResult, TargetEvent, condition_ii_test,  # noqa: F401
                  mc_ldp_compare, minimize_rate, rate_functional)

import numpy as _np

# glibc's malloc serves blocks above its mmap threshold (128 KiB at start-up)
# from mmap, and hands the heap top back to the OS whenever more than twice
# that threshold lies free there; freeing an mmapped block raises both
# thresholds to its size.  A march's per-step arrays (rows x nodes doubles:
# 80 KB at 50 rows of 201 nodes) stay under the start-up threshold, so each
# run grew the heap top and had it trimmed again: the bundled rate_minimize
# run took about 740 minor page faults every time.  Freeing one 1 MiB block
# here raises the thresholds to 1 and 2 MiB first; that run then takes 2
# faults, and 11.5 against 13.1 ms (median, 2-core x86-64 host).  With
# another allocator this is a 1 MiB allocation and nothing else.
_np.empty(1 << 17)
