"""Tridiagonal solve kernel for the theta-scheme diffusion step.

The diffusion step reduces to one tridiagonal solve per time step (per
sample, for Monte Carlo batches).  Every row of a batch is solved by one
call to LAPACK's `dgtsv` (Gaussian elimination with partial pivoting), with
the samples as its right-hand-side columns.
"""
import numpy as np
from scipy.linalg import lapack

__all__ = ["thomas_batch"]


def thomas_batch(lower: np.ndarray, diag: np.ndarray, upper: np.ndarray,
                 rhs: np.ndarray) -> np.ndarray:
    """Solve the tridiagonal system for each row of `rhs`.

    Row i of the matrix is (lower[i], diag[i], upper[i]) acting on
    x[i-1], x[i], x[i+1]; lower[0] and upper[-1] are ignored.  `rhs` may be
    1-D (one system) or 2-D (batch, n); the result matches its shape.
    """
    rhs = np.asarray(rhs, dtype=float)
    n = rhs.shape[-1]
    if not len(lower) == len(diag) == len(upper) == n:
        raise ValueError("band arrays must match the system size")
    # (batch, n) C-ordered is (n, batch) Fortran-ordered: no copy to transpose
    *_, x, info = lapack.dgtsv(lower[1:], diag, upper[:-1],
                               np.atleast_2d(rhs).T)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"tridiagonal solve failed: dgtsv info={info}")
    return x[:, 0] if rhs.ndim == 1 else x.T
