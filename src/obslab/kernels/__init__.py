"""Tridiagonal solve kernel for the theta-scheme diffusion step.

The diffusion step reduces to one tridiagonal solve per time step (per
sample, for Monte Carlo batches).  Its matrix, diagonal 1 + 2*kappa and
off-diagonals -kappa with kappa > 0, is symmetric positive definite and the
same at every step of a march.  `ldl_factor` therefore factors it once as
L D L^T (LAPACK's `dpttrf`), and `thomas_batch` solves each step from the
factors (`dpttrs`), with the samples of a batch as right-hand-side columns.
The L D L^T substitution keeps the division out of its dependency chain,
which pivoted elimination (`dgtsv`) does not; BENCH_tridiagonal.json holds
the per-call times of both.
"""
import numpy as np
from scipy.linalg import lapack

__all__ = ["ldl_factor", "thomas_batch"]


def ldl_factor(diag: np.ndarray, off: np.ndarray) -> tuple:
    """L D L^T factors (d, e) of a symmetric positive definite tridiagonal
    matrix with diagonal `diag` (n entries) and off-diagonal `off` (n - 1).

    Raises `LinAlgError` when the matrix is not positive definite.
    """
    diag = np.asarray(diag, dtype=float)
    off = np.asarray(off, dtype=float)
    n = len(diag)
    if n < 1 or len(off) != n - 1:
        raise ValueError("need n >= 1 diagonal and n - 1 off-diagonal entries")
    # the LAPACK wrappers want an off-diagonal of at least one element; at
    # n = 1 it is a placeholder that LAPACK never reads
    d, e, info = lapack.dpttrf(diag, off if n > 1 else np.zeros(1))
    if info != 0:
        raise np.linalg.LinAlgError(
            f"tridiagonal matrix is not positive definite: dpttrf info={info}")
    return d, e


def thomas_batch(factor: tuple, rhs: np.ndarray) -> np.ndarray:
    """Solve the factored system for each row of `rhs`.

    `factor` is `ldl_factor`'s (d, e).  `rhs` may be 1-D (one system) or
    2-D (batch, n); the result matches its shape and `rhs` is not modified.
    """
    d, e = factor
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[-1] != len(d):
        raise ValueError("right-hand side does not match the system size")
    # (batch, n) C-ordered is (n, batch) Fortran-ordered: no copy to transpose
    x, info = lapack.dpttrs(d, e, np.atleast_2d(rhs).T)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"tridiagonal solve failed: dpttrs info={info}")
    return x[:, 0] if rhs.ndim == 1 else x.T
