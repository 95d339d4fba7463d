"""Tridiagonal solve kernel for the theta-scheme diffusion step.

The diffusion step reduces to one tridiagonal solve per time step (per
sample, for Monte Carlo batches).  Its matrix spans the whole grid: diagonal
1 + 2*kappa and off-diagonals -kappa with kappa > 0 at the interior nodes,
and identity rows (diagonal 1, off-diagonals 0) at the two pinned boundary
nodes.  It is symmetric positive definite and the same at every step of a
march.  `ldl_factor` therefore factors it once as L D L^T (LAPACK's
`dpttrf`), and `thomas_batch` solves each step from the factors (`dpttrs`),
with the samples of a batch as right-hand-side columns.
The L D L^T substitution keeps the division out of its dependency chain,
which pivoted elimination (`dgtsv`) does not: per call on the march's
201-node M, dpttrs took 0.37 / 0.62 / 0.63 of dgtsv's time at batch
1 / 50 / 256 (2-core x86-64 host, scipy 1.17, one BLAS thread).

Both routines come from scipy's compiled LAPACK wrapper,
`scipy.linalg._flapack`, which is loaded here straight from its file.
Importing it as `scipy.linalg.lapack` would first run `scipy.linalg`'s
package `__init__`, and with it scipy's array-API layer (`numpy.f2py`,
`numpy.testing`, `numpy.ma`), for two functions.  Measured on a 2-core
x86-64 host (Python 3.11, scipy 1.17): the direct load, the light `scipy`
package included, takes 12-22 ms, and `import obslab.harness` falls from
0.32-0.45 s and a 60.2 MB peak to 0.17-0.29 s and 43.0 MB.  CPython keeps
one copy of this single-phase extension, so a later `import scipy.linalg`
gets the same module back and `scipy.linalg.lapack.dpttrf` is the function
used here.
"""
import importlib.machinery
import importlib.util

import numpy as np

__all__ = ["ldl_factor", "thomas_batch"]


def _load_flapack():
    """scipy's `_flapack` extension, without running `scipy.linalg`."""
    # find_spec imports the parent package `scipy` only
    where = importlib.util.find_spec("scipy.linalg").submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec("scipy.linalg._flapack",
                                                    where)
    if spec is None:
        raise ImportError(
            f"scipy's compiled LAPACK module _flapack is not in {list(where)}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lapack = _load_flapack()


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
