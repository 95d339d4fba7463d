"""The tridiagonal kernel factors once and solves single and batched
systems correctly."""
import numpy as np
import pytest
from scipy.linalg import lapack

from obslab.families import linear_additive
from obslab.kernels import ldl_factor, thomas_batch


def random_system(rng, n, batch=0):
    """A random symmetric, diagonally dominant system and right-hand side."""
    off = -0.3 + 0.05 * rng.standard_normal(n - 1)
    pad = np.abs(np.concatenate([[0.0], off])) + np.abs(np.concatenate([off, [0.0]]))
    diag = 1.0 + pad + 0.1 * rng.random(n)
    shape = (batch, n) if batch else (n,)
    return diag, off, rng.standard_normal(shape)


def dense_solve(diag, off, rhs):
    M = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    return np.linalg.solve(M, np.atleast_2d(rhs).T).T.reshape(rhs.shape)


class TestCorrectness:
    @pytest.mark.parametrize("n", [1, 3, 17, 401])
    def test_single_system_vs_dense(self, rng, n):
        diag, off, rhs = random_system(rng, n)
        x = thomas_batch(ldl_factor(diag, off), rhs)
        assert x.shape == rhs.shape
        assert np.allclose(x, dense_solve(diag, off, rhs), atol=1e-12)

    def test_batched_vs_dense(self, rng):
        for n in (1, 3, 17, 401):
            diag, off, rhs = random_system(rng, n, batch=17)
            x = thomas_batch(ldl_factor(diag, off), rhs)
            assert x.shape == rhs.shape
            assert np.allclose(x, dense_solve(diag, off, rhs), atol=1e-12)

    def test_batch_rows_independent(self, rng):
        diag, off, rhs = random_system(rng, 51, batch=8)
        factor = ldl_factor(diag, off)
        full = thomas_batch(factor, rhs)
        for b in range(8):
            assert np.array_equal(full[b], thomas_batch(factor, rhs[b]))

    @pytest.mark.parametrize("batch", [0, 8])
    def test_rhs_left_unmodified(self, rng, batch):
        diag, off, rhs = random_system(rng, 51, batch=batch)
        before = rhs.copy()
        thomas_batch(ldl_factor(diag, off), rhs)
        assert np.array_equal(rhs, before)

    def test_not_positive_definite_raises(self):
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            ldl_factor(np.full(5, 0.1), np.full(4, -1.0))

    def test_matches_pivoted_lu_on_the_march_bands(self, rng):
        # the 256-row Monte Carlo batch of a linear_additive march, 50 steps
        prob = linear_additive()
        ni = prob.grid.n_nodes - 2
        kappa = 0.25 * (prob.horizon / 50) / prob.grid.h**2
        diag, off = np.full(ni, 1.0 + 2.0 * kappa), np.full(ni - 1, -kappa)
        rhs = rng.standard_normal((256, ni))
        *_, lu, info = lapack.dgtsv(off, diag, off, rhs.T)
        assert info == 0
        x = thomas_batch(ldl_factor(diag, off), rhs)
        assert np.max(np.abs(x - lu.T)) <= 1e-14 * np.max(np.abs(lu))
