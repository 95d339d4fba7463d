"""The tridiagonal kernel solves single and batched systems correctly."""
import numpy as np
import pytest

from obslab.kernels import thomas_batch


def random_system(rng, n, batch=0):
    lower = -0.3 + 0.05 * rng.standard_normal(n)
    upper = -0.3 + 0.05 * rng.standard_normal(n)
    diag = 1.0 + np.abs(lower) + np.abs(upper) + 0.1 * rng.random(n)
    shape = (batch, n) if batch else (n,)
    rhs = rng.standard_normal(shape)
    return lower, diag, upper, rhs


def dense_solve(lower, diag, upper, rhs):
    n = len(diag)
    M = np.diag(diag) + np.diag(upper[:-1], 1) + np.diag(lower[1:], -1)
    return np.linalg.solve(M, np.atleast_2d(rhs).T).T.reshape(rhs.shape)


class TestCorrectness:
    @pytest.mark.parametrize("n", [3, 17, 401])
    def test_single_system_vs_dense(self, rng, n):
        args = random_system(rng, n)
        assert np.allclose(thomas_batch(*args), dense_solve(*args),
                           atol=1e-12)

    def test_batched_vs_dense(self, rng):
        args = random_system(rng, 101, batch=17)
        assert np.allclose(thomas_batch(*args), dense_solve(*args),
                           atol=1e-12)

    def test_batch_rows_independent(self, rng):
        lower, diag, upper, rhs = random_system(rng, 51, batch=8)
        full = thomas_batch(lower, diag, upper, rhs)
        for b in range(8):
            row = thomas_batch(lower, diag, upper, rhs[b])
            assert np.array_equal(full[b], row)

