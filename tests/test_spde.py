"""Small-noise simulation: coupling, scaling laws, and reproducibility."""
import numpy as np
import pytest

from obslab.families import linear_additive
from obslab.kernels import thomas_batch
from obslab.skeleton import constant_control, solve_penalized, zero_control
from obslab.spde import (condition_i_distance, sample_noise,
                         sample_noise_batch, sample_terminal_states)
from obslab.stepping import march


class TestNoiseSampling:
    def test_single_path_shape_and_scale(self):
        p = sample_noise(200, 3, 0.005, seed=1)
        assert p.increments.shape == (200, 3)
        # increments are N(0, dt): sample std close to sqrt(dt)
        assert np.std(p.increments) == pytest.approx(np.sqrt(0.005), rel=0.05)

    def test_batch_split_invariance(self):
        whole = sample_noise_batch(64, 50, 2, 0.01, seed=9)
        head = sample_noise_batch(40, 50, 2, 0.01, seed=9)
        tail = sample_noise_batch(24, 50, 2, 0.01, seed=9, first_sample=40)
        assert np.array_equal(whole, np.concatenate([head, tail]))

    def test_seed_determinism(self):
        a = sample_noise_batch(8, 20, 1, 0.01, seed=5)
        b = sample_noise_batch(8, 20, 1, 0.01, seed=5)
        c = sample_noise_batch(8, 20, 1, 0.01, seed=6)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)


class TestDegenerateCoupling:
    def test_zero_epsilon_bit_identical(self, linear_problem):
        noise = sample_noise(100, 1, linear_problem.horizon / 100, seed=2)
        sto = march(linear_problem, 100, penalty_n=1e4, epsilon=0.0,
                    noise_increments=noise.increments)
        det = solve_penalized(linear_problem, None, 1e4, n_steps=100)
        assert np.array_equal(sto.traj, det.traj.values)

    def test_zero_noise_shape_ignores_seed(self, heat_problem):
        n1 = sample_noise(100, 1, heat_problem.horizon / 100, seed=1)
        n2 = sample_noise(100, 1, heat_problem.horizon / 100, seed=99)
        a = march(heat_problem, 100, penalty_n=1e4, epsilon=0.5,
                  noise_increments=n1.increments)
        b = march(heat_problem, 100, penalty_n=1e4, epsilon=0.5,
                  noise_increments=n2.increments)
        assert np.array_equal(a.traj, b.traj)


class TestVarianceScaling:
    @pytest.fixture(scope="class")
    def terminal_samples(self, linear_problem):
        def batch(eps, seed):
            outs = []
            for final, _ in sample_terminal_states(linear_problem, eps, 1e4,
                                                   50, 2000, seed):
                outs.append(final)
            return np.concatenate(outs)
        return batch

    def test_variance_linear_in_epsilon(self, linear_problem,
                                        terminal_samples):
        i0 = linear_problem.grid.n_nodes // 2
        v1 = np.var(terminal_samples(0.2, 3)[:, i0])
        v2 = np.var(terminal_samples(0.1, 4)[:, i0])
        assert v1 / v2 == pytest.approx(2.0, rel=0.1)

    def test_variance_matches_discrete_propagator(self, terminal_samples):
        # Additive constant noise through the theta-scheme: the variance of
        # u(0, x0) is the accumulated propagated noise covariance; build it
        # exactly from the discrete update matrices.
        prob = linear_additive()
        n_steps, eps, sigma = 50, 1.0, 0.3
        dt = prob.horizon / n_steps
        h = prob.grid.h
        n = prob.grid.n_nodes
        theta = 0.5
        lam = dt / h**2

        interior = np.arange(1, n - 1)
        ni = len(interior)
        lower = np.full(ni, -0.5 * theta * lam)
        diag = np.full(ni, 1.0 + theta * lam)
        upper = np.full(ni, -0.5 * theta * lam)
        lower[0] = upper[-1] = 0.0  # boundary columns are Dirichlet-zero
        expl = (np.diag(np.full(ni, 1.0 - (1 - theta) * lam))
                + np.diag(np.full(ni - 1, 0.5 * (1 - theta) * lam), 1)
                + np.diag(np.full(ni - 1, 0.5 * (1 - theta) * lam), -1))
        A = thomas_batch(lower, diag, upper, expl.T).T  # one-step propagator

        i0 = n // 2
        inj = thomas_batch(lower, diag, upper, np.full(ni, 1.0))
        state_cov = np.zeros((ni, ni))
        for _ in range(n_steps):
            state_cov = A @ state_cov @ A.T
            state_cov += eps * sigma**2 * dt * np.outer(inj, inj)
        var = state_cov[i0 - 1, i0 - 1]

        samples = terminal_samples(1.0, 7)[:, i0]
        sample_var = np.var(samples, ddof=1)
        assert sample_var == pytest.approx(var, rel=0.1)


class TestConditionI:
    def test_zero_noise_shape_distance_zero(self, heat_problem):
        k = zero_control(50, 1, heat_problem.horizon)
        rep = condition_i_distance(heat_problem, [0.1, 0.05], [k], 1e4, 50,
                                   8, seed=0)
        for row in rep["per_epsilon"]:
            assert row["mean_distance"] == 0.0

    def test_sqrt_epsilon_scaling(self, linear_problem):
        k = constant_control(100, 1, linear_problem.horizon, 1.0)
        rep = condition_i_distance(linear_problem,
                                   [0.1, 0.05, 0.025, 0.0125], [k], 1e4, 100,
                                   50, seed=7)
        assert rep["monotone"]
        assert 0.35 <= rep["loglog_slope"] <= 0.65
