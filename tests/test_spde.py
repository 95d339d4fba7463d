"""Small-noise simulation: coupling, scaling laws, and reproducibility."""
import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import obslab.spde
from obslab.families import linear_additive, quasilinear_full
from obslab.grid import Field
from obslab.kernels import ldl_factor, thomas_batch
from obslab.ldp import TargetEvent, mc_ldp_compare, minimize_rate
from obslab.skeleton import constant_control, solve_penalized, zero_control
from obslab.spde import (MC_BATCH, condition_i_distance, sample_noise,
                         sample_noise_batch, sample_terminal_states)
from obslab.stepping import DivergenceError, march


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
        # the boundary columns are Dirichlet-zero
        factor = ldl_factor(np.full(ni, 1.0 + theta * lam),
                            np.full(ni - 1, -0.5 * theta * lam))
        expl = (np.diag(np.full(ni, 1.0 - (1 - theta) * lam))
                + np.diag(np.full(ni - 1, 0.5 * (1 - theta) * lam), 1)
                + np.diag(np.full(ni - 1, 0.5 * (1 - theta) * lam), -1))
        A = thomas_batch(factor, expl.T).T  # one-step propagator

        i0 = n // 2
        inj = thomas_batch(factor, np.full(ni, 1.0))
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


def _cores(monkeypatch, count):
    """Make the terminal-state stream see `count` usable cores."""
    monkeypatch.setattr(obslab.spde.os, "sched_getaffinity",
                        lambda pid: set(range(count)))


def _stream(problem, n_steps, n_samples, **kw):
    """Concatenated (finals, increments) of one terminal-state stream."""
    finals, incs = zip(*sample_terminal_states(problem, 0.2, 1e4, n_steps,
                                               n_samples, 11, **kw))
    return np.concatenate(finals), np.concatenate(incs)


class TestWorkers:
    """Sample ranges sharded over worker processes give the serial stream,
    and no worker outlives the stream."""

    N = 3 * MC_BATCH + 17  # four ranges, the last one ragged

    @pytest.fixture(autouse=True)
    def deadline(self):
        """Fail, rather than hang, when a stream does not end."""
        def expire(signum, frame):
            raise TimeoutError("the stream did not end within 60 s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.fixture(params=["linear_additive", "quasilinear_full"])
    def case(self, request):
        if request.param == "linear_additive":
            return linear_additive(), 50, None
        problem = quasilinear_full(n_nodes=101)
        return problem, 20, constant_control(20, 4, problem.horizon, -1.0)

    @pytest.mark.parametrize("cores", [2, 3])
    def test_forked_matches_serial(self, case, cores, monkeypatch):
        problem, n_steps, k = case
        _cores(monkeypatch, cores)
        forked = _stream(problem, n_steps, self.N, control=k)
        _cores(monkeypatch, 1)
        serial = _stream(problem, n_steps, self.N, control=k)
        assert np.array_equal(forked[0], serial[0])
        assert np.array_equal(forked[1], serial[1])

    def test_batch_size_leaves_finals_unchanged(self, case, monkeypatch):
        problem, n_steps, k = case
        assert MC_BATCH < 2048
        n = 2048 + 100
        small = _stream(problem, n_steps, n, control=k)
        _cores(monkeypatch, 1)
        monkeypatch.setattr(obslab.spde, "MC_BATCH", 2048)
        large = _stream(problem, n_steps, n, control=k)
        assert np.array_equal(small[0], large[0])
        assert np.array_equal(small[1], large[1])

    def test_mc_compare_report_unchanged(self, monkeypatch):
        problem = linear_additive()
        shifted = solve_penalized(
            problem, constant_control(50, 1, problem.horizon, 1.2), 1e4,
            n_steps=50)
        event = TargetEvent(Field(shifted.traj.values[0], problem.grid), 0.02)
        rate = minimize_rate(problem, event, opt_config={"n_steps": 50})

        def report():
            return mc_ldp_compare(problem, event, [0.4, 0.2], self.N, seed=3,
                                  use_importance=True, rate_result=rate)

        _cores(monkeypatch, 2)
        forked = report()
        _cores(monkeypatch, 1)
        assert forked == report()

    def test_no_worker_left_after_a_full_stream(self, linear_problem,
                                                monkeypatch):
        _cores(monkeypatch, 2)
        _stream(linear_problem, 50, self.N)
        assert multiprocessing.active_children() == []

    def test_worker_error_reaches_the_caller(self, linear_problem,
                                             monkeypatch):
        _cores(monkeypatch, 2)
        monkeypatch.setattr(obslab.spde, "sample_noise_batch",
                            lambda n, *a, **kw: np.full((n, 50, 1), np.nan))
        with pytest.raises(DivergenceError):
            _stream(linear_problem, 50, self.N)
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_without_raising_ends_the_stream(
            self, linear_problem, monkeypatch):
        _cores(monkeypatch, 2)
        monkeypatch.setattr(obslab.spde, "sample_noise_batch",
                            lambda *a, **kw: os._exit(3))
        with pytest.raises(BrokenProcessPool):
            _stream(linear_problem, 50, self.N)
        assert multiprocessing.active_children() == []

    def test_no_worker_left_after_an_early_close(self, linear_problem,
                                                 monkeypatch):
        _cores(monkeypatch, 2)
        stream = sample_terminal_states(linear_problem, 0.2, 1e4, 50, self.N,
                                        11)
        next(stream)
        assert multiprocessing.active_children() != []  # the workers are live
        stream.close()
        assert multiprocessing.active_children() == []
