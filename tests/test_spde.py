"""Small-noise simulation: coupling, scaling laws, and reproducibility."""
import dataclasses
import multiprocessing
import os
import signal
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

import obslab.skeleton
import obslab.spde
from obslab.families import heat_obstacle, linear_additive, quasilinear_full
from obslab.grid import Field
from obslab.kernels import ldl_factor, thomas_batch
from obslab.ldp import TargetEvent, mc_ldp_compare, minimize_rate
from obslab.skeleton import constant_control, solve_penalized, zero_control
from obslab.spde import (MC_BATCH, NOISE_BLOCK, _response_table,
                         condition_i_distance, sample_noise,
                         sample_noise_batch, sample_terminal_states,
                         sweep_epsilon)
from obslab.stepping import DivergenceError, control_drive, march, noise_drive


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

    @pytest.mark.parametrize("path", ["response", "step"])
    def test_stream_draws_each_block_once(self, path, monkeypatch):
        # the step-march stream runs serially here, so that its draws are
        # seen; three blocks, the last one ragged
        problem, n_steps, k = (_forking_case() if path == "step"
                               else (linear_additive(), 50, None))
        _cores(monkeypatch, 1)
        drawn = []
        block_normals = obslab.spde._block_normals

        def counted(seed, block_index, shape):
            drawn.append((seed, block_index))
            return block_normals(seed, block_index, shape)

        monkeypatch.setattr(obslab.spde, "_block_normals", counted)
        built = _built_tables(monkeypatch)
        n = 2 * NOISE_BLOCK + 17
        list(sweep_epsilon(problem, [0.2], 1e4, n_steps, n, 11, _finals,
                           control=k))
        assert [table is None for table in built] == \
            ([] if path == "step" else [False])
        assert drawn == [(11, 0), (11, 1), (11, 2)]


class TestDegenerateCoupling:
    def test_zero_epsilon_bit_identical(self, linear_problem):
        noise = sample_noise(100, 1, linear_problem.horizon / 100, seed=2)
        sto = march(linear_problem, 100, penalty_n=1e4,
                    drive=noise_drive(linear_problem, 0.0, noise.increments))
        det = solve_penalized(linear_problem, None, 1e4, n_steps=100)
        assert np.array_equal(sto.traj, det.traj.values)

    def test_zero_noise_shape_ignores_seed(self, heat_problem):
        n1 = sample_noise(100, 1, heat_problem.horizon / 100, seed=1)
        n2 = sample_noise(100, 1, heat_problem.horizon / 100, seed=99)
        a = march(heat_problem, 100, penalty_n=1e4,
                  drive=noise_drive(heat_problem, 0.5, n1.increments))
        b = march(heat_problem, 100, penalty_n=1e4,
                  drive=noise_drive(heat_problem, 0.5, n2.increments))
        assert np.array_equal(a.traj, b.traj)


class TestVarianceScaling:
    @pytest.fixture(scope="class")
    def terminal_samples(self, linear_problem):
        def batch(eps, seed):
            outs = []
            for res, _ in sample_terminal_states(linear_problem, eps, 1e4,
                                                 50, 2000, seed):
                outs.append(res.final)
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
        rep = condition_i_distance(heat_problem, [0.1, 0.05], k, 1e4, 50,
                                   8, seed=0)
        for row in rep["per_epsilon"]:
            assert row["mean_distance"] == 0.0
        assert rep["loglog_slope"] is None  # no rate to read

    def test_sqrt_epsilon_scaling(self, linear_problem):
        k = constant_control(100, 1, linear_problem.horizon, 1.0)
        rep = condition_i_distance(linear_problem,
                                   [0.1, 0.05, 0.025, 0.0125], k, 1e4, 100,
                                   50, seed=7)
        assert rep["monotone"]
        assert 0.35 <= rep["loglog_slope"] <= 0.65

    def test_distances_are_a_direct_march_on_the_same_increments(self):
        # two ranges of the stream, the second one ragged
        n_steps, n, seed, eps = 20, MC_BATCH + 44, 5, 0.05
        prob = quasilinear_full(n_nodes=101)
        k = constant_control(n_steps, prob.coefficients.n_modes,
                             prob.horizon, -1.0)
        skeleton = solve_penalized(prob, k, 1e4, n_steps=n_steps)
        streamed = np.concatenate([
            res.distances for res, _ in sample_terminal_states(
                prob, eps, 1e4, n_steps, n, seed, control=k,
                reference=skeleton.traj.values)])
        inc = sample_noise_batch(n, n_steps, prob.coefficients.n_modes,
                                 prob.horizon / n_steps, seed)
        direct = march(prob, n_steps, penalty_n=1e4,
                       drive=control_drive(prob, k.values)
                       + noise_drive(prob, eps, inc), store=False,
                       reference=skeleton.traj.values).distances
        assert np.array_equal(streamed, direct)
        row = condition_i_distance(prob, [eps, eps / 2], k, 1e4, n_steps, n,
                                   seed)["per_epsilon"][0]
        assert row["mean_distance"] == float(np.mean(direct))
        assert row["std_error"] == float(np.std(direct, ddof=1) / np.sqrt(n))

    def test_skeleton_solved_once_per_sweep(self, linear_problem,
                                            monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_penalized(*args, **kwargs)

        monkeypatch.setattr(obslab.spde, "solve_penalized", counted)
        k = constant_control(50, 1, linear_problem.horizon, 1.0)
        condition_i_distance(linear_problem, [0.1, 0.05, 0.025], k, 1e4, 50,
                             8, seed=0)
        assert len(calls) == 1

    @pytest.mark.parametrize("n_samples", [0, 1])
    def test_too_few_samples_rejected_before_any_march(
            self, linear_problem, n_samples, monkeypatch):
        def no_march(*args, **kwargs):
            raise AssertionError("a march started before the sample check")

        for name in ("march", "solve_penalized", "sample_noise_batch"):
            monkeypatch.setattr(obslab.spde, name, no_march)
        k = constant_control(50, 1, linear_problem.horizon, 1.0)
        with pytest.raises(ValueError, match="at least 2 samples"):
            condition_i_distance(linear_problem, [0.1], k, 1e4, 50,
                                 n_samples, seed=0)
        event = TargetEvent(Field(np.zeros(linear_problem.grid.n_nodes),
                                  linear_problem.grid), 0.02)
        with pytest.raises(ValueError, match="at least 2 samples"):
            mc_ldp_compare(linear_problem, event, [0.1], n_samples, seed=0)


class TestResponseTable:
    """A final-state stream on a `state_free` problem evaluates the samples
    its response table certifies as base + D G, and marches the rest."""

    N = MC_BATCH + 300  # two ranges, the last one ragged

    @staticmethod
    def _counted_marches(monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            # True for the table's marches: the stored base solve and the
            # impulse march against its path.  A step march of sampled
            # noise neither stores nor takes a reference.
            calls.append(kwargs.get("store", True)
                         or kwargs.get("reference") is not None)
            return march(*args, **kwargs)

        # the table's base path is a penalized solve
        for module in (obslab.spde, obslab.skeleton):
            monkeypatch.setattr(module, "march", counted)
        return calls

    @pytest.mark.parametrize("eps", [0.4, 0.05])
    @pytest.mark.parametrize("controlled", [False, True])
    def test_finals_match_the_step_march(self, eps, controlled,
                                         monkeypatch):
        problem = linear_additive()
        k = constant_control(50, 1, problem.horizon, 1.2) if controlled \
            else None
        calls = self._counted_marches(monkeypatch)
        table = _response_table(problem, 1e4, 50, k)
        results, incs = zip(*sample_terminal_states(
            problem, eps, 1e4, 50, self.N, 5, control=k, table=table))
        # the table's two noise-free marches, and no step march
        assert calls == [True, True]
        inc = np.concatenate(incs)
        assert np.array_equal(inc, sample_noise_batch(
            self.N, 50, 1, problem.horizon / 50, 5))
        drive = noise_drive(problem, eps, inc)
        if k is not None:
            drive = control_drive(problem, k.values) + drive
        direct = march(problem, 50, penalty_n=1e4, drive=drive, store=False)
        finals = np.concatenate([res.final for res in results])
        assert np.max(np.abs(finals - direct.final)) <= 1e-12

    @staticmethod
    def _weighted(weights):
        """linear_additive with other mode weights."""
        problem = linear_additive()
        return dataclasses.replace(problem, coefficients=dataclasses.replace(
            problem.coefficients, mode_weights=np.array(weights)))

    @pytest.mark.parametrize("controlled", [False, True])
    def test_two_mode_finals_match_the_step_march(self, controlled,
                                                  monkeypatch):
        problem = self._weighted([0.6, 0.8])
        k = constant_control(50, 2, problem.horizon, 1.2) if controlled \
            else None
        calls = self._counted_marches(monkeypatch)
        table = _response_table(problem, 1e4, 50, k)
        assert table is not None
        results, incs = zip(*sample_terminal_states(
            problem, 0.4, 1e4, 50, self.N, 5, control=k, table=table))
        assert calls == [True, True]  # every row read from the table
        inc = np.concatenate(incs)
        assert inc.shape == (self.N, 50, 2)
        drive = noise_drive(problem, 0.4, inc)
        if k is not None:
            drive = control_drive(problem, k.values) + drive
        direct = march(problem, 50, penalty_n=1e4, drive=drive, store=False)
        finals = np.concatenate([res.final for res in results])
        assert np.max(np.abs(finals - direct.final)) <= 1e-12

    def test_zero_weight_stream_ends_at_the_noise_free_final(self,
                                                             monkeypatch):
        # no noise reaches the state: the table is built all the same, and
        # its finals, like the step march's, are the base
        problem = self._weighted([0.0])
        base = solve_penalized(problem, None, 1e4, n_steps=50).traj.values[0]
        table = _response_table(problem, 1e4, 50, None)
        assert table is not None
        _cores(monkeypatch, 1)
        for given in (table, None):
            finals, _ = _stream(problem, 50, self.N, table=given)
            assert np.array_equal(finals, np.broadcast_to(base, finals.shape))

    def test_uncertified_rows_take_the_step_march(self, monkeypatch):
        # a state-free problem with its barrier at -10, far enough below
        # the base path for a table; every third sample's noise is scaled
        # up so far that the barrier binds for some of them
        problem = dataclasses.replace(
            linear_additive(),
            obstacle=lambda t, x: np.full_like(np.asarray(x, float), -10.0))
        eps, boost = 0.05, 200.0
        draw = obslab.spde.sample_noise_batch

        def boosted(n, *args, first_sample=0, **kwargs):
            inc = draw(n, *args, first_sample=first_sample, **kwargs)
            inc[(first_sample + np.arange(n)) % 3 == 0] *= boost
            return inc

        monkeypatch.setattr(obslab.spde, "sample_noise_batch", boosted)
        calls = self._counted_marches(monkeypatch)
        table = _response_table(problem, 1e4, 50, None)
        results, incs = zip(*sample_terminal_states(problem, eps, 1e4, 50,
                                                    self.N, 5, table=table))
        assert calls == [True, True, False, False]  # one step march a range
        inc = np.concatenate(incs)
        finals = np.concatenate([res.final for res in results])
        noise = noise_drive(problem, eps, inc)
        direct = march(problem, 50, penalty_n=1e4, drive=noise,
                       store=False).final
        free = march(problem, 50, drive=noise, store=False).final
        binds = np.any(direct != free, axis=1)
        boosted_rows = np.arange(self.N) % 3 == 0
        assert binds.any() and not binds[~boosted_rows].any()
        assert np.array_equal(finals[boosted_rows], direct[boosted_rows])
        assert np.max(np.abs(finals - direct)) <= 1e-12

    @pytest.mark.parametrize("eps, most", [(0.4, True), (4.0, False)])
    def test_certifies_most_matches_the_certified_share(self, eps, most):
        problem = linear_additive()
        dt = problem.horizon / 50
        table = _response_table(problem, 1e4, 50, None)
        _, certified = table.finals(noise_drive(
            problem, eps, sample_noise_batch(4096, 50, 1, dt, 3)))
        sigma = (np.sqrt(eps * dt)
                 * problem.coefficients.weight_l2)
        assert table.certifies_most(sigma) == most
        assert (certified.mean() >= 16 / 17) == most

    def test_sweep_in_eps_builds_one_table(self, monkeypatch):
        problem = linear_additive()
        shifted = solve_penalized(
            problem, constant_control(50, 1, problem.horizon, 1.2), 1e4,
            n_steps=50)
        event = TargetEvent(Field(shifted.traj.values[0], problem.grid), 0.02)
        built = _built_tables(monkeypatch)
        report = mc_ldp_compare(problem, event, [0.4, 0.2, 0.1], self.N,
                                seed=3)
        assert len(built) == 1
        assert len(report["per_epsilon"]) == 3
        # condition (i) reads path distances: no table
        k = constant_control(50, 1, problem.horizon, 1.2)
        report = condition_i_distance(problem, [0.4, 0.2, 0.1], k, 1e4, 50,
                                      self.N, seed=3)
        assert len(built) == 1
        assert len(report["per_epsilon"]) == 3
        # the least sample count that pays for the table's 51 rows
        list(sweep_epsilon(problem, [0.4, 0.2], 1e4, 50, 52, 3, _finals))
        assert len(built) == 2

    def test_non_finite_noise_raises_from_the_step_march(self, monkeypatch):
        # no row with NaN increments is certified; its step march diverges
        monkeypatch.setattr(obslab.spde, "sample_noise_batch",
                            lambda n, *a, **kw: np.full((n, 50, 1), np.nan))
        calls = self._counted_marches(monkeypatch)
        problem = linear_additive()
        with pytest.raises(DivergenceError):
            _stream(problem, 50, self.N,
                    table=_response_table(problem, 1e4, 50, None))
        assert calls == [True, True, False]

    @pytest.mark.parametrize("problem", [
        heat_obstacle(),  # the barrier binds at zero noise
        # the base path clears the barrier, but a unit impulse would not
        dataclasses.replace(
            linear_additive(),
            obstacle=lambda t, x: np.full_like(np.asarray(x, float), -5.0)),
    ], ids=["heat_obstacle", "near_barrier"])
    def test_no_table_where_it_cannot_be_certified(self, problem,
                                                   monkeypatch):
        assert _response_table(problem, 1e4, 50, None) is None
        _cores(monkeypatch, 1)
        # the sweep tries the table, gets none, and marches every sample
        [(finals, inc)] = sweep_epsilon(problem, [0.2], 1e4, 50, self.N, 11,
                                        lambda eps, res, inc: (res.final, inc))
        direct = march(problem, 50, penalty_n=1e4,
                       drive=noise_drive(problem, 0.2, inc),
                       store=False).final
        assert np.array_equal(finals, direct)

    @pytest.mark.parametrize("case", [
        "few_samples",  # no more samples than the table's 51 rows
        "reference",  # path distances need every state
        "state_dependent",  # the march is not affine in its drive
    ])
    def test_no_table_where_it_does_not_apply(self, case, monkeypatch):
        problem, n_steps, control = linear_additive(), 50, None
        n_samples = n_steps + 1 if case == "few_samples" else self.N
        if case == "state_dependent":
            problem, n_steps, control = _forking_case()
        monkeypatch.setattr(obslab.spde, "_response_table",
                            lambda *a, **kw: pytest.fail("table built"))
        reference = None
        if case == "reference":
            reference = solve_penalized(problem, None, 1e4,
                                        n_steps=n_steps).traj.values
        _cores(monkeypatch, 1)
        [(finals,)] = sweep_epsilon(problem, [0.2], 1e4, n_steps, n_samples,
                                    5, _finals, control=control,
                                    reference=reference)
        assert len(finals) == n_samples


def _forking_case():
    """A stream that runs on the pool: its coefficients read the state."""
    problem = quasilinear_full(n_nodes=101)
    return problem, 20, constant_control(20, 4, problem.horizon, -1.0)


def _finals(eps, res, inc):
    """A sweep reader of the terminal states."""
    return (res.final,)


def _built_tables(monkeypatch):
    """The response tables the sweep builds from here on, as a list."""
    built = []
    build = obslab.spde._response_table

    def recorded(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(obslab.spde, "_response_table", recorded)
    return built


def _cores(monkeypatch, count):
    """Make the terminal-state stream see `count` usable cores."""
    monkeypatch.setattr(obslab.spde.os, "sched_getaffinity",
                        lambda pid: set(range(count)))


def _stream(problem, n_steps, n_samples, **kw):
    """Concatenated (finals, increments) of one terminal-state stream."""
    results, incs = zip(*sample_terminal_states(problem, 0.2, 1e4, n_steps,
                                                n_samples, 11, **kw))
    return (np.concatenate([res.final for res in results]),
            np.concatenate(incs))


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

    @pytest.fixture(params=["linear_additive", "linear_additive_table",
                            "quasilinear_full"])
    def case(self, request):
        """(problem, n_steps, stream keywords); the table case takes every
        certified final from the response table."""
        if request.param == "linear_additive":
            return linear_additive(), 50, {}
        if request.param == "linear_additive_table":
            problem = linear_additive()
            table = _response_table(problem, 1e4, 50, None)
            assert table is not None
            return problem, 50, {"table": table}
        problem = quasilinear_full(n_nodes=101)
        return problem, 20, {"control": constant_control(
            20, 4, problem.horizon, -1.0)}

    @pytest.mark.parametrize("cores", [2, 3])
    def test_forked_matches_serial(self, case, cores, monkeypatch):
        problem, n_steps, kw = case
        _cores(monkeypatch, cores)
        forked = _stream(problem, n_steps, self.N, **kw)
        _cores(monkeypatch, 1)
        serial = _stream(problem, n_steps, self.N, **kw)
        assert np.array_equal(forked[0], serial[0])
        assert np.array_equal(forked[1], serial[1])

    def test_batch_size_leaves_finals_unchanged(self, case, monkeypatch):
        problem, n_steps, kw = case
        assert MC_BATCH < 2048
        n = 2048 + 100
        small = _stream(problem, n_steps, n, **kw)
        _cores(monkeypatch, 1)
        monkeypatch.setattr(obslab.spde, "MC_BATCH", 2048)
        large = _stream(problem, n_steps, n, **kw)
        assert np.array_equal(small[0], large[0])
        assert np.array_equal(small[1], large[1])
        # one-row ranges, where a plain matrix product takes another path
        monkeypatch.setattr(obslab.spde, "MC_BATCH", 1)
        single = _stream(problem, n_steps, 5, **kw)
        assert np.array_equal(small[0][:5], single[0])
        assert np.array_equal(small[1][:5], single[1])

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

    def test_condition_i_report_unchanged(self, monkeypatch):
        # three ranges of the stream, the last one ragged
        problem = linear_additive()
        k = constant_control(50, 1, problem.horizon, 1.0)

        def report():
            return condition_i_distance(problem, [0.1, 0.05], k, 1e4, 50,
                                        2 * MC_BATCH + 17, seed=7,
                                        deltas=[0.05, 0.1])

        _cores(monkeypatch, 2)
        forked = report()
        _cores(monkeypatch, 1)
        assert forked == report()

    def test_condition_i_report_unchanged_on_a_state_dependent_problem(
            self, monkeypatch):
        problem, n_steps, k = _forking_case()

        def report():
            return condition_i_distance(problem, [0.2, 0.1], k, 1e4, n_steps,
                                        2 * MC_BATCH + 17, seed=7,
                                        deltas=[0.05, 0.1])

        _cores(monkeypatch, 2)
        forked = report()
        _cores(monkeypatch, 1)
        assert forked == report()

    def test_mostly_uncertified_stream_forks(self, monkeypatch):
        # at eps = 4 the table certifies about a quarter of the samples:
        # the stream runs on the pool, the workers use the table too
        problem, eps = linear_additive(), 4.0
        table = _response_table(problem, 1e4, 50, None)
        sigma = (np.sqrt(eps * problem.horizon / 50)
                 * problem.coefficients.weight_l2)
        assert not table.certifies_most(sigma)
        _cores(monkeypatch, 2)
        stream = sample_terminal_states(problem, eps, 1e4, 50, self.N, 11,
                                        table=table)
        first = [next(stream)]
        assert multiprocessing.active_children() != []  # the workers are live
        results, incs = zip(*(first + list(stream)))
        forked = np.concatenate([res.final for res in results])
        inc = np.concatenate(incs)
        noise = noise_drive(problem, eps, inc)
        _, certified = table.finals(noise)
        assert 0.1 < certified.mean() < 0.5
        _cores(monkeypatch, 1)
        results, _ = zip(*sample_terminal_states(problem, eps, 1e4, 50,
                                                 self.N, 11, table=table))
        assert np.array_equal(forked,
                              np.concatenate([res.final for res in results]))
        direct = march(problem, 50, penalty_n=1e4, drive=noise,
                       store=False).final
        assert np.array_equal(forked[~certified], direct[~certified])
        assert np.max(np.abs(forked - direct)) <= 1e-12

    def test_no_worker_left_after_a_full_stream(self, monkeypatch):
        problem, n_steps, k = _forking_case()
        _cores(monkeypatch, 2)
        _stream(problem, n_steps, self.N, control=k)
        assert multiprocessing.active_children() == []

    def test_worker_error_reaches_the_caller(self, monkeypatch):
        problem, n_steps, k = _forking_case()
        _cores(monkeypatch, 2)
        monkeypatch.setattr(obslab.spde, "sample_noise_batch",
                            lambda n, steps, modes, *a, **kw:
                            np.full((n, steps, modes), np.nan))
        with pytest.raises(DivergenceError):
            _stream(problem, n_steps, self.N, control=k)
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_without_raising_ends_the_stream(
            self, monkeypatch):
        # a stream that forks: in-process, os._exit would end pytest itself
        problem, n_steps, k = _forking_case()
        _cores(monkeypatch, 2)
        monkeypatch.setattr(obslab.spde, "sample_noise_batch",
                            lambda *a, **kw: os._exit(3))
        with pytest.raises(BrokenProcessPool):
            _stream(problem, n_steps, self.N, control=k)
        assert multiprocessing.active_children() == []

    def test_no_worker_left_after_an_early_close(self, monkeypatch):
        problem, n_steps, k = _forking_case()
        _cores(monkeypatch, 2)
        stream = sample_terminal_states(problem, 0.2, 1e4, n_steps, self.N,
                                        11, control=k)
        next(stream)
        assert multiprocessing.active_children() != []  # the workers are live
        stream.close()
        assert multiprocessing.active_children() == []
