"""Semi-implicit theta-scheme march against closed-form references."""
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obslab import stepping
from obslab.families import (FAMILY_NAMES, heat_obstacle, linear_additive,
                             make_problem, quasilinear_full)
from obslab.grid import Grid, Trajectory, ht_distance
from obslab.problem import (CoefficientSet, LipschitzInfo, ProblemSpec,
                            validate)
from obslab.skeleton import (constant_control, solve_penalized,
                             solve_projected, zero_control)
from obslab.stepping import (DivergenceError, StabilityError, control_drive,
                             control_gradient, march, march_adjoint,
                             noise_drive, noise_drive_std, stability_limit)

from conftest import zero


def _const_obstacle(level):
    return lambda t, x: np.full_like(np.asarray(x, dtype=float), level)


def free_heat_problem(n_nodes, terminal, horizon=1.0):
    """Pure heat flow with a far-away barrier: the quadrature-oracle case."""
    grid = Grid(-4.0, 4.0, n_nodes)
    zeros4 = lambda t, x, y, z: np.zeros_like(np.asarray(x, dtype=float))
    coeffs = CoefficientSet(
        f=zeros4, g=zeros4, h_shape=zeros4, mode_weights=np.array([1.0]),
        lipschitz=LipschitzInfo(c_f=0.0, c_h=0.0, c_g=0.0,
                                alpha=1e-6, beta=1e-6),
        hbar=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
    return ProblemSpec(coeffs, _const_obstacle(-1e6), terminal, horizon, grid,
                       name="free_heat")


def heat_kernel_solution(grid, terminal, tau):
    """e^{tau * Lap / 2} applied to the terminal datum by direct quadrature.

    The Gaussian kernel has variance tau; trapezoidal quadrature over a
    domain where the datum has decayed to negligible size.
    """
    y = np.linspace(-8.0, 8.0, 4001)
    phi = terminal(y)
    w = np.gradient(y)
    if tau == 0.0:
        return terminal(grid.x)
    kern = np.exp(-(grid.x[:, None] - y[None, :])**2 / (2.0 * tau))
    kern /= np.sqrt(2.0 * np.pi * tau)
    return kern @ (phi * w)


TERMINAL = lambda x: np.exp(-np.asarray(x, dtype=float)**2 / 0.1)


def terminal_heat_solution(x, tau):
    """Closed form of heat_kernel_solution(grid, TERMINAL, tau).

    TERMINAL is a Gaussian of variance 0.05, so its heat flow at tau is the
    Gaussian of variance 0.05 + tau, rescaled to keep the mass. Broadcasts
    over x and tau.
    """
    var = 0.05 + np.asarray(tau, dtype=float)
    x = np.asarray(x, dtype=float)
    return np.sqrt(0.05 / var) * np.exp(-x**2 / (2.0 * var))


class TestHeatOracle:
    def test_matches_quadrature(self):
        prob = free_heat_problem(401, TERMINAL)
        sol = solve_penalized(prob, zero(prob, 400), 1e4)
        times = sol.traj.times
        ref_vals = np.array([heat_kernel_solution(prob.grid, TERMINAL,
                                                  prob.horizon - t)
                             for t in times])
        ref_vals[:, 0] = 0.0
        ref_vals[:, -1] = 0.0
        ref = Trajectory(prob.horizon, ref_vals, prob.grid)
        assert ht_distance(sol.traj, ref) <= 5e-3

    def test_closed_form_matches_quadrature(self):
        grid = free_heat_problem(401, TERMINAL).grid
        gaps = [np.max(np.abs(terminal_heat_solution(grid.x, tau)
                              - heat_kernel_solution(grid, TERMINAL, tau)))
                for tau in (0.0, 0.01, 0.5, 1.0)]
        assert max(gaps) <= 1e-12, gaps

    def test_order_in_dt(self):
        # Error against the quadrature oracle saturates at the spatial floor
        # (~1e-4 at h = 0.02), so the time order is read from
        # self-convergence at fixed grid, where Crank-Nicolson shows its
        # second order cleanly.
        prob = free_heat_problem(401, TERMINAL)
        fine = solve_penalized(prob, zero(prob, 1600), 1e4)
        errs = []
        for n_steps in (50, 100, 200):
            sol = solve_penalized(prob, zero(prob, n_steps), 1e4)
            errs.append(np.max(np.abs(sol.traj.values[0]
                                      - fine.traj.values[0])))
        orders = np.log(np.array(errs[:-1]) / errs[1:]) / np.log(2.0)
        assert np.all(orders >= 0.9)

    def test_constant_state_is_stationary(self):
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        grid = Grid(-4.0, 4.0, 101)
        zeros4 = lambda t, x, y, z: np.zeros_like(np.asarray(x, dtype=float))
        coeffs = CoefficientSet(
            f=zeros4, g=zeros4, h_shape=zeros4, mode_weights=np.array([1.0]),
            lipschitz=LipschitzInfo(0.0, 0.0, 0.0, 1e-6, 1e-6),
            hbar=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        # Neumann-free interior: keep the constant away from the boundary
        # truncation by checking interior nodes over a short horizon.
        prob = ProblemSpec(coeffs, _const_obstacle(0.0), one, 0.01, grid,
                           name="const")
        res = march(prob, 10, penalty_n=1e4, drive=np.zeros(10))
        mid = slice(30, 71)
        assert np.allclose(res.traj[:, mid], 1.0, atol=1e-6)


class TestGuards:
    def test_stability_error_raised(self, quasilinear_problem):
        limit = stability_limit(quasilinear_problem)
        bad_steps = max(int(quasilinear_problem.horizon / (2.5 * limit)), 1)
        with pytest.raises(StabilityError):
            march(quasilinear_problem, bad_steps, drive=np.zeros(bad_steps))

    def test_penalty_pushes_above_barrier(self):
        prob = heat_obstacle()
        sol = solve_penalized(prob, zero(prob, 200), 1e4)
        assert float(np.min(sol.traj.values[:-1])) >= -0.05
        assert np.max(sol.density.values) > 0.0


class TestControlAndNoise:
    def test_zero_epsilon_with_control_matches_deterministic(self):
        prob = linear_additive(n_nodes=101)
        n_steps = 50
        k = zero_control(n_steps, 1, prob.horizon).with_values(
            np.full((n_steps, 1), 0.7))
        control = control_drive(prob, k.values)
        det = march(prob, n_steps, penalty_n=1e4, drive=control)
        rng = np.random.default_rng(0)
        noise = noise_drive(prob, 0.0, rng.standard_normal((n_steps, 1)))
        noisy = march(prob, n_steps, penalty_n=1e4, drive=control + noise)
        assert np.array_equal(det.traj, noisy.traj)

    def test_noise_drive_std_is_the_drives_spread(self):
        # four modes of unequal weight, N(0, dt) increments
        prob = quasilinear_full(n_nodes=51)
        n_steps, eps = 50, 0.3
        dt = prob.horizon / n_steps
        rng = np.random.default_rng(2)
        noise = noise_drive(prob, eps, np.sqrt(dt) * rng.standard_normal(
            (4000, n_steps, prob.coefficients.n_modes)))
        sigma = noise_drive_std(prob, eps, n_steps)
        assert np.isclose(sigma, np.sqrt(eps * dt * np.sum(
            prob.coefficients.mode_weights**2)), rtol=1e-14, atol=0.0)
        assert abs(np.std(noise) / sigma - 1.0) < 0.01

    def test_control_batch_matches_serial(self):
        prob = linear_additive(n_nodes=101)
        n_steps = 40
        rng = np.random.default_rng(3)
        batch_vals = rng.standard_normal((5, n_steps, 1))
        batched = march(prob, n_steps, penalty_n=1e4,
                        drive=control_drive(prob, batch_vals))
        for b in range(5):
            single = march(prob, n_steps, penalty_n=1e4,
                           drive=control_drive(prob, batch_vals[b]))
            assert np.array_equal(batched.traj[b], single.traj)

    def test_streaming_distances_match_stored(self):
        prob = linear_additive(n_nodes=101)
        n_steps = 40
        det = march(prob, n_steps, penalty_n=1e4, drive=np.zeros(n_steps))
        rng = np.random.default_rng(9)
        noise = noise_drive(prob, 0.1, rng.standard_normal((3, n_steps, 1)))
        stored = march(prob, n_steps, penalty_n=1e4, drive=noise, store=True)
        streamed = march(prob, n_steps, penalty_n=1e4, drive=noise,
                         store=False, reference=det.traj)
        ref = Trajectory(prob.horizon, det.traj, prob.grid)
        for b in range(3):
            t = Trajectory(prob.horizon, stored.traj[b], prob.grid)
            assert ht_distance(t, ref) == pytest.approx(streamed.distances[b],
                                                        rel=1e-12)


class TestDriveShape:
    @pytest.mark.parametrize("shape", [(19,), (21,), (3, 19), (3, 20, 1),
                                       (20, 1), ()])
    def test_wrong_drive_rejected_before_any_step(self, shape, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("a step ran before the drive check")

        for name in ("ldl_factor", "thomas_batch"):
            monkeypatch.setattr(stepping, name, no_step)
        with pytest.raises(ValueError, match=re.escape(f"shape {shape}")):
            march(linear_additive(n_nodes=21), 20, drive=np.zeros(shape))


class TestLeanMarch:
    """An unstored march skips the diagnostics, not any of the dynamics."""

    @staticmethod
    def _noisy_inputs(problem, n_steps, batch, seed):
        rng = np.random.default_rng(seed)
        J = problem.coefficients.n_modes
        dt = problem.horizon / n_steps
        controls = rng.standard_normal((batch, n_steps, J))
        noise = np.sqrt(dt) * rng.standard_normal((batch, n_steps, J))
        return controls, noise

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_unstored_final_bit_identical(self, family):
        prob = make_problem(family, n_nodes=101)
        n_steps = 40
        controls, noise = self._noisy_inputs(prob, n_steps, 6, seed=11)
        kw = dict(penalty_n=1e4, drive=control_drive(prob, controls)
                  + noise_drive(prob, 0.1, noise))
        stored = march(prob, n_steps, store=True, **kw)
        lean = march(prob, n_steps, store=False, **kw)
        assert np.array_equal(lean.final, stored.final)
        assert np.array_equal(stored.traj[:, 0], stored.final)
        assert lean.traj is None and lean.density is None

    @settings(max_examples=25, deadline=None)
    @given(family=st.sampled_from(FAMILY_NAMES),
           batch=st.integers(1, 4),
           n_steps=st.integers(4, 16),
           epsilon=st.sampled_from([0.0, 0.01, 0.3]),
           project=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_batch_rows_match_single_marches(self, family, batch, n_steps,
                                             epsilon, project, seed):
        prob = make_problem(family, n_nodes=41)
        controls, noise = self._noisy_inputs(prob, n_steps, batch, seed)
        split = dict(project=True) if project else dict(penalty_n=1e3)
        batched = march(prob, n_steps, drive=control_drive(prob, controls)
                        + noise_drive(prob, epsilon, noise), **split)
        for b in range(batch):
            single = march(prob, n_steps,
                           drive=control_drive(prob, controls[b])
                           + noise_drive(prob, epsilon, noise[b]), **split)
            if prob.coefficients.n_modes == 1:
                assert np.array_equal(batched.traj[b], single.traj)
                assert np.array_equal(batched.density[b], single.density)
            else:
                # the batched and single mode sums may round differently
                np.testing.assert_allclose(batched.traj[b], single.traj,
                                           rtol=0.0, atol=1e-12)

    def test_row_the_barrier_never_binds_on_is_unsplit(self):
        # a penalty step copies the predictor when the barrier binds on no
        # row and splits the whole batch otherwise; either way a row that
        # never binds ends up exactly on the unsplit march
        prob = dataclasses.replace(linear_additive(n_nodes=41),
                                   obstacle=_const_obstacle(0.0))
        n_steps = 20
        controls = np.zeros((2, n_steps, 1))
        controls[1] = -20.0
        drives = control_drive(prob, controls)
        batched = march(prob, n_steps, penalty_n=1e3, drive=drives)
        assert not batched.density[0].any() and batched.density[1].any()
        free = march(prob, n_steps, drive=drives[0])
        assert np.array_equal(batched.traj[0], free.traj)
        for b in range(2):
            single = march(prob, n_steps, penalty_n=1e3, drive=drives[b])
            assert np.array_equal(batched.traj[b], single.traj)

    def test_unstored_march_raises_on_non_finite_state(self):
        prob = linear_additive(n_nodes=101)
        noise = np.zeros((3, 20, 1))
        noise[1, 5, 0] = np.nan
        with pytest.raises(DivergenceError):
            march(prob, 20, penalty_n=1e4, drive=noise_drive(prob, 0.1, noise),
                  store=False)

    @pytest.mark.parametrize("family", ["heat_obstacle", "linear_additive"])
    def test_state_free_declaration_leaves_finals_unchanged(self, family):
        prob = make_problem(family, n_nodes=101)
        assert prob.coefficients.state_free
        stateful = dataclasses.replace(
            prob, coefficients=dataclasses.replace(prob.coefficients,
                                                   state_free=False))
        n_steps = 40
        controls, noise = self._noisy_inputs(prob, n_steps, 6, seed=5)
        kw = dict(penalty_n=1e4, drive=control_drive(prob, controls)
                  + noise_drive(prob, 0.1, noise), store=False)
        assert np.array_equal(march(prob, n_steps, **kw).final,
                              march(stateful, n_steps, **kw).final)

    @settings(max_examples=25, deadline=None)
    @given(family=st.sampled_from(["heat_obstacle", "quasilinear_full"]),
           scale=st.floats(0.0, 20.0),
           seed=st.integers(0, 2**32 - 1))
    def test_projection_keeps_state_above_barrier(self, family, scale, seed):
        # the barrier at t_i is the row the step over [t_i, t_{i+1}) lands
        # on; the pinned boundary nodes are not split
        prob = make_problem(family, n_nodes=51)
        n_steps = 40
        controls, _ = self._noisy_inputs(prob, n_steps, 1, seed)
        res = march(prob, n_steps, project=True,
                    drive=control_drive(prob, scale * controls[0]))
        times = np.linspace(0.0, prob.horizon, n_steps + 1)
        table = np.array([prob.obstacle_values(t) for t in times])
        assert np.all(res.traj[:, 1:-1] >= table[:, 1:-1])


class TestPerRowPenalty:
    """Independent penalized solves as the rows of one march: a
    (batch,) penalty with a (batch, n_steps) drive."""

    @staticmethod
    def _binding(family):
        # linear_additive's own barrier never binds at these controls; a
        # barrier at 0 does, so the split acts on every family
        prob = make_problem(family, n_nodes=41)
        if family == "linear_additive":
            prob = dataclasses.replace(prob, obstacle=_const_obstacle(0.0))
        return prob

    @settings(max_examples=30, deadline=None)
    @given(family=st.sampled_from(FAMILY_NAMES),
           penalties=st.lists(st.floats(1.0, 1e7), min_size=1, max_size=4),
           seed=st.integers(0, 2**32 - 1))
    def test_rows_match_single_row_marches(self, family, penalties, seed):
        prob = self._binding(family)
        n_steps = 16
        rng = np.random.default_rng(seed)
        controls = rng.normal(-3.0, 2.0, (len(penalties), n_steps,
                                          prob.coefficients.n_modes))
        drive = control_drive(prob, controls)
        rows = march(prob, n_steps, drive=drive, penalty_n=penalties)
        assert np.array_equal(rows.penalty_n, penalties)
        assert rows.density.any()
        for b, n in enumerate(penalties):
            single = march(prob, n_steps, drive=drive[b], penalty_n=n)
            assert single.penalty_n == n
            for name in ("traj", "density", "final"):
                assert np.array_equal(getattr(rows, name)[b],
                                      getattr(single, name)), name

    @pytest.mark.parametrize("drive_shape, penalty_n", [
        ((3, 20), [1e3, 1e4]), ((3, 20), [[1e3], [1e4], [1e5]]),
        ((20,), [1e3]), ((3, 20), [1e3, 0.0, 1e4]),
        ((3, 20), [1e3, np.inf, 1e4])],
        ids=["too_few", "column", "single_system", "zero", "inf"])
    def test_mismatched_or_non_positive_penalties_rejected_before_any_step(
            self, drive_shape, penalty_n, monkeypatch):
        def no_step(*args, **kwargs):
            raise AssertionError("a step ran before the penalty check")

        for name in ("ldl_factor", "thomas_batch"):
            monkeypatch.setattr(stepping, name, no_step)
        with pytest.raises(ValueError, match="penalt"):
            march(linear_additive(n_nodes=21), 20, drive=np.zeros(drive_shape),
                  penalty_n=penalty_n)

    def test_adjoint_rejects_a_per_row_penalty_march(self):
        prob = linear_additive(n_nodes=51)
        rows = march(prob, 20, drive=np.zeros((2, 20)), penalty_n=[1e3, 1e4])
        with pytest.raises(ValueError, match="stored single-system"):
            march_adjoint(prob, rows, np.ones(51))


class TestReadRule:
    """A state-free set is read once per march over the step times, row i
    at t_{i+1}; a state-dependent one at every step.  Both give the same
    bits, whatever shape the callables return."""

    @staticmethod
    def _time_dependent(state_free):
        # the bundled state-free families ignore t, so they cannot tell
        # which step time a row was read at
        sigma = 0.3
        prob = linear_additive(n_nodes=41)
        co = dataclasses.replace(
            prob.coefficients,
            f=lambda t, x, y, z: 0.5 * t * np.cos(x),
            h_shape=lambda t, x, y, z: sigma * (1.0 + t),
            hbar=lambda x: np.full_like(x, 2.0 * sigma),
            state_free=state_free)
        return dataclasses.replace(prob, coefficients=co)

    def test_time_dependent_state_free_march_matches_undeclared(self):
        declared = self._time_dependent(True)
        undeclared = self._time_dependent(False)
        assert validate(declared).passed
        n_steps = 20
        rng = np.random.default_rng(3)
        drives = control_drive(declared, rng.standard_normal((4, n_steps, 1)))
        kw = dict(penalty_n=1e3, drive=drives[0])
        stored = march(declared, n_steps, **kw)
        ref = march(undeclared, n_steps, **kw)
        assert np.array_equal(stored.traj, ref.traj)
        assert np.array_equal(stored.density, ref.density)
        batched = march(declared, n_steps, drive=drives, store=False)
        assert np.array_equal(
            batched.final, march(undeclared, n_steps, drive=drives,
                                 store=False).final)

    def test_time_dependent_state_free_adjoint_matches_undeclared(self):
        n_steps = 20
        drive = control_drive(self._time_dependent(True),
                              np.ones((n_steps, 1)))
        mu = np.random.default_rng(4).standard_normal(41)
        grads = []
        for state_free in (True, False):
            prob = self._time_dependent(state_free)
            res = march(prob, n_steps, penalty_n=1e3, drive=drive)
            grads.append(march_adjoint(prob, res, mu))
        assert np.array_equal(grads[0], grads[1])

    @pytest.mark.parametrize("state_free", [True, False])
    def test_scalar_coefficient_matches_its_array_twin(self, state_free):
        # h_shape as a Python float and as linear_additive's full row
        twin = linear_additive(n_nodes=41)
        twin = dataclasses.replace(twin, coefficients=dataclasses.replace(
            twin.coefficients, state_free=state_free))
        scalar = dataclasses.replace(twin, coefficients=dataclasses.replace(
            twin.coefficients, h_shape=lambda t, x, y, z: 0.3,
            g=lambda t, x, y, z: 0.0))
        reports = [validate(p) for p in (scalar, twin)]
        assert reports[0].passed and reports[0].checks == reports[1].checks
        drive = noise_drive(twin, 0.1, np.random.default_rng(5)
                            .standard_normal((3, 30, 1)) * 0.1)
        a, b = (march(p, 30, penalty_n=1e4, drive=drive)
                for p in (scalar, twin))
        assert np.array_equal(a.traj, b.traj)
        assert np.array_equal(a.density, b.density)


class TestOneInteriorNode:
    """With three nodes the theta-system is the 1 x 1 system (1 + 2 kappa)."""

    @staticmethod
    def _by_hand(prob, n_steps, n, controls, epsilon, noise):
        # both boundary nodes are pinned at 0, so the explicit half-Laplacian
        # at the middle node is -2 v / h^2 and kappa = dt / (4 h^2)
        dt = prob.horizon / n_steps
        kappa = 0.25 * dt / prob.grid.h**2
        sigma = prob.coefficients.h_shape(0.0, 0.0, 0.0, 0.0)
        v = prob.terminal_field().values[1]
        for i in reversed(range(n_steps)):
            rhs = v * (1.0 - 2.0 * kappa) + dt * sigma * controls[i] \
                + np.sqrt(epsilon) * sigma * noise[i]
            p = rhs / (1.0 + 2.0 * kappa)
            L = prob.obstacle_values(i * dt)[1]
            v = (p + dt * n * L) / (1.0 + dt * n) if p < L else p
        return v

    @pytest.mark.parametrize("family", ["heat_obstacle", "linear_additive"])
    def test_march_matches_the_one_node_update(self, family):
        prob = make_problem(family, n_nodes=3)
        n_steps, n, epsilon = 50, 1e3, 0.1
        rng = np.random.default_rng(4)
        controls = rng.standard_normal((n_steps, 1))
        noise = np.sqrt(prob.horizon / n_steps) * rng.standard_normal(
            (n_steps, 1))
        drive = control_drive(prob, controls) \
            + noise_drive(prob, epsilon, noise)
        res = march(prob, n_steps, penalty_n=n, drive=drive)
        want = self._by_hand(prob, n_steps, n, controls[:, 0], epsilon,
                             noise[:, 0])
        assert res.final[[0, 2]].tolist() == [0.0, 0.0]
        assert res.final[1] == pytest.approx(want, rel=1e-13, abs=1e-15)
        batched = march(prob, n_steps, penalty_n=n,
                        drive=np.stack([drive] * 3))
        assert np.array_equal(batched.final, np.stack([res.final] * 3))


class TestFactorOnce:
    """The theta-system is factored once per march, never per step."""

    @pytest.mark.parametrize("batch", [None, 256])
    def test_one_factorization_per_march(self, monkeypatch, batch):
        calls = []
        factor = stepping.ldl_factor

        def counting(*args):
            calls.append(args)
            return factor(*args)

        monkeypatch.setattr(stepping, "ldl_factor", counting)
        prob = linear_additive()
        n_steps = 50
        noise = np.zeros((n_steps, 1) if batch is None
                         else (batch, n_steps, 1))
        res = march(prob, n_steps, penalty_n=1e4,
                    drive=noise_drive(prob, 0.1, noise), store=False)
        assert res.final.shape == ((prob.grid.n_nodes,) if batch is None
                                   else (batch, prob.grid.n_nodes))
        assert len(calls) == 1


class TestMarchAdjoint:
    """The backward sweep against the forward march it transposes."""

    def test_transposes_the_affine_response(self):
        # linear_additive answers the control affinely and its barrier never
        # binds, so <mu, u(k + d) - u(k)> = <gradient, d> up to rounding
        prob = linear_additive(n_nodes=101)
        n_steps = 30
        rng = np.random.default_rng(11)
        drive, direction = control_drive(
            prob, rng.standard_normal((2, n_steps, 1)))
        mu = rng.standard_normal(prob.grid.n_nodes)
        res = march(prob, n_steps, penalty_n=1e4, drive=drive)
        grad = march_adjoint(prob, res, mu)
        moved = march(prob, n_steps, penalty_n=1e4,
                      drive=drive + direction, store=False).final
        assert float(np.sum(grad * direction)) == pytest.approx(
            float(mu @ (moved - res.final)), rel=1e-10)

    def test_one_factorization_per_sweep(self, monkeypatch):
        prob = quasilinear_full(n_nodes=51)
        k = control_drive(prob, np.zeros((20, prob.coefficients.n_modes)))
        res = march(prob, 20, penalty_n=1e4, drive=k)
        calls = []
        factor = stepping.ldl_factor

        def counting(*args):
            calls.append(args)
            return factor(*args)

        monkeypatch.setattr(stepping, "ldl_factor", counting)
        march_adjoint(prob, res, np.ones(51))
        assert len(calls) == 1

    def test_needs_a_stored_single_system_march(self):
        prob = linear_additive(n_nodes=51)
        k = np.zeros(20)
        lean = march(prob, 20, penalty_n=1e4, drive=k, store=False)
        with pytest.raises(ValueError, match="stored single-system"):
            march_adjoint(prob, lean, np.ones(51))
        batched = march(prob, 20, penalty_n=1e4, drive=k[None])
        with pytest.raises(ValueError, match="stored single-system"):
            march_adjoint(prob, batched, np.ones(51))

    def test_records_how_it_was_marched(self):
        # a stored march keeps its drive for the sweep; an unstored one
        # keeps no per-step array
        prob = linear_additive(n_nodes=51)
        k = np.zeros(20)
        res = march(prob, 20, penalty_n=1e4, drive=k)
        assert res.drive is k and res.penalty_n == 1e4 and not res.project
        lean = march(prob, 20, project=True, drive=k, store=False)
        assert lean.drive is None and lean.penalty_n == 0.0 and lean.project

    def test_projection_march_rejected(self):
        prob = linear_additive(n_nodes=51)
        res = march(prob, 20, project=True, drive=np.zeros(20))
        with pytest.raises(ValueError, match="projection"):
            march_adjoint(prob, res, np.ones(51))

    def test_reads_the_penalty_of_the_march(self):
        # a march taken at penalty 1e2 that the split acts on: the sweep
        # reads 1e2 off the march and matches central differences
        prob = quasilinear_full(n_nodes=101, obstacle_amplitude=0.8)
        n_steps, step = 20, 1e-6
        drive = control_drive(prob, constant_control(
            n_steps, prob.coefficients.n_modes, prob.horizon, -2.0).values)
        mu = np.random.default_rng(12).standard_normal(prob.grid.n_nodes)
        res = march(prob, n_steps, penalty_n=1e2, drive=drive)
        assert res.density.any()
        grad = march_adjoint(prob, res, mu)
        shifts = step * np.eye(n_steps)
        plus, minus = (march(prob, n_steps, penalty_n=1e2,
                             drive=drive + sign * shifts, store=False).final
                       for sign in (1.0, -1.0))
        oracle = (plus - minus) @ mu / (2.0 * step)
        assert np.max(np.abs(grad - oracle)) <= 1e-6 * np.max(np.abs(oracle))


class TestControlGradient:
    @pytest.mark.parametrize("batch", [(), (3,)])
    def test_transposes_the_control_drive(self, batch):
        prob = quasilinear_full(n_nodes=21)
        rng = np.random.default_rng(13)
        values = rng.standard_normal(batch + (30, prob.coefficients.n_modes))
        sens = rng.standard_normal(batch + (30,))
        assert float(np.sum(control_drive(prob, values) * sens)) == \
            pytest.approx(float(np.sum(values * control_gradient(prob, sens))),
                          rel=1e-13)


class TestPinnedNodes:
    """The barrier split acts on the interior; the pinned nodes carry no
    reflection even where the barrier there is positive."""

    def test_penalty_density_is_zero_on_the_boundary(self):
        prob = quasilinear_full()
        assert prob.obstacle_values(0.0)[0] > 0.0   # about 3.8e-15
        sol = solve_penalized(prob, zero(prob, 200), 1e4)
        assert np.max(sol.density.values[:, 1:-1]) > 0.0
        assert not np.any(sol.density.values[:, [0, -1]])

    def test_projected_min_gap_is_nonnegative(self):
        prob = quasilinear_full()
        sol = solve_projected(prob, zero(prob, 200))
        assert not np.any(sol.density.values[:, [0, -1]])
        assert sol.min_gap >= 0.0


class TestDenseOracle:
    """The march against Crank-Nicolson written out with dense interior
    matrices: (I - kappa Lap) p = (I + kappa Lap) v + dt F, then the split."""

    N_STEPS = 20

    @staticmethod
    def _oracle(prob, n_steps, split, controls, epsilon, noise):
        grid, co = prob.grid, prob.coefficients
        x, h, ni = grid.x, grid.h, grid.n_nodes - 2
        dt = prob.horizon / n_steps
        kappa = dt / (4.0 * h**2)
        lap = (np.diag(np.full(ni, -2.0)) + np.diag(np.ones(ni - 1), 1)
               + np.diag(np.ones(ni - 1), -1))
        implicit = np.eye(ni) - kappa * lap
        explicit = np.eye(ni) + kappa * lap
        times = np.linspace(0.0, prob.horizon, n_steps + 1)
        traj = np.zeros((n_steps + 1, grid.n_nodes))
        v = traj[n_steps] = prob.terminal_field().values
        for i in reversed(range(n_steps)):
            z = np.empty_like(v)
            z[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
            z[0], z[-1] = (v[1] - v[0]) / h, (v[-1] - v[-2]) / h
            f, g, hs = (np.asarray(c(times[i + 1], x, v, z)) + np.zeros_like(x)
                        for c in (co.f, co.g, co.h_shape))
            force = f[1:-1] + (g[2:] - g[:-2]) / (2.0 * h) \
                + hs[1:-1] * (controls[i] @ co.mode_weights)
            rhs = explicit @ v[1:-1] + dt * force
            if noise is not None:
                rhs += np.sqrt(epsilon) * hs[1:-1] * (noise[i] @ co.mode_weights)
            p = np.linalg.solve(implicit, rhs)
            L = prob.obstacle_values(times[i])[1:-1]
            if split == "projection":
                p = np.maximum(p, L)
            elif split == "penalty":
                c = dt * 1e3
                p = np.where(p < L, (p + c * L) / (1.0 + c), p)
            v = traj[i]
            v[1:-1] = p
        return traj

    @pytest.mark.parametrize("noisy", [False, True])
    @pytest.mark.parametrize("batch", [None, 3])
    @pytest.mark.parametrize("split", ["penalty", "projection", "plain"])
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_march_matches_dense_crank_nicolson(self, family, split, batch,
                                                noisy):
        params = {"obstacle_amplitude": 0.8} \
            if family == "quasilinear_full" else {}
        prob = make_problem(family, n_nodes=21, **params)
        n_steps, J = self.N_STEPS, prob.coefficients.n_modes
        rows = 1 if batch is None else batch
        # control -2 on mode 0 pushes the state onto the barrier
        controls = np.zeros((rows, n_steps, J))
        controls[:, :, 0] = -2.0 + np.arange(rows)[:, None]
        rng = np.random.default_rng(7)
        noise = np.sqrt(prob.horizon / n_steps) \
            * rng.standard_normal((rows, n_steps, J)) if noisy else None
        epsilon = 0.1 if noisy else 0.0
        kw = {"penalty": dict(penalty_n=1e3), "projection": dict(project=True),
              "plain": {}}[split]
        squeeze = (lambda a: a[0]) if batch is None else (lambda a: a)
        drive = control_drive(prob, squeeze(controls))
        if noise is not None:
            drive = drive + noise_drive(prob, epsilon, squeeze(noise))
        res = march(prob, n_steps, drive=drive, **kw)
        lean = march(prob, n_steps, drive=drive, store=False, **kw)
        want = np.stack([self._oracle(prob, n_steps, split, controls[b],
                                      epsilon,
                                      None if noise is None else noise[b])
                         for b in range(rows)])
        got = res.traj.reshape(want.shape)
        scale = np.max(np.abs(want))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * scale)
        np.testing.assert_allclose(lean.final.reshape(rows, -1), want[:, 0],
                                   rtol=1e-12, atol=1e-12 * scale)
        for arr in (res.traj, res.final, lean.final):
            assert not np.any(arr[..., [0, -1]])
        if split != "plain" and family != "linear_additive":
            assert res.density.any()   # the barrier binds: the split acts
