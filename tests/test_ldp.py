"""Rate functional, constrained minimization, and rare-event Monte Carlo."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import obslab.ldp
from obslab.families import (heat_obstacle, linear_additive, make_problem,
                             quasilinear_full)
from obslab.grid import Field, h_norm_array
from obslab.ldp import (RELIABLE_ESS, TargetEvent, _batched_hinges,
                        _excess_gradient, _solution_values, condition_ii_test,
                        kish_ess, mc_ldp_compare, minimize_rate,
                        rate_functional)
from obslab.skeleton import constant_control, solve_penalized, zero_control
from obslab.spde import _response_table, sample_terminal_states
from obslab.stepping import control_drive, march

from conftest import zero


def least_norm_oracle(problem, event, n_steps, penalty_n=1e4):
    """Direct quadratic-program solution of the terminal-ball least-norm task.

    For a problem whose response to the control is affine, the map from the
    control matrix to u(0, .) is assembled column by column; the constrained
    minimum of the action over the ball boundary follows from the normal
    equations, with the Lagrange multiplier found by bisection on the
    constraint residual.
    """
    J = problem.coefficients.n_modes
    dt = problem.horizon / n_steps
    h = problem.grid.h
    base = solve_penalized(problem, zero(problem, n_steps), penalty_n)
    u0 = base.traj.values[0]

    dim = n_steps * J
    cols = np.empty((len(u0), dim))
    k = zero_control(n_steps, J, problem.horizon)
    for idx in range(dim):
        vals = np.zeros((n_steps, J))
        vals[idx // J, idx % J] = 1.0
        sol = solve_penalized(problem, k.with_values(vals), penalty_n)
        cols[:, idx] = sol.traj.values[0] - u0
    b = event.center.values - u0
    A_s = np.sqrt(h) * cols
    b_s = np.sqrt(h) * b

    AtA = A_s.T @ A_s
    Atb = A_s.T @ b_s

    def resid(mu):
        kvec = np.linalg.solve(dt * np.eye(dim) + 2.0 * mu * AtA,
                               2.0 * mu * Atb)
        return np.linalg.norm(A_s @ kvec - b_s), kvec

    lo, hi = 0.0, 1.0
    while resid(hi)[0] > event.radius:
        hi *= 2.0
        if hi > 1e12:
            raise RuntimeError("event unreachable for the oracle")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if resid(mid)[0] > event.radius:
            lo = mid
        else:
            hi = mid
    _, kvec = resid(hi)
    return 0.5 * dt * float(kvec @ kvec)


class TestRateFunctional:
    def test_zero_iff_zero(self):
        k = zero_control(50, 2, 1.0)
        assert rate_functional(k) == 0.0
        assert rate_functional(constant_control(50, 2, 1.0, 0.3)) > 0.0

    def test_quadratic_homogeneity_exact(self):
        k = constant_control(40, 1, 0.5, 0.7)
        k2 = k.with_values(2.0 * k.values)  # power of two: float-exact
        assert rate_functional(k2) == 4.0 * rate_functional(k)


class TestTerminalBall:
    def test_hinge_zero_exactly_where_inside(self, linear_problem):
        grid = linear_problem.grid
        rng = np.random.default_rng(3)
        center = Field(rng.standard_normal(grid.n_nodes), grid)
        direction = rng.standard_normal(grid.n_nodes)
        direction /= h_norm_array(direction, grid.h)
        scales = np.array([0.0, 0.2, 0.5, 0.9, 3.0])
        states = center.values + scales[:, None] * direction
        # the third state lies on the sphere, to the last bit
        radius = float(h_norm_array(states[2] - center.values, grid.h))
        event = TargetEvent(center=center, radius=radius)
        inside = event.contains_final(states)
        hinge = event.hinge(states)
        assert inside.tolist() == [True, True, True, False, False]
        assert np.array_equal(hinge == 0.0, inside)
        assert np.all(hinge[~inside] > 0.0)

    def test_excess_is_the_signed_distance(self, linear_problem):
        grid = linear_problem.grid
        center = Field(np.zeros(grid.n_nodes), grid)
        unit = np.ones(grid.n_nodes) / h_norm_array(np.ones(grid.n_nodes),
                                                     grid.h)
        states = np.array([0.25, 0.5, 2.0])[:, None] * unit
        event = TargetEvent(center=center, radius=0.5)
        excess = event.excess(states)
        np.testing.assert_allclose(excess, [-0.25, 0.0, 1.5], atol=1e-14)
        assert np.array_equal(event.hinge(states),
                              np.maximum(0.0, excess))
        assert np.array_equal(event.contains_final(states),
                              excess <= 0.0)

    def test_cotangent_matches_central_differences(self, linear_problem):
        # at random final states off the centre, node by node
        grid = linear_problem.grid
        rng = np.random.default_rng(11)
        event = TargetEvent(Field(rng.standard_normal(grid.n_nodes), grid),
                            0.3)
        step = 1e-4
        shifts = step * np.eye(grid.n_nodes)
        for final in rng.standard_normal((3, grid.n_nodes)):
            oracle = (event.excess(final + shifts)
                      - event.excess(final - shifts)) / (2.0 * step)
            cotangent = event.cotangent(final)
            assert cotangent.shape == final.shape
            assert np.max(np.abs(cotangent - oracle)) \
                <= 1e-8 * np.max(np.abs(oracle))

    def test_cotangent_is_zero_at_the_centre(self, linear_problem):
        grid = linear_problem.grid
        event = TargetEvent(Field(np.linspace(-1.0, 1.0, grid.n_nodes),
                                  grid), 0.1)
        cotangent = event.cotangent(event.center.values.copy())
        assert cotangent.shape == (grid.n_nodes,)
        assert np.all(np.isfinite(cotangent)) and not np.any(cotangent)

    def test_radius_must_be_positive(self, linear_problem):
        center = Field(np.zeros(linear_problem.grid.n_nodes),
                       linear_problem.grid)
        with pytest.raises(ValueError):
            TargetEvent(center=center, radius=0.0)

    @pytest.mark.parametrize("family, atol", [("heat_obstacle", 0.0),
                                              ("linear_additive", 0.0),
                                              ("quasilinear_full", 1e-12)])
    def test_gradient_rows_match_objective_solves(self, family, atol):
        # the batched excess (the gradient tests' central-difference
        # oracle) and single solves evaluate the same function of the
        # control
        problem = make_problem(family, n_nodes=101)
        n_steps = 40
        J = problem.coefficients.n_modes
        template = zero_control(n_steps, J, problem.horizon)
        values = np.random.default_rng(7).standard_normal((6, n_steps, J))
        final0 = _solution_values(problem, template.with_values(values[0]),
                                  1e4)
        event = TargetEvent(center=Field(0.9 * final0, problem.grid),
                            radius=1e-3)
        batched = _batched_hinges(problem, template, values, event, 1e4)
        single = np.array([
            event.excess(_solution_values(problem, template.with_values(v),
                                          1e4))
            for v in values])
        assert np.all(single > 0.0)
        if atol == 0.0:
            assert np.array_equal(batched, single)
        else:
            # the batched and single mode sums may round differently
            np.testing.assert_allclose(batched, single, rtol=0.0, atol=atol)


def binding_event(n_steps):
    """quasilinear_full (101 nodes, obstacle amplitude 0.8) and the ball of
    radius 0.02 about the terminal state under the constant control -2:
    its minimizer presses the state into the barrier."""
    problem = quasilinear_full(n_nodes=101, obstacle_amplitude=0.8)
    generator = constant_control(n_steps, problem.coefficients.n_modes,
                                 problem.horizon, -2.0)
    shifted = solve_penalized(problem, generator, 1e4)
    event = TargetEvent(center=Field(shifted.traj.values[0], problem.grid),
                        radius=0.02)
    return problem, event, generator


class TestExcessGradient:
    """The adjoint gradient of the event excess against a central-difference
    oracle over every control entry."""

    PENALTY = 1e4

    def _both(self, problem, event, values, step=1e-5):
        res = march(problem, len(values), penalty_n=self.PENALTY,
                    drive=control_drive(problem, values))
        adjoint = _excess_gradient(problem, event, res)
        dim = values.size
        shift = (step * np.eye(dim)).reshape((dim,) + values.shape)
        template = zero_control(len(values), values.shape[1], problem.horizon)
        plus, minus = (_batched_hinges(problem, template, values + s * shift,
                                       event, self.PENALTY) for s in (1, -1))
        oracle = ((plus - minus) / (2.0 * step)).reshape(values.shape)
        return res, adjoint, oracle

    @staticmethod
    def _far_event(problem, values):
        final = march(problem, len(values), penalty_n=1e4,
                      drive=control_drive(problem, values), store=False).final
        return TargetEvent(center=Field(0.9 * final, problem.grid),
                           radius=1e-3)

    def _check(self, adjoint, oracle):
        assert adjoint.shape == oracle.shape
        scale = np.max(np.abs(oracle))
        assert scale > 0.0
        assert np.max(np.abs(adjoint - oracle)) <= 1e-7 * scale

    def test_heat_obstacle_gradient_is_zero(self):
        # no noise mode acts on heat_obstacle: no control moves u
        problem = heat_obstacle(n_nodes=101)
        values = np.random.default_rng(1).standard_normal((20, 1))
        event = self._far_event(problem, np.zeros_like(values))
        _, adjoint, oracle = self._both(problem, event, values)
        assert not np.any(adjoint) and not np.any(oracle)

    def test_linear_additive(self):
        problem = linear_additive(n_nodes=101)
        rng = np.random.default_rng(2)
        event = self._far_event(problem, rng.standard_normal((50, 1)))
        self._check(*self._both(problem, event,
                                rng.standard_normal((50, 1)))[1:])

    def test_quasilinear_barrier_inactive(self):
        # the barrier lowered to -50: the split never acts, but f, g and
        # h_shape depend on the state
        problem = dataclasses.replace(
            quasilinear_full(n_nodes=101),
            obstacle=lambda t, x: np.full_like(x, -50.0))
        rng = np.random.default_rng(3)
        event = self._far_event(problem, 0.5 * rng.standard_normal((20, 4)))
        res, adjoint, oracle = self._both(
            problem, event, 0.5 * rng.standard_normal((20, 4)))
        assert not res.density.any()
        self._check(adjoint, oracle)

    def test_quasilinear_binding_event(self):
        problem, event, generator = binding_event(20)
        values = generator.values \
            + 0.3 * np.random.default_rng(4).standard_normal((20, 4))
        res, adjoint, oracle = self._both(problem, event, values)
        assert res.density.any()   # the penalty split acts
        self._check(adjoint, oracle)

    def test_zero_distance_gives_zero_gradient(self):
        problem = quasilinear_full(n_nodes=101)
        values = np.random.default_rng(5).standard_normal((20, 4))
        res = march(problem, 20, penalty_n=1e4,
                    drive=control_drive(problem, values))
        event = TargetEvent(center=Field(res.final, problem.grid), radius=0.1)
        grad = _excess_gradient(problem, event, res)
        assert grad.shape == values.shape
        assert np.all(np.isfinite(grad)) and not np.any(grad)


class TestMinimizeRate:
    @pytest.fixture(scope="class")
    def problem(self):
        return linear_additive()

    @pytest.fixture(scope="class")
    def bundled(self, problem):
        """The bundled rate_minimize event, its oracle rate and the
        minimizer's result."""
        n_steps = 50
        shifted = solve_penalized(
            problem, constant_control(n_steps, 1, problem.horizon, 1.2),
            1e4)
        event = TargetEvent(center=Field(shifted.traj.values[0],
                                         problem.grid),
                            radius=0.02)
        oracle = least_norm_oracle(problem, event, n_steps)
        res = minimize_rate(problem, event, n_steps=n_steps, penalty_n=1e4)
        return event, oracle, res

    def test_self_centered_event_has_zero_rate(self, problem):
        base = solve_penalized(problem, zero(problem, 50), 1e4)
        event = TargetEvent(center=Field(base.traj.values[0], problem.grid),
                            radius=0.05)
        res = minimize_rate(problem, event, n_steps=50, penalty_n=1e4)
        assert res.feasible
        assert res.rate <= 1e-6

    def test_start_inside_ball_is_one_march_and_no_solve(self, problem,
                                                          monkeypatch):
        base = solve_penalized(problem, zero(problem, 50), 1e4)
        event = TargetEvent(center=Field(base.traj.values[0], problem.grid),
                            radius=0.05)
        marches = []
        real_march = obslab.ldp.march

        def counting_march(*args, **kwargs):
            marches.append(kwargs.get("drive"))
            return real_march(*args, **kwargs)

        def no_step(*args, **kwargs):
            # every SQP step needs the excess gradient at its start point
            raise AssertionError("a solver step ran for a start inside the "
                                 "ball")

        monkeypatch.setattr("obslab.ldp.march", counting_march)
        monkeypatch.setattr("obslab.ldp._excess_gradient", no_step)
        res = minimize_rate(problem, event, n_steps=50, penalty_n=1e4)
        # one single-system march: a drive (n_steps,), no batch
        assert len(marches) == 1 and marches[0].shape == (50,)
        assert res.feasible and res.rate == 0.0
        assert res.constraint_residual == 0.0
        assert not np.any(res.minimizer.values)

    def test_gradient_adds_no_march(self, problem, bundled, monkeypatch):
        # each point the SQP loop visits costs one stored single-system
        # march; its gradient sweeps back through that march
        event, _, res = bundled
        marches = []
        real_march = obslab.ldp.march

        def recording_march(*args, **kwargs):
            marches.append(kwargs)
            return real_march(*args, **kwargs)

        monkeypatch.setattr("obslab.ldp.march", recording_march)
        again = minimize_rate(problem, event, n_steps=50, penalty_n=1e4)
        assert again.rate == res.rate
        points = [kw["drive"] for kw in marches]
        assert all(p.shape == (50,) for p in points)
        assert all(kw.get("store", True) for kw in marches)
        assert len({p.tobytes() for p in points}) == len(points)

    def test_iteration_limit_is_never_feasible(self, problem, bundled):
        event, _, _ = bundled
        # one SQP iteration gets close to the ball (residual about 1e-5)
        # but is not a solution
        res = minimize_rate(problem, event,
                            n_steps=50, penalty_n=1e4, max_iters=1)
        assert not res.feasible
        assert res.rate == np.inf
        assert res.message == "Iteration limit reached"
        assert len(res.lambda_history) == 1

    def test_converges_on_its_last_allowed_iterate(self, problem, bundled):
        # the convergence test also reads the iterate of the last allowed
        # iteration
        event, _, res = bundled
        capped = minimize_rate(problem, event, n_steps=50, penalty_n=1e4,
                               max_iters=len(res.lambda_history))
        assert capped.feasible and capped.rate == res.rate
        assert capped.message == "Optimization terminated successfully"

    def test_unreachable_event_is_infinite(self):
        # no noise modes act on heat_obstacle, so no control moves u at all
        prob = heat_obstacle()
        far = Field(np.full(prob.grid.n_nodes, 10.0), prob.grid)
        event = TargetEvent(center=far, radius=0.01)
        res = minimize_rate(prob, event, n_steps=50, penalty_n=1e4)
        assert not res.feasible
        assert res.rate == np.inf
        assert res.message == ("Constraint gradient is zero: no control "
                               "moves the state")
        # no step is taken, so no iterate is recorded
        assert res.lambda_history == []

    def test_matches_least_norm_oracle(self, bundled):
        _, oracle, res = bundled
        assert res.feasible
        assert abs(res.rate - oracle) / oracle <= 0.02

    def test_matches_the_slsqp_rate(self, bundled):
        # SLSQP, the solver this loop replaced, read 0.3299922856945419
        # here in 8 iterates
        _, _, res = bundled
        assert res.feasible and res.constraint_residual <= 1e-10
        assert abs(res.rate - 0.3299922856945419) <= 1e-6 * res.rate
        assert len(res.lambda_history) < 8

    def test_lands_on_the_oracle_with_zero_residual(self, bundled):
        # the rate of a feasible point, not of the most infeasible
        # acceptable one
        _, oracle, res = bundled
        assert res.feasible
        assert abs(res.rate - oracle) / oracle <= 1e-4
        assert res.constraint_residual <= 1e-8


class TestBindingBarrier:
    """A reachable event on quasilinear_full whose minimizer presses the
    state into the barrier.  The penalty split makes the terminal map
    kinked where it starts to act, so the solve's gradient changes
    abruptly there; the solve must still come back feasible and optimal."""

    @pytest.fixture(scope="class")
    def solved(self):
        problem, event, generator = binding_event(20)
        res = minimize_rate(problem, event, n_steps=20, penalty_n=1e4)
        return problem, event, generator, res

    def test_barrier_binds_at_the_minimizer(self, solved):
        problem, _, _, res = solved
        sol = solve_penalized(problem, res.minimizer, 1e4)
        # the state dips below the obstacle, so the penalty density
        # n (u - L)^- exceeds 1 somewhere
        assert sol.min_gap < -1e-4

    def test_feasible_with_zero_residual(self, solved):
        problem, event, generator, res = solved
        assert res.feasible
        assert res.message == "Optimization terminated successfully"
        assert res.constraint_residual <= 1e-8
        # the generating control is feasible, so it bounds the rate
        assert 0.0 < res.rate < rate_functional(generator)

    def test_kkt_alignment(self, solved):
        # at the constrained minimum the action gradient dt k is a
        # nonnegative multiple of -grad d; the gradient here is a central
        # difference with a step 100 times the solver's
        problem, event, _, res = solved
        k = res.minimizer
        x = k.values.ravel()
        dim, step = x.size, 1e-4
        shift = step * np.eye(dim)
        plus = _batched_hinges(problem, k, (x + shift).reshape((dim,)
                               + k.values.shape), event, 1e4)
        minus = _batched_hinges(problem, k, (x - shift).reshape((dim,)
                                + k.values.shape), event, 1e4)
        grad = (plus - minus) / (2.0 * step)
        cosine = -float(x @ grad) / (np.linalg.norm(x) * np.linalg.norm(grad))
        assert cosine >= 1.0 - 1e-6


    def test_rate_converges_under_refinement(self):
        # first order in dt: the gaps between successive levels halve
        # (measured rates 0.252063 / 0.251983 / 0.251947)
        rates = []
        for n_steps in (20, 40, 80):
            problem, event, _ = binding_event(n_steps)
            res = minimize_rate(problem, event, n_steps=n_steps, penalty_n=1e4)
            assert res.feasible
            rates.append(res.rate)
        gaps = -np.diff(rates)
        assert np.all(gaps > 0.0)
        assert 1.5 <= gaps[0] / gaps[1] <= 3.0
        assert (max(rates) - min(rates)) / min(rates) <= 1e-3


@pytest.mark.parametrize("n_steps, slsqp_rate, slsqp_iterates", [
    (20, 0.2520627013494779, 22),
    (40, 0.25198268493924325, 23),
    (80, 0.25194680548173704, 25),
    (160, 0.2519309165928568, 28)])
def test_binding_rate_matches_slsqp(n_steps, slsqp_rate, slsqp_iterates):
    # SLSQP, the solver this loop replaced, at penalty 1e4; the binding
    # event has nearby KKT points at the 1e-7 level, so the two solvers'
    # rates need not share more digits
    problem, event, _ = binding_event(n_steps)
    res = minimize_rate(problem, event, n_steps=n_steps, penalty_n=1e4)
    assert res.feasible and res.constraint_residual <= 1e-10
    assert abs(res.rate - slsqp_rate) <= 1e-6 * slsqp_rate
    assert len(res.lambda_history) < slsqp_iterates


class TestAffineResponse:
    """The linear_additive response is affine in the control; the
    least-norm oracle rests on this."""

    @settings(max_examples=20, deadline=None)
    @given(alpha=st.floats(-1.0, 2.0),
           scale=st.floats(0.0, 5.0),
           seed=st.integers(0, 2**32 - 1))
    def test_terminal_state_affine_in_control(self, linear_problem, alpha,
                                              scale, seed):
        n_steps = 30
        rng = np.random.default_rng(seed)
        k1, k2 = scale * rng.standard_normal((2, n_steps, 1))
        template = zero_control(n_steps, 1, linear_problem.horizon)

        def u0(values):
            return _solution_values(linear_problem,
                                    template.with_values(values), 1e4)

        mixed = u0(alpha * k1 + (1.0 - alpha) * k2)
        np.testing.assert_allclose(
            mixed, alpha * u0(k1) + (1.0 - alpha) * u0(k2),
            rtol=0.0, atol=1e-10)


class TestConditionII:
    def test_distances_decay_with_frequency(self, linear_problem):
        k = constant_control(200, 1, linear_problem.horizon, 1.0)
        rep = condition_ii_test(linear_problem, k, 1.0, [1, 2, 4, 8],
                                penalty_n=1e4)
        assert rep["monotone_decreasing"]
        witnesses = [r["witness_integral"] for r in rep["rows"]]
        assert all(a > b for a, b in zip(witnesses, witnesses[1:]))

    def test_ball_violation_rejected(self, linear_problem):
        k = constant_control(100, 1, linear_problem.horizon, 1.0)
        with pytest.raises(ValueError):
            condition_ii_test(linear_problem, k, 5.0, [1], penalty_n=1e4,
                              norm_sq_bound=1.0)

    def test_ball_checked_before_any_solve(self, linear_problem,
                                           monkeypatch):
        # the bundled condition_ii control and perturbations, against a
        # bound of 0.6 on the integral of |k|^2 dt that the perturbation at
        # m = 1 exceeds
        solves = []
        real_solve = obslab.ldp.solve_penalized

        def counting_solve(*args, **kwargs):
            solves.append(args)
            return real_solve(*args, **kwargs)

        monkeypatch.setattr("obslab.ldp.solve_penalized", counting_solve)
        k = constant_control(200, 1, linear_problem.horizon, 1.0)
        with pytest.raises(ValueError, match="m=1 leaves the control ball"):
            condition_ii_test(linear_problem, k, 1.0, [1, 2, 4, 8, 16],
                              penalty_n=1e4, norm_sq_bound=0.6)
        assert solves == []


def _plain(rate):
    """`rate` with the zero control on its minimizer's mesh: under it, the
    Monte Carlo comparison is plain Monte Carlo."""
    k = rate.minimizer
    return dataclasses.replace(
        rate, minimizer=k.with_values(np.zeros_like(k.values)))


class TestMcCompare:
    @pytest.fixture(scope="class")
    def setup(self):
        problem = linear_additive()
        n_steps = 50
        shifted = solve_penalized(
            problem, constant_control(n_steps, 1, problem.horizon, 1.2),
            1e4)
        event = TargetEvent(center=Field(shifted.traj.values[0],
                                         problem.grid),
                            radius=0.02)
        rate = minimize_rate(problem, event, n_steps=n_steps, penalty_n=1e4)
        return problem, event, rate, n_steps

    def test_plain_and_importance_agree(self, setup):
        problem, event, rate, n_steps = setup
        plain = mc_ldp_compare(problem, event, _plain(rate), [0.4], 4000,
                               seed=1)
        weighted = mc_ldp_compare(problem, event, rate, [0.4], 4000, seed=2)
        p1, s1 = (plain["per_epsilon"][0][k] for k in ("p_hat", "std_error"))
        p2, s2 = (weighted["per_epsilon"][0][k]
                  for k in ("p_hat", "std_error"))
        assert abs(p1 - p2) <= 3.0 * np.hypot(s1, s2)

    def test_importance_reduces_variance_when_rare(self, setup):
        problem, event, rate, n_steps = setup
        eps = 0.05
        plain = mc_ldp_compare(problem, event, _plain(rate), [eps], 4000,
                               seed=3)
        weighted = mc_ldp_compare(problem, event, rate, [eps], 4000, seed=4)
        row_p = plain["per_epsilon"][0]
        row_w = weighted["per_epsilon"][0]
        assert row_w["p_hat"] < 1e-3
        # plain MC sees almost no hits here; its variance (p(1-p)) estimate
        # still dominates the importance-sampled one by far
        var_plain = max(row_p["std_error"]**2,
                        row_w["p_hat"] * (1 - row_w["p_hat"]) / 4000)
        assert var_plain >= 10.0 * row_w["std_error"]**2

    def test_weight_health_per_epsilon(self, setup):
        problem, event, rate, n_steps = setup
        for sampled in (_plain(rate), rate):
            rep = mc_ldp_compare(problem, event, sampled, [0.4], 1000, seed=6)
            row = rep["per_epsilon"][0]
            assert row["hits"] > 0
            # (sum w)^2 <= hits * sum w^2, with equality for 0/1 weights
            assert 1.0 <= row["ess"] <= row["hits"] * (1 + 1e-12)
            assert 1.0 / row["hits"] <= row["max_weight_share"] <= 1.0

    def test_zero_drift_is_plain_monte_carlo_exactly(self, setup):
        # under the zero control every likelihood ratio is exp(0) = 1, so
        # the weights are the 0/1 hit indicators of the stream
        problem, event, rate, _ = setup
        eps_list, n, seed = [0.4, 0.2, 0.05], 10000, 6
        plain = _plain(rate)
        report = mc_ldp_compare(problem, event, plain, eps_list, n, seed)
        assert report["importance"] is False
        assert report["per_epsilon"][0]["hits"] > 0
        table = _response_table(problem, 1e4, plain.minimizer)
        for i_eps, (eps, row) in enumerate(zip(eps_list,
                                               report["per_epsilon"])):
            results, _ = zip(*sample_terminal_states(
                problem, eps, 1e4, plain.minimizer, n, seed + i_eps,
                table=table))
            hit = event.contains_final(
                np.concatenate([res.final for res in results]))
            assert row["hits"] == np.count_nonzero(hit)
            assert row["p_hat"] == row["hits"] / n
            assert row["ess"] == row["hits"]
            assert row["std_error"] == float(
                np.std(hit.astype(float), ddof=1) / np.sqrt(n))

    def test_one_hit_is_not_reliable(self, setup):
        # plain Monte Carlo at eps = 0.05 (p about 9e-5) sees a single hit
        problem, event, rate, _ = setup
        row = mc_ldp_compare(problem, event, _plain(rate), [0.05], 10000,
                             seed=2)["per_epsilon"][0]
        assert row["hits"] == 1 and row["ess"] == 1.0
        assert row["eps_log_p"] is not None
        assert row["reliable"] is False

    def test_overshooting_drift_is_not_reliable(self, setup):
        # importance sampling under twice the minimizer's drift overshoots
        # the bundled centre; in the ball of radius 0.1 about it, 35 of 1000
        # samples at eps = 0.1 land, but a few weights carry the estimate
        # (ESS 4.7, largest share 0.41)
        problem, event, rate, _ = setup
        wide = TargetEvent(center=event.center, radius=0.1)
        k = rate.minimizer
        overshoot = dataclasses.replace(
            rate, minimizer=k.with_values(2.0 * k.values))
        row, = mc_ldp_compare(problem, wide, overshoot, [0.1], 1000,
                              seed=1)["per_epsilon"]
        assert row["hits"] >= RELIABLE_ESS
        assert row["ess"] < RELIABLE_ESS
        assert row["reliable"] is False

    @pytest.mark.parametrize("importance", [False, True])
    def test_per_epsilon_numbers_are_the_streams_weights(self, setup,
                                                         importance):
        # the bundled sweep's ends, recomputed from each stream's finals and
        # increments: seed + the epsilon's index, the sweep's table, the
        # exact likelihood ratio, and the weights summed as they are
        problem, event, rate, n_steps = setup
        eps_list, n, seed = [0.4, 0.05], 10000, 42
        rate = rate if importance else _plain(rate)
        report = mc_ldp_compare(problem, event, rate, eps_list, n, seed)
        k = rate.minimizer
        table = _response_table(problem, 1e4, k)
        for i_eps, (eps, row) in enumerate(zip(eps_list,
                                               report["per_epsilon"])):
            results, incs = zip(*sample_terminal_states(
                problem, eps, 1e4, k, n, seed + i_eps, table=table))
            hit = event.contains_final(
                np.concatenate([res.final for res in results]))
            w = hit.astype(float)
            if importance:
                dot = np.einsum("sij,ij->s", np.concatenate(incs), k.values)
                w = w * np.exp(-dot / np.sqrt(eps)
                               - k.k_norm_sq() / (2.0 * eps))
            assert row["hits"] == np.count_nonzero(hit)
            assert row["p_hat"] == float(np.mean(w))
            assert row["std_error"] == float(np.std(w, ddof=1) / np.sqrt(n))
            assert row["ess"] == kish_ess(w)
            if row["hits"]:
                assert row["max_weight_share"] == float(np.max(w) / np.sum(w))

    @pytest.mark.parametrize("importance", [False, True])
    def test_streams_march_at_the_rate_results_mesh_and_penalty(
            self, setup, importance, monkeypatch):
        problem, event, _, _ = setup
        rate = minimize_rate(problem, event, n_steps=100, penalty_n=1e3)
        assert rate.feasible and rate.penalty_n == 1e3
        swept = []

        def recorded(problem, epsilon_list, penalty_n, control, *args,
                     **kwargs):
            swept.append((control.n_steps, penalty_n))
            return iter(())

        monkeypatch.setattr(obslab.ldp, "sweep_epsilon", recorded)
        mc_ldp_compare(problem, event, rate if importance else _plain(rate),
                       [0.4], 100, seed=0)
        assert swept == [(100, 1e3)]

    def test_whole_space_event_probability_one(self, setup):
        problem, _, _, n_steps = setup
        base = solve_penalized(problem, zero(problem, n_steps), 1e4)
        everything = TargetEvent(center=Field(base.traj.values[0],
                                              problem.grid),
                                 radius=1e6)
        inside = minimize_rate(problem, everything, n_steps=n_steps,
                               penalty_n=1e4)
        rep = mc_ldp_compare(problem, everything, inside, [0.4, 0.2], 500,
                             seed=5)
        for row in rep["per_epsilon"]:
            assert row["p_hat"] == 1.0
            assert row["eps_log_p"] == 0.0


class TestKishEss:
    def test_hand_made_weights(self):
        assert kish_ess(np.array([1.0, 1.0, 1.0, 1.0])) == 4.0
        assert kish_ess(np.array([3.0, 0.0, 0.0, 0.0])) == 1.0
        # (2 + 1 + 1)^2 / (4 + 1 + 1)
        assert kish_ess(np.array([2.0, 1.0, 1.0, 0.0])) == pytest.approx(8 / 3)
        assert kish_ess(np.zeros(5)) == 0.0

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.just(0.0),
                              st.floats(min_value=1e-50, max_value=1e50)),
                    min_size=1, max_size=40))
    def test_bits_of_the_unscaled_formula_on_normal_squares(self, values):
        # every square and every scaled square is a normal number here
        w = np.array(values)
        total = float(np.sum(w))
        expected = 0.0 if total <= 0.0 else \
            total * total / float(np.sum(w * w))
        assert kish_ess(w).hex() == expected.hex()

    @pytest.mark.parametrize("size", [1e-170, 1e-160])
    def test_tiny_weights_read_as_their_power_of_two_multiples(self, size):
        # 1e-170 squared underflows to 0 and 1e-160 squared is subnormal;
        # times 2^600 both square to normal numbers
        w = size * np.random.default_rng(0).uniform(0.5, 2.0, 50)
        assert kish_ess(w) == kish_ess(np.ldexp(w, 600))
        assert kish_ess(np.full(10, size)) == pytest.approx(10.0, rel=1e-15)

    def test_importance_weights_below_1e_162_read(self):
        # the bundled event under importance sampling at eps = 7e-4: every
        # hit's weight is below 1e-162, where the squares underflow to 0
        problem = linear_additive()
        shifted = solve_penalized(
            problem, constant_control(50, 1, problem.horizon, 1.2), 1e4)
        event = TargetEvent(Field(shifted.traj.values[0], problem.grid), 0.02)
        rate = minimize_rate(problem, event, n_steps=50, penalty_n=1e4)
        row, = mc_ldp_compare(problem, event, rate, [7e-4], 2000,
                              seed=1)["per_epsilon"]
        assert 0.0 < row["p_hat"] < 1e-162
        assert 1.0 <= row["ess"] <= row["hits"]
