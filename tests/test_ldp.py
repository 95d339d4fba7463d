"""Rate functional, constrained minimization, and rare-event Monte Carlo."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import obslab.ldp
from obslab.families import (heat_obstacle, linear_additive, make_problem,
                             quasilinear_full)
from obslab.grid import Field, h_norm_array
from obslab.ldp import (TargetEvent, _batched_hinges, _solution_values,
                        condition_ii_test, mc_ldp_compare, minimize_rate,
                        rate_functional)
from obslab.skeleton import constant_control, solve_penalized, zero_control


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
    base = solve_penalized(problem, None, penalty_n, n_steps=n_steps)
    u0 = base.traj.values[0]

    dim = n_steps * J
    cols = np.empty((len(u0), dim))
    k = zero_control(n_steps, J, problem.horizon)
    for idx in range(dim):
        vals = np.zeros((n_steps, J))
        vals[idx // J, idx % J] = 1.0
        sol = solve_penalized(problem, k.with_values(vals), penalty_n,
                              n_steps=n_steps)
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
        inside = event.contains_final(states, grid)
        hinge = event.hinge(states, grid)
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
        excess = event.excess(states, grid)
        np.testing.assert_allclose(excess, [-0.25, 0.0, 1.5], atol=1e-14)
        assert np.array_equal(event.hinge(states, grid),
                              np.maximum(0.0, excess))
        assert np.array_equal(event.contains_final(states, grid),
                              excess <= 0.0)

    def test_radius_must_be_positive(self, linear_problem):
        center = Field(np.zeros(linear_problem.grid.n_nodes),
                       linear_problem.grid)
        with pytest.raises(ValueError):
            TargetEvent(center=center, radius=0.0)

    @pytest.mark.parametrize("family, atol", [("heat_obstacle", 0.0),
                                              ("linear_additive", 0.0),
                                              ("quasilinear_full", 1e-12)])
    def test_gradient_rows_match_objective_solves(self, family, atol):
        # the finite-difference gradient and the objective evaluate the
        # same function of the control
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
                                          1e4), problem.grid)
            for v in values])
        assert np.all(single > 0.0)
        if atol == 0.0:
            assert np.array_equal(batched, single)
        else:
            # the batched and single mode sums may round differently
            np.testing.assert_allclose(batched, single, rtol=0.0, atol=atol)


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
            1e4, n_steps=n_steps)
        event = TargetEvent(center=Field(shifted.traj.values[0],
                                         problem.grid),
                            radius=0.02)
        oracle = least_norm_oracle(problem, event, n_steps)
        res = minimize_rate(problem, event,
                            opt_config={"n_steps": n_steps,
                                        "penalty_n": 1e4})
        return event, oracle, res

    def test_self_centered_event_has_zero_rate(self, problem):
        base = solve_penalized(problem, None, 1e4, n_steps=50)
        event = TargetEvent(center=Field(base.traj.values[0], problem.grid),
                            radius=0.05)
        res = minimize_rate(problem, event,
                            opt_config={"n_steps": 50, "penalty_n": 1e4})
        assert res.feasible
        assert res.rate <= 1e-6

    def test_start_inside_ball_is_one_march_and_no_solve(self, problem,
                                                          monkeypatch):
        base = solve_penalized(problem, None, 1e4, n_steps=50)
        event = TargetEvent(center=Field(base.traj.values[0], problem.grid),
                            radius=0.05)
        marches = []
        real_march = obslab.ldp.march

        def counting_march(*args, **kwargs):
            marches.append(kwargs.get("control_values"))
            return real_march(*args, **kwargs)

        def no_solver(*args, **kwargs):
            raise AssertionError("the solver ran for a start inside the ball")

        monkeypatch.setattr("obslab.ldp.march", counting_march)
        monkeypatch.setattr("obslab.ldp.minimize", no_solver)
        res = minimize_rate(problem, event,
                            opt_config={"n_steps": 50, "penalty_n": 1e4})
        # one single-system march: control values (n_steps, J), no batch
        assert len(marches) == 1 and marches[0].ndim == 2
        assert res.feasible and res.rate == 0.0
        assert res.constraint_residual == 0.0
        assert not np.any(res.minimizer.values)

    def test_iteration_limit_is_never_feasible(self, problem, bundled):
        event, _, _ = bundled
        # one SQP iteration gets close to the ball (residual about 1e-5)
        # but is not a solution
        res = minimize_rate(problem, event,
                            opt_config={"n_steps": 50, "penalty_n": 1e4,
                                        "max_iters": 1})
        assert not res.feasible
        assert res.rate == np.inf
        assert res.message == "Iteration limit reached"
        assert len(res.lambda_history) == 1

    def test_unknown_opt_config_key_rejected(self, problem):
        center = Field(np.zeros(problem.grid.n_nodes), problem.grid)
        event = TargetEvent(center=center, radius=0.05)
        with pytest.raises(ValueError, match="solver"):
            minimize_rate(problem, event, opt_config={"solver": "skeleton"})

    def test_unreachable_event_is_infinite(self):
        # no noise modes act on heat_obstacle, so no control moves u at all
        prob = heat_obstacle()
        far = Field(np.full(prob.grid.n_nodes, 10.0), prob.grid)
        event = TargetEvent(center=far, radius=0.01)
        res = minimize_rate(prob, event,
                            opt_config={"n_steps": 50, "penalty_n": 1e4})
        assert not res.feasible
        assert res.rate == np.inf
        assert res.message == "Positive directional derivative for linesearch"
        assert res.lambda_history

    def test_matches_least_norm_oracle(self, bundled):
        _, oracle, res = bundled
        assert res.feasible
        assert abs(res.rate - oracle) / oracle <= 0.02

    def test_lands_on_the_oracle_with_zero_residual(self, bundled):
        # the rate of a feasible point, not of the most infeasible
        # acceptable one
        _, oracle, res = bundled
        assert res.feasible
        assert abs(res.rate - oracle) / oracle <= 1e-4
        assert res.constraint_residual <= 1e-8


class TestBindingBarrier:
    """A reachable event on quasilinear_full whose minimizer presses the
    state into the barrier.  The penalty term makes the terminal map kinked
    there, so the forward-difference Jacobian is inexact; the solve must
    still come back feasible and optimal."""

    @pytest.fixture(scope="class")
    def solved(self):
        problem = quasilinear_full(n_nodes=101, obstacle_amplitude=0.8)
        n_steps = 20
        generator = constant_control(n_steps, problem.coefficients.n_modes,
                                     problem.horizon, -2.0)
        shifted = solve_penalized(problem, generator, 1e4, n_steps=n_steps)
        event = TargetEvent(center=Field(shifted.traj.values[0],
                                         problem.grid),
                            radius=0.02)
        res = minimize_rate(problem, event,
                            opt_config={"n_steps": n_steps,
                                        "penalty_n": 1e4})
        return problem, event, generator, res

    def test_barrier_binds_at_the_minimizer(self, solved):
        problem, _, _, res = solved
        sol = solve_penalized(problem, res.minimizer, 1e4,
                              n_steps=res.minimizer.n_steps)
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
        rep = condition_ii_test(linear_problem, k, 1.0, [1, 2, 4, 8])
        assert rep["monotone_decreasing"]
        witnesses = [r["witness_integral"] for r in rep["rows"]]
        assert all(a > b for a, b in zip(witnesses, witnesses[1:]))

    def test_ball_violation_rejected(self, linear_problem):
        k = constant_control(100, 1, linear_problem.horizon, 1.0)
        with pytest.raises(ValueError):
            condition_ii_test(linear_problem, k, 5.0, [1], ball_radius=1.0)


class TestMcCompare:
    @pytest.fixture(scope="class")
    def setup(self):
        problem = linear_additive()
        n_steps = 50
        shifted = solve_penalized(
            problem, constant_control(n_steps, 1, problem.horizon, 1.2),
            1e4, n_steps=n_steps)
        event = TargetEvent(center=Field(shifted.traj.values[0],
                                         problem.grid),
                            radius=0.02)
        rate = minimize_rate(problem, event,
                             opt_config={"n_steps": n_steps,
                                         "penalty_n": 1e4})
        return problem, event, rate, n_steps

    def test_plain_and_importance_agree(self, setup):
        problem, event, rate, n_steps = setup
        plain = mc_ldp_compare(problem, event, [0.4], 4000, seed=1,
                               use_importance=False, rate_result=rate,
                               n_steps=n_steps)
        weighted = mc_ldp_compare(problem, event, [0.4], 4000, seed=2,
                                  use_importance=True, rate_result=rate,
                                  n_steps=n_steps)
        p1, s1 = (plain["per_epsilon"][0][k] for k in ("p_hat", "std_error"))
        p2, s2 = (weighted["per_epsilon"][0][k]
                  for k in ("p_hat", "std_error"))
        assert abs(p1 - p2) <= 3.0 * np.hypot(s1, s2)

    def test_importance_reduces_variance_when_rare(self, setup):
        problem, event, rate, n_steps = setup
        eps = 0.05
        plain = mc_ldp_compare(problem, event, [eps], 4000, seed=3,
                               use_importance=False, rate_result=rate,
                               n_steps=n_steps)
        weighted = mc_ldp_compare(problem, event, [eps], 4000, seed=4,
                                  use_importance=True, rate_result=rate,
                                  n_steps=n_steps)
        row_p = plain["per_epsilon"][0]
        row_w = weighted["per_epsilon"][0]
        assert row_w["p_hat"] < 1e-3
        # plain MC sees almost no hits here; its variance (p(1-p)) estimate
        # still dominates the importance-sampled one by far
        var_plain = max(row_p["std_error"]**2,
                        row_w["p_hat"] * (1 - row_w["p_hat"]) / 4000)
        assert var_plain >= 10.0 * row_w["std_error"]**2

    def test_whole_space_event_probability_one(self, setup):
        problem, _, _, n_steps = setup
        base = solve_penalized(problem, None, 1e4, n_steps=n_steps)
        everything = TargetEvent(center=Field(base.traj.values[0],
                                              problem.grid),
                                 radius=1e6)
        rep = mc_ldp_compare(problem, everything, [0.4, 0.2], 500, seed=5,
                             n_steps=n_steps)
        for row in rep["per_epsilon"]:
            assert row["p_hat"] == 1.0
            assert row["eps_log_p"] == 0.0
