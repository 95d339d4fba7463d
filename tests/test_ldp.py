"""Rate functional, constrained minimization, and rare-event Monte Carlo."""
import numpy as np
import pytest

from obslab.families import heat_obstacle, linear_additive, make_problem
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
            event.hinge(_solution_values(problem, template.with_values(v),
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

    def test_self_centered_event_has_zero_rate(self, problem):
        base = solve_penalized(problem, None, 1e4, n_steps=50)
        event = TargetEvent(center=Field(base.traj.values[0], problem.grid),
                            radius=0.05)
        res = minimize_rate(problem, event,
                            opt_config={"n_steps": 50, "penalty_n": 1e4})
        assert res.feasible
        assert res.rate <= 1e-6

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

    def test_matches_least_norm_oracle(self, problem):
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
        assert res.feasible
        assert abs(res.rate - oracle) / oracle <= 0.02


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
