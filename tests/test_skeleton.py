"""Penalized and projected solvers, their limit, and complementarity."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from obslab.families import make_problem
from obslab.grid import ht_distance
from obslab.skeleton import (Control, complementarity_residual,
                             constant_control, solve_penalized,
                             solve_projected, solve_skeleton, zero_control)


class TestControl:
    def test_norm_and_ball(self):
        k = constant_control(100, 2, 1.0, 0.5, mode=0)
        # dt * sum v^2 = 1.0 * 0.25 over one mode
        assert k.k_norm_sq() == pytest.approx(0.25)
        assert k.in_ball(0.25 + 1e-12)
        assert not k.in_ball(0.2)

    def test_rejects_non_finite(self):
        vals = np.zeros((10, 1))
        vals[3, 0] = np.nan
        with pytest.raises(ValueError):
            Control(np.linspace(0, 1, 11), vals)

    def test_zero_control(self):
        k = zero_control(20, 3, 0.5)
        assert k.k_norm_sq() == 0.0
        assert k.values.shape == (20, 3)


class TestAgainstProjection:
    def test_inactive_obstacle_projection_is_identity(self, linear_problem):
        pen = solve_penalized(linear_problem, None, 1e6, n_steps=200)
        proj = solve_projected(linear_problem, None, n_steps=200)
        assert ht_distance(pen.traj, proj.traj) <= 1e-8

    def test_projection_respects_barrier_exactly(self, heat_problem):
        proj = solve_projected(heat_problem, None, n_steps=200)
        # all interior times sit on or above the zero barrier
        assert float(np.min(proj.traj.values[:-1])) >= 0.0

    def test_large_n_agrees_with_projection(self, heat_problem):
        pen = solve_penalized(heat_problem, None, 1e5, n_steps=400)
        proj = solve_projected(heat_problem, None, n_steps=400)
        assert ht_distance(pen.traj, proj.traj) <= 1e-2


class TestSkeletonLimit:
    def test_schedule_without_a_doubling_rejected(self, heat_problem):
        with pytest.raises(ValueError, match=r"n0=10000 .* n_max=15000"):
            solve_skeleton(heat_problem, None, n_steps=20, n0=1e4, n_max=1.5e4)

    @pytest.mark.parametrize("family", ["heat_problem", "linear_problem",
                                        "quasilinear_problem"])
    def test_limit_matches_projection(self, family, request):
        prob = request.getfixturevalue(family)
        sk = solve_skeleton(prob, None, n_steps=200, tol=1e-3)
        proj = solve_projected(prob, None, n_steps=200)
        assert sk.converged
        assert ht_distance(sk.traj, proj.traj) <= 2e-3

    def test_inactive_obstacle_converges_first_doubling(self, linear_problem):
        sk = solve_skeleton(linear_problem, None, n_steps=100, tol=1e-3)
        assert sk.n == 2000
        assert sk.cauchy_gap <= 1e-6

    def test_cauchy_history_decreasing(self, heat_problem):
        sk = solve_skeleton(heat_problem, None, n_steps=200, tol=1e-4)
        gaps = [g for _, g in sk.cauchy_history]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_unconverged_schedule_returns_the_last_solve(self, heat_problem):
        with pytest.warns(RuntimeWarning, match="hit n_max=4000"):
            sk = solve_skeleton(heat_problem, None, n_steps=200, tol=1e-6,
                                n0=1e3, n_max=4e3)
        assert sk.converged is False
        assert sk.n == 4000
        assert sk.cauchy_gap == sk.cauchy_history[-1][1]
        assert sk.cauchy_gap > 1e-6
        last = solve_penalized(heat_problem, None, 4000, n_steps=200)
        assert np.array_equal(sk.density.values, last.density.values)


class TestComplementarity:
    def test_positive_negative_parts_disjoint(self, heat_problem):
        sol = solve_penalized(heat_problem, None, 1e4, n_steps=200)
        gap = sol.traj.values[:-1] - 0.0  # barrier is zero before T
        assert np.all(np.maximum(gap, 0.0) * np.maximum(-gap, 0.0) == 0.0)

    def test_residual_decreases_with_n(self, heat_problem):
        res = [complementarity_residual(
            solve_penalized(heat_problem, None, n, n_steps=200))
            for n in (1e3, 1e4, 1e5)]
        assert all(a >= b for a, b in zip(res, res[1:]))
        assert res[-1] < 1e-3

    def test_projection_residual_near_zero(self, heat_problem):
        proj = solve_projected(heat_problem, None, n_steps=200)
        assert complementarity_residual(proj) <= 1e-10


class TestPenaltyDecay:
    def test_half_order_rate(self, heat_problem):
        ns = np.array([1e3, 1e4, 1e5, 1e6])
        norms = np.array([
            solve_penalized(heat_problem, None, n,
                            n_steps=200).penalty_l2
            for n in ns])
        exponent = -np.polyfit(np.log(ns), np.log(norms), 1)[0]
        assert 0.4 <= exponent <= 0.6
        scaled = ns * norms**2
        assert scaled.max() / scaled.min() < 3.0


class TestGapStatistics:
    @pytest.mark.parametrize("scheme", ["penalized", "projected"])
    def test_min_gap_is_min_of_stored_gap(self, heat_problem, scheme):
        n_steps = 100
        sol = (solve_penalized(heat_problem, None, 1e3, n_steps=n_steps)
               if scheme == "penalized"
               else solve_projected(heat_problem, None, n_steps=n_steps))
        times = np.linspace(0.0, heat_problem.horizon, n_steps + 1)
        table = np.array([heat_problem.obstacle_values(t)
                          for t in times[:-1]])
        assert sol.min_gap == np.min(sol.traj.values[:-1] - table)
        # the penalty lets the state dip below the barrier; projection does not
        if scheme == "projected":
            assert sol.min_gap >= 0.0
        else:
            assert sol.min_gap < 0.0
        pinned = {"penalized": -0.06239220191781412, "projected": 0.0}
        assert sol.min_gap == pinned[scheme]

    # the values the march's step-by-step accumulation gave before the
    # statistics were read from (u, density); min_gap is bit-identical
    @pytest.mark.parametrize("case, n, penalty_l2, min_gap", [
        ("heat", 1e3, 0.010367481931932923, -0.13774544207909892),
        ("heat", 1e4, 0.0035276504146092413, -0.016205346126952815),
        ("heat", 1e5, 0.0011254654318527733, -0.0016496460129233404),
        ("heat", 1e6, 0.00035622352431774994, -0.00016526147819927886),
        # L != 0 and the barrier binds under the control
        ("quasilinear", 1e3, 0.002342630017705353, -0.004921330132886759),
        ("quasilinear", 1e5, 0.00020537720947106478, -4.954466300810534e-05),
    ])
    def test_statistics_pinned(self, case, n, penalty_l2, min_gap):
        if case == "heat":
            prob, control, n_steps = make_problem("heat_obstacle"), None, 200
        else:
            prob = make_problem("quasilinear_full", n_nodes=101,
                                obstacle_amplitude=0.8)
            n_steps = 100
            control = constant_control(n_steps, prob.coefficients.n_modes,
                                       prob.horizon, -2.0, mode=0)
        sol = solve_penalized(prob, control, n, n_steps=n_steps)
        assert sol.penalty_l2 == pytest.approx(penalty_l2, rel=1e-12)
        assert sol.min_gap == min_gap

    def test_projection_has_no_penalty_norm(self, heat_problem):
        assert solve_projected(heat_problem, None, n_steps=200).penalty_l2 == 0.0


class TestPenaltyMonotone:
    @settings(max_examples=25, deadline=None)
    @given(family=st.sampled_from(["heat_obstacle", "quasilinear_full"]),
           n_nodes=st.integers(21, 201),
           stretch=st.floats(1.0, 3.0),
           log_n=st.lists(st.floats(1.0, 6.0), min_size=2, max_size=2,
                          unique=True))
    def test_solution_grows_with_the_penalty(self, family, n_nodes, stretch,
                                             log_n):
        # The penalty pushes u up towards the barrier, so n < n' gives
        # u_n <= u_n'.  The scheme keeps that order when its explicit
        # half-Laplacian weight 1 - dt/(2 h^2) is nonnegative: dt <= 2 h^2.
        params = {"obstacle_amplitude": 0.8} \
            if family == "quasilinear_full" else {}
        prob = make_problem(family, n_nodes=n_nodes, **params)
        n_steps = math.ceil(stretch * prob.horizon / (2.0 * prob.grid.h**2))
        assert prob.horizon / n_steps <= 2.0 * prob.grid.h**2
        low, high = (solve_penalized(prob, None, 10.0**e, n_steps=n_steps)
                     for e in sorted(log_n))
        assert np.all(high.traj.values >= low.traj.values - 1e-12)
