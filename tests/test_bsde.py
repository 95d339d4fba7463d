"""Backward-representation residual and stochastic-integral identities."""
import dataclasses

import numpy as np
import pytest

from obslab.bsde import (bsde_residual, coarsen, sample_paths,
                         star_integral_check)
from obslab.families import quasilinear_full
from obslab.grid import Grid, Trajectory
from obslab.skeleton import solve_penalized

from test_stepping import free_heat_problem


class TestPathEnsemble:
    def test_paths_start_uniform_and_stay_boxed(self):
        ens = sample_paths(500, 100, 0.5, Grid(-4.0, 4.0, 101), seed=1)
        assert ens.paths.shape == (500, 101)
        assert np.all(ens.paths >= -4.0) and np.all(ens.paths <= 4.0)
        starts = ens.paths[:, 0]
        assert np.min(starts) < -3.5 and np.max(starts) > 3.5

    def test_alive_flags_monotone(self):
        ens = sample_paths(300, 80, 1.0, Grid(-1.0, 1.0, 51), seed=2)
        alive = ens.alive.astype(int)
        assert np.all(np.diff(alive, axis=1) <= 0)

    def test_coarsen_subsamples_consistently(self):
        ens = sample_paths(50, 80, 0.5, Grid(-4.0, 4.0, 101), seed=3)
        half = coarsen(ens, 2)
        assert half.paths.shape == (50, 41)
        assert np.array_equal(half.paths, ens.paths[:, ::2])
        assert np.allclose(half.times, ens.times[::2])


class TestResidual:
    def test_all_zero_problem_machine_zero(self):
        # A constant state with all coefficients off: the march preserves it
        # away from the Dirichlet truncation, and Y constant / Z = 0 makes
        # every residual term vanish.  A short horizon keeps the boundary
        # layer away from the interior paths.
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        prob = free_heat_problem(101, one, horizon=0.01)
        sol = solve_penalized(prob, None, 1e4, n_steps=50)
        ens = sample_paths(200, 50, prob.horizon, prob.grid, seed=4)
        inner = np.all(np.abs(ens.paths) < 2.0, axis=1)
        ens_in = type(ens)(paths=ens.paths[inner], alive=ens.alive[inner],
                           times=ens.times, grid=ens.grid, seed=ens.seed)
        assert bsde_residual(sol, ens_in) < 1e-10

    def test_perturbed_solution_increases_residual(self):
        # Gentle terminal datum so the base residual (set by solution
        # curvature) is small, then the 0.1 sin(pi x) perturbation's much
        # larger curvature dominates.
        terminal = lambda x: 0.1 * np.exp(-np.asarray(x, dtype=float)**2 / 8.0)
        prob = free_heat_problem(201, terminal, horizon=0.5)
        sol = solve_penalized(prob, None, 1e4, n_steps=200)
        ens = sample_paths(1000, 200, prob.horizon, prob.grid, seed=5)
        base = bsde_residual(sol, ens)

        bad_vals = sol.traj.values + 0.1 * np.sin(np.pi * prob.grid.x)
        bad_traj = Trajectory(sol.traj.times, bad_vals, prob.grid)
        bad = dataclasses.replace(sol, traj=bad_traj)
        assert bsde_residual(bad, ens) >= 5.0 * base

    def test_mesh_mismatch_rejected(self, linear_problem):
        sol = solve_penalized(linear_problem, None, 1e4, n_steps=100)
        ens = sample_paths(10, 50, linear_problem.horizon,
                           linear_problem.grid, seed=6)
        with pytest.raises(ValueError):
            bsde_residual(sol, ens)

    def test_order_half_under_refinement(self):
        levels = ((50, 51), (100, 101), (200, 201), (400, 401))
        sols = {ns: solve_penalized(quasilinear_full(n_nodes=nn), None, 1e4,
                                    n_steps=ns) for ns, nn in levels}
        T = 0.3
        fine = sample_paths(3000, 400, T, Grid(-4.0, 4.0, 401), seed=11)
        res = np.array([bsde_residual(sols[ns], coarsen(fine, 400 // ns))
                        for ns, _ in levels])
        dts = T / np.array([lv[0] for lv in levels], dtype=float)
        order = np.polyfit(np.log(dts), np.log(res), 1)[0]
        assert order >= 0.5


class TestStarIntegral:
    def test_constant_field_gap_is_pure_martingale(self):
        # J constant c: forward and backward sums both telescope to
        # c (W_T - W_0), the drift term is zero, so the gap per path is
        # exactly 2 c (W_T - W_0).
        ens = sample_paths(500, 100, 0.5, Grid(-8.0, 8.0, 161), seed=7)
        c = 0.7
        J = lambda t, x: np.full_like(np.asarray(x, dtype=float), c)
        dJ = lambda t, x: np.zeros_like(np.asarray(x, dtype=float))
        rep = star_integral_check(J, dJ, ens)
        full = np.all(ens.alive, axis=1)
        expected = 2.0 * c * (ens.paths[full, -1] - ens.paths[full, 0])
        assert rep["mean_gap"] == pytest.approx(np.mean(expected), abs=1e-12)

    def test_linear_field_matches_ito_closed_form(self):
        # J(t,x) = x on interior starts: the two-sided sum telescopes to
        # W_T^2 - W_0^2 with mean T, while the drift comparator is -2T, so
        # the signed mean gap is 3T for surviving paths.
        T = 0.5
        ens = sample_paths(8000, 200, T, Grid(-8.0, 8.0, 161), seed=7)
        inner = np.abs(ens.paths[:, 0]) < 5.0  # keep exits negligible
        ens_in = type(ens)(paths=ens.paths[inner], alive=ens.alive[inner],
                           times=ens.times, grid=ens.grid, seed=ens.seed)
        J = lambda t, x: np.asarray(x, dtype=float)
        dJ = lambda t, x: np.ones_like(np.asarray(x, dtype=float))
        rep = star_integral_check(J, dJ, ens_in)
        assert rep["mean_gap"] == pytest.approx(3.0 * T,
                                                abs=3.0 * rep["std_error"])

    def test_even_field_gap_centered(self):
        # Symmetric initial law and even J: the drift term is odd, so the
        # signed gap is centered at zero; this is the bundled-profile check.
        ens = sample_paths(10000, 400, 0.5, Grid(-4.0, 4.0, 101), seed=3)
        J = lambda t, x: np.exp(-np.asarray(x, dtype=float)**2)
        dJ = lambda t, x: -2.0 * np.asarray(x, dtype=float) * \
            np.exp(-np.asarray(x, dtype=float)**2)
        rep = star_integral_check(J, dJ, ens)
        assert abs(rep["mean_gap"]) <= 3.0 * rep["std_error"]

