"""Backward-representation residual and stochastic-integral identities."""
import dataclasses

import numpy as np
import pytest

from obslab.bsde import (PathEnsemble, bsde_residual, coarsen, sample_paths,
                         star_integral_check)
from obslab.families import make_problem, quasilinear_full
from obslab.grid import Bracket, Grid, Trajectory, gradient_array
from obslab.skeleton import Control, solve_penalized, solve_projected

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

    @pytest.mark.parametrize("factor", [0, -1])
    def test_coarsen_factor_below_one_rejected(self, factor):
        ens = sample_paths(5, 6, 0.3, Grid(-4.0, 4.0, 11), seed=3)
        with pytest.raises(ValueError, match="factor"):
            coarsen(ens, factor)


# -- one step at a time: the oracles of the blocked read-off ----------------

def residual_per_step(sol, ensemble):
    """`bsde_residual`, one step and its alive paths at a time."""
    problem = sol.problem
    grid = problem.grid
    co = problem.coefficients
    dt = ensemble.dt
    x = grid.x
    residuals = []
    for i in range(len(ensemble.times) - 1):
        use = ensemble.alive[:, i + 1]
        if not np.any(use):
            continue
        w_i = ensemble.paths[use, i]
        w_ip = ensemble.paths[use, i + 1]
        dW = w_ip - w_i
        t = float(ensemble.times[i])
        at_i = Bracket(x, w_i)
        u_level = sol.traj.values[i]
        ux_level = gradient_array(u_level, grid.h)
        Y = at_i.read(u_level)
        Y_next = Bracket(x, w_ip).read(sol.traj.values[i + 1])
        Z = at_i.read(ux_level)
        fval = np.asarray(co.f(t, w_i, Y, Z), dtype=float) + np.zeros_like(Y)
        hval = np.asarray(co.h_shape(t, w_i, Y, Z), dtype=float) \
            + np.zeros_like(Y)
        hk = hval * float(co.mode_weights @ sol.control.values[i])
        S = np.asarray(problem.obstacle(t, w_i), dtype=float) \
            + np.zeros_like(Y)
        pen = sol.n * np.maximum(S - Y, 0.0)
        g_nodes = np.asarray(co.g(t, x, u_level, ux_level), dtype=float) \
            + np.zeros_like(x)
        div_g = at_i.read(gradient_array(g_nodes, grid.h))
        r = Y - Y_next - dt * (fval + hk + pen) + dt * div_g + Z * dW
        residuals.append(r)
    r_all = np.concatenate(residuals)
    return float(np.sqrt(np.mean(r_all**2)) / np.sqrt(dt))


def star_per_step(J_field, dJdx, ensemble):
    """`star_integral_check`'s report, one step at a time."""
    dt = ensemble.dt
    n_steps = len(ensemble.times) - 1
    gaps = np.zeros(ensemble.n_paths)
    weight = np.zeros(ensemble.n_paths)
    for i in range(n_steps):
        use = ensemble.alive[:, i + 1]
        w_i = ensemble.paths[:, i]
        w_ip = ensemble.paths[:, i + 1]
        dW = np.where(use, w_ip - w_i, 0.0)
        t0, t1 = float(ensemble.times[i]), float(ensemble.times[i + 1])
        fb = (np.asarray(J_field(t0, w_i), dtype=float)
              + np.asarray(J_field(t1, w_ip), dtype=float)) * dW
        drift = -2.0 * np.asarray(dJdx(t0, w_i), dtype=float) * dt * use
        gaps += np.where(use, fb - drift, 0.0)
        weight += use
    g = gaps[weight == n_steps]
    return {"mean_gap": float(np.mean(g)),
            "std_error": float(np.std(g, ddof=1) / np.sqrt(len(g))),
            "mean_abs_gap": float(np.mean(np.abs(g))),
            "n_paths_used": int(len(g))}


def _bits(report):
    return {k: float(v).hex() for k, v in report.items()}


def _dead_from(ens, node):
    """`ens` with every path stopped from time node `node` on."""
    alive = ens.alive.copy()
    alive[:, node:] = False
    return dataclasses.replace(ens, alive=alive)


# the families, the last pressing a 0.8 barrier under a two-mode control
FAMILY_CASES = [("heat_obstacle", {}, None),
                ("linear_additive", {}, None),
                ("quasilinear_full", {"obstacle_amplitude": 0.8},
                 (1.5, -0.75))]


class TestBlockedReadOff:
    """The step blocks give the bits of the one-step-at-a-time oracles,
    whether the last block is partial, single or full."""

    @pytest.mark.parametrize("n_steps", [7, 16, 50])
    @pytest.mark.parametrize("family,overrides,modes", FAMILY_CASES)
    def test_residual_bits_match_per_step(self, family, overrides, modes,
                                          n_steps):
        prob = make_problem(family, n_nodes=51, **overrides)
        control = None
        if modes is not None:
            values = np.zeros((n_steps, prob.coefficients.n_modes))
            values[:, :2] = modes
            control = Control(np.linspace(0.0, prob.horizon, n_steps + 1),
                              values)
        sol = solve_penalized(prob, control, 1e4, n_steps=n_steps)
        # a 2.5 box inside the grid's: about a third of the paths exit,
        # most of them inside a block
        ens = sample_paths(400, n_steps, prob.horizon, Grid(-2.5, 2.5, 51),
                           seed=n_steps)
        exits = np.count_nonzero(ens.alive[:, 1:-1] & ~ens.alive[:, 2:],
                                 axis=0)
        assert exits[np.arange(n_steps - 1) % 16 != 15].sum() > 0
        assert bsde_residual(sol, ens).hex() == \
            residual_per_step(sol, ens).hex()

    def test_residual_skips_a_block_with_no_alive_segment(self):
        prob = quasilinear_full(n_nodes=51, obstacle_amplitude=0.8)
        sol = solve_penalized(prob, None, 1e4, n_steps=50)
        ens = _dead_from(sample_paths(400, 50, prob.horizon, prob.grid,
                                      seed=4), 20)
        # steps 32 ... 47 form one block, and no path is alive in it
        assert not ens.alive[:, 33:49].any()
        assert bsde_residual(sol, ens).hex() == \
            residual_per_step(sol, ens).hex()

    def test_residual_of_no_alive_segment_rejected(self):
        prob = quasilinear_full(n_nodes=51)
        sol = solve_penalized(prob, None, 1e4, n_steps=20)
        ens = _dead_from(sample_paths(40, 20, prob.horizon, prob.grid,
                                      seed=4), 1)
        with pytest.raises(ValueError, match="no surviving"):
            bsde_residual(sol, ens)

    @pytest.mark.parametrize("n_steps", [7, 16, 50])
    def test_star_bits_match_per_step(self, n_steps):
        # a t-dependent field on a box that about a third of paths leave
        J = lambda t, x: (1.0 + t) * np.exp(-x**2)
        dJ = lambda t, x: -2.0 * (1.0 + t) * x * np.exp(-x**2)
        ens = sample_paths(2000, n_steps, 0.5, Grid(-1.5, 1.5, 31),
                           seed=n_steps)
        assert 0 < np.count_nonzero(ens.alive[:, -1]) < 0.8 * ens.n_paths
        assert _bits(star_integral_check(J, dJ, ens)) == \
            _bits(star_per_step(J, dJ, ens))


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

    def test_projection_solution_rejected(self):
        # n = inf: the penalty term would read inf * 0 = NaN
        prob = quasilinear_full(n_nodes=51, obstacle_amplitude=0.8)
        sol = solve_projected(prob, None, n_steps=50)
        ens = sample_paths(300, 50, prob.horizon, prob.grid, seed=0)
        with pytest.raises(ValueError, match="needs a penalized solution"):
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

    def test_one_surviving_path_rejected(self):
        # path 1 leaves the box at the last node, so one gap is left: a
        # sample standard deviation of it is NaN
        grid = Grid(-1.0, 1.0, 21)
        paths = np.array([[0.0, 0.1, 0.2], [0.5, 0.9, 1.0]])
        alive = np.array([[True, True, True], [True, True, False]])
        ens = PathEnsemble(paths, alive, np.array([0.0, 0.1, 0.2]), grid, 0)
        J = lambda t, x: np.asarray(x, dtype=float)
        dJ = lambda t, x: np.ones_like(np.asarray(x, dtype=float))
        with pytest.raises(ValueError, match="two surviving paths"):
            star_integral_check(J, dJ, ens)

    def test_even_field_gap_centered(self):
        # Symmetric initial law and even J: the drift term is odd, so the
        # signed gap is centered at zero; this is the bundled-profile check.
        ens = sample_paths(10000, 400, 0.5, Grid(-4.0, 4.0, 101), seed=3)
        J = lambda t, x: np.exp(-np.asarray(x, dtype=float)**2)
        dJ = lambda t, x: -2.0 * np.asarray(x, dtype=float) * \
            np.exp(-np.asarray(x, dtype=float)**2)
        rep = star_integral_check(J, dJ, ens)
        assert abs(rep["mean_gap"]) <= 3.0 * rep["std_error"]

