"""Backward-representation residual and stochastic-integral identities."""
import dataclasses
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from obslab import bsde, harness
from obslab.bsde import (PathEnsemble, bsde_residual, bsde_residuals,
                         coarsen, path_chunks, sample_paths,
                         star_integral_check)
from obslab.families import make_problem, quasilinear_full
from obslab.grid import Bracket, Grid, GridMismatchError, Trajectory, \
    gradient_array
from obslab.skeleton import Control, solve_penalized, solve_projected
from obslab.stepping import control_drive

from conftest import zero
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
        assert half.horizon == ens.horizon and half.n_steps == 40

    @pytest.mark.parametrize("horizon", [0.3, 0.5, 1.0])
    @pytest.mark.parametrize("factor", [1, 2, 4, 8])
    def test_power_of_two_coarsening_keeps_the_fine_nodes(self, horizon,
                                                          factor):
        # the coarse mesh is built afresh as time_mesh(T, 400 / f); by a
        # power of two it is the fine mesh's every f-th node, and its step
        # the fine node f, bit for bit, so the read-off keeps its bits
        ens = sample_paths(3, 400, horizon, Grid(-4.0, 4.0, 11), seed=3)
        coarse = coarsen(ens, factor)
        assert coarse.times.tobytes() == ens.times[::factor].tobytes()
        assert coarse.dt == ens.times[factor] - ens.times[0]

    @pytest.mark.parametrize("factor", [0, -1])
    def test_coarsen_factor_below_one_rejected(self, factor):
        ens = sample_paths(5, 6, 0.3, Grid(-4.0, 4.0, 11), seed=3)
        with pytest.raises(ValueError, match="factor"):
            coarsen(ens, factor)

    @pytest.mark.parametrize("field, value, message", [
        ("paths", np.zeros(4), "paths must be"),
        ("alive", np.ones((3, 4), dtype=int), "alive must be bool"),
        ("alive", np.ones((3, 5), dtype=bool), "alive must be bool"),
        ("horizon", np.linspace(0.0, 0.3, 4), "horizon must be a positive"),
    ])
    def test_inconsistent_shapes_rejected(self, field, value, message):
        parts = {"paths": np.zeros((3, 4)),
                 "alive": np.ones((3, 4), dtype=bool),
                 "horizon": 0.3,
                 "grid": Grid(-1.0, 1.0, 11)}
        parts[field] = value
        with pytest.raises(ValueError, match=message):
            PathEnsemble(**parts)


def sample_paths_one_draw(n_paths, n_steps, horizon, grid, seed):
    """`sample_paths` with every increment drawn at once: the oracle of the
    chunked draw."""
    gen = np.random.Generator(np.random.Philox(key=[seed, 0]))
    dt = horizon / n_steps
    starts = gen.uniform(grid.x_min, grid.x_max, size=n_paths)
    incs = gen.standard_normal((n_paths, n_steps))
    incs *= np.sqrt(dt)
    paths = np.empty((n_paths, n_steps + 1))
    paths[:, 0] = starts
    np.cumsum(incs, axis=1, out=paths[:, 1:])
    paths[:, 1:] += starts[:, None]
    inside = (paths > grid.x_min) & (paths < grid.x_max)
    alive = np.logical_and.accumulate(inside, axis=1)
    np.clip(paths, grid.x_min, grid.x_max, out=paths)
    return PathEnsemble(paths, alive, horizon, grid)


def _same_bits(a, b):
    return all(x.dtype == y.dtype and x.shape == y.shape
               and x.tobytes() == y.tobytes()
               for x, y in ((a.paths, b.paths), (a.alive, b.alive),
                            (a.times, b.times)))


def _joined(chunks):
    chunks = list(chunks)
    return PathEnsemble(np.concatenate([c.paths for c in chunks]),
                        np.concatenate([c.alive for c in chunks]),
                        chunks[0].horizon, chunks[0].grid)


# a 2.5 box: about a third of the paths of half a time unit leave it
EXIT_BOX = Grid(-2.5, 2.5, 51)


class TestChunkedDraw:
    """Every path keeps the bits of one draw of all the increments."""

    @pytest.mark.parametrize("n_paths", [1, 1023, 1024, 1025, 3000])
    def test_sample_paths_and_chunks_match_one_draw(self, n_paths):
        args = (n_paths, 60, 0.5, EXIT_BOX, 8)
        oracle = sample_paths_one_draw(*args)
        assert _same_bits(sample_paths(*args), oracle)
        chunks = list(path_chunks(*args))
        sizes = [c.n_paths for c in chunks]
        assert sum(sizes) == n_paths and set(sizes[:-1]) <= {1024}
        assert _same_bits(_joined(chunks), oracle)

    @pytest.mark.parametrize("chunk", [1, 7, 4096])
    def test_chunk_size_changes_no_path(self, monkeypatch, chunk):
        args = (1025, 60, 0.5, EXIT_BOX, 9)
        oracle = sample_paths_one_draw(*args)
        monkeypatch.setattr(bsde, "PATH_CHUNK", chunk)
        assert _same_bits(sample_paths(*args), oracle)
        chunks = list(path_chunks(*args))
        assert [c.n_paths for c in chunks[:-1]] == [chunk] * (len(chunks) - 1)
        assert _same_bits(_joined(chunks), oracle)

    def test_streamed_star_matches_whole_ensemble(self):
        J = lambda t, x: (1.0 + t) * np.exp(-x**2)
        dJ = lambda t, x: -2.0 * (1.0 + t) * x * np.exp(-x**2)
        args = (3000, 50, 0.5, EXIT_BOX, 11)
        whole = sample_paths(*args)
        assert 0 < np.count_nonzero(whole.alive[:, -1]) < 0.8 * whole.n_paths
        assert _bits(star_integral_check(J, dJ, path_chunks(*args))) == \
            _bits(star_integral_check(J, dJ, [whole]))

    @pytest.mark.parametrize("other", [
        dict(n_steps=30), dict(horizon=0.4), dict(grid=Grid(-2.5, 2.5, 41)),
        dict(grid=Grid(-2.0, 2.0, 51))])
    def test_chunks_of_another_mesh_or_grid_rejected(self, other):
        args = dict(n_paths=20, n_steps=20, horizon=0.5, grid=EXIT_BOX,
                    seed=12)
        J = lambda t, x: np.exp(-x**2)
        dJ = lambda t, x: -2.0 * x * np.exp(-x**2)
        prob = make_problem("linear_additive", n_nodes=51)
        sol = solve_penalized(prob, zero(prob, 20), 1e4)
        chunks = [sample_paths(**args), sample_paths(**{**args, **other})]
        with pytest.raises(GridMismatchError, match="time meshes or grids"):
            star_integral_check(J, dJ, chunks)
        with pytest.raises(GridMismatchError, match="time meshes or grids"):
            bsde_residuals([sol], chunks)


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _level_solution(n_steps, n_nodes):
    """A level of the bundled `bsde_check`: quasilinear_full, zero
    control, penalty 1e4."""
    prob = quasilinear_full(n_nodes=n_nodes)
    return solve_penalized(prob, zero(prob, n_steps), 1e4)


class TestStreamedResidual:
    """The residual read over a stream of chunks, every level in one pass,
    has the bits of each level read alone from the whole ensemble."""

    def test_streamed_residual_matches_whole_ensemble(self):
        sol = _level_solution(50, 51)
        args = (3000, 50, sol.problem.horizon, EXIT_BOX, 11)
        whole = sample_paths(*args)
        # three chunks, paths exiting in the first and the last
        assert whole.n_paths > 2 * bsde.PATH_CHUNK
        assert not np.all(whole.alive[:bsde.PATH_CHUNK, -1])
        assert not np.all(whole.alive[-bsde.PATH_CHUNK:, -1])
        [streamed] = bsde_residuals([sol], path_chunks(*args))
        assert streamed.hex() == bsde_residual(sol, whole).hex()

    def test_levels_in_one_pass_match_each_level_alone(self):
        levels = ((25, 26), (50, 51), (100, 101), (200, 201))
        sols = [_level_solution(*level) for level in levels]
        args = (1500, 200, sols[0].problem.horizon, EXIT_BOX, 12)
        whole = sample_paths(*args)
        streamed = bsde_residuals(sols, path_chunks(*args))
        assert [r.hex() for r in streamed] == [
            bsde_residual(sol, coarsen(whole, 200 // n_steps)).hex()
            for sol, (n_steps, _) in zip(sols, levels)]

    def test_bundled_runner_draws_each_chunk_once(self, monkeypatch):
        config = json.loads((CONFIGS / "bsde_check.json").read_text())
        config["params"] = {"n_paths": 2100}
        problem = harness._problem_from(config)
        calls, drawn = [], []

        def counted(*args):
            calls.append(args)
            for chunk in path_chunks(*args):
                drawn.append(chunk.n_paths)
                yield chunk

        def no_whole_ensemble(*args):
            raise AssertionError("the whole ensemble was drawn")

        monkeypatch.setattr(harness, "path_chunks", counted)
        monkeypatch.setattr(harness, "sample_paths", no_whole_ensemble)
        report, _, _ = harness._RUNNERS["bsde_check"](config, problem)
        assert len(calls) == 1 and drawn == [1024, 1024, 52]
        whole = sample_paths(*calls[0])
        finest = harness.BSDE_LEVELS[-1][0]
        assert finest == 400 and calls[0][1] == finest
        assert [row["residual"] for row in report["levels"]] == [
            bsde_residual(_level_solution(n_steps, n_nodes),
                          coarsen(whole, finest // n_steps))
            for n_steps, n_nodes in harness.BSDE_LEVELS]


class TestPeakMemory:
    """The runners of the bundled backward checks make no temporary of
    their whole ensemble's shape: the star check streams its 10 000 paths
    (32 MB at 400 steps) and holds no chunk while the next is drawn (10.8 MB
    traced when it did), and the residual streams its 3 000 paths (10.8 MB
    with their alive flags at 400 steps) through all four levels, keeping a
    sum of squares per level where it held every residual (9.6 MB)."""

    @pytest.mark.parametrize("kind, limit_mb", [("star_check", 9),
                                                ("bsde_check", 20)])
    def test_traced_peak_of_the_bundled_runner(self, kind, limit_mb):
        config = json.loads((CONFIGS / f"{kind}.json").read_text())
        problem = harness._problem_from(config)
        tracemalloc.start()
        try:
            harness._RUNNERS[kind](config, problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 1e6 < limit_mb


# -- one step at a time: the oracles of the blocked read-off ----------------

def residual_per_step(sol, ensemble):
    """`bsde_residual`, one step and its alive paths at a time: per slice
    of `PATH_CHUNK` paths and step, the sum of the squared residuals, added
    in slice order, then step order."""
    problem = sol.problem
    grid = problem.grid
    co = problem.coefficients
    dt = ensemble.dt
    x = grid.x
    drive = control_drive(problem, sol.control.values)
    total, count = 0.0, 0
    for p0, i in itertools.product(
            range(0, ensemble.n_paths, bsde.PATH_CHUNK),
            range(len(ensemble.times) - 1)):
        rows = slice(p0, p0 + bsde.PATH_CHUNK)
        use = ensemble.alive[rows, i + 1]
        if not np.any(use):
            continue
        w_i = ensemble.paths[rows, i][use]
        w_ip = ensemble.paths[rows, i + 1][use]
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
        hd = hval * drive[i]
        S = np.asarray(problem.obstacle(t, w_i), dtype=float) \
            + np.zeros_like(Y)
        pen = sol.n * np.maximum(S - Y, 0.0)
        g_nodes = np.asarray(co.g(t, x, u_level, ux_level), dtype=float) \
            + np.zeros_like(x)
        div_g = at_i.read(gradient_array(g_nodes, grid.h))
        r = Y - Y_next - dt * (fval + pen) - hd + dt * div_g + Z * dW
        total += float(np.sum(r * r))
        count += len(r)
    return float(np.sqrt(total / count) / np.sqrt(dt))


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
        control = zero(prob, n_steps)
        if modes is not None:
            values = np.zeros((n_steps, prob.coefficients.n_modes))
            values[:, :2] = modes
            control = Control(prob.horizon, values)
        sol = solve_penalized(prob, control, 1e4)
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
        sol = solve_penalized(prob, zero(prob, 50), 1e4)
        ens = _dead_from(sample_paths(400, 50, prob.horizon, prob.grid,
                                      seed=4), 20)
        # steps 32 ... 47 form one block, and no path is alive in it
        assert not ens.alive[:, 33:49].any()
        assert bsde_residual(sol, ens).hex() == \
            residual_per_step(sol, ens).hex()

    def test_residual_of_no_alive_segment_rejected(self):
        prob = quasilinear_full(n_nodes=51)
        sol = solve_penalized(prob, zero(prob, 20), 1e4)
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
        assert _bits(star_integral_check(J, dJ, [ens])) == \
            _bits(star_per_step(J, dJ, ens))


class TestResidual:
    def test_all_zero_problem_machine_zero(self):
        # A constant state with all coefficients off: the march preserves it
        # away from the Dirichlet truncation, and Y constant / Z = 0 makes
        # every residual term vanish.  A short horizon keeps the boundary
        # layer away from the interior paths.
        one = lambda x: np.ones_like(np.asarray(x, dtype=float))
        prob = free_heat_problem(101, one, horizon=0.01)
        sol = solve_penalized(prob, zero(prob, 50), 1e4)
        ens = sample_paths(200, 50, prob.horizon, prob.grid, seed=4)
        inner = np.all(np.abs(ens.paths) < 2.0, axis=1)
        ens_in = type(ens)(paths=ens.paths[inner], alive=ens.alive[inner],
                           horizon=ens.horizon, grid=ens.grid)
        assert bsde_residual(sol, ens_in) < 1e-10

    def test_perturbed_solution_increases_residual(self):
        # Gentle terminal datum so the base residual (set by solution
        # curvature) is small, then the 0.1 sin(pi x) perturbation's much
        # larger curvature dominates.
        terminal = lambda x: 0.1 * np.exp(-np.asarray(x, dtype=float)**2 / 8.0)
        prob = free_heat_problem(201, terminal, horizon=0.5)
        sol = solve_penalized(prob, zero(prob, 200), 1e4)
        ens = sample_paths(1000, 200, prob.horizon, prob.grid, seed=5)
        base = bsde_residual(sol, ens)

        bad_vals = sol.traj.values + 0.1 * np.sin(np.pi * prob.grid.x)
        bad_traj = Trajectory(sol.traj.horizon, bad_vals, prob.grid)
        bad = dataclasses.replace(sol, traj=bad_traj)
        assert bsde_residual(bad, ens) >= 5.0 * base

    def test_mesh_mismatch_rejected(self, linear_problem):
        sol = solve_penalized(linear_problem, zero(linear_problem, 100), 1e4)
        ens = sample_paths(10, 50, linear_problem.horizon,
                           linear_problem.grid, seed=6)
        with pytest.raises(ValueError):
            bsde_residual(sol, ens)

    def test_horizon_off_by_5e_6_rejected(self, linear_problem):
        # the paths' horizon 5e-6 (relative) longer than the solution's is
        # another mesh: horizons compare with no tolerance
        sol = solve_penalized(linear_problem, zero(linear_problem, 50), 1e4)
        chunks = path_chunks(300, 100, linear_problem.horizon * (1 + 5e-6),
                             linear_problem.grid, 6)
        with pytest.raises(ValueError, match="time meshes differ"):
            bsde_residuals([sol], chunks)

    def test_projection_solution_rejected(self):
        # n = inf: the penalty term would read inf * 0 = NaN
        prob = quasilinear_full(n_nodes=51, obstacle_amplitude=0.8)
        sol = solve_projected(prob, zero(prob, 50))
        ens = sample_paths(300, 50, prob.horizon, prob.grid, seed=0)
        with pytest.raises(ValueError, match="needs a penalized solution"):
            bsde_residual(sol, ens)

    def test_order_half_under_refinement(self):
        levels = ((50, 51), (100, 101), (200, 201), (400, 401))
        sols = {ns: _level_solution(ns, nn) for ns, nn in levels}
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
        rep = star_integral_check(J, dJ, [ens])
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
                           horizon=ens.horizon, grid=ens.grid)
        J = lambda t, x: np.asarray(x, dtype=float)
        dJ = lambda t, x: np.ones_like(np.asarray(x, dtype=float))
        rep = star_integral_check(J, dJ, [ens_in])
        assert rep["mean_gap"] == pytest.approx(3.0 * T,
                                                abs=3.0 * rep["std_error"])

    def test_one_surviving_path_rejected(self):
        # path 1 leaves the box at the last node, so one gap is left: a
        # sample standard deviation of it is NaN
        grid = Grid(-1.0, 1.0, 21)
        paths = np.array([[0.0, 0.1, 0.2], [0.5, 0.9, 1.0]])
        alive = np.array([[True, True, True], [True, True, False]])
        ens = PathEnsemble(paths, alive, 0.2, grid)
        J = lambda t, x: np.asarray(x, dtype=float)
        dJ = lambda t, x: np.ones_like(np.asarray(x, dtype=float))
        with pytest.raises(ValueError, match="two surviving paths"):
            star_integral_check(J, dJ, [ens])

    def test_even_field_gap_centered(self):
        # Symmetric initial law and even J: the drift term is odd, so the
        # signed gap is centered at zero; this is the bundled-profile check.
        ens = sample_paths(10000, 400, 0.5, Grid(-4.0, 4.0, 101), seed=3)
        J = lambda t, x: np.exp(-np.asarray(x, dtype=float)**2)
        dJ = lambda t, x: -2.0 * np.asarray(x, dtype=float) * \
            np.exp(-np.asarray(x, dtype=float)**2)
        rep = star_integral_check(J, dJ, [ens])
        assert abs(rep["mean_gap"]) <= 3.0 * rep["std_error"]

