"""Backward-equation cross-validation of the penalized solver.

Along an ensemble of Brownian paths started uniformly in the box, the
solution read off as Y_t = u(t, W_t), Z_t = grad u(t, W_t) must satisfy a
one-step backward recursion; its root-mean-square residual vanishes under
mesh refinement iff the PDE march is consistent.  A separate check probes
the forward-plus-backward stochastic integral identity that defines the
flux term of that recursion.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import Grid, gradient_array
from .skeleton import Control, Solution


@dataclass(frozen=True)
class PathEnsemble:
    """Brownian paths with uniform initial law on the box, stopped at exit.

    `alive[p, i]` marks that path p has stayed strictly inside the box up to
    and including time node i; statistics only average over alive segments.
    """

    paths: np.ndarray   # (n_paths, n_steps + 1)
    alive: np.ndarray   # (n_paths, n_steps + 1) bool
    times: np.ndarray   # n_steps + 1
    grid: Grid
    seed: int

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def sample_paths(n_paths: int, n_steps: int, horizon: float, grid: Grid,
                 seed: int) -> PathEnsemble:
    """Uniform starts, N(0, dt) increments, boundary-stopped."""
    gen = np.random.Generator(np.random.Philox(key=[seed, 0]))
    dt = horizon / n_steps
    starts = gen.uniform(grid.x_min, grid.x_max, size=n_paths)
    incs = gen.standard_normal((n_paths, n_steps)) * np.sqrt(dt)
    paths = np.empty((n_paths, n_steps + 1))
    paths[:, 0] = starts
    np.cumsum(incs, axis=1, out=paths[:, 1:])
    paths[:, 1:] += starts[:, None]
    inside = (paths > grid.x_min) & (paths < grid.x_max)
    alive = np.logical_and.accumulate(inside, axis=1)
    paths = np.clip(paths, grid.x_min, grid.x_max)
    times = np.linspace(0.0, horizon, n_steps + 1)
    return PathEnsemble(paths, alive, times, grid, seed)


def coarsen(ensemble: PathEnsemble, factor: int) -> PathEnsemble:
    """Subsample an ensemble to a mesh `factor` times coarser.

    The coarse paths are the fine paths read at every factor-th node, so a
    refinement study over coarsened copies of one ensemble compares schemes
    on common randomness; exits are re-detected at the coarse resolution.
    """
    n_steps = len(ensemble.times) - 1
    if n_steps % factor != 0:
        raise ValueError(f"{n_steps} steps do not divide by {factor}")
    paths = ensemble.paths[:, ::factor]
    grid = ensemble.grid
    inside = (paths > grid.x_min) & (paths < grid.x_max)
    inside[:, 0] = ensemble.alive[:, 0]
    alive = np.logical_and.accumulate(inside, axis=1)
    return PathEnsemble(paths, alive, ensemble.times[::factor], grid,
                        ensemble.seed)


def bsde_residual(sol: Solution, ensemble: PathEnsemble,
                  control: Optional[Control] = None) -> float:
    """RMS one-step residual of the backward recursion, per sqrt(dt).

    At each step the recursion balances the increment of Y against the
    driver (f, the shifted drift, the penalty), the flux correction read as
    the spatial derivative of the nodewise flux, and the martingale part
    Z dW.  The residual is averaged over alive path segments and all steps,
    then normalized by sqrt(dt) so the threshold is mesh-stable.
    """
    problem = sol.problem
    traj = sol.traj
    grid = problem.grid
    if len(traj.times) != len(ensemble.times) or not np.allclose(
            traj.times, ensemble.times):
        raise ValueError("solution and ensemble time meshes differ")
    if control is None:
        control = sol.control
    dt = ensemble.dt
    n_steps = len(ensemble.times) - 1
    co = problem.coefficients
    weights = co.mode_weights
    x = grid.x

    residuals = []
    for i in range(n_steps):
        use = ensemble.alive[:, i + 1]
        if not np.any(use):
            continue
        w_i = ensemble.paths[use, i]
        w_ip = ensemble.paths[use, i + 1]
        dW = w_ip - w_i
        t = float(ensemble.times[i])

        u_level = traj.values[i]
        ux_level = gradient_array(u_level, grid.h)
        Y = np.interp(w_i, x, u_level)
        Y_next = np.interp(w_ip, x, traj.values[i + 1])
        Z = np.interp(w_i, x, ux_level)

        fval = np.asarray(co.f(t, w_i, Y, Z), dtype=float) + np.zeros_like(Y)
        hval = np.asarray(co.h_shape(t, w_i, Y, Z), dtype=float) + np.zeros_like(Y)
        hk = hval * float(weights @ control.values[i])
        S = np.asarray(problem.obstacle(t, w_i), dtype=float) + np.zeros_like(Y)
        pen = sol.n * np.maximum(S - Y, 0.0)

        # Flux correction: x-derivative of x -> g(t, x, u, u_x) along the
        # grid, sampled at the path position.
        g_nodes = np.asarray(co.g(t, x, u_level, ux_level), dtype=float) \
            + np.zeros_like(x)
        div_g = np.interp(w_i, x, gradient_array(g_nodes, grid.h))

        r = Y - Y_next - dt * (fval + hk + pen) + dt * div_g + Z * dW
        residuals.append(r)
    if not residuals:
        raise ValueError("no surviving path segments in the ensemble")
    r_all = np.concatenate(residuals)
    return float(np.sqrt(np.mean(r_all**2)) / np.sqrt(dt))


def star_integral_check(J_field: Callable[[float, np.ndarray], np.ndarray],
                        dJdx: Callable[[float, np.ndarray], np.ndarray],
                        ensemble: PathEnsemble) -> dict:
    """Forward-plus-backward integral of J against dW vs its drift identity.

    Per path, Sum_i [J(t_i, W_i) + J(t_{i+1}, W_{i+1})] dW_i is compared to
    -2 Sum_i dJdx(t_i, W_i) dt; the report carries the signed mean gap with
    its standard error and the mean absolute gap.
    """
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
    full = weight == n_steps
    g = gaps[full]
    if len(g) == 0:
        raise ValueError("no path survived the whole horizon")
    return {
        "mean_gap": float(np.mean(g)),
        "std_error": float(np.std(g, ddof=1) / np.sqrt(len(g))),
        "mean_abs_gap": float(np.mean(np.abs(g))),
        "n_paths_used": int(len(g)),
    }

