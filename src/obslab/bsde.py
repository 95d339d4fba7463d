"""Backward-equation cross-validation of the penalized solver.

Along an ensemble of Brownian paths started uniformly in the box, the
solution read off as Y_t = u(t, W_t), Z_t = grad u(t, W_t) must satisfy a
one-step backward recursion; its root-mean-square residual vanishes under
mesh refinement iff the PDE march is consistent.  A separate check probes
the forward-plus-backward stochastic integral identity that defines the
flux term of that recursion.

An ensemble is drawn `PATH_CHUNK` paths at a time, each chunk's normals
from the one generator in path order, so every path keeps its bits
whatever the chunking.  The star check reads a stream of such chunks and
never holds the whole ensemble.

Both checks read the paths in blocks of `STEP_BLOCK` steps, each block
from step-major copies of its own paths and alive flags, and call the
problem's callables (and J, dJdx) once per block with a column of the
block's step times against its rows of path points, the broadcast rule of
every problem callable.  Each step's arithmetic, and the order of every
sum, is the one-step-at-a-time recursion's, so the results keep its bits.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np
from numpy.random import Generator, Philox

from .grid import Bracket, Grid, GridMismatchError, gradient_array
from .skeleton import Solution
from .spde import mean_and_std_error
from .stepping import control_drive

# Steps per block of the backward read-off.  Each block reads step-major
# copies of its own paths, so its arrays stay cache-sized: on the bundled
# ensembles blocks of 8 to 32 steps ran fastest, and one block of all the
# steps ran slower than one step at a time.
STEP_BLOCK = 16

# Paths per drawn chunk.  Only one chunk's increments exist at a time: at
# 400 steps they hold 3.3 MB, where all 10 000 paths of the bundled star
# check held 32 MB.
PATH_CHUNK = 1024


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

    def __post_init__(self):
        if self.paths.ndim != 2:
            raise ValueError(f"paths must be (n_paths, n_nodes), not of "
                             f"shape {self.paths.shape}")
        if self.alive.dtype != bool or self.alive.shape != self.paths.shape:
            raise ValueError(f"alive must be bool of the paths' shape "
                             f"{self.paths.shape}, not {self.alive.dtype} "
                             f"of {self.alive.shape}")
        if self.times.shape != self.paths.shape[1:]:
            raise ValueError(f"{len(self.times)} times for "
                             f"{self.paths.shape[1]} path nodes")

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def _draw(n_paths: int, n_steps: int, horizon: float, grid: Grid,
          seed: int, out: Optional[tuple] = None) -> Iterator[PathEnsemble]:
    """Each chunk of at most `PATH_CHUNK` paths in path order, drawn into
    its rows of `out` = (paths, alive) when given, else into arrays of its
    own.  All starts are drawn first, then each chunk's normals, so the
    generator hands out the numbers of one draw of all of them."""
    gen = Generator(Philox(key=[seed, 0]))
    starts = gen.uniform(grid.x_min, grid.x_max, size=n_paths)
    times = np.linspace(0.0, horizon, n_steps + 1)
    sqrt_dt = np.sqrt(horizon / n_steps)
    for p0 in range(0, n_paths, PATH_CHUNK):
        rows = slice(p0, min(p0 + PATH_CHUNK, n_paths))
        if out is None:
            shape = (rows.stop - p0, n_steps + 1)
            paths, alive = np.empty(shape), np.empty(shape, dtype=bool)
        else:
            paths, alive = out[0][rows], out[1][rows]
        incs = gen.standard_normal((rows.stop - p0, n_steps))
        incs *= sqrt_dt
        paths[:, 0] = starts[rows]
        np.cumsum(incs, axis=1, out=paths[:, 1:])
        del incs   # not held while the reader has the chunk
        paths[:, 1:] += starts[rows, None]
        inside = (paths > grid.x_min) & (paths < grid.x_max)
        np.logical_and.accumulate(inside, axis=1, out=alive)
        del inside
        np.clip(paths, grid.x_min, grid.x_max, out=paths)
        yield PathEnsemble(paths, alive, times, grid, seed)


def path_chunks(n_paths: int, n_steps: int, horizon: float, grid: Grid,
                seed: int) -> Iterator[PathEnsemble]:
    """The paths of `sample_paths` with the same arguments, bit for bit, as
    ensembles of at most `PATH_CHUNK` consecutive paths, each drawn when it
    is reached."""
    return _draw(n_paths, n_steps, horizon, grid, seed)


def sample_paths(n_paths: int, n_steps: int, horizon: float, grid: Grid,
                 seed: int) -> PathEnsemble:
    """Uniform starts, N(0, dt) increments, boundary-stopped; each chunk of
    paths is drawn straight into its rows."""
    paths = np.empty((n_paths, n_steps + 1))
    alive = np.empty(paths.shape, dtype=bool)
    for _ in _draw(n_paths, n_steps, horizon, grid, seed, (paths, alive)):
        pass
    return PathEnsemble(paths, alive, np.linspace(0.0, horizon, n_steps + 1),
                        grid, seed)


def coarsen(ensemble: PathEnsemble, factor: int) -> PathEnsemble:
    """Subsample an ensemble to a mesh `factor` times coarser.

    The coarse paths are the fine paths read at every factor-th node, so a
    refinement study over coarsened copies of one ensemble compares schemes
    on common randomness; exits are re-detected at the coarse resolution.
    """
    n_steps = len(ensemble.times) - 1
    if factor < 1:
        raise ValueError(f"coarsening factor must be >= 1, got {factor}")
    if n_steps % factor != 0:
        raise ValueError(f"{n_steps} steps do not divide by {factor}")
    paths = ensemble.paths[:, ::factor]
    grid = ensemble.grid
    inside = (paths > grid.x_min) & (paths < grid.x_max)
    inside[:, 0] = ensemble.alive[:, 0]
    alive = np.logical_and.accumulate(inside, axis=1)
    return PathEnsemble(paths, alive, ensemble.times[::factor], grid,
                        ensemble.seed)


def _blocks(ensemble: PathEnsemble):
    """(i0, i1, W, use) for each block of at most `STEP_BLOCK` steps i0 ...
    i1 - 1: step-major, contiguous copies of the paths on nodes i0 ... i1
    (b + 1 rows) and of the alive flags on nodes i0 + 1 ... i1 (b rows)."""
    n_steps = len(ensemble.times) - 1
    for i0 in range(0, n_steps, STEP_BLOCK):
        i1 = min(i0 + STEP_BLOCK, n_steps)
        yield (i0, i1, np.ascontiguousarray(ensemble.paths[:, i0:i1 + 1].T),
               np.ascontiguousarray(ensemble.alive[:, i0 + 1:i1 + 1].T))


def bsde_residual(sol: Solution, ensemble: PathEnsemble) -> float:
    """RMS one-step residual of the backward recursion, per sqrt(dt).

    At each step the recursion balances the increment of Y against the
    driver (f, the shifted drift, the penalty), the flux correction read as
    the spatial derivative of the nodewise flux, and the martingale part
    Z dW.  The residual is averaged over alive path segments and all steps,
    then normalized by sqrt(dt) so the threshold is mesh-stable.

    The steps are read in blocks of `STEP_BLOCK`: the block's points are
    bracketed once, Y, Z and the flux derivative are read on the rows of
    its start nodes and Y_next on the rows after them, and f, h_shape and
    the obstacle are called once per block with a column of step times.

    The penalty term n (S - Y)^+ needs a finite n: a projection `Solution`
    (n = inf) raises ValueError.
    """
    if not np.isfinite(sol.n):
        raise ValueError(f"the BSDE residual needs a penalized solution, "
                         f"not one with n = {sol.n}")
    problem = sol.problem
    traj = sol.traj
    grid = problem.grid
    if len(traj.times) != len(ensemble.times) or not np.allclose(
            traj.times, ensemble.times):
        raise ValueError("solution and ensemble time meshes differ")
    dt = ensemble.dt
    times = ensemble.times
    co = problem.coefficients
    x = grid.x
    u = traj.values
    ux = gradient_array(u, grid.h)
    # the march's own drive, dt sum_j c_j k^j per step
    drive = control_drive(problem, sol.control.values)

    # every alive segment's residual, block by block in step-major order
    r_all = np.empty(np.count_nonzero(ensemble.alive[:, 1:]))
    if not len(r_all):
        raise ValueError("no surviving path segments in the ensemble")
    filled = 0
    for i0, i1, W, use in _blocks(ensemble):
        if not np.any(use):
            continue
        at = Bracket(x, W)
        u_rows, ux_rows = u[i0:i1 + 1], ux[i0:i1 + 1]
        Y_all = at.read(u_rows)
        Y, Y_next = Y_all[:-1], Y_all[1:]
        Z = at.read(ux_rows)[:-1]
        w = W[:-1]
        t = times[i0:i1, None]

        # Unpadded: r broadcasts to the block's shape through Y, and a
        # padding's +0.0 could only flip the sign of a zero, which r**2
        # does not see.
        fval = np.asarray(co.f(t, w, Y, Z), dtype=float)
        hd = np.asarray(co.h_shape(t, w, Y, Z), dtype=float) \
            * drive[i0:i1, None]
        S = np.asarray(problem.obstacle(t, w), dtype=float)
        pen = sol.n * np.maximum(S - Y, 0.0)

        # Flux correction: x-derivative of x -> g(t, x, u, u_x) along the
        # grid, sampled at the path position.
        g_rows = np.asarray(co.g(times[i0:i1 + 1, None], x, u_rows, ux_rows),
                            dtype=float) + np.zeros(u_rows.shape)
        div_g = at.read(gradient_array(g_rows, grid.h))[:-1]

        r = Y - Y_next - dt * (fval + pen) - hd + dt * div_g + Z * (W[1:] - w)
        r_use = r[use]
        r_all[filled:filled + len(r_use)] = r_use
        filled += len(r_use)
    np.square(r_all, out=r_all)
    return float(np.sqrt(np.mean(r_all)) / np.sqrt(dt))


def _full_horizon_gaps(J_field, dJdx, ensemble: PathEnsemble) -> np.ndarray:
    """The gaps of the ensemble's paths that survive the whole horizon, in
    path order."""
    dt = ensemble.dt
    n_steps = len(ensemble.times) - 1
    times = ensemble.times
    gaps = np.zeros(ensemble.n_paths)
    weight = np.zeros(ensemble.n_paths)
    for i0, i1, W, use in _blocks(ensemble):
        Jw = np.broadcast_to(np.asarray(J_field(times[i0:i1 + 1, None], W),
                                        dtype=float), W.shape)
        dW = np.where(use, W[1:] - W[:-1], 0.0)
        fb = (Jw[:-1] + Jw[1:]) * dW
        drift = -2.0 * np.asarray(dJdx(times[i0:i1, None], W[:-1]),
                                  dtype=float) * dt * use
        for row in np.where(use, fb - drift, 0.0):
            gaps += row
        weight += use.sum(axis=0)
    return gaps[weight == n_steps]


def star_integral_check(
        J_field: Callable[[np.ndarray, np.ndarray], np.ndarray],
        dJdx: Callable[[np.ndarray, np.ndarray], np.ndarray],
        ensembles: Iterable[PathEnsemble]) -> dict:
    """Forward-plus-backward integral of J against dW vs its drift identity.

    Per path, Sum_i [J(t_i, W_i) + J(t_{i+1}, W_{i+1})] dW_i is compared to
    -2 Sum_i dJdx(t_i, W_i) dt; the report carries the signed mean gap with
    its standard error and the mean absolute gap, over the paths that stay
    in the box for the whole horizon.

    `ensembles` is a stream of chunks of one ensemble in path order, as
    `path_chunks` yields them; a whole ensemble is the one chunk
    `[ensemble]`.  Chunks on another time mesh or grid than the first raise
    `GridMismatchError`.  Each chunk is read once, and the gaps of its
    full-horizon paths are kept in path order, so the report has the bits
    of one read of the whole ensemble.

    The steps are read in blocks of `STEP_BLOCK`: J(t, x) and dJdx(t, x)
    receive a (b + 1, 1) or (b, 1) column of the block's times against its
    rows of path points, so they must broadcast over t as every problem
    callable does.  J is called once per block on all of its nodes, dJdx on
    its start nodes, and each step's contribution is added to the per-path
    sums in step order.
    """
    # the first chunk's mesh: holding the chunk would keep its paths
    times = grid = None
    kept = []
    for ens in ensembles:
        if grid is None:
            times, grid = ens.times, ens.grid
        elif ens.grid != grid or not np.array_equal(ens.times, times):
            raise GridMismatchError("the chunks' time meshes or grids differ")
        kept.append(_full_horizon_gaps(J_field, dJdx, ens))
    g = np.concatenate(kept) if kept else np.empty(0)
    if len(g) < 2:
        raise ValueError(f"a standard error needs two surviving paths; "
                         f"{len(g)} survived the whole horizon")
    mean, se = mean_and_std_error(g)
    return {
        "mean_gap": mean,
        "std_error": se,
        "mean_abs_gap": float(np.mean(np.abs(g))),
        "n_paths_used": int(len(g)),
    }
