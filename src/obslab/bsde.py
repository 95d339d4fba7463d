"""Backward-equation cross-validation of the penalized solver.

Along an ensemble of Brownian paths started uniformly in the box, the
solution read off as Y_t = u(t, W_t), Z_t = grad u(t, W_t) must satisfy a
one-step backward recursion; its root-mean-square residual vanishes under
mesh refinement iff the PDE march is consistent.  A separate check probes
the forward-plus-backward stochastic integral identity that defines the
flux term of that recursion.

An ensemble is drawn `PATH_CHUNK` paths at a time, each chunk's normals
from the one generator in path order, so every path keeps its bits
whatever the chunking.  Both checks read a stream of such chunks and never
hold the whole ensemble: the star check keeps each full-horizon path's gap,
the residual one running sum of squares and one count of segments per
solution, over all the solutions' meshes in one pass.  The residual reads
every ensemble in row slices of at most `PATH_CHUNK` paths and adds the
per-step sums of squares in slice order, then step order, so a whole
ensemble and its stream of chunks give the same bits.

Both checks read the paths in blocks of `STEP_BLOCK` steps, each block
from step-major copies of its own paths and alive flags, and call the
problem's callables (and J, dJdx) once per block with a column of the
block's step times against its rows of path points, the broadcast rule of
every problem callable.  Each step's arithmetic, and the order of every
sum, is the one-step-at-a-time recursion's, so the results keep its bits.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional

import numpy as np
from numpy.random import Generator, Philox

from .grid import Bracket, Grid, GridMismatchError, gradient_array, time_mesh
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


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Brownian paths with uniform initial law on the box, stopped at exit.

    `alive[p, i]` marks that path p has stayed strictly inside the box up to
    and including time node i; statistics only average over alive segments.
    Node i is at `times[i]`, of `time_mesh(horizon, n_steps)`; `grid` is the
    box that stops the paths; the draws (`sample_paths`, `path_chunks`) take
    the seed.  It holds arrays, so `==` is identity.
    """

    paths: np.ndarray   # (n_paths, n_steps + 1)
    alive: np.ndarray   # (n_paths, n_steps + 1) bool
    horizon: float
    grid: Grid
    times: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.paths.ndim != 2:
            raise ValueError(f"paths must be (n_paths, n_nodes), not of "
                             f"shape {self.paths.shape}")
        if self.alive.dtype != bool or self.alive.shape != self.paths.shape:
            raise ValueError(f"alive must be bool of the paths' shape "
                             f"{self.paths.shape}, not {self.alive.dtype} "
                             f"of {self.alive.shape}")
        object.__setattr__(self, "times", time_mesh(self.horizon, self.n_steps))

    @property
    def n_paths(self) -> int:
        return self.paths.shape[0]

    @property
    def n_steps(self) -> int:
        return self.paths.shape[1] - 1

    @property
    def dt(self) -> float:
        return float(self.horizon / self.n_steps)


def _draw(n_paths: int, n_steps: int, horizon: float, grid: Grid,
          seed: int, out: Optional[tuple] = None) -> Iterator[PathEnsemble]:
    """Each chunk of at most `PATH_CHUNK` paths in path order, drawn into
    its rows of `out` = (paths, alive) when given, else into arrays of its
    own.  All starts are drawn first, then each chunk's normals, so the
    generator hands out the numbers of one draw of all of them."""
    gen = Generator(Philox(key=[seed, 0]))
    starts = gen.uniform(grid.x_min, grid.x_max, size=n_paths)
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
        yield PathEnsemble(paths, alive, horizon, grid)


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
    return PathEnsemble(paths, alive, horizon, grid)


def coarsen(ensemble: PathEnsemble, factor: int) -> PathEnsemble:
    """Subsample an ensemble to a mesh `factor` times coarser.

    The coarse paths are the fine paths read at every factor-th node, so a
    refinement study over coarsened copies of one ensemble compares schemes
    on common randomness; exits are re-detected at the coarse resolution.
    The coarse mesh is the ensemble's horizon in n_steps / factor steps: by
    a power of two, its nodes are every factor-th fine node, bit for bit.
    """
    if factor < 1:
        raise ValueError(f"coarsening factor must be >= 1, got {factor}")
    if ensemble.n_steps % factor != 0:
        raise ValueError(f"{ensemble.n_steps} steps do not divide by {factor}")
    paths = ensemble.paths[:, ::factor]
    grid = ensemble.grid
    inside = (paths > grid.x_min) & (paths < grid.x_max)
    inside[:, 0] = ensemble.alive[:, 0]
    alive = np.logical_and.accumulate(inside, axis=1)
    return PathEnsemble(paths, alive, ensemble.horizon, grid)


def _blocks(ensemble: PathEnsemble):
    """(i0, i1, W, use) for each block of at most `STEP_BLOCK` steps i0 ...
    i1 - 1: step-major, contiguous copies of the paths on nodes i0 ... i1
    (b + 1 rows) and of the alive flags on nodes i0 + 1 ... i1 (b rows)."""
    for i0 in range(0, ensemble.n_steps, STEP_BLOCK):
        i1 = min(i0 + STEP_BLOCK, ensemble.n_steps)
        yield (i0, i1, np.ascontiguousarray(ensemble.paths[:, i0:i1 + 1].T),
               np.ascontiguousarray(ensemble.alive[:, i0 + 1:i1 + 1].T))


def _step_sums(sol: Solution, ensemble: PathEnsemble,
               factor: int) -> Iterator[tuple]:
    """(sum of squares, count) of the alive segments' residuals of each
    step that has one, in step order, on the ensemble coarsened by
    `factor` to the solution's time mesh."""
    if factor > 1:
        ensemble = coarsen(ensemble, factor)
    problem = sol.problem
    grid = problem.grid
    dt = ensemble.dt
    times = ensemble.times
    co = problem.coefficients
    x = grid.x
    u = sol.traj.values
    # the march's own drive, dt sum_j c_j k^j per step
    drive = control_drive(problem, sol.control.values)
    for i0, i1, W, use in _blocks(ensemble):
        if not np.any(use):
            continue
        at = Bracket(x, W)
        u_rows = u[i0:i1 + 1]
        ux_rows = gradient_array(u_rows, grid.h)
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
        # each step's alive residuals, contiguous in step-major order
        sq = r[use]
        sq *= sq
        lo = 0
        for hi in np.cumsum(np.count_nonzero(use, axis=1)):
            if hi > lo:
                yield float(np.sum(sq[lo:hi])), int(hi - lo)
            lo = hi


def _one_mesh(ensembles: Iterable[PathEnsemble]) -> Iterator[PathEnsemble]:
    """The chunks of `ensembles` in order; a chunk on another time mesh or
    grid than the first raises `GridMismatchError` before it is yielded."""
    # the first chunk's mesh: holding the chunk would keep its paths
    mesh = None
    for ens in ensembles:
        mesh = mesh or (ens.horizon, ens.n_steps, ens.grid)
        if (ens.horizon, ens.n_steps, ens.grid) != mesh:
            raise GridMismatchError("the chunks' time meshes or grids differ")
        yield ens
        del ens   # not held while the next chunk is drawn


def bsde_residuals(solutions: Iterable[Solution],
                   ensembles: Iterable[PathEnsemble]) -> list:
    """`bsde_residual` of each solution, all read in one pass over a
    stream of paths.

    `ensembles` is a stream of chunks of one fine-mesh ensemble in path
    order, as `path_chunks` yields them; a whole ensemble is the one chunk
    `[ensemble]`.  Each solution's mesh must have the paths' horizon and a
    step count dividing theirs (`coarsen`), else ValueError; chunks on another
    time mesh or grid than the first raise `GridMismatchError`.  Each chunk
    is read once, in row slices of at most `PATH_CHUNK` paths, each slice
    coarsened to every solution's mesh, so a whole ensemble and its
    `path_chunks` stream give the same bits and no whole ensemble is held.
    """
    sols = list(solutions)
    for sol in sols:
        if not np.isfinite(sol.n):
            raise ValueError(f"the BSDE residual needs a penalized solution, "
                             f"not one with n = {sol.n}")
    totals, counts = [0.0] * len(sols), [0] * len(sols)
    factors = None
    for ens in _one_mesh(ensembles):
        if factors is None:
            if any(sol.traj.horizon != ens.horizon
                   or ens.n_steps % sol.traj.n_steps for sol in sols):
                raise ValueError("solution and ensemble time meshes differ")
            factors = [ens.n_steps // sol.traj.n_steps for sol in sols]
        for p0 in range(0, ens.n_paths, PATH_CHUNK):
            rows = slice(p0, p0 + PATH_CHUNK)
            part = PathEnsemble(ens.paths[rows], ens.alive[rows], ens.horizon,
                                ens.grid)
            for j, (sol, factor) in enumerate(zip(sols, factors)):
                for total, count in _step_sums(sol, part, factor):
                    totals[j] += total
                    counts[j] += count
            del part
        del ens   # neither is held while the next chunk is drawn
    if factors is None or not all(counts):
        raise ValueError("no surviving path segments in the ensemble")
    return [float(np.sqrt(total / count) / np.sqrt(sol.traj.dt))
            for total, count, sol in zip(totals, counts, sols)]


def bsde_residual(sol: Solution, ensemble: PathEnsemble) -> float:
    """RMS one-step residual of the backward recursion, per sqrt(dt).

    At each step the recursion balances the increment of Y against the
    driver (f, the shifted drift, the penalty), the flux correction read as
    the spatial derivative of the nodewise flux, and the martingale part
    Z dW.  The residual is averaged over alive path segments and all steps,
    then normalized by sqrt(dt) so the threshold is mesh-stable.

    It is `bsde_residuals([sol], [ensemble])`: the paths stream through in
    row slices of at most `PATH_CHUNK`, and only a running sum of squares
    and a count of segments are kept.  Per slice and step the squares of
    the alive residuals are summed (`np.sum`), and these sums are added in
    slice order, then step order, so the result does not depend on
    `STEP_BLOCK`.  The ensemble's mesh must coarsen to the solution's.

    The steps are read in blocks of `STEP_BLOCK`: the block's points are
    bracketed once, Y, Z and the flux derivative are read on the rows of
    its start nodes and Y_next on the rows after them, and f, h_shape and
    the obstacle are called once per block with a column of step times.

    The penalty term n (S - Y)^+ needs a finite n: a projection `Solution`
    (n = inf) raises ValueError.
    """
    return bsde_residuals([sol], [ensemble])[0]


def _full_horizon_gaps(J_field, dJdx, ensemble: PathEnsemble) -> np.ndarray:
    """The gaps of the ensemble's paths that survive the whole horizon, in
    path order."""
    dt = ensemble.dt
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
    return gaps[weight == ensemble.n_steps]


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
    kept = []
    for ens in _one_mesh(ensembles):
        kept.append(_full_horizon_gaps(J_field, dJdx, ens))
        del ens   # not held while the next chunk is drawn
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
