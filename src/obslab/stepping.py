"""Reversed-time semi-implicit marcher shared by every solver in the package.

The continuous problems carry a terminal condition at the horizon T.  In
reversed time tau = T - t the terminal datum becomes an initial datum and the
parabolic operator takes the standard sign, so a single forward-in-tau march
serves the deterministic, controlled, and stochastic variants alike:

    d v / d tau = 1/2 Lap v  +  f  +  div g  +  sum_j h_j k^j  [+ noise]
                  [+ barrier term]

The half-Laplacian is treated by Crank-Nicolson.  With kappa = dt/(4 h^2)
and the constant matrix M = I - kappa Lap_h, a step solves

    M p = (2I - M) v + dt F,   i.e.   p = M^-1 (2 v + dt F) - v,

so the explicit half-Laplacian (I + kappa Lap_h) v is never formed.  dt F =
dt (f + div g) + h_shape * D is explicit, with coefficients frozen at the
step start.  The noise coefficients are the separable family
h_j = c_j h_shape, so a control k and a Brownian path B reach a step only
through its scalar drive D = sum_j c_j (k^j dt + sqrt(eps) dB^j), one per
sample: `control_drive` and `noise_drive` form it, and `march` takes it.
M spans the whole grid, with identity rows at the two pinned boundary
nodes: their right-hand side 2*0 gives exactly 0, and they do not couple
to the interior.  A march factors M once (L D L^T, `kernels.ldl_factor`)
and each step only substitutes (`kernels.thomas_batch`).  The barrier is
met by one of two splitting steps applied to the diffusion predictor p:

* penalty: the stiff relation v = p + dt*n*(L - v)^+ is solved exactly
  nodewise — if p_i < L_i then v_i = (p_i + dt*n*L_i)/(1 + dt*n), else p_i;
* projection: v_i = max(p_i, L_i).

Both act on the interior nodes only: the march sets the barrier at the
pinned boundary nodes to -inf, so they carry no reflection.

Batched operation (leading sample axis) drives the Monte Carlo modules
and marches independent solves as the rows of one march: with a
(batch, n_steps) drive the penalty n is one scalar for every row or one
value per row, read by the split and the density line as a (batch, 1)
column.  A row's bits do not depend on its batch, so a penalty ladder or a
family of controls marched as rows equals its single-row marches bit for
bit.  A stored march gives the trajectory and the barrier density (the
discrete reflection measure); Monte Carlo marches read the final state or a
streamed path distance and store neither.  `march_adjoint` runs the transposed steps
back through a stored penalty march, reading its drive and penalty off the
result: the gradient over the drive of a linear functional of the final
state.  `control_gradient` carries it to the control values.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

# laplacian_array is not called here, but stays importable from this module:
# the traced benchmark (perfbench/layers.py) names it as a probe site.
from .grid import (gradient_array, h_norm_array,  # noqa: F401
                   laplacian_array, time_mesh, v_norm_sq_array)
from .kernels import ldl_factor, thomas_batch
from .problem import ProblemSpec

# Nodewise central-difference step of the coefficients' state derivatives in
# `march_adjoint`, relative to max(1, |y|) or max(1, |z|)
COEF_DIFF_STEP = 1e-5


class DivergenceError(RuntimeError):
    """The march produced a non-finite state."""


class StabilityError(ValueError):
    """Time step too large for the explicit flux term."""


@dataclass
class MarchResult:
    """Raw output of one march (arrays in forward-time order).

    A stored march gives the trajectory `traj` and the barrier density
    `density` (n*(L - v)^+, or the projection's correction per unit time),
    (n_steps+1, n_nodes) with a leading sample axis when the march was
    batched; both are None when storage was turned off.  `final` is the
    state at forward time 0.  `drive`, `penalty_n` and `project` record how
    it was marched; a stored march keeps the drive array it was given, an
    unstored one None.  `penalty_n` is the scalar or the per-row (batch,)
    array the march was given.
    """

    final: np.ndarray
    traj: Optional[np.ndarray]
    density: Optional[np.ndarray]
    distances: Optional[np.ndarray]  # per-sample ht_distance to `reference`
    drive: Optional[np.ndarray]
    penalty_n: Union[float, np.ndarray]
    project: bool


def stability_limit(problem: ProblemSpec) -> float:
    """Largest dt for which the explicit flux term is step-stable.

    The flux g enters through its divergence; its gradient dependence (the
    declared constant alpha) acts like an explicit second-order term, giving
    the diffusion-type restriction dt <= h^2 / (2 alpha).
    """
    alpha = problem.coefficients.lipschitz.alpha
    return problem.grid.h**2 / (2.0 * alpha)


def barrier_table(problem: ProblemSpec, n_steps: int) -> np.ndarray:
    """Row i is the barrier at t_i, where the step over [t_i, t_{i+1}) lands."""
    return problem.obstacle_values(
        time_mesh(problem.horizon, n_steps)[:-1, None])


def control_drive(problem: ProblemSpec, values: np.ndarray) -> np.ndarray:
    """The drive dt * sum_j c_j k^j of control values (..., n_steps, J).

    dt is the march's own T / n_steps.
    """
    values = np.asarray(values, dtype=float)
    dt = problem.horizon / values.shape[-2]
    return dt * (values @ problem.coefficients.mode_weights)


def control_gradient(problem: ProblemSpec, sens: np.ndarray) -> np.ndarray:
    """The transpose of `control_drive`: a gradient over the drive
    (..., n_steps) carried to the control values (..., n_steps, J)."""
    dt = problem.horizon / sens.shape[-1]
    return dt * sens[..., None] * problem.coefficients.mode_weights


def noise_drive(problem: ProblemSpec, epsilon: float,
                increments: np.ndarray) -> np.ndarray:
    """The drive sqrt(eps) * sum_j c_j dB^j of Brownian increments
    (..., n_steps, J)."""
    return np.sqrt(epsilon) * (np.asarray(increments, dtype=float)
                               @ problem.coefficients.mode_weights)


def noise_drive_std(problem: ProblemSpec, epsilon: float,
                    n_steps: int) -> float:
    """The standard deviation sqrt(eps dt) |c| of the noise drive on one
    interval of an n_steps march, |c| the l2 norm of the mode weights."""
    return float(np.sqrt(epsilon * (problem.horizon / n_steps))
                 * problem.coefficients.weight_l2)


def march(problem: ProblemSpec, n_steps: int, *,
          drive: np.ndarray,
          penalty_n: Union[float, np.ndarray] = 0.0,
          project: bool = False,
          store: bool = True,
          reference: Optional[np.ndarray] = None) -> MarchResult:
    """March the reversed-time scheme from the terminal datum to time 0.

    `drive` is (n_steps,), entry i the scalar drive of the forward interval
    [t_i, t_{i+1}) (a control's and a noise path's, summed), or
    (batch, n_steps) to march one drive per sample; a leading batch axis
    batches the whole march.  Each step adds h_shape * drive[..., i] at the
    interior nodes.  `penalty_n` is one penalty for every row, or, with a
    (batch, n_steps) drive, a (batch,) array of positive penalties, one per
    row: the rows are then independent penalized solves, each equal to its
    single-row march bit for bit.  `reference` is a forward-ordered
    (n_steps+1, n_nodes) array; when given, the per-sample path distance to
    it is accumulated without storing trajectories.  With `store=False` the
    march keeps only the current state: `final` and `distances` are set.
    Every march takes the one step p = M^-1 (2 v + dt F) - v: a
    substitution on the full-width system (identity rows at the pinned
    nodes), no explicit stencil.
    """
    grid = problem.grid
    nx = grid.n_nodes
    x = grid.x
    h = grid.h
    T = problem.horizon
    dt = T / n_steps
    if dt > stability_limit(problem):
        raise StabilityError(
            f"dt={dt:.3g} exceeds the flux stability limit "
            f"{stability_limit(problem):.3g}; increase n_steps")
    drive = np.asarray(drive, dtype=float)
    if drive.ndim not in (1, 2) or drive.shape[-1] != n_steps:
        raise ValueError(f"drive shape {drive.shape} is neither "
                         f"({n_steps},) nor (batch, {n_steps})")
    if np.ndim(penalty_n):
        penalty_n = np.asarray(penalty_n, dtype=float)
        if drive.ndim != 2 or penalty_n.shape != drive.shape[:1]:
            raise ValueError(f"penalty_n shape {penalty_n.shape} does not "
                             f"match the drive rows of {drive.shape}")
        if not np.all((penalty_n > 0.0) & np.isfinite(penalty_n)):
            raise ValueError("per-row penalties must be positive and finite")
    if np.any(penalty_n) and project:
        raise ValueError("choose either the penalty or the projection step")

    factor = _diffusion_factor(nx, dt / (4.0 * h**2))
    # the split and the density line read a per-row penalty as a column
    pen = penalty_n[:, None] if np.ndim(penalty_n) else penalty_n
    c_pen = dt * pen
    penalize = bool(np.any(pen > 0.0))

    v = problem.terminal_field().values.copy()
    if drive.ndim == 2:
        v = np.broadcast_to(v, (len(drive), nx)).copy()
    buf = np.empty_like(v)
    shape0 = v.shape[:-1]

    traj = density = None
    if store:
        traj = np.empty(shape0 + (n_steps + 1, nx))
        density = np.zeros_like(traj)
        traj[..., n_steps, :] = v

    sup_dist = integ_dist = None
    if reference is not None:
        reference = np.asarray(reference, dtype=float)
        if reference.shape != (n_steps + 1, nx):
            raise ValueError("reference shape does not match the march")
        d = v - reference[n_steps]
        sup_dist = h_norm_array(d, h)
        integ_dist = dt * v_norm_sq_array(d, h)

    times = time_mesh(T, n_steps)
    obstacle = barrier_table(problem, n_steps)
    obstacle[:, [0, -1]] = -np.inf
    co = problem.coefficients
    if co.state_free:
        # read once, at y = z = 0: row i at t_{i+1}, where the reversed
        # step over [t_i, t_{i+1}) starts
        forces, h_rows = _explicit_terms(
            co.evaluate(times[1:, None], x, 0.0, 0.0), dt, h)

    for m in range(n_steps):
        i_step = n_steps - 1 - m          # forward interval [t_i, t_{i+1})
        if co.state_free:
            force, h_int = forces[i_step], h_rows[i_step]
        else:
            force, h_int = _explicit_terms(co.evaluate(
                times[i_step + 1], x, v, gradient_array(v, h)), dt, h)

        # 2 v + dt F into the previous state's array.  The whole width is
        # written: contiguous rows cost less than the interior view, and the
        # pinned nodes get 2*0 + 0 = 0.
        np.multiply(v, 2.0, out=buf)
        buf += force
        buf += h_int * drive[..., i_step, None]

        # `rhs` stays a keyword: perfbench's kernel probe reads it by name
        pred = thomas_batch(factor, rhs=buf)
        pred -= v

        # barrier split of the predictor, in place; the pinned nodes face a
        # barrier at -inf and are never split
        L = obstacle[i_step]
        if project:
            if store:
                # v - p = max(L - p, 0)
                density[..., i_step, :] = np.maximum(L - pred, 0.0) / dt
            np.maximum(pred, L, out=pred)
        elif penalize:
            # (p + dt*n*L) / (1 + dt*n) where p < L, else p.  A step on
            # which the barrier binds on no row leaves p as it is; a binding
            # step pays only the `any` over the mask it needs anyway.
            below = pred < L
            if below.any():
                split = pred + c_pen * L
                split /= 1.0 + c_pen
                np.copyto(pred, split, where=below)

        if not np.isfinite(np.sum(pred)):
            raise DivergenceError(
                f"non-finite state at reversed step {m} "
                f"(forward t={times[i_step]:.4g})")
        v, buf = pred, v
        if store:
            traj[..., i_step, :] = v
            if not project:
                density[..., i_step, :] = pen * np.maximum(L - v, 0.0)
        if reference is not None:
            d = v - reference[i_step]
            sup_dist = np.maximum(sup_dist, h_norm_array(d, h))
            integ_dist += dt * v_norm_sq_array(d, h)

    distances = None
    if reference is not None:
        distances = sup_dist + np.sqrt(integ_dist)
    return MarchResult(v, traj, density, distances, drive if store else None,
                       penalty_n, project)


def march_adjoint(problem: ProblemSpec, result: MarchResult,
                  cotangent: np.ndarray) -> np.ndarray:
    """Gradient of <cotangent, final> over the drive, by one backward sweep
    through a stored march.

    `result` is a stored single-system march of `problem`; its drive and
    penalty are the ones the sweep transposes, and the gradient has the
    drive's shape (n_steps,).  A projection march raises: the sweep has no
    transpose of its split.  The sweep transposes each step, last step
    first.  With mu the cotangent of the step's output:

    * the penalty split scales mu by 1/(1 + dt*n) where it acted.  It acts
      where p < L, which is where the output is below L, i.e. where the
      stored density is > 0;
    * q = M^-1 mu (M is symmetric), the cotangent of 2 v + dt F;
    * entry i of the gradient is <h_shape * interior, q>;
    * the cotangent of the step's input is 2 q - mu, plus, unless the
      coefficients are `state_free`, the transposed state derivatives of
      f, div g and h_shape (`_coefficient_adjoint`).
    """
    traj, density = result.traj, result.density
    if traj is None or traj.ndim != 2:
        raise ValueError("the adjoint needs a stored single-system march")
    if result.project:
        raise ValueError("the adjoint does not transpose a projection march")
    n_steps = traj.shape[0] - 1
    grid = problem.grid
    nx, x, h = grid.n_nodes, grid.x, grid.h
    dt = problem.horizon / n_steps
    co = problem.coefficients
    drive = result.drive
    factor = _diffusion_factor(nx, dt / (4.0 * h**2))
    split = 1.0 / (1.0 + dt * result.penalty_n)
    times = time_mesh(problem.horizon, n_steps)
    interior = np.ones(nx)
    interior[[0, -1]] = 0.0
    if co.state_free:
        h_rows = co.evaluate(times[1:, None], x, 0.0, 0.0)[2]

    mu = np.array(cotangent, dtype=float)
    if mu.shape != (nx,):
        raise ValueError("the cotangent must be one value per node")
    sens = np.empty(n_steps)   # d<cotangent, final> / d drive[i]
    for i_step in range(n_steps):
        mu[density[i_step] > 0.0] *= split
        q = thomas_batch(factor, rhs=mu)
        mu = 2.0 * q - mu
        if co.state_free:
            hval = h_rows[i_step]
        else:
            hval, dmu = _coefficient_adjoint(
                co, times[i_step + 1], x, traj[i_step + 1], h,
                dt * q * interior, drive[i_step] * q * interior)
            mu += dmu
        sens[i_step] = np.dot(hval * interior, q)
    return sens


def _coefficient_adjoint(co, t: float, x: np.ndarray, y: np.ndarray,
                         h: float, c_force: np.ndarray,
                         c_h: np.ndarray) -> tuple:
    """h_shape at the state y, and the transposed state derivative of the
    explicit terms of one step.

    The step adds dt (f + div g) with cotangent `c_force` (zero at the
    pinned nodes) and h_shape * drive with cotangent `c_h`.  Each callable
    is read once on five rows, (y, z) and its central shifts in y and in
    z = gradient_array(y): the partials are nodewise.  div g reads g at the
    pinned nodes too, and z carries gradient_array's one-sided ends, so
    both transposes span the full width.
    """
    z = gradient_array(y, h)
    dy = COEF_DIFF_STEP * np.maximum(1.0, np.abs(y))
    dz = COEF_DIFF_STEP * np.maximum(1.0, np.abs(z))
    ys = np.stack([y, y + dy, y - dy, y, y])
    zs = np.stack([z, z, z, z + dz, z - dz])
    span_y = ys[1] - ys[2]
    span_z = zs[3] - zs[4]
    # div g at the interior node i is gradient_array's row i; c_force is 0
    # on the one-sided end rows, so gradient_array's transpose maps it to g
    c_g = _gradient_transpose(c_force, h)
    cy = np.zeros_like(y)
    cz = np.zeros_like(y)
    vals = co.evaluate(t, x, ys, zs)
    for val, c in zip(vals, (c_force, c_g, c_h)):
        cy += c * (val[1] - val[2]) / span_y
        cz += c * (val[3] - val[4]) / span_z
    return vals[2][0], cy + _gradient_transpose(cz, h)


def _explicit_terms(values: tuple, dt: float, h: float) -> tuple:
    """dt (f + div g) and h_shape from `CoefficientSet.evaluate`'s
    (f, g, h_shape), both at full width and zero at the pinned nodes."""
    f, g, h_shape = values
    force, h_int = np.zeros_like(f), np.zeros_like(h_shape)
    np.multiply(f[..., 1:-1] + (g[..., 2:] - g[..., :-2]) / (2.0 * h), dt,
                out=force[..., 1:-1])
    h_int[..., 1:-1] = h_shape[..., 1:-1]
    return force, h_int


def _gradient_transpose(c: np.ndarray, h: float) -> np.ndarray:
    """The transpose of `gradient_array` applied to c."""
    out = np.zeros_like(c)
    out[2:] += c[1:-1]
    out[:-2] -= c[1:-1]
    out /= 2.0 * h
    out[[0, 1]] += np.array([-c[0], c[0]]) / h
    out[[-2, -1]] += np.array([-c[-1], c[-1]]) / h
    return out


def _diffusion_factor(nx: int, kappa: float) -> tuple:
    """L D L^T factors of M = I - kappa Lap_h at full width, with identity
    rows at the pinned nodes; one march, or its adjoint, reuses them on
    every step and sample."""
    diag = np.full(nx, 1.0 + 2.0 * kappa)
    off = np.full(nx - 1, -kappa)
    diag[[0, -1]] = 1.0
    off[[0, -1]] = 0.0
    return ldl_factor(diag, off)

