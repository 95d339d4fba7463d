"""Reversed-time semi-implicit marcher shared by every solver in the package.

The continuous problems carry a terminal condition at the horizon T.  In
reversed time tau = T - t the terminal datum becomes an initial datum and the
parabolic operator takes the standard sign, so a single forward-in-tau march
serves the deterministic, controlled, and stochastic variants alike:

    d v / d tau = 1/2 Lap v  +  f  +  div g  +  sum_j h_j k^j  [+ noise]
                  [+ barrier term]

The half-Laplacian is treated by a Crank-Nicolson (theta = 1/2) tridiagonal
solve (interior nodes; boundaries pinned at zero).  Its matrix is the same at
every step, so a march factors it once (L D L^T, `kernels.ldl_factor`) and
each step only substitutes (`kernels.thomas_batch`).  The lower-order terms
are explicit with coefficients frozen at the step start, and the barrier is
met by one of two splitting steps applied to the diffusion predictor p:

* penalty: the stiff relation v = p + dt*n*(L - v)^+ is solved exactly
  nodewise — if p_i < L_i then v_i = (p_i + dt*n*L_i)/(1 + dt*n), else p_i;
* projection: v_i = max(p_i, L_i).

Both act on the interior nodes only; the pinned boundary nodes carry no
reflection.

Batched operation (leading sample axis) drives the Monte Carlo modules.
A stored march gives the trajectory and the barrier density (the discrete
reflection measure); Monte Carlo marches read the final state or a streamed
path distance and store neither.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

# laplacian_array is not called here, but stays importable from this module:
# the traced benchmark (perfbench/layers.py) names it as a probe site.
from .grid import (gradient_array, h_norm_array,  # noqa: F401
                   laplacian_array, v_norm_sq_array)
from .kernels import ldl_factor, thomas_batch
from .problem import ProblemSpec

_THETA = 0.5  # Crank-Nicolson weight of the implicit half-Laplacian


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
    state at forward time 0.
    """

    final: np.ndarray
    traj: Optional[np.ndarray]
    density: Optional[np.ndarray]
    distances: Optional[np.ndarray]  # per-sample ht_distance to `reference`


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
    times = np.linspace(0.0, problem.horizon, n_steps + 1)
    return np.array([problem.obstacle_values(t) for t in times[:-1]])


def march(problem: ProblemSpec, n_steps: int, *,
          penalty_n: float = 0.0,
          project: bool = False,
          control_values: Optional[np.ndarray] = None,
          epsilon: float = 0.0,
          noise_increments: Optional[np.ndarray] = None,
          store: bool = True,
          reference: Optional[np.ndarray] = None) -> MarchResult:
    """March the reversed-time scheme from the terminal datum to time 0.

    `control_values` is (n_steps, J) — row i covers the forward interval
    [t_i, t_{i+1}) — or (batch, n_steps, J) to march one control per
    sample.  `noise_increments` is (n_steps, J) or (batch, n_steps, J) of
    Brownian increments over those intervals; a leading batch axis batches
    the whole march.  `reference` is a forward-ordered
    (n_steps+1, n_nodes) array; when given, the per-sample path distance to
    it is accumulated without storing trajectories.  With `store=False` the
    march keeps only the current state: `final` and `distances` are set.
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
    if penalty_n and project:
        raise ValueError("choose either the penalty or the projection step")

    J = problem.coefficients.n_modes
    batch = None
    if control_values is not None:
        control_values = np.asarray(control_values, dtype=float)
        if control_values.shape[-2:] != (n_steps, J) \
                or control_values.ndim not in (2, 3):
            raise ValueError(f"control shape {control_values.shape} incompatible "
                             f"with ({n_steps}, {J})")
        if control_values.ndim == 3:
            batch = control_values.shape[0]
    if noise_increments is not None:
        noise_increments = np.asarray(noise_increments, dtype=float)
        if noise_increments.shape[-2:] != (n_steps, J):
            raise ValueError("noise increments do not match the mesh")
        if noise_increments.ndim not in (2, 3):
            raise ValueError("noise increments must be 2-D or 3-D")
        if noise_increments.ndim == 3:
            if batch is not None and noise_increments.shape[0] != batch:
                raise ValueError("control and noise batch sizes differ")
            batch = noise_increments.shape[0]

    # The interior theta-system is constant across steps and samples.
    kappa = _THETA * dt * 0.5 / h**2
    ni = nx - 2
    factor = ldl_factor(np.full(ni, 1.0 + 2.0 * kappa),
                        np.full(ni - 1, -kappa))
    c_lap = 0.5 * (1.0 - _THETA)
    c_pen = dt * penalty_n

    v = problem.terminal_field().values.copy()
    if batch is not None:
        v = np.broadcast_to(v, (batch, nx)).copy()
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

    times = np.linspace(0.0, T, n_steps + 1)
    obstacle = barrier_table(problem, n_steps)
    co = problem.coefficients
    weights = co.mode_weights
    sqrt_eps = np.sqrt(epsilon)
    # coefficients that ignore the state are read on one zero row
    y = z = np.zeros(nx)

    for m in range(n_steps):
        i_step = n_steps - 1 - m          # forward interval [t_i, t_{i+1})
        t_pre = times[i_step + 1]

        if not co.state_free:
            y, z = v, gradient_array(v, h)
        fval = np.asarray(co.f(t_pre, x, y, z), dtype=float)
        # keep the flux at its natural shape: for state-independent g the
        # stencil then runs over one row, not the whole batch
        gval = np.asarray(co.g(t_pre, x, y, z), dtype=float) \
            + np.zeros_like(x)
        hval = _interior(np.asarray(co.h_shape(t_pre, x, y, z), dtype=float))
        # Explicit right-hand side at the interior nodes,
        #   v + dt * (c_lap * Lap v + f + div g),
        # accumulated in one buffer: a fresh temporary per operation costs
        # more than the arithmetic on Monte Carlo batches.
        vi = v[..., 1:-1]
        rhs = 2.0 * vi
        np.subtract(v[..., :-2], rhs, out=rhs)
        rhs += v[..., 2:]
        rhs /= h * h
        rhs *= c_lap
        rhs += _interior(fval)
        rhs += (gval[..., 2:] - gval[..., :-2]) / (2.0 * h)
        rhs *= dt
        rhs += vi
        if control_values is not None:
            # sum_j h_j k^j = h_shape * sum_j c_j k^j
            ck = control_values[..., i_step, :] @ weights
            if np.ndim(ck) == 1:
                ck = ck[:, None]
            rhs += dt * hval * ck
        if epsilon > 0.0 and noise_increments is not None:
            dB = noise_increments[..., i_step, :]  # (..., J)
            rhs += sqrt_eps * hval * (dB @ weights)[..., None]

        # `rhs` stays a keyword: perfbench's kernel probe reads it by name
        pred = thomas_batch(factor, rhs=rhs)

        # barrier split of the interior predictor, written into the new state
        Li = obstacle[i_step, 1:-1]
        vnew = np.empty_like(v)
        vnew[..., 0] = 0.0
        vnew[..., -1] = 0.0
        inner = vnew[..., 1:-1]
        if project:
            np.maximum(pred, Li, out=inner)
        elif penalty_n > 0.0:
            # (p + dt*n*L) / (1 + dt*n) where p < L, else p.  A step on
            # which the barrier binds on no row copies p; a binding step
            # pays only the `all` over the mask it needs anyway.
            above = pred >= Li
            if above.all():
                inner[...] = pred
            else:
                np.add(pred, c_pen * Li, out=inner)
                inner /= 1.0 + c_pen
                np.copyto(inner, pred, where=above)
        else:
            inner[...] = pred

        if not np.isfinite(np.sum(vnew)):
            raise DivergenceError(
                f"non-finite state at reversed step {m} "
                f"(forward t={times[i_step]:.4g})")
        v = vnew
        if store:
            traj[..., i_step, :] = v
            # the pinned nodes are not split: their density stays 0
            if project:
                # v - p = max(L - p, 0)
                density[..., i_step, 1:-1] = np.maximum(Li - pred, 0.0) / dt
            else:
                below = np.maximum(Li - inner, 0.0)
                density[..., i_step, 1:-1] = penalty_n * below
        if reference is not None:
            d = v - reference[i_step]
            sup_dist = np.maximum(sup_dist, h_norm_array(d, h))
            integ_dist += dt * v_norm_sq_array(d, h)

    distances = None
    if reference is not None:
        distances = sup_dist + np.sqrt(integ_dist)
    return MarchResult(v, traj, density, distances)


def _interior(a: np.ndarray) -> np.ndarray:
    """Interior nodes of a nodewise array; a scalar applies to every node."""
    return a[..., 1:-1] if a.ndim else a
