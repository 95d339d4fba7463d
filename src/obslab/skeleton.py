"""Deterministic controlled obstacle problem: penalization scheme and oracle.

`solve_penalized` implements the stiff-penalty march for a fixed penalty
parameter n; `solve_projected` replaces the penalty with a nodewise
projection onto the barrier and serves as the independent cross-check;
`solve_skeleton` drives the penalty parameter through a doubling schedule
until consecutive solutions are Cauchy in the path metric.  Each returns a
`Solution`: the path u with the density of its reflection measure, from
which the barrier statistics are read.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

# h_norm_array and v_norm_sq_array are not called here, but stay importable
# from this module: the traced benchmark (perfbench/layers.py) names them as
# probe sites.
from .grid import (Trajectory, h_norm_array, ht_distance,  # noqa: F401
                   v_norm_sq_array)
from .problem import ProblemSpec
from .stepping import barrier_table, control_drive, march

log = logging.getLogger(__name__)

N0_DEFAULT = 1_000
N_MAX_DEFAULT = 10_000_000


@dataclass(frozen=True)
class Control:
    """A discretized control path: one row of mode values per time interval.

    `values[i, j]` is the j-th mode's value on the forward interval
    [t_i, t_{i+1}).  The squared Cameron-Martin norm is dt * sum values^2.
    """

    times: np.ndarray   # n_steps + 1 uniform nodes on [0, T]
    values: np.ndarray  # (n_steps, J)

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise ValueError("times must be a 1-D array with >= 2 entries")
        dts = np.diff(t)
        if not np.allclose(dts, dts[0], rtol=1e-12, atol=1e-14) or dts[0] <= 0:
            raise ValueError("control times must be uniform and increasing")
        if v.ndim != 2 or v.shape[0] != len(t) - 1:
            raise ValueError(f"control values shape {v.shape} inconsistent with mesh")
        if not np.all(np.isfinite(v)):
            raise ValueError("control contains non-finite values")
        t = t.copy(); t.flags.writeable = False
        v = v.copy(); v.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    @property
    def n_steps(self) -> int:
        return len(self.times) - 1

    @property
    def n_modes(self) -> int:
        return self.values.shape[1]

    def k_norm_sq(self) -> float:
        return float(self.dt * np.sum(self.values**2))

    def in_ball(self, radius: float) -> bool:
        """Membership in the radius-`radius` control ball S_N."""
        return self.k_norm_sq() <= radius

    def with_values(self, values: np.ndarray) -> "Control":
        return Control(self.times, values)


def zero_control(n_steps: int, n_modes: int, horizon: float) -> Control:
    return Control(np.linspace(0.0, horizon, n_steps + 1),
                   np.zeros((n_steps, n_modes)))


def constant_control(n_steps: int, n_modes: int, horizon: float,
                     value: float, mode: int = 0) -> Control:
    vals = np.zeros((n_steps, n_modes))
    vals[:, mode] = value
    return Control(np.linspace(0.0, horizon, n_steps + 1), vals)


@dataclass(frozen=True)
class Solution:
    """A stored solve: the path u and the density of its reflection measure
    (n = inf for the projection scheme), from which the barrier statistics
    are read.  The Cauchy fields describe `solve_skeleton`'s schedule."""

    traj: Trajectory
    density: Trajectory
    n: float
    control: Control
    problem: ProblemSpec
    converged: bool = True
    cauchy_gap: float = 0.0
    cauchy_history: tuple = ()

    def barrier_gap(self) -> np.ndarray:
        """u - L on the stepped rows 0 ... n_steps - 1 at the interior
        nodes, where the barrier split acts; the pinned nodes carry none."""
        return self.traj.values[:-1, 1:-1] - barrier_table(
            self.problem, self.control.n_steps)[:, 1:-1]

    def barrier_density(self) -> np.ndarray:
        """The density on the rows and nodes of `barrier_gap`."""
        return self.density.values[:-1, 1:-1]

    @property
    def min_gap(self) -> float:
        return float(np.min(self.barrier_gap()))

    @property
    def penalty_l2(self) -> float:
        """L2(dt, dx) norm of the gap (u - L)^-.  The end-of-step gap alone
        under-resolves the sub-step layer, so it is paired with the
        pre-split gap, (1 + dt n) post = post + dt density."""
        post = np.maximum(-self.barrier_gap(), 0.0)
        dt = self.traj.dt
        pre = post + dt * self.barrier_density()
        return float(np.sqrt(dt * self.problem.grid.h * np.sum(post * pre)))


def _check_control(problem: ProblemSpec, control: Optional[Control],
                   n_steps: Optional[int]) -> Control:
    if control is None:
        if n_steps is None:
            raise ValueError("give either a control or an explicit n_steps")
        return zero_control(n_steps, problem.coefficients.n_modes, problem.horizon)
    if n_steps is not None and control.n_steps != n_steps:
        raise ValueError(f"control has {control.n_steps} steps, expected {n_steps}")
    if abs(control.times[-1] - problem.horizon) > 1e-12 * max(1.0, problem.horizon):
        raise ValueError("control mesh does not span the problem horizon")
    if control.n_modes != problem.coefficients.n_modes:
        raise ValueError("control mode count does not match the problem")
    return control


def _solve(problem: ProblemSpec, control: Optional[Control],
           n_steps: Optional[int], n: float, **split) -> Solution:
    control = _check_control(problem, control, n_steps)
    res = march(problem, control.n_steps,
                drive=control_drive(problem, control.values), **split)
    return Solution(Trajectory(control.times, res.traj, problem.grid),
                    Trajectory(control.times, res.density, problem.grid),
                    n, control, problem)


def solve_penalized(problem: ProblemSpec, control: Optional[Control],
                    n: float, n_steps: Optional[int] = None) -> Solution:
    """Fixed-penalty march; the workhorse behind the skeleton limit."""
    return _solve(problem, control, n_steps, n, penalty_n=n)


def solve_projected(problem: ProblemSpec, control: Optional[Control] = None,
                    n_steps: Optional[int] = None) -> Solution:
    """Projection-scheme march: the independent oracle for the same limit."""
    return _solve(problem, control, n_steps, np.inf, project=True)


def solve_skeleton(problem: ProblemSpec, control: Optional[Control] = None,
                   n_steps: Optional[int] = None, tol: float = 1e-3,
                   n0: float = N0_DEFAULT,
                   n_max: float = N_MAX_DEFAULT) -> Solution:
    """Penalty-parameter doubling until consecutive solutions are Cauchy.

    Returns the last penalized solution; a failure to meet `tol` before
    `n_max` is flagged on the result and logged as a warning, not raised.
    The schedule must allow at least one doubling (2 * n0 <= n_max).
    """
    if 2 * n0 > n_max:
        raise ValueError(f"n0={n0:g} leaves no doubling below n_max={n_max:g}; "
                         "need 2 * n0 <= n_max")
    control = _check_control(problem, control, n_steps)
    prev = solve_penalized(problem, control, n0)
    n = n0
    history = []
    converged = False
    while n * 2 <= n_max:
        n *= 2
        cur = solve_penalized(problem, control, n)
        gap = ht_distance(prev.traj, cur.traj)
        history.append((n, gap))
        prev = cur
        if gap < tol:
            converged = True
            break
    if not converged:
        log.warning("penalty schedule hit n_max=%g with Cauchy gap %.3g > "
                    "tol=%g", n_max, history[-1][1], tol)
    return replace(prev, converged=converged, cauchy_gap=history[-1][1],
                   cauchy_history=tuple(history))


def complementarity_residual(sol: Solution) -> float:
    """Positive-part pairing of the solution-barrier gap with the measure.

    Integrates (u - L)^+ against the penalty (or projection-correction)
    density over space-time.  The negative-part pairing vanishes nodewise by
    construction of the density and is asserted, not returned.
    """
    gap = sol.barrier_gap()
    assert float(np.max(np.maximum(gap, 0.0) * np.maximum(-gap, 0.0))) == 0.0
    return sol.traj.dt * sol.problem.grid.h * float(
        np.sum(np.maximum(gap, 0.0) * sol.barrier_density()))
