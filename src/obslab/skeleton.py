"""Deterministic controlled obstacle problem: penalization scheme and oracle.

`solve_penalized` implements the stiff-penalty march for a fixed penalty
parameter n, and `solve_penalized_rows` marches independent penalized
solves (a penalty ladder, a family of controls) as the rows of one march;
`solve_projected` replaces the penalty with a nodewise projection onto the
barrier and serves as the independent cross-check; `solve_skeleton` drives
the penalty parameter through a doubling schedule, two levels per march,
until consecutive solutions are Cauchy in the path metric.  Each returns a
`Solution`: the path u with the density of its reflection measure, from
which the barrier statistics are read.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Sequence

import numpy as np

# h_norm_array and v_norm_sq_array are not called here, but stay importable
# from this module: the traced benchmark (perfbench/layers.py) names them as
# probe sites.
from .grid import (Trajectory, h_norm_array, ht_distance,  # noqa: F401
                   time_mesh, v_norm_sq_array)
from .problem import ProblemSpec
from .stepping import barrier_table, control_drive, march

log = logging.getLogger(__name__)

N0_DEFAULT = 1_000
N_MAX_DEFAULT = 10_000_000


@dataclass(frozen=True, eq=False)
class Control:
    """A discretized control path: one row of mode values per time interval.

    `values[i, j]` is the j-th mode's value on the forward interval
    [t_i, t_{i+1}).  The squared Cameron-Martin norm is dt * sum values^2.
    It holds arrays, so `==` is identity.
    """

    horizon: float
    values: np.ndarray  # (n_steps, J)
    times: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2:
            raise ValueError(f"control values shape {v.shape} is not 2-D")
        if not np.all(np.isfinite(v)):
            raise ValueError("control contains non-finite values")
        v = v.copy(); v.flags.writeable = False
        object.__setattr__(self, "times", time_mesh(self.horizon, len(v)))
        object.__setattr__(self, "values", v)

    @property
    def dt(self) -> float:
        return float(self.horizon / self.n_steps)

    @property
    def n_steps(self) -> int:
        return len(self.values)

    @property
    def n_modes(self) -> int:
        return self.values.shape[1]

    def k_norm_sq(self) -> float:
        return float(self.dt * np.sum(self.values**2))

    def in_ball(self, bound: float) -> bool:
        """Membership in the paper's control set S_N with N = `bound`: the
        squared Cameron-Martin norm integral of |k|^2 dt is at most `bound`
        (so the ball's radius is sqrt(bound))."""
        return self.k_norm_sq() <= bound

    def with_values(self, values: np.ndarray) -> "Control":
        return Control(self.horizon, values)


def zero_control(n_steps: int, n_modes: int, horizon: float) -> Control:
    return Control(horizon, np.zeros((n_steps, n_modes)))


def constant_control(n_steps: int, n_modes: int, horizon: float,
                     value: float, mode: int = 0) -> Control:
    vals = np.zeros((n_steps, n_modes))
    vals[:, mode] = value
    return Control(horizon, vals)


@dataclass(frozen=True)
class Solution:
    """A stored solve: the path u and the density of its reflection measure
    (n = inf for the projection scheme), from which the barrier statistics
    are read.  `converged` and `cauchy_history` describe `solve_skeleton`'s
    schedule, one (n, Cauchy gap) row per doubling; the last gap is final."""

    traj: Trajectory
    density: Trajectory
    n: float
    control: Control
    problem: ProblemSpec
    converged: bool = True
    cauchy_history: tuple = ()

    @cached_property
    def barrier_gap(self) -> np.ndarray:
        """u - L on the stepped rows 0 ... n_steps - 1 at the interior
        nodes, where the barrier split acts; the pinned nodes carry none.
        Built once, as three statistics read it, and read-only, as every
        reader shares it."""
        gap = self.traj.values[:-1, 1:-1] - barrier_table(
            self.problem, self.control.n_steps)[:, 1:-1]
        gap.flags.writeable = False
        return gap

    def barrier_density(self) -> np.ndarray:
        """The density on the rows and nodes of `barrier_gap`."""
        return self.density.values[:-1, 1:-1]

    @property
    def min_gap(self) -> float:
        return float(np.min(self.barrier_gap))

    @property
    def penalty_l2(self) -> float:
        """L2(dt, dx) norm of the gap (u - L)^-.  The end-of-step gap alone
        under-resolves the sub-step layer, so it is paired with the
        pre-split gap, (1 + dt n) post = post + dt density."""
        post = np.maximum(-self.barrier_gap, 0.0)
        dt = self.traj.dt
        pre = post + dt * self.barrier_density()
        return float(np.sqrt(dt * self.problem.grid.h * np.sum(post * pre)))


def _check_control(problem: ProblemSpec, control: Control) -> None:
    if control.horizon != problem.horizon:
        raise ValueError("control mesh does not span the problem horizon")
    if control.n_modes != problem.coefficients.n_modes:
        raise ValueError("control mode count does not match the problem")


def _solve(problem: ProblemSpec, controls: Sequence[Control],
           **split) -> list:
    """Row r of one march is the solve of controls[r]; the controls share
    one mesh."""
    for control in controls:
        _check_control(problem, control)
    n_steps = controls[0].n_steps
    if any(control.n_steps != n_steps for control in controls):
        raise ValueError("the controls of one march must share one mesh")
    res = march(problem, n_steps, drive=control_drive(
        problem, np.stack([control.values for control in controls])), **split)
    ns = np.broadcast_to(np.inf if res.project else res.penalty_n,
                         len(controls))
    return [Solution(Trajectory(problem.horizon, traj, problem.grid),
                     Trajectory(problem.horizon, density, problem.grid),
                     float(n), control, problem)
            for traj, density, n, control
            in zip(res.traj, res.density, ns, controls)]


def solve_penalized(problem: ProblemSpec, control: Control,
                    n: float) -> Solution:
    """Fixed-penalty march; the workhorse behind the skeleton limit."""
    return solve_penalized_rows(problem, [control], n)[0]


def solve_penalized_rows(problem: ProblemSpec, controls: Sequence[Control],
                         n) -> list:
    """Independent penalized solves as the rows of one march: row r solves
    controls[r] at the penalty n, or at n[r] when n holds one positive
    penalty per row.  Each row equals its own `solve_penalized` bit for
    bit."""
    return _solve(problem, controls, penalty_n=n)


def solve_projected(problem: ProblemSpec, control: Control) -> Solution:
    """Projection-scheme march: the independent oracle for the same limit."""
    return _solve(problem, [control], project=True)[0]


def solve_skeleton(problem: ProblemSpec, control: Control, tol: float = 1e-3,
                   n0: float = N0_DEFAULT,
                   n_max: float = N_MAX_DEFAULT) -> Solution:
    """Penalty-parameter doubling until consecutive solutions are Cauchy.

    Returns the last penalized solution; a failure to meet `tol` before
    `n_max` is flagged on the result and logged as a warning, not raised.
    The schedule must allow at least one doubling (2 * n0 <= n_max).  The
    levels are marched two at a time, as the rows of one march (an odd
    schedule's last march has one row); a level marched past the one that
    meets `tol` is dropped.
    """
    if 2 * n0 > n_max:
        raise ValueError(f"n0={n0:g} leaves no doubling below n_max={n_max:g}; "
                         "need 2 * n0 <= n_max")
    schedule = [n0]
    while schedule[-1] * 2 <= n_max:
        schedule.append(schedule[-1] * 2)
    pairs = (schedule[lo:lo + 2] for lo in range(0, len(schedule), 2))
    solves = (sol for pair in pairs for sol in solve_penalized_rows(
        problem, [control] * len(pair), pair))
    prev = next(solves)
    history = []
    converged = False
    for cur in solves:
        gap = ht_distance(prev.traj, cur.traj)
        history.append((cur.n, gap))
        prev = cur
        if gap < tol:
            converged = True
            break
    if not converged:
        log.warning("penalty schedule hit n_max=%g with Cauchy gap %.3g > "
                    "tol=%g", n_max, history[-1][1], tol)
    return replace(prev, converged=converged, cauchy_history=tuple(history))


def complementarity_residual(sol: Solution) -> float:
    """Positive-part pairing of the solution-barrier gap with the measure.

    Integrates (u - L)^+ against the penalty (or projection-correction)
    density over space-time.  Both splits make it zero by construction: the
    penalty density n*(L - u)^+ vanishes where u > L, and the projection
    leaves u = L wherever its correction acts.
    """
    gap = sol.barrier_gap
    return sol.traj.dt * sol.problem.grid.h * float(
        np.sum(np.maximum(gap, 0.0) * sol.barrier_density()))
