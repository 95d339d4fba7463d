"""Obstacle-problem data: coefficients, obstacle, terminal datum, validation.

A `ProblemSpec` bundles the drift/flux/noise coefficients with their declared
Lipschitz constants, the barrier, and the terminal condition. `validate`
spot-checks the declarations on a quasi-random probe set; it does not certify
them globally.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.stats import qmc

from .grid import Field, Grid

# Coefficient signature: (t, x, y, z) -> array broadcast over x/y/z.
CoefFn = Callable[[float, np.ndarray, np.ndarray, np.ndarray], np.ndarray]

PROBE_COUNT = 1024  # power of two keeps the Sobol sequence balanced
PROBE_YZ_BOX = 5.0
LIPSCHITZ_SLACK = 1.01


class EvaluationError(ValueError):
    """A coefficient produced a non-finite value."""


@dataclass(frozen=True)
class LipschitzInfo:
    c_f: float
    c_h: float
    c_g: float
    alpha: float
    beta: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0 and 0.0 < self.beta < 1.0):
            raise ValueError("alpha and beta must lie in (0, 1)")
        if min(self.c_f, self.c_h, self.c_g) < 0.0:
            raise ValueError("Lipschitz constants must be nonnegative")


@dataclass(frozen=True)
class CoefficientSet:
    """Drift f, flux g, and the separable noise family h_j = c_j * h_shape."""

    f: CoefFn
    g: CoefFn
    h_shape: CoefFn
    mode_weights: np.ndarray  # c_j, length J, sum of squares <= 1
    lipschitz: LipschitzInfo
    hbar: Callable[[np.ndarray], np.ndarray]

    def __post_init__(self):
        c = np.asarray(self.mode_weights, dtype=float)
        if c.ndim != 1 or len(c) < 1:
            raise ValueError("mode_weights must be a nonempty vector")
        if np.sum(c**2) > 1.0 + 1e-12:
            raise ValueError("mode weights must satisfy sum c_j^2 <= 1")
        c = c.copy(); c.flags.writeable = False
        object.__setattr__(self, "mode_weights", c)

    @property
    def n_modes(self) -> int:
        return len(self.mode_weights)

    @property
    def weight_l2(self) -> float:
        return float(np.sqrt(np.sum(self.mode_weights**2)))


@dataclass(frozen=True)
class Obstacle:
    """Barrier L(t, x) with its time derivative, gradient and Laplacian maps."""

    value: Callable[[float, np.ndarray], np.ndarray]
    dt: Callable[[float, np.ndarray], np.ndarray]
    grad: Callable[[float, np.ndarray], np.ndarray]
    lap: Callable[[float, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class ProblemSpec:
    coefficients: CoefficientSet
    obstacle: Obstacle
    terminal: Callable[[np.ndarray], np.ndarray]
    horizon: float
    grid: Grid
    name: str = "custom"

    def __post_init__(self):
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")

    def terminal_field(self) -> Field:
        x = self.grid.x
        phi = np.asarray(self.terminal(x), dtype=float) + np.zeros_like(x)
        phi[0] = 0.0
        phi[-1] = 0.0
        return Field(phi, self.grid)

    def obstacle_values(self, t: float) -> np.ndarray:
        x = self.grid.x
        return np.asarray(self.obstacle.value(t, x), dtype=float) + np.zeros_like(x)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    margin: float
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def summary(self) -> str:
        lines = []
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            lines.append(f"{status}  {c.name}  margin={c.margin:+.3e}  {c.detail}")
        return "\n".join(lines)


def _probe_points(problem: ProblemSpec, count: int = PROBE_COUNT) -> np.ndarray:
    """Quasi-random (t, x, y, z) probes over the grid box times [-5, 5]^2."""
    sampler = qmc.Sobol(d=4, scramble=True, seed=20260826)
    pts = sampler.random(count)
    lo = np.array([0.0, problem.grid.x_min, -PROBE_YZ_BOX, -PROBE_YZ_BOX])
    hi = np.array([problem.horizon, problem.grid.x_max, PROBE_YZ_BOX, PROBE_YZ_BOX])
    return qmc.scale(pts, lo, hi)


def _coef_at(fn: CoefFn, pts: np.ndarray) -> np.ndarray:
    out = np.empty(len(pts))
    for i, (t, x, y, z) in enumerate(pts):
        out[i] = float(np.asarray(fn(float(t), np.array([x]), np.array([y]), np.array([z])))[0])
    return out


def _lipschitz_probe(fn: CoefFn, pts: np.ndarray, comp: int, step: float = 0.25) -> float:
    """Max sampled difference quotient of fn in argument `comp` (2=y, 3=z)."""
    shifted = pts.copy()
    shifted[:, comp] += step
    a = _coef_at(fn, pts)
    b = _coef_at(fn, shifted)
    return float(np.max(np.abs(b - a)) / step)


def validate(problem: ProblemSpec) -> ValidationReport:
    """Run all declaration checks and report margins; pass iff all pass.

    Deterministic (fixed probe seed) and side-effect free.
    """
    lips = problem.coefficients.lipschitz
    checks = []
    pts = _probe_points(problem)

    # Contraction: alpha + beta^2/2 < 1/2.
    margin = 0.5 - (lips.alpha + lips.beta**2 / 2.0)
    checks.append(CheckResult("contraction", margin > 0.0, margin,
                              f"alpha={lips.alpha}, beta={lips.beta}"))

    # Terminal compatibility on the grid: Phi >= L(T, .).
    phi = problem.terminal_field().values
    lt = problem.obstacle_values(problem.horizon)
    m = float(np.min(phi - lt))
    checks.append(CheckResult("terminal_compatibility", m >= -1e-12, m))

    # Finiteness of all coefficients on the probe set.
    bad = ""
    ok = True
    for nm, fn in (("f", problem.coefficients.f), ("g", problem.coefficients.g),
                   ("h_shape", problem.coefficients.h_shape)):
        vals = _coef_at(fn, pts)
        if not np.all(np.isfinite(vals)):
            ok = False
            bad = f"{nm} non-finite at probe {int(np.argmax(~np.isfinite(vals)))}"
            break
    checks.append(CheckResult("finite_coefficients", ok, 0.0, bad))
    if not ok:
        return ValidationReport(tuple(checks))

    # Lipschitz probes in y and z against the declared constants.
    wl2 = problem.coefficients.weight_l2
    probes = [
        ("lipschitz_f_y", problem.coefficients.f, 2, lips.c_f, 1.0),
        ("lipschitz_f_z", problem.coefficients.f, 3, lips.c_f, 1.0),
        ("lipschitz_g_y", problem.coefficients.g, 2, lips.c_g, 1.0),
        ("lipschitz_g_z", problem.coefficients.g, 3, lips.alpha, 1.0),
        ("lipschitz_h_y", problem.coefficients.h_shape, 2, lips.c_h, wl2),
        ("lipschitz_h_z", problem.coefficients.h_shape, 3, lips.beta, wl2),
    ]
    for name, fn, comp, bound, scale in probes:
        ratio = scale * _lipschitz_probe(fn, pts, comp)
        margin = bound * LIPSCHITZ_SLACK - ratio
        checks.append(CheckResult(name, margin >= 0.0, margin,
                                  f"observed={ratio:.4f}, declared={bound:.4f}"))

    # l2 envelope: |h_shape| * ||c||_2 <= hbar(x) on the probe set.
    hvals = np.abs(_coef_at(problem.coefficients.h_shape, pts)) * wl2
    env = np.asarray(problem.coefficients.hbar(pts[:, 1]), dtype=float) + np.zeros(len(pts))
    m = float(np.min(env - hvals))
    checks.append(CheckResult("hbar_envelope", m >= -1e-10, m))

    # Obstacle derivative maps vs central finite differences of L.
    checks.append(_obstacle_derivative_check(problem, pts))

    return ValidationReport(tuple(checks))


def _obstacle_derivative_check(problem: ProblemSpec, pts: np.ndarray) -> CheckResult:
    # Probes kept strictly inside [0, T) x (x_min, x_max) so the one-sided
    # terminal slice never enters the stencils.
    obs = problem.obstacle
    T = problem.horizon
    dt = 1e-4 * T
    dx = 1e-4 * (problem.grid.x_max - problem.grid.x_min)
    ts = np.clip(pts[:, 0], 2 * dt, T - 3 * dt)
    xs = np.clip(pts[:, 1], problem.grid.x_min + 2 * dx, problem.grid.x_max - 2 * dx)
    worst = 0.0
    for t, x in zip(ts[:200], xs[:200]):
        xa = np.array([x])
        fd_t = (obs.value(t + dt, xa) - obs.value(t - dt, xa)) / (2 * dt)
        fd_x = (obs.value(t, xa + dx) - obs.value(t, xa - dx)) / (2 * dx)
        fd_xx = (obs.value(t, xa + dx) - 2 * obs.value(t, xa) + obs.value(t, xa - dx)) / dx**2
        worst = max(worst,
                    float(np.max(np.abs(fd_t - obs.dt(t, xa)))),
                    float(np.max(np.abs(fd_x - obs.grad(t, xa)))),
                    float(np.max(np.abs(fd_xx - obs.lap(t, xa)))))
    tol = 1e-4
    return CheckResult("obstacle_derivatives", worst <= tol, tol - worst,
                       f"max FD mismatch {worst:.3e}")


@dataclass(frozen=True)
class CoefficientValues:
    fval: Field
    gval: Field
    hvals: np.ndarray  # (J, n_nodes), row j = c_j * h_shape


def eval_all(problem: ProblemSpec, t: float, u: Field, grad_u: Field) -> CoefficientValues:
    """Nodewise evaluation of f, g and all noise modes at the given state."""
    if u.grid != problem.grid or grad_u.grid != problem.grid:
        raise ValueError("fields do not live on the problem grid")
    x = problem.grid.x
    co = problem.coefficients
    zeros = np.zeros_like(x)
    fv = np.asarray(co.f(t, x, u.values, grad_u.values), dtype=float) + zeros
    gv = np.asarray(co.g(t, x, u.values, grad_u.values), dtype=float) + zeros
    hs = np.asarray(co.h_shape(t, x, u.values, grad_u.values), dtype=float) + zeros
    for nm, arr in (("f", fv), ("g", gv), ("h_shape", hs)):
        if not np.all(np.isfinite(arr)):
            idx = int(np.argmax(~np.isfinite(arr)))
            raise EvaluationError(f"{nm} non-finite at node {idx} (t={t})")
    hvals = co.mode_weights[:, None] * hs[None, :]
    return CoefficientValues(Field(fv, problem.grid), Field(gv, problem.grid), hvals)
