"""Obstacle-problem data: coefficients, obstacle, terminal datum, validation.

A `ProblemSpec` bundles the drift/flux/noise coefficients with their declared
Lipschitz constants, the barrier, and the terminal condition. `validate`
spot-checks the declarations on a fixed-seed random probe set; it does not
certify them globally.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import Field, Grid

# Coefficient signature: (t, x, y, z) -> array broadcast over t/x/y/z.  The
# march passes a scalar t; `validate` passes one array of probe times.
CoefFn = Callable[[float, np.ndarray, np.ndarray, np.ndarray], np.ndarray]

PROBE_COUNT = 1024  # uniform (t, x, y, z) probes per validate call
PROBE_YZ_BOX = 5.0
LIPSCHITZ_SLACK = 1.01


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
    """Drift f, flux g, and the separable noise family h_j = c_j * h_shape.

    `state_free` declares that f, g and h_shape ignore the state (y, z):
    the march then evaluates them once per step on one zero row instead of
    on the whole batch, and `validate` checks the declaration.
    """

    f: CoefFn
    g: CoefFn
    h_shape: CoefFn
    mode_weights: np.ndarray  # c_j, length J, sum of squares <= 1
    lipschitz: LipschitzInfo
    hbar: Callable[[np.ndarray], np.ndarray]
    state_free: bool = False

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
class ProblemSpec:
    coefficients: CoefficientSet
    obstacle: Callable[[float, np.ndarray], np.ndarray]  # barrier L(t, x)
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
        return np.asarray(self.obstacle(t, x), dtype=float) + np.zeros_like(x)


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


def _probe_points(problem: ProblemSpec) -> np.ndarray:
    """Fixed-seed uniform (t, x, y, z) probes over the grid box times [-5, 5]^2."""
    lo = np.array([0.0, problem.grid.x_min, -PROBE_YZ_BOX, -PROBE_YZ_BOX])
    hi = np.array([problem.horizon, problem.grid.x_max, PROBE_YZ_BOX, PROBE_YZ_BOX])
    gen = np.random.Generator(np.random.Philox(key=[20260826, 0]))
    return gen.uniform(lo, hi, size=(PROBE_COUNT, 4))


def _coef_at(fn: CoefFn, pts: np.ndarray) -> np.ndarray:
    """fn at every probe (t, x, y, z), in one call over the probe columns."""
    t, x, y, z = pts.T
    return np.asarray(fn(t, x, y, z), dtype=float) + np.zeros(len(pts))


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
    moves = {}  # unscaled difference quotient per coefficient and argument
    for name, fn, comp, bound, scale in probes:
        q = _lipschitz_probe(fn, pts, comp)
        moves[name[len("lipschitz_"):]] = q
        ratio = scale * q
        margin = bound * LIPSCHITZ_SLACK - ratio
        checks.append(CheckResult(name, margin >= 0.0, margin,
                                  f"observed={ratio:.4f}, declared={bound:.4f}"))

    # A state-free declaration: f, g and h_shape are exactly unchanged when
    # y or z is shifted.
    if problem.coefficients.state_free:
        moved = [k for k, q in moves.items() if q != 0.0]
        checks.append(CheckResult(
            "state_free", not moved, -max(moves.values()),
            f"moves in {', '.join(moved)}" if moved else ""))

    # l2 envelope: |h_shape| * ||c||_2 <= hbar(x) on the probe set.
    hvals = np.abs(_coef_at(problem.coefficients.h_shape, pts)) * wl2
    env = np.asarray(problem.coefficients.hbar(pts[:, 1]), dtype=float) + np.zeros(len(pts))
    m = float(np.min(env - hvals))
    checks.append(CheckResult("hbar_envelope", m >= -1e-10, m))

    return ValidationReport(tuple(checks))
