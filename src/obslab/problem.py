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
from numpy.random import Generator, Philox

from .grid import Field, Grid

# Coefficient signature: (t, x, y, z) -> array broadcast over t/x/y/z; the
# obstacle L(t, x) broadcasts alike.  t may be a column of step times.
CoefFn = Callable[[float, np.ndarray, np.ndarray, np.ndarray], np.ndarray]

PROBE_COUNT = 1024  # uniform (t, x, y, z) probes per validate call
PROBE_YZ_BOX = 5.0
PROBE_STEP = 0.25  # shift of y or z in the Lipschitz difference quotients
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
    the march then reads them once, over its step times at y = z = 0, and
    `validate` checks the declaration.
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

    def evaluate(self, t, x, y, z) -> tuple:
        """(f, g, h_shape) at (t, x, y, z), each as a float array of the
        arguments' broadcast shape, whatever shape its callable returns."""
        zero = np.zeros(np.broadcast_shapes(*map(np.shape, (t, x, y, z))))
        return tuple(np.asarray(fn(t, x, y, z), dtype=float) + zero
                     for fn in (self.f, self.g, self.h_shape))


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

    def obstacle_values(self, t) -> np.ndarray:
        """The barrier on the grid at t, one row per time if t is a column."""
        x = self.grid.x
        return np.asarray(self.obstacle(t, x), dtype=float) \
            + np.zeros(np.broadcast_shapes(np.shape(t), x.shape))


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
    gen = Generator(Philox(key=[20260826, 0]))
    return gen.uniform(lo, hi, size=(PROBE_COUNT, 4))


def _non_finite(name: str, vals: np.ndarray) -> str:
    """Where `vals` is first non-finite, named; "" if nowhere."""
    bad = ~np.isfinite(vals)
    return f"{name} non-finite at probe {int(np.argmax(bad))}" \
        if bad.any() else ""


def validate(problem: ProblemSpec) -> ValidationReport:
    """Run all declaration checks and report margins; pass iff all pass.

    Deterministic (fixed probe seed) and side-effect free.
    """
    co = problem.coefficients
    lips = co.lipschitz
    checks = []
    t, x, y, z = _probe_points(problem).T

    # Contraction: alpha + beta^2/2 < 1/2.
    margin = 0.5 - (lips.alpha + lips.beta**2 / 2.0)
    checks.append(CheckResult("contraction", margin > 0.0, margin,
                              f"alpha={lips.alpha}, beta={lips.beta}"))

    # Terminal compatibility on the grid: Phi >= L(T, .).
    phi = problem.terminal_field().values
    lt = problem.obstacle_values(problem.horizon)
    m = float(np.min(phi - lt))
    checks.append(CheckResult("terminal_compatibility", m >= -1e-12, m))

    # Finiteness of the obstacle, read over the probe times as the march
    # reads it over its step times, and of f, g and h_shape on the probes.
    try:
        bad = _non_finite("L", problem.obstacle(t, x) + np.zeros_like(t))
    except (TypeError, ValueError) as exc:
        bad = f"does not broadcast over t: {exc}"
    checks.append(CheckResult("finite_obstacle", not bad, 0.0, bad))
    base = co.evaluate(t, x, y, z)
    bad = next(filter(None, map(_non_finite, ("f", "g", "h_shape"), base)), "")
    checks.append(CheckResult("finite_coefficients", not bad, 0.0, bad))
    if bad:
        return ValidationReport(tuple(checks))

    # Lipschitz probes in y and z: the max sampled difference quotient of
    # each coefficient against its declared constant.
    wl2 = co.weight_l2
    shifted = {"y": co.evaluate(t, x, y + PROBE_STEP, z),
               "z": co.evaluate(t, x, y, z + PROBE_STEP)}
    declared = (("f", 1.0, {"y": lips.c_f, "z": lips.c_f}),
                ("g", 1.0, {"y": lips.c_g, "z": lips.alpha}),
                ("h", wl2, {"y": lips.c_h, "z": lips.beta}))
    moves = {}  # unscaled difference quotient per coefficient and argument
    for k, (nm, scale, bounds) in enumerate(declared):
        for arg, bound in bounds.items():
            q = float(np.max(np.abs(shifted[arg][k] - base[k])) / PROBE_STEP)
            moves[f"{nm}_{arg}"] = q
            ratio = scale * q
            margin = bound * LIPSCHITZ_SLACK - ratio
            checks.append(CheckResult(f"lipschitz_{nm}_{arg}", margin >= 0.0,
                                      margin, f"observed={ratio:.4f}, "
                                      f"declared={bound:.4f}"))

    # A state-free declaration: f, g and h_shape are exactly unchanged when
    # y or z is shifted.
    if co.state_free:
        moved = [k for k, q in moves.items() if q != 0.0]
        checks.append(CheckResult(
            "state_free", not moved, -max(moves.values()),
            f"moves in {', '.join(moved)}" if moved else ""))

    # l2 envelope: |h_shape| * ||c||_2 <= hbar(x) on the probe set.
    hvals = np.abs(base[2]) * wl2
    env = np.asarray(co.hbar(x), dtype=float) + np.zeros_like(x)
    m = float(np.min(env - hvals))
    checks.append(CheckResult("hbar_envelope", m >= -1e-10, m))

    return ValidationReport(tuple(checks))
