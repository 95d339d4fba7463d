"""Bundled benchmark problems.

Three families, each returned as a `ProblemSpec`:

* ``heat_obstacle`` — pure heat flow with an inactive barrier in the interior
  and a carved-out terminal slice; admits a closed-form Gaussian solution,
  used as the accuracy reference.
* ``linear_additive`` — additive noise, zero drift and flux; the response to
  a deterministic control is exactly linear, used for scaling studies.
* ``quasilinear_full`` — smooth state-dependent drift, flux and noise shape
  with a time-ramped obstacle; the general-purpose stress case.

The builders do not validate their problems: `problem.validate` does, and
the harness runs it on every problem it builds.
"""
from __future__ import annotations

import numpy as np

from .grid import Grid
from .problem import CoefficientSet, LipschitzInfo, ProblemSpec

_X_MIN, _X_MAX = -4.0, 4.0


def _zeros(t, x, y, z):
    return np.zeros_like(np.asarray(x, dtype=float))


def heat_obstacle(n_nodes: int = 201) -> ProblemSpec:
    """Heat equation pressed against a zero barrier.

    Terminal datum Phi(x) = 1 - 2 exp(-x^2 / 0.05) dips to -1 near the
    origin, so the zero barrier binds there and the penalty must act.  On
    the terminal slice only, the barrier is lowered to min(0, Phi) so the
    compatibility requirement Phi >= L(T, .) holds; the march never reads
    the barrier at the terminal time, so the dynamics are those of L = 0.
    """
    grid, horizon = Grid(_X_MIN, _X_MAX, n_nodes), 1.0

    def terminal(x):
        return 1.0 - 2.0 * np.exp(-x**2 / 0.05)

    def obstacle(t, x):
        x = np.asarray(x, dtype=float)
        return np.where(t >= horizon, np.minimum(0.0, terminal(x)), 0.0)

    coeffs = CoefficientSet(
        f=_zeros, g=_zeros, h_shape=_zeros,
        mode_weights=np.array([1.0]),
        lipschitz=LipschitzInfo(c_f=0.0, c_h=0.0, c_g=0.0, alpha=1e-6, beta=1e-6),
        hbar=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        state_free=True,
    )
    return ProblemSpec(coeffs, obstacle, terminal, horizon, grid, name="heat_obstacle")


def linear_additive(n_nodes: int = 201) -> ProblemSpec:
    """Zero drift/flux, one additive noise mode of constant amplitude sigma.

    The barrier sits at -50 and never binds; the controlled response is
    exactly linear in the control, so small-noise scalings are exact.
    """
    grid, horizon, sigma = Grid(_X_MIN, _X_MAX, n_nodes), 0.5, 0.3

    def h_shape(t, x, y, z):
        return np.full_like(np.asarray(x, dtype=float), sigma)

    coeffs = CoefficientSet(
        f=_zeros, g=_zeros, h_shape=h_shape,
        mode_weights=np.array([1.0]),
        lipschitz=LipschitzInfo(c_f=0.0, c_h=0.0, c_g=0.0, alpha=1e-6, beta=1e-6),
        hbar=lambda x: np.full_like(np.asarray(x, dtype=float), sigma),
        state_free=True,
    )

    def obstacle(t, x):
        return np.full_like(np.asarray(x, dtype=float), -50.0)

    def terminal(x):
        return np.exp(-x**2 / 0.1)

    return ProblemSpec(coeffs, obstacle, terminal, horizon, grid,
                       name="linear_additive")


def quasilinear_full(n_nodes: int = 201,
                     obstacle_amplitude: float = 0.3) -> ProblemSpec:
    """Smooth nonlinear drift, flux and noise shape with a ramped obstacle.

    Declared constants: alpha = 0.2 (flux in z), beta = 0.5 (noise in z),
    satisfying the contraction alpha + beta^2/2 = 0.325 < 1/2.  The obstacle
    L(t, x) = A exp(-x^2/0.5) (1 - t/T) ramps down to zero at the horizon;
    with ``obstacle_amplitude=0`` the barrier is flat at zero and (given the
    positive terminal bump) effectively inactive.
    """
    grid, horizon = Grid(_X_MIN, _X_MAX, n_nodes), 0.3
    alpha, beta = 0.2, 0.5
    c_f, c_h = 0.4, 0.3

    def f(t, x, y, z):
        x = np.asarray(x, dtype=float)
        return 0.2 * np.sin(x) + c_f * np.tanh(y) - 0.5 * c_f * np.tanh(z)

    def g(t, x, y, z):
        x = np.asarray(x, dtype=float)
        return 0.1 * np.exp(-x**2) + 0.5 * c_f * np.tanh(y) + alpha * np.tanh(z)

    def h_shape(t, x, y, z):
        x = np.asarray(x, dtype=float)
        return 0.2 * np.cos(x) + c_h * np.tanh(y) + beta * np.tanh(z)

    weights = np.array([2.0**(-j) for j in range(1, 5)])
    wl2 = float(np.sqrt(np.sum(weights**2)))

    def hbar(x):
        x = np.asarray(x, dtype=float)
        # |h_shape| <= 0.2 + c_h + beta uniformly in (y, z).
        return np.full_like(x, wl2 * (0.2 + c_h + beta))

    coeffs = CoefficientSet(
        f=f, g=g, h_shape=h_shape, mode_weights=weights,
        lipschitz=LipschitzInfo(c_f=c_f, c_h=c_h, c_g=0.5 * c_f,
                                alpha=alpha, beta=beta),
        hbar=hbar,
    )

    A, T = obstacle_amplitude, horizon

    def obstacle(t, x):
        return A * np.exp(-np.asarray(x, dtype=float)**2 / 0.5) * (1.0 - t / T)

    def terminal(x):
        return np.exp(-np.asarray(x, dtype=float)**2 / 0.2)

    return ProblemSpec(coeffs, obstacle, terminal, horizon, grid,
                       name="quasilinear_full")


BUILDERS = {build.__name__: build
            for build in (heat_obstacle, linear_additive, quasilinear_full)}
FAMILY_NAMES = tuple(BUILDERS)


def make_problem(name: str, **overrides) -> ProblemSpec:
    """Instantiate a bundled family by name, forwarding keyword overrides."""
    if name not in BUILDERS:
        raise KeyError(f"unknown family {name!r}; choose from {FAMILY_NAMES}")
    return BUILDERS[name](**overrides)
