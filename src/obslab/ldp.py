"""Rate functional over controls, its constrained minimization, and the
Monte Carlo rare-event comparison.

The action of a control is half its squared Cameron-Martin norm; the rate of
a target event is the least action over controls steering the deterministic
solver into the event.  Minimization is sequential quadratic programming
(SLSQP) on that constrained problem, with an analytic action gradient and
the terminal distance's gradient from a discrete adjoint of the march.  The
rare-event comparison reads the terminal states of `spde.sweep_epsilon`
(optionally under an importance-sampling drift at the minimizer) as event
weights, and compares eps * log p to the negated rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np
from scipy.optimize import minimize

from .grid import Field, h_norm_array, ht_distance
from .problem import ProblemSpec
# solve_skeleton and sample_terminal_states are not called here, but stay
# importable from this module: the traced benchmark (perfbench/layers.py)
# names them as probe sites.
from .skeleton import (Control, solve_penalized, solve_skeleton,  # noqa: F401
                       zero_control)
from .spde import (mean_and_std_error, sample_terminal_states,  # noqa: F401
                   sweep_epsilon)
from .stepping import (MarchResult, control_drive, control_gradient, march,
                       march_adjoint)

SLSQP_FTOL = 1e-10     # SLSQP's accuracy target (its `ftol`)
# Least Kish effective sample size of a reliable estimate: p_hat's relative
# standard error is about 1/sqrt(ESS), so at 10 log p_hat is off by about 0.3.
RELIABLE_ESS = 10.0


@dataclass(frozen=True)
class TargetEvent:
    """A rare-event set read from terminal states only: the ball
    {u : |u(0,.) - center|_H <= radius}."""

    center: Field
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("a terminal ball needs radius > 0")

    def excess(self, final_states: np.ndarray, grid) -> np.ndarray:
        """Signed distance |u - center|_H - radius per state along the
        leading axis; <= 0 iff the state is inside."""
        return h_norm_array(final_states - self.center.values,
                            grid.h) - self.radius

    def hinge(self, final_states: np.ndarray, grid) -> np.ndarray:
        """Distance outside the ball per state; zero iff the state is
        inside."""
        return np.maximum(0.0, self.excess(final_states, grid))

    def contains_final(self, final_states: np.ndarray, grid) -> np.ndarray:
        """Vectorized membership of terminal states."""
        return self.excess(final_states, grid) <= 0.0


@dataclass
class RateResult:
    minimizer: Control
    rate: float
    constraint_residual: float
    feasible: bool
    # solver trace: (iteration, action, residual) per SQP iterate
    lambda_history: list = field(default_factory=list)
    message: str = ""


def rate_functional(k: Control) -> float:
    """Half the squared Cameron-Martin norm of the control."""
    return 0.5 * k.k_norm_sq()


# _solution_values and _batched_hinges are not called by the solver, but stay:
# the traced benchmark (perfbench/layers.py) names them as probe sites.
def _solution_values(problem: ProblemSpec, k: Control,
                     penalty_n: float) -> np.ndarray:
    """State at forward time 0 of the penalized solve under control k."""
    return march(problem, k.n_steps, penalty_n=penalty_n,
                 drive=control_drive(problem, k.values), store=False).final


def _batched_hinges(problem: ProblemSpec, template: Control,
                    value_batch: np.ndarray, event: TargetEvent,
                    penalty_n: float) -> np.ndarray:
    """Event excess for a batch of control value matrices in one march."""
    res = march(problem, template.n_steps, penalty_n=penalty_n,
                drive=control_drive(problem, value_batch), store=False)
    return event.excess(res.final, problem.grid)


def _excess_gradient(problem: ProblemSpec, event: TargetEvent,
                     res: MarchResult) -> np.ndarray:
    """Gradient of the event excess over the control values, from the
    stored penalty march `res` under their drive.

    The excess |d|_H - radius, d = u(0) - center, has the cotangent
    h d / |d|_H on u(0); at d = 0, where it has no gradient, the result is
    0.  The march's drive gradient reaches the values through
    `control_gradient`.
    """
    h = problem.grid.h
    d = res.final - event.center.values
    norm = float(h_norm_array(d, h))
    if norm == 0.0:
        return np.zeros((len(res.drive), problem.coefficients.n_modes))
    return control_gradient(problem, march_adjoint(problem, res, h * d / norm))


def minimize_rate(problem: ProblemSpec, event: TargetEvent, *,
                  n_steps: int, penalty_n: float,
                  max_iters: int = 80) -> RateResult:
    """Least action over controls whose terminal state lies in the event.

    Solves  min 1/2 dt |k|^2  subject to  radius - |u(0; k) - center|_H >= 0
    over controls on `n_steps` steps, u marched at `penalty_n`, by
    sequential quadratic programming (SLSQP, Kraft 1988) from the zero
    control, in at most `max_iters` iterations.  The action gradient is
    analytic; the constraint gradient is one backward sweep
    (`stepping.march_adjoint`) through the stored march that evaluated the
    constraint at the same point.  A start inside the
    ball has rate 0 and needs no solve.  Returns the infeasibility sentinel
    (rate = +inf) unless SLSQP reports success, which it does only with the
    constraint met to its accuracy `SLSQP_FTOL`.
    """
    init = zero_control(n_steps, problem.coefficients.n_modes, problem.horizon)
    dt = init.dt
    shape = init.values.shape
    last = {}

    def excess(x: np.ndarray) -> float:
        # SLSQP asks for the constraint and then its gradient at the same
        # point; the gradient sweeps back through the march cached here.
        if "x" not in last or not np.array_equal(last["x"], x):
            res = march(problem, n_steps, penalty_n=penalty_n,
                        drive=control_drive(problem, x.reshape(shape)))
            last.update(x=x.copy(), march=res,
                        e=float(event.excess(res.final, problem.grid)))
        return last["e"]

    def excess_gradient(x: np.ndarray) -> np.ndarray:
        excess(x)
        return _excess_gradient(problem, event, last["march"]).ravel()

    def action(x: np.ndarray):
        return 0.5 * dt * float(x @ x), dt * x

    x0 = init.values.ravel()
    if excess(x0) <= 0.0:
        return RateResult(init, 0.0, 0.0, True, [(0, 0.0, 0.0)],
                          "start is inside the event")

    history = []

    def record(x: np.ndarray) -> None:
        history.append((len(history) + 1, action(x)[0],
                        max(0.0, excess(x))))

    sol = minimize(action, x0, jac=True, method="SLSQP",
                   constraints={"type": "ineq",
                                "fun": lambda x: -excess(x),
                                "jac": lambda x: -excess_gradient(x)[None, :]},
                   callback=record,
                   options={"maxiter": max_iters,
                            "ftol": SLSQP_FTOL})
    k_final = init.with_values(sol.x.reshape(shape))
    residual = max(0.0, excess(sol.x))
    feasible = bool(sol.success)
    rate = rate_functional(k_final) if feasible else math.inf
    return RateResult(k_final, rate, residual, feasible, history, sol.message)


def kish_ess(weights: np.ndarray) -> float:
    """Kish effective sample size (sum w)^2 / sum w^2 of nonnegative
    weights; 0 when every weight is 0.

    The weights are first scaled by the power of two that takes the largest
    into [0.5, 1).  That scaling is exact, so the ESS keeps the bits of the
    unscaled formula wherever its squares are normal numbers, and tiny
    weights (importance weights at small epsilon) neither lose bits to
    subnormal squares nor square to zero."""
    if float(np.sum(weights)) <= 0.0:
        return 0.0
    scaled = np.ldexp(weights, -np.frexp(np.max(weights))[1])
    total = float(np.sum(scaled))
    return total * total / float(np.sum(scaled * scaled))


def condition_ii_test(problem: ProblemSpec, k: Control,
                      oscillation_amplitude: float,
                      frequencies: Sequence[int],
                      ball_radius: Optional[float] = None,
                      penalty_n: float = 1e4) -> dict:
    """Stability of the solution map under weakly vanishing perturbations.

    Adds a * sin(2 pi m t / T) to the first mode for each frequency m and
    reports the path distance of the perturbed solution to the base one,
    together with the weak-convergence witness |integral of sin(2 pi m t / T)
    * phi(t) dt| for the fixed smooth witness phi(t) = t / T, which decays
    like 1/m by integration by parts.  `final_over_initial` is None when
    the first perturbation moves nothing (distance 0): no decay is seen.
    Every perturbed control is checked against `ball_radius` before any
    solve.
    """
    T = problem.horizon
    t_mid = 0.5 * (k.times[:-1] + k.times[1:])
    perturbed = []
    for m in frequencies:
        wave = np.sin(2.0 * np.pi * m * t_mid / T)
        vals = k.values.copy()
        vals[:, 0] += oscillation_amplitude * wave
        km = k.with_values(vals)
        if ball_radius is not None and not km.in_ball(ball_radius):
            raise ValueError(f"perturbed control at m={m} leaves the control ball")
        perturbed.append((m, wave, km))
    base = solve_penalized(problem, k, penalty_n)
    rows = []
    for m, wave, km in perturbed:
        sol = solve_penalized(problem, km, penalty_n)
        witness = abs(float(k.dt * np.sum(wave * (t_mid / T))))
        rows.append({
            "frequency": int(m),
            "distance": float(ht_distance(sol.traj, base.traj)),
            "witness_integral": witness,
        })
    dists = [r["distance"] for r in rows]
    return {
        "rows": rows,
        "monotone_decreasing": bool(all(b <= a for a, b in zip(dists, dists[1:]))),
        "final_over_initial": float(dists[-1] / dists[0]) if dists[0] > 0 else None,
    }


def mc_ldp_compare(problem: ProblemSpec, event: TargetEvent,
                   epsilon_list: Sequence[float], n_samples: int, seed: int,
                   use_importance: bool = False,
                   rate_result: Optional[RateResult] = None,
                   penalty_n: float = 1e4, n_steps: int = 50) -> dict:
    """Small-noise event probabilities against the rate-function prediction.

    Per epsilon, p is estimated by plain Monte Carlo or, when requested, by
    importance sampling under the drift of the minimizing control with the
    exact discrete likelihood ratio.  eps * log p is extrapolated linearly
    in eps and compared to the negated rate.  Each epsilon also reports the
    health of its estimate: the samples inside the event (`hits`), the
    Kish effective sample size of the weights (`ess`; equal to `hits` for
    plain Monte Carlo) and the largest weight's share of their sum.  Only
    the `reliable` estimates, ESS at least `RELIABLE_ESS`, are extrapolated.
    """
    if use_importance:
        if rate_result is None or not rate_result.feasible:
            raise ValueError("importance sampling needs a feasible rate result")
        k_star = rate_result.minimizer
        if k_star.n_steps != n_steps:
            raise ValueError("minimizer mesh does not match n_steps")
        k_sq = k_star.k_norm_sq()
    control = k_star if use_importance else None

    def read(eps, res, inc):
        hit = event.contains_final(res.final, problem.grid)
        weight = hit.astype(float)
        if use_importance:
            # inc are the shifted-measure increments; the exponent is
            # -<k*, dB>/sqrt(eps) - |k*|^2/(2 eps).
            dot = np.einsum("sij,ij->s", inc, k_star.values)
            weight = weight * np.exp(-dot / np.sqrt(eps) - k_sq / (2.0 * eps))
        return hit, weight

    per_eps = []
    for eps, (hit, acc) in zip(epsilon_list, sweep_epsilon(
            problem, epsilon_list, penalty_n, n_steps, n_samples, seed, read,
            control=control)):
        p_hat, se = mean_and_std_error(acc)
        ess = kish_ess(acc)
        per_eps.append({
            "epsilon": float(eps),
            "p_hat": p_hat,
            "std_error": se,
            "reliable": ess >= RELIABLE_ESS,
            "hits": int(np.count_nonzero(hit)),
            "ess": ess,
            "max_weight_share": (float(np.max(acc) / np.sum(acc))
                                 if p_hat > 0 else None),
            "eps_log_p": float(eps * np.log(p_hat)) if p_hat > 0 else None,
        })
    ok = [r for r in per_eps if r["reliable"]]
    report = {"per_epsilon": per_eps, "n_samples": int(n_samples),
              "seed": int(seed), "importance": bool(use_importance)}
    if len(ok) >= 2:
        e = np.array([r["epsilon"] for r in ok])
        y = np.array([r["eps_log_p"] for r in ok])
        order = np.argsort(e)
        # Fit on the smallest half of the sweep: the prefactor's eps*log(eps)
        # curvature pollutes a straight-line fit at the large-eps end.
        m = max(2, len(e) // 2 + 1)
        coeff = np.polyfit(e[order][:m], y[order][:m], 1)
        report["extrapolated_eps_log_p"] = float(coeff[1])
    if rate_result is not None and np.isfinite(rate_result.rate):
        report["minus_rate"] = -float(rate_result.rate)
        if "extrapolated_eps_log_p" in report and rate_result.rate > 0:
            report["relative_error"] = float(
                abs(report["extrapolated_eps_log_p"] + rate_result.rate)
                / rate_result.rate)
    return report
