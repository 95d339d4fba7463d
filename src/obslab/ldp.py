"""Rate functional over controls, its constrained minimization, and the
Monte Carlo rare-event comparison.

The action of a control is half its squared Cameron-Martin norm; the rate of
a target event is the least action over controls steering the deterministic
solver into the event.  Minimization is penalty-continuation gradient
descent with finite-difference gradients, robust to the barrier kink.  The
rare-event module estimates small-noise probabilities (optionally under an
importance-sampling drift at the minimizer) and compares eps * log p to the
negated rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .grid import Field, h_norm_array, ht_distance
from .problem import ProblemSpec
# solve_skeleton is not called here, but stays importable from this module:
# the traced benchmark (perfbench/layers.py) names it as a probe site.
from .skeleton import (Control, solve_penalized, solve_skeleton,  # noqa: F401
                       zero_control)
from .spde import sample_terminal_states
from .stepping import march

DEFAULT_LAMBDAS = (10.0, 100.0, 1000.0, 10000.0)
OPT_KEYS = ("n_steps", "penalty_n", "max_iters", "feasibility_tol")


@dataclass(frozen=True)
class TargetEvent:
    """A rare-event set read from terminal states only: the ball
    {u : |u(0,.) - center|_H <= radius}."""

    center: Field
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("a terminal ball needs radius > 0")

    def hinge(self, final_states: np.ndarray, grid) -> np.ndarray:
        """Distance-to-event surrogate per state along the leading axis;
        zero iff the state is inside."""
        d = h_norm_array(final_states - self.center.values, grid.h)
        return np.maximum(0.0, d - self.radius)

    def contains_final(self, final_states: np.ndarray, grid) -> np.ndarray:
        """Vectorized membership of terminal states."""
        d = h_norm_array(final_states - self.center.values, grid.h)
        return d <= self.radius


@dataclass
class RateResult:
    minimizer: Control
    rate: float
    constraint_residual: float
    feasible: bool
    lambda_history: list = field(default_factory=list)


def rate_functional(k: Control) -> float:
    """Half the squared Cameron-Martin norm of the control."""
    return 0.5 * k.k_norm_sq()


def _solution_values(problem: ProblemSpec, k: Control,
                     penalty_n: float) -> np.ndarray:
    """State at forward time 0 of the penalized solve under control k."""
    return march(problem, k.n_steps, penalty_n=penalty_n,
                 control_values=k.values, store=False).final


def _batched_hinges(problem: ProblemSpec, template: Control,
                    value_batch: np.ndarray, event: TargetEvent,
                    penalty_n: float) -> np.ndarray:
    """Event hinge for a batch of control value matrices in one march."""
    res = march(problem, template.n_steps, penalty_n=penalty_n,
                control_values=value_batch, store=False)
    return event.hinge(res.final, problem.grid)


def minimize_rate(problem: ProblemSpec, event: TargetEvent,
                  lambda_schedule: Sequence[float] = DEFAULT_LAMBDAS,
                  opt_config: Optional[dict] = None) -> RateResult:
    """Penalty-continuation gradient descent on action + lambda * hinge^2.

    The first continuation stage starts from the zero control and each
    later one warm-starts from the previous, with forward finite-difference
    gradients (relative step 1e-6) and backtracking line search.  Returns the infeasibility sentinel (rate = +inf) when the final
    residual exceeds the feasibility tolerance.  `opt_config` may set
    `n_steps` (50), `penalty_n` (1e4), `max_iters` (80) per stage and
    `feasibility_tol` (1e-3).
    """
    cfg = dict(opt_config or {})
    unknown = sorted(set(cfg) - set(OPT_KEYS))
    if unknown:
        raise ValueError(f"unknown opt_config keys {unknown}; "
                         f"expected some of {list(OPT_KEYS)}")
    n_steps = cfg.get("n_steps", 50)
    init = zero_control(n_steps, problem.coefficients.n_modes, problem.horizon)
    dt = init.dt
    grid = problem.grid
    max_iters = cfg.get("max_iters", 80)
    feas_tol = cfg.get("feasibility_tol", 1e-3)
    penalty_n = cfg.get("penalty_n", 1e4)
    fd_rel = 1e-6

    def objective(vals: np.ndarray, lam: float):
        k = init.with_values(vals)
        rate = rate_functional(k)
        res = float(event.hinge(_solution_values(problem, k, penalty_n), grid))
        return rate + lam * res * res, rate, res

    def fd_gradient(vals: np.ndarray, lam: float, f0: float) -> np.ndarray:
        flat = vals.ravel()
        dim = flat.size
        steps = fd_rel * np.maximum(1.0, np.abs(flat))
        perts = np.broadcast_to(flat, (dim, dim)).copy()
        perts[np.arange(dim), np.arange(dim)] += steps
        perts = perts.reshape((dim,) + vals.shape)
        hinges = _batched_hinges(problem, init, perts, event, penalty_n)
        rates = 0.5 * dt * np.sum(perts.reshape(dim, -1)**2, axis=1)
        f1 = rates + lam * hinges**2
        return ((f1 - f0) / steps).reshape(vals.shape)

    vals = init.values.copy()
    history = []
    stagnant = 0
    best_feasible = None
    for lam in lambda_schedule:
        f0, rate, res = objective(vals, lam)
        for _ in range(max_iters):
            g = fd_gradient(vals, lam, f0)
            gnorm = float(np.sqrt(np.sum(g**2)))
            if gnorm < 1e-12:
                break
            step = 1.0 / max(lam * dt, 1.0)
            improved = False
            for _ in range(30):
                cand = vals - step * g
                f1, r1, s1 = objective(cand, lam)
                if f1 < f0 - 1e-4 * step * gnorm**2:
                    vals, f_prev = cand, f0
                    f0, rate, res = f1, r1, s1
                    improved = True
                    break
                step *= 0.5
            if not improved:
                break
            if f_prev - f0 < 1e-10 * max(1.0, abs(f0)):
                break
        history.append((float(lam), float(rate), float(res)))
        if res <= feas_tol and (best_feasible is None or rate <= best_feasible[0]):
            best_feasible = (rate, vals.copy(), res)
        if len(history) >= 2 and abs(history[-2][1] - rate) < 1e-10 \
                and abs(history[-2][2] - res) < 1e-10:
            stagnant += 1
            if stagnant >= 2:
                break
        else:
            stagnant = 0

    k_final = init.with_values(vals)
    if best_feasible is not None:
        rate, bv, res = best_feasible
        k_final = init.with_values(bv)
        return RateResult(k_final, rate_functional(k_final), res, True, history)
    return RateResult(k_final, math.inf, history[-1][2], False, history)


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
    like 1/m by integration by parts.
    """
    T = problem.horizon
    t_mid = 0.5 * (k.times[:-1] + k.times[1:])
    base = solve_penalized(problem, k, penalty_n)
    rows = []
    for m in frequencies:
        vals = k.values.copy()
        vals[:, 0] += oscillation_amplitude * np.sin(2.0 * np.pi * m * t_mid / T)
        km = k.with_values(vals)
        if ball_radius is not None and not km.in_ball(ball_radius):
            raise ValueError(f"perturbed control at m={m} leaves the control ball")
        sol = solve_penalized(problem, km, penalty_n)
        witness = abs(float(k.dt * np.sum(np.sin(2.0 * np.pi * m * t_mid / T)
                                          * (t_mid / T))))
        rows.append({
            "frequency": int(m),
            "distance": float(ht_distance(sol.traj, base.traj)),
            "witness_integral": witness,
        })
    dists = [r["distance"] for r in rows]
    return {
        "rows": rows,
        "monotone_decreasing": bool(all(b <= a for a, b in zip(dists, dists[1:]))),
        "final_over_initial": float(dists[-1] / dists[0]) if dists[0] > 0 else 0.0,
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
    in eps and compared to the negated rate.
    """
    if use_importance:
        if rate_result is None or not rate_result.feasible:
            raise ValueError("importance sampling needs a feasible rate result")
        k_star = rate_result.minimizer
        if k_star.n_steps != n_steps:
            raise ValueError("minimizer mesh does not match n_steps")
        k_sq = k_star.k_norm_sq()
    grid = problem.grid
    per_eps = []
    for i_eps, eps in enumerate(epsilon_list):
        control = k_star if use_importance else None
        acc = np.empty(0)
        for final, inc in sample_terminal_states(
                problem, eps, penalty_n, n_steps, n_samples, seed + i_eps,
                control=control):
            inside = event.contains_final(final, grid).astype(float)
            if use_importance:
                # inc are the shifted-measure increments; the exponent is
                # -<k*, dB>/sqrt(eps) - |k*|^2/(2 eps).
                dot = np.einsum("sij,ij->s", inc, k_star.values)
                lr = np.exp(-dot / np.sqrt(eps) - k_sq / (2.0 * eps))
                inside = inside * lr
            acc = np.concatenate([acc, inside])
        p_hat = float(np.mean(acc))
        se = float(np.std(acc, ddof=1) / np.sqrt(len(acc)))
        entry = {
            "epsilon": float(eps),
            "p_hat": p_hat,
            "std_error": se,
            "reliable": p_hat > 0.0,
        }
        entry["eps_log_p"] = float(eps * np.log(p_hat)) if p_hat > 0 else None
        per_eps.append(entry)
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
