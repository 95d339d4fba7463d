"""Rate functional over controls, its constrained minimization, and the
Monte Carlo rare-event comparison.

The action of a control is half its squared Cameron-Martin norm; the rate of
a target event, a functional of u(0) with a value and a cotangent, is the
least action over controls steering the deterministic solver into the event.
Its one smooth inequality, the excess, gives the sequential quadratic
programming step a closed form: a small SQP loop with a damped BFGS model of
the Lagrangian's Hessian, an analytic action gradient and the cotangent swept
back by a discrete adjoint of the march.  The rare-event comparison reads the
terminal states of `spde.sweep_epsilon` under the rate result's minimizer, on
its mesh and at its penalty, as importance-sampling event weights (plain Monte
Carlo under a zero minimizer), and compares eps * log p to the negated rate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

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

# The rate solver converges when the excess is at most EXCESS_TOL and the
# next QP step would change the action by less than ACTION_TOL, measured as
# |grad f.d| + lam |e| (SLSQP's test at its accuracy `ftol`); a converged
# point is not marched again.
CONVERGED = "Optimization terminated successfully"
ACTION_TOL = 1e-10
EXCESS_TOL = 1e-10
# Its line search: sufficient decrease ARMIJO on the l1 merit, the step cut
# by BACKTRACK at most MAX_BACKTRACKS times.
ARMIJO = 1e-4
BACKTRACK = 0.5
MAX_BACKTRACKS = 30
# Powell's damping keeps s.y >= DAMPING s.Hs, so H stays positive definite.
DAMPING = 0.2
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

    def excess(self, final_states: np.ndarray) -> np.ndarray:
        """Signed distance |u - center|_H - radius per state along the
        leading axis, on the centre's grid; <= 0 iff the state is inside."""
        return h_norm_array(final_states - self.center.values,
                            self.center.grid.h) - self.radius

    def hinge(self, final_states: np.ndarray) -> np.ndarray:
        """Distance outside the ball per state; zero iff the state is
        inside."""
        return np.maximum(0.0, self.excess(final_states))

    def contains_final(self, final_states: np.ndarray) -> np.ndarray:
        """Vectorized membership of terminal states."""
        return self.excess(final_states) <= 0.0

    def cotangent(self, final: np.ndarray) -> np.ndarray:
        """Gradient h d / |d|_H of the excess on one final state, d = u(0) -
        center; 0 at d = 0, where the excess has no gradient."""
        d = final - self.center.values
        norm = float(h_norm_array(d, self.center.grid.h))
        return self.center.grid.h * d / norm if norm else np.zeros_like(d)


@dataclass
class RateResult:
    minimizer: Control
    penalty_n: float    # the penalty that every visited point was marched at
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
    return event.excess(res.final)


def _excess_gradient(problem: ProblemSpec, event: TargetEvent,
                     res: MarchResult) -> np.ndarray:
    """Gradient of the event excess over the control values, from the
    stored penalty march `res` under their drive: the event's cotangent on
    u(0), swept back through the march and reduced to the values."""
    cotangent = event.cotangent(res.final)
    return control_gradient(problem, march_adjoint(problem, res, cotangent))


def minimize_rate(problem: ProblemSpec, event: TargetEvent, *,
                  n_steps: int, penalty_n: float,
                  max_iters: int = 80) -> RateResult:
    """Least action over controls whose terminal state lies in the event.

    Solves  min f(k) = 1/2 dt |k|^2  subject to  e(k) = |u(0; k) - center|_H
    - radius <= 0  over controls on `n_steps` steps, u marched at
    `penalty_n`, by sequential quadratic programming from the zero control,
    in at most `max_iters` iterations.  With one constraint the QP step has
    a closed form: d = -H^-1 (grad f + lam a), a = grad e, with
    lam = max(0, (e - a.H^-1 grad f) / a.H^-1 a), which meets the
    linearized constraint.  H models the Hessian of the Lagrangian by
    Powell-damped BFGS from dt I (Powell 1978), kept here as its inverse; a
    backtracking search on the l1 merit f + mu e+ takes the step.  Each
    point visited costs one stored march, and the gradient of an accepted
    point is one backward sweep (`stepping.march_adjoint`) through it.

    A start inside the ball has rate 0 and needs no step.  The rate is the
    infeasibility sentinel +inf unless the loop converges (`CONVERGED`:
    the constraint met to `EXCESS_TOL`, the action settled to
    `ACTION_TOL`); `message` says why the loop stopped: convergence, the
    iteration limit, a zero constraint gradient (no control moves the
    terminal state) or a failed line search.  `lambda_history` holds one
    (iteration, action, residual) row per accepted iterate.
    """
    init = zero_control(n_steps, problem.coefficients.n_modes, problem.horizon)
    dt = init.dt
    shape = init.values.shape

    def visit(x: np.ndarray):
        res = march(problem, n_steps, penalty_n=penalty_n,
                    drive=control_drive(problem, x.reshape(shape)))
        return res, float(event.excess(res.final))

    x = init.values.ravel()
    res, e = visit(x)
    if e <= 0.0:
        return RateResult(init, penalty_n, 0.0, 0.0, True, [(0, 0.0, 0.0)],
                          "start is inside the event")

    a = _excess_gradient(problem, event, res).ravel()
    W = np.eye(x.size) / dt     # H^-1
    f = mu = 0.0
    history = []
    message = "Iteration limit reached"
    # pass max_iters + 1 takes no step: it only tests the last iterate
    for it in range(1, max_iters + 2):
        if not np.any(a):
            message = "Constraint gradient is zero: no control moves the state"
            break
        g = dt * x
        Wg, Wa = W @ g, W @ a
        lam = max(0.0, (e - float(a @ Wg)) / float(a @ Wa))
        d = -(Wg + lam * Wa)
        gd = float(g @ d)
        if abs(gd) + lam * abs(e) < ACTION_TOL and e <= EXCESS_TOL:
            message = CONVERGED
            break
        if it > max_iters:
            break
        mu = max(lam, 0.5 * (mu + lam))    # Powell's merit weight, >= lam
        merit = f + mu * max(0.0, e)
        slope = gd - mu * max(0.0, e)
        step = 1.0
        for _ in range(MAX_BACKTRACKS):
            trial = x + step * d
            res, e_new = visit(trial)
            f_new = 0.5 * dt * float(trial @ trial)
            if f_new + mu * max(0.0, e_new) <= merit + ARMIJO * step * slope:
                break
            step *= BACKTRACK
        else:
            message = "Line search failed to decrease the merit function"
            break
        a_new = _excess_gradient(problem, event, res).ravel()
        s = trial - x
        # the Lagrangian's gradient change, and H s = -step (g + lam a)
        y = dt * s + lam * (a_new - a)
        Hs = -step * (g + lam * a)
        sHs, sy = float(s @ Hs), float(s @ y)
        if sy < DAMPING * sHs:
            theta = (1.0 - DAMPING) * sHs / (sHs - sy)
            y = theta * y + (1.0 - theta) * Hs
            sy = float(s @ y)
        Wy = W @ y
        W += ((1.0 + float(y @ Wy) / sy) * np.outer(s, s)
              - np.outer(s, Wy) - np.outer(Wy, s)) / sy
        x, e, a, f = trial, e_new, a_new, f_new
        history.append((it, f, max(0.0, e)))
    k_final = init.with_values(x.reshape(shape))
    feasible = message == CONVERGED
    rate = rate_functional(k_final) if feasible else math.inf
    return RateResult(k_final, penalty_n, rate, max(0.0, e), feasible,
                      history, message)


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
                      penalty_n: float,
                      norm_sq_bound: Optional[float] = None) -> dict:
    """Stability of the solution map under weakly vanishing perturbations.

    Adds a * sin(2 pi m t / T) to the first mode for each frequency m and
    reports the path distance of the perturbed solution to the base one,
    together with the weak-convergence witness |integral of sin(2 pi m t / T)
    * phi(t) dt| for the fixed smooth witness phi(t) = t / T, which decays
    like 1/m by integration by parts.  `final_over_initial` is None when
    the first perturbation moves nothing (distance 0): no decay is seen.
    Every perturbed control is checked against `norm_sq_bound`, a bound on
    the integral of |k|^2 dt as in `Control.in_ball`, before any solve.
    """
    T = problem.horizon
    t_mid = 0.5 * (k.times[:-1] + k.times[1:])
    perturbed = []
    for m in frequencies:
        wave = np.sin(2.0 * np.pi * m * t_mid / T)
        vals = k.values.copy()
        vals[:, 0] += oscillation_amplitude * wave
        km = k.with_values(vals)
        if norm_sq_bound is not None and not km.in_ball(norm_sq_bound):
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
                   rate_result: RateResult, epsilon_list: Sequence[float],
                   n_samples: int, seed: int) -> dict:
    """Small-noise event probabilities against the rate-function prediction.

    The samples march on the minimizer's mesh at `rate_result`'s penalty,
    under the minimizer's drift.  Per epsilon, p is estimated by importance
    sampling with the exact discrete likelihood ratio; under a zero
    minimizer every weight is the 0/1 hit indicator, so the estimate is
    plain Monte Carlo (`importance` reports whether the drift is nonzero).
    eps * log p is extrapolated linearly in eps and compared to the negated
    rate.  Each epsilon also reports the health of its estimate: the
    samples inside the event (`hits`), the Kish effective sample size of
    the weights (`ess`; equal to `hits` for 0/1 weights) and the largest
    weight's share of their sum.  Only the `reliable` estimates, ESS at
    least `RELIABLE_ESS`, are extrapolated.
    """
    k_star = rate_result.minimizer
    if not rate_result.feasible:
        raise ValueError("importance sampling needs a feasible rate result")
    k_sq = k_star.k_norm_sq()

    def read(eps, res, inc):
        hit = event.contains_final(res.final)
        # inc are the shifted-measure increments; the exponent is
        # -<k*, dB>/sqrt(eps) - |k*|^2/(2 eps), and 0 under the zero control.
        dot = np.einsum("sij,ij->s", inc, k_star.values)
        return hit, hit.astype(float) * np.exp(-dot / np.sqrt(eps)
                                               - k_sq / (2.0 * eps))

    per_eps = []
    for eps, (hit, acc) in zip(epsilon_list, sweep_epsilon(
            problem, epsilon_list, rate_result.penalty_n, k_star, n_samples,
            seed, read)):
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
              "seed": int(seed), "importance": bool(k_sq > 0.0)}
    if len(ok) >= 2:
        e = np.array([r["epsilon"] for r in ok])
        y = np.array([r["eps_log_p"] for r in ok])
        order = np.argsort(e)
        # Fit on the smallest half of the sweep: the prefactor's eps*log(eps)
        # curvature pollutes a straight-line fit at the large-eps end.
        m = max(2, len(e) // 2 + 1)
        coeff = np.polyfit(e[order][:m], y[order][:m], 1)
        report["extrapolated_eps_log_p"] = float(coeff[1])
    if np.isfinite(rate_result.rate):
        report["minus_rate"] = -float(rate_result.rate)
        if "extrapolated_eps_log_p" in report and rate_result.rate > 0:
            report["relative_error"] = float(
                abs(report["extrapolated_eps_log_p"] + rate_result.rate)
                / rate_result.rate)
    return report
