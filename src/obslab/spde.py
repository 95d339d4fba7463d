"""Small-noise stochastic obstacle problem and the coupling experiment.

`solve_spde` adds an explicit Brownian forcing sqrt(eps) * sum_j h_j dB^j
(and, when a control is present, the shifted drift sum_j h_j k^j dt) to the
shared reversed-time marcher.  With eps = 0 and a control it degenerates to
the deterministic controlled solver bit-for-bit.

Noise comes from a counter-based generator (Philox) keyed by the user seed
and a sample counter, so Monte Carlo substreams are reproducible regardless
of execution order or worker count.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .grid import Trajectory
from .problem import ProblemSpec
from .skeleton import Control, solve_penalized, zero_control
from .stepping import march

# Samples are drawn in fixed-size blocks, each from its own (seed, block)
# key, so parallel workers produce byte-identical streams.
NOISE_BLOCK = 1024


@dataclass(frozen=True)
class NoisePath:
    """Brownian increments over one time mesh: entry (i, j) ~ N(0, dt)."""

    increments: np.ndarray  # (n_steps, J)
    seed: int

    def __post_init__(self):
        inc = np.asarray(self.increments, dtype=float)
        if inc.ndim != 2:
            raise ValueError("increments must be (n_steps, J)")
        inc = inc.copy(); inc.flags.writeable = False
        object.__setattr__(self, "increments", inc)


@dataclass(frozen=True)
class StochasticSolution:
    traj: Trajectory
    penalty_density: Trajectory
    epsilon: float
    control: Optional[Control]
    noise_seed: int
    problem: ProblemSpec


def _block_normals(seed: int, block_index: int, shape) -> np.ndarray:
    gen = np.random.Generator(np.random.Philox(key=[seed, block_index]))
    return gen.standard_normal(shape)


def sample_noise(n_steps: int, n_modes: int, dt: float, seed: int) -> NoisePath:
    """One reproducible matrix of N(0, dt) Brownian increments."""
    if n_steps < 1 or n_modes < 1 or dt <= 0:
        raise ValueError("need n_steps, n_modes >= 1 and dt > 0")
    z = _block_normals(seed, 0, (1, n_steps, n_modes))[0]
    return NoisePath(np.sqrt(dt) * z, seed)


def sample_noise_batch(n_samples: int, n_steps: int, n_modes: int, dt: float,
                       seed: int, first_sample: int = 0) -> np.ndarray:
    """(n_samples, n_steps, J) increments for samples [first, first + count).

    Sample i always receives the same increments for a given seed, whichever
    batch it is requested in; batches may therefore be distributed across
    workers freely.
    """
    out = np.empty((n_samples, n_steps, n_modes))
    lo = first_sample
    hi = first_sample + n_samples
    b0, b1 = lo // NOISE_BLOCK, (hi - 1) // NOISE_BLOCK
    for b in range(b0, b1 + 1):
        z = _block_normals(seed, b, (NOISE_BLOCK, n_steps, n_modes))
        s0 = max(lo, b * NOISE_BLOCK)
        s1 = min(hi, (b + 1) * NOISE_BLOCK)
        out[s0 - lo:s1 - lo] = z[s0 - b * NOISE_BLOCK:s1 - b * NOISE_BLOCK]
    return np.sqrt(dt) * out


def solve_spde(problem: ProblemSpec, epsilon: float, n: float,
               noise: NoisePath,
               control: Optional[Control] = None) -> StochasticSolution:
    """Euler-Maruyama noise on top of the semi-implicit barrier march."""
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    n_steps, J = noise.increments.shape
    if J != problem.coefficients.n_modes:
        raise ValueError("noise mode count does not match the problem")
    if control is None:
        control = zero_control(n_steps, J, problem.horizon)
    elif control.n_steps != n_steps:
        raise ValueError("control and noise meshes differ")
    res = march(problem, n_steps, penalty_n=n, control_values=control.values,
                epsilon=epsilon, noise_increments=noise.increments)
    traj = Trajectory(control.times, res.traj, problem.grid)
    dens = Trajectory(control.times, res.density, problem.grid)
    return StochasticSolution(traj, dens, epsilon, control, noise.seed, problem)


def condition_i_distance(problem: ProblemSpec, epsilon_list: Sequence[float],
                         control_family: Sequence[Control], n: float,
                         n_steps: int, n_samples: int, seed: int,
                         deltas: Sequence[float] = (0.1,)) -> dict:
    """Couple the controlled noisy solution to its zero-noise skeleton.

    For each epsilon, every sample shares its control between the noisy
    solve and the deterministic one, and the path distance between the two
    is aggregated.  Samples are split evenly across the control family.
    """
    controls = list(control_family)
    if not controls:
        raise ValueError("control family is empty")
    J = problem.coefficients.n_modes
    dt = problem.horizon / n_steps
    per_eps = []
    for i_eps, eps in enumerate(epsilon_list):
        dists = []
        share = n_samples // len(controls)
        for i_k, k in enumerate(controls):
            det = solve_penalized(problem, k, n, n_steps=n_steps)
            count = share if i_k < len(controls) - 1 else n_samples - share * (len(controls) - 1)
            inc = sample_noise_batch(count, n_steps, J, dt, seed + i_eps,
                                     first_sample=i_k * share)
            res = march(problem, n_steps, penalty_n=n, control_values=k.values,
                        epsilon=eps, noise_increments=inc, store=False,
                        reference=det.traj.values)
            dists.append(res.distances)
        d = np.concatenate(dists)
        per_eps.append({
            "epsilon": float(eps),
            "mean_distance": float(np.mean(d)),
            "std_error": float(np.std(d, ddof=1) / np.sqrt(len(d))),
            "tail_probs": {repr(float(dl)): float(np.mean(d > dl)) for dl in deltas},
        })
    eps = np.array([r["epsilon"] for r in per_eps])
    means = np.array([r["mean_distance"] for r in per_eps])
    if np.all(means > 0.0):
        slope = float(np.polyfit(np.log(eps), np.log(means), 1)[0])
    else:
        slope = 0.0  # degenerate sweep, e.g. a problem with no noise
    return {
        "per_epsilon": per_eps,
        "loglog_slope": slope,
        "monotone": bool(np.all(np.diff(means[np.argsort(eps)]) >= 0.0)),
        "n_samples": int(n_samples),
        "seed": int(seed),
    }


def sample_terminal_states(problem: ProblemSpec, epsilon: float, n: float,
                           n_steps: int, n_samples: int, seed: int,
                           control: Optional[Control] = None,
                           batch_size: int = 2048):
    """Generator of (states at forward time 0, their noise increments).

    Streams Monte Carlo batches without storing trajectories; used by the
    rare-event estimators.
    """
    J = problem.coefficients.n_modes
    dt = problem.horizon / n_steps
    values = None if control is None else control.values
    done = 0
    while done < n_samples:
        count = min(batch_size, n_samples - done)
        inc = sample_noise_batch(count, n_steps, J, dt, seed, first_sample=done)
        res = march(problem, n_steps, penalty_n=n, control_values=values,
                    epsilon=epsilon, noise_increments=inc, store=False)
        yield res.final, inc
        done += count
