"""Small-noise stochastic obstacle problem: noise and the noisy marches.

The noisy solution is the shared reversed-time march (`stepping.march`) with
an explicit Brownian forcing sqrt(eps) * sum_j h_j dB^j added to each step
(and, when a control is present, the shifted drift sum_j h_j k^j dt).  With
eps = 0 it degenerates to the deterministic controlled solver bit-for-bit.
This module draws the increments and streams batches of unstored noisy
marches.  The stream is the one Monte Carlo path of the package: the
rare-event estimators read its terminal states, and the coupling-distance
sweep in eps (condition (i)) reads its path distances to the skeleton.

Noise comes from a counter-based generator (Philox) keyed by the user seed
and a sample counter, so Monte Carlo substreams are reproducible regardless
of execution order or batch size.  The stream therefore maps its sample
ranges over a pool of forked worker processes
(`concurrent.futures.ProcessPoolExecutor`), one per usable core, and yields
their results in sample order: the output does not depend on the number of
workers.
"""
from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .problem import ProblemSpec
from .skeleton import Control, solve_penalized
from .stepping import march

# Samples are drawn in fixed-size blocks, each from its own (seed, block)
# key, so parallel workers produce byte-identical streams.
NOISE_BLOCK = 1024
# Rows per unstored Monte Carlo march; the finals do not depend on it.  256
# rows keep a batch's state and its temporaries in a core's L2 cache.
# Serial march time per 4096 rows (linear_additive, 201 nodes, 50 steps,
# 2-core Xeon, the p = M^-1 (2 v + dt F) - v step; BENCH_step.json) was
# 0.60 s at 512 rows, 0.69 s at 256 and 0.76 s at 128, but four runs of the
# tool spread over 0.52-0.63, 0.59-0.69 and 0.62-0.76 s: no size wins
# reliably.  128 rows also double the batches the pool ships.
MC_BATCH = 256


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


def condition_i_distance(problem: ProblemSpec, epsilon_list: Sequence[float],
                         control: Control, n: float, n_steps: int,
                         n_samples: int, seed: int,
                         deltas: Sequence[float] = (0.1,)) -> dict:
    """Couple the controlled noisy solution to its zero-noise skeleton.

    The skeleton under `control` is solved once.  For each epsilon the
    noisy solutions under the same control are streamed by
    `sample_terminal_states` (seed + the epsilon's index), each marched
    against the skeleton, and their path distances to it are aggregated.
    """
    if n_samples < 2:
        raise ValueError(f"n_samples={n_samples}: a standard error needs "
                         "at least 2 samples")
    det = solve_penalized(problem, control, n, n_steps=n_steps)
    per_eps = []
    for i_eps, eps in enumerate(epsilon_list):
        stream = sample_terminal_states(problem, eps, n, n_steps, n_samples,
                                        seed + i_eps, control=control,
                                        reference=det.traj.values)
        d = np.concatenate([res.distances for res, _ in stream])
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


def _terminal_batch(problem: ProblemSpec, epsilon: float, n: float,
                    n_steps: int, seed: int, values: Optional[np.ndarray],
                    bounds: tuple,
                    reference: Optional[np.ndarray] = None) -> tuple:
    """The unstored noisy march of the samples [lo, hi), and its increments."""
    lo, hi = bounds
    inc = sample_noise_batch(hi - lo, n_steps, problem.coefficients.n_modes,
                             problem.horizon / n_steps, seed, first_sample=lo)
    return march(problem, n_steps, penalty_n=n, control_values=values,
                 epsilon=epsilon, noise_increments=inc, store=False,
                 reference=reference), inc


# The batch function of the running stream, in a worker process only: the
# pool's initializer sets it after the fork, and the parent never does.
_batch = None


def _inherit(batch) -> None:
    global _batch
    _batch = batch


def _run_inherited(bounds: tuple) -> tuple:
    return _batch(bounds)


def sample_terminal_states(problem: ProblemSpec, epsilon: float, n: float,
                           n_steps: int, n_samples: int, seed: int,
                           control: Optional[Control] = None,
                           reference: Optional[np.ndarray] = None):
    """Generator of (unstored `MarchResult`, its noise increments) batches.

    Streams Monte Carlo batches of `MC_BATCH` samples, in sample order,
    without storing trajectories.  Each result holds the states at forward
    time 0 (`final`) and, given a forward-ordered `reference` path, each
    sample's path distance to it (`distances`): the rare-event estimators
    read the first, the coupling sweep of condition (i) the second.  The
    batches run on a `ProcessPoolExecutor` of forked workers, one per usable
    core (none on one core).  However the stream ends, the batches not yet
    started are cancelled and the workers are joined.
    """
    values = None if control is None else control.values
    batch = functools.partial(_terminal_batch, problem, epsilon, n, n_steps,
                              seed, values, reference=reference)
    ranges = [(lo, min(lo + MC_BATCH, n_samples))
              for lo in range(0, n_samples, MC_BATCH)]
    workers = min(len(os.sched_getaffinity(0)), len(ranges))
    if workers <= 1:
        yield from map(batch, ranges)
        return
    import multiprocessing  # about 5 ms; a process that never forks skips it
    from concurrent.futures import ProcessPoolExecutor
    # Fork, not spawn: a ProblemSpec holds closures, so `batch` reaches the
    # workers as inherited initargs, not by pickling.  Under fork the pool
    # starts every worker before its own threads.  When the stream ends
    # early or a batch raises, `map` cancels the batches not yet started and
    # the `with` joins the workers.  No worker is killed, so none can die
    # holding a queue lock (which hung multiprocessing.Pool's terminate()).
    with ProcessPoolExecutor(workers,
                             mp_context=multiprocessing.get_context("fork"),
                             initializer=_inherit,
                             initargs=(batch,)) as pool:
        yield from pool.map(_run_inherited, ranges)
