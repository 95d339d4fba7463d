"""Small-noise stochastic obstacle problem: noise and the noisy marches.

The noisy solution is the shared reversed-time march (`stepping.march`)
under the drive of its Brownian increments, sqrt(eps) sum_j c_j dB^j per
step (`stepping.noise_drive`), plus, when a control is present, the
control's drive dt sum_j c_j k^j (`stepping.control_drive`).
This module draws the increments and streams batches of noisy marches;
`sweep_epsilon`, one stream per eps, is the one Monte Carlo loop of the
package.  The rare-event comparison reads its terminal states, condition
(i) its path distances to the skeleton.

Noise comes from a counter-based generator (Philox) keyed by the user seed
and a sample counter, so Monte Carlo substreams are reproducible regardless
of execution order or batch size.

A sweep of final states on a `state_free` problem reads them, where it
can, from a `ResponseTable` built once: wherever the barrier split does
not act, such a march is affine in its drive, and a bound on each sample's
distance from the base path certifies that its split never acts.  The
uncertified samples take the step march.  A stream runs in-process when
the table certifies most of its samples, and otherwise maps its sample
ranges over a pool of forked worker processes, one per usable core; the
output does not depend on the number of workers.
"""
from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .problem import ProblemSpec
from .skeleton import Control, solve_penalized
from .stepping import MarchResult, control_drive, march, noise_drive

# Samples are drawn in fixed-size blocks, each from its own (seed, block)
# key, so parallel workers produce byte-identical streams.
NOISE_BLOCK = 1024
# Rows per Monte Carlo batch: one noise block, so a stream draws each block
# once (a smaller batch would draw its whole block again for every range it
# covers).  The finals do not depend on it.  The serial step march loses
# about nothing: the 4096-sample stream (linear_additive, 201 nodes, 50
# steps; case `serial_stream_4096` of tools/ab_cases.py, 2 cores) took
# 0.63-0.67 s at 256 rows and 0.64-0.68 s at 1024.  On the pool (case
# `pool_stream`), few ranges balance worse: 3000 samples of
# quasilinear_full (101 nodes, 20 steps) took 0.28 s at 1024 rows against
# 0.24 s at 256 (4096: 0.30 against 0.31).
MC_BATCH = NOISE_BLOCK
# Relative rounding margin of the response certificate: the limit on a
# row's deviation from the base path is taken 1e-9 of the path's scale
# inside the barrier gap, far above the march's rounding (about 1e-15).
RESPONSE_MARGIN = 1e-9


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

    The skeleton under `control` is solved once; `sweep_epsilon` marches
    the noisy solutions under the same control against it, and their path
    distances are aggregated per epsilon.  `loglog_slope` is None when some
    mean distance is 0: no rate can be read.
    """
    _require_two_samples(n_samples)  # before the skeleton solve
    det = solve_penalized(problem, control, n, n_steps=n_steps)
    sweep = sweep_epsilon(problem, epsilon_list, n, n_steps, n_samples, seed,
                          lambda eps, res, inc: (res.distances,),
                          control=control, reference=det.traj.values)
    per_eps = []
    for eps, (d,) in zip(epsilon_list, sweep):
        mean, se = mean_and_std_error(d)
        per_eps.append({
            "epsilon": float(eps), "mean_distance": mean, "std_error": se,
            "tail_probs": {repr(float(dl)): float(np.mean(d > dl))
                           for dl in deltas}})
    eps = np.array([r["epsilon"] for r in per_eps])
    means = np.array([r["mean_distance"] for r in per_eps])
    slope = (float(np.polyfit(np.log(eps), np.log(means), 1)[0])
             if np.all(means > 0.0) else None)
    return {
        "per_epsilon": per_eps,
        "loglog_slope": slope,
        "monotone": bool(np.all(np.diff(means[np.argsort(eps)]) >= 0.0)),
        "n_samples": int(n_samples),
        "seed": int(seed),
    }


@dataclass(frozen=True)
class ResponseTable:
    """The final state of a `state_free` march as an affine map of its noise.

    Row i of `responses` is G_i, the change of the final state under a unit
    drive on the forward interval i, and `reach[i]` bounds
    sup_m ||G_i at step m||_H.  A noisy march whose barrier split never acts
    ends at base + sum_i D_i G_i, with D_i = sqrt(eps) sum_j c_j dB^j_i its
    noise drive on interval i (`stepping.noise_drive`).  Its state at step
    m lies within
    sum_i |D_i| reach[i] of the base path in the H norm, so within that
    over sqrt(h) at every node.  Below `limit` (sqrt(h) times the base
    path's least gap to the barrier, less a rounding margin) no split acts,
    and the affine map is the march.
    """

    base: np.ndarray       # (nx,) final state of the noise-free march
    responses: np.ndarray  # (n_steps, nx)
    reach: np.ndarray      # (n_steps,)
    limit: float

    def finals(self, drive: np.ndarray) -> tuple:
        """(finals, certified) for (S, n_steps) noise drives.

        `certified[s]` says that row s provably keeps off the barrier at
        every node and step and that its final is finite; the other rows'
        finals mean nothing.  The stacked product, one row at a time, gives
        each row the same bits in a batch of any size.
        """
        finals = np.matmul(drive[:, None, :], self.responses)[:, 0]
        finals += self.base
        certified = np.sum(np.abs(drive) * self.reach, axis=-1) < self.limit
        return finals, certified & np.isfinite(finals).all(axis=-1)

    def certifies_most(self, sigma: float) -> bool:
        """Whether at least 16 in 17 Brownian rows are certified.

        The noise drives D_i are independent N(0, sigma^2), with
        sigma = sqrt(eps dt) |c| for the mode weights c, so a row's
        certificate sum S = sum_i |D_i| reach[i] has mean
        sigma sqrt(2/pi) sum_i reach[i] and variance
        sigma^2 (1 - 2/pi) sum_i reach[i]^2.  By Cantelli's inequality at
        most 1/17 of the rows reach the mean plus four standard deviations.
        """
        mean = sigma * np.sqrt(2.0 / np.pi) * np.sum(self.reach)
        sd = sigma * np.sqrt((1.0 - 2.0 / np.pi) * np.sum(self.reach ** 2))
        return mean + 4.0 * sd < self.limit


def _response_table(problem: ProblemSpec, n: float, n_steps: int,
                    control: Optional[Control]) -> Optional[ResponseTable]:
    """The response table of a `state_free` problem's noisy march under
    `control` (zero when None), or None where it cannot be certified.

    Two marches build it.  The penalized solve under the control (no
    noise) must keep a positive least gap to the barrier (`min_gap`), so
    its barrier density is 0.  One unstored march of n_steps rows then adds
    to row i's control drive a unit drive on interval i, marched against
    the solve's path: its finals less the base final are the responses, its
    path distances bound their reach.
    If a split had acted on an impulse row, that row would end the step
    more than the gap below the base path at some node, so its reach would
    be at least sqrt(h) times the gap.  Every reach below the limit
    therefore proves the impulse march linear.
    """
    base = solve_penalized(problem, control, n, n_steps=n_steps)
    path = base.traj.values
    scale = 1.0 + np.max(np.abs(path))
    limit = np.sqrt(problem.grid.h) * (base.min_gap - RESPONSE_MARGIN * scale)
    if not limit > 0.0:
        return None
    rows = np.arange(n_steps)
    drives = np.repeat(control_drive(problem, base.control.values)[None],
                       n_steps, axis=0)
    drives[rows, rows] += 1.0
    kicked = march(problem, n_steps, penalty_n=n, drive=drives, store=False,
                   reference=path)
    if not np.max(kicked.distances) < limit:
        return None
    return ResponseTable(path[0], kicked.final - path[0], kicked.distances,
                         float(limit))


def _terminal_batch(problem: ProblemSpec, epsilon: float, n: float,
                    n_steps: int, seed: int, values: Optional[np.ndarray],
                    bounds: tuple,
                    reference: Optional[np.ndarray] = None,
                    table: Optional[ResponseTable] = None) -> tuple:
    """The noisy finals of the samples [lo, hi), and their increments.

    Given a response `table`, the rows it certifies take their finals from
    their noise drives (the table's base carries the control).  Every other
    row takes the unstored step march under the control's drive plus its
    noise drive, which also gives the path distances to a `reference`; a
    row with non-finite increments raises `DivergenceError` there.
    """
    lo, hi = bounds
    inc = sample_noise_batch(hi - lo, n_steps, problem.coefficients.n_modes,
                             problem.horizon / n_steps, seed, first_sample=lo)
    noise = noise_drive(problem, epsilon, inc)
    base = 0.0 if values is None else control_drive(problem, values)
    if table is None:
        return march(problem, n_steps, penalty_n=n, drive=base + noise,
                     store=False, reference=reference), inc
    finals, certified = table.finals(noise)
    if not certified.all():
        finals[~certified] = march(problem, n_steps, penalty_n=n,
                                   drive=base + noise[~certified],
                                   store=False).final
    return MarchResult(finals, None, None, None), inc


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
                           reference: Optional[np.ndarray] = None,
                           table: Optional[ResponseTable] = None):
    """Generator of (unstored `MarchResult`, its noise increments) batches.

    Streams Monte Carlo batches of `MC_BATCH` samples, in sample order,
    without storing trajectories.  Each result holds the states at forward
    time 0 (`final`) and, given a forward-ordered `reference` path, each
    sample's path distance to it (`distances`).

    Given a `table`, each sample it certifies takes its final from it and
    the others take the step march; with none (the default) every sample
    takes the step march.  The batches run in-process when the table
    certifies most samples (`ResponseTable.certifies_most`), and otherwise
    on a `ProcessPoolExecutor` of forked workers, one per usable core (none
    on one core); a sample's final is the same either way.  However the
    stream ends, the batches not yet started are cancelled and the workers
    are joined.
    """
    values = None if control is None else control.values
    batch = functools.partial(_terminal_batch, problem, epsilon, n, n_steps,
                              seed, values, reference=reference, table=table)
    ranges = [(lo, min(lo + MC_BATCH, n_samples))
              for lo in range(0, n_samples, MC_BATCH)]
    workers = min(len(os.sched_getaffinity(0)), len(ranges))
    # the noise drive's standard deviation per interval, sqrt(eps dt) |c|
    sigma = (np.sqrt(epsilon * (problem.horizon / n_steps))
             * problem.coefficients.weight_l2)
    if table is not None and table.certifies_most(sigma):
        workers = 1  # a few step-marched rows do not pay for the pool
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


def _require_two_samples(n_samples: int) -> None:
    if n_samples < 2:
        raise ValueError(f"n_samples={n_samples}: a standard error needs "
                         "at least 2 samples")


def mean_and_std_error(x: np.ndarray) -> tuple:
    """The sample mean of x and its standard error std(x) / sqrt(len(x))."""
    return float(np.mean(x)), float(np.std(x, ddof=1) / np.sqrt(len(x)))


def sweep_epsilon(problem: ProblemSpec, epsilon_list: Sequence[float],
                  n: float, n_steps: int, n_samples: int, seed: int, read,
                  control: Optional[Control] = None,
                  reference: Optional[np.ndarray] = None):
    """Generator, per epsilon, of the reads of one terminal-state stream.

    Stream i runs at epsilon_list[i] with seed + i, under `control` and
    against `reference`.  `read(eps, result, increments)` maps each batch
    to a tuple of per-sample arrays, concatenated in sample order.  A
    response table applies to a `state_free` problem without a `reference`
    whose samples outnumber the table's n_steps + 1 rows; it does not
    depend on eps, so the sweep builds it at most once.
    """
    _require_two_samples(n_samples)
    table = (_response_table(problem, n, n_steps, control)
             if problem.coefficients.state_free and reference is None
             and n_samples > n_steps + 1 else None)
    for i_eps, eps in enumerate(epsilon_list):
        batches = [read(eps, res, inc) for res, inc in sample_terminal_states(
            problem, eps, n, n_steps, n_samples, seed + i_eps,
            control=control, reference=reference, table=table)]
        yield tuple(map(np.concatenate, zip(*batches)))
