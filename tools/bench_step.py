"""March-step timings behind BENCH_step.json.

    python3 tools/bench_step.py --before OLD/src > BENCH_step.json

Times, as medians of repeated runs on this machine, with the package in
this checkout's src/ and, given --before, with the one in another
checkout's src/:

* one batched Monte Carlo march: 256 rows of linear_additive (201 nodes),
  50 steps, a random control per row and noise at eps = 0.05, penalty 1e4,
  unstored (the shape of `spde._terminal_batch`);
* one single-row stored march per family, 401 nodes and 400 steps, zero
  control, penalty 1e4;
* the phases of one step of that batched march, per step: coefficient
  calls (f, g and h_shape), the right-hand side (forcing and explicit
  terms), the kernel (`thomas_batch`), and the barrier split with the
  finiteness check.  The phases are read from timestamps taken by wrappers
  around the coefficient functions and the kernel, so they time either
  tree's own `march`; each wrapper adds about a microsecond to its phase;
* one 1024-row Monte Carlo batch of that stream (`spde._terminal_batch`,
  linear_additive, 50 steps, no control, eps = 0.05, its noise drawn): by
  the step march on both sides, and, where the tree has a response table
  (`spde._response_table`), by the table, whose build is timed as well;
* a state-dependent stream on the forked pool, with every usable core:
  quasilinear_full (101 nodes), 20 steps, constant control -1 on its 4
  modes, eps = 0.2, 3000 and 4096 samples, in 256- and 1024-row batches
  (spde.MC_BATCH), on both sides;
* the serial 4096-sample Monte Carlo stream of tools/bench_tridiagonal.py in
  256-, 512- and 1024-row batches (spde.MC_BATCH), this checkout only.

Each side, and each stream batch size, runs in its own interpreter with its
src/ first on the path, in alternating rounds; each figure is the median
over rounds of the per-round medians.  The machine record is the one
perfbench/run.py prints.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from bench_tridiagonal import stream_time  # noqa: E402
from run import cap_blas_threads, machine  # noqa: E402  (perfbench/run.py)

ROUNDS = 5
REPEATS = 9
FAMILIES = ("heat_obstacle", "linear_additive", "quasilinear_full")

# Run in a fresh interpreter: argv = [src, repeats]; prints a JSON object.
_TIMINGS = """
import dataclasses, json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
import numpy as np
from obslab import stepping
from obslab.families import linear_additive, make_problem
repeats = int(sys.argv[2])
clock = time.perf_counter

def median_time(fn):
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        t0 = clock()
        fn()
        times.append(clock() - t0)
    return statistics.median(times)

mc = linear_additive()
steps, rows = 50, 256
rng = np.random.default_rng(0)
controls = rng.standard_normal((rows, steps, 1))
noise = np.sqrt(mc.horizon / steps) * rng.standard_normal((rows, steps, 1))

def mc_march(prob=mc):
    stepping.march(prob, steps, penalty_n=1e4, control_values=controls,
                   epsilon=0.05, noise_increments=noise, store=False)

out = {"mc_march_s": median_time(mc_march), "single_row_s": {}}
for family in %r:
    prob = make_problem(family, n_nodes=401)
    out["single_row_s"][family] = median_time(
        lambda: stepping.march(prob, 400, penalty_n=1e4))

# phase timestamps: f entry opens a step, h_shape exit ends its coefficient
# calls, the kernel's entry and exit bracket the solve
marks = []

def stamp(fn, before, after):
    def wrapped(*args, **kwargs):
        if before:
            marks.append((before, clock()))
        res = fn(*args, **kwargs)
        if after:
            marks.append((after, clock()))
        return res
    return wrapped

co = mc.coefficients
traced = dataclasses.replace(mc, coefficients=dataclasses.replace(
    co, f=stamp(co.f, "step", None), h_shape=stamp(co.h_shape, None, "coef")))
stepping.thomas_batch = stamp(stepping.thomas_batch, "rhs", "kernel")
phases = {"coefficients": [], "rhs": [], "kernel": [], "split": []}
per_step = lambda a, b: (np.sum(np.subtract(a, b)) / steps) * 1e6
mc_march(traced)  # warm-up
for _ in range(repeats):
    marks.clear()
    mc_march(traced)
    marks.append(("step", clock()))
    t = dict(step=[], coef=[], rhs=[], kernel=[])
    for name, when in marks:
        t[name].append(when)
    phases["coefficients"].append(per_step(t["coef"], t["step"][:-1]))
    phases["rhs"].append(per_step(t["rhs"], t["coef"]))
    phases["kernel"].append(per_step(t["kernel"], t["rhs"]))
    phases["split"].append(per_step(t["step"][1:], t["kernel"]))
out["mc_step_phases_us"] = {k: statistics.median(v) for k, v in phases.items()}

from obslab import spde
batch = (0, 1024)
out["mc_batch_1024_s"] = {"step_march": median_time(
    lambda: spde._terminal_batch(mc, 0.05, 1e4, steps, 0, None, batch))}
if hasattr(spde, "_response_table"):
    table = spde._response_table(mc, 1e4, steps, None)
    assert table is not None
    out["mc_batch_1024_s"]["response_table_build"] = median_time(
        lambda: spde._response_table(mc, 1e4, steps, None))
    out["mc_batch_1024_s"]["response"] = median_time(
        lambda: spde._terminal_batch(mc, 0.05, 1e4, steps, 0, None, batch,
                                     table=table))

from obslab.families import quasilinear_full
from obslab.skeleton import constant_control
ql = quasilinear_full(n_nodes=101)
k = constant_control(20, 4, ql.horizon, -1.0)
out["pool_stream_s"] = {}
for rows in (256, 1024):
    spde.MC_BATCH = rows
    out["pool_stream_s"][str(rows)] = {str(n): median_time(
        lambda: sum(1 for _ in spde.sample_terminal_states(
            ql, 0.2, 1e4, 20, n, 0, control=k))) for n in (3000, 4096)}
print(json.dumps(out))
""" % (FAMILIES,)


def timings(src: Path) -> dict:
    out = subprocess.run([sys.executable, "-c", _TIMINGS, str(src),
                          str(REPEATS)], check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out)


def pooled(runs: list):
    """Median over rounds of each timing; nested records stay nested."""
    first = runs[0]
    if isinstance(first, dict):
        return {k: pooled([r[k] for r in runs]) for k in first}
    return statistics.median(runs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--before", type=Path, default=None,
                    help="src/ of the checkout to time as 'before'")
    args = ap.parse_args(argv)
    cap_blas_threads(os.environ)   # the timing interpreters inherit it
    sides = {"after": ROOT / "src"}
    if args.before is not None:
        sides["before"] = args.before.resolve()
    runs = {side: [] for side in sides}
    for _ in range(ROUNDS):
        for side, src in sides.items():
            runs[side].append(timings(src))
    result = {
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "statistic": "median of the per-round medians",
        "machine": machine(),
    }
    result.update({side: pooled(r) for side, r in runs.items()})
    streams = [{str(rows): stream_time(ROOT / "src", rows)
                for rows in (256, 512, 1024)} for _ in range(ROUNDS)]
    result["stream_by_mc_batch_s"] = pooled(streams)
    json.dump(result, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
