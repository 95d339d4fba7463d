"""Trajectory-write and BSDE read-off timings behind BENCH_readoff.json.

    python3 tools/bench_readoff.py --before OLD/src > BENCH_readoff.json

Times, as medians of repeated calls on this machine, with the package in
this checkout's src/ and, given --before, with the one in another
checkout's src/:

* `Trajectory.to_csv` of one 401 x 401 trajectory (401 time nodes of 401
  grid nodes, standard normal values);
* `bsde_residual` at each level of the bundled `bsde_check` config
  (quasilinear_full, zero control, penalty 1e4, 3000 paths, seed 11), on
  the path ensemble that experiment reads: one ensemble at the finest mesh,
  coarsened in time to each level.

Each side runs in its own interpreter with its src/ first on the path.  The
machine record is the one perfbench/run.py prints.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import cap_blas_threads, machine  # noqa: E402  (perfbench/run.py)

REPEATS = 9
LEVELS = ((50, 51), (100, 101), (200, 201), (400, 401))

# Run in a fresh interpreter: argv = [src, repeats, levels as JSON].
_TIMINGS = """
import json, statistics, sys, tempfile, time
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import numpy as np
from obslab.bsde import bsde_residual, coarsen, sample_paths
from obslab.families import make_problem
from obslab.grid import Grid, Trajectory
from obslab.skeleton import solve_penalized
repeats, levels = int(sys.argv[2]), json.loads(sys.argv[3])

def median_s(fn):
    fn()  # warm-up
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)

traj = Trajectory(np.linspace(0.0, 1.0, 401),
                  np.random.default_rng(0).standard_normal((401, 401)),
                  Grid(-4.0, 4.0, 401))
with tempfile.TemporaryDirectory() as tmp:
    csv_s = median_s(lambda: traj.to_csv(Path(tmp) / "traj.csv"))

base = make_problem("quasilinear_full")
finest = max(n_steps for n_steps, _ in levels)
fine = sample_paths(3000, finest, base.horizon, base.grid, 11)
residual_s = {}
for n_steps, n_nodes in levels:
    sol = solve_penalized(make_problem("quasilinear_full", n_nodes=n_nodes),
                          None, 1e4, n_steps=n_steps)
    ens = coarsen(fine, finest // n_steps)
    residual_s[f"{n_steps}x{n_nodes}"] = median_s(
        lambda: bsde_residual(sol, ens))
print(json.dumps({"to_csv_401x401_s": csv_s, "bsde_residual_s": residual_s}))
"""


def timings(src: Path) -> dict:
    out = subprocess.run([sys.executable, "-c", _TIMINGS, str(src),
                          str(REPEATS), json.dumps(LEVELS)], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--before", type=Path, default=None,
                    help="src/ of the checkout to time as 'before'")
    args = ap.parse_args(argv)
    cap_blas_threads(os.environ)   # the timing interpreters inherit it
    result = {
        "repeats": REPEATS,
        "statistic": "median",
        "machine": machine(),
        "after": timings(ROOT / "src"),
    }
    if args.before is not None:
        result["before"] = timings(args.before.resolve())
    json.dump(result, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
