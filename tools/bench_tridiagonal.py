"""Tridiagonal-kernel timings behind BENCH_tridiagonal.json.

    python3 tools/bench_tridiagonal.py --before OLD/src > BENCH_tridiagonal.json

Times, as medians of repeated runs on this machine:

* one per-step solve of the march's theta-system (199 unknowns) at batch
  1, 50 and 256, by pivoted LU (`dgtsv`, the kernel before the L D L^T
  split) and by the L D L^T substitution (`dpttrs`) on factors taken once;
* the serial 4096-sample Monte Carlo stream (linear_additive, 50 steps,
  eps = 0.05, penalty 1e4, 256-row batches), with the package in this
  checkout's src/ and, given --before, with the one in another checkout's
  src/;
* the same stream in 128-, 256- and 512-row batches (spde.MC_BATCH).

Each stream timing runs in its own interpreter with the given src/ first on
the path.  The machine record is the one perfbench/run.py prints.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

import numpy as np
from scipy.linalg import lapack

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from obslab.families import linear_additive  # noqa: E402
from obslab.kernels import ldl_factor  # noqa: E402
from run import cap_blas_threads, machine  # noqa: E402  (perfbench/run.py)

REPEATS = 9
BATCHES = (1, 50, 256)

# Run in a fresh interpreter: argv = [src, rows per batch, repeats].
_STREAM = """
import statistics, sys, time
sys.path.insert(0, sys.argv[1])
from obslab.families import linear_additive
from obslab.spde import _terminal_batch
rows, repeats = int(sys.argv[2]), int(sys.argv[3])
prob = linear_additive()
def stream():
    for lo in range(0, 4096, rows):
        _terminal_batch(prob, 0.05, 1e4, 50, 0, None, (lo, lo + rows))
stream()  # warm-up
times = []
for _ in range(repeats):
    t0 = time.perf_counter()
    stream()
    times.append(time.perf_counter() - t0)
print(statistics.median(times))
"""


def _per_call(fn, batch: int) -> float:
    number = max(1, 20000 // batch)
    runs = timeit.repeat(fn, number=number, repeat=REPEATS)
    return statistics.median(runs) / number


def kernel_times() -> dict:
    """Median seconds per call of each solve on the bands of the stream's
    march: 199 interior unknowns."""
    prob = linear_additive()
    ni = prob.grid.n_nodes - 2
    kappa = 0.25 * (prob.horizon / 50) / prob.grid.h**2   # 50 steps
    diag = np.full(ni, 1.0 + 2.0 * kappa)
    off = np.full(ni - 1, -kappa)
    d, e = ldl_factor(diag, off)
    rng = np.random.default_rng(0)
    out = {"unknowns": ni}
    for batch in BATCHES:
        b = rng.standard_normal((batch, ni)).T
        out[f"batch_{batch}"] = {
            "dgtsv_s": _per_call(lambda: lapack.dgtsv(off, diag, off, b), batch),
            "dpttrs_s": _per_call(lambda: lapack.dpttrs(d, e, b), batch),
        }
    return out


def stream_time(src: Path, rows: int) -> float:
    out = subprocess.run([sys.executable, "-c", _STREAM, str(src), str(rows),
                          str(REPEATS)], check=True, capture_output=True,
                         text=True).stdout
    return float(out)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--before", type=Path, default=None,
                    help="src/ of the checkout to time as 'before'")
    args = ap.parse_args(argv)
    cap_blas_threads(os.environ)   # the stream interpreters inherit it
    src = ROOT / "src"
    stream = {"after_s": stream_time(src, 256)}
    if args.before is not None:
        stream["before_s"] = stream_time(args.before.resolve(), 256)
    result = {
        "repeats": REPEATS,
        "statistic": "median",
        "machine": machine(),
        "per_call": kernel_times(),
        "serial_stream_4096": stream,
        "stream_by_mc_batch_s": {str(rows): stream_time(src, rows)
                                 for rows in (128, 256, 512)},
    }
    json.dump(result, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
