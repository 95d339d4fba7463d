"""Rate-solve timings behind BENCH_rate.json.

    python3 tools/bench_rate.py --before OLD/src > BENCH_rate.json

Times `ldp.minimize_rate`, as medians of repeated solves on this machine,
with the package in this checkout's src/ and, given --before, with the one
in another checkout's src/:

* the bundled `rate_minimize` event: linear_additive (201 nodes), the ball
  of radius 0.02 about the terminal state under the constant control 1.2,
  50 steps;
* the binding event: quasilinear_full (101 nodes, obstacle amplitude 0.8),
  the ball of radius 0.02 about the terminal state under the constant
  control -2, at 20, 40, 80 and 160 steps.  Its minimizer presses the
  state into the barrier.

Every solve uses penalty 1e4 and SLSQP's default settings in
`minimize_rate`.  Each case records its median time, the rate and the
number of SQP iterates of each side; `slower` lists the cases where this
checkout is slower than --before.  Each side runs in its own interpreter
with its src/ first on the path, in alternating rounds; each figure is the
median over rounds of the per-round medians.  The machine record is the one
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

from run import cap_blas_threads, machine  # noqa: E402  (perfbench/run.py)

ROUNDS = 3
# solves timed per case and round: fewer where one solve takes seconds
REPEATS = {"bundled_50": 9, "binding_20": 3, "binding_40": 3,
           "binding_80": 1, "binding_160": 1}

# Run in a fresh interpreter: argv = [src, repeats as JSON]; prints a JSON
# object of {case: {"s": median seconds, "rate": ..., "iterates": ...}}.
_TIMINGS = """
import json, statistics, sys, time
sys.path.insert(0, sys.argv[1])
from obslab.families import linear_additive, quasilinear_full
from obslab.grid import Field
from obslab.ldp import TargetEvent, minimize_rate
from obslab.skeleton import constant_control, solve_penalized
repeats = json.loads(sys.argv[2])

def case(problem, control, n_steps):
    k = constant_control(n_steps, problem.coefficients.n_modes,
                         problem.horizon, control)
    shifted = solve_penalized(problem, k, 1e4, n_steps=n_steps)
    event = TargetEvent(Field(shifted.traj.values[0], problem.grid), 0.02)
    return lambda: minimize_rate(problem, event,
                                 {"n_steps": n_steps, "penalty_n": 1e4})

bound = quasilinear_full(n_nodes=101, obstacle_amplitude=0.8)
cases = {"bundled_50": case(linear_additive(), 1.2, 50)}
for n in (20, 40, 80, 160):
    cases[f"binding_{n}"] = case(bound, -2.0, n)
cases["bundled_50"]()  # warm-up
out = {}
for name, solve in cases.items():
    times = []
    for _ in range(repeats[name]):
        t0 = time.perf_counter()
        res = solve()
        times.append(time.perf_counter() - t0)
    out[name] = {"s": statistics.median(times), "rate": res.rate,
                 "iterates": len(res.lambda_history)}
print(json.dumps(out))
"""


def timings(src: Path) -> dict:
    out = subprocess.run([sys.executable, "-c", _TIMINGS, str(src),
                          json.dumps(REPEATS)], check=True,
                         capture_output=True, text=True).stdout
    return json.loads(out)


def pooled(runs: list) -> dict:
    """Median over rounds of each case's time; rate and iterate count from
    the first round (a solve is deterministic)."""
    return {name: dict(runs[0][name],
                       s=statistics.median(r[name]["s"] for r in runs))
            for name in runs[0]}


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
    if "before" in result:
        result["slower"] = [name for name in REPEATS
                            if result["after"][name]["s"]
                            > result["before"][name]["s"]]
    json.dump(result, sys.stdout, indent=2)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
