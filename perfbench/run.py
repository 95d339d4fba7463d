"""obslab benchmark: drives `obslab.harness.run` on generated configs.

    python3 perfbench/run.py --workload skeleton --seed 1 --seconds 15 --trace 0

Run from a checkout of the repository; the package is imported from its
`src/`.  Workloads are described in `workloads.py`.  One process generates
the load, one experiment after another (a closed loop with one client).

--trace 0 runs a fixed number of passes over the workload's experiments,
--seconds divided by the workload's nominal pass time and rounded up, so the
statistic does not change with the program's speed.  Fresh interpreters
measure set-up before each pass and after the last, spread over the run.
It reports the end-to-end metrics:

  wall_s       median over passes of the summed `harness.run` wall times;
  setup_s      median over fresh interpreters of the time from interpreter
               start to the first experiment call (import, config
               generation, `validate_config`);
  peak_rss_mb  peak resident memory of this process and its children.

--trace 1 runs the workload's cheapest config once as a warm-up, then one
untraced and one traced pass of all its configs, and reports the per-layer
metrics of `layers.py`; `trace.overhead` is traced / untraced wall of those
two warm passes.  Spans go to `.perfbench_runs/<workload>/spans.csv`.

A run fails if its report's `passed` flag is false, if a bundled config's
report mismatches its baseline, if its report.json differs in any byte from
the first (untraced) run of the same config, or if it raised.  The last line
of standard output is the result object; the line before it records the
machine.
"""
from __future__ import annotations

import argparse
import copy
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import layers
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 4
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def cap_blas_threads(env: dict) -> None:
    """Limit every BLAS thread setting to the cores this process may use."""
    n = nproc()
    for var in BLAS_THREAD_VARS:
        try:
            want = int(env.get(var, n))
        except ValueError:
            want = n
        env[var] = str(max(1, min(want, n)))


def _blas(module):
    try:
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, AttributeError):
        return None
    return {k: blas.get(k) for k in ("name", "version", "openblas configuration")}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def machine() -> dict:
    import numpy
    import scipy
    import obslab.kernels

    return {
        "nproc": nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": _blas(numpy),
        "scipy_blas": _blas(scipy),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "kernel_backend": getattr(obslab.kernels, "BACKEND", None),
    }


def measure_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, read on the shared monotonic
    clock from just before the spawn to just before the first call."""
    t0 = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1]) - t0


@dataclass
class Pass:
    attempted: int = 0
    wall_s: float = 0.0            # summed harness.run wall times
    runner_s: float = 0.0          # summed manifest wall_time_s
    bytes_written: int = 0
    report_bytes: dict = field(default_factory=dict)
    failed: dict = field(default_factory=dict)   # label -> reasons


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_pass(harness, cases, out_dir: Path, tracer=None,
             references=None) -> Pass:
    """Run every case once, timing each `harness.run` call."""
    result = Pass()
    for case in cases:
        case_dir = out_dir / case.label
        config = copy.deepcopy(case.config)
        if tracer is not None:
            tracer.run_id = f"{out_dir.name}/{case.label}"
        result.attempted += 1
        t0 = time.perf_counter()
        try:
            report = harness.run(config, case_dir)
        except Exception:
            report = None
            traceback.print_exc(file=sys.stderr)
        result.wall_s += time.perf_counter() - t0
        if report is None:
            result.failed[case.label] = ["raised an exception"]
            continue
        raw = (case_dir / "report.json").read_bytes()
        with open(case_dir / "manifest.json") as fh:
            result.runner_s += json.load(fh)["wall_time_s"]
        result.bytes_written += _dir_bytes(case_dir)
        result.report_bytes[case.label] = raw
        reasons = workloads.failures(
            report, case.baseline, raw,
            references.get(case.label) if references else None)
        if reasons:
            result.failed[case.label] = reasons
    return result


def timed_run(harness, cases, out_root: Path, n_passes: int,
              between=lambda gap: None) -> list:
    """`n_passes` passes over the cases; `between(gap)` runs before pass
    `gap` and, with gap == n_passes, after the last."""
    passes = []
    for i in range(n_passes):
        between(i)
        pass_dir = out_root / f"pass{i}"
        passes.append(run_pass(harness, cases, pass_dir,
                               references=passes[0].report_bytes
                               if passes else None))
        shutil.rmtree(pass_dir)
    between(n_passes)
    return passes


def traced_run(harness, cases, out_root: Path, warmup: str):
    """A warm-up run of the `warmup` case, then one untraced and one traced
    pass; (passes, per-layer metrics)."""
    warm = run_pass(harness, [c for c in cases if c.label == warmup],
                    out_root / "warmup")
    shutil.rmtree(out_root / "warmup")
    untraced = run_pass(harness, cases, out_root / "untraced")
    tracer = Tracer()
    tracer.install(layers.PROBES)
    try:
        traced = run_pass(harness, cases, out_root / "traced", tracer,
                          references=untraced.report_bytes)
    finally:
        tracer.restore()
    tracer.write_spans(out_root / "spans.csv")
    metrics, missing = layers.per_layer(tracer, traced.wall_s, untraced.wall_s,
                                        traced.runner_s, traced.bytes_written)
    if missing:
        print(f"missing metrics (target gone): {missing}; "
              f"sites: {tracer.missing}", file=sys.stderr)
    return [warm, untraced, traced], metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [p for p in ("src/obslab/harness.py", "configs", "baselines")
               if not (ROOT / p).exists()]
    if missing:
        print(f"error: {ROOT} is not an obslab checkout (no {missing})",
              file=sys.stderr)
        return 2

    cap_blas_threads(os.environ)
    sys.path.insert(0, str(ROOT / "src"))
    cases = workloads.setup(args.workload, args.seed, ROOT)
    import obslab.harness as harness

    out_root = ROOT / ".perfbench_runs" / args.workload
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    setup_samples = []
    if args.trace:
        passes, layer_metrics = traced_run(harness, cases, out_root,
                                           workloads.WARMUP[args.workload])
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in layer_metrics.items()}
    else:
        n = workloads.n_passes(args.workload, args.seconds)

        def between(gap):
            # samples k with k % (n + 1) == gap: spread over the n + 1 gaps
            for _ in range(gap, SETUP_SAMPLES, n + 1):
                setup_samples.append(measure_setup(args.workload, args.seed))

        passes = timed_run(harness, cases, out_root, n, between)
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "wall_s": {"value": statistics.median(p.wall_s for p in passes),
                       "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples),
                        "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024.0, "unit": "MB"},
        }

    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)
    for i, p in enumerate(passes):
        for label, reasons in p.failed.items():
            print(f"FAILED pass {i} {label}: {'; '.join(reasons)}",
                  file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"pass walls {[round(p.wall_s, 3) for p in passes]}, "
          f"setup samples {[round(s, 3) for s in setup_samples]}, "
          f"failed_fraction {failed / attempted}", file=sys.stderr)
    print(json.dumps({"machine": machine()}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
