"""The traced benchmark wraps package functions at named import sites
(perfbench/layers.py); a site that stops resolving turns the per-layer
metrics it feeds into missing metrics.  Some modules import a function
they no longer call only to keep such a site, and the first test holds
them to it.  The second runs the traced benchmark itself."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from tracer import resolve  # noqa: E402

REPO = Path(__file__).resolve().parents[1]


def test_every_probe_site_resolves():
    sites = [site for probe in layers.PROBES for site in probe.sites]
    assert sites
    missing = [site for site in sites if resolve(site) is None]
    assert not missing, f"probe sites gone from the package: {missing}"


def test_traced_rate_run_counts_coefficient_and_obstacle_reads(tmp_path):
    # --trace 1 also leans on two contracts that no site names: it rebuilds
    # each CoefficientSet with dataclasses.replace on f, g and h_shape, and
    # it counts ProblemSpec.obstacle_values calls.  The run goes in a copy,
    # so the checkout's .perfbench_runs/ is left alone.
    for name in ("src", "perfbench", "configs", "baselines"):
        shutil.copytree(REPO / name, tmp_path / name,
                        ignore=shutil.ignore_patterns(".*", "__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rate",
         "--seed", "0", "--seconds", "1", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "missing metrics" not in proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert metrics["problem.coef_calls"]["value"] > 0
    assert metrics["problem.obstacle_calls"]["value"] > 0
