"""The traced benchmark wraps package functions at named import sites
(perfbench/layers.py); a site that stops resolving turns the per-layer
metrics it feeds into missing metrics.  Some modules import a function
they no longer call only to keep such a site, and the first test holds
them to it; the second allows no other unused import.  The third runs the
traced benchmark itself."""
import ast
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


def _unused_imports(path: Path) -> set:
    """The names a module imports but never reads."""
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


def test_every_unused_import_is_a_probe_site():
    sites = {site for probe in layers.PROBES for site in probe.sites}
    unused = {f"obslab.{path.stem}:{name}"
              for path in sorted((REPO / "src" / "obslab").glob("*.py"))
              if path.name != "__init__.py"
              for name in _unused_imports(path)}
    assert unused  # the probe-site imports themselves
    assert unused <= sites, f"imported, never used: {sorted(unused - sites)}"


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
