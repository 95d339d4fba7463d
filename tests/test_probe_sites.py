"""The traced benchmark wraps package functions at named import sites
(perfbench/layers.py); a site that stops resolving turns the per-layer
metrics it feeds into missing metrics.  Some modules import a function
they no longer call only to keep such a site, and this test holds them to
it."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from tracer import resolve  # noqa: E402


def test_every_probe_site_resolves():
    sites = [site for probe in layers.PROBES for site in probe.sites]
    assert sites
    missing = [site for site in sites if resolve(site) is None]
    assert not missing, f"probe sites gone from the package: {missing}"
