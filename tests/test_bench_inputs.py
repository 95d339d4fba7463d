"""The benchmark builds its inputs (perfbench/workloads.py) from the bundled
configs and validates them before its first run; a schema or config change
that made one of them invalid would fail every benchmark run at set-up.
This test fails first."""
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_workload_sets_up(workload):
    for seed in range(4):
        assert workloads.setup(workload, seed, REPO)
