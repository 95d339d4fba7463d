"""Set-up as a user pays it, in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

Imports obslab, generates the workload's configs and validates them, then
prints the monotonic clock, which `run.py` reads against its own clock taken
just before the spawn.
"""
import sys
import time
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    workloads.setup(sys.argv[1], int(sys.argv[2]), ROOT)
    print(repr(time.monotonic()))
