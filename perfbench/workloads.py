"""Workload inputs, generated from the benchmark seed, and the checks that
decide whether one experiment run failed.

Every workload is a list of experiment configs for `obslab.harness.run`.
A config equal to its bundled one is also checked against its pinned
baseline.  Seed 0 keeps every bundled config unchanged.  Why each workload
was chosen is written once, in `BENCHMARK.json`; which layers it stresses
and which it bypasses is in `trajectory.json`.

* skeleton: the five bundled single-row experiments, then one drawn
  `skeleton_solve` per problem family at the single-system shape
  (401 nodes, 400 steps) with a constant control whose value and mode come
  from the seed.
* rate: the bundled `rate_minimize`; other seeds draw the terminal-ball
  centre control.
* rare_event: the bundled `mc_compare` and `condition_i`, with the seed
  overriding the config seed as `obslab run --seed` does.
"""
from __future__ import annotations

import copy
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

BUNDLED_SEED = 0

SKELETON_BUNDLED = ("penalization_study", "skeleton_solve", "condition_ii",
                    "bsde_check", "star_check")
FAMILIES = ("heat_obstacle", "linear_additive", "quasilinear_full")
SKELETON_SHAPE = {"n_nodes": 401, "n_steps": 400}
CONTROL_RANGE = (-1.5, 1.5)
CENTER_RANGE = (1.15, 1.25)

WORKLOADS = ("skeleton", "rate", "rare_event")

# Nominal seconds of one pass over a workload's configs on a 2-core Xeon
# (numpy kernel backend).  The pass count of a run follows from --seconds and
# these constants only, never from measured speed, so a faster program is
# compared on the same passes as its parent.
PASS_SECONDS = {"skeleton": 7.5, "rate": 12.0, "rare_event": 45.0}

# The cheapest config of each workload, run once before a traced run so that
# its untraced and traced passes both start warm.
WARMUP = {"skeleton": "condition_ii", "rate": "rate_minimize",
          "rare_event": "condition_i"}


@dataclass
class Case:
    label: str
    config: dict
    baseline: Optional[dict]   # pinned baseline, when config is bundled


def _load(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _bundled(root: Path, name: str) -> dict:
    return _load(root / "configs" / f"{name}.json")


def _case(root: Path, label: str, config: dict, bundled_name: str) -> Case:
    bundled = _bundled(root, bundled_name)
    baseline = _load(root / "baselines" / f"{bundled_name}.json") \
        if config == bundled else None
    return Case(label, config, baseline)


def _skeleton(root: Path, seed: int, rng: random.Random, n_modes) -> list:
    cases = [_case(root, name, _bundled(root, name), name)
             for name in SKELETON_BUNDLED]
    base = _bundled(root, "skeleton_solve")
    for family in FAMILIES:
        cfg = copy.deepcopy(base)
        cfg["problem"] = {"family": family,
                          "params": {"n_nodes": SKELETON_SHAPE["n_nodes"]}}
        cfg["mesh"] = {"n_steps": SKELETON_SHAPE["n_steps"]}
        cfg["control"] = {"kind": "constant",
                          "value": round(rng.uniform(*CONTROL_RANGE), 6),
                          "mode": rng.randrange(n_modes(family))}
        cfg["seed"] = seed
        cases.append(_case(root, f"drawn_{family}", cfg, "skeleton_solve"))
    return cases


def _rate(root: Path, seed: int, rng: random.Random) -> list:
    cfg = _bundled(root, "rate_minimize")
    if seed != BUNDLED_SEED:
        cfg["event"]["center_control"] = round(rng.uniform(*CENTER_RANGE), 6)
    return [_case(root, "rate_minimize", cfg, "rate_minimize")]


def _rare_event(root: Path, seed: int) -> list:
    cases = []
    for name in ("mc_compare", "condition_i"):
        cfg = _bundled(root, name)
        if seed != BUNDLED_SEED:
            cfg["seed"] = seed
        cases.append(_case(root, name, cfg, name))
    return cases


def generate(workload: str, seed: int, root: Path) -> list:
    """The workload's cases for this seed; the same seed, the same cases."""
    from obslab.families import make_problem

    rng = random.Random(f"{workload}:{seed}")
    if workload == "skeleton":
        return _skeleton(root, seed, rng,
                         lambda f: make_problem(f).coefficients.n_modes)
    if workload == "rate":
        return _rate(root, seed, rng)
    if workload == "rare_event":
        return _rare_event(root, seed)
    raise ValueError(f"unknown workload {workload!r}")


def n_passes(workload: str, seconds: float) -> int:
    """Passes in one timed run: enough nominal passes to fill --seconds."""
    return max(1, math.ceil(seconds / PASS_SECONDS[workload]))


def setup(workload: str, seed: int, root: Path) -> list:
    """Everything before the first experiment call: import the package,
    generate the configs and validate them."""
    from obslab.harness import validate_config

    cases = generate(workload, seed, root)
    for case in cases:
        validate_config(case.config)
    return cases


def failures(report: dict, baseline: Optional[dict], report_bytes: bytes,
             reference_bytes: Optional[bytes]) -> list:
    """Reasons this run failed: passed flag false, baseline mismatch, or
    report bytes that differ from the reference run of the same config."""
    from obslab.harness import compare_baseline

    reasons = []
    if report.get("passed") is not True:
        reasons.append("passed flag is false")
    if baseline is not None:
        mismatches = compare_baseline(report, baseline)["mismatches"]
        if mismatches:
            reasons.append(f"baseline mismatch: {mismatches}")
    if reference_bytes is not None and report_bytes != reference_bytes:
        reasons.append("report.json differs from the reference run")
    return reasons
