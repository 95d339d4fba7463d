"""Experiment orchestration: config validation, dispatch, persistence.

Every run writes, into its output directory, a JSON report, CSV trajectories
where the experiment produces them, and a manifest with the config hash and
wall time.  All emitted bytes except the manifest's `wall_time_s` and
`timestamp` are determined by (config, seed).
"""
from __future__ import annotations

import hashlib
import json
import logging
import time
from importlib import resources
from numbers import Real
from pathlib import Path

import jsonschema
import numpy as np

from . import __version__
# bsde_residual and sample_paths are not called here, but stay importable
# from this module: the traced benchmark (perfbench/layers.py) names them as
# probe sites.
from .bsde import (bsde_residual, bsde_residuals,  # noqa: F401
                   path_chunks, sample_paths, star_integral_check)
from .families import make_problem
from .grid import Field, ht_distance
from .ldp import TargetEvent, condition_ii_test, mc_ldp_compare, minimize_rate
from .problem import validate
from .skeleton import (Control, complementarity_residual, constant_control,
                       solve_penalized, solve_projected, solve_skeleton,
                       zero_control)
from .spde import condition_i_distance

log = logging.getLogger(__name__)

# the penalty every bundled baseline was pinned at
PENALTY_N = 1e4
# penalization_study: the penalties the decay exponent is fitted through
N_SCHEDULE = (1e3, 1e4, 1e5, 1e6)
# condition_ii: the amplitude and frequencies of the perturbing waves
AMPLITUDE = 1.0
FREQUENCIES = (1, 2, 4, 8, 16)
# bsde_check: the (n_steps, n_nodes) levels, a joint refinement with h
# proportional to dt, so the spatial read-off errors (interpolation ~h^2,
# centered gradient ~h^2) decay faster than the dt^(1/2) martingale
# remainder that sets the observed order.  Every level reads the finest
# level's paths coarsened in time, so each n_steps divides the finest's.
BSDE_LEVELS = ((50, 51), (100, 101), (200, 201), (400, 401))


class ConfigError(ValueError):
    """The experiment configuration is malformed."""


def load_schema() -> dict:
    with resources.files("obslab").joinpath("config_schema.json").open() as fh:
        return json.load(fh)


def validate_config(config: dict) -> None:
    """Raise ConfigError naming every schema violation of `config`."""
    validator = jsonschema.Draft202012Validator(load_schema())
    messages = []
    for err in validator.iter_errors(config):
        path = "/".join(str(p) for p in err.absolute_path) or "<root>"
        messages.append(f"config field {path}: {err.message}")
    if messages:
        raise ConfigError("; ".join(messages))


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _problem_from(config: dict, **overrides):
    """Build the configured family, with `overrides` over `problem.params`,
    and validate it; a builder that rejects the params, a failed check or a
    control mode the family does not have raises ConfigError."""
    pc = config["problem"]
    try:
        problem = make_problem(pc["family"],
                               **{**pc.get("params", {}), **overrides})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"problem.params rejected by family "
                          f"{pc['family']!r}: {exc}") from exc
    report = validate(problem)
    if not report.passed:
        raise ConfigError(f"problem fails validation:\n{report.summary()}")
    J = problem.coefficients.n_modes
    mode = config.get("control", {}).get("mode", 0)
    if mode >= J:
        raise ConfigError(f"control/mode: {mode} is out of range; family "
                          f"{pc['family']!r} has {J} noise mode(s), "
                          f"numbered from 0")
    return problem


def _control_from(config: dict, problem, n_steps: int) -> Control:
    """The configured control; the schema admits "zero" and "constant"."""
    spec = config.get("control", {"kind": "zero"})
    J = problem.coefficients.n_modes
    if spec["kind"] == "zero":
        return zero_control(n_steps, J, problem.horizon)
    return constant_control(n_steps, J, problem.horizon,
                            spec.get("value", 1.0), spec.get("mode", 0))


def _event_from(config: dict, problem) -> TargetEvent:
    spec = config["event"]
    k = constant_control(config["mesh"]["n_steps"],
                         problem.coefficients.n_modes,
                         problem.horizon, spec.get("center_control", 0.0))
    sol = solve_penalized(problem, k, PENALTY_N)
    return TargetEvent(center=Field(sol.traj.values[0], problem.grid),
                       radius=spec["radius"])


# --------------------------------------------------------------------------
# Experiment implementations.  Each returns (report dict, passed flag,
# {name: Trajectory} to be written as CSV).
# --------------------------------------------------------------------------

def _run_penalization_study(config, problem):
    n_steps = config["mesh"]["n_steps"]
    control = _control_from(config, problem, n_steps)

    sols = [solve_penalized(problem, control, n) for n in N_SCHEDULE]
    norms = np.array([s.penalty_l2 for s in sols])
    gaps = [float(ht_distance(a.traj, b.traj)) for a, b in zip(sols, sols[1:])]
    # A barrier that never binds leaves a zero gap, whose log has no fit:
    # no decay is seen, and the study fails.
    exponent = ratio = None
    if np.all(norms > 0):
        exponent = float(-np.polyfit(np.log(N_SCHEDULE), np.log(norms), 1)[0])
        scaled = np.array(N_SCHEDULE) * norms**2
        ratio = float(scaled.max() / scaled.min())
    report = {
        "n_schedule": list(N_SCHEDULE),
        "gap_l2": [float(v) for v in norms],
        "cauchy_gap": gaps,
        "decay_exponent": exponent,
        "n_gap_sq_ratio": ratio,
        "complementarity": [float(complementarity_residual(s)) for s in sols],
        "min_gap": [s.min_gap for s in sols],
    }
    passed = all(b <= a for a, b in zip(gaps, gaps[1:])) \
        and exponent is not None and 0.4 <= exponent <= 0.6
    return report, passed, {"final_trajectory": sols[-1].traj}


def _run_skeleton_solve(config, problem):
    n_steps = config["mesh"]["n_steps"]
    control = _control_from(config, problem, n_steps)
    sk = solve_skeleton(problem, control)
    proj = solve_projected(problem, control)
    dist = float(ht_distance(sk.traj, proj.traj))
    report = {
        "n_final": float(sk.n),
        "converged": bool(sk.converged),
        "cauchy_gap": float(sk.cauchy_history[-1][1]),
        "cauchy_history": [[float(n), float(g)] for n, g in sk.cauchy_history],
        "vs_projection": dist,
        "complementarity": float(complementarity_residual(sk)),
    }
    passed = sk.converged and dist <= 2e-3
    return report, passed, {"skeleton_trajectory": sk.traj,
                            "projection_trajectory": proj.traj}


def _run_condition_i(config, problem):
    p = config["params"]
    n_steps = config["mesh"]["n_steps"]
    control = _control_from(config, problem, n_steps)
    report = condition_i_distance(
        problem, p.get("epsilon_list", [0.1, 0.05, 0.025, 0.0125]),
        control, PENALTY_N, p.get("n_samples", 200), config["seed"])
    slope = report["loglog_slope"]
    passed = report["monotone"] and slope is not None and 0.35 <= slope <= 0.65
    return report, passed, {}


def _run_condition_ii(config, problem):
    n_steps = config["mesh"]["n_steps"]
    control = _control_from(config, problem, n_steps)
    report = condition_ii_test(problem, control, AMPLITUDE, FREQUENCIES,
                               penalty_n=PENALTY_N)
    ratio = report["final_over_initial"]
    passed = report["monotone_decreasing"] and ratio is not None \
        and ratio <= 0.25
    return report, passed, {}


def _run_bsde_check(config, problem):
    # All levels reuse one path ensemble, coarsened in time, so level-to-
    # level residual ratios share the same Brownian increments.
    n_paths = config["params"].get("n_paths", 3000)
    probs = [_problem_from(config, n_nodes=n_nodes)
             for _, n_nodes in BSDE_LEVELS]
    sols = [solve_penalized(prob, _control_from(config, prob, n_steps),
                            PENALTY_N)
            for (n_steps, _), prob in zip(BSDE_LEVELS, probs)]
    # drawn and read a chunk of paths at a time, every level in one pass:
    # the whole fine ensemble is never held
    res = np.array(bsde_residuals(sols, path_chunks(
        n_paths, BSDE_LEVELS[-1][0], problem.horizon, problem.grid,
        config["seed"])))
    rows = [{"n_steps": n_steps, "n_nodes": n_nodes, "residual": float(r)}
            for (n_steps, n_nodes), r in zip(BSDE_LEVELS, res)]
    dts = problem.horizon / np.array(BSDE_LEVELS, dtype=float)[:, 0]
    order = float(np.polyfit(np.log(dts), np.log(res), 1)[0])
    report = {"levels": rows, "observed_order": order}
    return report, order >= 0.5, {}


def _run_star_check(config, problem):
    p = config["params"]
    n_steps = config["mesh"]["n_steps"]
    n_paths = p.get("n_paths", 10000)

    def J(t, x):
        return np.exp(-np.asarray(x, dtype=float) ** 2)

    def dJ(t, x):
        x = np.asarray(x, dtype=float)
        return -2.0 * x * np.exp(-x**2)

    # drawn and read a chunk of paths at a time: the whole ensemble is
    # never held
    report = star_integral_check(J, dJ, path_chunks(
        n_paths, n_steps, problem.horizon, problem.grid, config["seed"]))
    passed = abs(report["mean_gap"]) <= 3.0 * report["std_error"]
    return report, passed, {}


def _run_rate_minimize(config, problem):
    n_steps = config["mesh"]["n_steps"]
    event = _event_from(config, problem)
    result = minimize_rate(problem, event, n_steps=n_steps,
                           penalty_n=PENALTY_N)
    report = {
        "rate": float(result.rate) if np.isfinite(result.rate) else "inf",
        "feasible": bool(result.feasible),
        "constraint_residual": float(result.constraint_residual),
        "lambda_history": [[int(i), float(a), float(r)]
                           for i, a, r in result.lambda_history],
        "solver_message": result.message,
        "k_norm_sq": float(result.minimizer.k_norm_sq()),
    }
    return report, result.feasible, {}


def _run_mc_compare(config, problem):
    p = config["params"]
    event = _event_from(config, problem)
    rate = minimize_rate(problem, event, n_steps=config["mesh"]["n_steps"],
                         penalty_n=PENALTY_N)
    report = mc_ldp_compare(
        problem, event, rate, p.get("epsilon_list", [0.4, 0.2, 0.1, 0.05]),
        p.get("n_samples", 10000), config["seed"])
    report["rate"] = float(rate.rate) if np.isfinite(rate.rate) else "inf"
    passed = report.get("relative_error", np.inf) <= 0.25
    return report, bool(passed), {}


_RUNNERS = {
    "penalization_study": _run_penalization_study,
    "skeleton_solve": _run_skeleton_solve,
    "condition_i": _run_condition_i,
    "condition_ii": _run_condition_ii,
    "bsde_check": _run_bsde_check,
    "star_check": _run_star_check,
    "rate_minimize": _run_rate_minimize,
    "mc_compare": _run_mc_compare,
}
EXPERIMENT_KINDS = tuple(_RUNNERS)


def run(config: dict, out_dir) -> dict:
    """Validate, dispatch, and persist one experiment.

    Returns the report (with a "passed" flag); writes report.json,
    manifest.json, and any trajectory CSVs into `out_dir`, which is made
    only once the experiment has returned and its report serialized: a
    rejected config, or a report holding a non-finite float (not valid
    JSON), raises ValueError and leaves none.
    """
    validate_config(config)
    problem = _problem_from(config)
    t0 = time.monotonic()
    report, passed, trajectories = _RUNNERS[config["experiment"]](
        config, problem)
    wall = time.monotonic() - t0
    report = {"experiment": config["experiment"], "passed": bool(passed),
              **report}
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.json").write_text(text + "\n")
    for name, traj in trajectories.items():
        traj.to_csv(out / f"{name}.csv")
    manifest = {
        "config_hash": config_hash(config),
        "package_version": __version__,
        "wall_time_s": wall,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("%s %s in %.2f s -> %s", config["experiment"],
             "passed" if passed else "failed", wall, out)
    return report


def _lookup(report: dict, path: str):
    node = report
    for part in path.split("/"):
        if isinstance(node, list):
            node = node[int(part)]
        else:
            node = node[part]
    return node


def compare_baseline(report: dict, baseline: dict) -> dict:
    """Check report fields against baseline values within stored tolerances."""
    if report.get("experiment") != baseline.get("experiment"):
        raise ValueError("experiment kinds differ between report and baseline")
    mismatches = []
    for check in baseline["checks"]:
        try:
            got = _lookup(report, check["path"])
        except (KeyError, IndexError, TypeError):
            mismatches.append({"path": check["path"], "error": "missing"})
            continue
        want = check["value"]
        tol = check.get("tol", 0.0)
        # a bool, a string, or a null (no value could be read) matches only
        # itself; any other value that is not a number matches nothing
        if isinstance(want, (bool, str)) or isinstance(got, (bool, str)) \
                or want is None or got is None:
            ok = got == want
        elif isinstance(want, Real) and isinstance(got, Real):
            ok = abs(float(got) - float(want)) <= tol
        else:
            ok = False
        if not ok:
            mismatches.append({"path": check["path"], "expected": want,
                               "got": got, "tol": tol})
    return {"passed": not mismatches, "mismatches": mismatches}
