"""The layers of obslab as the traced run sees them: which functions are
wrapped, what each call adds to the counters, and how the per-layer metrics
follow from spans and counters.

Layers are the package modules.  `cli` is a thin wrapper over
`harness.run` and is not measured separately.  `stepping.stored_bytes`,
`kernels.bytes`, `kernels.flops` and `spde.noise_bytes` are computed from
array shapes, not measured.
"""
from __future__ import annotations

import dataclasses
import os
from collections import defaultdict

from tracer import Probe, interval_union, self_times

LAYERS = ("harness", "problem", "families", "grid", "stepping", "kernels",
          "skeleton", "spde", "ldp", "bsde")

FLOAT_BYTES = 8


def thomas_flops(rows: int, n: int) -> int:
    """Operations of the Thomas algorithm on `rows` systems of size n.

    Per system: n - 1 elimination rows of 5 operations (one division, two
    multiplications, two subtractions), one division to start the back
    substitution, and n - 1 back-substitution rows of 3 operations.
    """
    return rows * (8 * n - 7)


def thomas_bytes(rows: int, n: int) -> int:
    """Bytes a batched tridiagonal solve must move: the three bands read
    once, every right-hand side read and every solution written."""
    return FLOAT_BYTES * (3 * n + 2 * rows * n)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# -- per-call hooks: counters, args, kwargs, result, seconds -----------------

def _march(c, args, kwargs, res, seconds):
    n_steps = int(_arg(args, kwargs, 1, "n_steps"))
    final = res.final
    rows = final.shape[0] if final.ndim == 2 else 1
    nx = final.shape[-1]
    c["stepping.marches_batched" if final.ndim == 2
      else "stepping.marches_single"] += 1
    c["stepping.steps"] += n_steps
    c["stepping.row_steps"] += rows * n_steps
    c["stepping.row_node_steps"] += rows * n_steps * nx
    c["stepping.stored_bytes"] += sum(
        a.nbytes for a in (res.traj, res.density) if a is not None)


def _thomas(c, args, kwargs, res, seconds):
    rhs = _arg(args, kwargs, 3, "rhs")
    n = rhs.shape[-1]
    rows = 1 if rhs.ndim == 1 else rhs.size // n
    c["kernels.single_s" if rhs.ndim == 1 else "kernels.batch_s"] += seconds
    c["kernels.rows"] += rows
    c["kernels.row_nodes"] += rows * n
    c["kernels.bytes"] += thomas_bytes(rows, n)
    c["kernels.flops"] += thomas_flops(rows, n)


def _skeleton(c, args, kwargs, res, seconds):
    c["skeleton.doublings"] += len(res.cauchy_history)
    c["skeleton.unconverged"] += not res.converged


def _noise_batch(c, args, kwargs, res, seconds):
    c["spde.noise_samples"] += res.shape[0]
    c["spde.noise_bytes"] += res.nbytes


def _noise_single(c, args, kwargs, res, seconds):
    c["spde.noise_samples"] += 1
    c["spde.noise_bytes"] += res.increments.nbytes


def _rate(c, args, kwargs, res, seconds):
    c["ldp.stages"] += len(res.lambda_history)


def _contains(c, args, kwargs, res, seconds):
    c["ldp.mc_samples"] += res.size
    c["ldp.mc_hits"] += int(res.sum())


def _paths(c, args, kwargs, res, seconds):
    c["bsde.path_steps"] += res.paths.shape[0] * (res.paths.shape[1] - 1)


def _csv(c, args, kwargs, res, seconds):
    c["grid.csv_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


COEF_PROBE = Probe("problem.coef", "problem", ())


def _wrap_coefficients(tracer, problem):
    """Return `problem` with its f, g and h_shape wrapped for counting."""
    co = problem.coefficients
    wrapped = dataclasses.replace(
        co, f=tracer.wrap(COEF_PROBE, co.f), g=tracer.wrap(COEF_PROBE, co.g),
        h_shape=tracer.wrap(COEF_PROBE, co.h_shape))
    return dataclasses.replace(problem, coefficients=wrapped)


PROBES = (
    Probe("harness.run", "harness", ("obslab.harness:run",)),
    Probe("problem.validate", "problem",
          ("obslab.problem:validate", "obslab.harness:validate")),
    Probe("problem.obstacle", "problem",
          ("obslab.problem:ProblemSpec.obstacle_values",)),
    Probe("families.make_problem", "families",
          ("obslab.families:make_problem", "obslab.harness:make_problem"),
          post=_wrap_coefficients),
    Probe("grid.gradient_array", "grid",
          ("obslab.grid:gradient_array", "obslab.stepping:gradient_array",
           "obslab.bsde:gradient_array")),
    Probe("grid.laplacian_array", "grid",
          ("obslab.grid:laplacian_array", "obslab.stepping:laplacian_array")),
    Probe("grid.h_norm_array", "grid",
          ("obslab.grid:h_norm_array", "obslab.stepping:h_norm_array",
           "obslab.skeleton:h_norm_array", "obslab.ldp:h_norm_array")),
    Probe("grid.v_norm_sq_array", "grid",
          ("obslab.grid:v_norm_sq_array", "obslab.stepping:v_norm_sq_array",
           "obslab.skeleton:v_norm_sq_array")),
    Probe("grid.ht_distance", "grid",
          ("obslab.grid:ht_distance", "obslab.harness:ht_distance",
           "obslab.skeleton:ht_distance", "obslab.ldp:ht_distance")),
    Probe("grid.to_csv", "grid", ("obslab.grid:Trajectory.to_csv",),
          hook=_csv),
    Probe("stepping.march", "stepping",
          ("obslab.stepping:march", "obslab.skeleton:march",
           "obslab.spde:march", "obslab.ldp:march"), hook=_march),
    Probe("kernels.thomas_batch", "kernels",
          ("obslab.kernels:thomas_batch", "obslab.stepping:thomas_batch"),
          hook=_thomas),
    Probe("skeleton.solve_penalized", "skeleton",
          ("obslab.skeleton:solve_penalized", "obslab.harness:solve_penalized",
           "obslab.ldp:solve_penalized", "obslab.spde:solve_penalized")),
    Probe("skeleton.solve_projected", "skeleton",
          ("obslab.skeleton:solve_projected",
           "obslab.harness:solve_projected")),
    Probe("skeleton.solve_skeleton", "skeleton",
          ("obslab.skeleton:solve_skeleton", "obslab.harness:solve_skeleton",
           "obslab.ldp:solve_skeleton"), hook=_skeleton),
    Probe("skeleton.complementarity", "skeleton",
          ("obslab.skeleton:complementarity_residual",
           "obslab.harness:complementarity_residual")),
    Probe("spde.sample_noise_batch", "spde",
          ("obslab.spde:sample_noise_batch",), hook=_noise_batch),
    Probe("spde.sample_noise", "spde", ("obslab.spde:sample_noise",),
          hook=_noise_single),
    Probe("spde.sample_terminal_states", "spde",
          ("obslab.spde:sample_terminal_states",
           "obslab.ldp:sample_terminal_states"), generator=True),
    Probe("spde.condition_i", "spde",
          ("obslab.spde:condition_i_distance",
           "obslab.harness:condition_i_distance")),
    Probe("ldp.minimize_rate", "ldp",
          ("obslab.ldp:minimize_rate", "obslab.harness:minimize_rate"),
          hook=_rate),
    # the finite-difference gradient evaluates all perturbations in one
    # batched march, and every objective evaluation is one solve
    Probe("ldp.gradient", "ldp", ("obslab.ldp:_batched_hinges",)),
    Probe("ldp.objective", "ldp", ("obslab.ldp:_solution_values",)),
    Probe("ldp.hinge", "ldp", ("obslab.ldp:TargetEvent.hinge",)),
    Probe("ldp.contains_final", "ldp", ("obslab.ldp:TargetEvent.contains_final",),
          hook=_contains),
    Probe("ldp.mc_compare", "ldp",
          ("obslab.ldp:mc_ldp_compare", "obslab.harness:mc_ldp_compare")),
    Probe("ldp.condition_ii", "ldp",
          ("obslab.ldp:condition_ii_test", "obslab.harness:condition_ii_test")),
    Probe("bsde.sample_paths", "bsde",
          ("obslab.bsde:sample_paths", "obslab.harness:sample_paths"),
          hook=_paths),
    Probe("bsde.residual", "bsde",
          ("obslab.bsde:bsde_residual", "obslab.harness:bsde_residual")),
    Probe("bsde.star", "bsde",
          ("obslab.bsde:star_integral_check",
           "obslab.harness:star_integral_check")),
)


def _ratio(num, den):
    return num / den if den else 0.0


# (name, unit, better, probes it needs, value from the context)
METRICS = []


def _metric(name, unit, probes, fn, better="lower"):
    METRICS.append((name, unit, better, tuple(probes), fn))


def _count(metric, probe):
    _metric(metric, "count", [probe], lambda x: x.c[f"{probe}.calls"])


def _secs(metric, probe):
    _metric(metric, "s", [probe], lambda x: x.c[f"{probe}.s"])


def _counter(metric, unit, probes, key=None, better="lower"):
    _metric(metric, unit, probes, lambda x: x.c[key or metric], better)


STENCILS = ("grid.gradient_array", "grid.laplacian_array")
NORMS = ("grid.h_norm_array", "grid.v_norm_sq_array", "grid.ht_distance")

_secs("harness.run_s", "harness.run")
_metric("harness.runner_s", "s", ["harness.run"], lambda x: x.runner_s)
_metric("harness.overhead_s", "s", ["harness.run"],
        lambda x: x.c["harness.run.s"] - x.runner_s)
_metric("harness.bytes_written", "B", ["harness.run"],
        lambda x: x.bytes_written)
_metric("harness.experiments", "count", ["harness.run"],
        lambda x: x.c["harness.run.calls"], "higher")
_count("problem.validate_calls", "problem.validate")
_secs("problem.validate_s", "problem.validate")
_count("problem.obstacle_calls", "problem.obstacle")
_secs("problem.obstacle_s", "problem.obstacle")
_metric("problem.coef_calls", "count", ["families.make_problem"],
        lambda x: x.c["problem.coef.calls"])
_metric("problem.coef_s", "s", ["families.make_problem"],
        lambda x: x.c["problem.coef.s"])
_count("families.make_problem_calls", "families.make_problem")
_secs("families.make_problem_s", "families.make_problem")
_metric("grid.stencil_calls", "count", STENCILS,
        lambda x: sum(x.c[f"{p}.calls"] for p in STENCILS))
_metric("grid.stencil_s", "s", STENCILS,
        lambda x: sum(x.c[f"{p}.s"] for p in STENCILS))
_metric("grid.norm_calls", "count", NORMS,
        lambda x: sum(x.c[f"{p}.calls"] for p in NORMS))
_metric("grid.norm_s", "s", NORMS, lambda x: sum(x.c[f"{p}.s"] for p in NORMS))
_count("grid.csv_calls", "grid.to_csv")
_secs("grid.csv_s", "grid.to_csv")
_counter("grid.csv_bytes", "B", ["grid.to_csv"])
_counter("stepping.marches_single", "count", ["stepping.march"])
_counter("stepping.marches_batched", "count", ["stepping.march"])
_counter("stepping.steps", "count", ["stepping.march"])
_counter("stepping.row_steps", "count", ["stepping.march"])
_secs("stepping.s", "stepping.march")
_metric("stepping.self_ns_per_row_node_step", "ns", ["stepping.march"],
        lambda x: 1e9 * _ratio(x.layer_self["stepping"],
                               x.c["stepping.row_node_steps"]))
_counter("stepping.stored_bytes", "B", ["stepping.march"])
_count("kernels.calls", "kernels.thomas_batch")
_counter("kernels.rows", "count", ["kernels.thomas_batch"])
_counter("kernels.single_s", "s", ["kernels.thomas_batch"])
_counter("kernels.batch_s", "s", ["kernels.thomas_batch"])
_metric("kernels.ns_per_row_node", "ns", ["kernels.thomas_batch"],
        lambda x: 1e9 * _ratio(x.c["kernels.thomas_batch.s"],
                               x.c["kernels.row_nodes"]))
_counter("kernels.bytes", "B", ["kernels.thomas_batch"])
_counter("kernels.flops", "flop", ["kernels.thomas_batch"])
_count("skeleton.penalized_solves", "skeleton.solve_penalized")
_secs("skeleton.penalized_s", "skeleton.solve_penalized")
_count("skeleton.projected_solves", "skeleton.solve_projected")
_counter("skeleton.doublings", "count", ["skeleton.solve_skeleton"])
_counter("skeleton.unconverged", "count", ["skeleton.solve_skeleton"])
_secs("skeleton.complementarity_s", "skeleton.complementarity")
_metric("spde.noise_calls", "count",
        ["spde.sample_noise", "spde.sample_noise_batch"],
        lambda x: x.c["spde.sample_noise.calls"]
        + x.c["spde.sample_noise_batch.calls"])
_counter("spde.noise_samples", "count",
         ["spde.sample_noise", "spde.sample_noise_batch"], better="higher")
_metric("spde.noise_s", "s", ["spde.sample_noise", "spde.sample_noise_batch"],
        lambda x: x.c["spde.sample_noise.s"] + x.c["spde.sample_noise_batch.s"])
_counter("spde.noise_bytes", "B",
         ["spde.sample_noise", "spde.sample_noise_batch"])
_counter("spde.mc_batches", "count", ["spde.sample_terminal_states"],
         key="spde.sample_terminal_states.yields")
_secs("spde.condition_i_s", "spde.condition_i")
_secs("ldp.minimize_rate_s", "ldp.minimize_rate")
_counter("ldp.stages", "count", ["ldp.minimize_rate"])
_count("ldp.gradients", "ldp.gradient")
_secs("ldp.gradient_s", "ldp.gradient")
_count("ldp.objective_solves", "ldp.objective")
_secs("ldp.objective_s", "ldp.objective")
_metric("ldp.evals_per_gradient", "ratio", ["ldp.objective", "ldp.gradient"],
        lambda x: _ratio(x.c["ldp.objective.calls"],
                         x.c["ldp.gradient.calls"]))
_count("ldp.hinge_calls", "ldp.hinge")
_secs("ldp.hinge_s", "ldp.hinge")
_secs("ldp.mc_compare_s", "ldp.mc_compare")
_counter("ldp.mc_samples", "count", ["ldp.contains_final"], better="higher")
_metric("ldp.mc_hit_fraction", "ratio", ["ldp.contains_final"],
        lambda x: _ratio(x.c["ldp.mc_hits"], x.c["ldp.mc_samples"]), "higher")
_secs("bsde.sample_paths_s", "bsde.sample_paths")
_counter("bsde.path_steps", "count", ["bsde.sample_paths"], better="higher")
_count("bsde.residual_calls", "bsde.residual")
_secs("bsde.residual_s", "bsde.residual")
_secs("bsde.star_s", "bsde.star")
for _layer in LAYERS:
    _metric(f"{_layer}.self_s", "s", [],
            lambda x, layer=_layer: x.layer_self[layer])
    _metric(f"{_layer}.errors", "count", [],
            lambda x, layer=_layer: x.c[f"{layer}.errors"])
_metric("trace.wall_s", "s", [], lambda x: x.wall_s)
_metric("trace.overhead", "ratio", [],
        lambda x: _ratio(x.wall_s, x.untraced_wall_s))
_metric("trace.unattributed_s", "s", [], lambda x: x.unattributed_s)


@dataclasses.dataclass
class Context:
    c: dict
    layer_self: dict
    wall_s: float
    untraced_wall_s: float
    unattributed_s: float
    runner_s: float
    bytes_written: float


def per_layer(tracer, wall_s: float, untraced_wall_s: float,
              runner_s: float, bytes_written: float):
    """(metrics {name: (value, unit)}, names of missing metrics)."""
    spans = tracer.spans
    layer_self = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        layer_self[span.layer] += own
    covered = interval_union((s.start, s.end) for s in spans if s.parent < 0)
    ctx = Context(defaultdict(float, tracer.counters), layer_self, wall_s,
                  untraced_wall_s, wall_s - covered, runner_s, bytes_written)
    metrics, missing = {}, []
    for name, unit, _, probes, fn in METRICS:
        if any(p in tracer.missing for p in probes):
            missing.append(name)
        else:
            metrics[name] = (float(fn(ctx)), unit)
    return metrics, missing
