"""The case table of tools/ab.py, and the interpreter that runs one case.

    python3 tools/ab_cases.py TREE/src CASE

A microbenchmark case (`Case`) is a setup plus a timed call.  The setup
runs in a fresh interpreter with the given src/ first on the path, so it
imports the package of that tree, and returns the call.  The call runs once
as a warm-up and then `repeats` times; its metric `s` is the median wall
time, and a call that returns a dict adds each entry as a metric (median
over the repeats).  A setup that raises ImportError or AttributeError marks
the case absent on that tree, so a setup resolves every name it needs
before it returns.  The last line printed is {"metrics": {...}} or
{"absent": "..."}.

An end-to-end case (`Workload`) is one workload of BENCHMARK.json, run by
the tree's own, unmodified perfbench/run.py for the benchmark's
run_seconds, at the round's index as its seed.

Round and repeat counts are constants here: the rounds are what the paired
statistics of tools/ab.py rest on, the repeats only steady each round's
median.
"""
from __future__ import annotations

import json
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
MICRO_ROUNDS = 20
E2E_PAIRS = 10
# the batched Monte Carlo march: linear_additive (201 nodes), 50 steps,
# 256 rows, the shape of one `spde._terminal_batch` of the step march
STEPS, ROWS, EPS = 50, 256, 0.05


@dataclass(frozen=True)
class Case:
    group: str
    name: str
    repeats: int
    setup: Callable[[], Callable[[], object]]

    def command(self, tree: Path, rnd: int) -> list:
        return [sys.executable, str(HERE / "ab_cases.py"),
                str(tree / "src"), self.name]

    def settings(self) -> dict:
        return {"repeats": self.repeats}


@dataclass(frozen=True)
class Workload:
    name: str
    seconds: float

    def command(self, tree: Path, rnd: int) -> list:
        return [sys.executable, str(tree / "perfbench" / "run.py"),
                "--workload", self.name, "--seed", str(rnd),
                "--seconds", str(self.seconds)]

    def settings(self) -> dict:
        return {"seconds": self.seconds, "seed": "the round index"}


CASES: dict = {}


def _add(group: str, name: str, repeats: int, setup, *args) -> None:
    CASES[name] = Case(group, name, repeats, lambda: setup(*args))


def groups() -> dict:
    """{group: (rounds, {case name: case})}; the end-to-end group "e2e"
    holds the workloads of BENCHMARK.json."""
    out = {}
    for case in CASES.values():
        out.setdefault(case.group, (MICRO_ROUNDS, {}))[1][case.name] = case
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    out["e2e"] = (E2E_PAIRS, {w["name"]: Workload(w["name"],
                                                  bench["run_seconds"])
                              for w in bench["workloads"]})
    return out


# -- rate: `ldp.minimize_rate` with penalty 1e4 and its default iteration cap

def _rate(family: str, overrides: dict, control: float, n_steps: int):
    """The ball of radius 0.02 about the terminal state under a constant
    control; the call reports the rate and the SQP iterate count too."""
    from obslab.families import make_problem
    from obslab.grid import Field
    from obslab.ldp import TargetEvent, minimize_rate
    from obslab.skeleton import constant_control, solve_penalized
    problem = make_problem(family, **overrides)
    k = constant_control(n_steps, problem.coefficients.n_modes,
                         problem.horizon, control)
    shifted = solve_penalized(problem, k, 1e4)
    event = TargetEvent(Field(shifted.traj.values[0], problem.grid), 0.02)

    def call():
        res = minimize_rate(problem, event, n_steps=n_steps, penalty_n=1e4)
        return {"rate": res.rate, "iterates": len(res.lambda_history)}
    return call


# the bundled `rate_minimize` event
_add("rate", "bundled_50", 5, _rate, "linear_additive", {}, 1.2, 50)
# the binding event: its minimizer presses the state into the barrier
for _n, _repeats in ((20, 5), (40, 5), (80, 1), (160, 1)):
    _add("rate", f"binding_{_n}", _repeats, _rate, "quasilinear_full",
         {"n_nodes": 101, "obstacle_amplitude": 0.8}, -2.0, _n)


# -- readoff: trajectory CSVs and the BSDE read-off

def _to_csv():
    """`Trajectory.to_csv` of 401 time nodes of 401 grid nodes, standard
    normal values."""
    import atexit
    import shutil
    import tempfile

    import numpy as np
    from obslab.grid import Grid, Trajectory
    traj = Trajectory(1.0,
                      np.random.default_rng(0).standard_normal((401, 401)),
                      Grid(-4.0, 4.0, 401))
    tmp = tempfile.mkdtemp()
    atexit.register(shutil.rmtree, tmp, True)   # when the interpreter ends
    return lambda: traj.to_csv(Path(tmp) / "traj.csv")


def _residual(n_steps: int, n_nodes: int):
    """`bsde_residual` at one level of the bundled `bsde_check` config
    (quasilinear_full, zero control, penalty 1e4, 3000 paths, seed 11), on
    the ensemble it reads: the finest mesh's paths, coarsened in time."""
    from obslab.bsde import bsde_residual, coarsen, sample_paths
    from obslab.families import make_problem
    from obslab.skeleton import solve_penalized, zero_control
    base = make_problem("quasilinear_full")
    fine = sample_paths(3000, 400, base.horizon, base.grid, 11)
    sol = solve_penalized(make_problem("quasilinear_full", n_nodes=n_nodes),
                          zero_control(n_steps, base.coefficients.n_modes,
                                       base.horizon), 1e4)
    ensemble = coarsen(fine, 400 // n_steps)
    return lambda: bsde_residual(sol, ensemble)


def _star():
    """The bundled `star_check` config's runner, as the experiment runs it:
    the draw of 10 000 paths of 400 steps (linear_additive's box and
    horizon, seed 3) and `star_integral_check` of J(t, x) = exp(-x^2)
    along them."""
    from obslab import harness
    config = json.loads((HERE.parent / "configs" / "star_check.json")
                        .read_text())
    problem = harness._problem_from(config)
    run = harness._RUNNERS["star_check"]
    return lambda: run(config, problem)


def _bsde_check():
    """The bundled `bsde_check` config's runner, as the experiment runs it:
    the four levels' solves (quasilinear_full, 50 x 51 to 400 x 401, zero
    control, penalty 1e4), then the read-off of all four along 3000 paths
    of 400 steps (seed 11)."""
    from obslab import harness
    config = json.loads((HERE.parent / "configs" / "bsde_check.json")
                        .read_text())
    problem = harness._problem_from(config)
    run = harness._RUNNERS["bsde_check"]
    return lambda: run(config, problem)


def _paths():
    """`sample_paths` of the bundled `star_check` shape: 10 000 paths of
    400 steps, linear_additive's box and horizon, seed 3."""
    from obslab.bsde import sample_paths
    from obslab.families import make_problem
    problem = make_problem("linear_additive")
    return lambda: sample_paths(10000, 400, problem.horizon, problem.grid, 3)


_add("readoff", "to_csv_401x401", 5, _to_csv)
for _n_steps, _n_nodes in ((50, 51), (100, 101), (200, 201), (400, 401)):
    _add("readoff", f"bsde_residual_{_n_steps}x{_n_nodes}", 5, _residual,
         _n_steps, _n_nodes)
_add("readoff", "star_check_10000x400", 5, _star)
_add("readoff", "bsde_check_3000x400", 5, _bsde_check)
_add("readoff", "sample_paths_10000x400", 5, _paths)


# -- step: the march, its phases and the Monte Carlo streams

def _mc_march():
    """The problem and a call marching the batched Monte Carlo march
    (`ROWS` random controls and noise at `EPS`, penalty 1e4, unstored),
    its drive formed inside the call."""
    import numpy as np
    from obslab.families import linear_additive
    from obslab.stepping import control_drive, march, noise_drive
    mc = linear_additive()
    rng = np.random.default_rng(0)
    controls = rng.standard_normal((ROWS, STEPS, 1))
    noise = np.sqrt(mc.horizon / STEPS) * rng.standard_normal((ROWS, STEPS, 1))

    def call(prob=mc):
        drive = control_drive(prob, controls) + noise_drive(prob, EPS, noise)
        march(prob, STEPS, penalty_n=1e4, drive=drive, store=False)
    return mc, call


def _single_row(family: str):
    """One stored single-row march: 401 nodes, 400 steps, zero control,
    penalty 1e4."""
    import numpy as np
    from obslab.families import make_problem
    from obslab.stepping import march
    problem = make_problem(family, n_nodes=401)
    return lambda: march(problem, 400, penalty_n=1e4, drive=np.zeros(400))


def _step_phases():
    """The phases of one step of the batched march, in microseconds per
    step: coefficient calls (f, g, h_shape), right-hand side, kernel
    (`thomas_batch`), and the barrier split with the finiteness check.

    Wrappers stamp the clock where f is entered (a step opens), h_shape
    returns (its coefficient calls end) and the kernel is entered and left,
    so the phases time the tree's own `march`; each wrapper adds about a
    microsecond to its phase.  `s` is the wrapped march's wall time.
    """
    import dataclasses

    import numpy as np
    from obslab import stepping
    mc, mc_march = _mc_march()
    clock = time.perf_counter
    marks = []

    def stamp(fn, before, after):
        def wrapped(*args, **kwargs):
            if before:
                marks.append((before, clock()))
            res = fn(*args, **kwargs)
            if after:
                marks.append((after, clock()))
            return res
        return wrapped

    co = mc.coefficients
    traced = dataclasses.replace(mc, coefficients=dataclasses.replace(
        co, f=stamp(co.f, "step", None),
        h_shape=stamp(co.h_shape, None, "coef")))
    kernel = stepping.thomas_batch
    stamped = stamp(kernel, "rhs", "kernel")

    def per_step(ends, starts):
        return float(np.sum(np.subtract(ends, starts))) / STEPS * 1e6

    def call():
        marks.clear()
        stepping.thomas_batch = stamped
        try:
            mc_march(traced)
        finally:
            stepping.thomas_batch = kernel
        marks.append(("step", clock()))
        t = {"step": [], "coef": [], "rhs": [], "kernel": []}
        for name, when in marks:
            t[name].append(when)
        return {"coefficients_us": per_step(t["coef"], t["step"][:-1]),
                "rhs_us": per_step(t["rhs"], t["coef"]),
                "kernel_us": per_step(t["kernel"], t["rhs"]),
                "split_us": per_step(t["step"][1:], t["kernel"])}
    return call


def _mc_batch(kind: str):
    """One 1024-row Monte Carlo batch (`spde._terminal_batch`,
    linear_additive, zero control, eps `EPS`, its noise drawn) by the step
    march or from a response table, or the table's build."""
    from obslab.families import linear_additive
    from obslab.skeleton import zero_control
    from obslab.spde import _response_table, _terminal_batch
    mc = linear_additive()
    zero = zero_control(STEPS, 1, mc.horizon)
    if kind == "response_table_build":
        return lambda: _response_table(mc, 1e4, zero)
    table = None
    if kind == "response":
        table = _response_table(mc, 1e4, zero)
        if table is None:
            raise RuntimeError("the response table is not certified")
    return lambda: _terminal_batch(mc, EPS, 1e4, zero, 0, (0, 1024),
                                   table=table)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def _pool_stream():
    """A state-dependent stream on the forked pool, with every usable core:
    quasilinear_full (101 nodes), 20 steps, constant control -1 on its 4
    modes, eps 0.2; 3000 and 4096 samples at 256 and 1024 rows per batch
    (`spde.MC_BATCH`)."""
    from obslab import spde
    from obslab.families import quasilinear_full
    from obslab.skeleton import constant_control
    ql = quasilinear_full(n_nodes=101)
    k = constant_control(20, 4, ql.horizon, -1.0)

    def stream(n: int) -> None:
        for _ in spde.sample_terminal_states(ql, 0.2, 1e4, k, n, 0):
            pass

    def call():
        out = {}
        for rows in (256, 1024):
            spde.MC_BATCH = rows
            for n in (3000, 4096):
                out[f"rows_{rows}_samples_{n}_s"] = _timed(lambda: stream(n))
        return out
    return call


def _serial_stream():
    """The serial 4096-sample step-march stream (linear_additive, 50 steps,
    eps `EPS`, penalty 1e4, zero control) in 256-, 512- and 1024-row
    batches."""
    from obslab.families import linear_additive
    from obslab.skeleton import zero_control
    from obslab.spde import _terminal_batch
    mc = linear_additive()
    zero = zero_control(STEPS, 1, mc.horizon)

    def stream(rows: int) -> None:
        for lo in range(0, 4096, rows):
            _terminal_batch(mc, EPS, 1e4, zero, 0, (lo, lo + rows))

    return lambda: {f"rows_{rows}_s": _timed(lambda: stream(rows))
                    for rows in (256, 512, 1024)}


_add("step", "mc_march", 5, lambda: _mc_march()[1])
for _family in ("heat_obstacle", "linear_additive", "quasilinear_full"):
    _add("step", f"single_row_{_family}", 5, _single_row, _family)
_add("step", "mc_step_phases", 5, _step_phases)
for _kind in ("step_march", "response_table_build", "response"):
    _add("step", f"mc_batch_1024_{_kind}", 5, _mc_batch, _kind)
_add("step", "pool_stream", 1, _pool_stream)
_add("step", "serial_stream_4096", 1, _serial_stream)


def run_case(src: str, name: str) -> dict:
    sys.path.insert(0, src)
    case = CASES[name]
    try:
        call = case.setup()
    except (ImportError, AttributeError) as exc:
        return {"absent": f"{type(exc).__name__}: {exc}"}
    call()  # warm-up
    times, outs = [], []
    for _ in range(case.repeats):
        t0 = time.perf_counter()
        out = call()
        times.append(time.perf_counter() - t0)
        outs.append(out if isinstance(out, dict) else {})
    metrics = {"s": statistics.median(times)}
    for key in outs[0]:
        metrics[key] = statistics.median(out[key] for out in outs)
    return {"metrics": metrics}


if __name__ == "__main__":
    print(json.dumps(run_case(*sys.argv[1:])))
