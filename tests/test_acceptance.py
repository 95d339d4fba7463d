"""Acceptance gate: one check per release criterion, pinned tolerances.

Each test appends a PASS/FAIL line to RESULTS; the conftest terminal-summary
hook prints the whole gate after the run so the lines appear regardless of
output capturing.
"""
import json
import time
from pathlib import Path

import numpy as np

from obslab.bsde import (bsde_residual, coarsen, path_chunks, sample_paths,
                         star_integral_check)
from obslab.families import (heat_obstacle, linear_additive,
                             quasilinear_full)
from obslab.grid import Field, Grid, Trajectory, ht_distance
from obslab.harness import compare_baseline, run
from obslab.ldp import TargetEvent, condition_ii_test, mc_ldp_compare, \
    minimize_rate
from obslab.skeleton import (Control, constant_control, solve_penalized,
                             solve_projected, solve_skeleton)
from obslab.spde import condition_i_distance

from conftest import zero
from test_ldp import least_norm_oracle
from test_stepping import free_heat_problem, terminal_heat_solution, TERMINAL

REPO = Path(__file__).resolve().parents[1]
RESULTS = []


def record(num, label, ok, detail):
    RESULTS.append((num, label, bool(ok), detail))
    assert ok, f"criterion {num} ({label}): {detail}"


def test_criterion_01_heat_equation_exactness():
    # The stopwatch covers set-up plus the 400-step solve only; bound 5 s.
    t0 = time.monotonic()
    prob = free_heat_problem(401, TERMINAL)
    sol = solve_penalized(prob, zero(prob, 400), 1e4)
    elapsed = time.monotonic() - t0
    taus = prob.horizon - sol.traj.times
    ref_vals = terminal_heat_solution(prob.grid.x[None, :], taus[:, None])
    ref_vals[:, 0] = ref_vals[:, -1] = 0.0
    dist = ht_distance(sol.traj, Trajectory(sol.traj.horizon, ref_vals,
                                            prob.grid))
    fine = solve_penalized(prob, zero(prob, 1600), 1e4)
    errs = [np.max(np.abs(solve_penalized(prob, zero(prob, n),
                                          1e4).traj.values[0]
                          - fine.traj.values[0]))
            for n in (50, 100, 200)]
    orders = np.log(np.array(errs[:-1]) / errs[1:]) / np.log(2.0)
    ok = dist <= 5e-3 and np.all(orders >= 0.9) and elapsed < 5.0
    record(1, "heat-kernel oracle",
           ok, f"ht={dist:.2e} (tol 5e-3), dt-orders={np.round(orders, 2)}"
               f" (>=0.9), solve time {elapsed:.1f}s (<5s)")


def test_criterion_02_penalty_decay_rate():
    prob = heat_obstacle()
    ns = np.array([1e3, 1e4, 1e5, 1e6])
    norms = np.array([solve_penalized(prob, zero(prob, 200), n).penalty_l2
                      for n in ns])
    exponent = float(-np.polyfit(np.log(ns), np.log(norms), 1)[0])
    scaled = ns * norms**2
    ratio = float(scaled.max() / scaled.min())
    ok = 0.4 <= exponent <= 0.6 and ratio < 3.0
    record(2, "penalty norm decay",
           ok, f"exponent={exponent:.3f} (in [0.4,0.6]),"
               f" n*norm^2 ratio={ratio:.2f} (<3)")


def test_criterion_03_skeleton_matches_projection():
    dists = {}
    for name, prob in (("heat", heat_obstacle()),
                       ("linear", linear_additive()),
                       ("quasilinear", quasilinear_full())):
        sk = solve_skeleton(prob, zero(prob, 200), tol=1e-3)
        proj = solve_projected(prob, zero(prob, 200))
        dists[name] = float(ht_distance(sk.traj, proj.traj))
    ok = all(d <= 2e-3 for d in dists.values())
    record(3, "skeleton vs projection",
           ok, ", ".join(f"{k}={v:.2e}" for k, v in dists.items())
               + " (tol 2e-3)")


def test_criterion_04_complementarity():
    # The penalty measure dnu_n = n (L - u_n)^+ dt dx against the
    # projection's dnu_p: its mass converges to nu_p's, and it charges no
    # set where the projected solution lies strictly above the barrier.
    prob = heat_obstacle()
    proj = solve_projected(prob, zero(prob, 200))
    sols = [solve_penalized(prob, zero(prob, 200), n)
            for n in (1e3, 1e4, 1e5)]
    dtdx = proj.traj.dt * prob.grid.h
    mass_p = float(np.sum(proj.barrier_density()))
    mass_gaps = [abs(float(np.sum(s.barrier_density())) - mass_p) / mass_p
                 for s in sols]
    above = np.maximum(proj.barrier_gap, 0.0)
    cross = [dtdx * float(np.sum(above * s.barrier_density())) for s in sols]
    ok = all(a > b for a, b in zip(mass_gaps, mass_gaps[1:])) \
        and mass_gaps[-1] < 1e-2 \
        and all(a >= b for a, b in zip(cross, cross[1:])) and cross[-1] < 1e-6
    record(4, "reflection measure against projection",
           ok, f"mass gaps={['%.1e' % g for g in mass_gaps]}"
               " (falling, final<1e-2),"
               f" cross pairings={['%.1e' % c for c in cross]}"
               " (non-increasing, final<1e-6)")


def test_criterion_05_uniform_convergence_over_control_family():
    prob = heat_obstacle()
    n_steps = 200
    times = np.linspace(0.0, prob.horizon, n_steps + 1)
    tmid = 0.5 * (times[:-1] + times[1:])
    family = []
    for amp, freq in ((0.0, 1), (1.0, 1), (2.0, 1), (1.5, 2), (2.5, 3)):
        vals = amp * np.sin(np.pi * freq * tmid / prob.horizon)[:, None]
        k = Control(prob.horizon, vals)
        assert k.in_ball(4.0)
        family.append(k)
    ns = [1e3 * 2**i for i in range(5)]
    sols = {(i, n): solve_penalized(prob, k, n)
            for i, k in enumerate(family) for n in ns}
    gaps = [max(ht_distance(sols[(i, a)].traj, sols[(i, b)].traj)
                for i in range(len(family)))
            for a, b in zip(ns, ns[1:])]
    ok = all(a > b for a, b in zip(gaps, gaps[1:]))
    # h_shape is identically 0 on heat_obstacle, so the controls never reach
    # the state: the maximum is the penalty Cauchy gap of one path
    record(5, "penalty Cauchy limit on heat_obstacle"
              " (h ≡ 0: its 5 S_4 controls give one path)",
           ok, f"max Cauchy gaps={['%.1e' % g for g in gaps]}"
               " (monotone over 4 doublings)")


def test_criterion_06_weak_convergence_continuity():
    prob = linear_additive()
    k = constant_control(200, 1, prob.horizon, 1.0)
    rep = condition_ii_test(prob, k, 1.0, [1, 2, 4, 8, 16], penalty_n=1e4)
    ratio = rep["final_over_initial"]
    ok = rep["monotone_decreasing"] and ratio <= 0.25
    record(6, "oscillatory-control continuity",
           ok, f"monotone={rep['monotone_decreasing']},"
               f" final/initial={ratio:.3f} (<=0.25)")


def test_criterion_07_small_noise_coupling():
    t0 = time.monotonic()
    prob = linear_additive()
    k = constant_control(100, 1, prob.horizon, 1.0)
    rep = condition_i_distance(prob, [0.1, 0.05, 0.025, 0.0125], k,
                               1e4, 200, seed=7)
    elapsed = time.monotonic() - t0
    slope = rep["loglog_slope"]
    ok = rep["monotone"] and 0.35 <= slope <= 0.65 and elapsed < 600
    record(7, "sqrt-epsilon coupling distance",
           ok, f"monotone={rep['monotone']}, slope={slope:.3f}"
               f" (in [0.35,0.65]), {elapsed:.0f}s (<600s)")


def test_criterion_08_rate_vs_quadratic_program():
    prob = linear_additive()
    n_steps = 50
    shifted = solve_penalized(
        prob, constant_control(n_steps, 1, prob.horizon, 1.2), 1e4)
    event = TargetEvent(center=Field(shifted.traj.values[0], prob.grid),
                        radius=0.02)
    oracle = least_norm_oracle(prob, event, n_steps)
    res = minimize_rate(prob, event, n_steps=n_steps, penalty_n=1e4)
    rel = abs(res.rate - oracle) / oracle

    base = solve_penalized(prob, zero(prob, n_steps), 1e4)
    self_event = TargetEvent(center=Field(base.traj.values[0], prob.grid),
                             radius=0.05)
    self_rate = minimize_rate(prob, self_event,
                              n_steps=n_steps, penalty_n=1e4).rate

    noiseless = heat_obstacle()
    far = TargetEvent(center=Field(np.full(noiseless.grid.n_nodes, 10.0),
                                   noiseless.grid),
                      radius=0.01)
    unreachable = minimize_rate(noiseless, far,
                                n_steps=n_steps, penalty_n=1e4).rate
    ok = res.feasible and rel <= 0.02 and self_rate <= 1e-6 \
        and unreachable == np.inf
    record(8, "rate function vs least-norm oracle",
           ok, f"rel gap={rel:.4f} (<=0.02), self rate={self_rate:.1e}"
               f" (<=1e-6), unreachable={unreachable}")


def test_criterion_09_ldp_monte_carlo_agreement():
    t0 = time.monotonic()
    prob = linear_additive()
    n_steps = 50
    shifted = solve_penalized(
        prob, constant_control(n_steps, 1, prob.horizon, 1.2), 1e4)
    event = TargetEvent(center=Field(shifted.traj.values[0], prob.grid),
                        radius=0.02)
    rate = minimize_rate(prob, event, n_steps=n_steps, penalty_n=1e4)
    rep = mc_ldp_compare(prob, event, rate, [0.4, 0.2, 0.1, 0.05], 100000,
                         seed=42)
    elapsed = time.monotonic() - t0
    rel = rep.get("relative_error", np.inf)
    ok = rel <= 0.25 and elapsed < 900
    record(9, "rare-event probability vs rate",
           ok, f"|extrap eps*log p + I|/I = {rel:.3f} (<=0.25),"
               f" {elapsed:.0f}s (<900s)")


def test_criterion_10_bsde_and_star_identity():
    levels = ((50, 51), (100, 101), (200, 201), (400, 401))
    probs = {ns: quasilinear_full(n_nodes=nn) for ns, nn in levels}
    sols = {ns: solve_penalized(prob, zero(prob, ns), 1e4)
            for ns, prob in probs.items()}
    T = 0.3
    fine = sample_paths(3000, 400, T, Grid(-4.0, 4.0, 401), seed=11)
    res = np.array([bsde_residual(sols[ns], coarsen(fine, 400 // ns))
                    for ns, _ in levels])
    dts = T / np.array([lv[0] for lv in levels], dtype=float)
    order = float(np.polyfit(np.log(dts), np.log(res), 1)[0])

    lin = linear_additive()
    chunks = path_chunks(10000, 400, lin.horizon, lin.grid, seed=3)
    J = lambda t, x: np.exp(-np.asarray(x, dtype=float)**2)
    dJ = lambda t, x: -2.0 * np.asarray(x, dtype=float) * \
        np.exp(-np.asarray(x, dtype=float)**2)
    star = star_integral_check(J, dJ, chunks)
    centered = abs(star["mean_gap"]) <= 3.0 * star["std_error"]
    ok = order >= 0.5 and centered
    record(10, "backward representation + flux identity",
           ok, f"residual order={order:.3f} (>=0.5), star gap"
               f"={star['mean_gap']:.2e} vs 3SE={3 * star['std_error']:.2e}")


def test_criterion_11_determinism_and_baselines(tmp_path):
    with open(REPO / "configs" / "penalization_study.json") as fh:
        cfg = json.load(fh)
    run(cfg, tmp_path / "a")
    run(cfg, tmp_path / "b")
    identical = all(
        (tmp_path / "a" / name).read_bytes()
        == (tmp_path / "b" / name).read_bytes()
        for name in ("report.json", "final_trajectory.csv"))

    failures = []
    for path in sorted((REPO / "configs").glob("*.json")):
        kind = path.stem
        with open(path) as fh:
            report = run(json.load(fh), tmp_path / kind)
        with open(REPO / "baselines" / f"{kind}.json") as fh:
            cmp = compare_baseline(report, json.load(fh))
        if not (report["passed"] and cmp["passed"]):
            failures.append(kind)
    ok = identical and not failures
    record(11, "determinism and regression baselines",
           ok, f"byte-identical={identical}, failing configs={failures or 'none'}")
