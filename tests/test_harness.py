"""Experiment harness: config validation, runs, baselines, CLI."""
import ctypes
import json
import logging
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest
from click.testing import CliRunner

from obslab.cli import main
from obslab.families import FAMILY_NAMES, make_problem
from obslab.harness import (_RUNNERS, ConfigError, compare_baseline,
                            config_hash, load_schema, run, validate_config)
from obslab.problem import CheckResult, ValidationReport, validate

REPO = Path(__file__).resolve().parents[1]
CONFIGS = REPO / "configs"
BASELINES = REPO / "baselines"

FAST_KINDS = ("penalization_study", "skeleton_solve", "condition_ii",
              "bsde_check", "star_check", "condition_i")


def load_config(kind):
    with open(CONFIGS / f"{kind}.json") as fh:
        return json.load(fh)


class TestConfigValidation:
    def test_all_bundled_configs_valid(self):
        for path in sorted(CONFIGS.glob("*.json")):
            with open(path) as fh:
                validate_config(json.load(fh))

    def test_unknown_field_rejected(self):
        cfg = load_config("penalization_study")
        cfg["surprise"] = 1
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_bad_experiment_kind_rejected(self):
        cfg = load_config("penalization_study")
        cfg["experiment"] = "nonsense"
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_mesh_cap_enforced(self):
        cfg = load_config("penalization_study")
        cfg["mesh"]["n_steps"] = 100000
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_mc_compare_with_path_event_rejected_before_any_solve(
            self, tmp_path, monkeypatch):
        cfg = load_config("mc_compare")
        cfg["event"] = {"kind": "sup_exceed", "level": 0.5}
        with pytest.raises(ConfigError,
                           match=r"event: .*'kind', 'level' were unexpected"):
            validate_config(cfg)

        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started before the config check")

        monkeypatch.setattr("obslab.harness.make_problem", no_solve)
        monkeypatch.setattr("obslab.harness.minimize_rate", no_solve)
        with pytest.raises(ConfigError):
            run(cfg, tmp_path / "mc")
        assert not (tmp_path / "mc").exists()

    @staticmethod
    def _rejected_before_any_solve(cfg, out, monkeypatch, match):
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started before the config check")

        monkeypatch.setattr("obslab.harness.make_problem", no_solve)
        monkeypatch.setattr("obslab.harness.minimize_rate", no_solve)
        with pytest.raises(ConfigError, match=match):
            run(cfg, out)
        assert not out.exists()

    def test_ball_without_radius_rejected_before_any_solve(
            self, tmp_path, monkeypatch):
        cfg = load_config("rate_minimize")
        del cfg["event"]["radius"]
        self._rejected_before_any_solve(
            cfg, tmp_path / "rate", monkeypatch,
            r"event: 'radius' is a required property")

    def test_config_without_params_rejected_before_any_solve(
            self, tmp_path, monkeypatch):
        # every runner reads config["params"]
        cfg = load_config("rate_minimize")
        del cfg["params"]
        self._rejected_before_any_solve(
            cfg, tmp_path / "rate", monkeypatch,
            r"<root>: 'params' is a required property")

    @staticmethod
    def _params_rejected_before_any_solve(cfg, out, monkeypatch, match):
        # the family builder runs; nothing after it may
        def no_solve(*args, **kwargs):
            raise AssertionError("a solve started before the config check")

        for name in ("solve_penalized", "solve_skeleton", "minimize_rate"):
            monkeypatch.setattr(f"obslab.harness.{name}", no_solve)
        with pytest.raises(ConfigError, match=match):
            run(cfg, out)
        assert not out.exists()

    def test_unknown_family_param_rejected_before_any_solve(
            self, tmp_path, monkeypatch):
        cfg = load_config("rate_minimize")
        cfg["problem"]["params"] = {"n_node": 101}
        self._params_rejected_before_any_solve(
            cfg, tmp_path / "rate", monkeypatch,
            r"problem.params rejected by family 'linear_additive': .*n_node")

    def test_bad_family_param_value_rejected_before_any_solve(
            self, tmp_path, monkeypatch):
        cfg = load_config("skeleton_solve")
        cfg["problem"]["params"] = {"n_modes": 0}
        self._params_rejected_before_any_solve(
            cfg, tmp_path / "skel", monkeypatch,
            r"problem.params rejected by family 'quasilinear_full': "
            r"mode_weights must be a nonempty vector")

    @pytest.mark.parametrize("kind, control, match", [
        ("condition_ii", {"kind": "constant", "value": 1.0, "mode": 3},
         r"control/mode: 3 is out of range; family 'linear_additive' has "
         r"1 noise mode\(s\)"),
        ("skeleton_solve", {"kind": "constant", "value": 1.0, "mode": 7},
         r"control/mode: 7 is out of range; family 'quasilinear_full' has "
         r"4 noise mode\(s\)"),
    ])
    def test_control_mode_out_of_range_rejected_before_any_march(
            self, kind, control, match, tmp_path, monkeypatch):
        # an unchecked mode fell through to an IndexError in the control
        def no_march(*args, **kwargs):
            raise AssertionError("a march started before the mode check")

        for module in ("skeleton", "ldp", "spde"):
            monkeypatch.setattr(f"obslab.{module}.march", no_march)
        cfg = load_config(kind)
        cfg["control"] = control
        self._params_rejected_before_any_solve(cfg, tmp_path / kind,
                                               monkeypatch, match)

    @pytest.mark.parametrize("key, value, match", [
        # mc_compare reads n_samples; the misspelt key would run 10 000
        ("n_sample", 100, r"params: .*'n_sample' was unexpected"),
        ("n_samples", 1, r"params/n_samples: 1 is less than the minimum of 2"),
    ])
    def test_bad_params_rejected_before_any_solve(
            self, key, value, match, tmp_path, monkeypatch):
        cfg = load_config("mc_compare")
        cfg["params"][key] = value
        self._rejected_before_any_solve(cfg, tmp_path / "mc", monkeypatch,
                                        match)

    @pytest.mark.parametrize("kind", ["condition_i", "mc_compare"])
    @pytest.mark.parametrize("epsilons", [
        [], [0.1], [0.1, 0.1], [0.1, -0.05], ["a", 0.1]])
    def test_bad_epsilon_list_rejected_before_any_solve(
            self, kind, epsilons, tmp_path, monkeypatch):
        # the log-log slope and the extrapolation in epsilon need two
        # distinct positive noise levels
        cfg = load_config(kind)
        cfg["params"]["epsilon_list"] = epsilons
        self._rejected_before_any_solve(cfg, tmp_path / kind, monkeypatch,
                                        r"params/epsilon_list")

    @pytest.mark.parametrize("kind, field, value, match", [
        # the flux test field is exp(-x^2), unscaled
        ("star_check", "params", {"j_scale": 2.0},
         r"params: .*'j_scale' was unexpected"),
        # an infeasible rate fails the run
        ("rate_minimize", "params", {"expect_infeasible": True},
         r"params: .*'expect_infeasible' was unexpected"),
        # only skeleton_solve reads n0 / n_max / tol, and it,
        # penalization_study and star_check read no penalty_n
        ("penalization_study", "solver", {"penalty_n": 1e4},
         r"solver: .*'penalty_n' was unexpected"),
        ("star_check", "solver", {"penalty_n": 1e4},
         r"solver: .*'penalty_n' was unexpected"),
        ("skeleton_solve", "solver", {"tol": 1e-3, "penalty_n": 1e4},
         r"solver: .*'penalty_n' was unexpected"),
        ("condition_i", "solver", {"penalty_n": 1e4, "n_max": 1e7},
         r"solver: .*'n_max' was unexpected"),
        ("mc_compare", "solver", {"penalty_n": 1e4, "tol": 1e-3},
         r"solver: .*'tol' was unexpected"),
        # the rate experiments and star_check march no configured control
        ("star_check", "control", {"kind": "zero"},
         r"'control' should not be valid"),
        ("rate_minimize", "control", {"kind": "zero"},
         r"'control' should not be valid"),
        ("mc_compare", "control", {"kind": "constant", "value": 1.0},
         r"'control' should not be valid"),
    ] + [(kind, "event", {"radius": 0.02},
          r"'event' should not be valid")
         for kind in ("penalization_study", "skeleton_solve", "condition_i",
                      "condition_ii", "bsde_check", "star_check")] + [
        # the pass bounds are the runners' own, and a terminal ball is the
        # one event
        ("skeleton_solve", "params", {"agree_tol": 2e-3},
         r"params: .*'agree_tol' was unexpected"),
        ("mc_compare", "params", {"rel_tol": 0.25},
         r"params: .*'rel_tol' was unexpected"),
        ("rate_minimize", "event", {"kind": "terminal_ball", "radius": 0.02},
         r"event: .*'kind' was unexpected"),
        # the rate minimizer takes no settings, whatever opt_config holds
        ("rate_minimize", "params", {"opt_config": {"tol": 1e-3}},
         r"params: .*'opt_config' was unexpected"),
        ("mc_compare", "params", {"opt_config": {"n_steps": 25}},
         r"params: .*'opt_config' was unexpected"),
    ])
    def test_unread_config_field_rejected_before_any_solve(
            self, kind, field, value, match, tmp_path, monkeypatch):
        cfg = load_config(kind)
        cfg[field] = value
        self._rejected_before_any_solve(cfg, tmp_path / kind, monkeypatch,
                                        match)

    @pytest.mark.parametrize("levels, match", [
        # one level fits an order through a single point
        ([[50, 51]], r"params/levels: \[\[50, 51\]\] is too short"),
        ([[50, 2], [100, 101]],
         r"params/levels/0/1: 2 is less than the minimum of 3"),
        ([[50.5, 51], [100, 101]],
         r"params/levels/0/0: 50.5 is not of type 'integer'"),
        ([[50, 51, 52], [100, 101]],
         r"params/levels/0: Expected at most 2 items"),
    ])
    def test_bad_bsde_levels_rejected_before_any_solve(
            self, levels, match, tmp_path, monkeypatch):
        cfg = load_config("bsde_check")
        cfg["params"]["levels"] = levels
        self._rejected_before_any_solve(cfg, tmp_path / "bsde", monkeypatch,
                                        match)

    @pytest.mark.parametrize("kind, key, value", [
        # one path: a NaN standard error; "many": a TypeError in sample_paths
        ("star_check", "n_paths", 1),
        ("star_check", "n_paths", "many"),
        # zero paths failed only after the four level problems were built
        ("bsde_check", "n_paths", 0),
        ("bsde_check", "n_paths", 1.5),
        # [] failed with an IndexError; [1.5, 2] ran 1.5 as frequency 1
        ("condition_ii", "frequencies", []),
        ("condition_ii", "frequencies", [1.5, 2]),
        ("condition_ii", "frequencies", [0, 1]),
        ("condition_ii", "frequencies", [2, 2]),
        ("condition_ii", "amplitude", "big"),
        ("condition_ii", "norm_sq_bound", 0.0),
        # one penalty gave a RankWarning in the decay-exponent fit
        ("penalization_study", "n_schedule", [1000.0]),
        ("penalization_study", "n_schedule", [1000.0, -1.0]),
        ("penalization_study", "n_schedule", [1000.0, 1000.0]),
        # these failed only after the whole solve
        ("condition_i", "deltas", "x"),
        ("condition_i", "deltas", []),
        ("condition_i", "deltas", [-0.1]),
        # "no" is truthy, so it ran importance sampling
        ("mc_compare", "use_importance", "no"),
    ])
    def test_bad_param_value_rejected_before_any_march(
            self, kind, key, value, tmp_path, monkeypatch):
        def no_march(*args, **kwargs):
            raise AssertionError("a march started before the config check")

        for module in ("stepping", "skeleton", "ldp", "spde"):
            monkeypatch.setattr(f"obslab.{module}.march", no_march)
        cfg = load_config(kind)
        cfg["params"][key] = value
        self._rejected_before_any_solve(cfg, tmp_path / kind, monkeypatch,
                                        rf"config field params/{key}\b")

    def test_bsde_mesh_rejected_before_any_solve(self, tmp_path, monkeypatch):
        # the levels pick the meshes; the runner never reads mesh.n_steps
        cfg = load_config("bsde_check")
        cfg["mesh"] = {"n_steps": 400}
        monkeypatch.setattr("obslab.harness.sample_paths", lambda *a, **k:
                            pytest.fail("paths sampled before the check"))
        self._rejected_before_any_solve(
            cfg, tmp_path / "bsde", monkeypatch,
            r"'mesh' should not be valid under \{'const': 'mesh'\}")

    def test_bsde_levels_off_the_finest_mesh_rejected_before_any_solve(
            self, tmp_path, monkeypatch):
        # every level reads a coarsened copy of the finest level's paths
        cfg = load_config("bsde_check")
        cfg["params"]["levels"] = [[50, 51], [75, 76]]
        monkeypatch.setattr("obslab.harness.sample_paths", lambda *a, **k:
                            pytest.fail("paths sampled before the check"))
        self._params_rejected_before_any_solve(
            cfg, tmp_path / "bsde", monkeypatch,
            r"params/levels: n_steps \[50\] do not divide the finest "
            r"level's 75")

    def test_bsde_level_problem_validated_before_any_solve(
            self, tmp_path, monkeypatch):
        # the configured problem passes; the first level's fails
        cfg = load_config("bsde_check")
        cfg["params"]["levels"] = [[50, 51], [100, 101]]
        seen = []

        def validate_all_but_levels(problem):
            seen.append(problem.grid.n_nodes)
            failed = CheckResult("level", False, -1.0)
            return validate(problem) if len(seen) == 1 \
                else ValidationReport((failed,))

        monkeypatch.setattr("obslab.harness.validate", validate_all_but_levels)
        self._params_rejected_before_any_solve(
            cfg, tmp_path / "bsde", monkeypatch,
            r"problem fails validation:\nFAIL  level")
        assert seen == [201, 51]

    def test_schema_experiment_kinds_are_the_runners(self):
        kinds = load_schema()["properties"]["experiment"]["enum"]
        assert sorted(kinds) == sorted(_RUNNERS)

    def test_schema_families_are_the_builders(self):
        # _problem_from turns only a builder's TypeError or ValueError into
        # a ConfigError: a schema family without a builder would escape it
        # as make_problem's KeyError
        families = load_schema()["properties"]["problem"]["properties"][
            "family"]["enum"]
        assert sorted(families) == sorted(FAMILY_NAMES)
        for family in families:
            assert make_problem(family).name == family

    def test_rate_experiment_without_event_rejected(self):
        cfg = load_config("rate_minimize")
        del cfg["event"]
        with pytest.raises(ConfigError, match="'event' is a required property"):
            validate_config(cfg)

    def test_every_violation_named(self):
        cfg = load_config("mc_compare")
        cfg["event"] = {"kind": "sup_exceed", "level": 0.5}
        cfg["params"]["opt_config"] = {"max_iters": 0}
        with pytest.raises(ConfigError) as info:
            validate_config(cfg)
        message = str(info.value)
        for part in ("'radius' is a required property",
                     "'kind', 'level' were unexpected",
                     "'opt_config' was unexpected"):
            assert part in message

    def test_hash_insensitive_to_key_order(self):
        cfg = load_config("skeleton_solve")
        shuffled = dict(reversed(list(cfg.items())))
        assert config_hash(cfg) == config_hash(shuffled)
        cfg2 = dict(cfg, seed=cfg["seed"] + 1)
        assert config_hash(cfg) != config_hash(cfg2)


class TestRuns:
    @pytest.mark.parametrize("kind", FAST_KINDS)
    def test_fast_configs_pass_and_match_baseline(self, kind, tmp_path):
        report = run(load_config(kind), tmp_path / kind)
        assert report["passed"], report
        with open(BASELINES / f"{kind}.json") as fh:
            baseline = json.load(fh)
        cmp = compare_baseline(report, baseline)
        assert cmp["passed"], cmp["mismatches"]
        assert (tmp_path / kind / "report.json").exists()
        assert (tmp_path / kind / "manifest.json").exists()

    def test_repeat_runs_byte_identical(self, tmp_path):
        cfg = load_config("penalization_study")
        run(cfg, tmp_path / "a")
        run(cfg, tmp_path / "b")
        for name in ("report.json", "final_trajectory.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_rate_minimize_repeat_runs_byte_identical(self, tmp_path):
        cfg = load_config("rate_minimize")
        run(cfg, tmp_path / "a")
        run(cfg, tmp_path / "b")
        assert (tmp_path / "a" / "report.json").read_bytes() == \
            (tmp_path / "b" / "report.json").read_bytes()

    def test_one_interior_node_runs(self, tmp_path):
        # the theta-system is then 1 x 1; the schema admits n_nodes 3
        cfg = load_config("penalization_study")
        cfg["problem"]["params"] = {"n_nodes": 3}
        report = run(cfg, tmp_path / "pen")
        assert all(g < 0.0 for g in report["min_gap"])
        assert (tmp_path / "pen" / "final_trajectory.csv").exists()

    def test_condition_ii_fails_when_perturbations_move_nothing(self,
                                                                tmp_path):
        # heat_obstacle has h_shape = 0: no control moves the solution, so
        # every distance is 0 and no decay can be seen
        cfg = load_config("condition_ii")
        cfg["problem"]["family"] = "heat_obstacle"
        report = run(cfg, tmp_path / "c2")
        assert all(r["distance"] == 0.0 for r in report["rows"])
        assert report["final_over_initial"] is None
        assert not report["passed"]
        written = json.loads((tmp_path / "c2" / "report.json").read_text())
        assert written["final_over_initial"] is None
        with open(BASELINES / "condition_ii.json") as fh:
            cmp = compare_baseline(report, json.load(fh))
        assert {m["path"] for m in cmp["mismatches"]} == {
            "final_over_initial", "rows/0/distance", "rows/4/distance",
            "passed"}

    def test_condition_i_fails_when_the_noise_moves_nothing(self, tmp_path):
        # heat_obstacle has h_shape = 0: every distance is 0, so no log-log
        # slope can be read
        cfg = load_config("condition_i")
        cfg["problem"]["family"] = "heat_obstacle"
        report = run(cfg, tmp_path / "c1")
        assert all(r["mean_distance"] == 0.0 for r in report["per_epsilon"])
        assert report["loglog_slope"] is None
        assert not report["passed"]
        written = json.loads((tmp_path / "c1" / "report.json").read_text())
        assert written["loglog_slope"] is None

    def test_penalization_study_fails_when_the_barrier_never_binds(
            self, tmp_path):
        cfg = load_config("penalization_study")
        cfg["problem"]["family"] = "linear_additive"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run(cfg, tmp_path / "pen")
        assert report["gap_l2"] == [0.0] * 4
        assert report["decay_exponent"] is None
        assert report["n_gap_sq_ratio"] is None
        assert not report["passed"]
        written = json.loads((tmp_path / "pen" / "report.json").read_text())
        assert written["decay_exponent"] is None
        assert written["n_gap_sq_ratio"] is None

    def test_non_finite_report_raises_and_leaves_no_directory(
            self, tmp_path, monkeypatch):
        monkeypatch.setitem(_RUNNERS, "star_check",
                            lambda config, problem: ({"gap": float("nan")},
                                                     True, {}))
        with pytest.raises(ValueError, match="not JSON compliant"):
            run(load_config("star_check"), tmp_path / "star")
        assert not (tmp_path / "star").exists()

    def test_experiment_mismatch_in_baseline(self):
        with pytest.raises(ValueError):
            compare_baseline({"experiment": "a"}, {"experiment": "b"})

    def test_baseline_reports_mismatch_values(self):
        report = {"experiment": "penalization_study", "x": 1.0}
        baseline = {"experiment": "penalization_study",
                    "checks": [{"path": "x", "value": 2.0, "tol": 0.5}]}
        cmp = compare_baseline(report, baseline)
        assert not cmp["passed"]
        assert cmp["mismatches"][0]["path"] == "x"


class TestCli:
    def test_run_and_compare_round_trip(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "out"
        res = runner.invoke(main, ["run", str(CONFIGS / "skeleton_solve.json"),
                                   "--out-dir", str(out)])
        assert res.exit_code == 0, res.output
        res2 = runner.invoke(main, ["compare", str(out / "report.json"),
                                    str(BASELINES / "skeleton_solve.json")])
        assert res2.exit_code == 0, res2.output
        assert "PASS" in res2.output

    def test_log_level_flag(self, tmp_path, caplog):
        pkg = logging.getLogger("obslab")
        before = pkg.level
        try:
            res = CliRunner().invoke(main, [
                "run", str(CONFIGS / "condition_ii.json"),
                "--out-dir", str(tmp_path / "out"), "--log-level", "debug"])
            assert res.exit_code == 0, res.output
            assert pkg.level == logging.DEBUG
            assert "condition_ii passed in" in caplog.text
        finally:
            pkg.setLevel(before)
        res = CliRunner().invoke(main, [
            "run", str(CONFIGS / "condition_ii.json"), "--log-level", "loud"])
        assert res.exit_code == 2
        assert "Invalid value for '--log-level'" in res.output

    def test_list_experiments(self):
        res = CliRunner().invoke(main, ["list-experiments"])
        assert res.exit_code == 0
        assert "mc_compare" in res.output

    def test_missing_config_errors(self, tmp_path):
        res = CliRunner().invoke(main, ["run", str(tmp_path / "no.json")])
        assert res.exit_code != 0

    def test_module_run_lists_every_kind(self):
        # without the __main__ guard, python -m obslab.cli printed nothing
        # and exited 0
        env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
        out = subprocess.run(
            [sys.executable, "-m", "obslab.cli", "list-experiments"],
            env=env, check=True, capture_output=True, text=True,
            timeout=60).stdout
        assert out.split() == list(_RUNNERS)


# scipy.stats took most of a second of every process's start-up,
# scipy.optimize about 0.2 s and 20 MB of it, and scipy.linalg (run only to
# reach the two LAPACK routines of obslab.kernels) another 0.2 s and 17 MB;
# only a forked Monte Carlo stream needs multiprocessing (about 5 ms)
@pytest.mark.parametrize("module", ["scipy.stats", "scipy.optimize",
                                    "scipy.linalg", "multiprocessing"])
def test_harness_import_leaves_module_unloaded(module):
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import obslab.harness; "
            "print(sys.argv[2] in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src, module], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


def test_runs_import_nothing_the_harness_import_did_not(tmp_path):
    # a module imported on first use inside harness.run lands in the timed
    # wall time of that run rather than in start-up (numpy.random alone
    # costs about 10 ms); neither config forks, so multiprocessing stays out
    code = textwrap.dedent("""
        import json, sys
        from pathlib import Path
        sys.path.insert(0, sys.argv[1])
        import obslab.harness
        before = set(sys.modules)
        for kind in ("rate_minimize", "condition_ii"):
            with open(Path(sys.argv[2]) / f"{kind}.json") as fh:
                obslab.harness.run(json.load(fh), Path(sys.argv[3]) / kind)
        print(json.dumps(sorted(name for name in set(sys.modules) - before
                                if name.split(".")[0] != "obslab")))
    """)
    out = subprocess.run(
        [sys.executable, "-c", code, str(REPO / "src"), str(CONFIGS),
         str(tmp_path)], check=True, capture_output=True, text=True).stdout
    assert json.loads(out) == []


def test_package_import_raises_the_malloc_mmap_threshold():
    # obslab's import frees one 1 MiB block so that glibc serves blocks up to
    # that size from its heap and keeps its top; without it a rate run
    # re-faults about 740 heap pages.  A 768 KiB block must not be mmapped.
    if not hasattr(ctypes.CDLL(None), "mallinfo2"):
        pytest.skip("needs glibc's mallinfo2")
    code = textwrap.dedent("""
        import ctypes, sys
        sys.path.insert(0, sys.argv[1])
        import numpy as np
        import obslab

        class Info(ctypes.Structure):
            _fields_ = [(name, ctypes.c_size_t) for name in (
                "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks",
                "fsmblks", "uordblks", "fordblks", "keepcost")]

        libc = ctypes.CDLL(None)
        libc.mallinfo2.restype = Info
        before = libc.mallinfo2().hblks
        block = np.empty(3 << 15)
        print(libc.mallinfo2().hblks - before)
    """)
    out = subprocess.run([sys.executable, "-c", code, str(REPO / "src")],
                         check=True, capture_output=True, text=True).stdout
    assert out.strip() == "0"
