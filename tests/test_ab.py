"""tools/ab.py: the paired before/after timer."""
import json
import shutil
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

import ab  # noqa: E402
import ab_cases  # noqa: E402
from ab_cases import CASES, Case, Workload  # noqa: E402


def metrics(**values):
    return {"metrics": values}


def test_sides_alternate_abba_over_rounds():
    calls = []

    def fake(case, tree, rnd):
        calls.append(tree)
        return metrics(s=1.0)

    trees = {"before": "A", "after": "B"}
    ab.run_group({"one": None, "two": None}, 4, trees, measure=fake)
    # per round, each case runs both sides back to back
    assert "".join(calls) == "AB" "AB" "BA" "BA" "AB" "AB" "BA" "BA"


def test_paired_ratio_median_iqr_and_wins_with_a_tie():
    before = [2.0, 2.0, 4.0, 1.0, 3.0]
    after = [1.0, 2.0, 2.0, 2.0, 1.5]      # round 1 is a tie
    rounds = [{"before": metrics(s=b), "after": metrics(s=a)}
              for b, a in zip(before, after)]
    out = ab.summarize(rounds)
    entry = out["metrics"]["s"]
    assert out["pairs"] == 5
    assert entry["ratio"]["rounds"] == [0.5, 1.0, 0.5, 2.0, 0.5]
    assert entry["ratio"]["median"] == 0.5
    assert entry["ratio"]["iqr"] == [0.5, 1.0]
    assert entry["wins"] == {"after": 3, "before": 1}
    assert entry["before"] == {"median": 2.0, "iqr": [2.0, 3.0]}
    assert entry["after"] == {"median": 2.0, "iqr": [1.5, 2.0]}


def test_case_absent_on_one_side_gets_no_ratio():
    rounds = [{"before": {"absent": "AttributeError: no _response_table"},
               "after": metrics(s=0.1)} for _ in range(2)]
    out = ab.summarize(rounds)
    assert out["absent"] == {"before": "AttributeError: no _response_table"}
    assert out["pairs"] == 0
    assert out["metrics"]["s"] == {"after": {"median": 0.1,
                                             "iqr": [0.1, 0.1]}}


@pytest.mark.parametrize("error", [ImportError, AttributeError])
def test_setup_that_cannot_import_reads_absent(monkeypatch, error):
    def setup():
        raise error("no_such_name")

    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setitem(CASES, "missing", Case("step", "missing", 1, setup))
    assert ab_cases.run_case(str(ROOT / "src"), "missing") == {
        "absent": f"{error.__name__}: no_such_name"}


@pytest.mark.parametrize("script, reason", [
    ("import sys; sys.exit(3)", "exit 3"),
    ("import json; print(json.dumps({'correct': False, 'metrics': "
     "{'wall_s': {'value': 1.0, 'unit': 's'}}}))", "correct: false"),
])
def test_failed_end_to_end_side_is_surfaced_not_ratioed_not_dropped(
        tmp_path, script, reason):
    ok = json.dumps({"correct": True, "metrics": {
        "wall_s": {"value": 2.0, "unit": "s"},
        "setup_s": {"value": 0.5, "unit": "s"}}})
    trees = {}
    for side, body in (("before", f"print({ok!r})"), ("after", script)):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(body + "\n")
        trees[side] = tmp_path / side
    runs = ab.run_group({"skeleton": Workload("skeleton", 15)}, 2, trees)
    out = ab.summarize(runs["skeleton"])
    assert [(f["round"], f["side"]) for f in out["failed"]] == [
        (0, "after"), (1, "after")]
    assert all(f["error"].startswith(reason) for f in out["failed"])
    assert out["pairs"] == 0
    assert "ratio" not in out["metrics"]["wall_s"]
    # the side that ran keeps both of its rounds
    assert out["metrics"]["wall_s"]["before"]["median"] == 2.0
    assert out["metrics"]["setup_s"]["before"]["iqr"] == [0.5, 0.5]


def test_every_case_setup_builds_on_this_tree():
    # run_case reads a setup's ImportError or AttributeError as "absent",
    # so a case this tree broke would time nothing on either side; the
    # timed calls are not run
    failed = {}
    for name, case in CASES.items():
        try:
            assert callable(case.setup()), "the setup returned no call"
        except Exception as exc:
            failed[name] = f"{type(exc).__name__}: {exc}"
    assert failed == {}


def test_a_a_smoke_run_of_the_cheapest_case():
    name = "single_row_heat_obstacle"
    runs = ab.run_group({name: CASES[name]}, 1,
                        {"before": ROOT, "after": ROOT})
    out = ab.summarize(runs[name])
    assert out["pairs"] == 1 and "failed" not in out and "absent" not in out
    ratio = out["metrics"]["s"]["ratio"]["median"]
    assert 0.0 < ratio < float("inf")


def test_blas_threads_default_to_one_unless_the_caller_sets_them():
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {"OMP_NUM_THREADS": "2", "PATH": "/bin"}
    assert ab.single_threaded(env, names) == ["OMP_NUM_THREADS"]
    assert env == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2",
                   "MKL_NUM_THREADS": "1", "PATH": "/bin"}
    assert ab.single_threaded({}, names) == []


def test_star_case_times_the_bundled_runner_with_its_draw():
    cases = ab_cases.groups()["readoff"][1]
    assert {"star_check_10000x400", "sample_paths_10000x400"} <= set(cases)
    report, passed, _ = cases["star_check_10000x400"].setup()()
    assert passed and report["n_paths_used"] > 2


def test_bsde_case_times_the_bundled_runner_with_its_draw():
    case = ab_cases.groups()["readoff"][1]["bsde_check_3000x400"]
    report, passed, _ = case.setup()()
    assert passed and [lv["n_steps"] for lv in report["levels"]] == \
        [50, 100, 200, 400]


def test_rate_case_runs_on_this_tree():
    # the rate cases call the minimizer as this tree defines it
    out = CASES["bundled_50"].setup()()
    assert 0.0 < out["rate"] < float("inf") and out["iterates"] >= 1


def test_code_digest_names_the_timed_files(tmp_path):
    # copied as tools/ab.py copies a side; neither copy has a .git
    copies = [tmp_path / "one", tmp_path / "two"]
    for copy in copies:
        for sub in ("src", "perfbench"):
            shutil.copytree(ROOT / sub, copy / sub, ignore=ab.COPY_IGNORE)
    digest = ab.code_digest(copies[0])
    assert len(digest) == 64 and int(digest, 16) >= 0
    assert ab.code_digest(copies[1]) == digest
    edited = copies[1] / "src" / "obslab" / "__init__.py"
    data = bytearray(edited.read_bytes())
    data[0] ^= 1
    edited.write_bytes(bytes(data))
    assert ab.code_digest(copies[1]) != digest
