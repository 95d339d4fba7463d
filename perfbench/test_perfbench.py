"""Tests of the benchmark's own arithmetic and failure accounting.

    python3 -m pytest perfbench
"""
import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from tracer import Probe, Span, Tracer, interval_union, self_times  # noqa: E402


class FakeClock:
    """perf_counter stand-in that advances only when work is done."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracer_mod.time, "perf_counter", fake)
    return fake


def test_interval_union_merges_overlaps_and_gaps():
    assert interval_union([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4.0
    assert interval_union([]) == 0.0
    assert interval_union([(3, 3)]) == 0.0


def test_self_time_with_overlapping_and_nested_children():
    spans = [
        Span("root", "a", 0.0, 10.0, -1, "r"),
        Span("A", "b", 1.0, 4.0, 0, "r"),
        Span("B", "b", 3.0, 6.0, 0, "r"),    # overlaps A
        Span("C", "b", 7.0, 8.0, 0, "r"),
        Span("D", "c", 2.0, 3.0, 1, "r"),    # nested in A
        Span("E", "c", 9.5, 11.0, 0, "r"),   # runs past its parent
    ]
    assert self_times(spans) == pytest.approx([3.5, 2.0, 3.0, 1.0, 1.0, 1.5])


def _fake_module(name, **attrs):
    mod = types.ModuleType(name)
    mod.__dict__.update(attrs)
    return mod


@pytest.fixture
def fakepkg(monkeypatch, clock):
    """solve_penalized -> march -> thomas_batch, march bound at two sites."""
    kernels = _fake_module("fakepkg.kernels")
    stepping = _fake_module("fakepkg.stepping")
    skeleton = _fake_module("fakepkg.skeleton")

    def thomas_batch(lower, diag, upper, rhs):
        clock.work(1.0)
        return rhs

    def march(problem, n_steps):
        clock.work(2.0)
        stepping.thomas_batch(None, None, None, np.zeros(4))
        stepping.thomas_batch(None, None, None, np.zeros(4))
        clock.work(1.0)

    def solve_penalized(problem):
        clock.work(0.5)
        skeleton.march(problem, 3)
        clock.work(0.5)

    kernels.thomas_batch = thomas_batch
    stepping.thomas_batch = thomas_batch
    stepping.march = march
    skeleton.march = march
    skeleton.solve_penalized = solve_penalized
    pkg = _fake_module("fakepkg", kernels=kernels, stepping=stepping,
                       skeleton=skeleton)
    for mod in (pkg, kernels, stepping, skeleton):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return pkg


CHAIN = (
    Probe("kernels.thomas_batch", "kernels",
          ("fakepkg.kernels:thomas_batch", "fakepkg.stepping:thomas_batch")),
    Probe("stepping.march", "stepping", ("fakepkg.stepping:march",)),
    Probe("skeleton.solve_penalized", "skeleton",
          ("fakepkg.skeleton:solve_penalized",)),
)


def test_chain_self_times_and_identity(fakepkg, clock):
    originals = (fakepkg.stepping.march, fakepkg.kernels.thomas_batch)
    tr = Tracer("fakepkg")
    tr.install(CHAIN)
    # every import site shares one wrapper, including sites found by scan
    assert fakepkg.skeleton.march is fakepkg.stepping.march
    assert fakepkg.skeleton.march is not originals[0]
    try:
        clock.work(0.25)            # outside any span
        fakepkg.skeleton.solve_penalized(None)
    finally:
        tr.restore()
    assert (fakepkg.stepping.march, fakepkg.kernels.thomas_batch) == originals
    assert fakepkg.skeleton.march is originals[0]

    names = [s.name for s in tr.spans]
    assert names == ["skeleton.solve_penalized", "stepping.march",
                     "kernels.thomas_batch", "kernels.thomas_batch"]
    assert self_times(tr.spans) == pytest.approx([1.0, 3.0, 1.0, 1.0])
    assert tr.counters["stepping.march.calls"] == 1
    assert tr.counters["kernels.thomas_batch.calls"] == 2

    wall = clock.now
    metrics, missing = layers.per_layer(tr, wall, wall, 0.0, 0)
    assert missing == []
    selfs = sum(metrics[f"{layer}.self_s"][0] for layer in layers.LAYERS)
    assert selfs + metrics["trace.unattributed_s"][0] == pytest.approx(wall)
    assert metrics["trace.unattributed_s"][0] == pytest.approx(0.25)
    assert metrics["stepping.self_s"][0] == pytest.approx(3.0)
    assert metrics["skeleton.self_s"][0] == pytest.approx(1.0)


def test_call_through_two_aliases_counts_once(monkeypatch, clock):
    def ht_distance():
        clock.work(1.0)

    grid = _fake_module("fakepkg.grid", ht_distance=ht_distance)
    harness = _fake_module("fakepkg.harness", ht_distance=ht_distance,
                           grid=grid)
    for mod in (grid, harness):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    tr = Tracer("fakepkg")
    tr.install([Probe("grid.ht_distance", "grid",
                      ("fakepkg.grid:ht_distance",
                       "fakepkg.harness:ht_distance"))])
    try:
        assert harness.ht_distance is grid.ht_distance
        harness.ht_distance()
        harness.grid.ht_distance()
    finally:
        tr.restore()
    assert harness.ht_distance is ht_distance and grid.ht_distance is ht_distance
    assert len(tr.spans) == 2
    assert tr.counters["grid.ht_distance.calls"] == 2


def test_errors_are_counted_and_reraised(clock):
    tr = Tracer("fakepkg")

    def boom():
        raise ValueError("bad input")

    wrapped = tr.wrap(Probe("problem.validate", "problem", ()), boom)
    with pytest.raises(ValueError):
        wrapped()
    assert tr.counters["problem.errors"] == 1
    assert tr._stack == []


def test_generator_spans_one_per_resumption(clock):
    tr = Tracer("fakepkg")

    def batches():
        for _ in range(3):
            clock.work(2.0)
            yield 1

    wrapped = tr.wrap(Probe("spde.sample_terminal_states", "spde", (),
                            generator=True), batches)
    assert list(wrapped()) == [1, 1, 1]
    assert tr.counters["spde.sample_terminal_states.yields"] == 3
    assert tr.counters["spde.sample_terminal_states.s"] == pytest.approx(6.0)


def test_gone_target_is_a_missing_metric_not_a_crash(fakepkg):
    del fakepkg.stepping.thomas_batch
    tr = Tracer("fakepkg")
    tr.install(CHAIN)
    tr.restore()
    assert tr.missing == {"kernels.thomas_batch":
                          ["fakepkg.stepping:thomas_batch"]}
    metrics, missing = layers.per_layer(tr, 1.0, 1.0, 0.0, 0)
    assert "kernels.flops" in missing and "kernels.flops" not in metrics
    assert "kernels.self_s" in metrics


def test_thomas_counts_for_a_hand_worked_shape():
    # 2 systems of 4 unknowns.  Per system 3 eliminations x 5 operations,
    # 1 division and 3 back-substitution rows x 3 operations = 25.
    assert layers.thomas_flops(2, 4) == 50
    # bands 3 x 4 doubles, rhs and solution 2 x 2 x 4 doubles: 28 x 8 bytes
    assert layers.thomas_bytes(2, 4) == 224
    c = {k: 0 for k in ("kernels.batch_s", "kernels.rows", "kernels.row_nodes",
                        "kernels.bytes", "kernels.flops")}
    layers._thomas(c, (None, None, None, np.zeros((2, 4))), {}, None, 0.5)
    assert c == {"kernels.batch_s": 0.5, "kernels.rows": 2,
                 "kernels.row_nodes": 8, "kernels.bytes": 224,
                 "kernels.flops": 50}


def test_march_stored_bytes_from_shapes():
    res = types.SimpleNamespace(final=np.zeros((3, 5)),
                                traj=np.zeros((3, 11, 5)),
                                density=np.zeros((3, 11, 5)))
    c = {k: 0 for k in ("stepping.marches_batched", "stepping.steps",
                        "stepping.row_steps", "stepping.row_node_steps",
                        "stepping.stored_bytes")}
    layers._march(c, (None, 10), {}, res, 0.0)
    assert c == {"stepping.marches_batched": 1, "stepping.steps": 10,
                 "stepping.row_steps": 30, "stepping.row_node_steps": 150,
                 "stepping.stored_bytes": 2 * 3 * 11 * 5 * 8}


class FakeHarness:
    """Writes a fixed report for every config, like `harness.run`."""

    def __init__(self, report, raise_for=()):
        self.report = report
        self.raise_for = raise_for

    def run(self, config, out_dir):
        if config["experiment"] in self.raise_for:
            raise RuntimeError("solver blew up")
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(json.dumps(self.report))
        (out / "manifest.json").write_text(json.dumps({"wall_time_s": 0.0}))
        return self.report


def _skeleton_case():
    case, = [c for c in workloads.generate("skeleton", 0, ROOT)
             if c.label == "skeleton_solve"]
    assert case.baseline is not None
    return case


def _good_report(baseline):
    report = {"experiment": baseline["experiment"]}
    for check in baseline["checks"]:
        report[check["path"]] = check["value"]
    return report


def test_wrong_report_makes_failed_fraction_nonzero(tmp_path):
    case = _skeleton_case()
    good = _good_report(case.baseline)
    ok = run.run_pass(FakeHarness(good), [case], tmp_path / "ok")
    assert ok.failed == {}

    wrong = dict(good, n_final=good["n_final"] * 2)
    bad = run.run_pass(FakeHarness(wrong), [case], tmp_path / "bad")
    assert list(bad.failed) == ["skeleton_solve"]
    assert "baseline mismatch" in bad.failed["skeleton_solve"][0]

    differs = run.run_pass(FakeHarness(good), [case], tmp_path / "ref",
                           references={"skeleton_solve": b"other bytes"})
    assert differs.failed == {"skeleton_solve":
                              ["report.json differs from the reference run"]}

    raised = run.run_pass(FakeHarness(good, ("skeleton_solve",)), [case],
                          tmp_path / "raise")
    assert raised.failed == {"skeleton_solve": ["raised an exception"]}


def test_pass_count_follows_seconds_not_speed(tmp_path):
    case = _skeleton_case()
    fast = FakeHarness(_good_report(case.baseline))
    gaps = []
    passes = run.timed_run(fast, [case], tmp_path, 3, gaps.append)
    assert len(passes) == 3 and gaps == [0, 1, 2, 3]
    assert workloads.n_passes("skeleton", 15) == 2
    assert workloads.n_passes("rate", 15) == 2
    assert workloads.n_passes("rare_event", 15) == 1
    for workload in workloads.WORKLOADS:
        labels = [c.label for c in workloads.generate(workload, 1, ROOT)]
        assert workloads.WARMUP[workload] in labels


def test_seed_makes_the_inputs():
    for workload in workloads.WORKLOADS:
        a = [c.config for c in workloads.generate(workload, 5, ROOT)]
        assert a == [c.config for c in workloads.generate(workload, 5, ROOT)]
        assert a != [c.config for c in workloads.generate(workload, 6, ROOT)]
    bundled = workloads.generate("rare_event", workloads.BUNDLED_SEED, ROOT)
    assert all(c.baseline is not None for c in bundled)


def test_benchmark_json_names_match_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(name, unit, better) for name, unit, better, *_ in layers.METRICS]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
