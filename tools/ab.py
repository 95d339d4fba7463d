"""Paired before/after timings of two checkouts: the BENCH_<group>.json files.

    python3 tools/ab.py --before OLD [GROUP ...]

OLD is the root of another checkout (default: this one, which makes an A/A
run).  The GROUPs are `rate`, `readoff`, `step` and `e2e`
(default: all); tools/ab_cases.py holds their cases and their round and
repeat counts.
Each group's result goes to BENCH_<group>.json at the root of this
checkout, and one line per case and metric to standard output.

Both trees are copied, without their dot-directories, into one temporary
directory and timed there, so the two sides differ only in their files: on
identical code, a pool stream run from the working checkout's own
directory measured 4-8 % slower than the same files copied elsewhere.
Each round runs every case of the group once on each tree, each side in a
fresh interpreter with its own tree first on the path.  The side that runs
first alternates from round to round (before, after; after, before; ...,
ABBA), so a drift in host speed falls on both sides alike.  Per case and
metric the result holds:

* each side's median and interquartile range (IQR) over rounds;
* the paired ratio after / before of each round, with its median and IQR;
* the rounds each side won (lower is better; a tie counts for neither).

A side whose case setup cannot import what it needs is reported absent,
and the case gets no ratio.  A side that exits nonzero, prints no result,
or (end to end) prints "correct": false is listed under "failed" with its
round; that round gets no ratio, and the other side's run still counts
for its own median.  The machine record is the one perfbench/run.py prints,
plus the BLAS thread variables the caller set.  Each side's tree record
names its commit (`git describe`, null outside a git checkout) and the
sha256 of the copied tree's src/ and perfbench/ files, which names the
code that was timed even when the checkout is dirty or an export.

Every timed interpreter runs single-threaded BLAS unless the caller sets
the thread variables (OPENBLAS_NUM_THREADS, OMP_NUM_THREADS,
MKL_NUM_THREADS); a variable left unset is set to 1, and each is capped at
the usable cores.  On a 2-core host, `rate` read `wall_s` 0.149 s and
`setup_s` 0.97 s with OpenBLAS's default threads, and 0.028 s and 0.62 s
single-threaded, the figures the benchmark's own runs read.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from ab_cases import groups

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("before", "after")
TIMEOUT_S = 900
# what a side's copy leaves out of its tree, and so out of its code digest
COPY_IGNORE = shutil.ignore_patterns(".*", "__pycache__")


def order(rnd: int) -> tuple:
    """The sides in the order round `rnd` runs them: ABBA."""
    return SIDES if rnd % 2 == 0 else SIDES[::-1]


def record(returncode: int, stdout: str, stderr: str) -> dict:
    """One side's outcome from its process: {"metrics": {name: value}},
    {"absent": why} or {"failed": why}."""
    lines = stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if returncode == 0 and lines else None
    except ValueError:
        out = None
    if not isinstance(out, dict):
        return {"failed": f"exit {returncode}: {stderr.strip()[-400:]}"}
    if "absent" in out:
        return {"absent": out["absent"]}
    if out.get("correct") is False:
        return {"failed": "correct: false: " + stderr.strip()[-400:]}
    return {"metrics": {k: v["value"] if isinstance(v, dict) else v
                        for k, v in out["metrics"].items()}}


def measure(case, tree: Path, rnd: int) -> dict:
    try:
        proc = subprocess.run(case.command(tree, rnd), cwd=tree, text=True,
                              capture_output=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failed": f"no result in {TIMEOUT_S} s"}
    return record(proc.returncode, proc.stdout, proc.stderr)


def run_group(cases: dict, rounds: int, trees: dict, measure=measure) -> dict:
    """{case name: [{side: record} per round]}, each round in ABBA order."""
    runs = {name: [] for name in cases}
    for rnd in range(rounds):
        for name, case in cases.items():
            runs[name].append({side: measure(case, trees[side], rnd)
                               for side in order(rnd)})
    return runs


def spread(values: list) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "iqr": [float(q1), float(q3)]}


def summarize(rounds: list) -> dict:
    """The paired statistics of one case's rounds ({side: record} each)."""
    out = {}
    absent = {side: rec["absent"] for r in rounds
              for side, rec in r.items() if "absent" in rec}
    failed = [{"round": i, "side": side, "error": rec["failed"]}
              for i, r in enumerate(rounds)
              for side, rec in r.items() if "failed" in rec]
    if absent:
        out["absent"] = absent
    if failed:
        out["failed"] = failed
    measured = {side: [r[side]["metrics"] for r in rounds
                       if "metrics" in r[side]] for side in SIDES}
    pairs = [(r["before"]["metrics"], r["after"]["metrics"]) for r in rounds
             if all("metrics" in r[side] for side in SIDES)]
    out.update(pairs=len(pairs), metrics={})
    names = dict.fromkeys(k for side in SIDES for m in measured[side]
                          for k in m)
    for name in names:
        entry = {side: spread([m[name] for m in measured[side]])
                 for side in SIDES if measured[side]}
        if pairs:
            ratios = [a[name] / b[name] for b, a in pairs]
            entry["ratio"] = dict(spread(ratios), rounds=ratios)
            entry["wins"] = {"after": sum(a[name] < b[name] for b, a in pairs),
                             "before": sum(b[name] < a[name]
                                           for b, a in pairs)}
        out["metrics"][name] = entry
    return out


def describe(tree: Path):
    """The tree's commit, marked -dirty if it has uncommitted changes."""
    proc = subprocess.run(["git", "-C", str(tree), "describe", "--always",
                           "--dirty"], capture_output=True, text=True)
    return proc.stdout.strip() or None


def code_digest(tree: Path) -> str:
    """sha256 over the files under a copied tree's src/ and perfbench/, in
    sorted order of their paths relative to the tree: each path, a NUL,
    the file's byte count, a NUL, then its bytes."""
    files = [path.relative_to(tree).as_posix()
             for sub in ("src", "perfbench")
             for path in (tree / sub).rglob("*") if path.is_file()]
    digest = hashlib.sha256()
    for rel in sorted(files):
        data = (tree / rel).read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def line(name: str, metric: str, entry: dict) -> str:
    text = f"{name} {metric}:"
    for side in SIDES:
        s = entry.get(side)
        text += (f" {side} {s['median']:.4g} [{s['iqr'][0]:.4g}, "
                 f"{s['iqr'][1]:.4g}]" if s else f" {side} absent")
    if "ratio" in entry:
        r, w = entry["ratio"], entry["wins"]
        text += (f" ratio {r['median']:.3f} [{r['iqr'][0]:.3f}, "
                 f"{r['iqr'][1]:.3f}] wins after {w['after']} "
                 f"before {w['before']}")
    return text


def run_and_write(group: str, rounds: int, cases: dict, trees: dict,
                  timed: dict, machine: dict) -> None:
    """Run one group, print a line per case and metric, and write its
    BENCH_<group>.json."""
    runs = run_group(cases, rounds, trees)
    result = {"group": group, "rounds": rounds, "order": "ABBA",
              "statistic": "per round: median over repeats; per case: "
                           "median and IQR over rounds",
              "trees": timed, "machine": machine, "cases": {}}
    for name, case in cases.items():
        result["cases"][name] = dict(case.settings(), **summarize(runs[name]))
        for metric, entry in result["cases"][name]["metrics"].items():
            print(line(name, metric, entry), flush=True)
        for fail in result["cases"][name].get("failed", []):
            print(f"{name} FAILED {fail}", flush=True)
    (ROOT / f"BENCH_{group}.json").write_text(
        json.dumps(result, indent=2) + "\n")


def single_threaded(env: dict, names) -> list:
    """Set each thread variable of `names` that `env` lacks to 1; return the
    ones the caller set, sorted."""
    caller = sorted(name for name in names if name in env)
    for name in names:
        env.setdefault(name, "1")
    return caller


def main(argv=None) -> int:
    table = groups()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--before", type=Path, default=ROOT,
                    help="root of the checkout to time as 'before'")
    ap.add_argument("groups", nargs="*", metavar="GROUP",
                    help=f"case groups, of {sorted(table)} (default: all)")
    args = ap.parse_args(argv)
    unknown = sorted(set(args.groups) - set(table))
    if unknown:
        ap.error(f"unknown groups {unknown}")
    if not (args.before / "src" / "obslab").is_dir():
        ap.error(f"--before {args.before} is not the root of an obslab "
                 "checkout (no src/obslab)")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from run import BLAS_THREAD_VARS, cap_blas_threads, machine
    # every timed interpreter inherits the thread setting
    caller = single_threaded(os.environ, BLAS_THREAD_VARS)
    cap_blas_threads(os.environ)
    host = dict(machine(), blas_threads_set_by_caller=caller)
    sources = {"before": args.before.resolve(), "after": ROOT}
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        trees = {side: Path(shutil.copytree(
            sources[side], Path(tmp) / side, ignore=COPY_IGNORE))
            for side in SIDES}
        timed = {side: {"git_describe": describe(sources[side]),
                        "code_sha256": code_digest(trees[side])}
                 for side in SIDES}
        for group in args.groups or table:
            run_and_write(group, *table[group], trees, timed, host)
    return 0


if __name__ == "__main__":
    sys.exit(main())
