"""Command-line entry points for the experiment harness."""
import json
import logging
import os
import sys
from pathlib import Path

import click

from . import __version__
from .harness import EXPERIMENT_KINDS, ConfigError, compare_baseline, run


@click.group()
@click.version_option(__version__)
def main():
    """Obstacle-problem laboratory: run experiments, compare baselines."""


@main.command("run")
@click.argument("config_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--seed", type=int, default=None, help="Override the config seed.")
@click.option("--out-dir", type=click.Path(file_okay=False), default=None,
              help="Output directory (default: config out_dir under the "
                   "OBSLAB_OUT_ROOT root).")
@click.option("--log-level", default="WARNING", show_default=True,
              type=click.Choice(["DEBUG", "INFO", "WARNING", "ERROR"],
                                case_sensitive=False),
              help="Least severity of the package's log messages written to "
                   "standard error.")
def run_cmd(config_file, seed, out_dir, log_level):
    """Run the experiment described by CONFIG_FILE (exit status 0: it
    passed its check, 1: it failed it, 2: the config was rejected)."""
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("obslab").setLevel(log_level.upper())
    with open(config_file) as fh:
        config = json.load(fh)
    if seed is not None:
        config["seed"] = seed
    if out_dir is None:
        root = Path(os.environ.get("OBSLAB_OUT_ROOT", "results"))
        out_dir = root / config.get("out_dir", Path(config_file).stem)
    try:
        report = run(config, out_dir)
    except ConfigError as exc:
        click.echo(f"config rejected: {exc}", err=True)
        sys.exit(2)
    click.echo(f"{config['experiment']}: "
               f"{'PASS' if report['passed'] else 'FAIL'}  -> {out_dir}")
    sys.exit(0 if report["passed"] else 1)


@main.command("compare")
@click.argument("report_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("baseline_file", type=click.Path(exists=True, dir_okay=False))
def compare_cmd(report_file, baseline_file):
    """Compare a run report against a stored baseline."""
    with open(report_file) as fh:
        report = json.load(fh)
    with open(baseline_file) as fh:
        baseline = json.load(fh)
    result = compare_baseline(report, baseline)
    for miss in result["mismatches"]:
        click.echo(f"mismatch: {miss}")
    click.echo("PASS" if result["passed"] else "FAIL")
    sys.exit(0 if result["passed"] else 1)


@main.command("list-experiments")
def list_cmd():
    """List the available experiment kinds."""
    for kind in EXPERIMENT_KINDS:
        click.echo(kind)


if __name__ == "__main__":
    main()
