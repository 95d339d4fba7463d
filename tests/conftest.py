import numpy as np
import pytest

from obslab.families import heat_obstacle, linear_additive, quasilinear_full
from obslab.skeleton import zero_control


def zero(problem, n_steps):
    """The zero control on `n_steps` steps of `problem`'s horizon: plain
    noise, and the uncontrolled solve."""
    return zero_control(n_steps, problem.coefficients.n_modes,
                        problem.horizon)


@pytest.fixture(scope="session")
def heat_problem():
    return heat_obstacle()


@pytest.fixture(scope="session")
def linear_problem():
    return linear_additive()


@pytest.fixture(scope="session")
def quasilinear_problem():
    return quasilinear_full()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260826)


def pytest_terminal_summary(terminalreporter):
    try:
        from test_acceptance import RESULTS
    except ImportError:
        return
    if not RESULTS:
        return
    tw = terminalreporter
    tw.section("acceptance criteria")
    for num, label, ok, detail in sorted(RESULTS):
        status = "PASS" if ok else "FAIL"
        tw.write_line(f"criterion {num:2d} [{status}] {label}: {detail}")
