"""Problem construction and a-priori validation checks."""
import dataclasses

import numpy as np
import pytest

from obslab.families import FAMILY_NAMES, linear_additive, make_problem
from obslab.grid import Grid
from obslab.problem import CoefficientSet, LipschitzInfo, ProblemSpec, validate


def _zeros(t, x, y, z):
    return np.zeros_like(np.asarray(x, dtype=float))


def _zero_obstacle(t, x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _basic_problem(**kw):
    grid = Grid(-4.0, 4.0, 101)
    coeffs = CoefficientSet(
        f=kw.get("f", _zeros), g=kw.get("g", _zeros),
        h_shape=kw.get("h_shape", _zeros),
        mode_weights=kw.get("mode_weights", np.array([1.0])),
        lipschitz=kw.get("lipschitz",
                         LipschitzInfo(c_f=0.0, c_h=0.0, c_g=0.0,
                                       alpha=1e-6, beta=1e-6)),
        hbar=kw.get("hbar",
                    lambda x: np.zeros_like(np.asarray(x, dtype=float))),
    )
    terminal = kw.get("terminal", lambda x: np.exp(-np.asarray(x, float)**2))
    return ProblemSpec(coeffs, kw.get("obstacle", _zero_obstacle),
                       terminal, 0.5, grid, name="test")


class TestFamilies:
    @pytest.mark.parametrize("family", ["heat_obstacle", "linear_additive",
                                        "quasilinear_full"])
    def test_bundled_families_validate(self, family):
        report = validate(make_problem(family))
        assert report.passed, report.summary()

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError):
            make_problem("no_such_family")

    def test_family_overrides(self):
        p = make_problem("linear_additive", n_nodes=51)
        assert p.grid.n_nodes == 51


class TestValidation:
    def test_basic_problem_passes(self):
        assert validate(_basic_problem()).passed

    def test_contraction_violation_flagged(self):
        bad = _basic_problem(
            lipschitz=LipschitzInfo(c_f=0.0, c_h=0.0, c_g=0.0,
                                    alpha=0.4, beta=0.8))
        report = validate(bad)
        assert not report.check("contraction").passed

    def test_understated_lipschitz_constant_flagged(self):
        # f is 1-Lipschitz in y but the declaration claims much less.
        def f(t, x, y, z):
            return np.tanh(np.asarray(y, dtype=float) * 3.0)

        bad = _basic_problem(
            f=f, lipschitz=LipschitzInfo(c_f=0.05, c_h=0.0, c_g=0.0,
                                         alpha=1e-6, beta=1e-6))
        report = validate(bad)
        assert not report.passed
        failing = [c.name for c in report.checks if not c.passed]
        assert any("lipschitz" in n for n in failing)

    def test_terminal_compatibility_flagged(self):
        # obstacle above the terminal datum at the horizon
        bad = _basic_problem(
            obstacle=lambda t, x: np.ones_like(np.asarray(x, dtype=float)),
            terminal=lambda x: np.zeros_like(np.asarray(x, dtype=float)))
        report = validate(bad)
        assert not report.check("terminal_compatibility").passed

    def test_noise_envelope_violation_flagged(self):
        def h_shape(t, x, y, z):
            return np.full_like(np.asarray(x, dtype=float), 2.0)

        bad = _basic_problem(
            h_shape=h_shape,
            hbar=lambda x: np.full_like(np.asarray(x, dtype=float), 0.5))
        report = validate(bad)
        assert not report.check("hbar_envelope").passed

    @pytest.mark.parametrize("family", ["heat_obstacle", "linear_additive"])
    def test_state_free_declaration_checked(self, family):
        check = validate(make_problem(family)).check("state_free")
        assert check.passed and check.margin == 0.0

    def test_false_state_free_declaration_flagged(self):
        # f moves in y (within its declared constant), yet the set claims
        # to ignore the state
        base = linear_additive()
        co = dataclasses.replace(
            base.coefficients,
            f=lambda t, x, y, z: 0.1 * np.tanh(np.asarray(y, dtype=float)),
            lipschitz=LipschitzInfo(c_f=0.1, c_h=0.0, c_g=0.0,
                                    alpha=1e-6, beta=1e-6))
        report = validate(dataclasses.replace(base, coefficients=co))
        failing = [c.name for c in report.checks if not c.passed]
        assert failing == ["state_free"]
        assert "f_y" in report.check("state_free").detail

    def test_scalar_time_obstacle_flagged(self):
        # the march reads the barrier over a column of step times
        def obstacle(t, x):
            return np.zeros_like(np.asarray(x, dtype=float)) if t < 0.25 \
                else np.full_like(np.asarray(x, dtype=float), -1.0)

        report = validate(_basic_problem(obstacle=obstacle))
        failing = [c.name for c in report.checks if not c.passed]
        assert failing == ["finite_obstacle"]
        assert "does not broadcast over t" in \
            report.check("finite_obstacle").detail

    def test_non_finite_obstacle_flagged(self):
        bad = _basic_problem(
            obstacle=lambda t, x: np.where(t > 0.4, np.nan, 0.0 * x))
        check = validate(bad).check("finite_obstacle")
        assert not check.passed and "non-finite at probe" in check.detail

    def test_undeclared_state_free_not_checked(self):
        with pytest.raises(KeyError):
            validate(_basic_problem()).check("state_free")

    def test_mode_weights_over_unit_ball_rejected(self):
        with pytest.raises(ValueError):
            _basic_problem(mode_weights=np.array([1.0, 0.5]))


class TestEvaluation:
    def test_terminal_field_zeroes_boundaries(self, linear_problem):
        phi = linear_problem.terminal_field()
        assert phi.values[0] == 0.0 and phi.values[-1] == 0.0

    def test_obstacle_values_vectorized(self, heat_problem):
        vals = heat_problem.obstacle_values(0.3)
        assert vals.shape == heat_problem.grid.x.shape
        assert np.all(vals == 0.0)
        # one call over a column of times gives the per-time rows bit for
        # bit, heat_obstacle's carved terminal slice at t = T included
        for family in FAMILY_NAMES:
            prob = make_problem(family, n_nodes=51)
            times = np.linspace(0.0, prob.horizon, 9)
            table = prob.obstacle_values(times[:, None])
            assert table.shape == (9, 51)
            assert np.array_equal(
                table, np.array([prob.obstacle_values(t) for t in times]))
            if family == "heat_obstacle":
                assert np.all(table[:-1] == 0.0) and table[-1].min() < 0.0
