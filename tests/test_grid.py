"""Grid containers, difference stencils, norms, CSV round-trips, and
read-off at off-grid points."""
import csv
import dataclasses
import re
import tracemalloc

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

from obslab.bsde import PathEnsemble
from obslab.families import make_problem
from obslab.grid import (Bracket, Field, Grid, GridMismatchError, Trajectory,
                         gradient_array, h_norm_array, ht_distance,
                         laplacian_array, time_mesh, v_norm_sq_array)
from obslab.skeleton import Control, solve_skeleton

from conftest import zero


def observed_order(errors, factors=2.0):
    e = np.asarray(errors, dtype=float)
    return np.log(e[:-1] / e[1:]) / np.log(factors)


class TestGrid:
    def test_spacing_and_nodes(self):
        g = Grid(-4.0, 4.0, 201)
        assert g.h == pytest.approx(0.04)
        assert g.x[0] == -4.0 and g.x[-1] == 4.0
        assert len(g.x) == 201

    def test_nodes_built_once_and_read_only(self):
        g = Grid(-4.0, 4.0, 201)
        assert np.array_equal(g.x, np.linspace(-4.0, 4.0, 201))
        assert g.x is g.x
        assert not g.x.flags.writeable
        with pytest.raises(ValueError):
            g.x[0] = 0.0
        # equality and hashing read the three defining fields only
        twin = Grid(-4.0, 4.0, 201)
        assert twin == g and hash(twin) == hash(g) and twin.x is not g.x
        assert Grid(-4.0, 4.0, 101) != g

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Grid(1.0, -1.0, 11)
        with pytest.raises(ValueError):
            Grid(-1.0, 1.0, 1)


def _control_on(horizon, n_steps=4):
    return Control(horizon, np.zeros((n_steps, 1)))


def _trajectory_on(horizon, n_steps=4):
    grid = Grid(-1.0, 1.0, 5)
    return Trajectory(horizon, np.zeros((n_steps + 1, grid.n_nodes)), grid)


def _ensemble_on(horizon, n_steps=4):
    grid = Grid(-1.0, 1.0, 5)
    return PathEnsemble(np.zeros((3, n_steps + 1)),
                        np.ones((3, n_steps + 1), dtype=bool), horizon, grid)


HOLDERS = pytest.mark.parametrize(
    "build", [_control_on, _trajectory_on, _ensemble_on],
    ids=["control", "trajectory", "ensemble"])


class TestArrayHolderEquality:
    @pytest.mark.parametrize("build", [
        lambda: _control_on(0.3), lambda: _trajectory_on(0.3),
        lambda: _ensemble_on(0.3),
        lambda: Field(np.zeros(5), Grid(-1.0, 1.0, 5))],
        ids=["control", "trajectory", "ensemble", "field"])
    def test_equality_is_identity(self, build):
        # they hold arrays, whose == has no single truth value
        a, b = build(), build()
        assert (a == b) is False and (a != b) is True
        assert (a == a) is True


class TestTimeMesh:
    @pytest.mark.parametrize("horizon, n_steps", [
        (1.0, 400), (0.3, 400), (0.5, 50), (1e-6, 3), (1e6, 7)])
    def test_nodes_are_the_linspace(self, horizon, n_steps):
        t = time_mesh(horizon, n_steps)
        assert np.array_equal(t.view(np.int64), np.linspace(
            0.0, horizon, n_steps + 1).view(np.int64))
        assert not t.flags.writeable
        assert t[-1] == horizon and t[1] - t[0] == horizon / n_steps

    @pytest.mark.parametrize("horizon", [
        np.linspace(0.0, 1.0, 5), [1.0], 0.0, -1.0, np.inf, np.nan],
        ids=["array", "list", "zero", "negative", "inf", "nan"])
    def test_bad_horizon_rejected(self, horizon):
        with pytest.raises(ValueError, match="^the horizon must be a "
                                             "positive finite scalar"):
            time_mesh(horizon, 4)

    def test_no_step_rejected(self):
        with pytest.raises(ValueError, match="at least one step, not 0"):
            time_mesh(1.0, 0)

    @HOLDERS
    def test_stale_times_array_rejected_alike(self, build):
        # a caller that still passes the nodes fails on the horizon check
        with pytest.raises(ValueError, match="^the horizon must be a "
                                             "positive finite scalar"):
            build(np.linspace(0.0, 1.0, 5))

    @HOLDERS
    def test_rows_without_a_step_rejected_alike(self, build):
        with pytest.raises(ValueError, match="at least one step, not 0"):
            build(1.0, n_steps=0)

    @HOLDERS
    def test_times_held_as_a_read_only_copy(self, build):
        obj = build(0.3)
        assert obj.n_steps == 4 and obj.dt == 0.3 / 4
        assert np.array_equal(obj.times, time_mesh(0.3, 4))
        assert obj.times is obj.times and not obj.times.flags.writeable
        # built by each object from (horizon, n_steps), never passed in, so
        # no caller holds them
        assert build(0.3).times is not obj.times
        assert [f.name for f in dataclasses.fields(obj)
                if f.name == "times" and not f.init] == ["times"]


class TestStencils:
    def test_laplacian_cubic_order_two(self):
        # For f(x) = x^3 the second derivative 6x is cubic-exact in the
        # interior of the stencil; probe a non-polynomial for the order.
        errs = []
        for n in (101, 201, 401):
            g = Grid(-4.0, 4.0, n)
            v = np.sin(g.x)
            lap = laplacian_array(v, g.h)
            errs.append(np.max(np.abs(lap[1:-1] + np.sin(g.x)[1:-1])))
        assert np.all(observed_order(errs) >= 1.9)

    def test_laplacian_cubic_interior_exact(self):
        g = Grid(-4.0, 4.0, 101)
        lap = laplacian_array(g.x**3, g.h)
        assert np.allclose(lap[1:-1], 6.0 * g.x[1:-1], atol=1e-9)

    def test_gradient_sine_order_two(self):
        errs = []
        for n in (101, 201, 401):
            g = Grid(-4.0, 4.0, n)
            v = np.sin(2.0 * np.pi * g.x)
            grad = gradient_array(v, g.h)
            ref = 2.0 * np.pi * np.cos(2.0 * np.pi * g.x)
            errs.append(np.max(np.abs(grad[1:-1] - ref[1:-1])))
        assert np.all(observed_order(errs) >= 1.9)

    def test_batched_stencils_match_loops(self, rng):
        g = Grid(-2.0, 2.0, 51)
        batch = rng.standard_normal((7, 51))
        lap = laplacian_array(batch, g.h)
        grad = gradient_array(batch, g.h)
        for b in range(7):
            assert np.allclose(lap[b], laplacian_array(batch[b], g.h))
            assert np.allclose(grad[b], gradient_array(batch[b], g.h))


class TestNorms:
    def test_h_norm_constant(self):
        g = Grid(0.0, 1.0, 101)
        # rectangle rule with both endpoints: h * n_nodes = 1.01
        assert h_norm_array(np.ones(101), g.h) == pytest.approx(np.sqrt(1.01),
                                                                abs=1e-9)

    def test_v_norm_includes_gradient(self):
        g = Grid(0.0, 2.0 * np.pi, 2001)
        # integral of sin^2 + cos^2 over one period = 2*pi
        v_norm = np.sqrt(v_norm_sq_array(np.sin(g.x), g.h))
        assert v_norm == pytest.approx(np.sqrt(2.0 * np.pi), rel=1e-3)

    def test_ht_distance_zero_on_equal(self):
        g = Grid(-1.0, 1.0, 21)
        vals = np.outer(np.linspace(1, 2, 11), np.cos(g.x))
        t = Trajectory(1.0, vals, g)
        assert ht_distance(t, t) == 0.0

    def test_ht_distance_grid_mismatch(self):
        a = Trajectory(1.0, np.zeros((5, 11)), Grid(-1.0, 1.0, 11))
        b = Trajectory(1.0, np.zeros((5, 21)), Grid(-1.0, 1.0, 21))
        with pytest.raises(GridMismatchError):
            ht_distance(a, b)

    @pytest.mark.parametrize("horizon, n_steps", [(1.000005, 10), (1.0, 20)],
                             ids=["horizon", "steps"])
    def test_ht_distance_mesh_mismatch(self, horizon, n_steps):
        # a relative horizon gap of 5e-6 is a different mesh: no tolerance
        g = Grid(-1.0, 1.0, 21)
        a = Trajectory(1.0, np.outer(np.linspace(1, 2, 11), np.cos(g.x)), g)
        b = Trajectory(horizon, np.zeros((n_steps + 1, 21)), g)
        with pytest.raises(GridMismatchError, match="different time meshes"):
            ht_distance(a, b)


class TestCsvRoundTrip:
    def test_trajectory_round_trip(self, tmp_path, rng):
        g = Grid(-4.0, 4.0, 33)
        traj = Trajectory(0.5, rng.standard_normal((9, 33)), g)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        back = Trajectory.from_csv(path)
        assert back.horizon == traj.horizon
        assert np.allclose(back.values, traj.values)
        assert back.grid == traj.grid

    @pytest.mark.parametrize("node, value", [(1, "0.12500000000000003"),
                                              (2, "0.3"), (0, "0.1")],
                             ids=["ulp", "non_uniform", "late_start"])
    def test_t_column_off_the_mesh_rejected(self, tmp_path, node, value):
        # the t column must be exactly time_mesh(t[-1], n), node for node
        path = tmp_path / "traj.csv"
        Trajectory(0.5, np.zeros((5, 3)), Grid(-1.0, 1.0, 3)).to_csv(path)
        lines = path.read_bytes().split(b"\r\n")
        row = lines[node + 1].split(b",")
        row[0] = value.encode()
        lines[node + 1] = b",".join(row)
        path.write_bytes(b"\r\n".join(lines))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: the "
                                             f"t column is not the uniform "
                                             f"mesh of 4 steps"):
            Trajectory.from_csv(path)

    @pytest.mark.parametrize("n_rows", [0, 1], ids=["header_only",
                                                     "one_time_row"])
    def test_file_without_two_time_rows_rejected(self, tmp_path, n_rows):
        # cut from a written file: the header and n_rows time rows
        path = tmp_path / "traj.csv"
        Trajectory(0.5, np.zeros((5, 3)), Grid(-1.0, 1.0, 3)).to_csv(path)
        lines = path.read_bytes().split(b"\r\n")
        path.write_bytes(b"\r\n".join(lines[:1 + n_rows] + [b""]))
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*"
                                             f"at least two time rows, "
                                             f"not {n_rows}$"):
            Trajectory.from_csv(path)

    def test_csv_contract_on_edge_values(self, tmp_path):
        g = Grid(-1.0, 1.0, 5)
        values = np.array([[-0.0, 5e-324, 1e16, 1.0, 0.1 + 0.2],
                           [1e-300, -1e300, 2.5, -7.0, 3.0],
                           [0.0, -5e-324, -1e16, 1.0 / 3.0, 1e-5],
                           [123456789.125, -0.5, 0.1, 0.2, 0.3]])
        assert_csv_contract(Trajectory(0.3, values, g), tmp_path)

    # values at the edges of each float spelling: exponent and positional
    # forms, the decade [1e-5, 1e-4), subnormals and signed zero
    PLANTED = [1e-5, 1.23e-5, -9.99e-5, 1e-4, 1.5e-7, 1e-9, 1e15, 1e16, 1.5e16,
               5e-324, -0.0, 10.00001, 100.00005]

    @settings(max_examples=200, deadline=None)
    @given(drawn=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                          max_size=60),
           planted=st.permutations(PLANTED),
           n_nodes=st.integers(3, 9),
           horizon=st.floats(1e-6, 1e6),
           x_min=st.floats(-1e6, 1e6), width=st.floats(1e-3, 1e6))
    def test_csv_contract_on_drawn_floats(self, tmp_path_factory, drawn,
                                          planted, n_nodes, horizon, x_min,
                                          width):
        flat = np.array(planted + drawn)
        n_times = max(2, -(-len(flat) // n_nodes))
        traj = Trajectory(horizon, np.resize(flat, (n_times, n_nodes)),
                          Grid(x_min, x_min + width, n_nodes))
        assert_csv_contract(traj, tmp_path_factory.mktemp("csv"))

    def test_csv_contract_on_a_skeleton(self, tmp_path):
        problem = make_problem("quasilinear_full", n_nodes=401)
        traj = solve_skeleton(problem, zero(problem, 400)).traj
        assert_csv_contract(traj, tmp_path)

    @staticmethod
    def _table(rng):
        """401 time nodes of 401 grid nodes, standard normal values."""
        return Trajectory(1.0, rng.standard_normal((401, 401)),
                          Grid(-4.0, 4.0, 401))

    def test_rows_spelled_as_one_dump_of_the_table(self, tmp_path, rng):
        traj = self._table(rng)
        opt = orjson.OPT_SERIALIZE_NUMPY
        table = orjson.dumps(np.column_stack((traj.times, traj.values)),
                             option=opt)
        traj.to_csv(tmp_path / "traj.csv")
        assert (tmp_path / "traj.csv").read_bytes() == \
            b"t," + orjson.dumps(traj.grid.x, option=opt)[1:-1] + b"\r\n" \
            + table[2:-2].replace(b"],[", b"\r\n") + b"\r\n"

    def test_traced_peak_of_a_401_by_401_write(self, tmp_path, rng):
        # a row at a time: no copy or spelling of the whole table (1.3 MB
        # of doubles, 3.5 MB of text) is held
        traj = self._table(rng)
        tracemalloc.start()
        try:
            traj.to_csv(tmp_path / "traj.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / 1e6 < 1.0


def assert_csv_contract(traj: Trajectory, directory) -> None:
    """`to_csv` writes a header row and one row per time node, CRLF-ended,
    that `csv.reader` splits into n_nodes + 1 cells each, and `from_csv`
    reads back the same grid and the times and values bit for bit."""
    path = directory / "traj.csv"
    traj.to_csv(path)
    raw = path.read_bytes()
    n_times, n_nodes = traj.values.shape
    assert raw.startswith(b"t,")
    lines = raw.split(b"\r\n")
    assert lines[-1] == b"" and len(lines) == n_times + 2
    assert not any(b"\r" in ln or b"\n" in ln for ln in lines)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [len(r) for r in rows] == [n_nodes + 1] * (n_times + 1)
    back = Trajectory.from_csv(path)
    assert back.grid == traj.grid
    assert np.array_equal(back.times.view(np.int64), traj.times.view(np.int64))
    assert np.array_equal(back.values.view(np.int64),
                          traj.values.view(np.int64))


class TestBracket:
    @pytest.mark.parametrize("n_nodes", [3, 51, 401])
    def test_reads_equal_np_interp_bit_for_bit(self, n_nodes, rng):
        x = Grid(-4.0, 4.0, n_nodes).x
        w = np.concatenate([rng.uniform(-4.0, 4.0, 20000), x,
                            np.nextafter(x[1:], -np.inf),
                            np.nextafter(x[:-1], np.inf), [-4.0, 4.0]])
        at = Bracket(x, w)
        signed_zeros = np.where(rng.random(n_nodes) < 0.5, -0.0, 0.0)
        for fp in (rng.standard_normal(n_nodes), np.sin(x) * 1e-300,
                   signed_zeros):
            want = np.interp(w, x, fp)
            assert np.array_equal(at.read(fp).view(np.int64),
                                  want.view(np.int64))

    def test_block_rows_read_their_table_rows(self, rng):
        # a (rows, points) block against a (rows, n_nodes) table: row r of
        # the points reads row r of the table, as np.interp would
        x = Grid(-4.0, 4.0, 51).x
        w = rng.uniform(-4.0, 4.0, (5, 300))
        w[:, :3] = [-4.0, 4.0, x[7]]
        table = rng.standard_normal((5, 51))
        table[2] = np.where(rng.random(51) < 0.5, -0.0, 0.0)
        got = Bracket(x, w).read(table)
        want = np.array([np.interp(wr, x, fr) for wr, fr in zip(w, table)])
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("outside", [-4.0 - 1e-12, 4.0 + 1e-12, np.nan])
    def test_point_outside_the_box_raises(self, outside):
        x = Grid(-4.0, 4.0, 51).x
        with pytest.raises(ValueError, match="outside the box"):
            Bracket(x, np.array([0.0, outside]))
