"""Grid containers, difference stencils, norms, CSV round-trips, and
read-off at off-grid points."""
import csv
import tracemalloc

import numpy as np
import orjson
import pytest
from hypothesis import given, settings, strategies as st

from obslab.families import make_problem
from obslab.grid import (Bracket, Grid, GridMismatchError, Trajectory,
                         gradient_array, h_norm_array, ht_distance,
                         laplacian_array, v_norm_sq_array)
from obslab.skeleton import solve_skeleton


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
        times = np.linspace(0.0, 1.0, 11)
        vals = np.outer(np.linspace(1, 2, 11), np.cos(g.x))
        t = Trajectory(times, vals, g)
        assert ht_distance(t, t) == 0.0

    def test_ht_distance_grid_mismatch(self):
        times = np.linspace(0.0, 1.0, 5)
        a = Trajectory(times, np.zeros((5, 11)), Grid(-1.0, 1.0, 11))
        b = Trajectory(times, np.zeros((5, 21)), Grid(-1.0, 1.0, 21))
        with pytest.raises(GridMismatchError):
            ht_distance(a, b)


class TestCsvRoundTrip:
    def test_trajectory_round_trip(self, tmp_path, rng):
        g = Grid(-4.0, 4.0, 33)
        times = np.linspace(0.0, 0.5, 9)
        traj = Trajectory(times, rng.standard_normal((9, 33)), g)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        back = Trajectory.from_csv(path)
        assert np.allclose(back.times, traj.times)
        assert np.allclose(back.values, traj.values)
        assert back.grid == traj.grid

    def test_csv_contract_on_edge_values(self, tmp_path):
        g = Grid(-1.0, 1.0, 5)
        times = np.linspace(0.0, 0.3, 4)
        values = np.array([[-0.0, 5e-324, 1e16, 1.0, 0.1 + 0.2],
                           [1e-300, -1e300, 2.5, -7.0, 3.0],
                           [0.0, -5e-324, -1e16, 1.0 / 3.0, 1e-5],
                           [123456789.125, -0.5, 0.1, 0.2, 0.3]])
        assert_csv_contract(Trajectory(times, values, g), tmp_path)

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
        traj = Trajectory(np.linspace(0.0, horizon, n_times),
                          np.resize(flat, (n_times, n_nodes)),
                          Grid(x_min, x_min + width, n_nodes))
        assert_csv_contract(traj, tmp_path_factory.mktemp("csv"))

    def test_csv_contract_on_a_skeleton(self, tmp_path):
        problem = make_problem("quasilinear_full", n_nodes=401)
        traj = solve_skeleton(problem, n_steps=400).traj
        assert_csv_contract(traj, tmp_path)

    @staticmethod
    def _table(rng):
        """401 time nodes of 401 grid nodes, standard normal values."""
        return Trajectory(np.linspace(0.0, 1.0, 401),
                          rng.standard_normal((401, 401)),
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
