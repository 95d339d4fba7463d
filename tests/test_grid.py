"""Grid containers, difference stencils, norms, CSV round-trips, and
read-off at off-grid points."""
import csv

import numpy as np
import pytest

from obslab.grid import (Bracket, Grid, GridMismatchError, Trajectory,
                         gradient_array, h_norm_array, ht_distance,
                         laplacian_array, v_norm_sq_array)


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

    def test_bytes_match_csv_writer_and_round_trip_exactly(self, tmp_path):
        g = Grid(-1.0, 1.0, 5)
        times = np.linspace(0.0, 0.3, 4)
        values = np.array([[-0.0, 5e-324, 1e16, 1.0, 0.1 + 0.2],
                           [1e-300, -1e300, 2.5, -7.0, 3.0],
                           [0.0, -5e-324, -1e16, 1.0 / 3.0, 1e-5],
                           [123456789.125, -0.5, 0.1, 0.2, 0.3]])
        traj = Trajectory(times, values, g)
        path = tmp_path / "traj.csv"
        traj.to_csv(path)
        oracle = tmp_path / "oracle.csv"
        with open(oracle, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + [repr(float(x)) for x in g.x])
            for t, row in zip(times, values):
                w.writerow([repr(float(t))] + [repr(float(v)) for v in row])
        assert path.read_bytes() == oracle.read_bytes()
        back = Trajectory.from_csv(path)
        assert back.grid == g
        assert np.array_equal(back.times.view(np.int64), times.view(np.int64))
        assert np.array_equal(back.values.view(np.int64),
                              values.view(np.int64))


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

    @pytest.mark.parametrize("outside", [-4.0 - 1e-12, 4.0 + 1e-12, np.nan])
    def test_point_outside_the_box_raises(self, outside):
        x = Grid(-4.0, 4.0, 51).x
        with pytest.raises(ValueError, match="outside the box"):
            Bracket(x, np.array([0.0, outside]))
