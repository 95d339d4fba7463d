"""Uniform 1-D spatial grid, grid functions, stencils and discrete norms.

`Field` and `Trajectory` carry values on a `Grid`; boundary nodes hold
homogeneous Dirichlet data (the unbounded domain is truncated to a box).
A time mesh is (horizon, n_steps), its nodes `time_mesh(horizon, n_steps)`;
two meshes are the same exactly when both numbers are.  The solvers march
raw arrays, so the stencils and norms act on arrays, batched over any
leading axes, and return new arrays.  `ht_distance` is the path-space
metric between two trajectories, a trajectory round-trips through CSV, and
a `Bracket` reads grid functions at off-grid points.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np
import orjson


class GridMismatchError(ValueError):
    """Operands live on different grids or time meshes."""


@dataclass(frozen=True)
class Grid:
    """Uniform nodes on [x_min, x_max] with zero-Dirichlet boundaries.

    `x`, the read-only node array, is built once; equality and hashing read
    the three defining fields only."""

    x_min: float
    x_max: float
    n_nodes: int
    x: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_nodes < 3:
            raise ValueError(f"n_nodes must be >= 3, got {self.n_nodes}")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        x = np.linspace(self.x_min, self.x_max, self.n_nodes)
        x.flags.writeable = False
        object.__setattr__(self, "x", x)

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_nodes - 1)


@dataclass(frozen=True, eq=False)
class Field:
    """A grid function: one real value per node; `==` is identity."""

    values: np.ndarray
    grid: Grid

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_nodes,):
            raise ValueError(f"values shape {v.shape} != ({self.grid.n_nodes},)")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite values")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def time_mesh(horizon: float, n_steps: int) -> np.ndarray:
    """The read-only nodes linspace(0, horizon, n_steps + 1), n_steps >= 1."""
    if np.ndim(horizon) or not (np.isfinite(horizon) and horizon > 0):
        raise ValueError("the horizon must be a positive finite scalar")
    if n_steps < 1:
        raise ValueError(f"a time mesh needs at least one step, not {n_steps}")
    t = np.linspace(0.0, horizon, n_steps + 1)
    t.flags.writeable = False
    return t


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A time-indexed family of fields on a common grid and uniform mesh.

    `values[i]` is the field at `times[i]`, of `time_mesh(horizon, n_steps)`.
    It holds arrays, so `==` is identity.
    """

    horizon: float
    values: np.ndarray  # (n_steps + 1, n_nodes)
    grid: Grid
    times: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 2 or v.shape[1] != self.grid.n_nodes:
            raise ValueError(f"values shape {v.shape} inconsistent with grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("trajectory contains non-finite values")
        v = v.copy(); v.flags.writeable = False
        object.__setattr__(self, "times", time_mesh(self.horizon, len(v) - 1))
        object.__setattr__(self, "values", v)

    @property
    def n_steps(self) -> int:
        return len(self.values) - 1

    @property
    def dt(self) -> float:
        return float(self.horizon / self.n_steps)

    # -- CSV round trip: header row of x-coordinates, one row per time node --

    def to_csv(self, path):
        """Header `t,x_0,...`, then `t_i,u_i0,...` per time node:
        comma-separated floats, CRLF line ends, no quoting.

        Each float is spelled as orjson spells it: Ryu's shortest round-trip
        digits (the digits `repr` picks), with orjson's exponent form
        (1e16, 1e-7) and positional form (0.0000123).  `from_csv`, or
        `float` on any cell, reads back the exact values; the bytes are a
        function of the values alone.

        The rows are written one at a time, each serialized from one
        reused row buffer, so no copy of the whole table is made."""
        opt = orjson.OPT_SERIALIZE_NUMPY
        row = np.empty(self.grid.n_nodes + 1)
        with open(path, "wb") as fh:
            fh.write(b"t," + orjson.dumps(self.grid.x, option=opt)[1:-1]
                     + b"\r\n")
            for t, values in zip(self.times, self.values):
                row[0] = t
                row[1:] = values
                fh.write(orjson.dumps(row, option=opt)[1:-1] + b"\r\n")

    @classmethod
    def from_csv(cls, path) -> "Trajectory":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) < 3:
            raise ValueError(f"{path}: a trajectory needs a header and at "
                             f"least two time rows, not "
                             f"{max(len(rows) - 1, 0)}")
        xs = np.array([float(v) for v in rows[0][1:]])
        times = np.array([float(r[0]) for r in rows[1:]])
        vals = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        grid = Grid(x_min=float(xs[0]), x_max=float(xs[-1]), n_nodes=len(xs))
        traj = cls(times[-1], vals, grid)
        if np.any(traj.times != times):
            raise ValueError(f"{path}: the t column is not the uniform mesh "
                             f"of {traj.n_steps} steps on [0, {times[-1]!r}]")
        return traj


# ---------------------------------------------------------------------------
# Stencils and norms on raw arrays, batched over any leading axes.
# ---------------------------------------------------------------------------

def laplacian_array(v: np.ndarray, h: float) -> np.ndarray:
    out = np.zeros_like(v)
    out[..., 1:-1] = (v[..., :-2] - 2.0 * v[..., 1:-1] + v[..., 2:]) / (h * h)
    return out


def gradient_array(v: np.ndarray, h: float) -> np.ndarray:
    out = np.empty_like(v, dtype=float)
    inner = out[..., 1:-1]
    np.subtract(v[..., 2:], v[..., :-2], out=inner)
    inner /= 2.0 * h
    out[..., 0] = (v[..., 1] - v[..., 0]) / h
    out[..., -1] = (v[..., -1] - v[..., -2]) / h
    return out


def h_norm_array(v: np.ndarray, h: float) -> np.ndarray:
    return np.sqrt(h * np.sum(v**2, axis=-1))


def v_norm_sq_array(v: np.ndarray, h: float) -> np.ndarray:
    g = gradient_array(v, h)
    return h * np.sum(v**2 + g**2, axis=-1)


def ht_distance(a: Trajectory, b: Trajectory) -> float:
    """Sup-in-time L2 distance plus the time-integrated Sobolev distance.

    This is the discrete metric of the path space in which all convergence
    statements of the package are phrased.
    """
    if a.grid != b.grid:
        raise GridMismatchError("trajectories live on different grids")
    if a.horizon != b.horizon or a.n_steps != b.n_steps:
        raise GridMismatchError("trajectories live on different time meshes")
    d = a.values - b.values
    sup = float(np.max(h_norm_array(d, a.grid.h)))
    integ = float(a.dt * np.sum(v_norm_sq_array(d, a.grid.h)))
    return sup + np.sqrt(integ)


class Bracket:
    """The grid interval of each point of a set, found once and read many
    times.

    For uniform nodes `x` and points `w` in [x[0], x[-1]], `j` holds
    x[j] <= w < x[j+1] (j = len(x) - 1 where w == x[-1]) and `dx` holds
    w - x[j].  `read(fp)` is then the piecewise-linear interpolant of the
    finite grid function fp at the points, equal bit for bit to
    `np.interp(w, x, fp)`: one index search serves every function read at
    the same points.  A (rows, points) block of points reads a (rows,
    len(x)) table, row r of the points against row r of the table.  A point
    outside the box (or NaN) raises ValueError; nothing is extrapolated.
    """

    def __init__(self, x: np.ndarray, w: np.ndarray):
        n = len(x)
        if w.size and not (x[0] <= w.min() and w.max() <= x[-1]):
            raise ValueError(f"points outside the box [{x[0]}, {x[-1]}]")
        h = (x[-1] - x[0]) / (n - 1)
        # The guess floor((w - x0)/h) is off by at most one node where w
        # lies within rounding of a node; one step each way settles it.
        j = np.minimum(((w - x[0]) / h).astype(np.intp), n - 2)
        j -= w < x.take(j)
        j += w >= x.take(j + 1)
        self._dx_nodes = np.diff(x)
        self.dx = w - x.take(j)
        # j as a flat index into the table, row r of a block offset by r n
        if w.ndim == 2:
            j += n * np.arange(w.shape[0])[:, None]
        self.index = j
        self._at_node = np.flatnonzero(self.dx == 0.0)

    def read(self, fp: np.ndarray) -> np.ndarray:
        # The slope of the interval right of each node; a point on the last
        # node reads the zero past it, as it has dx = 0.
        slope = np.zeros(fp.shape)
        np.divide(np.diff(fp), self._dx_nodes, out=slope[..., :-1])
        fpj = fp.take(self.index)
        out = slope.take(self.index)
        out *= self.dx
        out += fpj
        # At a node np.interp returns fp itself, signed zeros included.
        at = self._at_node
        out.reshape(-1)[at] = fpj.reshape(-1)[at]
        return out
