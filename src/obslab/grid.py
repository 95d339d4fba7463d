"""Uniform 1-D spatial grid, grid functions, and the discrete norms.

All solvers in the package act on `Field` / `Trajectory` objects built on a
`Grid`. Boundary nodes carry homogeneous Dirichlet data (the unbounded
domain is truncated to a box), and every differential operator returns a new
field, leaving its input untouched.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np


class GridMismatchError(ValueError):
    """Operands live on different grids or time meshes."""


@dataclass(frozen=True)
class Grid:
    """Uniform nodes on [x_min, x_max] with zero-Dirichlet boundaries."""

    x_min: float
    x_max: float
    n_nodes: int

    def __post_init__(self):
        if self.n_nodes < 3:
            raise ValueError(f"n_nodes must be >= 3, got {self.n_nodes}")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")

    @property
    def h(self) -> float:
        return (self.x_max - self.x_min) / (self.n_nodes - 1)

    @property
    def x(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_nodes)


@dataclass(frozen=True)
class Field:
    """A grid function: one real value per node."""

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


@dataclass(frozen=True)
class Trajectory:
    """A time-indexed family of fields on a common grid and uniform mesh.

    `values[i]` is the field at `times[i]`; times run forward from 0 to T.
    """

    times: np.ndarray
    values: np.ndarray  # (n_times, n_nodes)
    grid: Grid

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise ValueError("times must be a 1-D array with >= 2 entries")
        if v.shape != (len(t), self.grid.n_nodes):
            raise ValueError(f"values shape {v.shape} inconsistent with mesh")
        dts = np.diff(t)
        if not np.allclose(dts, dts[0], rtol=1e-12, atol=1e-14) or dts[0] <= 0:
            raise ValueError("times must be uniform and increasing")
        if not np.all(np.isfinite(v)):
            raise ValueError("trajectory contains non-finite values")
        t = t.copy(); t.flags.writeable = False
        v = v.copy(); v.flags.writeable = False
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])

    def field(self, i: int) -> Field:
        return Field(self.values[i], self.grid)

    # -- CSV round trip: header row of x-coordinates, one row per time node --

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + [repr(float(x)) for x in self.grid.x])
            for t, row in zip(self.times, self.values):
                w.writerow([repr(float(t))] + [repr(float(v)) for v in row])

    @classmethod
    def from_csv(cls, path) -> "Trajectory":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        xs = np.array([float(v) for v in rows[0][1:]])
        times = np.array([float(r[0]) for r in rows[1:]])
        vals = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        grid = Grid(x_min=float(xs[0]), x_max=float(xs[-1]), n_nodes=len(xs))
        return cls(times=times, values=vals, grid=grid)


def _check_same_grid(a: Field, b: Field):
    if a.grid != b.grid:
        raise GridMismatchError("fields live on different grids")


# ---------------------------------------------------------------------------
# Array-level stencils. The solvers use these directly on raw arrays; the
# Field wrappers below are the public single-field interface.
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


def laplacian(f: Field) -> Field:
    """Second difference; zero at the boundary nodes."""
    return Field(laplacian_array(f.values, f.grid.h), f.grid)


def gradient(f: Field) -> Field:
    """Centered difference in the interior, one-sided at the boundary."""
    return Field(gradient_array(f.values, f.grid.h), f.grid)


def h_norm(f: Field) -> float:
    """Discrete L2 norm, h-weighted."""
    return float(np.sqrt(f.grid.h * np.sum(f.values**2)))


def v_norm(f: Field) -> float:
    """Discrete first-order Sobolev norm: L2 of the field plus its gradient."""
    g = gradient_array(f.values, f.grid.h)
    return float(np.sqrt(f.grid.h * np.sum(f.values**2 + g**2)))


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
    if a.values.shape != b.values.shape or not np.allclose(a.times, b.times):
        raise GridMismatchError("trajectories live on different time meshes")
    d = a.values - b.values
    sup = float(np.max(h_norm_array(d, a.grid.h)))
    integ = float(a.dt * np.sum(v_norm_sq_array(d, a.grid.h)))
    return sup + np.sqrt(integ)
