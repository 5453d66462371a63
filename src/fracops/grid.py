"""Uniform grids and sampled functions, the common currency of all operators.

Grids are node-inclusive: a grid with N subintervals carries N+1 values,
both endpoints present. Values are stored as complex128 throughout, with an
``is_real`` flag when every imaginary part is exactly zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class UniformGrid1D:
    """Nodes t_k = a + k*h, k = 0..N, with h = (T - a)/N."""

    a: float
    T: float
    N: int

    def __post_init__(self):
        if not (self.a < self.T):
            raise ValueError(f"grid requires a < T, got a={self.a}, T={self.T}")
        if self.N < 1 or self.N != int(self.N):
            raise ValueError(f"grid requires a positive integer N, got {self.N}")
        if not math.isfinite(self.h):  # also rejects infinite a or T
            raise ValueError(
                f"grid requires finite a, T and step, got a={self.a}, T={self.T}, N={self.N}"
            )

    @property
    def h(self) -> float:
        return (self.T - self.a) / self.N

    @property
    def nodes(self) -> np.ndarray:
        return self.a + self.h * np.arange(self.N + 1)


@dataclass(frozen=True)
class SampledFunction1D:
    grid: UniformGrid1D
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != (self.grid.N + 1,):
            raise ValueError(
                f"expected {self.grid.N + 1} values, got shape {vals.shape}"
            )
        object.__setattr__(self, "values", _freeze(vals))

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.values.imag == 0.0))

    @property
    def real_values(self) -> np.ndarray:
        if not self.is_real:
            raise ValueError("sampled function has nonzero imaginary parts")
        return self.values.real

    def __add__(self, other: "SampledFunction1D") -> "SampledFunction1D":
        _require_same_grid(self, other)
        return SampledFunction1D(self.grid, self.values + other.values)

    def __sub__(self, other: "SampledFunction1D") -> "SampledFunction1D":
        _require_same_grid(self, other)
        return SampledFunction1D(self.grid, self.values - other.values)

    def __mul__(self, scalar: complex) -> "SampledFunction1D":
        return SampledFunction1D(self.grid, self.values * scalar)

    __rmul__ = __mul__


@dataclass(frozen=True)
class BoxGridND:
    """Product of 1D grids over a box, n in {1, 2, 3}."""

    axes: tuple[UniformGrid1D, ...]

    def __post_init__(self):
        axes = tuple(self.axes)
        if not 1 <= len(axes) <= 3:
            raise ValueError(f"box grids support 1..3 axes, got {len(axes)}")
        object.__setattr__(self, "axes", axes)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(g.N + 1 for g in self.axes)

    @property
    def corner(self) -> tuple[float, ...]:
        return tuple(g.a for g in self.axes)


@dataclass(frozen=True)
class SampledFunctionND:
    grid: BoxGridND
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.complex128)
        if vals.shape != self.grid.shape:
            raise ValueError(
                f"expected tensor of shape {self.grid.shape}, got {vals.shape}"
            )
        object.__setattr__(self, "values", _freeze(vals))

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.values.imag == 0.0))


def _require_same_grid(f: SampledFunction1D, g: SampledFunction1D) -> None:
    if f.grid != g.grid:
        raise ValueError(f"grid mismatch: {f.grid} vs {g.grid}")


def _finite_samples(grid: UniformGrid1D, nodes: np.ndarray, vals: np.ndarray) -> SampledFunction1D:
    bad = np.nonzero(~np.isfinite(vals.real) | ~np.isfinite(vals.imag))[0]
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"non-finite sample at node index {k} (t={nodes[k]})")
    return SampledFunction1D(grid, vals)


def sample(expr: Callable[[float], complex], grid: UniformGrid1D) -> SampledFunction1D:
    """Evaluate ``expr`` at every node; rejects non-finite values by node index."""
    nodes = grid.nodes
    vals = np.array([complex(expr(t)) for t in nodes], dtype=np.complex128)
    return _finite_samples(grid, nodes, vals)


def sample_array(expr: Callable[[np.ndarray], np.ndarray], grid: UniformGrid1D) -> SampledFunction1D:
    """Evaluate the array expression ``expr`` once on all nodes.

    An overflow is not a warning: like any non-finite value, it is rejected
    by node index as in ``sample``.
    """
    nodes = grid.nodes
    with np.errstate(over="ignore"):
        vals = np.asarray(expr(nodes), dtype=np.complex128)
    return _finite_samples(grid, nodes, vals)


def sample_nd(expr: Callable[..., complex], grid: BoxGridND) -> SampledFunctionND:
    mesh = np.meshgrid(*[g.nodes for g in grid.axes], indexing="ij")
    vals = np.vectorize(expr, otypes=[np.complex128])(*mesh)
    if not np.all(np.isfinite(vals.real) & np.isfinite(vals.imag)):
        idx = np.argwhere(~(np.isfinite(vals.real) & np.isfinite(vals.imag)))[0]
        raise ValueError(f"non-finite sample at node index {tuple(idx)}")
    return SampledFunctionND(grid, vals)


def cumulative_trapezoid(f: SampledFunction1D) -> SampledFunction1D:
    """Cumulative integral from the left endpoint by the composite trapezoid rule."""
    w = 0.5 * f.grid.h
    inc = w * f.values[:-1] + w * f.values[1:]
    out = np.zeros(f.grid.N + 1, dtype=np.complex128)
    out[1:] = np.cumsum(inc)
    return SampledFunction1D(f.grid, out)


def _finite_norm(norm: float, values: np.ndarray, step: str) -> float:
    if math.isfinite(norm):
        return norm
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"non-finite sample at node index {tuple(int(i) for i in bad[0])}")
    raise ValueError(f"the L1 norm integral overflows at {step}")


def l1_norm(f: SampledFunction1D) -> float:
    """Trapezoid rule applied to |f| over the grid.

    A norm that is not finite is a ``ValueError`` naming the non-finite
    sample or, for finite samples, the step at which the norm overflows.
    """
    h = f.grid.h
    with np.errstate(over="ignore"):
        mod = np.abs(f.values)
        norm = float(h * (0.5 * mod[0] + mod[1:-1].sum() + 0.5 * mod[-1]))
    return _finite_norm(norm, f.values, f"step {h}")


def l1_distance(f: SampledFunction1D, g: SampledFunction1D) -> float:
    _require_same_grid(f, g)
    return l1_norm(f - g)


def trapezoid_weights(h: float, n: int) -> np.ndarray:
    """Composite trapezoid weights for n subintervals of width h (n + 1 nodes)."""
    w = np.full(n + 1, h)
    w[0] = w[-1] = 0.5 * h
    return w


def l1_norm_nd(f: SampledFunctionND) -> float:
    """Tensorized trapezoid rule applied to |f| over the box; errors as in ``l1_norm``."""
    with np.errstate(over="ignore"):
        acc = np.abs(f.values)
        for axis in range(f.grid.dim - 1, -1, -1):
            g = f.grid.axes[axis]
            acc = np.tensordot(acc, trapezoid_weights(g.h, g.N), axes=([axis], [0]))
    return _finite_norm(float(acc), f.values, f"steps {tuple(g.h for g in f.grid.axes)}")


def l1_distance_nd(f: SampledFunctionND, g: SampledFunctionND) -> float:
    if f.grid != g.grid:
        raise ValueError("grid mismatch between ND sampled functions")
    return l1_norm_nd(SampledFunctionND(f.grid, f.values - g.values))
