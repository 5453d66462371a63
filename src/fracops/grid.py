"""Uniform grids and sampled functions, the common currency of all operators.

Grids are node-inclusive: a grid with N subintervals carries N+1 values,
both endpoints present. Values are stored as complex128 throughout, with an
``is_real`` flag when every imaginary part is exactly zero. Samples are
finite by construction: both sampled-function types reject a NaN or
infinite sample (in either part) with a ``ValueError`` naming its node, so
no operator re-checks its input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

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
        if not np.isfinite(vals).all():
            k = _first_index(~np.isfinite(vals))[0]
            raise ValueError(f"non-finite sample at node index {k} (t={self.grid.nodes[k]})")
        object.__setattr__(self, "values", _freeze(vals))

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.values.imag == 0.0))

    # an overflow of finite samples is a ValueError naming its node, as in l1_distance
    def __add__(self, other: "SampledFunction1D") -> "SampledFunction1D":
        _require_same_grid(self, other)
        values = _finite_op(np.add, self.values, other.values, "the sum")
        return SampledFunction1D(self.grid, values)

    def __sub__(self, other: "SampledFunction1D") -> "SampledFunction1D":
        _require_same_grid(self, other)
        values = _finite_op(np.subtract, self.values, other.values, "the difference")
        return SampledFunction1D(self.grid, values)

    def __mul__(self, scalar: complex) -> "SampledFunction1D":
        if not np.isfinite(scalar):
            raise ValueError(f"cannot scale a sampled function by the non-finite scalar {scalar}")
        values = _finite_op(np.multiply, self.values, scalar, "the product")
        return SampledFunction1D(self.grid, values)

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
        if not np.isfinite(vals).all():
            raise ValueError(f"non-finite sample at node index {_first_index(~np.isfinite(vals))}")
        object.__setattr__(self, "values", _freeze(vals))

    @property
    def is_real(self) -> bool:
        return bool(np.all(self.values.imag == 0.0))


def _require_same_grid(f: SampledFunction1D, g: SampledFunction1D) -> None:
    if f.grid != g.grid:
        raise ValueError(f"grid mismatch: {f.grid} vs {g.grid}")


def _functions_on_one_grid(
    f: SampledFunction1D | Sequence[SampledFunction1D],
) -> list[SampledFunction1D]:
    """The functions of f, one sampled function or a sequence of them on one grid.

    An empty sequence and functions on different grids are ``ValueError``s.
    The samples need no check: they are finite by construction.
    """
    fs = [f] if isinstance(f, SampledFunction1D) else list(f)
    if not fs:
        raise ValueError("the sequence is empty; it needs at least one sampled function")
    for other in fs[1:]:
        _require_same_grid(fs[0], other)
    return fs


def sample(expr: Callable[[float], complex], grid: UniformGrid1D) -> SampledFunction1D:
    """Evaluate ``expr`` at every node; a non-finite value is rejected by node index."""
    return SampledFunction1D(grid, [complex(expr(t)) for t in grid.nodes])


def sample_array(expr: Callable[[np.ndarray], np.ndarray], grid: UniformGrid1D) -> SampledFunction1D:
    """Evaluate the array expression ``expr`` once on all nodes.

    An overflow is not a warning: like any non-finite value, it is rejected
    by node index as in ``sample``.
    """
    with np.errstate(over="ignore"):
        vals = expr(grid.nodes)
    return SampledFunction1D(grid, vals)


def sample_nd(expr: Callable[..., complex], grid: BoxGridND) -> SampledFunctionND:
    mesh = np.meshgrid(*[g.nodes for g in grid.axes], indexing="ij")
    return SampledFunctionND(grid, np.vectorize(expr, otypes=[np.complex128])(*mesh))


def cumulative_trapezoid(f: SampledFunction1D) -> SampledFunction1D:
    """Cumulative integral from the left endpoint by the composite trapezoid rule.

    A result that is not finite is a ``ValueError`` naming the step at which
    the integral overflows. Once a partial sum is not finite no later one is,
    so only the last is checked.
    """
    w = 0.5 * f.grid.h
    with np.errstate(over="ignore", invalid="ignore"):
        inc = w * f.values[:-1] + w * f.values[1:]
        out = np.zeros(f.grid.N + 1, dtype=np.complex128)
        out[1:] = np.cumsum(inc)
    if not np.isfinite(out[-1]):
        raise ValueError(f"the trapezoid integral overflows at step {f.grid.h}")
    return SampledFunction1D(f.grid, out)


def _first_index(mask: np.ndarray) -> tuple[int, ...]:
    """Index of the first true entry of a nonempty boolean mask, as plain ints."""
    return tuple(int(i) for i in np.argwhere(mask)[0])


def _finite_norm(norm: float, step: str) -> float:
    if not math.isfinite(norm):
        raise ValueError(f"the L1 norm integral overflows at {step}")
    return norm


def _finite_op(op: np.ufunc, f: np.ndarray, g: np.ndarray | complex, what: str) -> np.ndarray:
    """op(f, g) of finite operands, with no warning.

    A non-finite result is an overflow, a ``ValueError`` naming its node.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        out = op(f, g)
    if not np.isfinite(out).all():
        raise ValueError(f"{what} overflows at node index {_first_index(~np.isfinite(out))}")
    return out


def _l1(values: np.ndarray, h: float) -> float:
    """Trapezoid rule applied to |values| at step h; errors as in ``l1_norm``."""
    with np.errstate(over="ignore"):
        mod = np.abs(values)
        norm = float(h * (0.5 * mod[0] + mod[1:-1].sum() + 0.5 * mod[-1]))
    return _finite_norm(norm, f"step {h}")


def l1_norm(f: SampledFunction1D) -> float:
    """Trapezoid rule applied to |f| over the grid.

    A norm that is not finite is a ``ValueError`` naming the step at which
    the norm overflows.
    """
    return _l1(f.values, f.grid.h)


def l1_distance(f: SampledFunction1D, g: SampledFunction1D) -> float:
    """``l1_norm(f - g)`` bit for bit, read from the difference's samples."""
    _require_same_grid(f, g)
    return _l1(_finite_op(np.subtract, f.values, g.values, "the L1 distance"), f.grid.h)


def trapezoid_weights(h: float, n: int) -> np.ndarray:
    """Composite trapezoid weights for n subintervals of width h (n + 1 nodes)."""
    w = np.full(n + 1, h)
    w[0] = w[-1] = 0.5 * h
    return w


def _l1_nd(values: np.ndarray, grid: BoxGridND) -> float:
    """Tensorized trapezoid rule applied to |values| over the box; errors as in ``l1_norm``."""
    with np.errstate(over="ignore"):
        acc = np.abs(values)
        for axis in range(grid.dim - 1, -1, -1):
            g = grid.axes[axis]
            acc = np.tensordot(acc, trapezoid_weights(g.h, g.N), axes=([axis], [0]))
    return _finite_norm(float(acc), f"steps {tuple(g.h for g in grid.axes)}")


def l1_norm_nd(f: SampledFunctionND) -> float:
    """Tensorized trapezoid rule applied to |f| over the box; errors as in ``l1_norm``."""
    return _l1_nd(f.values, f.grid)


def l1_distance_nd(f: SampledFunctionND, g: SampledFunctionND) -> float:
    """``l1_norm_nd(f - g)`` bit for bit, read from the difference's samples."""
    if f.grid != g.grid:
        raise ValueError("grid mismatch between ND sampled functions")
    return _l1_nd(_finite_op(np.subtract, f.values, g.values, "the L1 distance"), f.grid)
