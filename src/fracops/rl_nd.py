"""Multidimensional fractional integrals and box-truncated convolutions.

The multi-order integral factorizes across axes, so it is realized as
tensorized 1D sweeps (O(N^(n+1)) instead of O(N^(2n)) for an nD kernel
quadrature). A zero component skips its axis entirely. Truncated
convolutions use plain tensorized trapezoid weights; the kernels fed to
them are nonsingular.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .grid import BoxGridND, SampledFunctionND, l1_distance_nd, trapezoid_weights
from .rl_core import ORDER_CAP, _sweep

MultiOrder = tuple[float, ...]


def check_multi_order(alpha: Sequence[float], dim: int) -> MultiOrder:
    alpha = tuple(float(a) for a in alpha)
    if len(alpha) != dim:
        raise ValueError(f"order has {len(alpha)} components but the grid is {dim}D")
    for a in alpha:
        if not 0.0 <= a <= ORDER_CAP:
            raise ValueError(f"order components must lie in [0, {ORDER_CAP:g}], got {a}")
    return alpha


def rl_integral_nd(alpha: Sequence[float], f: SampledFunctionND) -> SampledFunctionND:
    """Apply the 1D fractional integral along each axis j with order alpha_j.

    Axes with alpha_j = 0 are left untouched; with all components zero the
    input values are returned unchanged. Sweeps are applied in axis order,
    but the output is axis-order independent up to rounding (the sweeps
    commute).
    """
    alpha = check_multi_order(alpha, f.grid.dim)
    values = f.values
    for axis, a in enumerate(alpha):
        if a != 0.0:
            values = _sweep(a, f.grid.axes[axis].h, values, axis)
    return SampledFunctionND(f.grid, values)


def _corner_at_zero(grid: BoxGridND) -> None:
    if any(g.a != 0.0 for g in grid.axes):
        raise ValueError(f"truncated convolution requires left corner 0, got {grid.corner}")


def truncated_convolution(h: SampledFunctionND, f: SampledFunctionND) -> SampledFunctionND:
    """Box-truncated convolution (R_h f)(t) = integral over [0, t] of h(s) f(t-s) ds.

    Tensorized trapezoid weights on [0, t] per output node t; output is 0 on
    the lower faces (degenerate boxes).
    """
    if h.grid != f.grid:
        raise ValueError("kernel and function must share a grid")
    _corner_at_zero(h.grid)
    grid = h.grid
    # per axis, the trapezoid weights on [0, t_k] for every node index k
    axis_weights = [[trapezoid_weights(g.h, k) for k in range(g.N + 1)] for g in grid.axes]
    out = np.zeros(grid.shape, dtype=np.complex128)
    for m in np.ndindex(*grid.shape):
        if any(mi == 0 for mi in m):
            continue
        weight = axis_weights[0][m[0]]
        for j in range(1, grid.dim):
            weight = np.multiply.outer(weight, axis_weights[j][m[j]])
        hblock = h.values[tuple(slice(0, mi + 1) for mi in m)]
        fblock = f.values[tuple(slice(mi, None, -1) for mi in m)]
        out[m] = np.sum(weight * hblock * fblock)
    return SampledFunctionND(grid, out)


def commutation_residual(
    alpha: Sequence[float], h: SampledFunctionND, f: SampledFunctionND
) -> float:
    """L1 distance between integrating then convolving and the reverse order."""
    lhs = rl_integral_nd(alpha, truncated_convolution(h, f))
    rhs = truncated_convolution(h, rl_integral_nd(alpha, f))
    return l1_distance_nd(lhs, rhs)
