"""Multidimensional fractional integrals and box-truncated convolutions.

The multi-order integral factorizes across axes, so it is realized as
tensorized 1D sweeps (O(N^(n+1)) instead of O(N^(2n)) for an nD kernel
quadrature). A zero component skips its axis entirely. Truncated
convolutions use the tensorized trapezoid rule on [0, t_m]; per axis, node
k weighs h * a(k) * a(m - k) with a = (1/2, 1, 1, ...), so the whole rule is
one causal convolution of the samples, each with its index-0 layers halved.
The kernels fed to it are nonsingular.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .grid import BoxGridND, SampledFunctionND, l1_distance_nd
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

    The trapezoid rule on [0, t] at every node t, taken as one causal
    convolution (see the module docstring) by zero-padded real FFTs of the
    real and imaginary parts. It matches per-node sums only to rounding, so
    zeros inside the box and nonnegativity are exact only to rounding. Exact:
    0 on the lower faces (degenerate boxes), 0 for zero input, and real
    output for real inputs.
    """
    if h.grid != f.grid:
        raise ValueError("kernel and function must share a grid")
    _corner_at_zero(h.grid)
    grid = h.grid
    axes = tuple(range(grid.dim))
    size = tuple(2 * n - 1 for n in grid.shape)
    spectra = []
    for values in (h.values, f.values):
        halved = values.copy()
        for axis in axes:
            halved[(slice(None),) * axis + (0,)] *= 0.5
        spectra += [np.fft.rfftn(part, size, axes) for part in (halved.real, halved.imag)]
    hr, hi, fr, fi = spectra
    box = tuple(slice(0, n) for n in grid.shape)
    scale = math.prod(g.h for g in grid.axes)
    out = np.empty(grid.shape, dtype=np.complex128)
    out.real = scale * np.fft.irfftn(hr * fr - hi * fi, size, axes)[box]
    out.imag = scale * np.fft.irfftn(hr * fi + hi * fr, size, axes)[box]
    for axis in axes:
        out[(slice(None),) * axis + (0,)] = 0.0
    return SampledFunctionND(grid, out)


def commutation_residual(
    alpha: Sequence[float], h: SampledFunctionND, f: SampledFunctionND
) -> float:
    """L1 distance between integrating then convolving and the reverse order."""
    lhs = rl_integral_nd(alpha, truncated_convolution(h, f))
    rhs = truncated_convolution(h, rl_integral_nd(alpha, f))
    return l1_distance_nd(lhs, rhs)
