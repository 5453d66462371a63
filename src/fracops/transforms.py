"""Laplace transforms on a truncated half line, semigroup tables, and fits.

Transforms are computed on [0, T_big] by the composite trapezoid rule and
reported together with an explicit error ledger: a certified tail bound
(via the upper incomplete gamma function, for integrands with a declared
polynomial growth bound) and a conservative quadrature-error estimate.

Two refinements keep the tables accurate enough to fit on a log scale:

* when the integrand vanishes at the origin like a power t^p, the first
  cell is integrated against a local power-law model with p estimated from
  the first two samples (the plain trapezoid loses O(h^(1+p)) there, which
  dominates everything else for p < 1);
* transforms of the singular convolution kernel t^(alpha-1)/Gamma(alpha)
  integrate the piecewise-linear interpolant of the exponential factor
  against the product-quadrature kernel moments (exact on the singular
  cell), so the endpoint singularity never meets the trapezoid rule.

The module also fits log-affine models to transform tables (scalar and
multi-order) and extends additive samples from (0, n) to doubled domains,
checking well-posedness of each new value against distinct decompositions.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .grid import (
    BoxGridND,
    SampledFunction1D,
    SampledFunctionND,
    UniformGrid1D,
    trapezoid_weights,
)
from .rl_core import OperatorFamily1D, _check_order, product_quadrature_weights
from .special import upper_gamma


@dataclass(frozen=True)
class LaplaceValue:
    """A transform value with its truncation and quadrature error ledger."""

    value: float
    tail_bound: float | None
    quad_error_estimate: float


def _power_cell_correction(fvals: np.ndarray, h: float, x: float) -> float | None:
    """Replacement for the first trapezoid cell when f vanishes like t^p at 0.

    Returns the model value of the cell integral, or None when the data does
    not look like a clean power (the caller then keeps the trapezoid cell).
    """
    if len(fvals) < 3 or fvals[0] != 0.0 or fvals[1] <= 0.0 or fvals[2] <= 0.0:
        return None
    p = math.log2(fvals[2] / fvals[1])
    if not (0.0 < p < 8.0) or not math.isfinite(p):
        return None
    shape = 1.0 / (p + 1.0) - x * h / (p + 2.0)
    if shape <= 0.0:
        return None
    return fvals[1] * h * shape


def laplace_transform(
    f: SampledFunction1D,
    x: float,
    growth_bound: tuple[float, float] | None = None,
) -> LaplaceValue:
    """Trapezoid transform of a real sampled function on [0, T_big] at x > 0.

    ``growth_bound = (C, p)`` declares |f(s)| <= C * s^p for s >= T_big; the
    certified tail C * integral_{T_big}^inf s^p e^(-sx) ds is then evaluated
    via the upper incomplete gamma function and reported alongside the value.
    """
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ValueError(f"transform point must be positive and finite, got x={x}")
    if f.grid.a != 0.0:
        raise ValueError(f"transform grid must start at 0, got a={f.grid.a}")
    fvals = f.real_values
    h = f.grid.h
    t = f.grid.nodes
    # where x t overflows e^(-x t) is rightly 0; an overflowing value is rejected
    with np.errstate(over="ignore", invalid="ignore"):
        g = fvals * np.exp(-x * t)
        value = h * (0.5 * g[0] + g[1:-1].sum() + 0.5 * g[-1])
        correction = _power_cell_correction(fvals, h, x)
        if correction is not None:
            value = value - 0.5 * h * (g[0] + g[1]) + correction
        quad_est = (h / 3.0) * float(np.abs(np.diff(g, 2)).sum())
    if not math.isfinite(value):
        raise ValueError(f"transform value at x={x} overflows on [0, {f.grid.T}]")
    tail = None
    if growth_bound is not None:
        c, p = float(growth_bound[0]), float(growth_bound[1])
        if c < 0.0 or p < 0.0:
            raise ValueError(f"tail-bound parameters must be nonnegative, got C={c}, p={p}")
        try:
            tail = c * x ** (-(p + 1.0)) * upper_gamma(p + 1.0, x * f.grid.T)
        except OverflowError:
            raise ValueError(f"tail bound overflows at x={x} (C={c}, p={p})") from None
    return LaplaceValue(float(value), tail, quad_est)


def kernel_laplace_transform(alpha: float, x: float, t_big: float, n: int) -> LaplaceValue:
    """Transform of the convolution kernel t^(alpha-1)/Gamma(alpha) on [0, t_big].

    Product integration: the exponential factor is replaced by its piecewise
    linear interpolant and integrated against the kernel with the weights of
    ``product_quadrature_weights`` (the kernel integral read at t = t_big),
    so the origin singularity (alpha < 1) is handled exactly.
    """
    alpha = _check_order(alpha)
    x = float(x)
    if not 0.0 < x < math.inf:
        raise ValueError(f"transform point must be positive and finite, got x={x}")
    if not 0.0 < t_big < math.inf:
        raise ValueError(f"kernel transform needs a positive finite t_big, got {t_big}")
    h = t_big / n
    # weight index d - 1 is the cell [(d-1)h, dh]: wr weighs its left node
    # and wl its right node, and wl + wr is the cell's kernel mass
    wl, wr = product_quadrature_weights(alpha, h, n)
    e = np.exp(-x * h * np.arange(n + 1))
    value = float((e[:-1] * wr + e[1:] * wl).sum())
    try:
        tail = x ** (-alpha) * upper_gamma(alpha, x * t_big) / math.gamma(alpha)
    except OverflowError:
        raise ValueError(f"kernel tail bound overflows at x={x}, order {alpha}") from None
    # interpolation error of e per cell ~ |second difference|/8, weighted by
    # the cell's kernel mass; factor 1/2 instead of 1/8 keeps it conservative
    mass = wl + wr
    quad_est = 0.5 * float((np.abs(np.diff(e, 2)) * np.maximum(mass[:-1], mass[1:])).sum())
    return LaplaceValue(value, tail, quad_est)


def laplace_transform_nd(f: SampledFunctionND, x: Sequence[float]) -> float:
    """Tensorized trapezoid transform over a box with left corner 0."""
    xs = tuple(float(v) for v in x)
    if len(xs) != f.grid.dim:
        raise ValueError(f"{len(xs)} transform points for a {f.grid.dim}D grid")
    if not all(0.0 < v < math.inf for v in xs):
        raise ValueError(f"transform points must be positive and finite, got {xs}")
    if any(g.a != 0.0 for g in f.grid.axes):
        raise ValueError("transform box must have left corner 0")
    if not f.is_real:
        raise ValueError("transform requires a real-valued function")
    acc = f.values.real.copy()
    for axis in range(f.grid.dim - 1, -1, -1):
        g = f.grid.axes[axis]
        w = trapezoid_weights(g.h, g.N) * np.exp(-xs[axis] * g.nodes)
        acc = np.tensordot(acc, w, axes=([axis], [0]))
    return float(acc)


@dataclass(frozen=True)
class TransformTable:
    """Sampled transform values over a grid of orders times transform points.

    Entries must be strictly positive (they are fitted on a log scale).
    Orders and transform points are floats in 1D and equal-length tuples in
    higher dimension.
    """

    order_grid: tuple
    x_grid: tuple
    entries: np.ndarray = field(repr=False)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        orders = tuple(self.order_grid)
        xs = tuple(self.x_grid)
        if not orders or not xs:
            raise ValueError("transform table grids must be nonempty")
        ent = np.asarray(self.entries, dtype=np.float64)
        if ent.shape != (len(orders), len(xs)):
            raise ValueError(
                f"entries shape {ent.shape} does not match grids "
                f"({len(orders)} orders, {len(xs)} points)"
            )
        if np.any(ent <= 0.0):
            i, j = np.argwhere(ent <= 0.0)[0]
            raise ValueError(
                f"nonpositive table entry at order={orders[i]}, x={xs[j]}"
            )
        object.__setattr__(self, "order_grid", orders)
        object.__setattr__(self, "x_grid", xs)
        ent.flags.writeable = False
        object.__setattr__(self, "entries", ent)

    @property
    def order_dim(self) -> int:
        first = self.order_grid[0]
        return len(first) if isinstance(first, tuple) else 1

    def to_json(self) -> str:
        payload = {
            "order_grid": [list(o) if isinstance(o, tuple) else o for o in self.order_grid],
            "x_grid": [list(x) if isinstance(x, tuple) else x for x in self.x_grid],
            "entries": self.entries.ravel(order="C").tolist(),
            "meta": self.meta,
        }
        return json.dumps(payload, sort_keys=True)


def semigroup_table(
    family: OperatorFamily1D,
    order_grid: Sequence[float],
    x_grid: Sequence[float],
    t_big: float,
    n: int,
) -> TransformTable:
    """Table R[alpha, x] = transform of (family applied at alpha to 1) at x.

    Rejects families that are not real-valued on the constant 1 and tables
    with any nonpositive entry (those cannot be log-fitted); certified tail
    bounds from the family's growth declaration go into the metadata.
    """
    orders = tuple(float(a) for a in order_grid)
    xs = tuple(float(x) for x in x_grid)
    grid = UniformGrid1D(0.0, float(t_big), int(n))
    ones = SampledFunction1D(grid, np.ones(grid.N + 1))
    entries = np.empty((len(orders), len(xs)))
    tails = np.empty_like(entries)
    for i, a in enumerate(orders):
        out = family.apply(a, ones)
        if not out.is_real:
            raise ValueError(
                f"family {family.name!r} is not real-valued on 1 at order {a}"
            )
        bound = family.growth_of_one(a)
        for j, x in enumerate(xs):
            res = laplace_transform(out, x, growth_bound=bound)
            if res.value <= 0.0:
                raise ValueError(
                    f"nonpositive transform entry for family {family.name!r} "
                    f"at (alpha={a}, x={x}); the table cannot be log-fitted"
                )
            entries[i, j] = res.value
            tails[i, j] = res.tail_bound
    meta = {
        "family": family.name,
        "T_big": float(t_big),
        "N": int(n),
        "tail_bounds": tails.ravel(order="C").tolist(),
    }
    return TransformTable(orders, xs, entries, meta)


def semigroup_table_nd(
    apply_nd: Callable[[tuple, SampledFunctionND], SampledFunctionND],
    order_grid: Sequence[Sequence[float]],
    x_grid: Sequence[Sequence[float]],
    t_big: float,
    n: int,
) -> TransformTable:
    """Multi-order table over a box [0, t_big]^n at n+1 subintervals per axis."""
    orders = tuple(tuple(float(a) for a in o) for o in order_grid)
    xs = tuple(tuple(float(v) for v in x) for x in x_grid)
    dim = len(orders[0])
    axes = tuple(UniformGrid1D(0.0, float(t_big), int(n)) for _ in range(dim))
    box = BoxGridND(axes)
    ones = SampledFunctionND(box, np.ones(box.shape))
    entries = np.empty((len(orders), len(xs)))
    for i, a in enumerate(orders):
        out = apply_nd(a, ones)
        for j, x in enumerate(xs):
            val = laplace_transform_nd(out, x)
            if val <= 0.0:
                raise ValueError(f"nonpositive transform entry at (alpha={a}, x={x})")
            entries[i, j] = val
    meta = {"T_big": float(t_big), "N": int(n), "tail_bounds": None}
    return TransformTable(orders, xs, entries, meta)


@dataclass(frozen=True)
class FitResult:
    """Per-x affine fit of log entries: intercepts c(x), slopes d(x)."""

    intercepts: np.ndarray
    slopes: np.ndarray
    max_residual: float
    condition: float | None = None


def fit_affine(table: TransformTable) -> FitResult:
    """Per x, least squares for log R[alpha, x] = c(x) + d(x) * alpha."""
    if table.order_dim != 1:
        raise ValueError("scalar fit requires scalar orders; use fit_affine_nd")
    orders = np.array(table.order_grid, dtype=np.float64)
    if len(orders) < 3:
        raise ValueError(f"need at least 3 orders per x, got {len(orders)}")
    if len(np.unique(orders)) < 2:
        raise ValueError("degenerate order grid: fewer than 2 distinct orders")
    logs = np.log(table.entries)
    design = np.column_stack([np.ones_like(orders), orders])
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    resid = np.abs(logs - design @ coef)
    return FitResult(
        intercepts=coef[0].copy(),
        slopes=coef[1].copy(),
        max_residual=float(resid.max()),
    )


def fit_affine_nd(table: TransformTable) -> FitResult:
    """Per x-tuple, least squares for log R = c(x) + d(x) . alpha, d in R^n."""
    dim = table.order_dim
    if dim < 2:
        raise ValueError("multi-order fit requires tuple orders")
    orders = np.array(table.order_grid, dtype=np.float64)
    design = np.column_stack([np.ones(len(orders)), orders])
    rank = int(np.linalg.matrix_rank(design))
    if rank < dim + 1:
        raise ValueError(
            f"order set is affinely degenerate: design rank {rank} < {dim + 1}"
        )
    logs = np.log(table.entries)
    coef, *_ = np.linalg.lstsq(design, logs, rcond=None)
    resid = np.abs(logs - design @ coef)
    cond = float(np.linalg.cond(design.T @ design))
    return FitResult(
        intercepts=coef[0].copy(),
        slopes=coef[1:].T.copy(),
        max_residual=float(resid.max()),
        condition=cond,
    )


ADDITIVITY_TOL = 1e-9


@dataclass(frozen=True)
class AdditiveSamples:
    """Values h(k*q) for k*q in (0, bound), with the step held as an exact rational."""

    step: Fraction
    bound: Fraction
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        step = Fraction(self.step)
        bound = Fraction(self.bound)
        if step <= 0 or bound <= 0:
            raise ValueError("step and bound must be positive")
        kmax = _last_index(step, bound)
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.shape != (kmax,):
            raise ValueError(
                f"expected {kmax} values for step {step} on (0, {bound}), "
                f"got shape {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("additive samples must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "step", step)
        object.__setattr__(self, "bound", bound)
        object.__setattr__(self, "values", vals)

    def point(self, k: int) -> Fraction:
        return k * self.step

    @property
    def kmax(self) -> int:
        return len(self.values)


def _last_index(step: Fraction, bound: Fraction) -> int:
    ratio = bound / step
    k = int(ratio)
    if k * step >= bound:
        k -= 1
    if k < 1:
        raise ValueError(f"no grid points in (0, {bound}) with step {step}")
    return k


def _check_additive(samples: AdditiveSamples) -> None:
    v = samples.values
    k = samples.kmax
    idx = np.arange(1, k + 1)
    sums = v[:, None] + v[None, :]
    ks = idx[:, None] + idx[None, :]
    mask = ks <= k
    target = np.zeros_like(sums)
    target[mask] = v[ks[mask] - 1]
    err = np.abs(sums - target)
    err[~mask] = 0.0
    worst = float(err.max())
    if worst > ADDITIVITY_TOL:
        i, j = np.unravel_index(np.argmax(err), err.shape)
        x = samples.point(int(idx[i]))
        y = samples.point(int(idx[j]))
        raise ValueError(
            f"samples are not additive: h({x}) + h({y}) differs from "
            f"h({x + y}) by {worst:.3e} (tolerance {ADDITIVITY_TOL:.0e})"
        )


def extend_additive(samples: AdditiveSamples, doublings: int) -> AdditiveSamples:
    """Extend additive samples from (0, n) to (0, 2^doublings * n).

    Each new point k*q in [n, 2n) is defined as h(x) + h(y) for a
    decomposition k*q = x + y into already-defined grid points;
    well-posedness is verified by comparing up to three distinct
    decompositions, which must agree within the additivity tolerance.
    """
    if doublings < 1 or doublings != int(doublings):
        raise ValueError(f"doublings must be a positive integer, got {doublings}")
    _check_additive(samples)
    step = samples.step
    bound = samples.bound
    vals = list(samples.values)
    for _ in range(int(doublings)):
        bound = 2 * bound
        kmax_new = _last_index(step, bound)
        for k in range(len(vals) + 1, kmax_new + 1):
            defined = len(vals)
            i_lo = max(1, k - defined)
            i_hi = min(defined, k - 1)
            candidates = sorted({i_lo, (i_lo + i_hi) // 2, i_hi})
            sums = [vals[i - 1] + vals[k - i - 1] for i in candidates]
            spread = max(sums) - min(sums)
            if spread > ADDITIVITY_TOL:
                pairs = [(samples.point(i), samples.point(k - i)) for i in candidates]
                raise ValueError(
                    f"decomposition disagreement at {k * step}: "
                    f"candidates {pairs} differ by {spread:.3e}"
                )
            vals.append(sums[0])
    return AdditiveSamples(step, bound, np.array(vals))


def additive_slope(samples: AdditiveSamples) -> float:
    """Least-squares slope through the origin of h(kq) against kq."""
    xs = np.array([float(samples.point(k)) for k in range(1, samples.kmax + 1)])
    return float(np.dot(xs, samples.values) / np.dot(xs, xs))
