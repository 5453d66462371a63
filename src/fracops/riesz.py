"""Riesz potential as a Fourier multiplier on periodic grids.

Mean-zero trigonometric polynomials on the unit torus stand in for test
functions on the whole space: mode k carries frequency xi = 2*pi*k, every
nonzero mode is multiplied by |xi|^(-alpha), and the zero mode is pinned to
0 (which is why the input must have negligible mean).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

MEAN_TOL = 1e-10
MULT_TOL = 1e-9  # log-scale slack of the product law m(a+b) = m(a) m(b)


@dataclass(frozen=True)
class PeriodicGridND:
    """Unit-period grid, M modes per axis (M even, >= 4), n in {1, 2, 3}."""

    dim: int
    modes: int

    def __post_init__(self):
        if not 1 <= self.dim <= 3:
            raise ValueError(f"dimension must be 1..3, got {self.dim}")
        if self.modes < 4 or self.modes % 2 != 0:
            raise ValueError(f"mode count must be even and >= 4, got {self.modes}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.modes,) * self.dim

    def axis_nodes(self) -> np.ndarray:
        return np.arange(self.modes) / self.modes

    def integer_modes(self) -> np.ndarray:
        # fftfreq with d = 1/M yields the integers 0..M/2-1, -M/2..-1
        return np.fft.fftfreq(self.modes, d=1.0 / self.modes)

    def xi_norm(self) -> np.ndarray:
        """Euclidean norm of the frequency tuple xi = 2*pi*k at every mode."""
        k = self.integer_modes()
        mesh = np.meshgrid(*([k] * self.dim), indexing="ij", sparse=True)
        sq = sum(m ** 2 for m in mesh)
        return 2.0 * math.pi * np.sqrt(sq)


def _grid_for(values: np.ndarray) -> PeriodicGridND:
    shape = values.shape
    if len(set(shape)) != 1:
        raise ValueError(f"periodic grids need equal extents per axis, got {shape}")
    return PeriodicGridND(values.ndim, shape[0])


def riesz_potential(alpha: float, values: np.ndarray) -> np.ndarray:
    """Multiply every nonzero mode of ``values`` by |xi|^(-alpha).

    Requires 0 < alpha < n and an input mean below 1e-10 in modulus; the
    zero mode of the output is set to 0. Real input stays real up to
    rounding (the multiplier is even and real).
    """
    values = np.asarray(values, dtype=np.complex128)
    grid = _grid_for(values)
    n = grid.dim
    if not 0.0 < alpha < n:
        raise ValueError(f"order must lie in (0, {n}), got {alpha}")
    mean = complex(values.mean())
    if abs(mean) >= MEAN_TOL:
        raise ValueError(
            f"input mean {mean} exceeds {MEAN_TOL}; the zero mode would be ill-defined"
        )
    xi = grid.xi_norm()
    mult = np.zeros_like(xi)
    nz = xi > 0.0
    mult[nz] = xi[nz] ** (-alpha)
    return np.fft.ifftn(np.fft.fftn(values) * mult)


@dataclass(frozen=True)
class MultiplierFamily:
    """Positive multiplier evaluation m(alpha, xi) with an anchor order."""

    dim: int
    evaluate: Callable[[float, np.ndarray], float]
    anchor: float


def exact_riesz_family(dim: int, anchor: float) -> MultiplierFamily:
    return MultiplierFamily(
        dim, lambda a, xi: float(np.linalg.norm(xi) ** (-a)), anchor
    )


@dataclass(frozen=True)
class MultiplierCheckReport:
    """Outcome of the restricted-domain multiplier-family check."""

    xi_grid: tuple
    slopes: np.ndarray = field(repr=False)
    max_residual: float
    anchor_violation: float
    multiplicative: bool
    violation: tuple | None


def multiplier_family_check(
    fam: MultiplierFamily,
    alpha_grid: Sequence[float],
    xi_grid: Sequence,
) -> MultiplierCheckReport:
    """Check a multiplier family against the exact |xi|^(-alpha) behavior.

    Verifies the restricted-domain product law m(a+b) = m(a) m(b) in log
    scale for every in-range pair of grid orders, fits log m = d(xi) * alpha
    per frequency, and measures the anchor deviation at the family's anchor
    order. Residuals are relative to |xi|^(-alpha).
    """
    n = fam.dim
    alphas = [float(a) for a in alpha_grid]
    if len(alphas) < 3:
        raise ValueError(f"need at least 3 orders, got {len(alphas)}")
    for a in alphas:
        if not 0.0 < a < n:
            raise ValueError(f"order {a} outside (0, {n})")
    if not any(math.isclose(a, fam.anchor) for a in alphas):
        raise ValueError(f"anchor {fam.anchor} is not on the order grid")
    xis = [np.atleast_1d(np.asarray(x, dtype=np.float64)) for x in xi_grid]
    for x in xis:
        if x.shape != (n,) or not np.linalg.norm(x) > 0.0:
            raise ValueError(f"frequency {x} must be a nonzero {n}-vector")

    in_range_pairs = [
        (a, b) for i, a in enumerate(alphas) for b in alphas[i:] if a + b < n
    ]
    if not in_range_pairs:
        raise ValueError(
            f"no order pairs with alpha + beta below {n}; the product law "
            "cannot be exercised on this grid"
        )
    avec = np.array(alphas)
    scaled = avec / avec.max()  # keeps the slope's normal equation clear of underflow
    slopes = np.empty(len(xis))
    max_residual = 0.0
    anchor_violation = 0.0
    violation = None
    for j, xi in enumerate(xis):
        norm = float(np.linalg.norm(xi))
        m = np.array([fam.evaluate(a, xi) for a in alphas])
        if np.any(m <= 0.0):
            k = int(np.nonzero(m <= 0.0)[0][0])
            raise ValueError(f"nonpositive multiplier at alpha={alphas[k]}, xi={xi}")
        logs = np.log(m)
        log_at = dict(zip(alphas, logs))
        for a, b in in_range_pairs:
            dev = abs(math.log(fam.evaluate(a + b, xi)) - log_at[a] - log_at[b])
            if dev > MULT_TOL and violation is None:
                violation = (a, b, tuple(xi), dev)
        slopes[j] = float(np.dot(scaled, logs) / np.dot(scaled, avec))
        rel = np.abs(m - norm ** (-avec)) / norm ** (-avec)
        max_residual = max(max_residual, float(rel.max()))
        ia = int(np.argmin(np.abs(avec - fam.anchor)))
        anchor_violation = max(anchor_violation, float(rel[ia]))
    return MultiplierCheckReport(
        xi_grid=tuple(tuple(x) for x in xis),
        slopes=slopes,
        max_residual=max_residual,
        anchor_violation=anchor_violation,
        multiplicative=violation is None,
        violation=violation,
    )

