"""Riesz potential as a Fourier multiplier on periodic grids.

Mean-zero trigonometric polynomials on the unit torus stand in for test
functions on the whole space: mode k carries frequency xi = 2*pi*k, every
nonzero mode is multiplied by |xi|^(-alpha), and the zero mode is pinned to
0 (which is why the input must have negligible mean). One route of real FFTs
on the half spectrum serves all input: complex input is taken as two real
samples, its real and imaginary parts, and real input comes back exactly
real. log|xi| is tabulated once per grid, so each call costs one forward and
one inverse transform per part. ``composition_residual`` checks the law
I^b I^a = I^(a+b) with one forward transform of its sample and one of each
first step I^a f, one inverse per first step and one per compared pair, of
the spectral difference m_b F[I^a f] - m_(a+b) F[f]: 5 ``rfftn`` and 20
``irfftn`` for 4 orders on a real 3D sample.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

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
    if len(set(shape)) > 1:
        raise ValueError(f"periodic grids need equal extents per axis, got {shape}")
    # 0-d input gets dimension 0, which the grid rejects before its mode count
    return PeriodicGridND(values.ndim, shape[0] if shape else 0)


@functools.lru_cache(maxsize=8)
def _log_xi(grid: PeriodicGridND) -> np.ndarray:
    """log|xi| on the ``rfftn`` half spectrum, +inf at the zero mode so that exp(-alpha * .) is 0.

    Index M/2 of the last axis holds k = -M/2 of the full layout, of equal modulus.
    """
    xi = grid.xi_norm()[..., : grid.modes // 2 + 1]
    table = np.full(xi.shape, np.inf)
    nz = xi > 0.0
    table[nz] = np.log(xi[nz])
    table.flags.writeable = False
    return table


def _transform(values: np.ndarray) -> tuple[PeriodicGridND, list[np.ndarray]]:
    """Check that ``values`` is a finite, mean-zero periodic sample; ``rfftn`` each part."""
    values = np.asarray(values)
    grid = _grid_for(values)
    real = np.isrealobj(values)
    values = values.astype(np.float64 if real else np.complex128, copy=False)
    finite = np.isfinite(values)
    if not finite.all():
        idx = tuple(int(i) for i in np.argwhere(~finite)[0])
        raise ValueError(f"non-finite sample at index {idx}")
    mean = values.mean()
    if abs(mean) >= MEAN_TOL:
        raise ValueError(
            f"input mean {complex(mean)} exceeds {MEAN_TOL}; the zero mode would be ill-defined"
        )
    parts = (values,) if real else (values.real, values.imag)
    return grid, [np.fft.rfftn(part) for part in parts]


def _check_order(alpha: float, dim: int) -> None:
    if not 0.0 < alpha < dim:  # also rejects NaN
        raise ValueError(f"order must lie in (0, {dim}), got {alpha}")


def _potential(alpha: float, grid: PeriodicGridND, spectra: list[np.ndarray]) -> np.ndarray:
    """Multiply each part's spectrum by |xi|^(-alpha), zero mode 0, and transform back."""
    _check_order(alpha, grid.dim)
    mult = np.exp(-alpha * _log_xi(grid))
    axes = tuple(range(grid.dim))
    parts = [np.fft.irfftn(coeffs * mult, s=grid.shape, axes=axes) for coeffs in spectra]
    if len(parts) == 1:
        return parts[0]
    out = np.empty(grid.shape, dtype=np.complex128)
    out.real, out.imag = parts
    return out


def riesz_potential(alpha: float, values: np.ndarray) -> np.ndarray:
    """Multiply every nonzero mode of ``values`` by |xi|^(-alpha).

    Requires 0 < alpha < n and finite input whose mean is below 1e-10 in
    modulus; the zero mode of the output is 0. Real input returns an exactly
    real float64 array, complex input a complex128 one whose real and
    imaginary parts are the potentials of the input's parts.
    """
    return _potential(alpha, *_transform(values))


def composition_residual(alpha_grid: Sequence[float], values: np.ndarray) -> float:
    """Largest pointwise |I^b(I^a f) - I^(a+b) f| over grid orders a, b with a + b < n.

    Every order must lie in (0, n); one outside is rejected before any
    transform. One forward transform F of f serves every first step I^a f,
    which makes a full round trip: it is inverted, checked and transformed
    again into F_a, so the second step acts on the operator's output. The
    inverse transform is linear, so the residual of the pair (a, b) is read
    from one inverse of the spectral difference m_b F_a - m_(a+b) F, with
    m_s = |xi|^(-s) as in ``riesz_potential``. F_a is freed when the loop
    over its partners b ends, and an order without a partner is never
    transformed. With no pair in range the residual is 0.
    """
    return max((r for _, _, r in _pair_residuals(alpha_grid, values)), default=0.0)


def _pair_residuals(
    alpha_grid: Sequence[float], values: np.ndarray
) -> Iterator[tuple[float, float, float]]:
    """Yield (a, b, residual) for every in-range pair of distinct grid orders, a outermost."""
    grid = _grid_for(np.asarray(values))
    for a in alpha_grid:
        _check_order(a, grid.dim)
    orders = list(dict.fromkeys(alpha_grid))  # a repeated order adds no pair
    _, spectra = _transform(values)
    log_xi = _log_xi(grid)
    axes = tuple(range(grid.dim))
    for a in orders:
        partners = [b for b in orders if a + b < grid.dim]
        if not partners:
            continue
        _, first = _transform(_potential(a, grid, spectra))
        for b in partners:
            mult_b = np.exp(-b * log_xi)
            mult_sum = np.exp(-(a + b) * log_xi)
            parts = [np.fft.irfftn(first_spec * mult_b - spec * mult_sum, s=grid.shape, axes=axes)
                     for first_spec, spec in zip(first, spectra)]
            # a complex sample's residual is the modulus of its two parts' residuals
            mod = np.abs(parts[0], out=parts[0]) if len(parts) == 1 else np.hypot(*parts)
            yield a, b, float(mod.max())
        del first  # only one first-step spectrum is alive at a time


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

