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
the spectral difference m_b F[I^a f] - m_(a+b) F[f]: 5 forward and 20
inverse transforms for 4 orders on a real 3D sample.

Every transform writes into arrays its caller passes. ``np.fft.rfftn``
makes all of its passes in its ``out``, but ``np.fft.irfftn`` hands each
pass but the last a new array, and at 3D/64 each of those 2 MiB arrays was
mapped anew, about 1,000 page faults per transform; ``_inverse`` makes the
same passes in place instead. So ``composition_residual`` allocates its
workspace once per call, and its loops allocate no array of transform size
but the boolean mask of each first step's finiteness check.
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


def _parts(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """The real parts of a sample: itself if real, else views of its real and imaginary parts."""
    return (values,) if np.isrealobj(values) else (values.real, values.imag)


def _transform(
    values: np.ndarray, out: Sequence[np.ndarray] | None = None
) -> tuple[PeriodicGridND, list[np.ndarray]]:
    """Check that ``values`` is a finite, mean-zero periodic sample; ``rfftn`` each part.

    Each part's half spectrum is written into its array of ``out``, or into a
    new one; ``rfftn`` makes every pass in its ``out``.
    """
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
    parts = _parts(values)
    out = out or [None] * len(parts)
    return grid, [np.fft.rfftn(part, out=spec) for part, spec in zip(parts, out)]


def _inverse(spectrum: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.fft.irfftn``'s passes without its new arrays: ``spectrum`` is overwritten.

    Each leading axis's ``ifft`` runs in place, then the last axis's
    ``irfft`` writes into the real array ``out``.
    """
    for axis in range(spectrum.ndim - 1):
        np.fft.ifft(spectrum, axis=axis, out=spectrum)
    return np.fft.irfft(spectrum, n=out.shape[-1], axis=-1, out=out)


def _check_order(alpha: float, dim: int) -> None:
    if not 0.0 < alpha < dim:  # also rejects NaN
        raise ValueError(f"order must lie in (0, {dim}), got {alpha}")


def _multiplier(alpha: float, log_xi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|xi|^(-alpha) on the half spectrum, 0 at the zero mode, written into ``out``."""
    return np.exp(np.multiply(log_xi, -alpha, out=out), out=out)


def _potential(
    alpha: float,
    grid: PeriodicGridND,
    spectra: list[np.ndarray],
    out: np.ndarray,
    mult: np.ndarray,
    work: np.ndarray,
) -> np.ndarray:
    """Write the potential of the sample whose parts' spectra are ``spectra`` into ``out``.

    Each spectrum is multiplied by |xi|^(-alpha), zero mode 0, and
    transformed back into its part of ``out`` (real for one part, complex for
    two). ``mult`` and ``work`` are real and complex half-spectrum scratch.
    """
    _check_order(alpha, grid.dim)
    _multiplier(alpha, _log_xi(grid), mult)
    for coeffs, part in zip(spectra, _parts(out)):
        _inverse(np.multiply(coeffs, mult, out=work), part)
    return out


def riesz_potential(alpha: float, values: np.ndarray) -> np.ndarray:
    """Multiply every nonzero mode of ``values`` by |xi|^(-alpha).

    Requires 0 < alpha < n and finite input whose mean is below 1e-10 in
    modulus; the zero mode of the output is 0. Real input returns an exactly
    real float64 array, complex input a complex128 one whose real and
    imaginary parts are the potentials of the input's parts.
    """
    grid, spectra = _transform(values)
    out = np.empty(grid.shape, dtype=np.float64 if len(spectra) == 1 else np.complex128)
    work = np.empty_like(spectra[0])
    return _potential(alpha, grid, spectra, out, np.empty(work.shape), work)


def composition_residual(alpha_grid: Sequence[float], values: np.ndarray) -> float:
    """Largest pointwise |I^b(I^a f) - I^(a+b) f| over grid orders a, b with a + b < n.

    Every order must lie in (0, n); one outside is rejected before any
    transform. One forward transform F of f serves every first step I^a f,
    which makes a full round trip: it is inverted, checked and transformed
    again into F_a, so the second step acts on the operator's output. The
    inverse transform is linear, so the residual of the pair (a, b) is read
    from one inverse of the spectral difference m_b F_a - m_(a+b) F, with
    m_s = |xi|^(-s) as in ``riesz_potential``. An order without a partner is
    never transformed. With no pair in range the residual is 0.

    Every array of transform size is allocated once per call, before the
    loops: F and F_a per part, the two multipliers, two complex scratch
    spectra and the physical output. Each transform writes into one of
    them; ``np.fft.irfftn`` would give each of its leading passes a new
    array, which at 3D/64 made every transform map about 1,000 fresh pages.
    So the peak does not grow with the number of orders.
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
    first = [np.empty_like(spec) for spec in spectra]
    work, product = np.empty_like(spectra[0]), np.empty_like(spectra[0])
    mult_b, mult_sum = np.empty(log_xi.shape), np.empty(log_xi.shape)
    real = len(spectra) == 1
    step = np.empty(grid.shape, dtype=np.float64 if real else np.complex128)
    for a in orders:
        partners = [b for b in orders if a + b < grid.dim]
        if not partners:
            continue
        _transform(_potential(a, grid, spectra, step, mult_b, work), first)
        for b in partners:
            _multiplier(b, log_xi, mult_b)
            _multiplier(a + b, log_xi, mult_sum)
            for first_spec, spec, part in zip(first, spectra, _parts(step)):
                np.multiply(first_spec, mult_b, out=work)
                np.subtract(work, np.multiply(spec, mult_sum, out=product), out=work)
                _inverse(work, part)
            # a complex sample's residual is the modulus of its two parts' residuals
            mod = np.abs(step, out=step) if real else np.hypot(step.real, step.imag, out=step.real)
            yield a, b, float(mod.max())


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

