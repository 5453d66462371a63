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
inverse transforms for 4 orders on a real 3D sample. The multiplier check
``_judge_multiplier`` judges a table, which ``riesz-check`` fills with the
``_multiplier`` values this module applies, not with a formula for them.

Only spectra are held whole. Multipliers and spectral products are made in
slabs along axis 0, about ``_SLAB_BYTES`` of spectrum each so that they stay
in L2, and a physical sample inside the check exists one slab at a time. An
n-D inverse runs its leading-axis ``ifft`` passes in place on the whole
spectrum, then its last-axis ``irfft`` slab by slab; a first step's forward
transform writes each slab's last-axis ``rfft`` straight into its spectrum,
then runs the leading-axis ``fft`` passes in ``np.fft.rfftn``'s order. Each
1D pass does the same arithmetic on each line as numpy's n-D calls, so the
results are theirs bit for bit, while no pass maps a fresh transform-size
array (``np.fft.irfftn`` gives each leading pass a new one).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

MEAN_TOL = 1e-10
MULT_TOL = 1e-9  # log-scale slack of the product law m(a+b) = m(a) m(b)
_SLAB_BYTES = 256 * 1024  # complex half spectrum per slab


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

    Built in place in one half-spectrum array. The last axis takes
    k = 0..M/2-1 and then -M/2, which index M/2 of ``rfftn``'s output holds;
    the squares are integers, so their sum is exact in any order.
    """
    k = grid.integer_modes()
    axes = [k] * (grid.dim - 1) + [k[: grid.modes // 2 + 1]]
    table = np.zeros(tuple(len(axis) for axis in axes))
    for m in np.meshgrid(*axes, indexing="ij", sparse=True):
        table += m ** 2
    np.sqrt(table, out=table)
    table *= 2.0 * math.pi
    with np.errstate(divide="ignore"):  # log 0 at the zero mode, set to +inf below
        np.log(table, out=table)
    table[(0,) * grid.dim] = np.inf
    table.flags.writeable = False
    return table


def _parts(values: np.ndarray) -> tuple[np.ndarray, ...]:
    """The real parts of a sample: itself if real, else views of its real and imaginary parts."""
    return (values,) if np.isrealobj(values) else (values.real, values.imag)


def _rows(a: np.ndarray) -> np.ndarray:
    """``a`` with axis 0 as its slab axis: a 1D line gets a leading axis of length 1."""
    return a if a.ndim > 1 else a[None]


def _check_finite(parts: Sequence[np.ndarray], shape: tuple[int, ...], offset: int = 0) -> None:
    """Raise naming the first index at which a part is not finite.

    ``parts`` hold the entries of a sample of ``shape`` from flat index ``offset`` on.
    """
    finite = functools.reduce(np.logical_and, [np.isfinite(part) for part in parts])
    if not finite.all():
        idx = np.unravel_index(offset + int(np.flatnonzero(~finite)[0]), shape)
        raise ValueError(f"non-finite sample at index {tuple(int(i) for i in idx)}")


def _check_mean(mean: complex) -> None:
    if abs(mean) >= MEAN_TOL:
        raise ValueError(
            f"input mean {complex(mean)} exceeds {MEAN_TOL}; the zero mode would be ill-defined"
        )


def _transform(values: np.ndarray) -> list[np.ndarray]:
    """Check that ``values`` is a finite, mean-zero periodic sample; ``rfftn`` each part.

    The half spectra are returned in ``_rows`` form.
    """
    real = np.isrealobj(values)
    values = values.astype(np.float64 if real else np.complex128, copy=False)
    _check_finite(_parts(values), values.shape)
    _check_mean(values.mean())
    return [_rows(np.fft.rfftn(part)) for part in _parts(values)]


def _check_order(alpha: float, dim: int) -> None:
    if not 0.0 < alpha < dim:  # also rejects NaN
        raise ValueError(f"order must lie in (0, {dim}), got {alpha}")


def _multiplier(alpha: float, log_xi: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|xi|^(-alpha) on the half spectrum, 0 at the zero mode, written into ``out``."""
    return np.exp(np.multiply(log_xi, -alpha, out=out), out=out)


class _Slabs:
    """The slabs along axis 0 of a grid's half spectrum in ``_rows`` form, and their scratch.

    A slab holds about ``_SLAB_BYTES`` of complex spectrum, at least one
    row; a 1D line is one slab, since its one axis is the transforms' last.
    Each scratch array holds one slab: two multipliers, a product and a
    physical slab per part of the sample.
    """

    def __init__(self, grid: PeriodicGridND, parts: int):
        self.grid = grid
        self.parts = parts
        self.log_xi = _rows(_log_xi(grid))
        rows = len(self.log_xi)
        step = min(rows, max(1, _SLAB_BYTES // (16 * self.log_xi[0].size)))
        self.slices = [slice(i, min(i + step, rows)) for i in range(0, rows, step)]
        self.mult = np.empty((2, step) + self.log_xi.shape[1:])

    @functools.cached_property
    def product(self) -> np.ndarray:
        return np.empty(self.mult.shape[1:], dtype=np.complex128)

    @functools.cached_property
    def physical(self) -> np.ndarray:
        return np.empty((self.parts,) + self.mult.shape[1:-1] + (self.grid.modes,))


def _products(
    slabs: _Slabs,
    out: Sequence[np.ndarray],
    s: float,
    spectra: Sequence[np.ndarray],
    t: float = 0.0,
    minus: Sequence[np.ndarray] | None = None,
) -> None:
    """Write m_s G, less m_t H if ``minus`` holds H, into ``out``: per part, slab by slab.

    G runs over ``spectra``, H over ``minus``; m_s = |xi|^(-s) as in
    ``riesz_potential``. ``out`` may be ``spectra``.
    """
    for sl in slabs.slices:
        k = sl.stop - sl.start
        m_s = _multiplier(s, slabs.log_xi[sl], slabs.mult[0, :k])
        if minus is not None:
            m_t = _multiplier(t, slabs.log_xi[sl], slabs.mult[1, :k])
        for part, (g, o) in enumerate(zip(spectra, out)):
            o = np.multiply(g[sl], m_s, out=o[sl])
            if minus is not None:
                np.subtract(o, np.multiply(minus[part][sl], m_t, out=slabs.product[:k]), out=o)


def _inverse(
    slabs: _Slabs, spectra: Sequence[np.ndarray], out: Sequence[np.ndarray] | None = None
) -> Iterator[tuple[slice, list[np.ndarray]]]:
    """Yield (slab, parts) of the inverse transforms of ``spectra``, which are overwritten.

    Each leading axis's ``ifft`` runs in place on the whole spectrum; then
    each slab's last-axis ``irfft`` writes into that slab of ``out``, one
    array in ``_rows`` form per part, or into the physical slab scratch.
    """
    for spec in spectra:
        for axis in range(slabs.grid.dim - 1):
            np.fft.ifft(spec, axis=axis, out=spec)
    for sl in slabs.slices:
        dest = slabs.physical[:, : sl.stop - sl.start] if out is None else [o[sl] for o in out]
        yield sl, [
            np.fft.irfft(spec[sl], n=slabs.grid.modes, axis=-1, out=d)
            for spec, d in zip(spectra, dest)
        ]


def _forward_slab(
    grid: PeriodicGridND, sl: slice, parts: Sequence[np.ndarray], spectra: Sequence[np.ndarray]
) -> None:
    """Check the slab ``sl`` of a first step's parts, then ``rfft`` it into ``spectra``'s slab."""
    _check_finite(parts, grid.shape, sl.start * parts[0][0].size)
    for part, spec in zip(parts, spectra):
        np.fft.rfft(part, axis=-1, out=spec[sl])


def _first_step(
    slabs: _Slabs,
    a: float,
    spectra: Sequence[np.ndarray],
    first: Sequence[np.ndarray],
    work: Sequence[np.ndarray],
) -> None:
    """Write F[I^a f] into ``first`` from a full round trip of I^a f.

    m_a F is made in ``work`` and inverted; each slab of I^a f is checked
    and transformed along the last axis into ``first`` (``_forward_slab``),
    whose leading axes then take their ``fft`` passes in ``np.fft.rfftn``'s
    order. So the second step acts on the operator's output.
    """
    _products(slabs, work, a, spectra)
    for sl, parts in _inverse(slabs, work):
        _forward_slab(slabs.grid, sl, parts, first)
    for spec in first:
        for axis in reversed(range(slabs.grid.dim - 1)):
            np.fft.fft(spec, axis=axis, out=spec)
    # the zero mode of each part's spectrum is the part's sum
    sums = (spec[(0,) * spec.ndim].real for spec in first)
    _check_mean(complex(*sums) / math.prod(slabs.grid.shape))


def riesz_potential(alpha: float, values: np.ndarray) -> np.ndarray:
    """Multiply every nonzero mode of ``values`` by |xi|^(-alpha).

    Requires 0 < alpha < n and finite input whose mean is below 1e-10 in
    modulus; the zero mode of the output is 0. Real input returns an exactly
    real float64 array, complex input a complex128 one whose real and
    imaginary parts are the potentials of the input's parts.
    """
    values = np.asarray(values)
    grid = _grid_for(values)
    _check_order(alpha, grid.dim)
    slabs = _Slabs(grid, len(_parts(values)))
    spectra = _transform(values)
    out = np.empty(grid.shape, dtype=np.float64 if len(spectra) == 1 else np.complex128)
    _products(slabs, spectra, alpha, spectra)
    for _ in _inverse(slabs, spectra, [_rows(part) for part in _parts(out)]):
        pass  # each slab is written into ``out``
    return out


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

    Three spectra per part of f are allocated once per call, before the
    loops: F, F_a and one scratch spectrum that takes each product and its
    inverse's leading passes. Everything else is one slab: the multipliers,
    the products' scratch, and each slab of I^a f or of a pair's residual,
    which is transformed or reduced to a running max as soon as its
    ``irfft`` writes it. So the peak, about 3.4 half spectra for real f at
    3D/64, does not grow with the number of orders.
    """
    return max((r for _, _, r in _pair_residuals(alpha_grid, values)), default=0.0)


def _pair_residuals(
    alpha_grid: Sequence[float], values: np.ndarray
) -> Iterator[tuple[float, float, float]]:
    """Yield (a, b, residual) for every in-range pair of distinct grid orders, a outermost."""
    values = np.asarray(values)
    grid = _grid_for(values)
    for a in alpha_grid:
        _check_order(a, grid.dim)
    orders = list(dict.fromkeys(alpha_grid))  # a repeated order adds no pair
    slabs = _Slabs(grid, len(_parts(values)))  # tabulates log|xi| before F exists
    spectra = _transform(values)
    first = [np.empty_like(spec) for spec in spectra]
    work = [np.empty_like(spec) for spec in spectra]
    for a in orders:
        partners = [b for b in orders if a + b < grid.dim]
        if not partners:
            continue
        _first_step(slabs, a, spectra, first, work)
        for b in partners:
            _products(slabs, work, b, first, a + b, spectra)
            worst = 0.0
            for _, parts in _inverse(slabs, work):
                # a complex sample's residual is the modulus of its two parts' residuals
                if len(parts) == 1:
                    mod = np.abs(parts[0], out=parts[0])
                else:
                    mod = np.hypot(*parts, out=parts[0])
                worst = max(worst, float(mod.max()))
            yield a, b, worst


def _judge_multiplier(
    alpha_grid: Sequence[float],
    anchor: float,
    dim: int,
    points: np.ndarray,
    table: Mapping[float, np.ndarray],
) -> dict:
    """Judge a table of a multiplier m(alpha, p) against p^(-alpha) and the product law.

    ``table`` maps every grid order, and every sum a + b < ``dim`` of two
    grid orders, to the row m(order, p) over the positive ``points``. Every
    grid order must lie in (0, ``dim``), the anchor on the grid, and every
    entry must be positive. Returned are ``max_residual``, the worst relative
    deviation from p^(-alpha) over the grid orders; ``anchor_violation``,
    that deviation at the anchor order; and ``multiplicative``, whether
    log m(a+b) = log m(a) + log m(b) holds within ``MULT_TOL`` at every
    point for every in-range pair.
    """
    alphas = [float(a) for a in alpha_grid]
    if len(alphas) < 3:
        raise ValueError(f"need at least 3 orders, got {len(alphas)}")
    for a in alphas:
        _check_order(a, dim)
    if not any(math.isclose(a, anchor) for a in alphas):
        raise ValueError(f"anchor {anchor} is not on the order grid")
    pairs = [(a, b) for i, a in enumerate(alphas) for b in alphas[i:] if a + b < dim]
    if not pairs:
        raise ValueError(
            f"no order pairs with alpha + beta below {dim}; the product law "
            "cannot be exercised on this grid"
        )
    for a, row in table.items():
        if not np.all(row > 0.0):  # also rejects NaN
            raise ValueError(f"nonpositive multiplier at alpha={a}")
    logs = {a: np.log(row) for a, row in table.items()}
    multiplicative = all(
        bool(np.all(np.abs(logs[a + b] - logs[a] - logs[b]) <= MULT_TOL)) for a, b in pairs
    )
    avec = np.array(alphas)
    exact = points ** -avec[:, None]
    rel = (np.abs(np.array([table[a] for a in alphas]) - exact) / exact).max(axis=1)
    return {
        "max_residual": float(rel.max()),
        "anchor_violation": float(rel[np.argmin(np.abs(avec - anchor))]),
        "multiplicative": multiplicative,
    }
