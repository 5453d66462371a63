"""Fractional-order integral of Riemann-Liouville type in one dimension.

The operator

    (I_a^alpha f)(t) = (1/Gamma(alpha)) * integral_a^t (t - s)^(alpha-1) f(s) ds

is discretized by product integration: on every subinterval f is replaced by
its piecewise-linear interpolant and the kernel moments

    integral (t - s)^(alpha-1) * {1, s - t_j} ds

are integrated exactly on the cell that holds the weak singularity at
s = t and by Gauss-Legendre on the smooth cells farther away. The weights
depend only on node distance, so on a uniform grid the integral is a
lower-triangular Toeplitz matrix applied to the samples; ``_sweep`` applies
it as one GEMM per block lag. Consequences used throughout the test suite,
each holding by construction:

* at alpha = 1 the integral is a ``cumsum`` of the subinterval trapezoids,
  so it agrees with the composite trapezoid rule bit-for-bit;
* all weights are nonnegative and every product is weight times sample, so
  nonnegative inputs give nonnegative outputs exactly;
* the value at the left endpoint is 0 for every alpha > 0 (empty integral).

The module also carries a small catalog of operator families built on top of
this integral. Each family is a named (order, function) -> function map with
a declared profile of which semigroup axioms it is expected to satisfy; the
non-conforming ones are classic counterexamples (order rescalings, a scalar
2^alpha, a unit-modulus phase), each violating exactly one axiom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import SampledFunction1D

ORDER_CAP = 20.0  # largest accepted order; keeps Gamma well inside range


def _check_order(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= ORDER_CAP:
        raise ValueError(f"fractional order must lie in (0, {ORDER_CAP:g}], got {alpha}")
    return alpha


def rl_kernel(alpha: float, tau: float) -> float:
    """Convolution kernel tau^(alpha-1)/Gamma(alpha); requires tau > 0."""
    alpha = _check_order(alpha)
    if tau <= 0.0:
        raise ValueError(f"kernel argument must be positive, got tau={tau}")
    return tau ** (alpha - 1.0) / math.gamma(alpha)


def _gauss_legendre(
    half_nodes: tuple[float, ...], half_weights: tuple[float, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule on [0, 1] from the positive half of the symmetric rule on [-1, 1]."""
    x = np.array(half_nodes)
    w = np.array(half_weights)
    return 0.5 * (np.concatenate((-x[::-1], x)) + 1.0), 0.5 * np.concatenate((w[::-1], w))


# cell d spans x in [d-1, d], d - 1 cells from the kernel singularity at
# x = 0: 16 points reach rounding from d = 2, 8 points from d = 5. The values
# are those of numpy.polynomial.legendre.leggauss, written out because
# importing numpy.polynomial costs about 2 MB of resident memory.
_NEAR_RULE = _gauss_legendre(
    (0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
     0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499),
    (0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
     0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176),
)
_FAR_RULE = _gauss_legendre(
    (0.18343464249564978, 0.525532409916329, 0.7966664774136267, 0.9602898564975362),
    (0.36268378337836166, 0.3137066458778869, 0.22238103445337443, 0.10122853629037706),
)
_NEAR_CELLS = 3  # d = 2..4


def _power_cell_moments(
    alpha: float, d: np.ndarray, rule: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Integrals of x^(alpha-1) * (x - (d-1)) and x^(alpha-1) * (d - x) over [d-1, d]."""
    nodes, weights = rule
    # in place: one n x len(nodes) temporary instead of two
    kern = d[:, None] - 1.0 + nodes
    kern **= alpha - 1.0
    kern *= weights
    return kern @ nodes, kern @ (1.0 - nodes)


def product_quadrature_weights(alpha: float, h: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Left/right node weights against the kernel, indexed by node distance d = 1..n.

    wl[d-1] weighs f(t_j) and wr[d-1] weighs f(t_{j+1}) on the subinterval at
    distance d = m - j from the evaluation node t_m. In the scaled variable
    x = (t_m - s)/h they are h^alpha/Gamma(alpha) times the integrals of
    x^(alpha-1) * (x - (d-1)) and x^(alpha-1) * (d - x) over [d-1, d].

    The cell d = 1 holds the singularity and has the exact moments
    1/(alpha+1) and 1/(alpha*(alpha+1)); the others use Gauss-Legendre on
    the smooth integrand, a sum of positive terms, so no digits are lost to
    cancellation: the relative error stays near 1e-15 for every accepted
    order and distance. At alpha = 1 both weights are h/2 exactly. Both
    arrays are positive.
    """
    if alpha == 1.0:
        w = np.full(n, 0.5 * h)
        return w, w.copy()
    d = np.arange(2, n + 1, dtype=np.float64)
    near_l, near_r = _power_cell_moments(alpha, d[:_NEAR_CELLS], _NEAR_RULE)
    far_l, far_r = _power_cell_moments(alpha, d[_NEAR_CELLS:], _FAR_RULE)
    try:
        scale = float(h) ** alpha / math.gamma(alpha)
    except OverflowError:
        raise ValueError(f"step^order overflows at order {alpha} and step {h}") from None
    wl = np.concatenate(([1.0 / (alpha + 1.0)], near_l, far_l))
    wr = np.concatenate(([1.0 / (alpha * (alpha + 1.0))], near_r, far_r))
    return scale * wl, scale * wr


def _block_size(n: int) -> int:
    """Toeplitz block edge for n nodes: one block up to 128 nodes, then 128, and 256 from 32768.

    Timed on one core with one GEMM column per real row. At n = 16384, one
    row took 4.9 ms with 128-node blocks against 5.3 ms with 256, and two
    rows 8.1 against 8.3 ms, while 4 to 17 rows ran 3-5% faster with 256;
    at n = 32768, 4 to 17 rows ran 4-7% faster with 256. For n = 256..4096
    and 1 to 257 rows, 128 was within 9% of the fastest of 64, 128 and 256;
    sqrt(n)-sized blocks ran up to 1.5x slower, because their n/B GEMM
    calls are each too small.
    """
    if n <= 128:
        return n
    return 128 if n < 32768 else 256


@np.errstate(over="ignore", invalid="ignore")  # an overflowing result is rejected below
def _sweep(alpha: float, h: float, values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Integral of order alpha along ``axis`` of ``values`` (step h, origin at index 0).

    The caller validates alpha. Non-finite samples are rejected with a
    ``ValueError`` naming the first one's node index: a NaN or infinity times
    a zero weight would reach nodes that do not depend on it. An overflowing
    result raises one naming the order and step. Node k >= 1 enters output
    node m >= k with the Toeplitz symbol T[m-k], T[0] = wr[0] and
    T[d] = wl[d-1] + wr[d], and node 0 with the rank-1 column wl[m-1].
    Nodes 1..n are cut into B-node blocks; every block pair at the same lag L
    shares one B x B matrix M_L, so each lag is one GEMM, blocks side by
    side. Its columns are the real parts of the rows, and the imaginary parts
    enter as further columns only when some imaginary part of the batch is
    nonzero. M_L is copied out of a sliding window on the zero-padded symbol
    as its column-reversed (Hankel) form, which multiplies the block-reversed
    samples.

    What holds by construction:

    * every product is of a nonnegative weight and a sample, so nonnegative
      input gives exactly nonnegative output, zeros stay exact zeros, and
      real input keeps an exactly zero imaginary part;
    * out[0] = 0 exactly (empty integral);
    * alpha = 1 takes a ``cumsum`` of the subinterval trapezoids, the
      grouping of ``cumulative_trapezoid``, so it agrees bit-for-bit.

    Two calls on the same input give identical bits. A row swept inside a
    batch and the same row swept alone agree to rounding; bitwise equality
    is not promised, because BLAS may block a wide GEMM differently.
    """
    rows = np.moveaxis(values, axis, -1)
    n = rows.shape[-1] - 1
    flat = rows.reshape(-1, n + 1)
    r = flat.shape[0]
    # one column per part: the real parts of the r rows, then their imaginary
    # parts if any is nonzero; zero imaginary parts are finite, so checking
    # the columns checks the input
    cols = np.concatenate((flat.real, flat.imag) if flat.imag.any() else (flat.real,))
    if not np.isfinite(cols).all():
        idx = tuple(int(i) for i in np.argwhere(~np.isfinite(values))[0])
        raise ValueError(f"non-finite sample at node index {idx[0] if len(idx) == 1 else idx}")
    c = cols.shape[0]
    if alpha == 1.0:
        w = 0.5 * h
        res = np.cumsum(w * cols[:, :-1] + w * cols[:, 1:], axis=-1)
    else:
        wl, wr = product_quadrature_weights(alpha, h, n)
        b = _block_size(n)
        nb = -(-n // b)
        x = np.zeros((c, nb * b))
        x[:, :n] = cols[:, 1:]
        # xr[k, J*c + col] is node 1 + J*b + (b-1-k) of column col; for one
        # column the reshape is a negatively strided view, which BLAS cannot take
        xr = x.reshape(c, nb, b)[:, :, ::-1].transpose(2, 1, 0).reshape(b, nb * c)
        xr = np.ascontiguousarray(xr)
        symbol = np.zeros(nb * b + b - 1)
        symbol[b - 1] = wr[0]
        symbol[b:b + n - 1] = wl[:-1] + wr[1:]
        # windows[i] = symbol[i:i+b], a strided view (no copy); hankel_L is
        # windows[L*b:(L+1)*b]. numpy's sliding_window_view gives the same
        # view, but in long in-process runs a 939 KiB block allocated inside
        # it stayed alive (seen with tracemalloc).
        windows = np.ndarray((symbol.size - b + 1, b), buffer=symbol, strides=2 * symbol.strides)
        y = np.zeros((b, nb * c))
        for lag in range(nb):
            hankel = np.ascontiguousarray(windows[lag * b:(lag + 1) * b])
            y[:, lag * c:] += hankel @ xr[:, :(nb - lag) * c]
        res = y.reshape(b, nb, c).transpose(2, 1, 0).reshape(c, nb * b)[:, :n]
        res += wl * cols[:, :1]
    if not np.isfinite(res).all():
        raise ValueError(f"the order-{alpha} integral overflows at step {h}")
    out = np.zeros(rows.shape, dtype=np.complex128)
    o = out.reshape(r, n + 1)
    o.real[:, 1:] = res[:r]
    if c > r:
        o.imag[:, 1:] = res[r:]
    return np.moveaxis(out, -1, axis)


def rl_integral(alpha: float, f: SampledFunction1D) -> SampledFunction1D:
    """Fractional integral of order alpha with origin at the grid's left endpoint.

    The weights depend only on the step, so the result is translation
    invariant: moving the grid moves the output with it. A non-finite sample
    raises a ``ValueError`` naming its node index.
    """
    alpha = _check_order(alpha)
    return SampledFunction1D(f.grid, _sweep(alpha, f.grid.h, f.values))


@dataclass(frozen=True)
class AxiomProfile:
    """Expected pass/fail verdicts, True meaning the axiom should hold."""

    identity: bool
    index_law: bool
    continuity: bool
    positivity: bool


@dataclass(frozen=True)
class OperatorFamily1D:
    """A named family (order, sampled function) -> sampled function."""

    name: str
    apply: Callable[[float, SampledFunction1D], SampledFunction1D]
    expected_profile: AxiomProfile
    growth_of_one: Callable[[float], tuple[float, float]]
    """Bound (C, p) with |apply(alpha, 1)(t)| <= C * t^p for large t."""


def _rl_growth(alpha: float) -> tuple[float, float]:
    return 1.0 / math.gamma(alpha + 1.0), alpha


# each entry applies the integral it is given: (integral, alpha, f) -> function
_CATALOG: dict[str, tuple[Callable, AxiomProfile, Callable]] = {
    "riemann_liouville": (
        lambda integral, a, f: integral(a, f),
        AxiomProfile(True, True, True, True),
        _rl_growth,
    ),
    "scaled_order": (
        # order used only as a scalar on the unit-order integral
        lambda integral, a, f: _check_order(a) * integral(1.0, f),
        AxiomProfile(True, False, True, True),
        lambda a: (a, 1.0),
    ),
    "doubled_order": (
        lambda integral, a, f: integral(2.0 * _check_order(a), f),
        AxiomProfile(False, True, True, True),
        lambda a: (1.0 / math.gamma(2.0 * a + 1.0), 2.0 * a),
    ),
    "geometric": (
        lambda integral, a, f: (2.0 ** _check_order(a)) * integral(a, f),
        AxiomProfile(False, True, True, True),
        lambda a: (2.0 ** a / math.gamma(a + 1.0), a),
    ),
    "phase": (
        # unit-modulus scalar: full rotations at integer orders only
        lambda integral, a, f: complex(np.exp(2j * np.pi * _check_order(a))) * integral(a, f),
        AxiomProfile(True, True, True, False),
        _rl_growth,
    ),
}

FAMILY_NAMES = tuple(sorted(_CATALOG))


def make_family(
    name: str,
    integral: Callable[[float, SampledFunction1D], SampledFunction1D] | None = None,
) -> OperatorFamily1D:
    """Build a catalog family by name; unknown names list the valid ones.

    The family applies ``integral`` (alpha, f) -> I^alpha f, by default
    ``rl_integral``, looked up at each call.
    """
    try:
        apply_fn, profile, growth = _CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; valid names: {', '.join(FAMILY_NAMES)}"
        ) from None
    return OperatorFamily1D(
        name, lambda a, f: apply_fn(integral or rl_integral, a, f), profile, growth
    )


def _order_objective(beta: float, logs_t: np.ndarray, logs_g: np.ndarray) -> float:
    r = logs_g - (beta * logs_t - math.lgamma(beta + 1.0))
    return float(np.dot(r, r))


def estimate_order(g: SampledFunction1D) -> float:
    """Least-squares power-law order of g against the model t^beta/Gamma(beta+1).

    Fits beta in log g(t) = beta*log(t - a) - log Gamma(beta+1) over the
    interior nodes, scanning beta in (0, 20] and refining the best bracket by
    golden section to 1e-6.
    """
    if not g.is_real:
        raise ValueError("order estimation requires a real-valued function")
    vals = g.values.real[1:-1]
    if np.any(vals <= 0.0):
        k = int(np.nonzero(vals <= 0.0)[0][0]) + 1
        raise ValueError(f"nonpositive value at interior node {k}; cannot take logs")
    ts = g.grid.nodes[1:-1] - g.grid.a
    logs_t = np.log(ts)
    logs_g = np.log(vals)

    betas = np.linspace(0.01, ORDER_CAP, 2000)
    scores = [_order_objective(b, logs_t, logs_g) for b in betas]
    k = int(np.argmin(scores))
    lo = betas[max(0, k - 1)]
    hi = betas[min(len(betas) - 1, k + 1)]

    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1 = _order_objective(x1, logs_t, logs_g)
    f2 = _order_objective(x2, logs_t, logs_g)
    while hi - lo > 1e-6:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = _order_objective(x1, logs_t, logs_g)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = _order_objective(x2, logs_t, logs_g)
    return 0.5 * (lo + hi)
