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
it as one GEMM per block lag, O(N^2). ``rl_integral`` also takes a list of
functions on one grid and sweeps them as one stack, every function through
GEMMs of the shape a call of its own would use, so it gets the same bits.
Consequences used throughout the test suite, each holding by construction:

* at alpha = 1 the integral is a ``cumsum`` of the subinterval trapezoids,
  so it agrees with the composite trapezoid rule bit-for-bit;
* all weights are nonnegative and every product is of a weight and a
  sample, so nonnegative inputs give nonnegative outputs exactly;
* the value at the left endpoint is 0 for every alpha > 0 (empty integral).

The module also carries a small catalog of operator families built on top of
this integral. Each family maps (alpha, f) to scale(alpha) times the integral
of order(alpha) of f, and declares which semigroup axioms it is expected to
satisfy; the non-conforming ones are classic counterexamples (order
rescalings, a scalar 2^alpha, a unit-modulus phase), each violating exactly
one axiom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import SampledFunction1D, _functions_on_one_grid

ORDER_CAP = 20.0  # largest accepted order; keeps Gamma well inside range


def _check_order(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 < alpha <= ORDER_CAP:
        raise ValueError(f"fractional order must lie in (0, {ORDER_CAP:g}], got {alpha}")
    return alpha


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
    """Toeplitz block edge for n nodes: one block up to 128 nodes, then 128.

    Timed on one core with one GEMM column per real row. For n = 256..4096
    and 1 to 257 rows, 128 was within 9% of the fastest of 64, 128 and 256;
    sqrt(n)-sized blocks ran up to 1.5x slower, because their n/B GEMM
    calls are each too small.
    """
    return min(n, 128)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing result is rejected below
def _sweep(alpha: float, h: float, cols: np.ndarray) -> np.ndarray:
    """Integral of order alpha of every column of a stack (step h, origin at node 0).

    cols[q, col] is column col of stack entry q, n + 1 finite real samples;
    the result res[q, col, m - 1] is the integral at node m = 1..n (node 0
    is 0). The caller validates alpha and the samples. An overflowing result
    raises a ``ValueError`` naming the order and step. Node k >= 1 enters
    output node m >= k with the Toeplitz symbol T[m-k], T[0] = wr[0] and
    T[d] = wl[d-1] + wr[d], and node 0 with the rank-1 column wl[m-1].
    Nodes 1..n are cut into B-node blocks; every block pair at the same lag L
    shares one B x B matrix M_L, so each lag is one GEMM per stack entry,
    that entry's blocks side by side, and ``np.matmul`` runs the entries as
    one stack of same-shape GEMMs. M_L is copied out of a sliding window on
    the zero-padded symbol as its column-reversed (Hankel) form, which
    multiplies the block-reversed samples. This costs O(n^2) per column.

    What holds by construction:

    * every product is of a nonnegative weight and a sample, so nonnegative
      input gives exactly nonnegative output and zeros stay exact zeros;
    * alpha = 1 takes a ``cumsum`` of the subinterval trapezoids, the
      grouping of ``cumulative_trapezoid``, so it agrees bit-for-bit.

    Two calls on the same input give identical bits. The stack contract:
    every GEMM and elementwise step of an entry has the shapes and strides
    of a one-entry stack holding it, so an entry swept inside a stack and
    the same entry swept alone agree bit for bit, at any BLAS thread count.
    Columns inside one entry share a GEMM: a column swept among others and
    swept alone agree to rounding, not bitwise, because BLAS may block a
    wider GEMM differently.
    """
    p, c, n = cols.shape[0], cols.shape[1], cols.shape[2] - 1
    if alpha == 1.0:
        w = 0.5 * h
        res = np.cumsum(w * cols[..., :-1] + w * cols[..., 1:], axis=-1)
    else:
        b = _block_size(n)
        nb = -(-n // b)
        wl, wr = product_quadrature_weights(alpha, h, n)
        x = np.zeros((p, c, nb * b))
        x[..., :n] = cols[..., 1:]
        # xr[q, k, J*c + col] is node 1 + J*b + (b-1-k) of column col of entry
        # q; for one column the reshape is a negatively strided view, which
        # BLAS cannot take
        xr = x.reshape(p, c, nb, b)[..., ::-1].transpose(0, 3, 2, 1).reshape(p, b, nb * c)
        xr = np.ascontiguousarray(xr)
        symbol = np.zeros(nb * b + b - 1)
        symbol[b - 1] = wr[0]
        symbol[b:b + n - 1] = wl[:-1] + wr[1:]
        # windows[i] = symbol[i:i+b], a strided view (no copy); hankel_L is
        # windows[L*b:(L+1)*b]. numpy's sliding_window_view gives the same
        # view but raised axioms' peak RSS by 0.05 to 0.15 MB in three perfbench runs.
        windows = np.ndarray((symbol.size - b + 1, b), buffer=symbol, strides=2 * symbol.strides)
        # every lag copies its matrix into one buffer: malloc maps a fresh
        # 128 KiB array per lag anew, which at n = 2048 took 480 page faults
        # and 0.75 ms a call, against 0.08 ms for the copies into one buffer
        # (one core of an Intel Xeon)
        hankel = np.empty((b, b))
        y = np.zeros((p, b, nb * c))
        for lag in range(nb):
            np.copyto(hankel, windows[lag * b:(lag + 1) * b])
            y[..., lag * c:] += hankel @ xr[..., :(nb - lag) * c]
        res = y.reshape(p, b, nb, c).transpose(0, 3, 2, 1).reshape(p, c, nb * b)[..., :n]
        res += wl * cols[..., :1]
    if not np.isfinite(res).all():
        raise ValueError(f"the order-{alpha} integral overflows at step {h}")
    return res


def rl_integral(
    alpha: float, f: SampledFunction1D | Sequence[SampledFunction1D]
) -> SampledFunction1D | list[SampledFunction1D]:
    """Fractional integral of order alpha with origin at the grid's left endpoint.

    f is one sampled function or a sequence of them on one grid, and the
    result matches: one output, or a list. Every function is one entry of
    ``_sweep``'s stack, with one GEMM column if it is real and two (its real
    and imaginary parts) if not; the real and the complex functions go in
    two stacks. So every function gets exactly the arithmetic of a call of
    its own, bit for bit, at any BLAS thread count.

    The weights depend only on the step, so the result is translation
    invariant: moving the grid moves the output with it. An integral that
    overflows raises a ``ValueError`` naming the order and step; an empty
    sequence, or functions on different grids, raise one too.
    """
    alpha = _check_order(alpha)
    fs = _functions_on_one_grid(f)
    grid = fs[0].grid
    is_real = [not g.values.imag.any() for g in fs]
    out = np.zeros((len(fs), grid.N + 1), dtype=np.complex128)
    for real, parts in ((True, ("real",)), (False, ("real", "imag"))):
        rows = [q for q, r in enumerate(is_real) if r == real]
        if rows:
            cols = np.array([[getattr(fs[q].values, part) for part in parts] for q in rows])
            res = _sweep(alpha, grid.h, cols)
            for j, part in enumerate(parts):
                getattr(out, part)[rows, 1:] = res[:, j]
    results = [SampledFunction1D(grid, v) for v in out]
    return results[0] if isinstance(f, SampledFunction1D) else results


@dataclass(frozen=True)
class AxiomProfile:
    """Expected pass/fail verdicts, True meaning the axiom should hold."""

    identity: bool
    index_law: bool
    continuity: bool
    positivity: bool


@dataclass(frozen=True)
class OperatorFamily1D:
    """A named family (order, sampled function) -> sampled function.

    ``apply`` also takes a sequence of sampled functions on one grid and
    returns a list, one output per function.
    """

    name: str
    apply: Callable[[float, SampledFunction1D | Sequence[SampledFunction1D]],
                    SampledFunction1D | list[SampledFunction1D]]
    expected_profile: AxiomProfile
    growth_of_one: Callable[[float], tuple[float, float]]
    """Bound (C, p) with |apply(alpha, 1)(t)| <= C * t^p for large t."""


def _rl_growth(alpha: float) -> tuple[float, float]:
    return 1.0 / math.gamma(alpha + 1.0), alpha


# each entry maps alpha to (scale, order): the family applies
# scale * integral(order, f), or the bare integral where scale is None
_CATALOG: dict[str, tuple[Callable, AxiomProfile, Callable]] = {
    "riemann_liouville": (
        lambda a: (None, a),
        AxiomProfile(True, True, True, True),
        _rl_growth,
    ),
    "scaled_order": (
        # order used only as a scalar on the unit-order integral
        lambda a: (_check_order(a), 1.0),
        AxiomProfile(True, False, True, True),
        lambda a: (a, 1.0),
    ),
    "doubled_order": (
        lambda a: (None, 2.0 * _check_order(a)),
        AxiomProfile(False, True, True, True),
        lambda a: (1.0 / math.gamma(2.0 * a + 1.0), 2.0 * a),
    ),
    "geometric": (
        lambda a: (2.0 ** _check_order(a), a),
        AxiomProfile(False, True, True, True),
        lambda a: (2.0 ** a / math.gamma(a + 1.0), a),
    ),
    "phase": (
        # unit-modulus scalar: full rotations at integer orders only
        lambda a: (complex(np.exp(2j * np.pi * _check_order(a))), a),
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
    ``rl_integral``, looked up at each call. A sequence of functions goes to
    ``integral`` whole, so it must take sequences too.
    """
    try:
        scale_and_order, profile, growth = _CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; valid names: {', '.join(FAMILY_NAMES)}"
        ) from None

    def apply(a, f):
        scale, order = scale_and_order(a)
        out = (integral or rl_integral)(order, f)
        if scale is None:
            return out
        return scale * out if isinstance(out, SampledFunction1D) else [scale * g for g in out]

    return OperatorFamily1D(name, apply, profile, growth)


def _order_objective(beta: float, logs_t: np.ndarray, logs_g: np.ndarray) -> float:
    r = logs_g - (beta * logs_t - math.lgamma(beta + 1.0))
    return float(np.dot(r, r))


def estimate_order(g: SampledFunction1D) -> float:
    """Least-squares power-law order of g against the model t^beta/Gamma(beta+1).

    Fits beta in log g(t) = beta*log(t - a) - log Gamma(beta+1) over the
    interior nodes, scanning beta in (0, 20] and refining the best bracket by
    golden section to 1e-6. A grid with no interior node (N = 1) is a
    ``ValueError``: there is nothing to fit.
    """
    if not g.is_real:
        raise ValueError("order estimation requires a real-valued function")
    if g.grid.N < 2:
        raise ValueError("order estimation needs an interior node; a grid with N = 1 "
                         "has nothing to fit")
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
