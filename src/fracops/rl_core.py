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
it as one GEMM per block lag, O(N^2). From N = 8192 nodes on, for the orders
whose history is short enough (``_sweep`` states the rule), it applies only
the two nearest block lags that way and reads the rest from a history of
positive-weight exponentials, O(N J) for J of about 140, to about 4e-15
relative. ``rl_integral`` also takes a list of functions on one grid and
sweeps them as one stack, every function through GEMMs of the shape a call
of its own would use, so it gets the same bits. Consequences used
throughout the test suite, each holding by construction:

* at alpha = 1 the integral is a ``cumsum`` of the subinterval trapezoids,
  so it agrees with the composite trapezoid rule bit-for-bit;
* all weights and history factors are nonnegative and every product is of
  such a factor and a sample, so nonnegative inputs give nonnegative
  outputs exactly;
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

from .grid import SampledFunction1D, _finite_samples, _require_same_grid

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


# A sum of exponentials for a kernel power: Gauss points per rule, and
# s * delta at its top rate, where e^(-s delta) < 5e-18.
_GAUSS_POINTS = 10
_SOE_CUT = 40.0
_GAUSS_RULE = _gauss_legendre(  # on [0, 1]; numpy.polynomial.legendre.leggauss(10)
    (0.14887433898163122, 0.4333953941292472, 0.6794095682990244, 0.8650633666889845,
     0.9739065285171717),
    (0.2955242247147528, 0.2692667193099965, 0.219086362515982, 0.1494513491505804,
     0.06667134430868814),
)


def _gauss_jacobi(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the weight (1 - alpha) t^(-alpha) on [0, 1], 0 < alpha < 1.

    Golub-Welsch (Math. Comp. 23, 1969) on the Jacobi matrix of
    (1 + x)^(-alpha) on [-1, 1]: the nodes are its eigenvalues, in ascending
    order, and the weights the squared first components of its eigenvectors,
    divided by their sum, so they are positive and sum to 1.
    """
    b = -alpha
    k = np.arange(_GAUSS_POINTS, dtype=np.float64)
    diag = b * b / ((2.0 * k + b) * (2.0 * k + b + 2.0))
    diag[0] = b / (b + 2.0)
    k = k[1:]
    c = 2.0 * k + b
    off = 2.0 * k * (k - alpha) / (c * np.sqrt((c + 1.0) * (c - 1.0)))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    v = vec[0] ** 2
    return 0.5 * (x + 1.0), v / v.sum()


def _octaves(delta: float, length: float) -> int:
    """ceil(log2(_SOE_CUT * length / delta)), the octaves of ``_sum_of_exponentials``."""
    return max(1, math.ceil(math.log2(_SOE_CUT * length / delta)))


def _sum_of_exponentials(
    alpha: float, delta: float, length: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rates s_j and positive weights w_j with sum_j w_j e^(-s_j r) = r^(alpha-1).

    For 0 < alpha < 1, r^(alpha-1) = int_0^inf s^(-alpha) e^(-s r) ds / Gamma(1-alpha).
    Gauss-Jacobi with weight s^(-alpha) covers [0, 1/length] and
    Gauss-Legendre each dyadic interval above it, up to _SOE_CUT / delta,
    which leaves a tail below e^(-_SOE_CUT). The relative error stays near
    2e-15 on [delta, length] for every alpha in (0, 1), and the count is
    _GAUSS_POINTS * (1 + _octaves(delta, length)), whatever alpha. The rates
    come out sorted.
    """
    t, v = _gauss_jacobi(alpha)
    # (1 - alpha) Gamma(1 - alpha) = Gamma(2 - alpha)
    s_low = t / length
    w_low = v * length ** (alpha - 1.0) / math.gamma(2.0 - alpha)
    lo = 2.0 ** np.arange(_octaves(delta, length))[:, None] / length
    y, wy = _GAUSS_RULE
    s_high = (lo * (1.0 + y)).ravel()
    w_high = (lo * wy).ravel() * s_high ** (-alpha) / math.gamma(1.0 - alpha)
    return np.concatenate([s_low, s_high]), np.concatenate([w_low, w_high])


# _sweep takes the far field of n >= _FAR_FIELD_MIN nodes from a history
# (_far_field) when it has at most n / _NODES_PER_TERM terms; see _sweep.
_FAR_FIELD_MIN = 8192
_NODES_PER_TERM = 16


def _binomial_shift(k: int, d: np.ndarray) -> np.ndarray:
    """S[..., i, l] = C(i, l) d^(i-l) for l <= i <= k, else 0: (d + u)^i = sum_l S[i, l] u^l."""
    binom = np.array([[math.comb(i, l) for l in range(k + 1)] for i in range(k + 1)], dtype=float)
    power = np.maximum(np.subtract.outer(np.arange(k + 1), np.arange(k + 1)), 0)
    return binom * np.asarray(d, dtype=float)[..., None, None] ** power


def _history_terms(alpha: float, n: int, b: int) -> int:
    """J (k+1): the exponentials times the powers u^0 .. u^k that ``_far_field`` carries."""
    k = math.ceil(alpha) - 1
    rates = 1 if alpha == k + 1 else _GAUSS_POINTS * (1 + _octaves(b + 1.0, n))
    return (k + 1) * rates


def _segment_moments(k: int, s: np.ndarray, b: int, scale: float) -> np.ndarray:
    """scale times the integrals of u^i e^(-s_j u) against each node's hat on a b-cell segment.

    Row i * len(s) + j, column q = 0..b for the segment's nodes left to right;
    u runs from the segment's right end in steps. Cell q spans u in [d, d+1],
    d = b-1-q, and one Gauss rule gives every cell's integrals against the
    hats of its left node q and right node q+1.
    """
    x, gw = _NEAR_RULE
    d = np.arange(b - 1.0, -1.0, -1.0)
    kern = np.exp(-np.outer(s, x)) * (scale * gw)
    powers = np.add.outer(x, d) ** np.arange(k + 1.0)[:, None, None]
    decay = np.exp(-np.outer(s, d))
    moments = np.zeros((k + 1, len(s), b + 1))
    for nodes, hat in ((slice(None, -1), x), (slice(1, None), 1.0 - x)):
        part = (kern * hat) @ powers
        part *= decay
        moments[..., nodes] += part
    return moments.reshape(-1, b + 1)


def _far_field(alpha: float, h: float, cols: np.ndarray, b: int) -> np.ndarray:
    """The far field of ``_sweep``'s blocks 2, 3, ..., laid out like its GEMM output.

    Block I (output nodes 1 + I*b .. (I+1)*b) has its cutoff at node
    c_I = (I-1)*b; the cells left of it lie r = a + u away from an output
    node, with a = m - c_I in [b+1, 2b] and u >= 0 in steps of h. With
    alpha = k + beta, 0 < beta <= 1,

        r^(alpha-1) = sum_i C(k, i) a^(k-i) u^i * r^(beta-1),
        r^(beta-1) ~ sum_j w_j e^(-s_j a) e^(-s_j u),

    the second from ``_sum_of_exponentials`` on [b+1, n] (for beta = 1 the
    single rate 0), so the far field is sum_(i,j) C(k, i) a^(k-i) w_j
    e^(-s_j a) H_ij(c_I) with the history H_ij(c) = integral of u^i e^(-s_j u)
    times the piecewise-linear samples over the cells left of c. Each b-cell
    segment's share of a history is one fixed matrix of moments against its
    b + 1 samples (one GEMM for every segment); moving the cutoff by b
    multiplies H by e^(-s_j b) and mixes the u^i with the binomial shift; one
    more GEMM evaluates every block. Every factor is nonnegative. The rates
    are at most 2 _SOE_CUT / (b+1) per step, so one 16-point Gauss rule gives
    a cell's moments to rounding. Each GEMM is a stack with one same-shape
    entry per entry of ``cols``.
    """
    p, c, n = cols.shape[0], cols.shape[1], cols.shape[2] - 1
    segments = (n - 1) // b - 1
    k = math.ceil(alpha) - 1
    beta = alpha - k
    if beta == 1.0:
        s, w = np.zeros(1), np.ones(1)
    else:
        s, w = _sum_of_exponentials(beta, b + 1.0, float(n))
    # samples[q, g, col, node] = node g*b + node of column col of entry q
    e = cols.itemsize
    samples = np.ndarray(
        (p, segments, c, b + 1), buffer=cols, strides=(cols.strides[0], e * b, cols.strides[1], e)
    )
    scale = float(h) ** alpha / math.gamma(alpha)
    hist = samples.reshape(p, segments * c, b + 1) @ _segment_moments(k, s, b, scale).T
    hist = hist.reshape(p, segments, c, k + 1, len(s))
    # hist[:, g] holds segment g's share; add the history up to it, moved by b steps
    step = _binomial_shift(k, float(b))
    decay = np.exp(-s * b)
    for g in range(1, segments):
        prev = hist[:, g - 1] if k == 0 else step @ hist[:, g - 1]
        hist[:, g] += decay * prev
    a = np.arange(b + 1.0, 2.0 * b + 1.0)
    kern = np.exp(-np.outer(a, s))
    kern *= w
    evaluate = _binomial_shift(k, a)[:, k, :, None] * kern[:, None, :]
    return evaluate.reshape(b, -1) @ hist.reshape(p, segments * c, -1).transpose(0, 2, 1)


def _block_size(n: int) -> int:
    """Toeplitz block edge for n nodes: one block up to 128 nodes, then 128.

    Timed on one core with one GEMM column per real row. For n = 256..4096
    and 1 to 257 rows, 128 was within 9% of the fastest of 64, 128 and 256;
    sqrt(n)-sized blocks ran up to 1.5x slower, because their n/B GEMM
    calls are each too small. A sweep whose far field comes from the history
    (``_far_field``) uses the same blocks as its segments: at n = 8192,
    16384 and 32768, alpha = 0.5 and 1.5, and 1 or 8 rows, 128 was within
    15% of the fastest of 64, 128 and 256, and 256 ran 4-13% slower than
    128 at n = 32768.
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

    Long sweeps take the far field from a history instead. With
    alpha = k + beta, 0 < beta <= 1, the rule is: when n >= _FAR_FIELD_MIN
    (8192) and the history has at most n / _NODES_PER_TERM (n / 16) terms
    J (k+1) (``_history_terms``), only lags 0 and 1 go through the GEMM,
    with the exact weights of distances up to 2B, and block I >= 2 reads
    every cell left of node (I-1)*B from ``_far_field``. That costs
    O(n (J (k+1) + B)) time and O(n J (k+1) / B) temporaries per column,
    with J = 10 (1 + ceil(log2(40 n / (B+1)))) rates (130 at n = 8192, 140
    at 16384, 150 at 32768) and J = 1 at integer orders. So every integer
    order takes it, the others up to k = 2 at n = 8192, k = 6 at 16384 and
    k = 12 at 32768, and every accepted order from n = 65536. Each node
    stays within about 4e-15 of the sum of its exact rule's term
    magnitudes. Timed on one core with one row, history against full GEMM:
    at n = 8192, 1.7 against 3.4 ms for alpha = 0.5, 1.9 against 2.9 ms for
    alpha = 2.5, but 2.8 against 2.6 ms for alpha = 3.5 (k = 3); at
    n = 16384, 1.7 against 8.2 ms for alpha = 0.5, 2.3 against 8.0 ms for
    alpha = 1.5 and 5.9 against 8.5 ms for alpha = 7.5; at n = 4096, 1.1
    against 0.9 ms for alpha = 0.5.

    What holds by construction:

    * every product is of a nonnegative weight and a sample, or of
      nonnegative history factors, so nonnegative input gives exactly
      nonnegative output and zeros stay exact zeros;
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
        far = n >= _FAR_FIELD_MIN and _history_terms(alpha, n, b) * _NODES_PER_TERM <= n
        lags = 2 if far else nb
        m = min(n, lags * b)
        wl, wr = product_quadrature_weights(alpha, h, m)
        # the history first, before the GEMM's temporaries are allocated
        history = _far_field(alpha, h, cols, b) if far else None
        x = np.zeros((p, c, nb * b))
        x[..., :n] = cols[..., 1:]
        # xr[q, k, J*c + col] is node 1 + J*b + (b-1-k) of column col of entry
        # q; for one column the reshape is a negatively strided view, which
        # BLAS cannot take
        xr = x.reshape(p, c, nb, b)[..., ::-1].transpose(0, 3, 2, 1).reshape(p, b, nb * c)
        xr = np.ascontiguousarray(xr)
        symbol = np.zeros(lags * b + b - 1)
        symbol[b - 1] = wr[0]
        symbol[b:b + m - 1] = wl[:-1] + wr[1:]
        # windows[i] = symbol[i:i+b], a strided view (no copy); hankel_L is
        # windows[L*b:(L+1)*b]. numpy's sliding_window_view gives the same
        # view, but in long in-process runs a 939 KiB block allocated inside
        # it stayed alive (seen with tracemalloc).
        windows = np.ndarray((symbol.size - b + 1, b), buffer=symbol, strides=2 * symbol.strides)
        # every lag copies its matrix into one buffer: malloc maps a fresh
        # 128 KiB array per lag anew, which at n = 2048 took 480 page faults
        # and 0.75 ms a call, against 0.08 ms for the copies into one buffer
        # (one core of an Intel Xeon)
        hankel = np.empty((b, b))
        y = np.zeros((p, b, nb * c))
        for lag in range(lags):
            np.copyto(hankel, windows[lag * b:(lag + 1) * b])
            y[..., lag * c:] += hankel @ xr[..., :(nb - lag) * c]
        if far:
            # the left node of each block's first near cell: node 0 for blocks
            # 0 and 1, block I's cutoff node (I-1)*b for the others
            y[..., :c] += wl[:b, None] * cols[:, None, :, 0]
            cutoffs = cols[..., :(nb - 1) * b:b].transpose(0, 2, 1).reshape(p, 1, -1)
            y[..., c:] += wl[b:, None] * cutoffs
            y[..., 2 * c:] += history
        res = y.reshape(p, b, nb, c).transpose(0, 3, 2, 1).reshape(p, c, nb * b)[..., :n]
        if not far:
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
    invariant: moving the grid moves the output with it. A non-finite sample
    raises a ``ValueError`` naming its node index and t, and in a sequence
    the function's position; an empty sequence, or functions on different
    grids, raise one too.
    """
    alpha = _check_order(alpha)
    single = isinstance(f, SampledFunction1D)
    fs = [f] if single else list(f)
    if not fs:
        raise ValueError("rl_integral needs at least one sampled function")
    grid = fs[0].grid
    for other in fs[1:]:
        _require_same_grid(fs[0], other)
    for q, g in enumerate(fs):
        if not np.isfinite(g.values).all():
            try:
                _finite_samples(grid, grid.nodes, g.values)
            except ValueError as err:
                raise ValueError(str(err) if single else f"function {q}: {err}") from None
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
    return results[0] if single else results


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
