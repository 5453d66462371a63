"""Fractional integrals with respect to a strictly increasing integrator.

An integrator phi is a piecewise-smooth strictly increasing function on
[a, T] with finitely many interior jumps. Conventions, fixed once:

* the pointwise value at a jump point is the right limit;
* segment images are closed intervals with exactly computed endpoints, so
  pushforward measures are assertable;
* jumps contribute no mass: the pushforward of Lebesgue measure assigns an
  interval the total length of its image, and single points are null;
* when pulling a function back to the image domain, the open gaps that
  jumps leave are filled with zero, which is exactly what makes the two
  evaluation routes below agree (the defining integral only ever sees the
  image of phi).

Both routes read phi only forward, at the image nodes phi(s) of each
segment's grid nodes and ends; nothing solves phi(s) = v. The integral with
respect to phi is computed two ways that share nothing but phi: directly, by
product quadrature of the singular kernel on one image mesh (those image
nodes, all segments in order, zero-filled across the jump gaps), node t
reading the mesh prefix that ends at phi(t); and by transmutation, pulling g
back to a uniform grid on [phi(a), phi(T)], linear in the image variable
between the image nodes, applying the ordinary fractional integral there,
and composing the result with phi(t) from ``Integrator.value``. The two
routes agree up to resampling error, which shrinks under refinement.

The direct route costs O(N (J + K + B)) for 0 < alpha < 1: nodes go in
blocks of B = 64, each takes exact kernel moments on the cells from K = 4
grid nodes before it, and the rest of its prefix comes from a history of
J positive-weight exponentials, J = 10 (1 + ceil(log2(40 R / delta))) for
the image length R and the least image gap delta across K nodes at a block
start (J = 180 for the unit jump at N = 4096). For alpha >= 1 the kernel is
bounded and each node takes the exact rule over its whole prefix, O(N^2).
Either way the result agrees with the exact rule over the whole prefix to
about 1e-14 relative, node a gives exactly 0, and nonnegative real g gives
exactly nonnegative real output. None of the kernel work depends on g: the
image mesh, the exponential rates, the decays and the cell and kernel
moments are paid once per call, and one call takes several functions on
one grid, each adding only its GEMM columns. ``transmutation_residual``
runs the direct route once for every probe.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import (
    SampledFunction1D,
    UniformGrid1D,
    _require_same_grid,
    l1_distance,
    sample_array,
)
from .rl_core import _check_order, _gauss_legendre, rl_integral

_BOUNDARY_TOL = 1e-12
_JUMP_MATCH_TOL = 1e-9

# The direct route's block kernel: nodes per block, grid nodes of exact near
# field before each block, and the sum of exponentials behind the far field
# (Gauss points per rule, and s * delta at its top, where e^(-s delta) < 5e-18).
_BLOCK = 64
_NEAR = 4
_BLOCK_ENTRIES = 65536  # most rows x mesh nodes of a block that reads whole prefixes
_GAUSS_POINTS = 10
_SOE_CUT = 40.0
_GAUSS_RULE = _gauss_legendre(  # on [0, 1]; numpy.polynomial.legendre.leggauss(10)
    (0.14887433898163122, 0.4333953941292472, 0.6794095682990244, 0.8650633666889845,
     0.9739065285171717),
    (0.2955242247147528, 0.2692667193099965, 0.219086362515982, 0.1494513491505804,
     0.06667134430868814),
)
# Taylor coefficients in z of the two moments of _exponential_cell_moments,
# (-1)^n / (n! (n+2)) and (-1)^n / (n! (n+1) (n+2)): 19 terms reach double
# precision for z < 1
_SERIES = np.array(
    [[(-1) ** n / (math.factorial(n) * (n + 2)), (-1) ** n / math.factorial(n + 2)]
     for n in range(19)]
)
_SERIES_POWERS = np.arange(len(_SERIES), dtype=np.float64)


@dataclass(frozen=True)
class Segment:
    """One strictly increasing smooth piece, polynomial or exponential."""

    lo: float
    hi: float
    kind: str
    coefficients: tuple[float, ...]

    def __post_init__(self):
        if self.kind not in ("poly", "exp"):
            raise ValueError(f"segment kind must be 'poly' or 'exp', got {self.kind!r}")
        if not self.lo < self.hi:
            raise ValueError(f"segment needs lo < hi, got [{self.lo}, {self.hi}]")
        coeffs = tuple(float(c) for c in self.coefficients)
        if self.kind == "exp" and len(coeffs) != 3:
            raise ValueError("exp segments take coefficients (c0, c1, c2)")
        if self.kind == "poly" and len(coeffs) < 2:
            raise ValueError("poly segments need degree >= 1")
        object.__setattr__(self, "coefficients", coeffs)

    def eval(self, s):
        s = np.asarray(s, dtype=np.float64)
        if self.kind == "poly":
            return np.polynomial.polynomial.polyval(s, self.coefficients)
        c0, c1, c2 = self.coefficients
        return c0 + c1 * np.exp(c2 * s)


@dataclass(frozen=True)
class Jump:
    at: float
    size: float

    def __post_init__(self):
        if not 0.0 < self.size < math.inf:
            raise ValueError(f"jump sizes must be positive and finite, got {self.size}")


def _strictly_increasing(seg: Segment) -> bool:
    """Exact test: c1*c2 > 0 for exp; for poly, p' is not identically zero and is
    >= 0, up to rounding, at lo, hi and every critical point of p' in between.
    """
    if seg.kind == "exp":
        _, c1, c2 = seg.coefficients
        return c1 * c2 > 0.0
    P = np.polynomial.polynomial
    d1 = P.polyder(seg.coefficients)
    crit = P.polyroots(P.polyder(d1)).real
    probe = np.concatenate([[seg.lo, seg.hi], crit[(crit > seg.lo) & (crit < seg.hi)]])
    # Horner's error bound: (s - s0)^3 with rounded coefficients must still pass
    slack = 4.0 * len(d1) * np.finfo(np.float64).eps * P.polyval(np.abs(probe), np.abs(d1))
    return bool(np.any(d1) and np.all(P.polyval(probe, d1) >= -slack))


@dataclass(frozen=True)
class Integrator:
    """Strictly increasing piecewise-smooth function with finitely many jumps."""

    segments: tuple[Segment, ...]
    jumps: tuple[Jump, ...] = ()

    def __post_init__(self):
        segments = tuple(self.segments)
        jumps = tuple(sorted(self.jumps, key=lambda j: j.at))
        if not segments:
            raise ValueError("integrator needs at least one segment")
        for prev, cur in zip(segments, segments[1:]):
            if abs(prev.hi - cur.lo) > _BOUNDARY_TOL:
                raise ValueError(
                    f"segments must be contiguous: [{prev.lo}, {prev.hi}] then "
                    f"[{cur.lo}, {cur.hi}]"
                )
        for seg in segments:
            if not np.all(np.isfinite(seg.eval([seg.lo, seg.hi]))):
                raise ValueError(f"segment on [{seg.lo}, {seg.hi}] is not finite")
            if not _strictly_increasing(seg):
                raise ValueError(
                    f"segment on [{seg.lo}, {seg.hi}] is not strictly increasing"
                )
        for prev, cur in zip(jumps, jumps[1:]):
            if prev.at == cur.at:
                raise ValueError(f"two jumps are declared at s={cur.at}")
        declared = {j.at: j.size for j in jumps}
        for prev, cur in zip(segments, segments[1:]):
            gap = float(cur.eval(cur.lo) - prev.eval(prev.hi))
            if gap < -_BOUNDARY_TOL:
                raise ValueError(
                    f"images overlap across the boundary at s={prev.hi}: gap {gap}"
                )
            if gap > _BOUNDARY_TOL:
                size = declared.pop(prev.hi, None)
                if size is None or abs(size - gap) > _JUMP_MATCH_TOL:
                    raise ValueError(
                        f"image gap {gap} at s={prev.hi} does not match a declared jump"
                    )
        if declared:
            at = sorted(declared)[0]
            raise ValueError(f"declared jump at s={at} is not at a segment boundary")
        object.__setattr__(self, "segments", segments)
        object.__setattr__(self, "jumps", jumps)

    @property
    def a(self) -> float:
        return self.segments[0].lo

    @property
    def T(self) -> float:
        return self.segments[-1].hi

    @property
    def phi_a(self) -> float:
        return float(self.segments[0].eval(self.a))

    @property
    def phi_T(self) -> float:
        return float(self.segments[-1].eval(self.T))

    def value(self, s):
        """Pointwise phi(s), elementwise for an array; at a jump the right limit."""
        s = np.asarray(s, dtype=np.float64)
        outside = ~((self.a <= s) & (s <= self.T))
        if outside.any():
            raise ValueError(
                f"{s[outside][0]} outside the integrator domain [{self.a}, {self.T}]"
            )
        # rightmost segment with lo <= s: realizes the right-limit convention
        idx = np.searchsorted([seg.lo for seg in self.segments], s, side="right") - 1
        conds = [idx == i for i in range(len(self.segments))]
        out = np.piecewise(s, conds, [seg.eval for seg in self.segments])
        return float(out) if s.ndim == 0 else out


def identity_integrator(a: float, T: float) -> Integrator:
    return Integrator((Segment(a, T, "poly", (0.0, 1.0)),))


def linear_integrator(a: float, T: float, scale: float) -> Integrator:
    return Integrator((Segment(a, T, "poly", (0.0, scale)),))


def unit_jump_integrator() -> Integrator:
    """phi(s) = s below 1/2 and s + 1 from 1/2 on, over [0, 1]."""
    return Integrator(
        (
            Segment(0.0, 0.5, "poly", (0.0, 1.0)),
            Segment(0.5, 1.0, "poly", (1.0, 1.0)),
        ),
        (Jump(0.5, 1.0),),
    )


def pushforward_measure(phi: Integrator, u: float, v: float) -> float:
    """Lebesgue measure of phi([u, v]); jump points contribute nothing.

    The sum of the image lengths of [u, v] clipped to each segment.
    """
    if not (phi.a <= u <= v <= phi.T):
        raise ValueError(f"[{u}, {v}] is not inside the domain [{phi.a}, {phi.T}]")
    total = 0.0
    for seg in phi.segments:
        s_lo, s_hi = max(u, seg.lo), min(v, seg.hi)
        if s_lo < s_hi:
            total += float(seg.eval(s_hi)) - float(seg.eval(s_lo))
    return total


def _check_domain(phi: Integrator, grid: UniformGrid1D) -> None:
    # exact ends: an end off by 1e-13 moves every node, across a jump too
    if grid.a != phi.a or grid.T != phi.T:
        raise ValueError(
            f"grid [{grid.a}, {grid.T}] does not match the integrator domain "
            f"[{phi.a}, {phi.T}]"
        )


def _piece_nodes(nodes: np.ndarray, s_lo: float, s_hi: float) -> tuple[np.ndarray, slice]:
    """Quadrature s-nodes in [s_lo, s_hi], the endpoints plus interior grid nodes,
    and the slice of grid nodes they take.
    """
    inner = slice(
        int(np.searchsorted(nodes, s_lo, side="right")),
        int(np.searchsorted(nodes, s_hi, side="left")),
    )
    return np.concatenate([[s_lo], nodes[inner], [s_hi]]), inner


def _piece_values(
    nodes: np.ndarray, gvals: np.ndarray, s_lo: float, s_hi: float, inner: slice
) -> np.ndarray:
    """g at the s-nodes of ``_piece_nodes``: interpolated at the two ends."""
    return np.concatenate(
        [[np.interp(s_lo, nodes, gvals)], gvals[inner], [np.interp(s_hi, nodes, gvals)]]
    )


@dataclass(frozen=True, eq=False)
class _ImageMesh:
    """The image mesh of an integrator on a grid, which does not depend on g.

    u holds each segment's image nodes framed by copies of its two end
    images, segments in order; u[:ends[m]] ends at x[m] = phi(t_m), the right
    limit at a jump. ``values`` puts g on u with zero on the frame copies, so
    seam cells have zero length and jump-gap cells are zero-filled. ``live``
    marks the cells that can carry g: positive length, not between two
    frame copies. ``inner`` holds the grid nodes inside each segment.
    """

    phi: Integrator
    grid: UniformGrid1D
    u: np.ndarray
    ends: np.ndarray
    live: np.ndarray
    inner: tuple[slice, ...]

    @property
    def x(self) -> np.ndarray:
        return self.u[self.ends - 1]

    def values(self, gvals: Sequence[np.ndarray]) -> np.ndarray:
        """Each g on u, one row per array of grid values in ``gvals``."""
        nodes = self.grid.nodes
        out = np.zeros((len(gvals), len(self.u)), dtype=np.complex128)
        for row, g in zip(out, gvals):
            col = 1
            for seg, inner in zip(self.phi.segments, self.inner):
                gv = _piece_values(nodes, g, seg.lo, seg.hi, inner)
                row[col : col + len(gv)] = gv
                col += len(gv) + 2
        return out


def _image_mesh(phi: Integrator, grid: UniformGrid1D) -> _ImageMesh:
    _check_domain(phi, grid)
    nodes = grid.nodes
    seg_of = np.searchsorted([seg.lo for seg in phi.segments], nodes, side="right") - 1
    ends = np.ones(len(nodes), dtype=np.intp)
    u_parts, frames, inners = [], [], []
    start = 0
    for j, seg in enumerate(phi.segments):
        snodes, inner = _piece_nodes(nodes, seg.lo, seg.hi)
        inners.append(inner)
        u = seg.eval(snodes)
        u_parts += [u[:1], u, u[-1:]]
        frames += [start, start + len(snodes) + 1]
        mine = seg_of == j
        ends[mine] = start + 1 + np.searchsorted(snodes, nodes[mine], side="right")
        start += len(snodes) + 2
    u = np.concatenate(u_parts)
    framed = np.zeros(len(u), dtype=bool)
    framed[frames] = True
    live = (np.diff(u) > 0.0) & ~(framed[:-1] & framed[1:])
    return _ImageMesh(phi, grid, u, ends, live, tuple(inners))


def _near_field(
    alpha: float, x: np.ndarray, u: np.ndarray, G: np.ndarray
) -> np.ndarray:
    """Exact product quadrature of (x - u)^(alpha-1) g(u) over the mesh u, per row x.

    g is the piecewise-linear interpolant of the real columns G[p] between
    mesh nodes, one stack entry p per function, and the kernel moments of each
    cell are integrated exactly; cells right of x have r = 0 at both ends and
    add exactly nothing, so one block of rows shares one mesh window and x may
    touch its last node.
    """
    r = np.maximum(x[:, None] - u[None, :], 0.0)
    ra = r ** alpha
    rb = ra * r
    m0 = (ra[:, :-1] - ra[:, 1:]) / alpha
    m1 = r[:, :-1] * m0 - (rb[:, :-1] - rb[:, 1:]) / (alpha + 1.0)
    du = np.diff(u)
    inv_du = np.divide(1.0, du, out=np.zeros_like(du), where=du > 0.0)
    # cells no longer than 1e-15 max(1, |x|) keep only their left value
    m1 *= inv_du * (du > 1e-15 * np.maximum(1.0, np.abs(x))[:, None])
    return (m0 - m1) @ G[:, :-1] + m1 @ G[:, 1:]


def _gauss_jacobi(alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the weight (1 - alpha) t^(-alpha) on [0, 1], 0 < alpha < 1.

    Golub-Welsch on the Jacobi matrix of (1 + x)^(-alpha) on [-1, 1], without
    LAPACK (whose first call costs about 1 MB of resident memory): the
    eigenvalues are bracketed by Sturm counts and polished by Newton steps on
    the characteristic polynomial, and each weight is 1 / sum_k p_k(x)^2 for
    the orthonormal polynomials p_k. The weights are positive and sum to 1.
    """
    n = _GAUSS_POINTS
    b = -alpha
    k = np.arange(n, dtype=np.float64)
    diag = b * b / ((2.0 * k + b) * (2.0 * k + b + 2.0))
    diag[0] = b / (b + 2.0)
    k = k[1:]
    c = 2.0 * k + b
    off = 2.0 * k * (k - alpha) / (c * np.sqrt((c + 1.0) * (c - 1.0)))
    off2 = off * off

    def ratios(lam):
        # q_k = det(T_(k+1) - lam) / det(T_k - lam) and its derivative in lam
        q, dq = diag[0] - lam, -np.ones_like(lam)
        yield q, dq
        for d, e2 in zip(diag[1:], off2):
            q, dq = d - lam - e2 / q, -1.0 + e2 * dq / (q * q)
            yield q, dq

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # eigenvalue i lies above exactly i of them: three 32-way multisections
        lo, width = np.full(n, -1.0), 2.0
        frac = np.arange(1, 32) / 32.0
        for _ in range(3):
            trial = lo[:, None] + width * frac
            below = sum((q < 0.0).astype(np.intp) for q, _ in ratios(trial))
            lo = lo + width * (below <= np.arange(n)[:, None]).sum(axis=1) / 32.0
            width /= 32.0
        x = lo + 0.5 * width
        for _ in range(3):
            step = 1.0 / sum(dq / q for q, dq in ratios(x))
            x = np.clip(x - np.nan_to_num(step), lo, lo + width)
    p_prev, p = np.zeros(n), np.ones(n)
    norm = np.ones(n)
    for d, e, e_prev in zip(diag[:-1], off, np.concatenate([[0.0], off[:-1]])):
        p_prev, p = p, ((x - d) * p - e_prev * p_prev) / e
        norm += p * p
    return 0.5 * (x + 1.0), 1.0 / norm


def _sum_of_exponentials(
    alpha: float, delta: float, length: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rates s_j and positive weights w_j with sum_j w_j e^(-s_j r) = r^(alpha-1).

    For 0 < alpha < 1, r^(alpha-1) = int_0^inf s^(-alpha) e^(-s r) ds / Gamma(1-alpha).
    Gauss-Jacobi with weight s^(-alpha) covers [0, 1/length] and
    Gauss-Legendre each dyadic interval above it, up to _SOE_CUT / delta,
    which leaves a tail below e^(-_SOE_CUT). The relative error stays near
    2e-15 on [delta, length] for every alpha in (0, 1), and the count is
    _GAUSS_POINTS * (1 + ceil(log2(_SOE_CUT * length / delta))), whatever alpha.
    The rates come out sorted.
    """
    t, v = _gauss_jacobi(alpha)
    # (1 - alpha) Gamma(1 - alpha) = Gamma(2 - alpha)
    s_low = t / length
    w_low = v * length ** (alpha - 1.0) / math.gamma(2.0 - alpha)
    octaves = max(1, math.ceil(math.log2(_SOE_CUT * length / delta)))
    lo = 2.0 ** np.arange(octaves)[:, None] / length
    y, wy = _GAUSS_RULE
    s_high = (lo * (1.0 + y)).ravel()
    w_high = (lo * wy).ravel() * s_high ** (-alpha) / math.gamma(1.0 - alpha)
    return np.concatenate([s_low, s_high]), np.concatenate([w_low, w_high])


def _far_field_exponentials(
    alpha: float, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """The history's exponentials for node images x, or None when there is no far field.

    A block starting at node m0 reads its far field from the cutoff phi(t_(m0-K)),
    so every far distance lies in [delta, R] with delta the least gap from a
    block start to its cutoff and R = phi(T) - phi(a). Orders >= 1 have a
    bounded kernel and take the exact rule over the whole prefix instead.
    """
    starts = np.arange(1 + _BLOCK, len(x), _BLOCK)
    if alpha >= 1.0 or len(starts) == 0:
        return None
    delta = float(np.min(x[starts] - x[starts - _NEAR]))
    if not delta > 0.0:  # image nodes that round together: no safe far field
        return None
    length = float(x[-1] - x[0])
    if not math.isfinite(length):
        raise ValueError(f"the order-{alpha} integral with respect to phi overflows")
    return _sum_of_exponentials(alpha, delta, length)


def _exponential_cell_moments(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """int_0^1 w e^(-z w) dw and int_0^1 (1 - w) e^(-z w) dw for z >= 0, both >= 0.

    With w the distance from a cell's right end in cell lengths, they weigh g
    at the cell's left and right node. The closed forms lose no digits for
    z >= 1; below that the Taylor series is summed, whose terms alternate in
    sign and shrink, so its sums stay positive.
    """
    zc = np.maximum(z, 1.0)
    e = np.exp(-zc)
    left = (1.0 - (1.0 + zc) * e) / zc / zc
    right = (zc - 1.0 + e) / zc / zc
    small = z < 1.0
    if small.any():
        left[small], right[small] = _SERIES.T @ z[small] ** _SERIES_POWERS[:, None]
    return left, right


def _advance_history(
    H: np.ndarray, s: np.ndarray, mesh: _ImageMesh, G: np.ndarray, c0: int, c1: int
) -> None:
    """Move the history from cutoff u[c0] to u[c1], adding cells c0 .. c1-1 in place.

    H[j] = int_(u < cutoff) e^(-s_j (cutoff - u)) g(u) du for the piecewise-linear
    g; each new cell adds the exact moments of e^(-s_j (cutoff - u)) against
    the two linear pieces of g on it. Only the mesh's live cells are added:
    the others add exactly nothing. Which cells those are does not depend on
    g, and H and G are stacks with one entry per function, so an entry gets
    the same arithmetic in any batch.
    """
    u = mesh.u
    H *= np.exp(-s * (u[c1] - u[c0]))[:, None]
    live = np.flatnonzero(mesh.live[c0:c1])
    if not live.size:
        return
    h = np.diff(u[c0 : c1 + 1])[live]
    gl, gr = G[:, c0 + live], G[:, c0 + 1 + live]
    decay = np.exp(-np.outer(s, u[c1] - u[c0 + 1 + live]))
    # rows with s h < 1 on every cell take the series as one product,
    # sum_n (s_j hmax)^n sum_i decay_ji h_i (h_i / hmax)^n (a_n g_i + b_n g_(i+1))
    # with (a_n, b_n) = _SERIES[n]; its terms alternate in n and shrink
    hmax = float(h.max())
    low = int(np.searchsorted(s, 1.0 / hmax))
    V = gl[:, :, None] * _SERIES[:, 0, None] + gr[:, :, None] * _SERIES[:, 1, None]
    V *= (h[:, None] * (h[:, None] / hmax) ** _SERIES_POWERS)[:, :, None]
    S = (decay[:low] @ V.reshape(len(V), len(h), -1)).reshape(len(V), low, *_SERIES.shape)
    H[:, :low] += (((hmax * s[:low, None]) ** _SERIES_POWERS)[:, None, :] @ S)[:, :, 0]
    left, right = _exponential_cell_moments(np.outer(s[low:], h))
    decay = decay[low:] * h
    H[:, low:] += (decay * left) @ gl + (decay * right) @ gr


def rl_wrt_phi_direct(
    alpha: float,
    phi: Integrator,
    g: SampledFunction1D | Sequence[SampledFunction1D],
) -> SampledFunction1D | list[SampledFunction1D]:
    """Direct route: integrate the kernel over the image set of [a, t].

    Node t_m is one product quadrature over the prefix of the image mesh
    (``_image_mesh``) that ends at phi(t_m): g is linear between mesh nodes and
    every cell's kernel moments are exact; the zero-filled gap cells add
    nothing, and the kernel is singular only at the last mesh node.

    g is one sampled function or a sequence of them on one grid, and the
    result matches: one output, or a list. The kernel work (mesh, exponential
    rates, decays, cell and kernel moments) is paid once per call. Each
    function adds only its two real GEMM columns, its real and imaginary
    parts, in a stack of same-shape GEMMs: BLAS may round one column of a
    wider GEMM differently, and this way every function gets the arithmetic
    of a call of its own, bit for bit. The mesh is the direct route's own: the
    transmuted route reads phi(t_m) from ``Integrator.value``.

    Nodes go in blocks of _BLOCK. For 0 < alpha < 1 a block takes the exact
    moments only on the cells from _NEAR grid nodes before its first node on.
    Everything left of that cutoff comes from a history of J exponentials
    whose positive-weight sum matches r^(alpha-1) to about 2e-15 relative
    (``_sum_of_exponentials``) and which carries across the nonuniform image
    mesh and its jumps. That costs O(N (J + _NEAR + _BLOCK)) time with
    J = 10 (1 + ceil(log2(40 R / delta))), R the image length and delta the
    least image gap from a block start to its cutoff, and temporaries of
    O(_BLOCK (_NEAR + _BLOCK + J)); the kernel work is paid once and each
    function adds GEMM multiply-adds of the same order. For alpha >= 1 the
    kernel is bounded and every node takes the exact moments over its whole
    prefix: O(N^2) time, in blocks of at most _BLOCK_ENTRIES kernel entries.

    Either way the result agrees with the exact rule over the whole prefix to
    about 1e-14 relative, node 0 is exactly 0, and since every weight is
    nonnegative a nonnegative real g gives an exactly nonnegative real result.
    A non-finite sample, or a result that overflows, is a ``ValueError``.
    """
    alpha = _check_order(alpha)
    gs = [g] if isinstance(g, SampledFunction1D) else list(g)
    if not gs:
        raise ValueError("the direct route needs at least one sampled function")
    grid = gs[0].grid
    for other in gs[1:]:
        _require_same_grid(gs[0], other)
    mesh = _image_mesh(phi, grid)
    for f in gs:
        bad = np.flatnonzero(~np.isfinite(f.values))
        if bad.size:
            k = int(bad[0])
            raise ValueError(f"non-finite sample at node index {k} (t={grid.nodes[k]})")
    # G[p] is function p on the mesh, its real and imaginary parts as columns
    G = mesh.values([f.values for f in gs]).view(np.float64).reshape(len(gs), -1, 2)
    u, ends, x = mesh.u, mesh.ends, mesh.x
    N = grid.N
    out = np.zeros((len(gs), N + 1, 2))
    with np.errstate(over="ignore", invalid="ignore"):
        soe = _far_field_exponentials(alpha, x)
        if soe is not None:
            s, w = soe
            H = np.zeros((len(gs), len(s), 2))
        # blocks that read whole prefixes get fewer rows, which bounds their temporaries
        rows = _BLOCK if soe is not None else max(1, min(_BLOCK, _BLOCK_ENTRIES // len(u)))
        cut = 0
        for m0 in range(1, N + 1, rows):
            m1 = min(m0 + rows, N + 1)
            if soe is not None and m0 > _BLOCK:
                new_cut = int(ends[m0 - _NEAR]) - 1
                _advance_history(H, s, mesh, G, cut, new_cut)
                cut = new_cut
                out[:, m0:m1] = np.exp(-np.outer(x[m0:m1] - u[cut], s)) @ (w[:, None] * H)
            k = int(ends[m1 - 1])
            out[:, m0:m1] += _near_field(alpha, x[m0:m1], u[cut:k], G[:, cut:k])
        out /= math.gamma(alpha)
    if not np.isfinite(out).all():
        raise ValueError(f"the order-{alpha} integral with respect to phi overflows")
    results = [SampledFunction1D(grid, v) for v in out.view(np.complex128)[..., 0]]
    return results[0] if isinstance(g, SampledFunction1D) else results


def pullback_to_image(phi: Integrator, g: SampledFunction1D) -> SampledFunction1D:
    """g composed with the inverse of phi on a uniform grid of [phi(a), phi(T)].

    Read through the forward map only: each segment's s-nodes (``_piece_nodes``)
    go through phi, and g is linear in the image variable between those image
    nodes. The open gaps left by jumps are filled with zero; the closed image
    intervals keep g at their ends, and at a seam the later segment wins.
    """
    _check_domain(phi, g.grid)
    vgrid = UniformGrid1D(phi.phi_a, phi.phi_T, g.grid.N)
    v = vgrid.nodes
    nodes = g.grid.nodes
    pieces = [_piece_nodes(nodes, seg.lo, seg.hi) for seg in phi.segments]
    images = [seg.eval(snodes) for seg, (snodes, _) in zip(phi.segments, pieces)]
    values = [
        _piece_values(nodes, g.values, seg.lo, seg.hi, inner)
        for seg, (_, inner) in zip(phi.segments, pieces)
    ]
    # np.interp takes the last of equal image nodes and clamps a last node past phi(T)
    out = np.interp(v, np.concatenate(images), np.concatenate(values))
    for left, right in zip(images, images[1:]):
        out[(v > left[-1]) & (v < right[0])] = 0.0
    return SampledFunction1D(vgrid, out)


def rl_wrt_phi_transmuted(
    alpha: float, phi: Integrator, g: SampledFunction1D
) -> SampledFunction1D:
    """Transmuted route: pull back, integrate on the image, compose with phi.

    It shares only phi with the direct route: the composition reads phi(t_m)
    from ``Integrator.value``, with t_m clamped to T so that a last node past T
    by an ulp reads phi(T).
    """
    alpha = _check_order(alpha)
    pulled = pullback_to_image(phi, g)
    integrated = rl_integral(alpha, pulled)
    x = phi.value(np.minimum(g.grid.nodes, phi.T))
    vals = np.interp(x, pulled.grid.nodes, integrated.values)
    return SampledFunction1D(g.grid, vals)


def transmutation_residual(
    alpha: float,
    phi: Integrator,
    g_exprs: Sequence[Callable[[np.ndarray], np.ndarray]],
    n: int,
) -> list[float]:
    """L1 distance between the direct and transmuted routes, one per probe, at resolution n.

    Each probe is an array expression, sampled once on all n + 1 nodes
    (``sample_array``). The direct route runs once for all probes, so an extra
    probe adds only its GEMM columns there, and one transmuted route (one
    ``rl_integral``).
    """
    grid = UniformGrid1D(phi.a, phi.T, int(n))
    gs = [sample_array(expr, grid) for expr in g_exprs]
    direct = rl_wrt_phi_direct(alpha, phi, gs)
    return [l1_distance(d, rl_wrt_phi_transmuted(alpha, phi, g)) for d, g in zip(direct, gs)]


def integrator_to_dict(phi: Integrator) -> dict:
    return {
        "domain": [phi.a, phi.T],
        "segments": [
            {
                "interval": [seg.lo, seg.hi],
                "kind": seg.kind,
                "coefficients": list(seg.coefficients),
            }
            for seg in phi.segments
        ],
        "jumps": [{"at": j.at, "size": j.size} for j in phi.jumps],
    }


def integrator_from_dict(payload: dict) -> Integrator:
    try:
        domain = [float(v) for v in payload["domain"]]
        segs = tuple(
            Segment(
                float(s["interval"][0]),
                float(s["interval"][1]),
                str(s["kind"]),
                tuple(s["coefficients"]),
            )
            for s in payload["segments"]
        )
        jumps = tuple(
            Jump(float(j["at"]), float(j["size"])) for j in payload.get("jumps", [])
        )
    except (KeyError, TypeError, IndexError) as exc:
        raise ValueError(f"malformed integrator spec: {exc}") from exc
    if len(domain) != 2:
        raise ValueError(f"malformed integrator spec: domain must be [a, T], got {domain}")
    phi = Integrator(segs, jumps)
    if abs(phi.a - domain[0]) > _BOUNDARY_TOL or abs(phi.T - domain[1]) > _BOUNDARY_TOL:
        raise ValueError(
            f"declared domain {domain} does not match segments [{phi.a}, {phi.T}]"
        )
    return phi


def load_integrator(path: str) -> Integrator:
    with open(path) as fh:
        return integrator_from_dict(json.load(fh))
