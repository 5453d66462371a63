"""Fractional integrals with respect to a strictly increasing integrator.

An integrator phi is a piecewise-smooth strictly increasing function on
[a, T] with finitely many interior jumps. Conventions, fixed once:

* the pointwise value at a jump point is the right limit;
* segment images are closed intervals with exactly computed endpoints, so
  pushforward measures are assertable;
* consecutive segments meet, and a declared domain matches the segments,
  to within a few ulps of max(|a|, |T|) plus 1e-12 of T - a, so a hole or
  overlap is judged on the domain's own scale;
* the images of consecutive segments are judged on their own scale too,
  against the rounding bound of the two evaluations at the shared end
  (Horner's bound for a polynomial, a few ulps of
  |c0| + |c1 e^(c2 s)| (1 + |c2 s|) for an exponential) plus how far the
  later segment moves across the ends' tolerated mismatch: an image gap
  within it is continuity, one above it must match a declared jump to
  within it, and a negative one below it is an overlap;
* jumps contribute no mass: the pushforward of Lebesgue measure assigns an
  interval the total length of its image, and single points are null;
* when pulling a function back to the image domain, the open gaps that
  jumps leave are filled with zero, which is exactly what makes the two
  evaluation routes below agree (the defining integral only ever sees the
  image of phi).

Both routes read phi only forward, at the image nodes phi(s) of each
segment's grid nodes and ends (``_pieces``); nothing solves phi(s) = v. The
integral with respect to phi is computed two ways that share nothing else:
directly, by product quadrature of the singular kernel on one image mesh
(those image nodes, all segments in order, zero-filled across the jump
gaps), node t reading the mesh prefix that ends at phi(t); and by
transmutation, pulling g back to a uniform grid on [phi(a), phi(T)], linear
in the image variable between the image nodes, applying the ordinary
fractional integral there, and composing the result with phi(t) from
``Integrator.value``. The two routes agree up to resampling error, which
shrinks under refinement.

The direct route costs O(N (J + K + B)) time for 0 < alpha < 1: nodes go
in blocks of B = 32, each takes exact kernel moments on the cells from
K = 4 grid nodes before it, and the rest of its prefix comes from a history
of J positive-weight exponentials, J = 10 + 26 ceil(ln(40 R / delta) / 4) for
the image length R and the least image gap delta across K nodes at a block
start (J = 88 for the unit jump at N = 4096). The kernel tables are built
for a chunk of blocks at once, as many as keep a history table (J x cells)
within 65536 entries, in one workspace per call: the decays, cell moments
and far-read exponentials of the history, and the near-field moments. Only
the J-vector recurrence of the history runs block by block. For alpha >= 1
the kernel is bounded and each node takes the exact rule over its whole
prefix, O(N^2) time in blocks of at most 65536 kernel entries. None of the
kernel work depends on g: the image mesh (apart from g's own row on it),
the exponential rates and every kernel table are paid once per call, and
one call takes several functions on one grid, each adding GEMM
multiply-adds of the same order through its own columns.
``transmutation_residual`` runs the direct route once for every probe.
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
    _functions_on_one_grid,
    l1_distance,
    sample_array,
)
from .rl_core import _check_order, rl_integral

# segment ends that should meet, and the declared domain against the
# segments, are judged on the domain's own scale (_boundary_tol); image gaps
# and jump sizes on the images' own scale (_image_gap_tol)
_BOUNDARY_ULPS = 4.0
_BOUNDARY_MARGIN = 1e-12
_EVAL_ULPS = 4.0

# The direct route's block kernel: nodes per block and grid nodes of exact
# near field before each block.
_BLOCK = 32
_NEAR = 4
# Most rows x mesh nodes of a block that reads whole prefixes, and most
# rates x cells of a chunk's history table.
_BLOCK_ENTRIES = 65536

# Taylor coefficients in z of the two cell moments of _history_increments,
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
        if not -math.inf < self.lo < self.hi < math.inf:
            raise ValueError(f"segment needs finite lo < hi, got [{self.lo}, {self.hi}]")
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


def _boundary_tol(a: float, T: float) -> float:
    """A few ulps of max(|a|, |T|) plus a relative margin of T - a."""
    ulps = _BOUNDARY_ULPS * np.finfo(np.float64).eps * max(abs(a), abs(T))
    return ulps + 2.0 * _BOUNDARY_MARGIN * (0.5 * T - 0.5 * a)  # halves: T - a may overflow


def _eval_rounding(seg: Segment, s: float) -> float:
    """A bound on the rounding error of ``seg.eval(s)``.

    Horner's bound for a polynomial, 4 (deg + 1) eps polyval(|s|, |c|), as
    in ``_strictly_increasing``; for c0 + c1 e^(c2 s), a few ulps of
    |c0| + |c1 e^(c2 s)| (1 + |c2 s|), the last factor carrying the
    rounding of c2 s through the exponential.
    """
    eps = np.finfo(np.float64).eps
    with np.errstate(over="ignore"):  # an infinite bound only accepts more
        if seg.kind == "poly":
            c = np.abs(seg.coefficients)
            return _EVAL_ULPS * len(c) * eps * float(np.polynomial.polynomial.polyval(abs(s), c))
        c0, c1, c2 = seg.coefficients
        grow = abs(c1 * np.exp(c2 * s))
        return _EVAL_ULPS * eps * float(abs(c0) + grow * (1.0 + abs(c2 * s)))


def _image_gap_tol(prev: Segment, cur: Segment) -> float:
    """The tolerance on the image gap from ``prev`` to ``cur``.

    The rounding of the two evaluations at their ends, plus how far ``cur``
    moves across the mismatch of the two ends, which contiguity tolerates.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        seam = abs(float(cur.eval(prev.hi) - cur.eval(cur.lo))) if prev.hi != cur.lo else 0.0
    return _eval_rounding(prev, prev.hi) + _eval_rounding(cur, cur.lo) + seam


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
        tol = _boundary_tol(segments[0].lo, segments[-1].hi)
        for prev, cur in zip(segments, segments[1:]):
            if abs(prev.hi - cur.lo) > tol:
                between = "a hole" if cur.lo > prev.hi else "an overlap"
                ends = sorted((prev.hi, cur.lo))
                raise ValueError(
                    f"segments must be contiguous: [{prev.lo}, {prev.hi}] then "
                    f"[{cur.lo}, {cur.hi}] leave {between} ({ends[0]}, {ends[1]}) "
                    f"wider than the tolerance {tol:.3g}"
                )
        for seg in segments:
            ends = seg.eval([seg.lo, seg.hi])
            if not np.all(np.isfinite(ends)):
                raise ValueError(f"segment on [{seg.lo}, {seg.hi}] is not finite")
            if not _strictly_increasing(seg):
                raise ValueError(
                    f"segment on [{seg.lo}, {seg.hi}] is not strictly increasing"
                )
            if not ends[0] < ends[1]:
                raise ValueError(
                    f"segment on [{seg.lo}, {seg.hi}] has the image [{ends[0]}, {ends[1]}], "
                    "which has no length in floating point"
                )
        for prev, cur in zip(jumps, jumps[1:]):
            if prev.at == cur.at:
                raise ValueError(f"two jumps are declared at s={cur.at}")
        declared = {j.at: j.size for j in jumps}
        for prev, cur in zip(segments, segments[1:]):
            gap = float(cur.eval(cur.lo) - prev.eval(prev.hi))
            gap_tol = _image_gap_tol(prev, cur)
            if gap < -gap_tol:
                raise ValueError(
                    f"images overlap across the boundary at s={prev.hi}: gap {gap} "
                    f"below the tolerance -{gap_tol:.3g}"
                )
            if gap > gap_tol:
                size = declared.pop(prev.hi, None)
                if size is None or abs(size - gap) > gap_tol:
                    raise ValueError(
                        f"image gap {gap} at s={prev.hi} does not match a declared jump "
                        f"to within the tolerance {gap_tol:.3g}"
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


def _pieces(
    phi: Integrator, grid: UniformGrid1D, gvals: Sequence[np.ndarray]
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Per segment, in order: its s-nodes, phi at them, and each g at them.

    The s-nodes are the segment's two ends and the grid nodes strictly
    inside; g (one row per array of grid values in ``gvals``) is interpolated
    at the two ends.
    """
    _check_domain(phi, grid)
    nodes = grid.nodes
    G = np.asarray(gvals)
    pieces = []
    for seg in phi.segments:
        inner = slice(
            int(np.searchsorted(nodes, seg.lo, side="right")),
            int(np.searchsorted(nodes, seg.hi, side="left")),
        )
        snodes = np.concatenate([[seg.lo], nodes[inner], [seg.hi]])
        at_ends = np.array([np.interp((seg.lo, seg.hi), nodes, g) for g in G])
        values = np.concatenate([at_ends[:, :1], G[:, inner], at_ends[:, 1:]], axis=1)
        pieces.append((snodes, seg.eval(snodes), values))
    return pieces


def _image_mesh(
    phi: Integrator, grid: UniformGrid1D, gvals: Sequence[np.ndarray]
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The image mesh u of phi on a grid, its ``ends`` and ``live`` cells, and g on it.

    u holds each segment's image nodes framed by copies of its two end
    images, segments in order; u[:ends[m]] ends at phi(t_m), the right limit
    at a jump. G has one row per g, zero on the frame copies, so seam cells
    have zero length and jump-gap cells are zero-filled. ``live`` marks the
    cells that can carry g: positive length, not between two frame copies.
    Only G depends on g.
    """
    nodes = grid.nodes
    seg_of = np.searchsorted([seg.lo for seg in phi.segments], nodes, side="right") - 1
    ends = np.ones(len(nodes), dtype=np.intp)
    zero = np.zeros((len(gvals), 1), dtype=np.complex128)
    u_parts, G_parts, frames = [], [], []
    start = 0
    for j, (snodes, images, values) in enumerate(_pieces(phi, grid, gvals)):
        u_parts += [images[:1], images, images[-1:]]
        G_parts += [zero, values, zero]
        frames += [start, start + len(snodes) + 1]
        mine = seg_of == j
        ends[mine] = start + 1 + np.searchsorted(snodes, nodes[mine], side="right")
        start += len(snodes) + 2
    u = np.concatenate(u_parts)
    framed = np.zeros(len(u), dtype=bool)
    framed[frames] = True
    live = (np.diff(u) > 0.0) & ~(framed[:-1] & framed[1:])
    return u, ends, live, np.concatenate(G_parts, axis=1)


def _near_field(
    alpha: float, x: np.ndarray, u: np.ndarray, G: np.ndarray, out: np.ndarray,
    work: np.ndarray,
) -> None:
    """Exact product quadrature of (x - u)^(alpha-1) g(u) over a mesh window, per row x.

    x holds one block of rows per window u; G[p] is function p on each
    window, its real and imaginary parts as columns, and ``out[p]`` takes
    the (block, row) sums. g is the piecewise-linear interpolant between
    window nodes and the kernel moments of each cell are integrated exactly.
    Cells right of x have r = 0 at both ends and zero-length cells (a window
    padded with copies of its last node) add exactly nothing, so one block
    of rows shares one window and x may touch its last node. A cell no
    longer than 1e-15 max(1, |x|) for the block's largest |x| keeps only its
    left value. ``work`` holds at least 4 * x.size * u.shape[1] floats.
    """
    shape = (*x.shape, u.shape[1])
    size = math.prod(shape)
    # flat tables, one entry per (block, row, window node); entry i of a row
    # stands for the cell from node i to node i + 1, so the last entry of
    # each row spans two rows, and the GEMMs never read it
    r, ra, m0, m1 = (work[k * size:(k + 1) * size] for k in range(4))
    np.subtract(x[:, :, None], u[:, None, :], out=r.reshape(shape))
    np.maximum(r, 0.0, out=r)
    np.power(r, alpha, out=ra)
    np.subtract(ra[:-1], ra[1:], out=m0[:-1])  # alpha m0, the cell's moment of r^(alpha-1)
    ra *= r
    np.subtract(ra[1:], ra[:-1], out=m1[:-1])
    m0[-1] = m1[-1] = 0.0
    m1 *= alpha / (alpha + 1.0)
    r *= m0
    m1 += r  # alpha m1 du: r m0 - (r^(alpha+1) difference) / (alpha+1), times alpha
    du = np.zeros((len(u), 1, u.shape[1]))
    np.subtract(u[:, 1:], u[:, :-1], out=du[:, 0, :-1])
    least = 1e-15 * np.maximum(1.0, np.abs(x).max(axis=1))
    m0, m1 = m0.reshape(shape), m1.reshape(shape)
    m1 *= np.divide(1.0, du, out=np.zeros_like(du), where=du > least[:, None, None])
    m0 -= m1
    np.matmul(m0[..., :-1], G[:, :, :-1], out=out)
    out += m1[..., :-1] @ G[:, :, 1:]
    out /= alpha  # both moments were alpha times their value


# A sum of exponentials for a kernel power: Gauss-Jacobi points, Gauss points per
# panel of ln s, the widest panel, and s delta at its top rate (e^(-s delta) < 5e-18).
_GAUSS_POINTS = 10
_PANEL_POINTS = 26
_SOE_PANEL = 4.0
_SOE_CUT = 40.0


def _gauss_jacobi(alpha: float, points: int = _GAUSS_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Gauss rule for the weight (1 - alpha) t^(-alpha) on [0, 1], 0 <= alpha < 1.

    Golub-Welsch (Math. Comp. 23, 1969) on the Jacobi matrix of
    (1 + x)^(-alpha) on [-1, 1]: the nodes are its eigenvalues, in ascending
    order, and the weights the squared first components of its eigenvectors,
    divided by their sum, so they are positive and sum to 1. alpha = 0 is
    Gauss-Legendre.
    """
    b = -alpha
    k = np.arange(1, points, dtype=np.float64)
    c = 2.0 * k + b
    diag = np.concatenate([[b / (b + 2.0)], b * b / (c * (c + 2.0))])
    off = 2.0 * k * (k - alpha) / (c * np.sqrt((c + 1.0) * (c - 1.0)))
    x, vec = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    v = vec[0] ** 2
    return 0.5 * (x + 1.0), v / v.sum()


def _sum_of_exponentials(
    alpha: float, delta: float, length: float
) -> tuple[np.ndarray, np.ndarray]:
    """Rates s_j and positive weights w_j with sum_j w_j e^(-s_j r) = r^(alpha-1).

    For 0 < alpha < 1, r^(alpha-1) = int_0^inf s^(-alpha) e^(-s r) ds / Gamma(1-alpha).
    Gauss-Jacobi with weight s^(-alpha) covers [0, 1/length], and Gauss-Legendre in
    x = ln s, where e^((1-alpha) x - r e^x) is analytic in a strip (McLean, 2018),
    equal panels at most _SOE_PANEL wide up to ln(_SOE_CUT / delta), leaving a tail
    below e^(-_SOE_CUT). The relative error stays near 2e-15 on [delta, length] for
    every alpha in (0, 1), and the count is _GAUSS_POINTS + _PANEL_POINTS *
    ceil(ln(_SOE_CUT length / delta) / _SOE_PANEL), whatever alpha. Rates ascend.
    """
    t, v = _gauss_jacobi(alpha)
    # (1 - alpha) Gamma(1 - alpha) = Gamma(2 - alpha)
    s_low = t / length
    w_low = v * length ** (alpha - 1.0) / math.gamma(2.0 - alpha)
    span = math.log(_SOE_CUT * length / delta)
    panels = math.ceil(span / _SOE_PANEL)
    width = span / panels
    # per call: a LAPACK call at import would add ~0.6 MB of RSS to every command
    y, wy = _gauss_jacobi(0.0, _PANEL_POINTS)
    x = width * (np.arange(panels)[:, None] + y).ravel() - math.log(length)
    w_high = np.tile(width * wy, panels) * np.exp((1.0 - alpha) * x) / math.gamma(1.0 - alpha)
    return np.concatenate([s_low, np.exp(x)]), np.concatenate([w_low, w_high])


def _far_field_exponentials(
    alpha: float, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray] | None:
    """The history's exponentials for node images x, or None when there is no far field.

    A block starting at node m0 reads its far field from the cutoff phi(t_(m0-K)),
    so every far distance lies in [delta, R] with delta the least gap from a
    block start to its cutoff and R = phi(T) - phi(a): 10 + 26 ceil(ln(40 R /
    delta) / 4) exponentials. Orders >= 1 have a bounded kernel and take the
    exact rule over the whole prefix instead.
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


def _history_increments(
    s: np.ndarray, h: np.ndarray, gap: np.ndarray, Gl: np.ndarray, Gr: np.ndarray,
    out: np.ndarray, work: np.ndarray,
) -> None:
    """What the cells of each block add to a history held at its cutoff.

    out[p, b, j] = sum_i int_(cell i) e^(-s_j (cutoff - u)) g(u) du for the
    piecewise-linear g of function p, over the cells of block b: lengths
    h[b] (0 for cells that add nothing), distances gap[b] from their right
    ends to the cutoff, and g at their ends Gl[p, b] and Gr[p, b], real and
    imaginary parts as columns. With w the distance from a cell's right end
    in cell lengths, the left and right values of g are weighed by
    e^(-s_j gap_i) h_i int_0^1 v(w) e^(-z w) dw, z = s_j h_i, for v = w and
    1 - w: g-free tables of nonnegative weights, one product per entry, each
    applied to g in one stack of same-shape GEMMs. ``work`` holds at least
    2 * s.size * h.size floats.
    """
    size = s.size * h.size
    decay, X = (work[k * size:(k + 1) * size].reshape(len(s), *h.shape) for k in range(2))
    live = h[h > 0.0]
    if not live.size:  # no cell adds anything
        out[...] = 0.0
        return
    hmax = float(live.max())
    np.einsum("j,bi->jbi", -s, gap, out=decay)  # outer products: faster than broadcasting
    np.exp(decay, out=decay)
    # rates with s hmax < 1 sum the Taylor series of both moments in z, times
    # h, as one product, sum_n (s_j hmax)^n _SERIES[n] h_i (h_i / hmax)^n: its
    # terms alternate in n and shrink, so its sums stay positive
    low = int(np.searchsorted(s, 1.0 / hmax))
    rates = (s[:low, None] * hmax) ** _SERIES_POWERS
    powers = (h.reshape(1, -1) / hmax) ** _SERIES_POWERS[:, None]
    powers *= h.reshape(-1)
    # the others take the closed forms times h = z^2 / (s^2 h), which lose no
    # digits for z >= 1, with 1 / s^2 in their decays; a zero-length cell gets
    # 0 from its 1 / h = 0, and an entry with 0 < z < 1 (a cell shorter than
    # hmax) sums the series alone
    fast, high = s[low:], X[low:]
    e = np.einsum("j,bi->jbi", -fast, h)
    np.exp(e, out=e)
    decay[low:] *= (fast ** -2.0)[:, None, None]
    inv_h = np.divide(1.0, h, out=np.zeros_like(h), where=h > 0.0)
    mid = int(np.searchsorted(fast, 1.0 / float(live.min())))
    z = np.einsum("j,bi->jbi", fast[:mid], h)
    small = (0.0 < z) & (z < 1.0)
    series = z[small] ** _SERIES_POWERS[:, None] * (z * fast[:mid, None, None])[small]  # times s^2 h
    for k, G in enumerate((Gl, Gr)):
        np.matmul(rates * _SERIES[:, k], powers, out=X[:low].reshape(low, -1))
        np.einsum("j,bi->jbi", -fast, h, out=high)
        if k == 0:  # 1 - (1 + z) e^(-z)
            np.subtract(1.0, high, out=high)
            high *= e
            np.subtract(1.0, high, out=high)
        else:  # z - 1 + e^(-z)
            np.subtract(-1.0, high, out=high)
            high += e
        high *= inv_h
        high[:mid][small] = _SERIES[:, k] @ series
        X *= decay
        if k == 0:
            np.matmul(X.transpose(1, 0, 2), G, out=out)
        else:
            out += X.transpose(1, 0, 2) @ G


def _exact_prefixes(
    alpha: float, x: np.ndarray, u: np.ndarray, ends: np.ndarray, G: np.ndarray
) -> np.ndarray:
    """Every node's exact rule over its whole mesh prefix (``_near_field``).

    Blocks that read whole prefixes get fewer rows, which bounds their
    temporaries to _BLOCK_ENTRIES kernel entries each.
    """
    out = np.zeros((len(G), len(x), 2))
    rows = max(1, min(_BLOCK, _BLOCK_ENTRIES // len(u)))
    work = np.empty(4 * rows * len(u))
    for m0 in range(1, len(x), rows):
        m1 = min(m0 + rows, len(x))
        k = int(ends[m1 - 1])
        _near_field(alpha, x[None, m0:m1], u[None, :k], G[:, None, :k], out[:, None, m0:m1], work)
    return out


def _chunk_blocks(rates: int, cells: int) -> int:
    """Blocks per chunk: as many as keep a history table within _BLOCK_ENTRIES entries."""
    return max(1, _BLOCK_ENTRIES // (rates * cells))


def _history_blocks(
    alpha: float, x: np.ndarray, u: np.ndarray, ends: np.ndarray, live: np.ndarray,
    G: np.ndarray, s: np.ndarray, w: np.ndarray,
) -> np.ndarray:
    """Blocks of _BLOCK nodes, each reading its near field exactly and the rest from a history.

    Block b's rows read the exact moments on a window that starts at its
    cutoff, the image of the grid node _NEAR before its first node (mesh
    index 0 for the first block), and the history of exponentials, carried
    from cutoff to cutoff, for everything left of it. The windows are padded
    to one length with copies of their last node and the cells that each
    block adds to the history to one count with zero-length cells at its
    cutoff, per chunk; neither adds anything. The last block's rows are
    padded with copies of the last node, whose sums are dropped.

    Kernel tables, all independent of g, are built for a chunk of blocks at
    once: as many blocks as keep a history table (rates x cells) within
    _BLOCK_ENTRIES entries, in one workspace per call. Only the recurrence
    H <- e^(-s (cutoff - previous cutoff)) H + dH runs block by block.
    """
    N, R, J, P = len(x) - 1, _BLOCK, len(s), len(G)
    blocks = -(-N // R)
    first = 1 + R * np.arange(blocks)
    cuts = np.zeros(blocks, dtype=np.intp)
    cuts[1:] = ends[first[1:] - _NEAR] - 1
    stops = ends[np.minimum(first + R - 1, N)]
    prev = np.concatenate([cuts[:1], cuts[:-1]])
    widths, counts = stops - cuts, np.maximum(cuts - prev, 1)  # window nodes, history cells
    c = u[cuts]
    C = int(counts.max())
    nb = _chunk_blocks(J, C)
    work = np.empty(nb * max(2 * J * C, 4 * R * int(widths.max()), R * J))
    out = np.empty((P, 1 + blocks * R, 2))
    out[:, 0] = 0.0
    history = np.empty((P, nb, J, 2))
    H, step = np.zeros((P, J, 2)), np.empty((P, J, 2))
    w = np.repeat(w, 2).reshape(J, 2)  # one weight for both parts: no broadcast in the loop
    for b0 in range(0, blocks, nb):
        b1 = min(b0 + nb, blocks)
        n, L, C = b1 - b0, int(widths[b0:b1].max()), int(counts[b0:b1].max())
        rows = np.minimum(first[b0:b1, None] + np.arange(R), N)
        window = np.minimum(cuts[b0:b1, None] + np.arange(L), stops[b0:b1, None] - 1)
        dst = out[:, 1 + b0 * R:1 + b1 * R].reshape(P, n, R, 2)
        _near_field(alpha, x[rows], u[window], G[:, window], dst, work)
        # the cells from the previous cutoff to this one, padded with zero-length cells
        nodes = np.minimum(prev[b0:b1, None] + np.arange(C + 1), cuts[b0:b1, None])
        mesh = u[nodes]
        h = np.diff(mesh, axis=1) * live[nodes[:, :-1]]  # dead cells carry no g: length 0
        hs = history[:, :n]
        _history_increments(
            s, h, c[b0:b1, None] - mesh[:, 1:], G[:, nodes[:, :-1]], G[:, nodes[:, 1:]], hs, work
        )
        decay = np.exp(-np.outer(c[b0:b1] - u[prev[b0:b1]], s)).repeat(2, axis=1)
        for hb, d in zip(hs.transpose(1, 0, 2, 3), decay.reshape(n, J, 2)):
            hb += np.multiply(d, H, out=step)
            H = hb
        H = H.copy()
        hs *= w
        far = work[:n * R * J].reshape(n, R, J)
        np.einsum("bm,j->bmj", x[rows] - c[b0:b1, None], -s, out=far)
        np.exp(far, out=far)
        dst += far @ hs
    return out[:, :N + 1]


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
    result matches: one output, or a list. Each function adds only its two
    real GEMM columns, its real and imaginary parts, in a stack of same-shape
    GEMMs: BLAS may round one column of a wider GEMM differently, and this
    way every function gets the arithmetic of a call of its own, bit for bit.
    The mesh is the direct route's own: the transmuted route reads phi(t_m)
    from ``Integrator.value``.

    For 0 < alpha < 1 nodes go in blocks of _BLOCK, and a block takes the
    exact moments only on the cells from _NEAR grid nodes before its first
    node on (``_history_blocks``). Everything left of that cutoff comes from
    a history of exponentials whose positive-weight sum matches r^(alpha-1)
    to about 2e-15 relative (``_sum_of_exponentials``) and which carries
    across the nonuniform image mesh and its jumps. The kernel tables are
    built for chunks of blocks at once, and g enters each chunk through a
    few stacked GEMMs. For alpha >= 1, and with no far field, every node
    takes the exact moments over its whole prefix (``_exact_prefixes``). The
    module docstring states the cost.

    Either way the result agrees with the exact rule over the whole prefix to
    about 1e-14 relative, node 0 is exactly 0, and since every weight is
    nonnegative a nonnegative real g gives an exactly nonnegative real result.
    A result that overflows is a ``ValueError`` naming the order.
    """
    alpha = _check_order(alpha)
    gs = _functions_on_one_grid(g)
    grid = gs[0].grid
    u, ends, live, G = _image_mesh(phi, grid, [f.values for f in gs])
    # G[p] is function p on the mesh, its real and imaginary parts as columns
    G = G.view(np.float64).reshape(len(gs), -1, 2)
    x = u[ends - 1]
    with np.errstate(over="ignore", invalid="ignore"):
        soe = _far_field_exponentials(alpha, x)
        if soe is None:
            out = _exact_prefixes(alpha, x, u, ends, G)
        else:
            out = _history_blocks(alpha, x, u, ends, live, G, *soe)
        out /= math.gamma(alpha)
    if not np.isfinite(out).all():
        raise ValueError(f"the order-{alpha} integral with respect to phi overflows")
    results = [SampledFunction1D(grid, v) for v in out.view(np.complex128)[..., 0]]
    return results[0] if isinstance(g, SampledFunction1D) else results


def pullback_to_image(phi: Integrator, g: SampledFunction1D) -> SampledFunction1D:
    """g composed with the inverse of phi on a uniform grid of [phi(a), phi(T)].

    Read through the forward map only: each segment's s-nodes (``_pieces``)
    go through phi, and g is linear in the image variable between those image
    nodes. The open gaps left by jumps are filled with zero; the closed image
    intervals keep g at their ends, and at a seam the later segment wins.
    """
    _, images, values = zip(*_pieces(phi, g.grid, [g.values]))
    vgrid = UniformGrid1D(phi.phi_a, phi.phi_T, g.grid.N)
    v = vgrid.nodes
    # np.interp takes the last of equal image nodes and clamps a last node past phi(T)
    out = np.interp(v, np.concatenate(images), np.concatenate(values, axis=1)[0])
    for left, right in zip(images, images[1:]):
        out[(v > left[-1]) & (v < right[0])] = 0.0
    return SampledFunction1D(vgrid, out)


def rl_wrt_phi_transmuted(
    alpha: float, phi: Integrator, g: SampledFunction1D
) -> SampledFunction1D:
    """Transmuted route: pull back, integrate on the image, compose with phi.

    It shares only phi with the direct route: the composition reads phi(t_m)
    from ``Integrator.value``, with t_m clamped to T so that a last node past T
    by an ulp reads phi(T). An integral that overflows on the image grid is
    a ``ValueError`` naming the order and the image step.
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
    tol = _boundary_tol(phi.a, phi.T)
    if abs(phi.a - domain[0]) > tol or abs(phi.T - domain[1]) > tol:
        raise ValueError(
            f"declared domain {domain} does not match segments [{phi.a}, {phi.T}]"
        )
    return phi


def load_integrator(path: str) -> Integrator:
    with open(path) as fh:
        return integrator_from_dict(json.load(fh))
