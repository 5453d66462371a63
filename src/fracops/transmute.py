"""Fractional integrals with respect to a strictly increasing integrator.

An integrator phi is a piecewise-smooth strictly increasing function on
[a, T] with finitely many interior jumps. Conventions, fixed once:

* the pointwise value at a jump point is the right limit;
* segment images are kept as closed intervals with exactly computed
  endpoints, so image sets and pushforward measures are assertable;
* jumps contribute no mass: the pushforward of Lebesgue measure assigns an
  interval the total length of its image, and single points are null;
* when pulling a function back to the image domain, the gaps opened by
  jumps are filled with zero, which is exactly what makes the two
  evaluation routes below agree (the defining integral only ever sees the
  image of phi).

The integral with respect to phi is computed two ways: directly, by
product quadrature of the singular kernel on one image mesh (the image
nodes of all segments in order, zero-filled across the jump gaps), node t
reading the mesh prefix that ends at phi(t); and by transmutation, pulling
g back to a uniform grid on [phi(a), phi(T)], applying the ordinary
fractional integral there, and composing the result with phi. The two
routes agree up to resampling error, which shrinks under refinement.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import SampledFunction1D, UniformGrid1D, l1_distance, sample
from .rl_core import _check_order, rl_integral

_BOUNDARY_TOL = 1e-12
_JUMP_MATCH_TOL = 1e-9


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

    def invert(self, v):
        """Solve eval(s) = v on [lo, hi] (the segment is strictly increasing)."""
        v = np.asarray(v, dtype=np.float64)
        if self.kind == "exp":
            c0, c1, c2 = self.coefficients
            return np.log((v - c0) / c1) / c2
        if len(self.coefficients) == 2:
            c0, c1 = self.coefficients
            return (v - c0) / c1
        lo = np.full(v.shape, self.lo)
        hi = np.full(v.shape, self.hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            below = self.eval(mid) < v
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
        return 0.5 * (lo + hi)


@dataclass(frozen=True)
class Jump:
    at: float
    size: float

    def __post_init__(self):
        if self.size <= 0.0:
            raise ValueError(f"jump sizes must be positive, got {self.size}")


@dataclass(frozen=True)
class ImageSet:
    """Finite ordered list of disjoint closed intervals in [phi(a), phi(T)]."""

    intervals: tuple[tuple[float, float], ...]

    @property
    def total_length(self) -> float:
        return float(sum(hi - lo for lo, hi in self.intervals))


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

    def image_set(self, u: float, v: float) -> ImageSet:
        """Closed image intervals of [u, v] under phi, one per crossed segment."""
        if not (self.a <= u <= v <= self.T):
            raise ValueError(
                f"[{u}, {v}] is not inside the domain [{self.a}, {self.T}]"
            )
        pieces = []
        for seg in self.segments:
            s_lo = max(u, seg.lo)
            s_hi = min(v, seg.hi)
            if s_hi <= s_lo:
                continue
            pieces.append((float(seg.eval(s_lo)), float(seg.eval(s_hi))))
        return ImageSet(tuple(pieces))


def identity_integrator(a: float, T: float) -> Integrator:
    return Integrator((Segment(a, T, "poly", (0.0, 1.0)),))


def linear_integrator(a: float, T: float, scale: float, offset: float = 0.0) -> Integrator:
    return Integrator((Segment(a, T, "poly", (offset, scale)),))


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
    """Lebesgue measure of phi([u, v]); jump points contribute nothing."""
    return phi.image_set(u, v).total_length


def _check_domain(phi: Integrator, grid: UniformGrid1D) -> None:
    if abs(grid.a - phi.a) > _BOUNDARY_TOL or abs(grid.T - phi.T) > _BOUNDARY_TOL:
        raise ValueError(
            f"grid [{grid.a}, {grid.T}] does not match the integrator domain "
            f"[{phi.a}, {phi.T}]"
        )


def _piece_nodes(
    nodes: np.ndarray, gvals: np.ndarray, s_lo: float, s_hi: float
) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature s-nodes in [s_lo, s_hi]: the endpoints plus interior grid nodes."""
    i0 = int(np.searchsorted(nodes, s_lo, side="right"))
    i1 = int(np.searchsorted(nodes, s_hi, side="left"))
    inner = nodes[i0:i1]
    snodes = np.concatenate([[s_lo], inner, [s_hi]])
    gv = np.concatenate(
        [
            [np.interp(s_lo, nodes, gvals)],
            gvals[i0:i1],
            [np.interp(s_hi, nodes, gvals)],
        ]
    )
    return snodes, gv


def _image_mesh(
    phi: Integrator, nodes: np.ndarray, values: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid values on one image mesh u, and the length of each node's prefix.

    Each segment's s-nodes are mapped through it and framed by zero-valued
    copies of its two end images, segments in order: seam cells have zero
    length, jump-gap cells are zero-filled, and u[:ends[m]] ends at phi(t_m)
    (the right limit at a jump).
    """
    seg_of = np.searchsorted([seg.lo for seg in phi.segments], nodes, side="right") - 1
    ends = np.ones(len(nodes), dtype=np.intp)
    u_parts, g_parts = [], []
    start = 0
    for j, seg in enumerate(phi.segments):
        snodes, gv = _piece_nodes(nodes, values, seg.lo, seg.hi)
        u = seg.eval(snodes)
        u_parts += [u[:1], u, u[-1:]]
        g_parts += [[0.0], gv, [0.0]]
        mine = seg_of == j
        ends[mine] = start + 1 + np.searchsorted(snodes, nodes[mine], side="right")
        start += len(snodes) + 2
    return np.concatenate(u_parts), np.concatenate(g_parts), ends


def _singular_piece_quadrature(
    alpha: float, x_img: float, unodes: np.ndarray, gv: np.ndarray
) -> complex:
    """Product quadrature of (x_img - u)^(alpha-1) g(u) over one image piece.

    Same construction as the uniform-grid operator: g is replaced by its
    piecewise-linear interpolant between image nodes and the kernel moments
    are integrated exactly, which tolerates x_img touching the last node.
    """
    r = x_img - unodes
    r = np.maximum(r, 0.0)
    ra = r ** alpha
    rb = r ** (alpha + 1.0)
    m0 = (ra[:-1] - ra[1:]) / alpha
    m1 = r[:-1] * m0 - (rb[:-1] - rb[1:]) / (alpha + 1.0)
    du = np.diff(unodes)
    keep = du > 1e-15 * max(1.0, abs(x_img))
    slope_w = np.zeros_like(m1)
    slope_w[keep] = m1[keep] / du[keep]
    terms = gv[:-1] * (m0 - slope_w) + gv[1:] * slope_w
    return complex(terms.sum())


def rl_wrt_phi_direct(
    alpha: float, phi: Integrator, g: SampledFunction1D
) -> SampledFunction1D:
    """Direct route: integrate the kernel over the image set of [a, t].

    Node t_m is one product quadrature over the prefix of the image mesh
    (``_image_mesh``) that ends at phi(t_m); the zero-filled gap cells add
    nothing, and the kernel is singular only at the last mesh node.
    """
    alpha = _check_order(alpha)
    _check_domain(phi, g.grid)
    u, gv, ends = _image_mesh(phi, g.grid.nodes, g.values)
    out = np.zeros(g.grid.N + 1, dtype=np.complex128)
    gam = math.gamma(alpha)
    for m, k in enumerate(ends[1:], 1):
        out[m] = _singular_piece_quadrature(alpha, u[k - 1], u[:k], gv[:k]) / gam
    return SampledFunction1D(g.grid, out)


def pullback_to_image(phi: Integrator, g: SampledFunction1D) -> SampledFunction1D:
    """g composed with the inverse of phi on a uniform grid of [phi(a), phi(T)].

    Gap intervals left by jumps are filled with zero; the closed image
    intervals win at their endpoints, later segments taking precedence.
    """
    _check_domain(phi, g.grid)
    vgrid = UniformGrid1D(phi.phi_a, phi.phi_T, g.grid.N)
    v = vgrid.nodes
    out = np.zeros(g.grid.N + 1, dtype=np.complex128)
    for seg in phi.segments:
        e_lo = float(seg.eval(seg.lo))
        e_hi = float(seg.eval(seg.hi))
        mask = (v >= e_lo) & (v <= e_hi)
        if not mask.any():
            continue
        s = np.clip(seg.invert(v[mask]), seg.lo, seg.hi)
        out[mask] = np.interp(s, g.grid.nodes, g.values)
    return SampledFunction1D(vgrid, out)


def rl_wrt_phi_transmuted(
    alpha: float, phi: Integrator, g: SampledFunction1D
) -> SampledFunction1D:
    """Transmuted route: pull back, integrate on the image, compose with phi."""
    alpha = _check_order(alpha)
    _check_domain(phi, g.grid)
    pulled = pullback_to_image(phi, g)
    integrated = rl_integral(alpha, pulled)
    vals = np.interp(phi.value(g.grid.nodes), pulled.grid.nodes, integrated.values)
    return SampledFunction1D(g.grid, vals)


def transmutation_residual(
    alpha: float, phi: Integrator, g_expr: Callable[[float], complex], n: int
) -> float:
    """L1 distance between the direct and transmuted routes at resolution n."""
    grid = UniformGrid1D(phi.a, phi.T, int(n))
    g = sample(g_expr, grid)
    direct = rl_wrt_phi_direct(alpha, phi, g)
    transmuted = rl_wrt_phi_transmuted(alpha, phi, g)
    return l1_distance(direct, transmuted)


def l1_norm_pushforward(phi: Integrator, g: SampledFunction1D) -> float:
    """Discrete L1 norm of g against the pushforward measure, by change of
    variables the trapezoid rule for |g| on the direct route's image mesh.
    """
    _check_domain(phi, g.grid)
    u, mods, _ = _image_mesh(phi, g.grid.nodes, np.abs(g.values))
    return float(np.dot(np.diff(u), 0.5 * (mods[:-1] + mods[1:])))


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
