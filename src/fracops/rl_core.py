"""Fractional-order integral of Riemann-Liouville type in one dimension.

The operator

    (I_a^alpha f)(t) = (1/Gamma(alpha)) * integral_a^t (t - s)^(alpha-1) f(s) ds

is discretized by product integration: on every subinterval f is replaced by
its piecewise-linear interpolant and the kernel moments

    integral (t - s)^(alpha-1) * {1, s - t_j} ds

are integrated in closed form, so the weak singularity at s = t is handled
exactly. Consequences used throughout the test suite:

* at alpha = 1 the weights collapse to the composite trapezoid rule
  bit-for-bit (the per-node sums reproduce a cumulative-sum grouping);
* all weights are nonnegative, so nonnegative inputs give nonnegative
  outputs exactly;
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


def product_quadrature_weights(alpha: float, h: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Left/right node weights against the kernel, indexed by node distance d = 1..n.

    wl[d-1] weighs f(t_j) and wr[d-1] weighs f(t_{j+1}) on the subinterval at
    distance d = m - j from the evaluation node t_m. Both arrays are
    nonnegative; at alpha = 1 both equal h/2 exactly.
    """
    d = np.arange(1, n + 1, dtype=np.float64)
    dm = d - 1.0
    ha = h ** alpha
    da = d ** alpha
    dma = dm ** alpha
    a_mom = ha * (da - dma) / alpha
    b_mom = ha * (
        d * (da - dma) / alpha
        - (d ** (alpha + 1.0) - dm ** (alpha + 1.0)) / (alpha + 1.0)
    )
    g = math.gamma(alpha)
    return (a_mom - b_mom) / g, b_mom / g


def _sweep(alpha: float, h: float, values: np.ndarray, axis: int = -1) -> np.ndarray:
    """Integral of order alpha along ``axis`` of ``values`` (step h, origin at index 0).

    The caller validates alpha. Subinterval j (between nodes j and j+1) is
    added to every node to its right in one vectorized step, for j = 0, 1, ...
    in turn, so each node still sums its subintervals left to right. That
    grouping keeps outputs deterministic and makes the alpha = 1 case agree
    bit-for-bit with ``cumulative_trapezoid``.
    """
    rows = np.moveaxis(values, axis, -1)
    n = rows.shape[-1] - 1
    wl, wr = product_quadrature_weights(alpha, h, n)
    out = np.zeros(rows.shape, dtype=np.complex128)
    for j in range(n):
        out[..., j + 1:] += wl[:n - j] * rows[..., j, None] + wr[:n - j] * rows[..., j + 1, None]
    return np.moveaxis(out, -1, axis)


def rl_integral(alpha: float, f: SampledFunction1D) -> SampledFunction1D:
    """Fractional integral of order alpha with origin at the grid's left endpoint.

    The weights depend only on the step, so the result is translation
    invariant: moving the grid moves the output with it.
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

    def as_dict(self) -> dict[str, bool]:
        return {
            "identity": self.identity,
            "index_law": self.index_law,
            "continuity": self.continuity,
            "positivity": self.positivity,
        }


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


_CATALOG: dict[str, tuple[Callable, AxiomProfile, Callable]] = {
    "riemann_liouville": (
        lambda a, f: rl_integral(a, f),
        AxiomProfile(True, True, True, True),
        _rl_growth,
    ),
    "scaled_order": (
        # order used only as a scalar on the unit-order integral
        lambda a, f: _check_order(a) * rl_integral(1.0, f),
        AxiomProfile(True, False, True, True),
        lambda a: (a, 1.0),
    ),
    "doubled_order": (
        lambda a, f: rl_integral(2.0 * _check_order(a), f),
        AxiomProfile(False, True, True, True),
        lambda a: (1.0 / math.gamma(2.0 * a + 1.0), 2.0 * a),
    ),
    "geometric": (
        lambda a, f: (2.0 ** _check_order(a)) * rl_integral(a, f),
        AxiomProfile(False, True, True, True),
        lambda a: (2.0 ** a / math.gamma(a + 1.0), a),
    ),
    "phase": (
        # unit-modulus scalar: full rotations at integer orders only
        lambda a, f: complex(np.exp(2j * np.pi * _check_order(a))) * rl_integral(a, f),
        AxiomProfile(True, True, True, False),
        _rl_growth,
    ),
}

FAMILY_NAMES = tuple(sorted(_CATALOG))


def make_family(name: str) -> OperatorFamily1D:
    """Build a catalog family by name; unknown names list the valid ones."""
    try:
        apply_fn, profile, growth = _CATALOG[name]
    except KeyError:
        raise ValueError(
            f"unknown family {name!r}; valid names: {', '.join(FAMILY_NAMES)}"
        ) from None
    return OperatorFamily1D(name, apply_fn, profile, growth)


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
