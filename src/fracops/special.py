"""Upper incomplete gamma function for the certified Laplace tail bounds."""

from __future__ import annotations

import math

_MAX_ITER = 500
_EPS = 1e-15


def upper_gamma(s: float, z: float) -> float:
    """Unnormalized upper incomplete gamma integral from ``z`` to infinity.

    Series branch for z < s + 1, modified Lentz continued fraction
    otherwise; both classical.
    """
    if s <= 0.0:
        raise ValueError(f"upper_gamma requires s > 0, got {s}")
    if z < 0.0:
        raise ValueError(f"upper_gamma requires z >= 0, got {z}")
    if z == 0.0:
        return math.gamma(s)
    if z < s + 1.0:
        term = 1.0 / s
        total = term
        a = s
        for _ in range(_MAX_ITER):
            a += 1.0
            term *= z / a
            total += term
            if abs(term) < abs(total) * _EPS:
                break
        lower = total * math.exp(-z + s * math.log(z))
        return math.gamma(s) - lower
    tiny = 1e-300
    b = z + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    f = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        f *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return math.exp(-z + s * math.log(z)) * f
