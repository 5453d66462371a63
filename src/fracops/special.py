"""Special functions in stdlib floats: the upper incomplete gamma function for
the certified Laplace tail bounds, and the Riemann zeta function at negative
arguments for the end corrections of the Laplace transforms."""

from __future__ import annotations

import math

_MAX_ITER = 500
_EPS = 1e-15
# B_2, B_4, ..., B_16: the Euler-Maclaurin corrections of zeta_neg
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)


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


def zeta_neg(q: float) -> float:
    """Riemann zeta at -q for q > 0, to about 1e-14 relative for q in [0.01, 16].

    Reflection to zeta(1 + q), which Euler-Maclaurin summation gives from 9
    terms, the integral of the tail from 10 and 8 Bernoulli corrections. The
    sine is taken of q reduced exactly mod 4, so the trivial zeros at even q
    are exact and values near them keep their relative accuracy.
    """
    if not q > 0.0:
        raise ValueError(f"zeta_neg requires q > 0, got {q}")
    # sin(-pi q / 2) = sign * sin(pi r / 2) with r = q mod 2 in [0, 2), all exact
    r = math.fmod(q, 4.0)
    sign = -1.0 if r < 2.0 else 1.0
    r = r if r < 2.0 else r - 2.0
    sine = sign * math.sin(0.5 * math.pi * min(r, 2.0 - r))
    if sine == 0.0:
        return 0.0
    s, n = 1.0 + q, 10
    total = math.fsum(k ** -s for k in range(1, n)) + n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** -s
    rising, power, factorial = s, n ** (-s - 1.0), 2.0
    for j, b in enumerate(_BERNOULLI, start=1):
        total += b / factorial * rising * power
        rising *= (s + 2 * j - 1) * (s + 2 * j)
        power /= n * n
        factorial *= (2 * j + 1) * (2 * j + 2)
    return 2.0 * (2.0 * math.pi) ** -s * sine * math.gamma(s) * total
