import math

import numpy as np
import pytest
from scipy.special import gammaincc, zeta

from fracops.special import upper_gamma, zeta_neg


def test_upper_gamma_against_scipy():
    worst = 0.0
    for s in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 10.0, 20.0):
        for z in (0.1, 0.5, 1.0, 5.0, 10.0, 40.0, 80.0, 320.0):
            ref = float(gammaincc(s, z)) * math.gamma(s)
            if ref == 0.0:
                continue
            worst = max(worst, abs(upper_gamma(s, z) - ref) / ref)
    assert worst < 1e-12


def test_upper_gamma_order_one_is_exponential():
    assert upper_gamma(1.0, 80.0) == pytest.approx(math.exp(-80.0), rel=1e-12)


def test_upper_gamma_at_zero_is_gamma():
    assert upper_gamma(1.5, 0.0) == math.gamma(1.5)


def test_upper_gamma_rejects_bad_arguments():
    with pytest.raises(ValueError):
        upper_gamma(0.0, 1.0)
    with pytest.raises(ValueError):
        upper_gamma(1.0, -1.0)


def test_zeta_neg_against_scipy():
    # every q the m = 8 end corrections of an order in (0, 2] use, and the
    # integers, where the trivial zeros at even q must come out exactly 0
    qs = np.concatenate([np.linspace(0.01, 9.75, 975), np.arange(1.0, 10.0)])
    worst = 0.0
    for q in qs:
        ref = float(zeta(-q))
        got = zeta_neg(float(q))
        if ref == 0.0:
            assert got == 0.0, q
            continue
        worst = max(worst, abs(got - ref) / abs(ref))
    assert worst <= 1e-13


def test_zeta_neg_rejects_nonpositive_q():
    for q in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="q > 0"):
            zeta_neg(q)
