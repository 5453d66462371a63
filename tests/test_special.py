import math

import numpy as np
import pytest
from scipy.special import gammaincc

from fracops.special import upper_gamma


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
