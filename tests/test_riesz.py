import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracops.riesz import (
    MultiplierFamily,
    PeriodicGridND,
    exact_riesz_family,
    multiplier_family_check,
    riesz_potential,
)

TWO_PI = 2.0 * math.pi


def nodes(m):
    return np.arange(m) / m


def test_single_mode_scales_by_multiplier():
    t = nodes(128)
    f = np.cos(TWO_PI * t)
    for alpha in (0.2, 0.5, 0.9):
        out = riesz_potential(alpha, f)
        expected = TWO_PI ** (-alpha) * np.cos(TWO_PI * t)
        assert np.abs(out.real - expected).max() < 1e-12
        assert np.abs(out.imag).max() < 1e-12


def test_zero_function_maps_to_zero():
    out = riesz_potential(0.5, np.zeros(64))
    assert np.abs(out).max() == 0.0


def test_composition_matches_summed_order():
    t = nodes(256)
    f = np.sin(TWO_PI * t) + 0.5 * np.cos(6.0 * math.pi * t)
    two_step = riesz_potential(0.4, riesz_potential(0.3, f))
    one_step = riesz_potential(0.7, f)
    assert np.abs(two_step - one_step).max() < 1e-12


@settings(max_examples=20, deadline=None)
@given(st.floats(0.05, 0.45), st.floats(0.05, 0.45))
def test_spectral_semigroup_property(alpha, beta):
    t = nodes(64)
    f = np.sin(TWO_PI * t) - 0.25 * np.sin(4.0 * math.pi * t)
    two_step = riesz_potential(beta, riesz_potential(alpha, f))
    one_step = riesz_potential(alpha + beta, f)
    scale = max(1.0, float(np.abs(one_step).max()))
    assert np.abs(two_step - one_step).max() < 1e-12 * scale


def test_real_input_stays_real():
    rng = np.random.default_rng(42)
    f = rng.standard_normal(128)
    f -= f.mean()
    out = riesz_potential(0.6, f)
    assert np.abs(out.imag).max() < 1e-12


def test_parseval_consistency():
    # sum |out_j|^2 = (1/M) sum |fhat_k * mult_k|^2 for the DFT convention
    rng = np.random.default_rng(7)
    m = 256
    f = rng.standard_normal(m)
    f -= f.mean()
    alpha = 0.45
    out = riesz_potential(alpha, f)
    xi = PeriodicGridND(1, m).xi_norm()
    mult = np.zeros_like(xi)
    mult[xi > 0] = xi[xi > 0] ** -alpha
    spectral = np.linalg.norm(np.fft.fft(f) * mult) / math.sqrt(m)
    assert np.linalg.norm(out) == pytest.approx(spectral, rel=1e-12)


def test_rejects_out_of_range_order_and_mean():
    f = np.sin(TWO_PI * nodes(64))
    for alpha in (0.0, 1.0, 1.5):
        with pytest.raises(ValueError, match="order"):
            riesz_potential(alpha, f)
    with pytest.raises(ValueError, match="mean"):
        riesz_potential(0.5, np.ones(64))


def test_2d_composition_and_reality():
    m = 64
    t = nodes(m)
    x, y = np.meshgrid(t, t, indexing="ij")
    f = np.sin(TWO_PI * x) * np.cos(TWO_PI * y)
    two_step = riesz_potential(0.8, riesz_potential(0.7, f))
    one_step = riesz_potential(1.5, f)
    assert np.abs(two_step - one_step).max() < 1e-12
    assert np.abs(one_step.imag).max() < 1e-12


def test_grid_validation():
    with pytest.raises(ValueError):
        PeriodicGridND(4, 16)
    with pytest.raises(ValueError):
        PeriodicGridND(1, 5)
    with pytest.raises(ValueError, match="equal extents"):
        riesz_potential(0.5, np.zeros((4, 8)))


def xi_set_1d():
    return [np.array([TWO_PI * k]) for k in (1, 2, 3, 5)]


def test_multiplier_check_exact_family():
    fam = exact_riesz_family(1, 0.5)
    report = multiplier_family_check(fam, [0.25, 0.5, 0.7], xi_set_1d())
    assert report.max_residual < 1e-12
    assert report.multiplicative
    assert report.anchor_violation < 1e-12
    for (xi,), d in zip(report.xi_grid, report.slopes):
        assert abs(d + math.log(abs(xi))) < 1e-12


def test_multiplier_check_slopes_at_tiny_orders():
    # the squares of the orders underflow to 0, and |xi|^(-1e-300) rounds to
    # 1: the fitted slope is 0, not the 0/0 of the plain normal equation
    fam = exact_riesz_family(1, 1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = multiplier_family_check(fam, [1e-300] * 3, xi_set_1d())
    assert np.all(report.slopes == 0.0)


def test_multiplier_check_scaled_family_reports_anchor_violation():
    fam = MultiplierFamily(
        1, lambda a, xi: (2.0 ** a) * float(np.linalg.norm(xi) ** (-a)), 0.5
    )
    report = multiplier_family_check(fam, [0.25, 0.5, 0.7], xi_set_1d())
    assert report.multiplicative  # 2^a is itself additive in the exponent
    assert report.anchor_violation == pytest.approx(2.0 ** 0.5 - 1.0, abs=1e-12)


def test_multiplier_check_detects_nonadditive_exponent():
    fam = MultiplierFamily(
        1, lambda a, xi: float(np.linalg.norm(xi) ** (-(a * a))), 0.5
    )
    report = multiplier_family_check(fam, [0.25, 0.5, 0.7], xi_set_1d())
    assert not report.multiplicative
    a, b, xi, dev = report.violation
    assert a + b < 1.0
    assert dev > 1e-3


def test_multiplier_check_validation():
    fam = exact_riesz_family(1, 0.5)
    with pytest.raises(ValueError, match="at least 3"):
        multiplier_family_check(fam, [0.25, 0.5], xi_set_1d())
    with pytest.raises(ValueError, match="anchor"):
        multiplier_family_check(fam, [0.25, 0.3, 0.7], xi_set_1d())
    with pytest.raises(ValueError, match="outside"):
        multiplier_family_check(fam, [0.25, 0.5, 1.5], xi_set_1d())
    bad = MultiplierFamily(1, lambda a, xi: -1.0, 0.5)
    with pytest.raises(ValueError, match="nonpositive"):
        multiplier_family_check(bad, [0.25, 0.5, 0.7], xi_set_1d())


def test_limit_anchor_near_dimension():
    fam = exact_riesz_family(1, 0.5)
    for xi in (TWO_PI, 4.0 * math.pi):
        d_far = math.log(fam.evaluate(0.9, np.array([xi]))) / 0.9
        d_near = math.log(fam.evaluate(0.99, np.array([xi]))) / 0.99
        target = -math.log(xi)
        assert abs(d_near - target) <= abs(d_far - target) + 1e-15
        assert abs(d_near - target) < 1e-12


def test_3d_composition_smoke():
    m = 16
    t = nodes(m)
    x, y, z = np.meshgrid(t, t, t, indexing="ij")
    f = np.sin(TWO_PI * x) * np.cos(TWO_PI * y) * np.cos(TWO_PI * z)
    two_step = riesz_potential(1.2, riesz_potential(0.9, f))
    one_step = riesz_potential(2.1, f)
    assert np.abs(two_step - one_step).max() < 1e-12
