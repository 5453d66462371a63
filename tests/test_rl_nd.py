import math
import re
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from fracops.grid import (
    BoxGridND,
    SampledFunction1D,
    SampledFunctionND,
    UniformGrid1D,
    l1_distance_nd,
    sample_nd,
)
from fracops.rl_core import rl_integral
from fracops.rl_nd import (
    _fft_length,
    commutation_residual,
    rl_integral_nd,
    truncated_convolution,
)


def box(n, dims=2, a=0.0, T=1.0):
    return BoxGridND(tuple(UniformGrid1D(a, T, n) for _ in range(dims)))


def ones_nd(n, dims=2):
    b = box(n, dims)
    return SampledFunctionND(b, np.ones(b.shape))


def test_unit_orders_integrate_ones_to_product_of_nodes():
    f = ones_nd(16)
    out = rl_integral_nd((1.0, 1.0), f)
    t1 = f.grid.axes[0].nodes[:, None]
    t2 = f.grid.axes[1].nodes[None, :]
    assert np.allclose(out.values.real, t1 * t2, atol=1e-13)


def test_canonical_vector_touches_one_axis():
    f = ones_nd(16)
    out = rl_integral_nd((1.0, 0.0), f)
    t1 = f.grid.axes[0].nodes[:, None]
    expected = np.broadcast_to(t1, out.values.shape)
    assert np.allclose(out.values.real, expected, atol=1e-13)


def test_zero_order_is_identity_bit_for_bit():
    f = sample_nd(lambda x, y: math.cos(x + 2 * y), box(12))
    out = rl_integral_nd((0.0, 0.0), f)
    assert np.array_equal(out.values, f.values)


def test_index_law_2d():
    b = box(256)
    f = sample_nd(lambda x, y: math.cos(x + y), b)
    half = (0.5, 0.5)
    twice = rl_integral_nd(half, rl_integral_nd(half, f))
    once = rl_integral_nd((1.0, 1.0), f)
    assert l1_distance_nd(twice, once) < 5e-3


def test_index_law_residual_shrinks_under_refinement():
    def resid(n):
        f = sample_nd(lambda x, y: math.cos(x + y), box(n))
        half = (0.5, 0.5)
        return l1_distance_nd(
            rl_integral_nd(half, rl_integral_nd(half, f)),
            rl_integral_nd((1.0, 1.0), f),
        )

    assert resid(64) > resid(128)


def test_axis_order_independence():
    f = sample_nd(lambda x, y: math.exp(-x) * math.cos(y), box(48))
    first_then_second = rl_integral_nd((0.0, 0.7), rl_integral_nd((0.6, 0.0), f))
    second_then_first = rl_integral_nd((0.6, 0.0), rl_integral_nd((0.0, 0.7), f))
    scale = float(np.abs(first_then_second.values).max())
    gap = float(np.abs(first_then_second.values - second_then_first.values).max())
    assert gap < 1e-12 * max(scale, 1.0)


def test_order_dimension_mismatch():
    with pytest.raises(ValueError, match="components"):
        rl_integral_nd((0.5,), ones_nd(8))
    with pytest.raises(ValueError):
        rl_integral_nd((0.5, -0.1), ones_nd(8))
    with pytest.raises(ValueError):
        rl_integral_nd((0.5, 200.0), ones_nd(8))


def test_single_axis_sweep_is_the_1d_integral_per_row():
    b = BoxGridND((UniformGrid1D(0.0, 1.0, 9), UniformGrid1D(0.0, 2.0, 14)))
    f = sample_nd(lambda x, y: complex(math.cos(3 * x + y), x * y - 0.5), b)
    for axis in (0, 1):
        alpha = tuple(0.7 if j == axis else 0.0 for j in range(2))
        out = rl_integral_nd(alpha, f).values
        line = b.axes[axis]
        rows = np.moveaxis(f.values, axis, -1)
        expected = np.stack(
            [rl_integral(0.7, SampledFunction1D(line, row)).values for row in rows]
        )
        assert np.array_equal(np.moveaxis(out, axis, -1), expected)


def test_overflowing_sweep_is_not_reported_as_bad_input():
    # the first axis overflows on finite samples; the error names the order
    # and step, not a non-finite sample that the second axis would see
    b = box(8, T=100.0)
    f = SampledFunctionND(b, np.full(b.shape, 1e307))
    with pytest.raises(ValueError, match=r"the order-2\.0 integral overflows at step 12\.5"):
        rl_integral_nd((2.0, 2.0), f)


def test_convolution_of_constants_1d():
    f = ones_nd(64, dims=1)
    out = truncated_convolution(f, f)
    assert np.allclose(out.values.real, f.grid.axes[0].nodes, atol=1e-13)


def test_convolution_with_unit_kernel_is_unit_integral():
    b = box(128, dims=1)
    f = sample_nd(math.cos, b)
    ones = SampledFunctionND(b, np.ones(b.shape))
    conv = truncated_convolution(ones, f)
    integral = rl_integral_nd((1.0,), f)
    assert l1_distance_nd(conv, integral) < 1e-12


def test_convolution_linear_kernel_value():
    b = box(1024, dims=1)
    h = sample_nd(lambda s: s, b)
    f = SampledFunctionND(b, np.ones(b.shape))
    out = truncated_convolution(h, f)
    # integral of s over [0, 1]
    assert abs(out.values[-1].real - 0.5) < 1e-6


def _per_node_trapezoid_convolution(h, f):
    # oracle: at every node m, the tensorized trapezoid weights on [0, t_m]
    # applied to h(s) f(t_m - s), one node at a time
    grid = h.grid
    out = np.zeros(grid.shape, dtype=np.complex128)
    for m in np.ndindex(*grid.shape):
        if any(mi == 0 for mi in m):
            continue
        weight = np.ones(())
        for g, mi in zip(grid.axes, m):
            w = np.full(mi + 1, g.h)
            w[0] = w[-1] = 0.5 * g.h
            weight = np.multiply.outer(weight, w)
        hblock = h.values[tuple(slice(0, mi + 1) for mi in m)]
        fblock = f.values[tuple(slice(mi, None, -1) for mi in m)]
        out[m] = np.sum(weight * hblock * fblock)
    return out


def _mixed_route_convolution(h, f):
    # the general route on real and imaginary parts: four forward real FFTs
    # and two inverse ones, whatever the imaginary parts hold, at the padded
    # lengths of truncated_convolution
    grid = h.grid
    axes = tuple(range(grid.dim))
    size = tuple(_fft_length(2 * n - 1) for n in grid.shape)
    spectra = []
    for values in (h.values, f.values):
        halved = values.copy()
        for axis in axes:
            halved[(slice(None),) * axis + (0,)] *= 0.5
        spectra += [np.fft.rfftn(part, size, axes) for part in (halved.real, halved.imag)]
    hr, hi, fr, fi = spectra
    box = tuple(slice(0, n) for n in grid.shape)
    scale = math.prod(g.h for g in grid.axes)
    out = np.empty(grid.shape, dtype=np.complex128)
    out.real = scale * np.fft.irfftn(hr * fr - hi * fi, size, axes)[box]
    out.imag = scale * np.fft.irfftn(hr * fi + hi * fr, size, axes)[box]
    for axis in axes:
        out[(slice(None),) * axis + (0,)] = 0.0
    return out


def test_truncated_convolution_real_route_is_bit_identical_to_mixed_route():
    rng = np.random.default_rng(11)
    boxes = [
        (UniformGrid1D(0.0, 1.0, 96),),
        (UniformGrid1D(0.0, 1.0, 96), UniformGrid1D(0.0, 1.0, 96)),
        (UniformGrid1D(0.0, 0.7, 7), UniformGrid1D(0.0, 2.5, 13)),
        (UniformGrid1D(0.0, 1.0, 3), UniformGrid1D(0.0, 0.5, 1), UniformGrid1D(0.0, 2.0, 5)),
    ]
    for axes in boxes:
        b = BoxGridND(axes)
        h, f = (
            SampledFunctionND(b, rng.standard_normal(b.shape).astype(np.complex128))
            for _ in range(2)
        )
        assert h.is_real and f.is_real
        out = truncated_convolution(h, f).values
        ref = _mixed_route_convolution(h, f)
        assert np.array_equal(out.real, ref.real)
        assert np.array_equal(out.imag, ref.imag)


def test_truncated_convolution_matches_per_node_trapezoid_rule():
    rng = np.random.default_rng(7)
    boxes = [
        (UniformGrid1D(0.0, 1.0, 1),),
        (UniformGrid1D(0.0, 0.7, 7), UniformGrid1D(0.0, 2.5, 13)),
        (UniformGrid1D(0.0, 1.9, 13), UniformGrid1D(0.0, 0.3, 7)),
        (UniformGrid1D(0.0, 1.0, 3), UniformGrid1D(0.0, 0.5, 1), UniformGrid1D(0.0, 2.0, 5)),
    ]
    for axes in boxes:
        b = BoxGridND(axes)
        for is_complex in (True, False):
            h, f = (
                SampledFunctionND(
                    b, rng.standard_normal(b.shape) + 1j * is_complex * rng.standard_normal(b.shape)
                )
                for _ in range(2)
            )
            out = truncated_convolution(h, f)
            ref = _per_node_trapezoid_convolution(h, f)
            assert np.abs(out.values - ref).max() <= 1e-13 * np.abs(ref).max()
            assert out.is_real == (not is_complex)
            for axis in range(b.dim):
                assert np.all(np.take(out.values, 0, axis=axis) == 0.0)


def test_fft_lengths_are_5_smooth_and_long_enough():
    def smooth(m):
        for prime in (2, 3, 5):
            while m % prime == 0:
                m //= prime
        return m == 1

    for n in range(1, 3000):
        m = _fft_length(n)
        assert m >= n and smooth(m), (n, m)
        assert not any(smooth(k) for k in range(n, m)), (n, m)  # the least one
    assert _fft_length(193) == 200


def test_truncated_convolution_pads_a_prime_length_and_matches_per_node_sums():
    # 97 nodes per axis: 2n - 1 = 193 is prime and is padded to 200
    rng = np.random.default_rng(3)
    for axes in (
        (UniformGrid1D(0.0, 1.0, 96),),
        (UniformGrid1D(0.0, 1.0, 96), UniformGrid1D(0.0, 0.5, 5)),
    ):
        b = BoxGridND(axes)
        assert _fft_length(2 * 97 - 1) != 2 * 97 - 1
        for is_complex in (True, False):
            h, f = (
                SampledFunctionND(
                    b, rng.standard_normal(b.shape) + 1j * is_complex * rng.standard_normal(b.shape)
                )
                for _ in range(2)
            )
            out = truncated_convolution(h, f)
            ref = _per_node_trapezoid_convolution(h, f)
            assert np.abs(out.values - ref).max() <= 1e-13 * np.abs(ref).max()


def test_convolution_requires_matching_grids_and_zero_corner():
    f = ones_nd(8, dims=1)
    g = ones_nd(16, dims=1)
    with pytest.raises(ValueError, match="share a grid"):
        truncated_convolution(f, g)
    shifted_box = BoxGridND((UniformGrid1D(1.0, 2.0, 8),))
    shifted = SampledFunctionND(shifted_box, np.ones(9))
    with pytest.raises(ValueError, match="corner"):
        truncated_convolution(shifted, shifted)


def test_overflowing_convolution_is_an_error_with_no_warning():
    # finite samples whose spectra overflow: the error names the convolution,
    # not a non-finite sample that neither input has
    b = box(8)
    big = SampledFunctionND(b, np.full(b.shape, 1e200))
    message = re.escape("the truncated convolution overflows") + "$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for h in (big, SampledFunctionND(b, np.full(b.shape, 1e200j))):
            with pytest.raises(ValueError, match=message):
                truncated_convolution(h, big)
        with pytest.raises(ValueError, match=message):
            commutation_residual((0.5, 0.5), big, big)
        # large results that stay finite still come back: 1 * 1 on [0, 1]^2 is 1
        top = SampledFunctionND(b, np.full(b.shape, 1e150))
        assert truncated_convolution(top, top).values[-1, -1] == pytest.approx(1e300)


def test_commutation_unit_case():
    f = ones_nd(1024, dims=1)
    assert commutation_residual((1.0,), f, f) < 1e-6


def test_commutation_linear_kernel_cos():
    b = box(512, dims=1)
    h = sample_nd(lambda s: s, b)
    f = sample_nd(math.cos, b)
    assert commutation_residual((0.5,), h, f) < 1e-3


def test_commutation_2d():
    f = ones_nd(128, dims=2)
    assert commutation_residual((0.5, 0.5), f, f) < 5e-3


def test_commutation_sides_match_independent_quadrature():
    # oracle: both sides of the commutation identity evaluated with scipy
    # for h(s) = s, f = cos at the endpoint t = 1:
    #   conv(s, cos)(t) = 1 - cos(t)   (exact antiderivative)
    #   lhs(1) = I^0.5[1 - cos](1) computed by weighted quadrature
    #   rhs(1) = integral_0^1 s * (I^0.5 cos)(1 - s) ds by double quadrature
    b = box(512, dims=1)
    h = sample_nd(lambda s: s, b)
    f = sample_nd(math.cos, b)
    lhs = rl_integral_nd((0.5,), truncated_convolution(h, f))
    rhs = truncated_convolution(h, rl_integral_nd((0.5,), f))

    gam = math.gamma(0.5)

    def i_half_one_minus_cos(t):
        val, _ = quad(
            lambda s: (t - s) ** (-0.5) * (1.0 - math.cos(s)), 0.0, t,
            points=[t], limit=200,
        )
        return val / gam

    def i_half_cos(t):
        if t == 0.0:
            return 0.0
        val, _ = quad(
            lambda s: (t - s) ** (-0.5) * math.cos(s), 0.0, t,
            points=[t], limit=200,
        )
        return val / gam

    oracle_lhs = i_half_one_minus_cos(1.0)
    oracle_rhs, _ = quad(lambda s: s * i_half_cos(1.0 - s), 0.0, 1.0, limit=200)
    assert abs(lhs.values[-1].real - oracle_lhs) < 1e-4
    assert abs(rhs.values[-1].real - oracle_rhs) < 1e-4
    assert abs(oracle_lhs - oracle_rhs) < 1e-7


def test_commutation_3d_smoke():
    b = box(8, dims=3)
    f = SampledFunctionND(b, np.ones(b.shape))
    res = commutation_residual((1.0, 0.0, 1.0), f, f)
    assert res < 1e-2


def test_unit_orders_3d():
    b = box(8, dims=3)
    f = SampledFunctionND(b, np.ones(b.shape))
    out = rl_integral_nd((1.0, 1.0, 1.0), f)
    t = b.axes[0].nodes
    expected = t[:, None, None] * t[None, :, None] * t[None, None, :]
    assert np.allclose(out.values.real, expected, atol=1e-13)
