import json
import math
import warnings
from fractions import Fraction
from math import gamma

import numpy as np
import pytest

from fracops.grid import BoxGridND, SampledFunctionND, UniformGrid1D, sample
from fracops.rl_core import AxiomProfile, OperatorFamily1D, make_family, rl_integral
from fracops.rl_nd import rl_integral_nd
from fracops.transforms import (
    AdditiveSamples,
    TransformTable,
    additive_slope,
    extend_additive,
    fit_affine,
    fit_affine_nd,
    kernel_laplace_transform,
    laplace_transform,
    laplace_transform_nd,
    semigroup_table,
    semigroup_table_nd,
)


def ones_on(T, n):
    return sample(lambda t: 1.0, UniformGrid1D(0.0, T, n))


# ---------------------------------------------------------------- transforms


def test_transform_of_one():
    res = laplace_transform(ones_on(40.0, 262144), 2.0, growth_bound=(1.0, 0.0))
    assert abs(res.value - 0.5) < 1e-8
    # certified tail: integral_40^inf e^(-2s) ds = e^(-80)/2
    assert res.tail_bound == pytest.approx(math.exp(-80.0) / 2.0, rel=1e-10)


def test_transform_of_half_order_integral():
    f = rl_integral(0.5, ones_on(40.0, 16384))
    res = laplace_transform(f, 1.0)
    assert abs(res.value - 1.0) < 1e-4


def test_kernel_transform_half_order():
    res = kernel_laplace_transform(0.5, 4.0, 40.0, 16384)
    assert abs(res.value - 0.5) < 1e-3


def test_transform_rejects_bad_arguments():
    f = ones_on(1.0, 16)
    with pytest.raises(ValueError, match="positive"):
        laplace_transform(f, 0.0)
    with pytest.raises(ValueError, match="nonnegative"):
        laplace_transform(f, 1.0, growth_bound=(-1.0, 0.0))
    with pytest.raises(ValueError, match="nonnegative"):
        laplace_transform(f, 1.0, growth_bound=(1.0, -2.0))
    shifted = sample(lambda t: 1.0, UniformGrid1D(1.0, 2.0, 16))
    with pytest.raises(ValueError, match="start at 0"):
        laplace_transform(shifted, 1.0)
    box = BoxGridND((UniformGrid1D(0.0, 1.0, 8), UniformGrid1D(0.0, 1.0, 8)))
    ones = SampledFunctionND(box, np.ones(box.shape))
    for x in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            laplace_transform(f, x)
        with pytest.raises(ValueError, match="finite"):
            kernel_laplace_transform(0.5, x, 40.0, 256)
        with pytest.raises(ValueError, match="finite"):
            laplace_transform_nd(ones, (1.0, x))
    for t_big in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="t_big"):
            kernel_laplace_transform(0.5, 1.0, t_big, 256)
    with pytest.raises(ValueError, match="x=1e-300"):  # tail bounds overflow
        laplace_transform(ones_on(1.0, 16), 1e-300, growth_bound=(1.0, 0.5))
    with pytest.raises(ValueError, match="x=1e-300"):
        kernel_laplace_transform(2.0, 1e-300, 40.0, 64)


def test_transform_on_a_huge_window_has_no_float_warnings():
    # I^0.5 1 on [0, 1e300] in 64 cells: at x = 1e-300 the value leaves the
    # float range; at x = 1 and 1e300, e^(-x t) is 0 from the first node on
    f = rl_integral(0.5, ones_on(1e300, 64))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match="x=1e-300 overflows"):
            laplace_transform(f, 1e-300)
        assert laplace_transform(f, 1.0).value == 0.0
        assert laplace_transform(f, 1e300).value == 0.0


def test_tail_bound_soundness():
    f = rl_integral(0.5, ones_on(40.0, 16384))
    bound = (1.0 / gamma(1.5), 0.5)
    for x in (1.0, 2.0, 4.0):
        res = laplace_transform(f, x, growth_bound=bound)
        true = x ** -1.5
        assert abs(res.value - true) < res.quad_error_estimate + res.tail_bound


# ---------------------------------------------------------------- tables


def test_semigroup_table_riemann_liouville_entry():
    fam = make_family("riemann_liouville")
    table = semigroup_table(fam, [0.5], [1.0], 40.0, 16384)
    assert abs(table.entries[0, 0] - 1.0) < 1e-4


def test_semigroup_table_scaled_order_entry():
    fam = make_family("scaled_order")
    table = semigroup_table(fam, [0.5], [1.0], 40.0, 16384)
    # transform of 0.5 t at x = 1 is 0.5
    assert abs(table.entries[0, 0] - 0.5) < 1e-4


def test_semigroup_table_doubled_order_entry():
    fam = make_family("doubled_order")
    table = semigroup_table(fam, [0.5], [2.0], 40.0, 16384)
    # I^1 1 = t transforms to 1/x^2
    assert abs(table.entries[0, 0] - 0.25) < 1e-4


def test_semigroup_table_rejects_complex_family():
    fam = make_family("phase")
    with pytest.raises(ValueError, match="real-valued"):
        semigroup_table(fam, [0.5], [1.0], 10.0, 256)


def test_semigroup_table_rejects_nonpositive_entries():
    base = make_family("riemann_liouville")
    negated = OperatorFamily1D(
        name="negated",
        apply=lambda a, f: -1.0 * base.apply(a, f),
        expected_profile=AxiomProfile(False, True, True, False),
        growth_of_one=base.growth_of_one,
    )
    with pytest.raises(ValueError, match="alpha=0.5, x=1.0"):
        semigroup_table(negated, [0.5], [1.0], 10.0, 256)


def test_table_validates_entries():
    with pytest.raises(ValueError, match="nonpositive"):
        TransformTable((0.5,), (1.0,), np.array([[0.0]]))
    with pytest.raises(ValueError, match="nonempty"):
        TransformTable((), (1.0,), np.zeros((0, 1)))


def test_kernel_table_multiplicativity():
    # tables built on the kernels directly: R entries multiply across orders
    alphas = [0.5, 0.75, 1.0, 1.25, 1.5, 2.0]
    xs = [1.0, 2.0, 4.0, 8.0, 10.0]
    entries = {
        (a, x): kernel_laplace_transform(a, x, 40.0, 16384).value
        for a in alphas
        for x in xs
    }
    worst = 0.0
    for a in alphas:
        for b in alphas:
            s = a + b
            if s not in alphas:
                continue
            for x in xs:
                rel = abs(entries[(s, x)] - entries[(a, x)] * entries[(b, x)])
                worst = max(worst, rel / entries[(s, x)])
    assert worst < 1e-3


# ---------------------------------------------------------------- fitting


def test_fit_affine_recovers_both_coefficients():
    fam = make_family("riemann_liouville")
    table = semigroup_table(fam, [0.5, 0.75, 1.0, 1.25, 1.5], [1.0, 2.0, 4.0], 40.0, 4096)
    fit = fit_affine(table)
    for j, x in enumerate(table.x_grid):
        assert abs(fit.slopes[j] + math.log(x)) < 1e-2
        assert abs(fit.intercepts[j] + math.log(x)) < 1e-2
    assert fit.max_residual < 1e-3


def test_fit_affine_constant_table():
    table = TransformTable((0.5, 1.0, 1.5), (1.0, 2.0), np.ones((3, 2)))
    fit = fit_affine(table)
    assert np.allclose(fit.intercepts, 0.0, atol=1e-14)
    assert np.allclose(fit.slopes, 0.0, atol=1e-14)
    assert fit.max_residual < 1e-14


def test_fit_affine_conforming_family_across_decade():
    # the family passing identity + index law recovers d(x) = -ln x on [1, 10]
    fam = make_family("riemann_liouville")
    table = semigroup_table(fam, [0.5, 0.75, 1.0, 1.25], [1.0, 3.0, 10.0], 40.0, 8192)
    fit = fit_affine(table)
    for j, x in enumerate(table.x_grid):
        assert abs(fit.slopes[j] + math.log(x)) < 1e-2


def test_fit_affine_doubled_order_slope():
    fam = make_family("doubled_order")
    table = semigroup_table(fam, [0.5, 0.75, 1.0], [2.0, 4.0], 40.0, 4096)
    fit = fit_affine(table)
    for j, x in enumerate(table.x_grid):
        assert abs(fit.slopes[j] + 2.0 * math.log(x)) < 1e-2


def test_fit_affine_rejects_degenerate_grids():
    with pytest.raises(ValueError, match="at least 3"):
        fit_affine(TransformTable((0.5, 1.0), (1.0,), np.ones((2, 1))))
    with pytest.raises(ValueError, match="distinct"):
        fit_affine(TransformTable((0.5, 0.5, 0.5), (1.0,), np.ones((3, 1))))


def test_fit_affine_nd_recovers_component_slopes():
    orders = [(0.5, 0.5), (1.0, 0.5), (0.5, 1.0), (1.0, 1.0)]
    xs = [(1.0, 1.0), (1.0, 1.5), (1.5, 1.0)]
    table = semigroup_table_nd(rl_integral_nd, orders, xs, 10.0, 128)
    fit = fit_affine_nd(table)
    for j, x in enumerate(xs):
        expected = np.array([-math.log(x[0]), -math.log(x[1])])
        assert np.abs(fit.slopes[j] - expected).max() < 5e-2
    assert fit.condition is not None and fit.condition < 1e4


def test_fit_affine_nd_constant_table():
    orders = ((1.0, 0.0), (0.0, 1.0), (1.0, 1.0))
    table = TransformTable(orders, ((1.0, 1.0),), np.ones((3, 1)))
    fit = fit_affine_nd(table)
    assert np.allclose(fit.slopes, 0.0, atol=1e-12)


def test_fit_affine_nd_rejects_collinear_orders():
    orders = ((0.5, 0.5), (0.75, 0.75), (1.0, 1.0))
    table = TransformTable(orders, ((1.0, 1.0),), np.ones((3, 1)))
    with pytest.raises(ValueError, match="rank 2"):
        fit_affine_nd(table)


def test_laplace_transform_nd_of_ones():
    from fracops.grid import BoxGridND, SampledFunctionND

    box = BoxGridND((UniformGrid1D(0.0, 40.0, 2048), UniformGrid1D(0.0, 40.0, 2048)))
    ones = SampledFunctionND(box, np.ones(box.shape))
    val = laplace_transform_nd(ones, (1.0, 2.0))
    assert abs(val - 0.5) < 1e-4


# ---------------------------------------------------------------- additivity


def linear_samples(slope, step=Fraction(1, 100), bound=Fraction(1)):
    kmax = int(bound / step) - 1
    vals = np.array([slope * float(k * step) for k in range(1, kmax + 1)])
    return AdditiveSamples(step, bound, vals)


def test_extend_linear_is_exact():
    ext = extend_additive(linear_samples(3.0), 1)
    assert ext.bound == 2
    for k in range(1, ext.kmax + 1):
        assert ext.values[k - 1] == pytest.approx(3.0 * float(k * ext.step), abs=1e-12)


def test_extend_two_doublings_hits_rational_points():
    ext = extend_additive(linear_samples(5.0), 2)
    assert ext.bound == 4
    k = int(Fraction(7, 2) / ext.step)  # the grid point at 3.5
    assert ext.values[k - 1] == pytest.approx(17.5, abs=1e-9)
    xs = np.array([float(k * ext.step) for k in range(1, ext.kmax + 1)])
    assert np.abs(ext.values - 5.0 * xs).max() < 1e-9


def test_extension_remains_additive_and_linear():
    ext = extend_additive(linear_samples(2.5), 2)
    v = ext.values
    k = ext.kmax
    idx = np.arange(1, k + 1)
    sums = v[:, None] + v[None, :]
    ks = idx[:, None] + idx[None, :]
    mask = ks <= k
    gaps = np.abs(sums[mask] - v[ks[mask] - 1])
    assert gaps.max() < 1e-9
    s = additive_slope(ext)
    xs = np.array([float(j * ext.step) for j in idx])
    assert np.abs(ext.values - s * xs).max() < 1e-8


def test_extend_rejects_squaring():
    step = Fraction(1, 100)
    vals = np.array([float(k * step) ** 2 for k in range(1, 100)])
    samples = AdditiveSamples(step, Fraction(1), vals)
    with pytest.raises(ValueError, match="not additive"):
        extend_additive(samples, 1)


def test_extend_rejects_bad_doublings():
    with pytest.raises(ValueError, match="doublings"):
        extend_additive(linear_samples(1.0), 0)


def test_additive_samples_validation():
    with pytest.raises(ValueError, match="positive"):
        AdditiveSamples(Fraction(-1, 100), Fraction(1), np.ones(99))
    with pytest.raises(ValueError, match="expected 99"):
        AdditiveSamples(Fraction(1, 100), Fraction(1), np.ones(50))


def test_semigroup_table_meta_records_tails():
    fam = make_family("riemann_liouville")
    table = semigroup_table(fam, [0.5, 1.0, 1.5], [1.0], 40.0, 1024)
    tails = table.meta["tail_bounds"]
    assert len(tails) == 3
    assert all(t >= 0.0 for t in tails)
    assert json.loads(table.to_json())["meta"]["N"] == 1024


from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=25, deadline=None)
@given(st.floats(-50.0, 50.0), st.integers(1, 3))
def test_extension_of_linear_data_is_always_linear(slope, doublings):
    ext = extend_additive(linear_samples(slope, step=Fraction(1, 20)), doublings)
    xs = np.array([float(k * ext.step) for k in range(1, ext.kmax + 1)])
    assert np.abs(ext.values - slope * xs).max() < 1e-9 * max(1.0, abs(slope))


@settings(max_examples=25, deadline=None)
@given(st.floats(1e-4, 10.0))
def test_extension_rejects_shifted_data(offset):
    # h(x) = x + offset violates additivity by exactly |offset|
    step = Fraction(1, 20)
    vals = np.array([float(k * step) + offset for k in range(1, 20)])
    with pytest.raises(ValueError, match="not additive"):
        extend_additive(AdditiveSamples(step, Fraction(1), vals), 1)
