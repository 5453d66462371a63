import json
import math
import re
import warnings
from fractions import Fraction
from math import gamma

import numpy as np
import pytest

from scipy.special import gammainc

from fracops import transforms
from fracops.grid import (
    BoxGridND,
    SampledFunction1D,
    SampledFunctionND,
    UniformGrid1D,
    sample,
    trapezoid_weights,
)
from fracops.rl_core import AxiomProfile, OperatorFamily1D, make_family, rl_integral
from fracops.rl_nd import rl_integral_nd
from fracops.transforms import (
    AdditiveSamples,
    TransformTable,
    additive_slope,
    end_corrected_weights,
    extend_additive,
    fit_affine,
    fit_affine_nd,
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
            laplace_transform_nd(ones, (1.0, x))
    with pytest.raises(ValueError, match="x=1e-300"):  # tail bounds overflow
        laplace_transform(ones_on(1.0, 16), 1e-300, growth_bound=(1.0, 0.5))


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


def test_non_finite_transform_names_the_sample_or_the_overflow():
    # a bad sample is rejected where it is built; finite samples can still overflow
    grid = UniformGrid1D(0.0, 1.0, 8)
    box = BoxGridND((UniformGrid1D(0.0, 1.0, 4), UniformGrid1D(0.0, 1.0, 4)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for bad in (math.nan, math.inf):
            vals = np.ones(9)
            vals[4] = bad
            with pytest.raises(ValueError, match=re.escape("non-finite sample at node index 4 (t=0.5)")):
                laplace_transform(SampledFunction1D(grid, vals), 1.0)
            vals = np.ones(box.shape)
            vals[2, 2] = bad
            with pytest.raises(ValueError, match=re.escape("non-finite sample at node index (2, 2)")):
                laplace_transform_nd(SampledFunctionND(box, vals), (1.0, 1.0))
        with pytest.raises(ValueError, match=re.escape("x=1.0 overflows on [0, 1.0]")):
            laplace_transform(SampledFunction1D(grid, np.full(9, 1e308)), 1.0)
        wide = BoxGridND((UniformGrid1D(0.0, 8.0, 8), UniformGrid1D(0.0, 8.0, 8)))
        with pytest.raises(ValueError, match=re.escape("x=(0.001, 0.001) overflows")):
            laplace_transform_nd(SampledFunctionND(wide, np.full(wide.shape, 1e308)), (1e-3, 1e-3))


def test_an_end_that_is_not_a_clean_power_is_regular():
    # f(0) = 0, but f(2h)/f(h) underflows to 0 or overflows, or the ratios
    # f(2h)/f(h) and f(4h)/f(2h) give two exponents: no power law to correct
    # for, so the left end takes the regular weights. Each unit sample is a
    # regular end, so the transform must be the one linear rule they give.
    grid = UniformGrid1D(0.0, 1.0, 32)
    x = 1.0

    def transform(vals):
        return laplace_transform(SampledFunction1D(grid, vals), x).value

    unit = np.array([transform(np.eye(33)[k]) for k in range(33)])
    regular = grid.h * end_corrected_weights(32) * np.exp(-x * grid.nodes)
    np.testing.assert_allclose(unit, regular, rtol=1e-15, atol=0.0)
    t = grid.nodes
    heads = ([0.0, 1e300, 1e-300], [0.0, 1e-300, 1e300], [0.0, -1.0, 1.0])
    for vals in [np.concatenate((head, np.ones(30))) for head in heads] + [t * (1.0 + t)]:
        expected = math.fsum(vals * unit)
        assert math.isclose(transform(vals), expected, rel_tol=1e-14)
    # a clean power t^0.5 does take the power weights
    assert not math.isclose(transform(np.sqrt(t)), math.fsum(np.sqrt(t) * unit), rel_tol=1e-6)


def test_corrected_weights_keep_the_plain_rule_below_two_m_cells():
    for n in (1, 2, 15):
        np.testing.assert_array_equal(end_corrected_weights(n, 0.5), trapezoid_weights(1.0, n))
    # the corrected rule integrates t^(p+j), j < 8, over [0, 64] in unit
    # steps: exactly (to rounding) for p = 0, and for p = 0.5 up to the right
    # end's next Euler-Maclaurin term
    k = np.arange(65.0)
    for p in (0.0, 0.5):
        w = end_corrected_weights(64, p)
        for j in range(8):
            exact = 64.0 ** (p + j + 1) / (p + j + 1)
            assert math.isclose(math.fsum(w * k ** (p + j)), exact, rel_tol=1e-12), (p, j)


@pytest.mark.parametrize("n, tol", [(4096, 1e-10), (16384, 1e-13)])
def test_transform_of_power_against_exact_truncated_transform(n, tol):
    # I^alpha 1 = t^alpha / Gamma(alpha + 1) on [0, T]; its exact transform
    # on [0, T] is x^(-alpha-1) P(alpha + 1, x T), P the regularized lower
    # incomplete gamma function
    t_big = 40.0
    ones = ones_on(t_big, n)
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75, 1.0, 1.5, 2.0):
        f = rl_integral(alpha, ones)
        for x in (1.0, 2.0, 4.0, 8.0):
            ref = x ** (-alpha - 1.0) * gammainc(alpha + 1.0, x * t_big)
            worst = max(worst, abs(laplace_transform(f, x).value - ref) / ref)
    assert worst <= tol


def test_transform_of_regular_functions_against_exact_values():
    # both ends regular: f = 1 (f(0) != 0) and f = e^(-t) on [0, 3]
    grid = UniformGrid1D(0.0, 3.0, 1024)
    for vals, shift in ((np.ones(grid.N + 1), 0.0), (np.exp(-grid.nodes), 1.0)):
        f = SampledFunction1D(grid, vals)
        for x in (0.5, 1.0, 2.0, 4.0):
            ref = -math.expm1(-3.0 * (x + shift)) / (x + shift)
            assert abs(laplace_transform(f, x).value - ref) <= 1e-14 * ref


def test_nd_transform_of_powers_against_exact_truncated_transform():
    # rl_integral_nd of 1 is a product of powers; the fibres at t = 0 are 0
    # and have no say in the exponent; an order component 0 is a regular end
    axis = UniformGrid1D(0.0, 10.0, 256)
    box = BoxGridND((axis, axis))
    ones = SampledFunctionND(box, np.ones(box.shape))
    worst = 0.0
    for alpha in ((0.5, 0.5), (1.0, 0.5), (0.5, 1.0), (1.0, 1.0), (0.0, 0.5), (0.25, 1.5)):
        out = rl_integral_nd(alpha, ones)
        for x in ((1.0, 1.0), (1.0, 1.5), (1.5, 1.0), (1.5, 1.5)):
            ref = math.prod(
                xi ** (-a - 1.0) * gammainc(a + 1.0, 10.0 * xi) for a, xi in zip(alpha, x)
            )
            worst = max(worst, abs(laplace_transform_nd(out, x) - ref) / ref)
    assert worst <= 1e-11


def test_nd_transform_with_disagreeing_fibres_is_regular_on_that_axis():
    # fibres t^0.5 and t^1.5 along axis 0 disagree on p, so axis 0 takes the
    # regular weights; axis 1 is constant, so regular too
    axis = UniformGrid1D(0.0, 2.0, 32)
    box = BoxGridND((axis, UniformGrid1D(0.0, 1.0, 2)))
    t = axis.nodes
    vals = np.stack([np.sqrt(t), t**1.5, t**1.5], axis=1)
    got = laplace_transform_nd(SampledFunctionND(box, vals), (1.0, 1.0))
    w0 = axis.h * end_corrected_weights(32) * np.exp(-t)
    w1 = 0.5 * np.array([0.5, 1.0, 0.5]) * np.exp(-np.array([0.0, 0.5, 1.0]))
    assert math.isclose(got, float(w0 @ vals @ w1), rel_tol=1e-14)


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
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="nonpositive table entry"):
            TransformTable((0.5,), (1.0,), np.array([[bad]]))
    with pytest.raises(ValueError, match="nonempty"):
        TransformTable((), (1.0,), np.zeros((0, 1)))


def test_nd_table_reads_each_axis_weights_once_per_order(monkeypatch):
    # the weights of an axis depend on the function alone, not on the point
    calls = []
    weights = transforms._transform_weights

    def counted(values, axis):
        calls.append(axis)
        return weights(values, axis)

    monkeypatch.setattr(transforms, "_transform_weights", counted)
    orders = [(0.5, 0.5), (1.0, 0.5), (0.5, 1.0)]
    xs = [(1.0, 1.0), (1.0, 1.5), (1.5, 1.0), (1.5, 1.5)]
    semigroup_table_nd(rl_integral_nd, orders, xs, 10.0, 32)
    assert calls == [0, 1] * len(orders)


def test_table_fits_the_same_after_a_json_round_trip():
    # to_json writes tuple orders and points as lists; read back, they must
    # fit as tuples again, not as scalar orders
    fam = make_family("riemann_liouville")
    orders = np.array([(0.5, 0.5), (1.0, 0.5), (0.5, 1.0), (1.0, 1.0)])
    entries = np.exp(-orders.sum(axis=1))[:, None] * [1.0, 2.0]  # e^(c - a1 - a2)
    tables = (
        semigroup_table(fam, [0.5, 1.0, 1.5], [1.0, 2.0], 40.0, 256),
        TransformTable(orders, ((1.0, 1.0), (2.0, 1.0)), entries),
    )
    for table in tables:
        data = json.loads(table.to_json())
        read = np.reshape(data["entries"], table.entries.shape)
        back = TransformTable(data["order_grid"], data["x_grid"], read, data["meta"])
        assert (back.order_grid, back.x_grid) == (table.order_grid, table.x_grid)
        fit, fit_back = fit_affine(table), fit_affine(back)
        np.testing.assert_array_equal(fit_back.intercepts, fit.intercepts)
        np.testing.assert_array_equal(fit_back.slopes, fit.slopes)
    # the 2D table read back: slopes (-1, -1) and intercepts (0, ln 2)
    np.testing.assert_allclose(fit_back.slopes, [[-1.0, -1.0]] * 2, rtol=1e-14)
    np.testing.assert_allclose(fit_back.intercepts, [0.0, math.log(2.0)], atol=1e-14)


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


def test_one_axis_nd_transform_is_the_1d_transform_bit_for_bit():
    # one tensorized rule: the 1D transform is its one-axis case, in the
    # same sum order, whatever the BLAS thread count
    axis = UniformGrid1D(0.0, 40.0, 4096)
    vals = np.sqrt(axis.nodes) * np.exp(-0.1 * axis.nodes)
    f = SampledFunction1D(axis, vals)
    f_nd = SampledFunctionND(BoxGridND((axis,)), vals)
    for x in (0.5, 1.0, 2.0, 8.0):
        assert laplace_transform(f, x).value == laplace_transform_nd(f_nd, (x,))


def test_fit_slopes_have_one_column_per_order_component():
    # scalar orders give one slope per x, tuple orders one per component
    for orders, shape in (((0.5, 1.0, 1.5), (2,)), (((0.5,), (1.0,), (1.5,)), (2, 1))):
        fit = fit_affine(TransformTable(orders, (1.0, 2.0), np.ones((3, 2))))
        assert fit.slopes.shape == shape
        assert isinstance(fit.condition, float)


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
