import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracops.grid import (
    BoxGridND,
    SampledFunction1D,
    SampledFunctionND,
    UniformGrid1D,
    cumulative_trapezoid,
    l1_distance,
    l1_distance_nd,
    l1_norm,
    l1_norm_nd,
    sample,
    sample_nd,
)
from fracops.rl_core import rl_integral


def test_grid_nodes_and_invariants():
    g = UniformGrid1D(0.0, 1.0, 4)
    assert g.h == 0.25
    assert np.array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        UniformGrid1D(1.0, 0.0, 4)
    with pytest.raises(ValueError):
        UniformGrid1D(0.0, 1.0, 0)
    for a, T, n in ((0.0, math.inf, 4), (-math.inf, 0.0, 4), (-1e308, 1e308, 1)):
        with pytest.raises(ValueError, match="finite"):
            UniformGrid1D(a, T, n)


def test_sample_constant():
    f = sample(lambda t: 1.0, UniformGrid1D(0.0, 1.0, 4))
    assert np.array_equal(f.values, np.ones(5))


def test_sample_identity_nodes():
    f = sample(lambda t: t, UniformGrid1D(0.0, 1.0, 2))
    assert np.array_equal(f.values, [0.0, 0.5, 1.0])


def test_sample_square_on_shifted_interval():
    f = sample(lambda t: t * t, UniformGrid1D(1.0, 2.0, 2))
    assert np.array_equal(f.values, [1.0, 2.25, 4.0])


def test_sample_rejects_nonfinite_with_node_index():
    g = UniformGrid1D(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="node index 2"):
        sample(lambda t: float("inf") if t == 0.5 else 1.0, g)


def test_values_are_immutable():
    f = sample(lambda t: t, UniformGrid1D(0.0, 1.0, 8))
    with pytest.raises(ValueError):
        f.values[0] = 5.0


def test_l1_norm_unit_constant():
    f = sample(lambda t: 1.0, UniformGrid1D(0.0, 1.0, 16))
    assert l1_norm(f) == pytest.approx(1.0, abs=1e-14)


def test_l1_norm_triangle_area():
    f = sample(lambda t: t, UniformGrid1D(0.0, 1.0, 1000))
    assert l1_norm(f) == pytest.approx(0.5, abs=1e-6)


def test_l1_norm_polynomial():
    # antiderivative of t - t^2/8 over [0,1] is 1/2 - 1/24 = 11/24
    expected = float(Fraction(1, 2) - Fraction(1, 24))
    f = sample(lambda t: t - t * t / 8.0, UniformGrid1D(0.0, 1.0, 4096))
    assert l1_norm(f) == pytest.approx(expected, abs=1e-6)


def test_is_real_flag():
    g = UniformGrid1D(0.0, 1.0, 4)
    assert sample(lambda t: t, g).is_real
    assert not sample(lambda t: t + 1j * t, g).is_real


def test_cumulative_trapezoid_of_ones_hits_nodes():
    g = UniformGrid1D(0.0, 1.0, 4)
    out = cumulative_trapezoid(sample(lambda t: 1.0, g))
    assert np.array_equal(out.values.real, g.nodes)


def test_cumulative_trapezoid_overflow_is_an_error_naming_the_step():
    # rl_integral at order 1 shares the trapezoid's grouping: the same bits,
    # and the same inputs rejected
    grid = UniformGrid1D(0.0, 8.0, 8)
    big = SampledFunction1D(grid, np.full(9, 1e307))
    assert np.array_equal(cumulative_trapezoid(big).values, rl_integral(1.0, big).values)
    huge = SampledFunction1D(grid, np.full(9, 1e308))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=re.escape("trapezoid integral overflows at step 1.0")):
            cumulative_trapezoid(huge)
        with pytest.raises(ValueError, match=re.escape("order-1.0 integral overflows at step 1.0")):
            rl_integral(1.0, huge)
        # a non-finite sample never reaches the integral: it is rejected where it is built
        vals = np.ones(9)
        vals[3] = np.nan
        with pytest.raises(ValueError, match=re.escape("non-finite sample at node index 3 (t=3.0)")):
            cumulative_trapezoid(SampledFunction1D(grid, vals))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=40),
    st.floats(-1e3, 1e3).filter(lambda c: abs(c) > 1e-6),
)
def test_l1_norm_absolutely_homogeneous(vals, c):
    g = UniformGrid1D(0.0, 1.0, len(vals) - 1)
    f = SampledFunction1D(g, np.array(vals, dtype=complex))
    lhs = l1_norm(c * f)
    rhs = abs(c) * l1_norm(f)
    assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=40),
    st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=40),
)
def test_l1_triangle_inequality(a_vals, b_vals):
    n = min(len(a_vals), len(b_vals))
    g = UniformGrid1D(0.0, 1.0, n - 1)
    f = SampledFunction1D(g, np.array(a_vals[:n], dtype=complex))
    h = SampledFunction1D(g, np.array(b_vals[:n], dtype=complex))
    assert l1_norm(f + h) <= l1_norm(f) + l1_norm(h) + 1e-12


def test_sample_readback_identity():
    g = UniformGrid1D(0.25, 2.0, 17)
    f = sample(math.cos, g)
    assert np.array_equal(f.values.real, np.cos(g.nodes))


def test_box_grid_and_nd_norm():
    axes = (UniformGrid1D(0.0, 1.0, 8), UniformGrid1D(0.0, 2.0, 10))
    box = BoxGridND(axes)
    f = sample_nd(lambda x, y: 1.0, box)
    assert f.values.shape == (9, 11)
    assert l1_norm_nd(f) == pytest.approx(2.0, abs=1e-13)


def test_box_grid_dimension_cap():
    g = UniformGrid1D(0.0, 1.0, 2)
    with pytest.raises(ValueError):
        BoxGridND((g, g, g, g))


def test_l1_distance_matches_norm_of_difference():
    g = UniformGrid1D(0.0, 1.0, 64)
    f = sample(math.cos, g)
    h = sample(math.sin, g)
    assert l1_distance(f, h) == l1_norm(f - h)


def test_l1_distance_is_the_norm_of_the_difference_bit_for_bit():
    # real and complex samples, 1D and 2D: the distance reads the
    # difference's samples directly, with the norm's own arithmetic
    rng = np.random.default_rng(7)
    g = UniformGrid1D(-1.0, 2.0, 97)
    box = BoxGridND((g, UniformGrid1D(0.0, 0.5, 33)))
    for shape in ((g.N + 1,), box.shape):
        real = [rng.standard_normal(shape) for _ in range(2)]
        cplx = [rng.standard_normal(shape) + 1j * rng.standard_normal(shape) for _ in range(2)]
        for a, b in (real, cplx, (real[0], cplx[1])):
            if len(shape) == 1:
                f, h = SampledFunction1D(g, a), SampledFunction1D(g, b)
                got, want = l1_distance(f, h), l1_norm(f - h)
            else:
                f, h = SampledFunctionND(box, a), SampledFunctionND(box, b)
                got, want = l1_distance_nd(f, h), l1_norm_nd(SampledFunctionND(box, a - b))
            assert got == want and math.isfinite(got)


def test_shape_mismatch_rejected():
    g = UniformGrid1D(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        SampledFunction1D(g, np.ones(3))
    box = BoxGridND((g,))
    with pytest.raises(ValueError):
        SampledFunctionND(box, np.ones((2, 2)))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, complex(0.0, math.nan)])
def test_sampled_functions_are_finite_by_construction(bad):
    # the one check of input samples: each constructor names the first bad node
    vals = np.ones(5, dtype=complex)
    vals[[1, 3]] = bad
    message = re.escape("non-finite sample at node index 1 (t=0.25)") + "$"
    with pytest.raises(ValueError, match=message):
        SampledFunction1D(UniformGrid1D(0.0, 1.0, 4), vals)
    box = BoxGridND((UniformGrid1D(0.0, 1.0, 2), UniformGrid1D(0.0, 1.0, 3)))
    vals = np.ones(box.shape, dtype=complex)
    vals[1, 2] = vals[2, 0] = bad
    message = re.escape("non-finite sample at node index (1, 2)") + "$"
    with pytest.raises(ValueError, match=message):
        SampledFunctionND(box, vals)


def test_non_finite_scalar_is_rejected_by_name():
    # inf * 0 and nan * anything would build a NaN function, which no later
    # check could tell from a bad sample
    f = SampledFunction1D(UniformGrid1D(0.0, 1.0, 2), [0.0, 1.0, 2.0])
    cases = ((math.nan, "nan"), (math.inf, "inf"), (complex(1.0, -math.inf), "(1-infj)"))
    for scalar, shown in cases:
        message = re.escape(f"non-finite scalar {shown}") + "$"
        for product in (lambda: scalar * f, lambda: f * scalar):
            with pytest.raises(ValueError, match=message):
                product()


def test_sample_nd_rejects_nonfinite():
    # the index reads as plain ints, not as numpy scalars
    box = BoxGridND((UniformGrid1D(0.0, 1.0, 2), UniformGrid1D(0.0, 1.0, 2)))
    message = "non-finite sample at node index (1, 2)"
    with pytest.raises(ValueError, match=re.escape(message) + "$"):
        sample_nd(lambda x, y: float("nan") if (x, y) == (0.5, 1.0) else 1.0, box)


def test_l1_distance_overflow_is_an_error_naming_the_node():
    # finite samples whose difference overflows: no warning, and the error
    # names the distance, not a non-finite sample that neither input has
    g = UniformGrid1D(0.0, 1.0, 4)
    box = BoxGridND((g, UniformGrid1D(0.0, 1.0, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for big in (1e308, 1e308j):
            f, h = np.ones(5, dtype=complex), np.ones(5, dtype=complex)
            f[2], h[2] = big, -big
            message = re.escape("the L1 distance overflows at node index (2,)") + "$"
            with pytest.raises(ValueError, match=message):
                l1_distance(SampledFunction1D(g, f), SampledFunction1D(g, h))
            f, h = np.ones(box.shape, dtype=complex), np.ones(box.shape, dtype=complex)
            f[2, 1], h[2, 1] = big, -big
            message = re.escape("the L1 distance overflows at node index (2, 1)") + "$"
            with pytest.raises(ValueError, match=message):
                l1_distance_nd(SampledFunctionND(box, f), SampledFunctionND(box, h))
        # a non-finite sample is rejected where it is built, and large finite
        # differences still come back
        f = np.ones(5)
        f[3] = np.inf
        message = re.escape("non-finite sample at node index 3 (t=0.75)")
        with pytest.raises(ValueError, match=message):
            l1_distance(SampledFunction1D(g, f), SampledFunction1D(g, np.ones(5)))
        top = SampledFunction1D(g, np.full(5, 2e307))
        assert l1_distance(top, -1.0 * top) == pytest.approx(4e307)


def _huge_on_three_nodes():
    # 1e308 everywhere but node 1, where f + f, f - (-1) f and 10 f stay finite
    return SampledFunction1D(UniformGrid1D(0.0, 1.0, 2), [1e308, 1.0, 1e308])


def test_sum_overflow_is_an_error_naming_the_node():
    f = _huge_on_three_nodes()
    message = re.escape("the sum overflows at node index (0,)") + "$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            f + f
        assert np.array_equal((f + (-1.0) * f).values, [0.0, 0.0, 0.0])


def test_difference_overflow_is_an_error_naming_the_node():
    f = _huge_on_three_nodes()
    message = re.escape("the difference overflows at node index (0,)") + "$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            f - (-1.0) * f
        assert np.array_equal((f - f).values, [0.0, 0.0, 0.0])


def test_product_overflow_is_an_error_naming_the_node():
    f = SampledFunction1D(UniformGrid1D(0.0, 1.0, 2), [1.0, 1e308j, 1e308])
    message = re.escape("the product overflows at node index (1,)") + "$"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for product in (lambda: 10.0 * f, lambda: f * 10.0):
            with pytest.raises(ValueError, match=message):
                product()
        assert np.array_equal((0.5 * f).values, [0.5, 5e307j, 5e307])


def test_l1_norm_overflow_is_an_error_naming_the_step():
    # finite samples whose norm overflows: in the step, in the sum or in |f|
    wide = UniformGrid1D(0.0, 1e80, 8)
    unit = UniformGrid1D(0.0, 1.0, 2)
    cases = (
        (SampledFunction1D(wide, np.full(9, 1e300)), "step 1.25e+79"),
        (SampledFunction1D(unit, np.full(3, 1e308)), "step 0.5"),
        (SampledFunction1D(unit, np.full(3, 1e308 + 1e308j)), "step 0.5"),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for f, step in cases:
            message = re.escape(f"L1 norm integral overflows at {step}")
            with pytest.raises(ValueError, match=message):
                l1_norm(f)
        box = BoxGridND((wide, unit))
        with pytest.raises(ValueError, match=r"overflows at steps \(1\.25e\+79, 0\.5\)"):
            l1_norm_nd(SampledFunctionND(box, np.full(box.shape, 1e300)))
        # a non-finite sample is named as such where it is built, not as an overflow
        for bad in (np.nan, np.inf, complex(0.0, np.nan)):
            vals = np.ones(9, dtype=complex)
            vals[5] = bad
            message = re.escape("non-finite sample at node index 5 (t=6.25e+79)")
            with pytest.raises(ValueError, match=message):
                l1_norm(SampledFunction1D(wide, vals))
        # the largest finite norms still come back
        assert l1_norm(SampledFunction1D(unit, np.full(3, 1e307))) == pytest.approx(1e307)
