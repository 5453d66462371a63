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
    l1_norm,
    l1_norm_nd,
    sample,
    sample_nd,
)


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


def test_shape_mismatch_rejected():
    g = UniformGrid1D(0.0, 1.0, 4)
    with pytest.raises(ValueError):
        SampledFunction1D(g, np.ones(3))
    box = BoxGridND((g,))
    with pytest.raises(ValueError):
        SampledFunctionND(box, np.ones((2, 2)))


def test_sample_nd_rejects_nonfinite():
    box = BoxGridND((UniformGrid1D(0.0, 1.0, 2), UniformGrid1D(0.0, 1.0, 2)))
    with pytest.raises(ValueError, match="node index"):
        sample_nd(lambda x, y: float("nan") if (x, y) == (0.5, 0.5) else 1.0, box)


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
        # a non-finite sample is named as such, not as an overflow
        for bad in (np.nan, np.inf, complex(0.0, np.nan)):
            vals = np.ones(9, dtype=complex)
            vals[5] = bad
            with pytest.raises(ValueError, match=re.escape("non-finite sample at node index (5,)")):
                l1_norm(SampledFunction1D(wide, vals))
        # the largest finite norms still come back
        assert l1_norm(SampledFunction1D(unit, np.full(3, 1e307))) == pytest.approx(1e307)
