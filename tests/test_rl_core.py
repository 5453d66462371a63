import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from fracops.grid import (
    BoxGridND,
    SampledFunction1D,
    SampledFunctionND,
    UniformGrid1D,
    cumulative_trapezoid,
    l1_distance,
    sample,
    sample_nd,
)
from fracops.harness import TEST_FUNCTIONS
from fracops.rl_core import (
    FAMILY_NAMES,
    _FAR_RULE,
    _NEAR_RULE,
    _block_size,
    estimate_order,
    make_family,
    product_quadrature_weights,
    rl_integral,
)
from fracops.rl_nd import rl_integral_nd

TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)  # closed form of I^0.5 1 at t = 1


def ones_on(a=0.0, T=1.0, n=256):
    return sample(lambda t: 1.0, UniformGrid1D(a, T, n))


def test_unit_order_integral_of_one_is_nodes():
    f = ones_on(n=4)
    out = rl_integral(1.0, f)
    assert np.array_equal(out.values.real, f.grid.nodes)


def test_unit_order_is_trapezoid_bit_for_bit():
    for n in (7, 64, 333, 1024):
        g = UniformGrid1D(0.0, 1.0, n)
        for expr in (np.cos, lambda t: np.exp(-t) + 0.3 * t * t, lambda t: t):
            f = sample(expr, g)
            assert np.array_equal(
                rl_integral(1.0, f).values, cumulative_trapezoid(f).values
            )


def _swept_batch(alpha, line, expr, axis):
    """expr(s) * (1 + x*y) on a 2D box, s the coordinate along ``axis`` on ``line``
    and 3 nodes across it, and its integral of order alpha along that axis."""
    other = UniformGrid1D(0.0, 1.0, 2)
    axes = (line, other) if axis == 0 else (other, line)
    f = sample_nd(lambda x, y: expr(x if axis == 0 else y) * (1.0 + x * y), BoxGridND(axes))
    orders = (alpha, 0.0) if axis == 0 else (0.0, alpha)
    return f.values, rl_integral_nd(orders, f).values


def _exact_node_sums(alpha, h, values, nodes):
    """Per node m: math.fsum of its product-quadrature terms and the sum of |terms|.

    The terms are wl[m-1-j]*f(t_j) and wr[m-1-j]*f(t_{j+1}), j < m, real and
    imaginary parts summed separately; returns (ref, mass) for each part.
    """
    n = len(values) - 1
    wl, wr = product_quadrature_weights(alpha, h, n)
    out = []
    for part in (values.real, values.imag):
        ref, mass = [], []
        for m in nodes:
            terms = np.concatenate((wl[m - 1::-1] * part[:m], wr[m - 1::-1] * part[1:m + 1]))
            ref.append(math.fsum(terms))
            mass.append(float(np.abs(terms).sum()))
        out.append((np.array(ref), np.array(mass)))
    return out


def _assert_within_rounding(alpha, h, values, got):
    # every node at small sizes; at large ones the first blocks, both sides
    # of every block edge, a stride through the rest and the last node
    n = len(values) - 1
    if n <= 64:
        nodes = np.arange(1, n + 1)
    else:
        b = _block_size(n)
        edges = np.arange(b, n + 1, b)
        nodes = np.unique(np.concatenate((
            np.arange(1, 2 * b + 1), edges - 1, edges, np.minimum(edges + 1, n),
            np.arange(1, n + 1, 29), [n],
        )))
    eps = np.finfo(np.float64).eps
    for (ref, mass), out in zip(
        _exact_node_sums(alpha, h, values, nodes), (got.real, got.imag)
    ):
        assert np.all(np.abs(out[nodes] - ref) <= 8.0 * eps * mass)


def _mixed_batch(alpha, line, real_expr, complex_expr, axis):
    """Three rows along ``axis`` on ``line``, the middle one complex and the
    others real, and their integral of order alpha along that axis."""
    s = line.nodes
    rows = np.stack((real_expr(s), complex_expr(s), 0.5 - real_expr(s)))
    other = UniformGrid1D(0.0, 1.0, 2)
    box = BoxGridND((line, other) if axis == 0 else (other, line))
    f = SampledFunctionND(box, np.moveaxis(rows, 0, 1 - axis))
    orders = (alpha, 0.0) if axis == 0 else (0.0, alpha)
    return f.values, rl_integral_nd(orders, f).values


@pytest.mark.parametrize("n", [40, 4096])
@pytest.mark.parametrize("alpha", [0.3, 2.5])
def test_each_node_is_within_rounding_of_its_exact_sum(n, alpha):
    # mixed signs, so partial sums cancel and the bound is relative to sum |terms|;
    # real input sweeps only real GEMM columns, complex input adds imaginary ones
    real_expr = lambda t: np.cos(40.0 * t) + 0.2
    complex_expr = lambda t: real_expr(t) + 1j * (np.sin(7.0 * t) - 0.3)
    g = UniformGrid1D(0.0, 1.0, n)
    for expr in (complex_expr, real_expr):
        f = sample(expr, g)
        out = rl_integral(alpha, f).values
        assert np.array_equal(out, rl_integral(alpha, f).values)
        _assert_within_rounding(alpha, g.h, f.values, out)
        if expr is real_expr:
            assert np.all(out.imag == 0.0)
        # the same rows inside a 2D batch, swept along either axis
        for axis in (0, 1):
            f_vals, batch = _swept_batch(alpha, g, expr, axis)
            assert np.array_equal(batch, _swept_batch(alpha, g, expr, axis)[1])
            for row_in, row_out in zip(np.moveaxis(f_vals, axis, -1), np.moveaxis(batch, axis, -1)):
                _assert_within_rounding(alpha, g.h, row_in, row_out)
    # one complex row among real ones: both column sets in one GEMM, and the
    # real rows keep exactly zero imaginary parts (the oracle's bound is 0)
    for axis in (0, 1):
        f_vals, batch = _mixed_batch(alpha, g, real_expr, complex_expr, axis)
        assert np.array_equal(batch, _mixed_batch(alpha, g, real_expr, complex_expr, axis)[1])
        rows_in, rows_out = np.moveaxis(f_vals, axis, -1), np.moveaxis(batch, axis, -1)
        assert np.all(rows_out[[0, 2]].imag == 0.0)
        for row_in, row_out in zip(rows_in, rows_out):
            _assert_within_rounding(alpha, g.h, row_in, row_out)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0.0, math.nan)])
def test_non_finite_samples_are_rejected_by_node_index(bad):
    # a NaN or infinity times a zero weight would reach earlier nodes, so no
    # integral may see one: the sampled function is never built
    vals = np.array([0.0, 1.0, bad, 1.0, 1.0], dtype=complex)
    for alpha in (0.5, 1.0, 2.5):
        with pytest.raises(ValueError, match=r"non-finite sample at node index 2\b"):
            rl_integral(alpha, SampledFunction1D(UniformGrid1D(0.0, 1.0, 4), vals))
    box = BoxGridND((UniformGrid1D(0.0, 1.0, 3), UniformGrid1D(0.0, 1.0, 4)))
    grid_vals = np.ones(box.shape, dtype=complex)
    grid_vals[1, 3] = bad
    for orders in ((0.5, 0.0), (0.0, 0.5), (0.3, 1.0)):
        with pytest.raises(ValueError, match=r"non-finite sample at node index \(1, 3\)"):
            rl_integral_nd(orders, SampledFunctionND(box, grid_vals))


def test_overflowing_integral_names_order_and_step():
    # every sample is finite; the integral is not, on the cumsum and GEMM paths
    f = SampledFunction1D(UniformGrid1D(0.0, 100.0, 8), np.full(9, 1e307, dtype=complex))
    for alpha in (1.0, 2.0):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            message = rf"the order-{alpha} integral overflows at step 12\.5"
            with pytest.raises(ValueError, match=message):
                rl_integral(alpha, f)


def test_half_order_closed_form_at_endpoint():
    out = rl_integral(0.5, ones_on(n=4096))
    assert abs(out.values[-1].real - TWO_OVER_SQRT_PI) < 1e-4


def test_left_endpoint_is_zero():
    for alpha in (0.3, 1.0, 2.5):
        out = rl_integral(alpha, sample(np.cos, UniformGrid1D(0.0, 1.0, 64)))
        assert out.values[0] == 0.0


def test_index_law_residual_on_cos():
    g = UniformGrid1D(0.0, 1.0, 2048)
    f = sample(np.cos, g)
    twice = rl_integral(0.5, rl_integral(0.5, f))
    once = rl_integral(1.0, f)
    assert l1_distance(twice, once) < 5e-4


def test_index_law_converges_at_order_1p4():
    def resid(n):
        f = ones_on(n=n)
        return l1_distance(rl_integral(0.5, rl_integral(0.5, f)), rl_integral(1.0, f))

    e_coarse, e_fine = resid(256), resid(1024)
    order = math.log(e_coarse / e_fine) / math.log(4.0)
    assert order >= 1.4


def test_rejects_nonpositive_order():
    f = ones_on(n=8)
    for alpha in (0.0, -0.5, math.nan, math.inf, 200.0):
        with pytest.raises(ValueError):
            rl_integral(alpha, f)


def test_weights_are_nonnegative():
    for alpha in (0.25, 0.5, 1.0, 1.7, 3.2):
        wl, wr = product_quadrature_weights(alpha, 1.0 / 257, 257)
        assert np.all(wl >= 0.0)
        assert np.all(wr >= 0.0)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(0.0, 100.0), min_size=4, max_size=48),
    st.floats(0.1, 4.0),
)
def test_positivity_is_exact(vals, alpha):
    g = UniformGrid1D(0.0, 1.0, len(vals) - 1)
    out = rl_integral(alpha, SampledFunction1D(g, np.array(vals, dtype=complex)))
    assert np.all(out.values.real >= 0.0)
    assert np.all(out.values.imag == 0.0)


def test_gauss_legendre_rules_are_numpys():
    for rule, k in ((_NEAR_RULE, 16), (_FAR_RULE, 8)):
        x, w = np.polynomial.legendre.leggauss(k)
        assert np.array_equal(rule[0], 0.5 * (x + 1.0))
        assert np.array_equal(rule[1], 0.5 * w)


def test_weights_match_quadrature_oracle_at_every_distance():
    # scipy quad on the cell integrals in x = (t_m - s)/h; the closed-form
    # moments lost up to 7 digits to cancellation at large distance
    n = 16384
    h = 1.0 / n
    for alpha in (0.05, 0.5, 1.5, 3.7):
        wl, wr = product_quadrature_weights(alpha, h, n)
        scale = h ** alpha / math.gamma(alpha)
        for d in (1, 2, 3, 4, 5, 6, 17, 100, 1000, 9999, 16384):
            if d == 1:
                # the kernel singularity sits on this cell: algebraic weight x^(alpha-1)
                sing = {"weight": "alg", "wvar": (alpha - 1.0, 0.0)}
                left = quad(lambda x: x, 0.0, 1.0, **sing)[0]
                right = quad(lambda x: 1.0 - x, 0.0, 1.0, **sing)[0]
            else:
                left = quad(lambda x: x ** (alpha - 1.0) * (x - (d - 1)), d - 1, d)[0]
                right = quad(lambda x: x ** (alpha - 1.0) * (d - x), d - 1, d)[0]
            assert abs(wl[d - 1] / (scale * left) - 1.0) <= 1e-14, (alpha, d)
            assert abs(wr[d - 1] / (scale * right) - 1.0) <= 1e-14, (alpha, d)


BLOCK = 128  # block edge from N = 128 on; up to 128 nodes the matrix is one block
WIDE = 32768  # the largest N here
FAR = 8192  # long sweeps, above every size the commands run by default
RAMP = TEST_FUNCTIONS["ramp"]  # zero on [0, 0.3]


def _assert_exactly_nonnegative(f_vals, out, axis):
    f_rows = np.moveaxis(f_vals, axis, -1)
    out_rows = np.moveaxis(out, axis, -1)
    assert np.all(out_rows.real >= 0.0)
    assert np.all(out_rows.imag == 0.0)
    assert np.all(out_rows[..., 0] == 0.0)
    for f_row, out_row in zip(f_rows.reshape(-1, f_rows.shape[-1]), out_rows.reshape(-1, out_rows.shape[-1])):
        prefix = int(np.argmax(f_row != 0.0)) if np.any(f_row != 0.0) else len(f_row)
        assert np.all(out_row[:prefix] == 0.0)


@pytest.mark.parametrize(
    "n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7, 4096, FAR, FAR + 7, 2 * FAR, WIDE]
)
def test_positivity_is_exact_across_block_edges(n):
    assert _block_size(3 * BLOCK + 7) == BLOCK
    assert (_block_size(WIDE - 1), _block_size(WIDE)) == (BLOCK, BLOCK)
    g = UniformGrid1D(0.0, 1.0, n)
    f = sample(RAMP, g)
    for alpha in (0.05, 0.3, 2.5, 7.0):
        _assert_exactly_nonnegative(f.values, rl_integral(alpha, f).values, 0)
        for axis in (0, 1):
            _assert_exactly_nonnegative(*_swept_batch(alpha, g, RAMP, axis), axis)


@pytest.mark.parametrize("alpha", [0.05, 0.5, 0.999, 1.001, 1.5, 2.0, 3.3, 20.0])
def test_long_sweeps_are_within_1e14_of_their_exact_sums(alpha):
    # 129 blocks, the last one ragged. Checked at the first nodes, both sides
    # of five block edges, a stride and the last nodes.
    n = 2 * FAR + 7
    g = UniformGrid1D(0.0, 1.0, n)
    edges = BLOCK * np.array([1, 2, 3, 17, n // BLOCK])
    nodes = np.concatenate((np.arange(1, 4), edges, edges + 1, np.arange(1, n, 613), [n - 1, n]))
    nodes = np.unique(nodes)

    def assert_near_exact(values, got):
        assert got[0] == 0.0
        sums = _exact_node_sums(alpha, g.h, values, nodes)
        for (ref, mass), out in zip(sums, (got.real, got.imag)):
            assert np.all(np.abs(out[nodes] - ref) <= 1e-14 * mass)

    real_expr = lambda t: np.cos(40.0 * t) + 0.2
    complex_expr = lambda t: real_expr(t) + 1j * (np.sin(7.0 * t) - 0.3)
    for expr in (complex_expr, real_expr):
        f = sample(expr, g)
        out = rl_integral(alpha, f).values
        assert_near_exact(f.values, out)
        if expr is real_expr:
            assert np.all(out.imag == 0.0)
    for axis in (0, 1):
        f_vals, batch = _mixed_batch(alpha, g, real_expr, complex_expr, axis)
        rows_in, rows_out = np.moveaxis(f_vals, axis, -1), np.moveaxis(batch, axis, -1)
        assert np.all(rows_out[[0, 2]].imag == 0.0)
        for row_in, row_out in zip(rows_in, rows_out):
            assert_near_exact(row_in, row_out)


def test_long_sweeps_keep_the_non_finite_and_overflow_messages():
    vals = np.ones(FAR + 1, dtype=complex)
    vals[5000] = math.nan
    for alpha in (0.5, 2.5):
        with pytest.raises(ValueError, match=r"non-finite sample at node index 5000\b"):
            rl_integral(alpha, SampledFunction1D(UniformGrid1D(0.0, 1.0, FAR), vals))
    # every sample is finite, the integral is not
    huge = np.full(FAR + 1, 1e307, dtype=complex)
    f = SampledFunction1D(UniformGrid1D(0.0, 12.5 * FAR, FAR), huge)
    for alpha in (0.5, 2.0, 2.5):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            message = rf"the order-{alpha} integral overflows at step 12\.5"
            with pytest.raises(ValueError, match=message):
                rl_integral(alpha, f)


@pytest.mark.parametrize("n", [1, 2, 7, 2048, FAR + 7])
def test_sequence_equals_one_call_per_function(n):
    # every function is its own entry of a stack of same-shape GEMMs, so it
    # gets the bits of a call of its own
    g = UniformGrid1D(0.0, 1.0, n)
    rng = np.random.default_rng(n)
    real = [sample(RAMP, g), SampledFunction1D(g, rng.standard_normal(n + 1))]
    cplx = [SampledFunction1D(g, rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)),
            SampledFunction1D(g, 1j * rng.standard_normal(n + 1))]
    sequences = (real, cplx, [cplx[0], real[0], real[1], cplx[1]], (real[1],))
    for alpha in (0.3, 1.0, 1.5, 2.5):
        for fs in sequences:
            outs = rl_integral(alpha, fs)
            assert isinstance(outs, list) and len(outs) == len(fs)
            for f, out in zip(fs, outs):
                assert out.grid == g
                assert np.array_equal(out.values, rl_integral(alpha, f).values), (alpha, n)
            for f, out in zip(fs, outs):
                if f.is_real:
                    assert np.all(out.values.imag == 0.0)


def test_sequence_rejects_bad_input():
    g = UniformGrid1D(0.0, 1.0, 8)
    ok = sample(lambda t: t, g)
    with pytest.raises(ValueError, match="needs at least one sampled function"):
        rl_integral(0.5, [])
    with pytest.raises(ValueError, match="grid mismatch"):
        rl_integral(0.5, [ok, sample(lambda t: t, UniformGrid1D(0.0, 2.0, 8))])
    for bad in (math.nan, math.inf, complex(0.0, -math.inf)):
        vals = np.ones(9, dtype=complex)
        vals[3] = bad
        message = "non-finite sample at node index 3 (t=0.375)"
        for alpha in (0.5, 1.0, 2.5):
            with pytest.raises(ValueError, match=re.escape(message)):
                rl_integral(alpha, (ok, ok, SampledFunction1D(g, vals)))


@pytest.mark.parametrize("name", FAMILY_NAMES)
def test_family_apply_passes_sequences_through(name):
    g = UniformGrid1D(0.0, 1.0, 300)
    fs = [sample(expr, g) for expr in TEST_FUNCTIONS.values()]
    fs.append(SampledFunction1D(g, fs[2].values * (1.0 - 2.0j)))
    fam = make_family(name)
    for alpha in (0.5, 1.0, 1.3):
        outs = fam.apply(alpha, fs)
        assert len(outs) == len(fs)
        for f, out in zip(fs, outs):
            assert np.array_equal(out.values, fam.apply(alpha, f).values)


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(-50.0, 50.0), min_size=4, max_size=40),
    st.lists(st.floats(-50.0, 50.0), min_size=4, max_size=40),
    st.floats(0.2, 3.0),
)
def test_linearity_to_machine_precision(a_vals, b_vals, alpha):
    n = min(len(a_vals), len(b_vals))
    g = UniformGrid1D(0.0, 1.0, n - 1)
    f1 = SampledFunction1D(g, np.array(a_vals[:n], dtype=complex))
    f2 = SampledFunction1D(g, np.array(b_vals[:n], dtype=complex))
    lhs = rl_integral(alpha, 2.0 * f1 + (-3.0) * f2)
    rhs = 2.0 * rl_integral(alpha, f1) + (-3.0) * rl_integral(alpha, f2)
    scale = max(1.0, float(np.abs(rhs.values).max()))
    assert float(np.abs(lhs.values - rhs.values).max()) < 1e-12 * scale


def test_order_continuity_surrogate():
    f = ones_on(n=512)
    base = rl_integral(0.7, f)
    resid = [l1_distance(rl_integral(0.7 + d, f), base) for d in (0.1, 0.01, 0.001)]
    assert resid[0] > resid[1] > resid[2]
    assert resid[2] < 1e-2


def test_order_continuity_pointwise_for_nonnegative_input():
    # at fixed t the map alpha -> output(t) is continuous for f >= 0
    f = sample(lambda t: max(0.0, t - 0.3), UniformGrid1D(0.0, 1.0, 512))
    base = rl_integral(0.9, f).values[-1]
    gaps = [
        abs(rl_integral(0.9 + d, f).values[-1] - base) for d in (0.1, 0.01, 0.001)
    ]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-3


def test_shifted_integral_on_translated_interval():
    f = sample(lambda t: 1.0, UniformGrid1D(2.0, 3.0, 64))
    out = rl_integral(1.0, f)
    assert np.allclose(out.values.real, f.grid.nodes - 2.0, atol=1e-13)


def test_shifted_integral_negative_origin():
    f = sample(lambda t: 1.0, UniformGrid1D(-1.0, 1.0, 4096))
    out = rl_integral(0.5, f)
    k = 2048  # node at t = 0, one unit from the origin
    assert abs(out.values[k].real - TWO_OVER_SQRT_PI) < 1e-4


def test_integral_is_translation_invariant():
    # the weights depend only on the step, so translating the grid changes
    # nothing but the nodes the output is attached to
    vals = sample(np.cos, UniformGrid1D(2.0, 3.0, 200)).values
    moved = rl_integral(0.8, SampledFunction1D(UniformGrid1D(2.0, 3.0, 200), vals))
    origin = rl_integral(0.8, SampledFunction1D(UniformGrid1D(0.0, 1.0, 200), vals))
    assert np.array_equal(moved.values, origin.values)


def test_family_catalog_names():
    assert FAMILY_NAMES == (
        "doubled_order",
        "geometric",
        "phase",
        "riemann_liouville",
        "scaled_order",
    )
    with pytest.raises(ValueError, match="riemann_liouville"):
        make_family("nope")


def test_family_riemann_liouville_value():
    fam = make_family("riemann_liouville")
    out = fam.apply(0.5, ones_on(n=2048))
    assert abs(out.values[-1].real - TWO_OVER_SQRT_PI) < 1e-4


def test_family_scaled_order_is_alpha_times_nodes():
    fam = make_family("scaled_order")
    f = ones_on(n=64)
    out = fam.apply(0.5, f)
    assert np.allclose(out.values.real, 0.5 * f.grid.nodes, atol=1e-14)


def test_family_phase_value():
    fam = make_family("phase")
    out = fam.apply(0.5, ones_on(n=2048))
    v = out.values[-1]
    assert abs(v.real - (-TWO_OVER_SQRT_PI)) < 1e-4
    assert abs(v.imag) < 1e-12


def test_family_expected_profiles():
    profiles = {
        "riemann_liouville": (True, True, True, True),
        "scaled_order": (True, False, True, True),
        "doubled_order": (False, True, True, True),
        "geometric": (False, True, True, True),
        "phase": (True, True, True, False),
    }
    for name, (ident, index, cont, pos) in profiles.items():
        p = make_family(name).expected_profile
        assert (p.identity, p.index_law, p.continuity, p.positivity) == (
            ident,
            index,
            cont,
            pos,
        )


def test_estimate_order_half():
    out = rl_integral(0.5, ones_on(n=1024))
    assert abs(estimate_order(out) - 0.5) < 1e-3


def test_estimate_order_on_closed_form_samples():
    # the model fitted is exactly t^b / Gamma(b+1); sample it directly
    g = UniformGrid1D(0.0, 1.0, 512)
    closed = sample(lambda t: t ** 0.5 / math.gamma(1.5), g)
    assert abs(estimate_order(closed) - 0.5) < 1e-3


def test_estimate_order_unit():
    out = rl_integral(1.0, ones_on(n=1024))
    assert abs(estimate_order(out) - 1.0) < 1e-3


def test_estimate_order_sees_through_doubling():
    fam = make_family("doubled_order")
    out = fam.apply(0.5, ones_on(n=1024))
    assert abs(estimate_order(out) - 1.0) < 1e-3


def test_estimate_order_rejects_nonpositive():
    g = UniformGrid1D(0.0, 1.0, 16)
    vals = np.linspace(0, 1, 17)
    vals[5] = -1.0
    with pytest.raises(ValueError, match="interior node"):
        estimate_order(SampledFunction1D(g, vals.astype(complex)))


def test_estimate_order_without_an_interior_node_is_an_error():
    f = SampledFunction1D(UniformGrid1D(0.0, 1.0, 1), [0.0, 1.0])
    with pytest.raises(ValueError, match="nothing to fit"):
        estimate_order(f)


def test_estimate_order_respects_grid_origin():
    out = rl_integral(0.5, ones_on(a=2.0, T=3.0, n=1024))
    assert abs(estimate_order(out) - 0.5) < 1e-3
