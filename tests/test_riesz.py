import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracops import cli, riesz
from fracops.cli import RIESZ_TOL
from fracops.riesz import (
    PeriodicGridND,
    _judge_multiplier,
    _log_xi,
    composition_residual,
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
    for shape in ((128,), (32, 32), (8, 8, 8)):
        f = rng.standard_normal(shape)
        f -= f.mean()
        out = riesz_potential(0.6, f)
        assert np.isrealobj(out)
        assert out.dtype == np.float64
        assert out.shape == shape


def _complex_fft_reference(alpha, values):
    # the full complex-FFT route with |xi|^(-alpha) taken by power
    values = np.asarray(values, dtype=np.complex128)
    xi = PeriodicGridND(values.ndim, values.shape[0]).xi_norm()
    mult = np.zeros_like(xi)
    mult[xi > 0] = xi[xi > 0] ** (-alpha)
    return np.fft.ifftn(np.fft.fftn(values) * mult)


def test_complex_input_matches_complex_fft_reference():
    rng = np.random.default_rng(3)
    for shape, alpha in (((256,), 0.45), ((64, 64), 1.3), ((16, 16, 16), 2.2)):
        f = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        f -= f.mean()
        out = riesz_potential(alpha, f)
        ref = _complex_fft_reference(alpha, f)
        assert out.dtype == np.complex128
        assert np.abs(out - ref).max() <= 1e-15 * np.abs(ref).max()
        # real input agrees with the same reference
        g = f.real - f.real.mean()
        ref = _complex_fft_reference(alpha, g)
        assert np.abs(riesz_potential(alpha, g) - ref).max() <= 1e-15 * np.abs(ref).max()


def test_complex_input_is_two_real_samples():
    # one route: a zero imaginary part stays exactly zero, and the other part
    # is the real input's output, bit for bit
    rng = np.random.default_rng(11)
    for shape, alpha in (((128,), 0.45), ((32, 32), 1.3), ((8, 8, 8), 2.2)):
        f = rng.standard_normal(shape)
        f -= f.mean()
        ref = riesz_potential(alpha, f).tobytes()
        out = riesz_potential(alpha, f.astype(np.complex128))
        assert out.real.tobytes() == ref
        assert np.all(out.imag == 0.0)
        out = riesz_potential(alpha, 1j * f)
        assert out.imag.tobytes() == ref
        assert np.all(out.real == 0.0)


def test_composition_residual_takes_complex_input():
    t = nodes(128)
    f = np.sin(TWO_PI * t) + 0.5 * np.cos(6.0 * math.pi * t)
    g = f + 1j * np.cos(4.0 * math.pi * t)
    alphas = [0.2, 0.3, 0.45]
    assert 0.0 < composition_residual(alphas, g) < 1e-12
    # a zero imaginary part adds exactly nothing to the residual
    assert composition_residual(alphas, f.astype(np.complex128)) == composition_residual(
        alphas, f
    )
    # no pair a + b below the dimension: nothing to compare
    assert composition_residual([0.6, 0.7], g) == 0.0


def _pairwise_residuals(alpha_grid, values):
    # the pair-by-pair loop: a first step per order, then for every partner a
    # full riesz_potential round trip and a one-step potential of its own
    residuals, scales = {}, {}
    for a in alpha_grid:
        partners = [b for b in alpha_grid if a + b < values.ndim]
        if not partners:
            continue
        first = riesz_potential(a, values)
        for b in partners:
            two_step = riesz_potential(b, first)
            one_step = riesz_potential(a + b, values)
            residuals[a, b] = float(np.abs(two_step - one_step).max())
            scales[a, b] = float(np.abs(one_step).max())
    return residuals, scales


def _periodic_sample(dim, m):
    mesh = np.meshgrid(*([nodes(m)] * dim), indexing="ij", sparse=True)
    f = np.sin(TWO_PI * mesh[0]) + 0.5 * np.cos(6.0 * math.pi * mesh[0])
    for axis in range(1, dim):
        f = f * np.cos(TWO_PI * mesh[axis])
    return f


def test_composition_residual_matches_pairwise_loop_per_pair():
    # one inverse of a spectral difference rounds differently from the
    # difference of two inverses, so every pair's residual may move, by a few
    # ulps of the potential it compares against
    rng = np.random.default_rng(17)
    base = [0.3, 0.5, 0.5, 0.9, 1.2]
    # scaled by n / 2 so that every order is in (0, n) and some pairs are not
    for dim, m in ((1, 64), (2, 32), (3, 16)):
        alphas = [a * dim / 2 for a in base]
        assert any(a + b >= dim for a in alphas for b in alphas)
        f = _periodic_sample(dim, m)
        g = f + 1j * np.roll(f, 3, axis=0) ** 2
        g -= g.mean()
        noise = rng.standard_normal(f.shape)
        noise -= noise.mean()
        for values in (f, g, noise):
            expected, scales = _pairwise_residuals(alphas, values)
            got = {(a, b): r for a, b, r in riesz._pair_residuals(alphas, values)}
            assert got.keys() == expected.keys()
            for pair, residual in got.items():
                assert abs(residual - expected[pair]) <= 1e-14 * scales[pair], pair
            assert composition_residual(alphas, values) == max(got.values())


def _reference_pair_residuals(alpha_grid, values):
    # the law read with np.fft's own n-D calls: per part,
    # irfftn(rfftn(irfftn(F m_a)) m_b - F m_(a+b)), F = rfftn(f)
    grid = riesz._grid_for(values)
    axes = tuple(range(grid.dim))
    log_xi = _log_xi(grid)
    parts = (values,) if np.isrealobj(values) else (values.real, values.imag)
    spectra = [np.fft.rfftn(part) for part in parts]
    orders = list(dict.fromkeys(alpha_grid))
    for a in orders:
        partners = [b for b in orders if a + b < grid.dim]
        if not partners:
            continue
        first = [
            np.fft.rfftn(np.fft.irfftn(spec * np.exp(-a * log_xi), s=grid.shape, axes=axes))
            for spec in spectra
        ]
        for b in partners:
            diffs = [
                np.fft.irfftn(
                    first_spec * np.exp(-b * log_xi) - spec * np.exp(-(a + b) * log_xi),
                    s=grid.shape,
                    axes=axes,
                )
                for first_spec, spec in zip(first, spectra)
            ]
            yield a, b, float((np.abs(diffs[0]) if len(diffs) == 1 else np.hypot(*diffs)).max())


def test_composition_residual_is_bit_identical_to_numpys_nd_transforms():
    # the workspace changes where each pass writes, not what it computes
    rng = np.random.default_rng(23)
    for dim, m in ((1, 256), (2, 64), (3, 32)):
        # scaled by n / 2; 1.8 n / 2 has no partner, and 0.5 is repeated
        alphas = [a * dim / 2 for a in (0.3, 0.5, 0.5, 0.9, 1.2, 1.8)]
        f = _periodic_sample(dim, m)
        g = f + 1j * np.roll(f, 3, axis=0) ** 2
        g -= g.mean()
        noise = rng.standard_normal(f.shape)
        noise -= noise.mean()
        for values in (f, g, noise):
            got = list(riesz._pair_residuals(alphas, values))
            expected = list(_reference_pair_residuals(alphas, values))
            assert [pair[:2] for pair in got] == [pair[:2] for pair in expected]
            assert all(a != alphas[-1] for a, _, _ in got)
            for (a, b, residual), (_, _, want) in zip(got, expected):
                assert residual.hex() == want.hex(), (dim, a, b)


def test_composition_residual_transforms_once_per_first_step_and_pair(monkeypatch):
    counts = {"forward": 0, "inverse": 0, "np.fft.irfftn": 0}
    # an n-D transform of the check is counted at its one pass along axis 0:
    # the last pass of a first step's forward transform, the first of an
    # inverse; the sample's forward transform is one rfftn call. None may
    # fall back to np.fft.irfftn, which allocates a new array per pass
    for name, key in (
        ("rfftn", "forward"),
        ("fft", "forward"),
        ("ifft", "inverse"),
        ("irfftn", "np.fft.irfftn"),
    ):
        transform = getattr(np.fft, name)

        def counted(*args, _key=key, _transform=transform, _nd=name.endswith("n"), **kwargs):
            if _nd or kwargs.get("axis") == 0:
                counts[_key] += 1
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    # 4 orders, all 16 pairs in range: 1 + 4 forward transforms and 4 first
    # steps + 16 spectral-difference inverses
    f = _periodic_sample(3, 64)
    composition_residual([0.25, 0.5, 0.7, 1.0], f)
    assert counts == {"forward": 5, "inverse": 20, "np.fft.irfftn": 0}
    # 2.9 has no partner below 3, so it adds no transform at all
    counts.update(forward=0, inverse=0)
    composition_residual([0.25, 0.5, 2.9, 0.7, 1.0], f)
    assert counts == {"forward": 5, "inverse": 20, "np.fft.irfftn": 0}


def test_composition_residual_peak_memory_does_not_grow_with_orders():
    # the workspace is allocated once per call, so the peak does not depend
    # on how many orders the grid holds
    f = _periodic_sample(3, 64)
    g = f + 1j * np.roll(f, 3, axis=0) ** 2
    g -= g.mean()
    composition_residual([0.25], f)  # tabulates log|xi| outside the measurement
    half_spectrum = 64 * 64 * 33 * 16  # one complex rfftn output at 64^3
    # about 3.4 half spectra for real f: F, F_a and one scratch spectrum,
    # and slabs of about 256 KiB for the two multipliers, the product and
    # the physical values; a complex sample has three spectra and a physical
    # slab per part, about 6.5
    for values, bound in ((f, 3.6), (g, 6.75)):
        peaks = []
        for alphas in ([0.25, 0.5, 0.7, 1.0], [0.1 * k for k in range(1, 9)]):
            tracemalloc.start()
            try:
                composition_residual(alphas, values)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < half_spectrum
        assert peaks[0] < bound * half_spectrum


def test_riesz_check_cli_peak_memory(tmp_path):
    # the benchmark's riesz-check run peaks inside the check: the CLI's
    # sample f (about 1 half spectrum), the check's 3.4 and, on a cold
    # cache, the log|xi| table it keeps (0.5), which is built before F
    argv = ["riesz-check", "--dim", "3", "--modes", "64", "--alpha-grid", "0.25,0.5,0.7,1.0"]
    argv += ["--out", str(tmp_path / "riesz.json")]
    half_spectrum = 64 * 64 * 33 * 16
    for cache, bound in (("cold", 5.25), ("warm", 4.6)):
        if cache == "cold":
            _log_xi.cache_clear()
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * half_spectrum, (cache, peak / half_spectrum)


def test_composition_residual_checks_the_operator_output(monkeypatch):
    # a first step perturbed in physical space after the multiplier, in the
    # slab its last inverse pass writes, must show up in the residual:
    # F[I^a f] comes from a round trip, not from m_a F[f]
    original = riesz._forward_slab
    pattern = 1e-9 * np.sin(TWO_PI * nodes(32))[:, None]
    slabs = []

    def perturbed(grid, sl, parts, spectra):
        slabs.append(sl)
        for part in parts:
            part += pattern[sl]
        return original(grid, sl, parts, spectra)

    f = _periodic_sample(2, 32)
    alphas = [0.3, 0.6, 0.9]
    assert composition_residual(alphas, f) < RIESZ_TOL
    monkeypatch.setattr(riesz, "_forward_slab", perturbed)
    assert composition_residual(alphas, f) > RIESZ_TOL
    assert slabs


def test_composition_residual_names_a_non_finite_first_step_by_its_global_index(monkeypatch):
    # the first step is checked slab by slab, yet the message names the
    # index in the whole sample; (31, 5, 3) lies past the first slab at 3D/32
    original = riesz._forward_slab

    def poisoned(grid, sl, parts, spectra):
        if sl.start <= 31 < sl.stop:
            assert sl.start > 0
            parts[-1][31 - sl.start, 5, 3] = np.nan
        return original(grid, sl, parts, spectra)

    monkeypatch.setattr(riesz, "_forward_slab", poisoned)
    f = _periodic_sample(3, 32)
    for values in (f, f + 1j * np.roll(f, 3, axis=1)):
        with pytest.raises(ValueError, match=r"non-finite sample at index \(31, 5, 3\)"):
            composition_residual([0.5, 1.0], values)


def test_composition_residual_rejects_orders_outside_range_before_transforming(monkeypatch):
    def no_transform(*args, **kwargs):
        raise AssertionError("transform before the order check")

    monkeypatch.setattr(np.fft, "rfftn", no_transform)
    f = _periodic_sample(1, 64)
    for bad in (5.0, math.nan, 1.0, 0.0, -0.3, math.inf):
        with pytest.raises(ValueError, match=r"order must lie in \(0, 1\)"):
            composition_residual([0.3, bad], f)
    with pytest.raises(ValueError, match=r"order must lie in \(0, 3\)"):
        composition_residual([0.25, 3.0], _periodic_sample(3, 8))


def test_output_zero_mode_is_zero():
    # an admissible mean below 1e-10 is dropped, not multiplied by 0^(-alpha)
    t = nodes(64)
    f = np.sin(TWO_PI * t) + 5e-11
    for values in (f, f.astype(np.complex128)):
        out = riesz_potential(0.5, values)
        assert np.all(np.isfinite(out))
        assert abs(out.sum()) < 1e-14


def test_log_xi_is_the_full_spectrum_table_cut_to_the_half_spectrum():
    # built on the half spectrum in place, bit for bit the log of xi_norm's
    # first M/2 + 1 columns, +inf at the zero mode only
    for dim, m in ((1, 256), (2, 128), (3, 64), (3, 16), (2, 6)):
        grid = PeriodicGridND(dim, m)
        xi = grid.xi_norm()[..., : m // 2 + 1]
        table = _log_xi(grid)
        assert table.shape == xi.shape
        assert table[(0,) * dim] == np.inf
        nz = xi > 0.0
        assert np.count_nonzero(~nz) == 1
        assert table[nz].tobytes() == np.log(xi[nz]).tobytes()


def test_alternating_grids_match_fresh_tables():
    rng = np.random.default_rng(5)
    inputs = []
    for shape in ((256,), (64, 64), (16, 16, 16), (64,), (16, 16)):
        f = rng.standard_normal(shape)
        inputs += [f - f.mean(), (f - f.mean()).astype(np.complex128)]
    fresh = []
    for f in inputs:
        _log_xi.cache_clear()
        fresh.append(riesz_potential(0.7, f))
    for _ in range(2):
        for f, ref in zip(inputs + inputs[::-1], fresh + fresh[::-1]):
            assert np.array_equal(riesz_potential(0.7, f), ref)


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
    for values in (np.float64(0.0), np.zeros((4,) * 4)):
        with pytest.raises(ValueError, match=r"dimension must be 1\.\.3"):
            riesz_potential(0.5, values)


def test_rejects_non_finite_samples_by_index():
    f = np.sin(TWO_PI * nodes(64))
    for bad in (np.nan, np.inf, -np.inf):
        g = f.copy()
        g[17] = bad
        g[40] = bad
        with pytest.raises(ValueError, match=r"non-finite sample at index \(17,\)"):
            riesz_potential(0.5, g)
    g = np.zeros((8, 8), dtype=np.complex128)
    g[3, 5] = complex(0.0, np.nan)
    with pytest.raises(ValueError, match=r"non-finite sample at index \(3, 5\)"):
        riesz_potential(0.5, g)


ALPHAS = [0.25, 0.5, 0.7]
MODES = [1, 2, 3, 5]
XI = TWO_PI * np.array(MODES, dtype=float)


def applied(alpha):
    """The multiplier ``riesz_potential`` applies at ``MODES`` of a 1D/256 grid."""
    log_xi = _log_xi(PeriodicGridND(1, 256))[MODES]
    return riesz._multiplier(alpha, log_xi, np.empty_like(log_xi))


def table(m):
    """Rows m(order) at each grid order and each sum a + b < 1 of two."""
    orders = ALPHAS + [a + b for a in ALPHAS for b in ALPHAS if a + b < 1.0]
    return {s: m(s) for s in orders}


def test_multiplier_check_exact_family():
    verdict = _judge_multiplier(ALPHAS, 0.5, 1, XI, table(applied))
    assert verdict["max_residual"] < 1e-12
    assert verdict["multiplicative"]
    assert verdict["anchor_violation"] < 1e-12


def test_multiplier_check_scaled_family_reports_anchor_violation():
    verdict = _judge_multiplier(ALPHAS, 0.5, 1, XI, table(lambda a: 2.0 ** a * applied(a)))
    assert verdict["multiplicative"]  # 2^a is itself additive in the exponent
    assert verdict["anchor_violation"] == pytest.approx(2.0 ** 0.5 - 1.0, abs=1e-12)


def test_multiplier_check_detects_nonadditive_exponent():
    verdict = _judge_multiplier(ALPHAS, 0.5, 1, XI, table(lambda a: XI ** -(a * a)))
    assert not verdict["multiplicative"]


def test_multiplier_check_validation():
    exact = table(applied)
    with pytest.raises(ValueError, match="at least 3"):
        _judge_multiplier([0.25, 0.5], 0.5, 1, XI, exact)
    with pytest.raises(ValueError, match="anchor"):
        _judge_multiplier([0.25, 0.3, 0.7], 0.5, 1, XI, exact)
    with pytest.raises(ValueError, match=r"order must lie in \(0, 1\), got 1.5"):
        _judge_multiplier([0.25, 0.5, 1.5], 0.5, 1, XI, exact)
    with pytest.raises(ValueError, match="nonpositive"):
        _judge_multiplier(ALPHAS, 0.5, 1, XI, table(lambda a: -np.ones(len(XI))))


def test_3d_composition_smoke():
    m = 16
    t = nodes(m)
    x, y, z = np.meshgrid(t, t, t, indexing="ij")
    f = np.sin(TWO_PI * x) * np.cos(TWO_PI * y) * np.cos(TWO_PI * z)
    two_step = riesz_potential(1.2, riesz_potential(0.9, f))
    one_step = riesz_potential(2.1, f)
    assert np.abs(two_step - one_step).max() < 1e-12
