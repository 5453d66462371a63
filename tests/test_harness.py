import math
from fractions import Fraction

import numpy as np
import pytest

from fracops.grid import UniformGrid1D, l1_distance, l1_norm, sample
from fracops.harness import (
    RunConfig,
    check_continuity,
    check_identity,
    check_index_law,
    check_positivity,
    continuity_verdict,
    reports_to_json,
    run_family,
    run_matrix,
)
from fracops.rl_core import make_family

ELEVEN_24TH = float(Fraction(11, 24))


def small_config(**overrides):
    return RunConfig(**{"grid_n": 512, **overrides})


def f_set(config):
    return config.sampled_functions()


def test_identity_exact_for_riemann_liouville():
    fam = make_family("riemann_liouville")
    assert check_identity(fam, f_set(small_config())) == 0.0


def test_identity_residual_doubled_order():
    # I^2 1 = t^2/2 against t: integral of |t^2/2 - t| = 1/3
    fam = make_family("doubled_order")
    res = check_identity(fam, f_set(small_config()))
    assert res == pytest.approx(1.0 / 3.0, abs=1e-4)


def test_identity_residual_geometric():
    # 2 I^1 1 = 2t against t: integral of |t| = 1/2
    fam = make_family("geometric")
    res = check_identity(fam, f_set(small_config()))
    assert res == pytest.approx(0.5, abs=1e-4)


def test_index_residual_scaled_order():
    # J^1/2 J^1/2 1 = I^2 1 / 4 = t^2/8 against J^1 1 = t: 1/2 - 1/24 = 11/24
    fam = make_family("scaled_order")
    res = check_index_law(fam, ((0.5, 0.5),), f_set(small_config()))
    assert res == pytest.approx(ELEVEN_24TH, abs=1e-3)


def test_index_residual_riemann_liouville_small():
    fam = make_family("riemann_liouville")
    res = check_index_law(fam, ((0.5, 0.5),), f_set(small_config(grid_n=2048)))
    assert res < 5e-4


def test_index_residual_phase_small():
    # phases multiply through the composition
    fam = make_family("phase")
    res = check_index_law(fam, ((0.5, 0.5),), f_set(small_config(grid_n=2048)))
    assert res < 5e-4


def test_continuity_residuals_decrease():
    grid = UniformGrid1D(0.0, 1.0, 512)
    for name in ("riemann_liouville", "scaled_order", "doubled_order"):
        res = check_continuity(make_family(name), 0.7, (0.1, 0.01, 0.001), grid)
        assert res[0] > res[1] > res[2]
        assert res[2] < 1e-2


def test_continuity_residuals_match_closed_form():
    # oracle: L1 distance of the closed forms t^a/Gamma(a+1) by quadrature
    from scipy.integrate import quad

    grid = UniformGrid1D(0.0, 1.0, 1024)
    got = check_continuity(make_family("riemann_liouville"), 0.7, (0.1, 0.01), grid)

    def closed_form_distance(delta):
        val, _ = quad(
            lambda t: abs(
                t ** (0.7 + delta) / math.gamma(1.7 + delta)
                - t ** 0.7 / math.gamma(1.7)
            ),
            0.0,
            1.0,
        )
        return val

    for measured, delta in zip(got, (0.1, 0.01)):
        assert measured == pytest.approx(closed_form_distance(delta), abs=1e-6)


def test_continuity_zero_delta_is_exactly_zero():
    grid = UniformGrid1D(0.0, 1.0, 128)
    res = check_continuity(make_family("geometric"), 0.7, (0.1, 0.0), grid)
    assert res[-1] == 0.0


def test_continuity_verdict_requires_strict_decrease():
    assert continuity_verdict([3.0, 2.0, 1e-3], 1e-2)
    assert not continuity_verdict([1.0, 2.0, 1e-3], 1e-2)
    assert not continuity_verdict([3.0, 2.0, 1.0], 1e-2)


def test_positivity_riemann_liouville_exact():
    fam = make_family("riemann_liouville")
    min_real, max_imag = check_positivity(fam, f_set(small_config()), (0.5, 1.0, 1.5))
    assert min_real >= 0.0
    assert max_imag == 0.0


def test_positivity_phase_fails_at_half_order():
    fam = make_family("phase")
    min_real, _ = check_positivity(fam, f_set(small_config()), (0.5,))
    # e^(i pi) I^0.5 1 at t = 1
    assert min_real == pytest.approx(-2.0 / math.sqrt(math.pi), abs=1e-4)


def test_positivity_phase_passes_at_integer_order():
    fam = make_family("phase")
    min_real, max_imag = check_positivity(fam, f_set(small_config()), (1.0,))
    assert min_real >= -1e-10
    assert max_imag <= 1e-10


def test_positivity_rejects_negative_probes():
    fam = make_family("riemann_liouville")
    g = UniformGrid1D(0.0, 1.0, 32)
    probes = {"bad": sample(lambda t: t - 0.5, g)}
    with pytest.raises(ValueError, match="negative"):
        check_positivity(fam, probes, (0.5,))


def test_linearity_audit_all_families():
    g = UniformGrid1D(0.0, 1.0, 256)
    f1 = sample(math.cos, g)
    f2 = sample(lambda t: t * t - 0.3, g)
    for name in (
        "riemann_liouville",
        "scaled_order",
        "doubled_order",
        "geometric",
        "phase",
    ):
        fam = make_family(name)
        gap = fam.apply(0.6, f1 + f2) - fam.apply(0.6, f1) - fam.apply(0.6, f2)
        assert l1_norm(gap) < 1e-12


def test_run_matrix_all_match_on_small_grid():
    reports = run_matrix(small_config())
    assert [r.family for r in reports] == [
        "doubled_order",
        "geometric",
        "phase",
        "riemann_liouville",
        "scaled_order",
    ]
    assert all(r.match for r in reports)


@pytest.mark.parametrize("interval", [(-1.0, 1.0), (0.0, 2.0), (0.0, 10.0), (5.0, 6.0)])
def test_run_matrix_matches_off_the_unit_interval(interval):
    # continuity is probed on [a, a + 1], so its verdict does not depend on
    # the interval length (on [0, 10] every family used to fail it)
    reports = run_matrix(small_config(interval=interval))
    assert all(r.match for r in reports), [r.family for r in reports if not r.match]


def test_matrix_failures_are_structural_not_noise():
    # each designated failure exceeds 10x the tolerance of its axiom
    config = small_config()
    by_name = {r.family: r for r in run_matrix(config)}
    assert by_name["scaled_order"].index_residual > 10.0 * config.tol_index
    assert by_name["doubled_order"].identity_residual > 10.0 * config.tol_identity
    assert by_name["geometric"].identity_residual > 10.0 * config.tol_identity
    assert by_name["phase"].positivity_min_real < -10.0 * config.tol_positivity


def test_reports_are_deterministic():
    config = small_config(grid_n=128)
    a = reports_to_json(run_matrix(config))
    b = reports_to_json(run_matrix(config))
    assert a == b


def test_report_schema():
    rep = run_family("riemann_liouville", small_config(grid_n=128)).as_dict()
    assert set(rep) == {"family", "axioms", "expected_profile", "match", "config_echo"}
    assert set(rep["axioms"]) == {"identity", "index_law", "continuity", "positivity"}
    assert set(rep["axioms"]["identity"]) == {"residual", "pass"}
    assert set(rep["axioms"]["continuity"]) == {"residuals", "pass"}
    assert set(rep["axioms"]["positivity"]) == {"min_real", "max_imag", "pass"}
    assert rep["config_echo"]["grid_n"] == 128


def test_config_validation():
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol_identity"):
            RunConfig(tol_identity=tol)
        with pytest.raises(ValueError, match="tol_index"):
            RunConfig(tol_index=tol)
    with pytest.raises(ValueError, match="unknown family"):
        RunConfig(family="nope")


def test_single_family_run():
    reports = run_matrix(small_config(family="phase", grid_n=256))
    assert len(reports) == 1
    assert reports[0].family == "phase"
    assert reports[0].match


def _pushforward_cumulative_oracle(phi, fvec, grid, dense=1 << 19):
    # dense independent route: cumulative trapezoid of f against the image
    # coordinate on a fine resampling, read back at the grid nodes
    s = np.linspace(phi.a, phi.T, dense + 1)
    total = np.zeros_like(s)
    running = 0.0
    for seg in phi.segments:
        mask = (s >= seg.lo) & (s <= seg.hi)
        ss = s[mask]
        uu = np.asarray(seg.eval(ss), dtype=float)
        ff = np.asarray(fvec(ss), dtype=float)
        inc = np.diff(uu) * 0.5 * (ff[:-1] + ff[1:])
        cum = np.concatenate([[0.0], np.cumsum(inc)]) + running
        total[mask] = cum
        running = float(cum[-1])
    return np.interp(grid.nodes, s, total)


def test_transmuted_harness_continuous_integrators():
    # the four checks hold verbatim for the integral with respect to phi,
    # for every continuous catalog integrator (the jump case breaks the
    # index law structurally; see the transmute tests)
    from fracops.transmute import (
        Integrator,
        Segment,
        identity_integrator,
        linear_integrator,
        rl_wrt_phi_direct,
    )

    integrators = (
        identity_integrator(0.0, 1.0),
        linear_integrator(0.0, 1.0, 2.0),
        Integrator((Segment(0.0, 1.0, "exp", (0.0, 1.0, 1.0)),)),
    )
    grid = UniformGrid1D(0.0, 1.0, 1024)
    probes = {
        "one": lambda t: np.ones_like(t),
        "t": lambda t: t,
        "cos": np.cos,
    }
    for phi in integrators:
        fs = {name: sample(expr, grid) for name, expr in probes.items()}
        # identity: unit order against the dense pushforward integral
        for name, expr in probes.items():
            got = rl_wrt_phi_direct(1.0, phi, fs[name]).values.real
            want = _pushforward_cumulative_oracle(phi, expr, grid)
            assert np.abs(got - want).max() < 1e-6
        # index law
        for f in fs.values():
            composed = rl_wrt_phi_direct(0.5, phi, rl_wrt_phi_direct(0.5, phi, f))
            direct = rl_wrt_phi_direct(1.0, phi, f)
            assert l1_distance(composed, direct) < 5e-3
        # continuity in the order
        ones = fs["one"]
        base = rl_wrt_phi_direct(0.7, phi, ones)
        resid = [
            l1_distance(rl_wrt_phi_direct(0.7 + d, phi, ones), base)
            for d in (0.1, 0.01, 0.001)
        ]
        assert resid[0] > resid[1] > resid[2]
        assert resid[2] < 1e-2
        # positivity
        for f in fs.values():
            if np.any(f.values.real < 0.0):
                continue
            out = rl_wrt_phi_direct(0.5, phi, f)
            assert float(out.values.real.min()) >= -1e-10
            assert float(np.abs(out.values.imag).max()) <= 1e-10
