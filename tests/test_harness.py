import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from fracops import harness
from fracops.grid import SampledFunction1D, UniformGrid1D, l1_distance, l1_norm, sample, sample_array
from fracops.harness import (
    CONTINUITY_ALPHA0,
    CONTINUITY_DELTAS,
    TEST_FUNCTIONS,
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
from fracops.rl_core import FAMILY_NAMES, make_family, rl_integral

ELEVEN_24TH = float(Fraction(11, 24))


def small_config(**overrides):
    return RunConfig(**{"grid_n": 512, **overrides})


def f_set(config):
    grid = UniformGrid1D(*config.interval, config.grid_n)
    return {name: sample(expr, grid) for name, expr in TEST_FUNCTIONS.items()}


def ones_on(grid):
    return sample(lambda t: 1.0, grid)


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
        res = check_continuity(make_family(name), 0.7, (0.1, 0.01, 0.001), ones_on(grid))
        assert res[0] > res[1] > res[2]
        assert res[2] < 1e-2


def test_continuity_residuals_match_closed_form():
    # oracle: L1 distance of the closed forms t^a/Gamma(a+1) by quadrature
    from scipy.integrate import quad

    grid = UniformGrid1D(0.0, 1.0, 1024)
    got = check_continuity(make_family("riemann_liouville"), 0.7, (0.1, 0.01), ones_on(grid))

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
    res = check_continuity(make_family("geometric"), 0.7, (0.1, 0.0), ones_on(grid))
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
    assert by_name["scaled_order"].axioms["index_law"]["residual"] > 10.0 * config.tol_index
    assert by_name["doubled_order"].axioms["identity"]["residual"] > 10.0 * config.tol_identity
    assert by_name["geometric"].axioms["identity"]["residual"] > 10.0 * config.tol_identity
    assert by_name["phase"].axioms["positivity"]["min_real"] < -10.0 * config.tol_positivity


def test_reports_are_deterministic():
    config = small_config(grid_n=128)
    a = reports_to_json(run_matrix(config))
    b = reports_to_json(run_matrix(config))
    assert a == b


def test_report_schema():
    config = small_config(grid_n=128)
    ones = ones_on(UniformGrid1D(0.0, 1.0, 128))
    rep = run_family("riemann_liouville", config, f_set(config), ones).as_dict()
    assert set(rep) == {"family", "axioms", "expected_profile", "match", "config_echo"}
    assert set(rep["axioms"]) == {"identity", "index_law", "continuity", "positivity"}
    assert set(rep["axioms"]["identity"]) == {"residual", "pass"}
    assert set(rep["axioms"]["continuity"]) == {"residuals", "pass"}
    assert set(rep["axioms"]["positivity"]) == {"min_real", "max_imag", "pass"}
    assert rep["config_echo"]["grid_n"] == 128


def test_verdicts_and_match_are_read_from_the_axioms():
    config = small_config(grid_n=128)
    ones = ones_on(UniformGrid1D(0.0, 1.0, 128))
    rep = run_family("riemann_liouville", config, f_set(config), ones)
    assert rep.match
    assert rep.verdicts == {axiom: check["pass"] for axiom, check in rep.axioms.items()}
    # one pass that disagrees with the expected profile is a mismatch
    axioms = {**rep.axioms, "positivity": {**rep.axioms["positivity"], "pass": False}}
    flipped = dataclasses.replace(rep, axioms=axioms)
    assert flipped.verdicts == {**rep.verdicts, "positivity": False}
    assert not flipped.match
    assert flipped.as_dict()["match"] is False


def test_config_validation():
    for tol in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol_identity"):
            RunConfig(tol_identity=tol)
        with pytest.raises(ValueError, match="tol_index"):
            RunConfig(tol_index=tol)
    with pytest.raises(ValueError, match="unknown family"):
        RunConfig(family="nope")


def test_run_matrix_evaluates_each_probe_once(monkeypatch):
    # five probes on the interval and the constant on the continuity window,
    # each one array expression evaluated on all nodes, shared by all five families
    calls = []

    def counting(name, expr):
        def probe(t):
            calls.append((name, t))
            return expr(t)

        return probe

    for name, expr in TEST_FUNCTIONS.items():
        monkeypatch.setitem(TEST_FUNCTIONS, name, counting(name, expr))
    reports = run_matrix(small_config(grid_n=64, interval=(2.0, 5.0)))
    assert len(reports) == 5
    assert [name for name, _ in calls] == [*TEST_FUNCTIONS, "one"]
    for _, t in calls[:-1]:
        np.testing.assert_array_equal(t, UniformGrid1D(2.0, 5.0, 64).nodes)
    np.testing.assert_array_equal(calls[-1][1], UniformGrid1D(2.0, 3.0, 64).nodes)


def counted_integrals(monkeypatch, config):
    """(order, input) of every rl_integral call one run_matrix makes.

    The input is the probe index of one function, or the tuple of probe
    indices of a sequence; None stands for a function that is no probe.
    """
    probes = []
    calls = []

    def recording_sample(expr, grid):
        probes.append(sample_array(expr, grid))
        return probes[-1]

    def index(f):
        return next((i for i, p in enumerate(probes) if p is f), None)

    def counting_integral(alpha, f):
        single = isinstance(f, SampledFunction1D)
        calls.append((float(alpha), index(f) if single else tuple(map(index, f))))
        return rl_integral(alpha, f)

    monkeypatch.setattr(harness, "sample_array", recording_sample)
    monkeypatch.setattr(harness, "rl_integral", counting_integral)
    run_matrix(config)
    return calls


# the orders of the continuity checks, on the window constant: alpha0 and
# its three steps for the unscaled orders, twice that for doubled_order, and
# unit order for scaled_order
WINDOW_ORDERS = sorted({1.0} | {
    k * (CONTINUITY_ALPHA0 + d) for k in (1.0, 2.0) for d in (0.0, *CONTINUITY_DELTAS)
})
INTERMEDIATES = (None,) * len(TEST_FUNCTIONS)


def test_run_matrix_integrates_each_order_and_probe_once(monkeypatch):
    # every (order, input) is swept once; on [0, 1] the continuity window is
    # the grid, so the window constant is the "one" probe, and every probe is
    # nonnegative, so positivity sweeps the same list as the other checks
    calls = counted_integrals(monkeypatch, RunConfig())
    on_probes = [c for c in calls if c[1] != INTERMEDIATES]
    assert len(on_probes) == len(set(on_probes)) == 14
    assert len(calls) == 19
    everything = tuple(range(len(TEST_FUNCTIONS)))
    # 1 and 2 for identity, 0.5 and 1 as the index law's first step, 1 and 2
    # as its sum, 0.5, 1, 1.5, 2 and 3 for positivity
    assert sorted(a for a, f in calls if f == everything) == [0.5, 1.0, 1.5, 2.0, 3.0]
    assert sorted(a for a, f in calls if f == 0) == WINDOW_ORDERS
    assert len(WINDOW_ORDERS) == 9
    # the index law's second step: on I^0.5 for riemann_liouville and on its
    # rescalings for geometric and phase, on 0.5 I^1 for scaled_order and on
    # I^1 for doubled_order, each a list the memo does not key
    assert sorted(a for a, f in calls if f == INTERMEDIATES) == [0.5, 0.5, 0.5, 1.0, 1.0]


def test_run_matrix_distinct_integrals_are_19_by_value(monkeypatch):
    seen = []

    def counting_integral(alpha, f):
        fs = (f,) if isinstance(f, SampledFunction1D) else tuple(f)
        seen.append((float(alpha), fs[0].grid, tuple(g.values.tobytes() for g in fs)))
        return rl_integral(alpha, f)

    monkeypatch.setattr(harness, "rl_integral", counting_integral)
    run_matrix(RunConfig())
    assert (len(seen), len(set(seen))) == (19, 19)


def test_run_matrix_window_off_the_unit_interval_is_its_own_probe(monkeypatch):
    calls = counted_integrals(monkeypatch, small_config(grid_n=64, interval=(2.0, 5.0)))
    on_probes = [c for c in calls if c[1] != INTERMEDIATES]
    assert len(on_probes) == len(set(on_probes)) == 17
    assert len(calls) == 22
    swept = {i for _, f in calls for i in (f if isinstance(f, tuple) else (f,))}
    assert swept == {*range(6), None}
    # the window constant is probe 5, swept alone; cos is negative on [2, 5],
    # so positivity sweeps the other four probes as a list of their own
    assert sorted(a for a, f in calls if f == 5) == WINDOW_ORDERS
    assert sorted(a for a, f in calls if f == (0, 1, 2, 3, 4)) == [0.5, 1.0, 2.0]
    assert sorted(a for a, f in calls if f == (0, 1, 3, 4)) == [0.5, 1.0, 1.5, 2.0, 3.0]
    assert sorted(a for a, f in calls if f == INTERMEDIATES) == [0.5, 0.5, 0.5, 1.0, 1.0]


def test_run_matrix_keeps_no_state_across_runs(monkeypatch):
    first = counted_integrals(monkeypatch, small_config(grid_n=64))
    second = counted_integrals(monkeypatch, small_config(grid_n=64))
    assert second == first
    assert len(first) == 19


@pytest.mark.parametrize(
    "overrides", [{}, {"interval": (-1.0, 1.0)}, {"grid_n": 64, "interval": (2.0, 5.0)}]
)
def test_shared_integral_reports_equal_unshared_families(overrides):
    # run_family without an integral builds plain families, one rl_integral per apply
    config = RunConfig(**overrides)
    a, T = config.interval
    grid = UniformGrid1D(a, T, config.grid_n)
    probes = {name: sample_array(expr, grid) for name, expr in TEST_FUNCTIONS.items()}
    ones = sample_array(TEST_FUNCTIONS["one"], UniformGrid1D(a, a + 1.0, config.grid_n))
    unshared = [run_family(name, config, probes, ones) for name in FAMILY_NAMES]
    assert reports_to_json(run_matrix(config)) == reports_to_json(unshared)


def test_array_probes_match_node_by_node_sampling():
    grid = UniformGrid1D(-1.0, 2.0, 300)
    for expr in TEST_FUNCTIONS.values():
        np.testing.assert_array_equal(
            sample_array(expr, grid).values, sample(expr, grid).values
        )


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
