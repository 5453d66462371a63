"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; every tolerance is asserted exactly as configured here.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

import fracops as fo
from fracops.grid import UniformGrid1D, l1_distance, sample
from fracops.harness import RunConfig, run_matrix
from fracops.rl_core import estimate_order, make_family, rl_integral
from fracops.rl_nd import commutation_residual
from fracops.riesz import (
    PeriodicGridND,
    _judge_multiplier,
    _log_xi,
    _multiplier,
    riesz_potential,
)
from fracops.transforms import (
    AdditiveSamples,
    extend_additive,
    fit_affine,
    fit_affine_nd,
    semigroup_table,
    semigroup_table_nd,
)
from fracops.transmute import (
    linear_integrator,
    pushforward_measure,
    rl_wrt_phi_direct,
    rl_wrt_phi_transmuted,
    unit_jump_integrator,
)

TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def report(number: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({label}) failed"


def test_criterion_1_violation_matrix():
    start = time.perf_counter()
    reports = {r.family: r for r in run_matrix(RunConfig())}
    elapsed = time.perf_counter() - start

    ok = all(r.match for r in reports.values())
    ok &= abs(reports["scaled_order"].axioms["index_law"]["residual"] - 11.0 / 24.0) < 1e-3
    ok &= abs(reports["doubled_order"].axioms["identity"]["residual"] - 1.0 / 3.0) < 1e-3
    ok &= abs(reports["geometric"].axioms["identity"]["residual"] - 0.5) < 1e-3
    ok &= reports["phase"].axioms["positivity"]["min_real"] <= -1.12
    ok &= all(reports["riemann_liouville"].verdicts.values())
    ok &= elapsed < 30.0
    report(1, f"violation matrix, {elapsed:.1f}s", ok)


def test_criterion_2_closed_form_value_and_order():
    grid = UniformGrid1D(0.0, 1.0, 4096)
    value = rl_integral(0.5, sample(lambda t: 1.0, grid)).values[-1].real
    ok = abs(value - TWO_OVER_SQRT_PI) < 1e-4

    def index_residual(n):
        f = sample(lambda t: 1.0, UniformGrid1D(0.0, 1.0, n))
        return l1_distance(
            rl_integral(0.5, rl_integral(0.5, f)), rl_integral(1.0, f)
        )

    e_coarse, e_fine = index_residual(512), index_residual(4096)
    order = math.log(e_coarse / e_fine) / math.log(4096.0 / 512.0)
    ok &= order >= 1.4
    report(2, f"closed-form value, order {order:.2f}", ok)


def test_criterion_3_laplace_characterization():
    start = time.perf_counter()
    fam = make_family("riemann_liouville")
    alphas = [0.25 * k for k in range(1, 9)]
    xs = [1.0, 2.0, 4.0, 8.0]
    table = semigroup_table(fam, alphas, xs, 40.0, 16384)
    fit = fit_affine(table)
    elapsed = time.perf_counter() - start

    ok = fit.max_residual < 1e-3
    for j, x in enumerate(xs):
        ok &= abs(fit.slopes[j] + math.log(x)) < 1e-2
        ok &= abs(fit.intercepts[j] + math.log(x)) < 1e-2
    ok &= elapsed < 60.0
    report(3, f"affine fit, residual {fit.max_residual:.1e}, {elapsed:.1f}s", ok)


def test_criterion_4_nd_fit():
    orders = [(0.5, 0.5), (1.0, 0.5), (0.5, 1.0), (1.0, 1.0)]
    xs = [(1.0, 1.0), (1.0, 1.5), (1.5, 1.0), (1.5, 1.5)]
    table = semigroup_table_nd(fo.rl_integral_nd, orders, xs, 10.0, 256)
    fit = fit_affine_nd(table)
    worst = max(
        float(
            np.abs(
                fit.slopes[j] - np.array([-math.log(x[0]), -math.log(x[1])])
            ).max()
        )
        for j, x in enumerate(xs)
    )
    ok = worst < 2e-2
    report(4, f"2D fit, worst slope error {worst:.1e}", ok)


def test_criterion_5_riesz_spectral_semigroup():
    start = time.perf_counter()
    t = np.arange(256) / 256.0
    f = np.sin(2.0 * np.pi * t) + 0.5 * np.cos(6.0 * np.pi * t)
    two_step = riesz_potential(0.4, riesz_potential(0.3, f))
    one_step = riesz_potential(0.7, f)
    comp_gap = float(np.abs(two_step - one_step).max())

    # the multiplier the potential applies, read at modes 1, 2, 3, 5 and 8
    modes = [1, 2, 3, 5, 8]
    xis = 2.0 * math.pi * np.array(modes, dtype=float)
    log_xi = _log_xi(PeriodicGridND(1, 256))[modes]
    alphas = [0.25, 0.5, 0.7]
    orders = alphas + [a + b for a in alphas for b in alphas if a + b < 1.0]
    table = {a: _multiplier(a, log_xi, np.empty_like(log_xi)) for a in orders}
    exact = _judge_multiplier(alphas, 1, xis, table)
    perturbed = _judge_multiplier(alphas, 1, xis, {a: 2.0 ** a * row for a, row in table.items()})
    elapsed = time.perf_counter() - start

    ok = comp_gap < 1e-12
    ok &= exact["max_residual"] < 1e-12
    ok &= abs(perturbed["anchor_violation"] - (2.0 ** 0.5 - 1.0)) < 1e-12
    ok &= elapsed < 5.0
    report(5, f"spectral semigroup, gap {comp_gap:.1e}, {elapsed:.1f}s", ok)


def test_criterion_6_transmutation_equality():
    target = 2.0 ** 0.5 * TWO_OVER_SQRT_PI
    phi2 = linear_integrator(0.0, 1.0, 2.0)
    g = sample(lambda t: 1.0, UniformGrid1D(0.0, 1.0, 4096))
    direct = rl_wrt_phi_direct(0.5, phi2, g).values[-1].real
    transmuted = rl_wrt_phi_transmuted(0.5, phi2, g).values[-1].real
    ok = abs(direct - target) < 2e-3 and abs(transmuted - target) < 2e-3

    jump = unit_jump_integrator()
    gj = sample(lambda t: t, UniformGrid1D(0.0, 1.0, 8192))
    gap = l1_distance(
        rl_wrt_phi_direct(0.5, jump, gj), rl_wrt_phi_transmuted(0.5, jump, gj)
    )
    ok &= gap < 5e-3
    ok &= pushforward_measure(jump, 0.0, 1.0) == 1.0
    report(6, f"transmutation, jump-path gap {gap:.1e}", ok)


def test_criterion_7_commutation():
    def residual(n):
        grid = UniformGrid1D(0.0, 1.0, n)
        box = fo.BoxGridND((grid,))
        h = fo.SampledFunctionND(box, grid.nodes.astype(complex))
        f = fo.SampledFunctionND(box, np.cos(grid.nodes).astype(complex))
        return commutation_residual((0.5,), h, f)

    r_coarse, r_fine = residual(2048), residual(4096)
    order = math.log2(r_coarse / r_fine)
    ok = r_coarse < 1e-3 and order >= 1.0
    report(7, f"commutation, residual {r_coarse:.1e}, order {order:.2f}", ok)


def test_criterion_8_additive_extension():
    step = Fraction(1, 100)
    samples = AdditiveSamples(
        step, Fraction(1), np.array([5.0 * float(k * step) for k in range(1, 100)])
    )
    ext = extend_additive(samples, 2)
    xs = np.array([float(k * ext.step) for k in range(1, ext.kmax + 1)])
    worst = float(np.abs(ext.values - 5.0 * xs).max())
    k35 = int(Fraction(7, 2) / ext.step)
    ok = ext.bound == 4
    ok &= worst < 1e-9
    ok &= abs(ext.values[k35 - 1] - 17.5) < 1e-9

    squared = AdditiveSamples(
        step, Fraction(1), np.array([float(k * step) ** 2 for k in range(1, 100)])
    )
    with pytest.raises(ValueError, match="not additive") as exc:
        extend_additive(squared, 1)
    ok &= "49/100" in str(exc.value)  # the violating triple is named
    report(8, f"additive extension, worst gap {worst:.1e}", ok)


def test_criterion_9_order_identification():
    grid = UniformGrid1D(0.0, 1.0, 2048)
    ones = sample(lambda t: 1.0, grid)
    rl = make_family("riemann_liouville")
    doubled = make_family("doubled_order")
    worst_rl = 0.0
    worst_doubled = 0.0
    for a in (0.25, 0.5, 0.75, 1.25):
        worst_rl = max(worst_rl, abs(estimate_order(rl.apply(a, ones)) - a))
        worst_doubled = max(
            worst_doubled, abs(estimate_order(doubled.apply(a, ones)) - 2.0 * a)
        )
    ok = worst_rl < 1e-2 and worst_doubled < 1e-2
    report(9, f"order id, errors {worst_rl:.1e}/{worst_doubled:.1e}", ok)
