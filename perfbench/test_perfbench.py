"""Tests of the benchmark's own parts: tracer, seeded inputs, refusal to run.

    python3 -m pytest perfbench
"""

import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tracing
import workloads

HERE = Path(__file__).resolve().parent


@pytest.fixture
def fakepkg():
    """Package ``fakepkg`` with layer ``a`` calling ``b.inner``, imported by name."""
    pkg = types.ModuleType("fakepkg")
    b = types.ModuleType("fakepkg.b")
    exec("def inner(x):\n    return x + 1\n", b.__dict__)
    a = types.ModuleType("fakepkg.a")
    a.inner = b.inner
    exec("def outer(x):\n    return inner(x) * 2\n\ndef _private():\n    return 0\n", a.__dict__)
    pkg.inner = b.inner
    mods = {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}
    sys.modules.update(mods)
    yield pkg, a, b
    for name in mods:
        del sys.modules[name]


def test_tracer_patches_every_namespace_and_restores(fakepkg):
    pkg, a, b = fakepkg
    original = b.inner
    tracer = tracing.Tracer(pkg, ("a", "b", "gone"))
    tracer.install()
    try:
        assert a.inner is b.inner is pkg.inner is not original
        assert a.outer(1) == 4
    finally:
        tracer.uninstall()
    assert a.inner is b.inner is pkg.inner is original
    assert tracer.wrapped == {"a.outer", "b.inner"}  # private names stay unwrapped
    names = [(s[tracing.NAME], s[tracing.PARENT]) for s in tracer.spans]
    assert names == [("a.outer", -1), ("b.inner", 0)]
    stats = tracer.pass_stats(0)
    outer, inner = tracer.spans
    inner_s = inner[tracing.END] - inner[tracing.START]
    assert stats["a.outer"]["self_s"] == pytest.approx(
        outer[tracing.END] - outer[tracing.START] - inner_s
    )
    assert stats["b.inner"]["calls"] == 1
    # every named metric exists even though none of its functions do
    assert tracer.absent() == sorted(n for n, _ in tracing.FUNCTION_METRICS)
    metrics = tracing.layer_metrics([stats], ("a", "b", "gone"))
    assert metrics["rl_core.rl_integral.distinct_frac"]["value"] == 0.0
    assert metrics["a.calls"]["value"] == 1 and metrics["gone.calls"]["value"] == 0


def test_tracer_counts_rl_integral_work_and_distinct_inputs():
    fo = workloads.load_fracops()
    original = fo.rl_core.rl_integral
    tracer = tracing.Tracer(fo, workloads.LAYERS)
    tracer.install()
    try:
        # names imported by other modules and by the package are patched too
        assert fo.harness.rl_integral is fo.rl_integral is fo.rl_core.rl_integral
        assert fo.rl_integral.__wrapped__ is original
        grid = fo.UniformGrid1D(0.0, 1.0, 16)
        f = fo.sample(lambda t: t, grid)
        for _ in range(2):
            fo.rl_integral(0.5, f)
        fo.rl_core.rl_integral(0.7, f)
    finally:
        tracer.uninstall()
    assert fo.rl_core.rl_integral is original and fo.rl_integral is original
    stats = tracer.pass_stats(0)
    entry = stats["rl_core.rl_integral"]
    assert entry["calls"] == 3 and len(entry["keys"]) == 2
    assert entry["macs"] == 3 * 16 * 17
    assert stats["rl_core.product_quadrature_weights"]["calls"] == 3
    assert tracer.uninspected == 0


def test_seeded_inputs_repeat_and_default_seed_is_the_readme():
    assert workloads.laplace_orders(0) == list(workloads.README_ORDERS)
    assert workloads.nonlinear_spec(7) == workloads.nonlinear_spec(7)
    assert workloads.laplace_orders(7) == workloads.laplace_orders(7)
    assert workloads.laplace_orders(7) != workloads.laplace_orders(8)


@pytest.mark.parametrize("seed", range(20))
def test_seeded_inputs_are_valid(seed):
    fo = workloads.load_fracops()
    orders = workloads.laplace_orders(seed)
    assert len(orders) == 8 and all(0.25 <= a <= 2.0 for a in orders)
    assert orders == sorted(set(orders))
    phi = fo.transmute.integrator_from_dict(workloads.nonlinear_spec(seed))
    assert phi.jumps[0].size > 0.0
    x = fo.UniformGrid1D(0.0, 1.0, 8).nodes
    h, f = workloads.smooth_pair(seed, x, x)
    assert all(math.isfinite(v) for v in (h.real.sum(), f.real.sum()))


def test_refuses_to_run_without_src():
    bare = workloads.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "axioms", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
    assert "no fracops package" in proc.stderr
