import contextlib
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fracops import riesz
from fracops.cli import build_parser, main
from fracops.harness import RunConfig
from fracops.transmute import integrator_to_dict, unit_jump_integrator


def test_axioms_all_families(tmp_path, capsys):
    out = tmp_path / "reports.json"
    code = main(["axioms", "--family", "all", "--grid-n", "512", "--out", str(out)])
    assert code == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 5
    assert all(r["match"] for r in reports)
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    assert all(line.endswith("match") for line in lines)


def test_axioms_single_family(tmp_path):
    out = tmp_path / "one.json"
    code = main(
        ["axioms", "--family", "riemann_liouville", "--grid-n", "256", "--out", str(out)]
    )
    assert code == 0
    reports = json.loads(out.read_text())
    assert len(reports) == 1
    assert reports[0]["family"] == "riemann_liouville"
    assert all(v["pass"] for v in reports[0]["axioms"].values())


def test_axioms_intervals_and_tolerances_are_parsed(tmp_path):
    out = tmp_path / "r.json"
    code = main(
        [
            "axioms",
            "--family",
            "riemann_liouville",
            "--grid-n",
            "256",
            "--interval",
            "0,2",
            "--tol-identity",
            "1e-5",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    echo = json.loads(out.read_text())[0]["config_echo"]
    assert echo["interval"] == [0.0, 2.0]
    assert echo["tol_identity"] == 1e-5


def test_axioms_mismatch_sets_exit_one(capsys):
    # an absurdly loose index tolerance makes scaled_order pass the index
    # law, contradicting its expected profile
    code = main(
        ["axioms", "--family", "scaled_order", "--grid-n", "256", "--tol-index", "10"]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "scaled_order.index_law" in err


def test_bad_flags_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["axioms", "--family", "unknown_family"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["axioms", "--interval", "zero,one"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["riesz-check", "--dim", "1", "--modes", "16", "--alpha-grid", ","])
    assert exc.value.code == 2


def test_config_error_exit_two(tmp_path, capsys):
    code = main(["transmute-check", "--phi", "/nonexistent.json", "--alpha", "0.5"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    for alpha_grid, x_grid in (("0.5,1,200", "1,2"), ("0.5,1,1.5", "1,nan")):
        code = main(
            [
                "laplace-fit",
                "--family",
                "riemann_liouville",
                "--alpha-grid",
                alpha_grid,
                "--x-grid",
                x_grid,
                "--grid-n",
                "256",
            ]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
    for tol in ("nan", "inf"):
        code = main(["axioms", "--grid-n", "256", "--tol-index", tol])
        assert code == 2
        assert "error:" in capsys.readouterr().err
    axioms = ["axioms", "--grid-n", "256"]
    fit = ["laplace-fit", "--family", "riemann_liouville", "--alpha-grid", "0.5,1", "--grid-n", "256"]
    finite = "grid requires finite a, T and step"
    for argv, message in (
        (axioms + ["--interval=0,inf"], finite),
        (axioms + ["--interval", "0,1e300"], "overflows at order"),
        (["axioms", "--grid-n", "8", "--interval=0,1e80"], "integral overflows at step"),
        (
            ["axioms", "--grid-n", "8", "--interval=-710,-709"],
            "non-finite sample at node index 0 (t=-710.0)",
        ),
        (fit + ["--x-grid", "1,2", "--t-big", "inf"], finite),
        (fit + ["--x-grid", "1e-300,2"], "overflows at x=1e-300"),
        (
            ["axioms", "--grid-n", "64", "--interval=1e17,1e18"],
            "interval [1e+17, 1e+18] leaves no unit continuity window [a, a + 1]",
        ),
    ):
        code = main(argv)
        assert code == 2, argv
        assert message in capsys.readouterr().err, argv
    for domain in (None, [0.0]):
        spec = integrator_to_dict(unit_jump_integrator())
        spec["domain"] = domain
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(spec))
        code = main(["transmute-check", "--phi", str(path), "--alpha", "0.5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err
    # a NaN size passes both size comparisons, and a repeated point would hide
    # the first jump from the gap check while it stays in phi.jumps
    for jumps, message in (
        ([{"at": 0.5, "size": math.nan}], "jump sizes must be positive and finite, got nan"),
        ([{"at": 0.5, "size": 7.0}, {"at": 0.5, "size": 1.0}], "two jumps are declared at s=0.5"),
    ):
        spec = integrator_to_dict(unit_jump_integrator())
        spec["jumps"] = jumps
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(spec))
        out = tmp_path / "tm.json"
        code = main(["transmute-check", "--phi", str(path), "--alpha", "0.5", "--out", str(out)])
        assert code == 2, jumps
        assert message in capsys.readouterr().err, jumps
        assert not out.exists()


def test_axioms_defaults_match_run_config():
    args = build_parser().parse_args(["axioms"])
    config = RunConfig()
    for name in (
        "family",
        "grid_n",
        "interval",
        "tol_identity",
        "tol_index",
        "tol_continuity",
        "tol_positivity",
    ):
        assert getattr(args, name) == getattr(config, name), name


def test_laplace_fit_cli(tmp_path):
    out = tmp_path / "fit.json"
    code = main(
        [
            "laplace-fit",
            "--family",
            "riemann_liouville",
            "--alpha-grid",
            "0.5,1.0,1.5",
            "--x-grid",
            "1,2",
            "--t-big",
            "40",
            "--grid-n",
            "2048",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["family"] == "riemann_liouville"
    d = payload["fit"]["d"]
    assert abs(d[0] - 0.0) < 5e-2
    assert abs(d[1] + math.log(2.0)) < 5e-2
    assert payload["table"]["meta"]["N"] == 2048


def test_riesz_check_cli(tmp_path):
    out = tmp_path / "riesz.json"
    code = main(
        [
            "riesz-check",
            "--dim",
            "1",
            "--modes",
            "128",
            "--alpha-grid",
            "0.2,0.3,0.4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["multiplier"]["pass"]
    assert payload["composition"]["pass"]
    assert payload["multiplier"]["max_residual"] < 1e-12


def test_riesz_check_second_step_transforms_the_first_step(monkeypatch, tmp_path):
    # a first step perturbed in physical space, before its forward transform,
    # must show up as a composition gap: the two-step side is a real round
    # trip, not a product of multipliers
    eps = 1e-9
    original = riesz._transform
    calls = []

    def tampered(values):
        calls.append(values)
        # the first call transforms the sample f itself; every later one is a first step
        return original(values * (1.0 + eps) if len(calls) > 1 else values)

    monkeypatch.setattr(riesz, "_transform", tampered)
    out = tmp_path / "riesz.json"
    alphas = [0.2, 0.3, 0.4]
    argv = ["riesz-check", "--dim", "1", "--modes", "64", "--alpha-grid", "0.2,0.3,0.4"]
    assert main(argv + ["--out", str(out)]) == 1
    assert len(calls) == 1 + len(alphas)
    payload = json.loads(out.read_text())
    assert payload["multiplier"]["pass"]
    assert payload["composition"]["pass"] is False
    # (1 + eps) I^b I^a f - I^(a+b) f = eps I^(a+b) f up to rounding
    monkeypatch.undo()
    f = calls[0]
    expected = max(
        eps * float(np.abs(riesz.riesz_potential(a + b, f)).max())
        for a in alphas
        for b in alphas
        if a + b < 1.0
    )
    assert payload["composition"]["max_pointwise"] == pytest.approx(expected, rel=1e-3)


def test_riesz_check_writes_the_composition_residual(tmp_path):
    # the CLI's composition value is riesz.composition_residual on its sample
    out = tmp_path / "riesz.json"
    for dim, modes, alphas in ((1, 256, [0.25, 0.5, 0.7]), (2, 32, [0.3, 0.6, 0.9])):
        argv = ["riesz-check", f"--dim={dim}", f"--modes={modes}"]
        argv += [f"--alpha-grid={','.join(map(str, alphas))}", "--out", str(out)]
        assert main(argv) == 0
        written = json.loads(out.read_text())["composition"]["max_pointwise"]
        t = riesz.PeriodicGridND(dim, modes).axis_nodes()
        mesh = np.meshgrid(*([t] * dim), indexing="ij")
        f = np.sin(2.0 * np.pi * mesh[0]) + 0.5 * np.cos(6.0 * np.pi * mesh[0])
        for axis in range(1, dim):
            f = f * np.cos(2.0 * np.pi * mesh[axis])
        assert riesz.composition_residual(alphas, f) == written


def test_transmute_check_cli(tmp_path):
    spec = tmp_path / "phi.json"
    with open(spec, "w") as fh:
        json.dump(integrator_to_dict(unit_jump_integrator()), fh)
    out = tmp_path / "tm.json"
    code = main(
        [
            "transmute-check",
            "--phi",
            str(spec),
            "--alpha",
            "0.5",
            "--grid-n",
            "1024",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["pass"]
    assert payload["pushforward_measure_full"] == 1.0
    assert payload["jump_total"] == 1.0
    assert max(payload["residuals"].values()) < 5e-3


def test_transmute_check_overflow_exits_two_without_warnings(tmp_path, capsys):
    # a valid integrator whose direct-route kernel moments overflow
    spec = tmp_path / "steep.json"
    spec.write_text(json.dumps({"domain": [0, 1], "segments": [
        {"interval": [0, 1], "kind": "poly", "coefficients": [0, 1e300]}]}))
    for alpha in ("0.5", "1.3"):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["transmute-check", "--phi", str(spec), "--alpha", alpha,
                         "--grid-n", "256"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"error: the order-{alpha} integral with respect to phi overflows" in err


@pytest.fixture(scope="module")
def unit_jump_spec(tmp_path_factory):
    path = tmp_path_factory.mktemp("spec") / "phi.json"
    path.write_text(json.dumps(integrator_to_dict(unit_jump_integrator())))
    return path


ALPHAS = ["nan", "inf", "-inf", "0", "-1", "1e-300", "1e-8", "0.999999", "1", "20", "21"]


@settings(max_examples=120, deadline=None)
@given(alpha=st.sampled_from(ALPHAS), grid_n=st.sampled_from([-3, 0, 1, 2, 7, 64, 129]))
def test_transmute_check_fuzz_exits_cleanly(unit_jump_spec, alpha, grid_n):
    # every order and resolution ends in exit 0, 1 or 2, never a traceback;
    # exit 1 means a FAIL verdict and nothing else (129 nodes reach the far field)
    out, err = io.StringIO(), io.StringIO()
    argv = [
        "transmute-check", "--phi", str(unit_jump_spec), f"--alpha={alpha}",
        f"--grid-n={grid_n}", "--out", str(unit_jump_spec.with_name("tm.json")),
    ]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    lines = out.getvalue().splitlines()
    verdict = [line for line in lines if line.startswith("transmute-check")]
    if code == 1:
        assert len(verdict) == 1 and verdict[0].endswith("(FAIL)"), argv
    elif code == 2:
        assert not verdict and err.getvalue().startswith("error:"), argv
    else:
        assert len(verdict) == 1 and verdict[0].endswith("(pass)"), argv


EXTREMES = ["nan", "inf", "-inf", "0", "1e-300", "1e300", "-1"]


@st.composite
def float_flag_argv(draw):
    """One axioms, laplace-fit or riesz-check call; each float keeps its
    ordinary value or takes an extreme one (all in '=' form, so '-inf' is a
    value, not a flag)."""

    def value(ordinary):
        return draw(st.one_of(st.just(ordinary), st.sampled_from(EXTREMES)))

    def floats(*ordinary):
        return ",".join(value(v) for v in ordinary)

    command = draw(st.sampled_from(["axioms", "laplace-fit", "riesz-check"]))
    if command == "axioms":
        return ["axioms", "--grid-n=32", f"--interval={floats('0', '1')}"] + [
            f"--tol-{name}={value(ordinary)}"
            for name, ordinary in (
                ("identity", "1e-6"),
                ("index", "5e-3"),
                ("continuity", "1e-2"),
                ("positivity", "1e-10"),
            )
        ]
    if command == "laplace-fit":
        return [
            "laplace-fit", "--family=riemann_liouville", "--grid-n=64",
            f"--alpha-grid={floats('0.5', '1', '1.5')}",
            f"--x-grid={floats('1', '2')}", f"--t-big={value('40')}",
        ]
    return [
        "riesz-check", "--dim=1", "--modes=16",
        f"--alpha-grid={floats('0.25', '0.5', '0.7')}",
    ]


LAPLACE_HUGE_WINDOW = [
    "laplace-fit", "--family=riemann_liouville", "--grid-n=64",
    "--alpha-grid=0.5,1,1.5", "--x-grid=1,2", "--t-big=1e300",
]


@settings(max_examples=150, deadline=None)
@given(argv=float_flag_argv())
@example(argv=LAPLACE_HUGE_WINDOW)
@example(argv=LAPLACE_HUGE_WINDOW[:4] + ["--x-grid=1e-300,2", "--t-big=1e300"])
@example(argv=["riesz-check", "--dim=1", "--modes=16", "--alpha-grid=1e-300,1e-300,1e-300"])
@example(argv=["axioms", "--grid-n=8", "--interval=-710,-709"])  # e^(-t) overflows
def test_float_flags_fuzz_exit_cleanly(argv):
    # exit 0, 1 or 2 and never a traceback or a float warning; exit 1 only
    # with a printed MISMATCH or FAIL verdict, exit 2 only with an error line
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    lines = out.getvalue().splitlines()
    verdicts = [line for line in lines if "MISMATCH" in line or "FAIL" in line]
    assert code in (0, 1, 2), argv
    if code == 1:
        assert verdicts, argv
    elif code == 2:
        assert err.getvalue().startswith("error:"), argv
    else:
        assert not verdicts, argv
