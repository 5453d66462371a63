import json
import math

import pytest

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
    for domain in (None, [0.0]):
        spec = integrator_to_dict(unit_jump_integrator())
        spec["domain"] = domain
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(spec))
        code = main(["transmute-check", "--phi", str(path), "--alpha", "0.5"])
        assert code == 2
        assert "error:" in capsys.readouterr().err


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
