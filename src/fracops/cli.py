"""Command-line surface: axiom matrix, transform fits, and spot checks.

Exit status encodes the outcome: 0 when every verdict matches its
expectation, 1 on a mismatch (naming the offending family and axiom), 2 on
configuration errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import riesz, transmute
from .harness import RunConfig, reports_to_json, run_matrix
from .rl_core import FAMILY_NAMES, make_family
from .transforms import fit_affine, semigroup_table

DEFAULT_LAPLACE_N = 16384
TRANSMUTE_TOL = 5e-3
RIESZ_TOL = 1e-12


def _csv_floats(text: str) -> list[float]:
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"empty float list: {text!r}")
    return values


def _interval(text: str) -> tuple[float, float]:
    parts = _csv_floats(text)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"interval must be '<a>,<T>', got {text!r}")
    return parts[0], parts[1]


def _write_out(payload, path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_axioms(args) -> int:
    config = RunConfig(
        family=args.family,
        grid_n=args.grid_n,
        interval=args.interval,
        tol_identity=args.tol_identity,
        tol_index=args.tol_index,
        tol_continuity=args.tol_continuity,
        tol_positivity=args.tol_positivity,
    )
    reports = run_matrix(config)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(reports_to_json(reports) + "\n")
    status = 0
    for rep in reports:
        flag = "match" if rep.match else "MISMATCH"
        print(f"{rep.family}: {flag}")
        if not rep.match:
            status = 1
            for axiom, verdict in rep.verdicts.items():
                if verdict != rep.expected_profile[axiom]:
                    print(
                        f"  {rep.family}.{axiom}: got "
                        f"{'pass' if verdict else 'fail'}, expected "
                        f"{'pass' if rep.expected_profile[axiom] else 'fail'}",
                        file=sys.stderr,
                    )
    return status


def _cmd_laplace_fit(args) -> int:
    family = make_family(args.family)
    table = semigroup_table(
        family, args.alpha_grid, args.x_grid, args.t_big, args.grid_n
    )
    fit = fit_affine(table)
    xs = np.array(table.x_grid)
    d_expected = -np.log(xs)
    payload = {
        "family": family.name,
        "table": json.loads(table.to_json()),
        "fit": {
            "x_grid": list(table.x_grid),
            "c": fit.intercepts.tolist(),
            "d": fit.slopes.tolist(),
            "max_log_residual": fit.max_residual,
            "d_minus_neg_log_x": (fit.slopes - d_expected).tolist(),
        },
    }
    _write_out(payload, args.out)
    print(
        f"laplace-fit {family.name}: max log-residual {fit.max_residual:.3e}, "
        f"max |d + ln x| {float(np.abs(fit.slopes - d_expected).max()):.3e}"
    )
    return 0


def _cmd_riesz_check(args) -> int:
    dim = args.dim
    grid = riesz.PeriodicGridND(dim, args.modes)
    alphas = args.alpha_grid
    anchor = alphas[len(alphas) // 2]
    fam = riesz.exact_riesz_family(dim, anchor)
    half = args.modes // 2
    xis = []
    for k in range(1, min(half, 5)):
        xis.append(tuple(2.0 * math.pi * k if j == 0 else 0.0 for j in range(dim)))
        if dim > 1:
            xis.append(tuple(2.0 * math.pi * k for _ in range(dim)))
    report = riesz.multiplier_family_check(fam, alphas, xis)

    nodes = grid.axis_nodes()
    mesh = np.meshgrid(*([nodes] * dim), indexing="ij")
    f = np.sin(2.0 * np.pi * mesh[0]) + 0.5 * np.cos(6.0 * np.pi * mesh[0])
    for axis in range(1, dim):
        f = f * np.cos(2.0 * np.pi * mesh[axis])
    comp_worst = 0.0
    for a in alphas:
        partners = [b for b in alphas if a + b < dim]
        if not partners:
            continue
        first = riesz.riesz_potential(a, f)
        for b in partners:
            two_step = riesz.riesz_potential(b, first)
            one_step = riesz.riesz_potential(a + b, f)
            comp_worst = max(comp_worst, float(np.abs(two_step - one_step).max()))
    mult_pass = report.max_residual < RIESZ_TOL and report.multiplicative
    comp_pass = comp_worst < RIESZ_TOL
    payload = {
        "dim": dim,
        "modes": args.modes,
        "alpha_grid": list(alphas),
        "multiplier": {
            "max_residual": report.max_residual,
            "anchor_violation": report.anchor_violation,
            "multiplicative": report.multiplicative,
            "pass": mult_pass,
        },
        "composition": {"max_pointwise": comp_worst, "pass": comp_pass},
    }
    _write_out(payload, args.out)
    print(
        f"riesz-check dim={dim} modes={args.modes}: multiplier "
        f"{'pass' if mult_pass else 'FAIL'}, composition "
        f"{'pass' if comp_pass else 'FAIL'}"
    )
    return 0 if (mult_pass and comp_pass) else 1


def _cmd_transmute_check(args) -> int:
    phi = transmute.load_integrator(args.phi)
    results = {}
    worst = 0.0
    for name, expr in (("one", lambda t: 1.0), ("t", lambda t: t)):
        res = transmute.transmutation_residual(args.alpha, phi, expr, args.grid_n)
        results[name] = res
        worst = max(worst, res)
    measure = transmute.pushforward_measure(phi, phi.a, phi.T)
    jump_total = sum(j.size for j in phi.jumps)
    payload = {
        "phi": transmute.integrator_to_dict(phi),
        "alpha": args.alpha,
        "grid_n": args.grid_n,
        "residuals": results,
        "pushforward_measure_full": measure,
        "jump_total": jump_total,
        "pass": worst < TRANSMUTE_TOL,
    }
    _write_out(payload, args.out)
    print(
        f"transmute-check alpha={args.alpha} N={args.grid_n}: worst residual "
        f"{worst:.3e} ({'pass' if worst < TRANSMUTE_TOL else 'FAIL'})"
    )
    return 0 if worst < TRANSMUTE_TOL else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracops",
        description="Fractional-operator computations and axiom verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    defaults = RunConfig()
    ax = sub.add_parser("axioms", help="run the axiom matrix over the family catalog")
    ax.add_argument("--family", default=defaults.family, choices=("all",) + FAMILY_NAMES)
    ax.add_argument("--grid-n", type=int, default=defaults.grid_n)
    ax.add_argument("--interval", type=_interval, default=defaults.interval)
    ax.add_argument("--tol-identity", type=float, default=defaults.tol_identity)
    ax.add_argument("--tol-index", type=float, default=defaults.tol_index)
    ax.add_argument("--tol-continuity", type=float, default=defaults.tol_continuity)
    ax.add_argument("--tol-positivity", type=float, default=defaults.tol_positivity)
    ax.add_argument("--out", default=None)
    ax.set_defaults(func=_cmd_axioms)

    lf = sub.add_parser("laplace-fit", help="semigroup table and affine log-fit")
    lf.add_argument("--family", required=True, choices=FAMILY_NAMES)
    lf.add_argument("--alpha-grid", type=_csv_floats, required=True)
    lf.add_argument("--x-grid", type=_csv_floats, required=True)
    lf.add_argument("--t-big", type=float, default=40.0)
    lf.add_argument("--grid-n", type=int, default=DEFAULT_LAPLACE_N)
    lf.add_argument("--out", default=None)
    lf.set_defaults(func=_cmd_laplace_fit)

    rc = sub.add_parser("riesz-check", help="spectral multiplier and semigroup check")
    rc.add_argument("--dim", type=int, required=True)
    rc.add_argument("--modes", type=int, required=True)
    rc.add_argument("--alpha-grid", type=_csv_floats, required=True)
    rc.add_argument("--out", default=None)
    rc.set_defaults(func=_cmd_riesz_check)

    tc = sub.add_parser("transmute-check", help="direct vs transmuted integral")
    tc.add_argument("--phi", required=True, help="integrator spec JSON file")
    tc.add_argument("--alpha", type=float, required=True)
    tc.add_argument("--grid-n", type=int, default=4096)
    tc.add_argument("--out", default=None)
    tc.set_defaults(func=_cmd_transmute_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
