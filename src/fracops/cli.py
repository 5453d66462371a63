"""Command-line surface: parsing, ``--out``, summaries; each check is its module's.

Exit status encodes the outcome: 0 when every verdict matches its
expectation, 1 on a mismatch (naming the offending family and axiom), 2 on
configuration errors, sizes included that cannot be allocated.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .harness import TEST_FUNCTIONS, RunConfig, reports_to_json, run_matrix
from .riesz import riesz_check
from .rl_core import FAMILY_NAMES, make_family
from .transforms import laplace_fit
from .transmute import load_integrator, transmute_check

DEFAULT_LAPLACE_N = 4096


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
    config = RunConfig(**{f.name: getattr(args, f.name) for f in dataclasses.fields(RunConfig)})
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
    payload = laplace_fit(
        make_family(args.family), args.alpha_grid, args.x_grid, args.t_big, args.grid_n
    )
    _write_out(payload, args.out)
    fit = payload["fit"]
    print(
        f"laplace-fit {payload['family']}: max log-residual {fit['max_log_residual']:.3e}, "
        f"max |d + ln x| {max(map(abs, fit['d_minus_neg_log_x'])):.3e}"
    )
    return 0


def _cmd_riesz_check(args) -> int:
    payload = riesz_check(args.dim, args.modes, args.alpha_grid)
    _write_out(payload, args.out)
    mult, comp = payload["multiplier"]["pass"], payload["composition"]["pass"]
    print(
        f"riesz-check dim={args.dim} modes={args.modes}: multiplier "
        f"{'pass' if mult else 'FAIL'}, composition {'pass' if comp else 'FAIL'}"
    )
    return 0 if (mult and comp) else 1


def _cmd_transmute_check(args) -> int:
    probes = {name: TEST_FUNCTIONS[name] for name in ("one", "t")}
    payload = transmute_check(args.alpha, load_integrator(args.phi), probes, args.grid_n)
    _write_out(payload, args.out)
    print(
        f"transmute-check alpha={args.alpha} N={args.grid_n}: worst residual "
        f"{max(payload['residuals'].values()):.3e} ({'pass' if payload['pass'] else 'FAIL'})"
    )
    return 0 if payload["pass"] else 1


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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
