"""The four benchmark workloads: seeded inputs, program calls, output checks.

A workload is a list of operations. Each operation calls fracops once (a CLI
subcommand in process, or a library entry point) and has a check that reads
the output from outside, returns the problems it found and the operation's
share of ``ref_err``. Calls look fracops up by attribute at call time, so the
tracer's patched names are the ones that run.

Inputs come from ``--seed``; the default seed reproduces the README commands.
Problem sizes never depend on the seed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / ".out"  # outputs and traces; ignored by git
DEFAULT_SEED = 0
LAYERS = (
    "cli",
    "harness",
    "rl_core",
    "rl_nd",
    "transforms",
    "riesz",
    "transmute",
    "grid",
    "special",
)


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (no importable src/fracops)."""


def load_fracops():
    """Import fracops from this checkout's src/ together with its layer modules."""
    if not (SRC / "fracops" / "__init__.py").is_file():
        raise SetupError(f"no fracops package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fracops

    if Path(fracops.__file__).resolve().parent != SRC / "fracops":
        raise SetupError(f"imported fracops from {fracops.__file__}, not from {SRC}")
    for layer in LAYERS:
        try:
            importlib.import_module(f"fracops.{layer}")
        except ImportError:
            pass  # a layer removed by a refactor is reported absent by the tracer
    return fracops


@dataclass
class Op:
    """One call into fracops and the check of its output."""

    name: str
    run: Callable[[], object]
    check: Callable[[object], tuple[list[str], float]]
    argv: list[str] | None = None  # set when the call is a CLI subcommand


def call_cli(fo, argv: list[str]) -> int:
    """Run ``fracops <argv>`` in process with its terminal output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return fo.cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad arguments this way
            return exc.code if isinstance(exc.code, int) else 2


def take_output(path: Path) -> bytes:
    """Read an output file and remove it, so that the next pass creates it anew.

    Truncating a file that was just written can stall on a filesystem flush,
    which would time the disk instead of fracops.
    """
    data = path.read_bytes()
    path.unlink()
    return data


def write_input(path: Path, text: str) -> None:
    """Write a generated input unless it is already there, for the same reason."""
    if not path.is_file() or path.read_text() != text:
        path.write_text(text)


def _csv(values) -> str:
    return ",".join(repr(float(v)) for v in values)


# --- axioms -----------------------------------------------------------------

AXIOMS_ARGV = [
    "axioms", "--family", "all", "--grid-n", "2048", "--interval", "0,1",
    "--tol-identity", "1e-6", "--tol-index", "5e-3", "--tol-continuity", "1e-2",
    "--tol-positivity", "1e-10",
]
# closed-form residuals of the counterexample families (acceptance criterion 1)
AXIOMS_CONSTANTS = (
    ("scaled_order", "index_law", 11.0 / 24.0),
    ("doubled_order", "identity", 1.0 / 3.0),
    ("geometric", "identity", 0.5),
)
AXIOMS_CONSTANT_TOL = 1e-3


def axioms(fo, seed: int, out_dir: Path) -> list[Op]:
    """The CLI default config is the traffic, so the seed does not enter."""
    out = out_dir / "reports.json"
    argv = AXIOMS_ARGV + ["--out", str(out)]
    first_bytes: list[bytes] = []

    def check(code) -> tuple[list[str], float]:
        problems = [] if code == 0 else [f"exit status {code}"]
        raw = take_output(out)
        if not first_bytes:
            first_bytes.append(raw)
        elif raw != first_bytes[0]:
            problems.append("report bytes differ from the first pass")
        reports = {r["family"]: r for r in json.loads(raw)}
        problems += [f"{name}: match false" for name, r in reports.items() if not r["match"]]
        rl = reports["riemann_liouville"]["axioms"]
        if rl["identity"]["residual"] != 0.0:
            problems.append(f"unit order is not the trapezoid rule: {rl['identity']['residual']!r}")
        if rl["positivity"]["min_real"] != 0.0:
            problems.append(f"positivity min is not exactly 0: {rl['positivity']['min_real']!r}")
        ref_err = rl["index_law"]["residual"]
        for family, axiom, exact in AXIOMS_CONSTANTS:
            dev = abs(reports[family]["axioms"][axiom]["residual"] - exact)
            if dev >= AXIOMS_CONSTANT_TOL:
                problems.append(f"{family}.{axiom} residual is {dev:.3e} off {exact!r}")
            ref_err = max(ref_err, dev)
        return problems, ref_err

    return [Op("axioms", lambda: call_cli(fo, argv), check, argv)]


# --- laplace-fit --------------------------------------------------------------

README_ORDERS = (0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)
LAPLACE_FIT_TOL = 1e-2  # acceptance criterion 3, for both c(x) and d(x)
LAPLACE_RESIDUAL_TOL = 1e-3


def laplace_orders(seed: int) -> list[float]:
    """Eight orders in [0.25, 2], each within 0.05 of a README order.

    A wider draw moves ``ref_err`` by more across seeds (its quartile spread
    doubles at 0.1) without exercising anything new.
    """
    if seed == DEFAULT_SEED:
        return list(README_ORDERS)
    rng = random.Random(seed)
    return [min(2.0, max(0.25, a + rng.uniform(-0.05, 0.05))) for a in README_ORDERS]


def laplace_fit(fo, seed: int, out_dir: Path) -> list[Op]:
    """Few very large, all distinct 1D integrals: per-call caching cannot help."""
    out = out_dir / "fit.json"
    argv = [
        "laplace-fit", "--family", "riemann_liouville",
        "--alpha-grid", _csv(laplace_orders(seed)),
        "--x-grid", "1,2,4,8", "--t-big", "40", "--out", str(out),
    ]

    def check(code) -> tuple[list[str], float]:
        problems = [] if code == 0 else [f"exit status {code}"]
        fit = json.loads(take_output(out))["fit"]
        if fit["max_log_residual"] >= LAPLACE_RESIDUAL_TOL:
            problems.append(f"log-residual {fit['max_log_residual']:.3e}")
        ref_err = 0.0
        for x, c, d in zip(fit["x_grid"], fit["c"], fit["d"]):
            err = max(abs(d + math.log(x)), abs(c + math.log(x)))
            if err >= LAPLACE_FIT_TOL:
                problems.append(f"fit at x={x} is {err:.3e} off -ln x")
            ref_err = max(ref_err, err)
        return problems, ref_err

    return [Op("laplace-fit", lambda: call_cli(fo, argv), check, argv)]


# --- transmute ----------------------------------------------------------------

UNIT_JUMP_SPEC = {
    "domain": [0.0, 1.0],
    "segments": [
        {"interval": [0.0, 0.5], "kind": "poly", "coefficients": [0.0, 1.0]},
        {"interval": [0.5, 1.0], "kind": "poly", "coefficients": [1.0, 1.0]},
    ],
    "jumps": [{"at": 0.5, "size": 1.0}],
}


def nonlinear_spec(seed: int) -> dict:
    """Cubic poly on [0, 1/2], exp on [1/2, 1], and the jump between them.

    The cubic's derivative c1 + 2 c2 s + 3 c3 s^2 stays >= 0.2 on [0, 1/2]
    for the drawn ranges, and c1' e^(c2' s) with c1', c2' > 0 increases, so
    the integrator is strictly increasing; c0' is solved for so that the
    image gap at 1/2 equals the declared jump.
    """
    if seed == DEFAULT_SEED:
        c1, c2, c3, e1, e2, jump = 1.0, 0.0, 1.0, 1.0, 1.0, 1.0
    else:
        rng = random.Random(seed)
        c1, c2, c3 = rng.uniform(0.5, 1.5), rng.uniform(-0.3, 0.3), rng.uniform(0.2, 1.0)
        e1, e2, jump = rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
    left = c1 * 0.5 + c2 * 0.25 + c3 * 0.125
    e0 = left + jump - e1 * math.exp(e2 * 0.5)
    return {
        "domain": [0.0, 1.0],
        "segments": [
            {"interval": [0.0, 0.5], "kind": "poly", "coefficients": [0.0, c1, c2, c3]},
            {"interval": [0.5, 1.0], "kind": "exp", "coefficients": [e0, e1, e2]},
        ],
        "jumps": [{"at": 0.5, "size": jump}],
    }


def transmute(fo, seed: int, out_dir: Path) -> list[Op]:
    """Direct (per-node Python loop) versus transmuted route at N = 4096."""
    ops = []
    for label, spec in (("unit-jump", UNIT_JUMP_SPEC), ("nonlinear", nonlinear_spec(seed))):
        phi = out_dir / f"phi-{label}.json"
        write_input(phi, json.dumps(spec, indent=2, sort_keys=True) + "\n")
        fo.load_integrator(str(phi))  # rejects a spec the generator got wrong
        out = out_dir / f"tm-{label}.json"
        argv = [
            "transmute-check", "--phi", str(phi), "--alpha", "0.5",
            "--grid-n", "4096", "--out", str(out),
        ]

        def check(code, out=out) -> tuple[list[str], float]:
            problems = [] if code == 0 else [f"exit status {code}"]
            payload = json.loads(take_output(out))
            if payload["pass"] is not True:
                problems.append("transmute-check verdict is not pass")
            return problems, max(payload["residuals"].values())

        ops.append(Op(f"transmute-{label}", lambda argv=argv: call_cli(fo, argv), check, argv))
    return ops


# --- nd-spectral --------------------------------------------------------------

ND_ORDERS = ((0.5, 0.5), (1.0, 0.5), (0.5, 1.0), (1.0, 1.0))  # acceptance criterion 4
ND_POINTS = ((1.0, 1.0), (1.0, 1.5), (1.5, 1.0), (1.5, 1.5))
ND_FIT_TOL = 2e-2
COMMUTATION_N = 96
COMMUTATION_TOL = 5e-3
RIESZ_ARGV = ["riesz-check", "--dim", "3", "--modes", "64", "--alpha-grid", "0.25,0.5,0.7,1.0"]


def smooth_pair(seed: int, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Kernel h and input f on the unit square; the default is h = x + y, f = cos x cos y."""
    if seed == DEFAULT_SEED:
        p0, p1, p2, k1, k2, s1, s2 = 0.0, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0
    else:
        rng = random.Random(seed)
        p0, p1, p2 = rng.uniform(0.0, 1.0), rng.uniform(0.5, 1.5), rng.uniform(0.5, 1.5)
        k1, k2 = rng.uniform(0.5, 2.0), rng.uniform(0.5, 2.0)
        s1, s2 = rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)
    h = p0 + p1 * x + p2 * y
    f = np.cos(k1 * x + s1) * np.cos(k2 * y + s2)
    return h.astype(np.complex128), f.astype(np.complex128)


def nd_spectral(fo, seed: int, out_dir: Path) -> list[Op]:
    """rl_nd and riesz, which no other workload reaches."""
    axis = fo.UniformGrid1D(0.0, 1.0, COMMUTATION_N)
    box = fo.BoxGridND((axis, axis))
    x, y = np.meshgrid(axis.nodes, axis.nodes, indexing="ij")
    h_vals, f_vals = smooth_pair(seed, x, y)
    h = fo.SampledFunctionND(box, h_vals)
    f = fo.SampledFunctionND(box, f_vals)
    riesz_out = out_dir / "riesz.json"
    riesz_argv = RIESZ_ARGV + ["--out", str(riesz_out)]

    def fit_2d():
        table = fo.semigroup_table_nd(fo.rl_integral_nd, ND_ORDERS, ND_POINTS, 10.0, 256)
        return fo.fit_affine_nd(table)

    def check_fit(fit) -> tuple[list[str], float]:
        worst = max(
            float(np.abs(fit.slopes[j] + np.log(np.array(p))).max())
            for j, p in enumerate(ND_POINTS)
        )
        problems = [] if worst < ND_FIT_TOL else [f"2D slope error {worst:.3e}"]
        return problems, worst

    def check_commutation(r) -> tuple[list[str], float]:
        return ([] if r < COMMUTATION_TOL else [f"commutation residual {r:.3e}"]), 0.0

    def check_riesz(code) -> tuple[list[str], float]:
        problems = [] if code == 0 else [f"exit status {code}"]
        payload = json.loads(take_output(riesz_out))
        for part in ("multiplier", "composition"):
            if payload[part]["pass"] is not True:
                problems.append(f"riesz {part} check failed")
        return problems, 0.0

    return [
        Op("nd-fit", fit_2d, check_fit),
        Op("commutation", lambda: fo.commutation_residual((0.5, 0.5), h, f), check_commutation),
        Op("riesz-check", lambda: call_cli(fo, riesz_argv), check_riesz, riesz_argv),
    ]


WORKLOADS = {
    "axioms": axioms,
    "laplace-fit": laplace_fit,
    "transmute": transmute,
    "nd-spectral": nd_spectral,
}


def out_dir_for(name: str, seed: int) -> Path:
    return OUT / f"{name}-seed{seed}"


def prepare(fo, name: str, seed: int, out_dir: Path) -> list[Op]:
    """One-time input preparation: specs, grids, probes, and the parsed CLI argv."""
    out_dir.mkdir(parents=True, exist_ok=True)
    ops = WORKLOADS[name](fo, seed, out_dir)
    parser = fo.cli.build_parser()
    for op in ops:
        if op.argv is not None:
            parser.parse_args(op.argv)
    return ops
