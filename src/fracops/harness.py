"""Axiom verification for operator families: the violation matrix.

Four checks per family, each measuring a residual against its tolerance:

* identity: unit order must reproduce the cumulative trapezoid integral;
* index law: composing orders alpha then beta must match alpha + beta;
* continuity: outputs at alpha0 + delta must approach the output at alpha0
  along a decreasing delta sequence;
* positivity: nonnegative inputs must give outputs with nonnegative real
  part and negligible imaginary part.

The probes are the fixed module constants below, array expressions
evaluated once per run; a non-finite probe value, overflow included, is a
``ValueError``, so the CLI exits 2. Continuity runs on the unit window
[a, a + 1] at the interval's left end: every catalog family is translation
invariant, and on a window of length L the residuals grow by about
L^(alpha0 + 1), which no absolute tolerance absorbs.

Every family is a scalar or order rewrite of the same integral, and every
check applies a family to its whole probe list at once, so each order is
swept once per run over each list of probes, one same-shape GEMM per probe,
and the sweep is shared by the families.

A report per family holds, field for field, the dict that ``fracops axioms
--out`` writes for it: ``family``, ``axioms`` (each axiom's residuals and
``pass`` verdict), ``expected_profile`` and ``config_echo``; ``match`` is
read from the verdicts and the profile. Identical configurations produce
byte-identical reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .grid import (
    SampledFunction1D,
    UniformGrid1D,
    cumulative_trapezoid,
    l1_distance,
    sample_array,
)
from .rl_core import FAMILY_NAMES, OperatorFamily1D, make_family, rl_integral

# array expressions, valid on scalars too
TEST_FUNCTIONS = {
    "one": lambda t: np.ones_like(t),
    "t": lambda t: t,
    "cos": lambda t: np.cos(t),
    "exp_neg": lambda t: np.exp(-t),
    "ramp": lambda t: np.maximum(0.0, t - 0.3),
}
INDEX_PAIRS = ((0.5, 0.5),)
CONTINUITY_ALPHA0 = 0.7
CONTINUITY_DELTAS = (0.1, 0.01, 0.001)
POSITIVITY_ALPHAS = (0.5, 1.0, 1.5)


@dataclass(frozen=True)
class RunConfig:
    """Family, grid and tolerances for one harness run."""

    family: str = "all"
    grid_n: int = 2048
    interval: tuple[float, float] = (0.0, 1.0)
    tol_identity: float = 1e-6
    tol_index: float = 5e-3
    tol_continuity: float = 1e-2
    tol_positivity: float = 1e-10

    def __post_init__(self):
        for name, tol in (
            ("tol_identity", self.tol_identity),
            ("tol_index", self.tol_index),
            ("tol_continuity", self.tol_continuity),
            ("tol_positivity", self.tol_positivity),
        ):
            if not 0.0 < tol < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {tol}")
        if self.family != "all" and self.family not in FAMILY_NAMES:
            raise ValueError(
                f"unknown family {self.family!r}; valid: all, {', '.join(FAMILY_NAMES)}"
            )
        a, T = (float(x) for x in self.interval)
        if math.isfinite(a) and a + 1.0 == a:
            raise ValueError(
                f"interval [{a}, {T}] leaves no unit continuity window [a, a + 1]: "
                f"a + 1 rounds to a = {a}"
            )


def check_identity(
    family: OperatorFamily1D, f_set: dict[str, SampledFunction1D]
) -> float:
    """Max over f of the L1 distance between apply(1, f) and the trapezoid integral."""
    fs = list(f_set.values())
    return max(
        l1_distance(out, cumulative_trapezoid(f))
        for out, f in zip(family.apply(1.0, fs), fs)
    )


def check_index_law(
    family: OperatorFamily1D,
    pairs: tuple[tuple[float, float], ...],
    f_set: dict[str, SampledFunction1D],
) -> float:
    """Max over pairs and f of the L1 gap between composed and summed orders."""
    fs = list(f_set.values())
    worst = 0.0
    if not fs:
        return worst
    for a, b in pairs:
        composed = family.apply(a, family.apply(b, fs))
        direct = family.apply(a + b, fs)
        for c, d in zip(composed, direct):
            worst = max(worst, l1_distance(c, d))
    return worst


def check_continuity(
    family: OperatorFamily1D,
    alpha0: float,
    deltas: tuple[float, ...],
    ones: SampledFunction1D,
) -> list[float]:
    """Residual sequence r_i = ||apply(alpha0 + delta_i, 1) - apply(alpha0, 1)||_1."""
    base = family.apply(alpha0, ones)
    return [
        l1_distance(family.apply(alpha0 + d, ones), base) if d != 0.0 else 0.0
        for d in deltas
    ]


def continuity_verdict(residuals: list[float], tol: float) -> bool:
    decreasing = all(r1 > r2 for r1, r2 in zip(residuals, residuals[1:]))
    return decreasing and residuals[-1] < tol


def check_positivity(
    family: OperatorFamily1D,
    f_set: dict[str, SampledFunction1D],
    alphas: tuple[float, ...],
) -> tuple[float, float]:
    """(min real part, max |imaginary part|) over all outputs from nonnegative inputs."""
    for name, f in f_set.items():
        if not f.is_real or np.any(f.values.real < 0.0):
            raise ValueError(f"positivity probe {name!r} has negative samples")
    fs = list(f_set.values())
    min_real = np.inf
    max_imag = 0.0
    if not fs:
        return float(min_real), max_imag
    for a in alphas:
        for out in family.apply(a, fs):
            min_real = min(min_real, float(out.values.real.min()))
            max_imag = max(max_imag, float(np.abs(out.values.imag).max()))
    return float(min_real), float(max_imag)


@dataclass(frozen=True)
class AxiomReport:
    family: str
    axioms: dict[str, dict]
    expected_profile: dict[str, bool]
    config_echo: dict = field(repr=False)

    @property
    def verdicts(self) -> dict[str, bool]:
        return {axiom: check["pass"] for axiom, check in self.axioms.items()}

    @property
    def match(self) -> bool:
        return self.verdicts == self.expected_profile

    def as_dict(self) -> dict:
        return {**asdict(self), "match": self.match}


def run_family(
    family_name: str,
    config: RunConfig,
    f_set: dict[str, SampledFunction1D],
    window_ones: SampledFunction1D,
    integral: Callable[[float, SampledFunction1D], SampledFunction1D] | None = None,
) -> AxiomReport:
    """All four checks on one family, given the probes sampled on the interval
    and the constant 1 sampled on the continuity window.

    The family applies ``integral`` (default: ``rl_integral``)."""
    family = make_family(family_name, integral)
    identity_res = check_identity(family, f_set)
    index_res = check_index_law(family, INDEX_PAIRS, f_set)
    cont_res = check_continuity(family, CONTINUITY_ALPHA0, CONTINUITY_DELTAS, window_ones)
    nonneg = {
        name: f
        for name, f in f_set.items()
        if f.is_real and not np.any(f.values.real < 0.0)
    }
    min_real, max_imag = check_positivity(family, nonneg, POSITIVITY_ALPHAS)

    axioms = {
        "identity": {"residual": identity_res, "pass": bool(identity_res < config.tol_identity)},
        "index_law": {"residual": index_res, "pass": bool(index_res < config.tol_index)},
        "continuity": {
            "residuals": cont_res,
            "pass": continuity_verdict(cont_res, config.tol_continuity),
        },
        "positivity": {
            "min_real": min_real,
            "max_imag": max_imag,
            "pass": bool(
                min_real >= -config.tol_positivity and max_imag <= config.tol_positivity
            ),
        },
    }
    return AxiomReport(
        family=family_name,
        axioms=axioms,
        expected_profile=asdict(family.expected_profile),
        config_echo=asdict(config),
    )


def _shared_integral(
    probes: list[SampledFunction1D],
) -> Callable[[float, SampledFunction1D | list[SampledFunction1D]],
              SampledFunction1D | list[SampledFunction1D]]:
    """``rl_integral`` that sweeps each order once per probe or list of probes.

    The memo is keyed on the order and the identities of the inputs, which is
    safe while the caller keeps the probes alive. Any other input is an
    intermediate that a family made, and goes straight to ``rl_integral``,
    looked up at each call.
    """
    probe_ids = {id(p) for p in probes}
    memo: dict[tuple, SampledFunction1D | list[SampledFunction1D]] = {}

    def integral(alpha, f):
        single = isinstance(f, SampledFunction1D)
        ids = (id(f),) if single else tuple(map(id, f))
        if not probe_ids.issuperset(ids):
            return rl_integral(alpha, f)
        key = (float(alpha), single, ids)
        if key not in memo:
            memo[key] = rl_integral(alpha, f)
        return memo[key] if single else list(memo[key])

    return integral


def run_matrix(config: RunConfig) -> list[AxiomReport]:
    """Run all four checks on the requested families, ordered by family name.

    The probes and the window constant are sampled once, each as one array
    expression; on a unit interval the window constant is the ``one`` probe
    itself. The families share one integral, which sweeps each order once
    per run over each list of probes (all probes, the nonnegative ones, the
    window constant); the memo goes with the run. A default run makes 19
    sweeps: 5 orders over the probes, 9 on the window constant and 5 over
    index-law intermediates.
    """
    names = FAMILY_NAMES if config.family == "all" else (config.family,)
    a, T = (float(x) for x in config.interval)
    n = int(config.grid_n)
    grid = UniformGrid1D(a, T, n)
    f_set = {name: sample_array(expr, grid) for name, expr in TEST_FUNCTIONS.items()}
    window = UniformGrid1D(a, a + 1.0, n)
    window_ones = f_set["one"] if window == grid else sample_array(TEST_FUNCTIONS["one"], window)
    integral = _shared_integral([*f_set.values(), window_ones])
    return [
        run_family(name, config, f_set, window_ones, integral) for name in sorted(names)
    ]


def reports_to_json(reports: list[AxiomReport]) -> str:
    return json.dumps([r.as_dict() for r in reports], sort_keys=True, indent=2)
