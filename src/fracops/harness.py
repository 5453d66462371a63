"""Axiom verification for operator families: the violation matrix.

Four checks per family, each measuring a residual against its tolerance:

* identity: unit order must reproduce the cumulative trapezoid integral;
* index law: composing orders alpha then beta must match alpha + beta;
* continuity: outputs at alpha0 + delta must approach the output at alpha0
  along a decreasing delta sequence;
* positivity: nonnegative inputs must give outputs with nonnegative real
  part and negligible imaginary part.

The probes are the fixed module constants below. Continuity runs on the unit
window [a, a + 1] at the interval's left end: every catalog family is
translation invariant, and on a window of length L the residuals grow by
about L^(alpha0 + 1), which no absolute tolerance absorbs.

A report per family records residuals, verdicts, the expected profile, and
whether they agree. Identical configurations produce byte-identical
reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .grid import (
    SampledFunction1D,
    UniformGrid1D,
    cumulative_trapezoid,
    l1_distance,
    sample,
)
# unused here, but perfbench's tracer test reads harness.rl_integral
from .rl_core import FAMILY_NAMES, OperatorFamily1D, make_family, rl_integral  # noqa: F401

TEST_FUNCTIONS = {
    "one": lambda t: 1.0,
    "t": lambda t: t,
    "cos": lambda t: np.cos(t),
    "exp_neg": lambda t: np.exp(-t),
    "ramp": lambda t: max(0.0, t - 0.3),
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

    def sampled_functions(self) -> dict[str, SampledFunction1D]:
        a, T = self.interval
        g = UniformGrid1D(float(a), float(T), int(self.grid_n))
        return {name: sample(expr, g) for name, expr in TEST_FUNCTIONS.items()}


def check_identity(
    family: OperatorFamily1D, f_set: dict[str, SampledFunction1D]
) -> float:
    """Max over f of the L1 distance between apply(1, f) and the trapezoid integral."""
    return max(
        l1_distance(family.apply(1.0, f), cumulative_trapezoid(f))
        for f in f_set.values()
    )


def check_index_law(
    family: OperatorFamily1D,
    pairs: tuple[tuple[float, float], ...],
    f_set: dict[str, SampledFunction1D],
) -> float:
    """Max over pairs and f of the L1 gap between composed and summed orders."""
    worst = 0.0
    for a, b in pairs:
        for f in f_set.values():
            composed = family.apply(a, family.apply(b, f))
            direct = family.apply(a + b, f)
            worst = max(worst, l1_distance(composed, direct))
    return worst


def check_continuity(
    family: OperatorFamily1D,
    alpha0: float,
    deltas: tuple[float, ...],
    grid: UniformGrid1D,
) -> list[float]:
    """Residual sequence r_i = ||apply(alpha0 + delta_i, 1) - apply(alpha0, 1)||_1."""
    ones = sample(TEST_FUNCTIONS["one"], grid)
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
    min_real = np.inf
    max_imag = 0.0
    for a in alphas:
        for f in f_set.values():
            out = family.apply(a, f)
            min_real = min(min_real, float(out.values.real.min()))
            max_imag = max(max_imag, float(np.abs(out.values.imag).max()))
    return float(min_real), float(max_imag)


@dataclass(frozen=True)
class AxiomReport:
    family: str
    identity_residual: float
    index_residual: float
    continuity_residuals: tuple[float, ...]
    positivity_min_real: float
    positivity_max_imag: float
    verdicts: dict[str, bool]
    expected_profile: dict[str, bool]
    match: bool
    config_echo: dict = field(repr=False)

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "axioms": {
                "identity": {
                    "residual": self.identity_residual,
                    "pass": self.verdicts["identity"],
                },
                "index_law": {
                    "residual": self.index_residual,
                    "pass": self.verdicts["index_law"],
                },
                "continuity": {
                    "residuals": list(self.continuity_residuals),
                    "pass": self.verdicts["continuity"],
                },
                "positivity": {
                    "min_real": self.positivity_min_real,
                    "max_imag": self.positivity_max_imag,
                    "pass": self.verdicts["positivity"],
                },
            },
            "expected_profile": self.expected_profile,
            "match": self.match,
            "config_echo": self.config_echo,
        }


def run_family(family_name: str, config: RunConfig) -> AxiomReport:
    family = make_family(family_name)
    f_set = config.sampled_functions()
    a = float(config.interval[0])
    window = UniformGrid1D(a, a + 1.0, int(config.grid_n))

    identity_res = check_identity(family, f_set)
    index_res = check_index_law(family, INDEX_PAIRS, f_set)
    cont_res = check_continuity(family, CONTINUITY_ALPHA0, CONTINUITY_DELTAS, window)
    nonneg = {
        name: f
        for name, f in f_set.items()
        if f.is_real and not np.any(f.values.real < 0.0)
    }
    min_real, max_imag = check_positivity(family, nonneg, POSITIVITY_ALPHAS)

    verdicts = {
        "identity": bool(identity_res < config.tol_identity),
        "index_law": bool(index_res < config.tol_index),
        "continuity": continuity_verdict(cont_res, config.tol_continuity),
        "positivity": bool(
            min_real >= -config.tol_positivity and max_imag <= config.tol_positivity
        ),
    }
    expected = asdict(family.expected_profile)
    return AxiomReport(
        family=family_name,
        identity_residual=identity_res,
        index_residual=index_res,
        continuity_residuals=tuple(cont_res),
        positivity_min_real=min_real,
        positivity_max_imag=max_imag,
        verdicts=verdicts,
        expected_profile=expected,
        match=verdicts == expected,
        config_echo=asdict(config),
    )


def run_matrix(config: RunConfig) -> list[AxiomReport]:
    """Run all four checks on the requested families, ordered by family name."""
    names = FAMILY_NAMES if config.family == "all" else (config.family,)
    return [run_family(name, config) for name in sorted(names)]


def reports_to_json(reports: list[AxiomReport]) -> str:
    return json.dumps([r.as_dict() for r in reports], sort_keys=True, indent=2)
