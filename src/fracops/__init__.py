"""Fractional-order integral operators, transform tables, and axiom checks."""

from .grid import (
    BoxGridND,
    SampledFunction1D,
    SampledFunctionND,
    UniformGrid1D,
    cumulative_trapezoid,
    l1_distance,
    l1_distance_nd,
    l1_norm,
    l1_norm_nd,
    sample,
    sample_nd,
)
from .rl_core import (
    AxiomProfile,
    FAMILY_NAMES,
    OperatorFamily1D,
    estimate_order,
    make_family,
    rl_integral,
)
from .rl_nd import commutation_residual, rl_integral_nd, truncated_convolution
from .transforms import (
    AdditiveSamples,
    FitResult,
    LaplaceValue,
    TransformTable,
    extend_additive,
    fit_affine,
    fit_affine_nd,
    laplace_transform,
    laplace_transform_nd,
    semigroup_table,
    semigroup_table_nd,
)
from .riesz import PeriodicGridND, composition_residual, riesz_potential
from .transmute import (
    Integrator,
    Jump,
    Segment,
    identity_integrator,
    linear_integrator,
    load_integrator,
    pushforward_measure,
    rl_wrt_phi_direct,
    rl_wrt_phi_transmuted,
    transmutation_residual,
    unit_jump_integrator,
)
from .harness import (
    AxiomReport,
    RunConfig,
    check_continuity,
    check_identity,
    check_index_law,
    check_positivity,
    run_matrix,
)

__version__ = "0.1.0"
