"""Numerical laboratory for pure-jump Dirichlet forms on finite metric measure spaces.

Builds finite Cantor products, grids, and custom spaces; assembles symmetric
jump generators; computes heat kernels, eigenvalues, and resolvents exactly
by spectral calculus; and measures the functional-inequality constants
(volume growth, jump tails, Faber-Krahn/Nash, cutoff energies, survival and
tail estimates, diagonal bounds, truncation and jump-interchange
comparisons) as condition reports.
"""

from .counterexample import (
    CounterexampleConfig,
    build_counterexample_field,
    cross_jump_exponent_fit,
    due_violation_diagnostic,
    exponent_report,
    synthesize_config,
)
from .errors import ParameterError, PointCapExceeded, UnsupportedKernelError
from .form import (
    SpectralForm,
    Truncation,
    assemble,
    capacity_check,
    cs_check,
    fk_family_check,
    fk_nash_consistency,
    lambda1,
    lre_check,
    nash_check,
    part_on,
    sample_balls,
)
from .kernel import (
    JumpKernel,
    build_cantor_axis_kernel,
    build_cylindrical_kernel,
    build_nearest_neighbor_kernel,
    build_stable_like_kernel,
    build_uniform_kernel,
    build_zero_kernel,
    cross_jump_mass,
    ij_check,
    tail_mass,
    tj_check,
    tjq_check,
    truncate,
)
from .report import ConditionReport
from .scale import (
    ScaleField,
    constant_field,
    field_from_balls,
    field_from_table,
    induced_quasi_metric,
    phi,
    phi_inverse,
    verify_scale_axioms,
)
from .semigroup import (
    conservativeness_check,
    due_check,
    heat_kernel_invariants,
    meyer_check,
    recursion_limit,
    se_check,
    se_from_lre_chain,
    survival,
    te_check,
    truncation_l2_check,
    truncation_semigroup_check,
)
from .space import (
    BallQuery,
    FiniteMMSpace,
    build_cantor_product,
    build_custom,
    build_grid,
    build_two_point,
    cantor_volume_exponent,
    dyadic_radius_grid,
    fit_rvd_exponent,
    fit_vd_exponent,
    metric_axioms_ok,
)
from .stream import Stream

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
