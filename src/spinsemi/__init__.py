"""Entanglement dynamics of two coupled spins, two independent ways.

An exact quantum engine (spectral evolution + partial trace) and a
semiclassical stability-matrix purity are computed on the same footing and
cross-validated against each other, against structural invariants of the
formalism, and against the exactly solvable phase-coupling model.
"""

__version__ = "0.1.0"

from .errors import (
    CausticEncountered,
    ChartSingularity,
    ConfigError,
    DimensionMismatch,
    FieldEvaluationError,
    LogBranch,
    NegativeRadicand,
    NoConvergence,
    NotHermitian,
    ParseError,
    ScaleOverflow,
    SingularMatrix,
    SpinsemiError,
    StepSizeUnderflow,
    ValidationError,
    ValidityBreakdown,
)
from .numerics import IntegratorConfig, adaptive_rk, hermitian_eig, small_inverse
from .spin import (
    CoherentLabel,
    HamiltonianModel,
    SpinSystem,
    build_spin_operators,
    coherent_overlap,
    coherent_vector,
    htilde_from_operator,
    product_coherent,
)
from .quantum import (
    DensityMatrix,
    PurityCurve,
    evolve_state,
    exact_propagator_overlap,
    exact_purity_curve,
    linear_entropy,
    purity,
    reduced_density,
)
from .flow import (
    PhaseSpaceState,
    StabilityMatrix,
    Trajectory,
    integrate_stability,
    integrate_trajectory,
)
from .semiclassical import (
    ActionBundle,
    AuxDeterminants,
    CanonicalPurityInputs,
    action_hessians_from_stability,
    action_integrals,
    aux_determinants,
    canonical_purity,
    contraction_checks,
    gaussian_a1a2,
    prefactor,
    purity_sc,
    semiclassical_propagator_real,
)
from .models import (
    OperatorTerm,
    PhaseCouplingParams,
    build_operator_model,
    exchange_coupling_model,
    free_precession_model,
    pc_exact_purity,
    pc_purity_sc,
    pc_slin_short_time,
    pc_stability,
    pc_trajectory,
    phase_coupling_model,
)
