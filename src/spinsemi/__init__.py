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
    NoConvergence,
    NotHermitian,
    ParseError,
    ScaleOverflow,
    SpinsemiError,
    StepSizeUnderflow,
    ValidationError,
    ValidityBreakdown,
)
from .numerics import (
    IntegratorConfig,
    IntegratorRecord,
    adaptive_rk,
    hermitian_eig,
)
from .spin import (
    CoherentLabel,
    OperatorTerm,
    SpinSystem,
    coherent_overlap,
    coherent_vector,
    product_coherent,
)
from .quantum import (
    PurityCurve,
    exact_propagator_overlap,
    exact_purity_curve,
    purity,
    reduced_density,
)
from .flow import (
    Trajectory,
    integrate_stability,
    integrate_trajectory,
)
from .semiclassical import (
    ActionBundle,
    AuxDeterminants,
    action_integrals,
    aux_determinants,
    contraction_checks,
    prefactor,
    purity_sc,
    semiclassical_propagator_real,
)
from .models import (
    HamiltonianModel,
    PhaseCouplingParams,
    build_operator_model,
    exchange_coupling_model,
    free_precession_model,
    pc_exact_purity,
    pc_purity_sc,
    phase_coupling_model,
)
