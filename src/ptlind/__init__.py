"""Lindblad superoperators, their parity-time spectral symmetry, and the
symmetry-breaking threshold of boundary-driven XXZ chains."""

from .errors import (
    BracketInvalid,
    ConvergenceFailure,
    DegenerateAtEvaluationPoint,
    NoZeroMode,
    NotInvolution,
    NotUnitary,
    NumericalError,
    ParseError,
    PtLindError,
    SchemaError,
    SectorNotInvariant,
    ValidationError,
)
from .liouville import (
    LindbladModel,
    SuperOperator,
    average_damping,
    build_superoperator,
    dissipator_superoperator,
    hermiticity_residual,
    left_identity_residual,
    propagator,
    sector_restrict,
    traceless_dissipator,
    traceless_part,
)
from .operators import (
    BasisConvention,
    almost_equal,
    dagger,
    global_spin_flip,
    hs_inner,
    kron,
    mat_exp,
    product_map,
    site_operator,
    site_reversal,
    transpose_permutation,
    unvec,
    vec,
)
from .perturbation import (
    DegeneracyReport,
    PerturbationReport,
    VelocityReport,
    degeneracy_report,
    heuristic_gamma_pt,
    population_matrix,
    velocity_check,
)
from .spectral import (
    CrossClassification,
    D2Report,
    PartnerReport,
    SpectralDecomposition,
    classify_cross,
    collinearity_error,
    eig_biortho,
    left_steady_vector,
    pt_partner_check,
    steady_state,
    verify_d2,
)
from .symmetry import (
    ParitySuperOp,
    SymmetryReport,
    check_inversion,
    check_pt,
    check_pt_rows,
    parity_from_pair,
    xxz_parity,
)
from .threshold import (
    DecayResult,
    ScalingResult,
    ThresholdResult,
    coherence_probe_state,
    find_gamma_pt,
    is_unbroken,
    observable_decay,
    scaling_study,
)
from .xxz import (
    XXZParams,
    ladder_liouvillian,
    ladder_matrix,
    ladder_vectorization_map,
    row_superoperators,
    sector_basis,
    spin_current,
    xxz_model,
)

__version__ = "0.1.0"
