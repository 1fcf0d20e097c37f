"""Lindblad superoperators, their parity-time spectral symmetry, and the
symmetry-breaking threshold of boundary-driven XXZ chains."""

from .errors import (
    BracketInvalid,
    ConvergenceFailure,
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
    hermiticity_residual,
    propagator,
    sector_restrict,
)
from .operators import (
    dagger,
    is_hermitian,
    mat_exp,
    site_operator,
    site_reversal,
    unvec,
    vec,
)
from .perturbation import (
    DegeneracyReport,
    PerturbationReport,
    degeneracy_report,
    population_matrix,
)
from .spectral import (
    CrossClassification,
    D2Report,
    SpectralDecomposition,
    classify_cross,
    eig_biortho,
    steady_state,
    verify_d2,
)
from .symmetry import (
    ParitySuperOp,
    SymmetryReport,
    check_pt,
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
    sector_basis,
    sector_positions,
    spin_current,
    xxz_model,
)

__version__ = "0.1.0"
