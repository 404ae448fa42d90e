"""Exact multiplicities and mixed multiplicities of filtrations of monomial
ideals in a power-series ring, with verification suites for the structural
inequalities and identities they satisfy."""

from .errors import (
    BudgetExceeded,
    DegreeMismatch,
    DimensionMismatch,
    ExhaustedRetries,
    FiltmultError,
    IndexOutOfTable,
    NotMPrimary,
    NotNoetherian,
    SpecValidationError,
    TopCoefficientDrift,
)
from .filtrations import (
    CeilingNormMultiFiltration,
    DiagonalFiltration,
    Filtration,
    MonomialValuationFiltration,
    PowerFiltration,
    ShiftedPowerFiltration,
    TableFiltration,
    TruncatedFiltration,
    filtration_from_json,
    truncate,
    verify_filtration,
)
from .geometry import Body
from .multiplicity import (
    ExactStrategy,
    LimitEstimate,
    MixedMultiplicityTable,
    NumericStrategy,
    QuasiPolynomial,
    filtration_multiplicity,
    fit_quasi_polynomial,
    limit_normalized_colength,
    mixed_multiplicity_table,
    sample_points,
    truncation_convergence,
)
from .okounkov import (
    BodyApproximation,
    admissible_beta,
    ambient_body_volume,
    body_volume,
    volume_limit_check,
)
from .quadratic import SQRT2, QuadraticIrrational
from .staircase import (
    MonomialIdeal,
    colength,
    covolume,
    ideal_sum,
    integral_closure,
    maximal_ideal,
    minimalize,
    newton_region,
    power,
    product,
    unit_ideal,
)
from .verifier import (
    integrality_check,
    integrality_suite,
    minkowski_report,
    minkowski_suite,
    non_polynomial_witness,
    random_m_primary_ideal,
    rees_identity_check,
    root_sum_compare,
)

__version__ = "0.1.0"
