"""realpos: real-positivity computations on finite-dimensional matrix
algebras — accretive cones, numerical ranges, fractional powers with
cross-validated methods, support idempotents and hereditary structure,
and completely-positive / real-positive map analysis.
"""

from .errors import (
    InputError,
    MethodDisagreementError,
    NumericError,
    PreconditionError,
    RealposError,
    UnsupportedError,
)
from .linalg import (
    Tolerances,
    default_tolerances,
    herm_part,
    matrix_exp,
    operator_norm,
    random_accretive,
    random_contraction,
    random_hermitian,
    random_idempotent,
    random_matrix,
    random_unitary,
    rng_for,
)
from .numrange import (
    NearlyPositiveReport,
    RangeBoundary,
    SectorVerdict,
    abscissa,
    boundary,
    dist_to_point,
    is_nearly_positive,
    sectorial_angle,
    support_function,
)
from .cones import (
    AmbientContext,
    ConeMembership,
    approximate_from_F,
    chaccr_verify,
    corner_context,
    decompose_halfF,
    full_context,
    membership,
    order_leq,
    scale_into_F,
    upper_bound_pair,
)
from .calculus import (
    f_inverse,
    f_transform,
    power,
    power_all_methods,
    power_balakrishnan,
    power_property_report,
    power_series,
    power_shifted,
    root_bai_check,
)
from .algebra import (
    HsaResult,
    SubalgebraBasis,
    SupportIdempotent,
    aarnes_kadison_check,
    ba,
    ba_ftransform_equal,
    block_diag_algebra,
    diagonal_algebra,
    full_matrix_algebra,
    hsa_from_z,
    idempotent_ideal,
    lump_check,
    span_contains,
    spans_equal,
    subalgebra,
    supp_order,
    support_idem,
    ws_suite,
)
from .maps import (
    ChoiMatrix,
    CpVerdict,
    LinearMapOnAlgebra,
    NormEstimate,
    ProjectionClassification,
    RcpVerdict,
    SymmetricProjectionCert,
    amplify,
    build_symmetric_projection,
    choi_matrix,
    classify_projection,
    identity_map,
    is_cp,
    kraus_factor,
    map_from_function,
    map_from_kraus,
    op_norm_estimate,
    rcp_test,
    transpose_map,
)
from .report import VerificationReport, matrix_digest
from .suites import SUITE_ORDER, run_suite, run_suites

__version__ = "0.1.0"
