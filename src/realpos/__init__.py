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
)
from .linalg import (
    Tolerances,
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
    RangeBoundary,
    SectorVerdict,
    abscissa,
    boundary,
    dist_to_point,
    sectorial_angle,
    support_function,
)
from .cones import (
    AmbientContext,
    ConeMembership,
    chaccr_verify,
    corner_context,
    decompose_halfF,
    full_context,
    membership,
)
from .calculus import (
    f_inverse,
    f_transform,
    power,
    power_all_methods,
    power_balakrishnan,
    power_series,
    power_shifted,
)
from .algebra import (
    HsaResult,
    SubalgebraBasis,
    SupportIdempotent,
    aarnes_kadison_check,
    ba,
    block_diag_algebra,
    diagonal_algebra,
    full_matrix_algebra,
    hsa_from_z,
    lump_check,
    span_contains,
    spans_equal,
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
