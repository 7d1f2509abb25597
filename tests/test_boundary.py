"""The public boundary: every public function or method that takes a
matrix validates it and rejects malformed input with InputError, so the
trusting internal kernels never see it."""
import inspect

import numpy as np
import pytest

import realpos
from realpos import (
    InputError,
    amplify,
    full_context,
    full_matrix_algebra,
    identity_map,
    transpose_map,
)

CTX = full_context(2)
ALG = full_matrix_algebra(2)
GOOD = np.eye(2, dtype=complex)

# public name -> call with the matrix argument m in first matrix position
MATRIX_CALLS = {
    "aarnes_kadison_check": lambda m: realpos.aarnes_kadison_check(m, ALG),
    "abscissa": realpos.abscissa,
    "approximate_from_F": lambda m: realpos.approximate_from_F(m, CTX, 0.5),
    "ba": realpos.ba,
    "ba_ftransform_equal": realpos.ba_ftransform_equal,
    "boundary": realpos.boundary,
    "build_symmetric_projection": lambda m: realpos.build_symmetric_projection(
        identity_map(ALG), m, ALG),
    "chaccr_verify": lambda m: realpos.chaccr_verify(m, CTX),
    "corner_context": realpos.corner_context,
    "decompose_halfF": lambda m: realpos.decompose_halfF(m, CTX),
    "dist_to_point": lambda m: realpos.dist_to_point(m, -1.0),
    "f_inverse": realpos.f_inverse,
    "f_transform": realpos.f_transform,
    "herm_part": realpos.herm_part,
    "hsa_from_z": lambda m: realpos.hsa_from_z(m, ALG),
    "idempotent_ideal": lambda m: realpos.idempotent_ideal(m, ALG),
    "is_nearly_positive": lambda m: realpos.is_nearly_positive(m, 0.5),
    "lump_check": realpos.lump_check,
    "map_from_function": lambda m: realpos.map_from_function(lambda b: m, ALG),
    "map_from_kraus": lambda m: realpos.map_from_kraus([m], 2),
    "matrix_exp": realpos.matrix_exp,
    "membership": lambda m: realpos.membership(m, CTX),
    "operator_norm": realpos.operator_norm,
    "order_leq": lambda m: realpos.order_leq(m, GOOD),
    "power": lambda m: realpos.power(m, 0.5),
    "power_all_methods": lambda m: realpos.power_all_methods(m, 0.5),
    "power_balakrishnan": lambda m: realpos.power_balakrishnan(m, 0.5),
    "power_property_report": realpos.power_property_report,
    "power_series": lambda m: realpos.power_series(m, 0.5),
    "power_shifted": lambda m: realpos.power_shifted(m, 0.5),
    "root_bai_check": realpos.root_bai_check,
    "scale_into_F": lambda m: realpos.scale_into_F(m, CTX, 0.5),
    "sectorial_angle": realpos.sectorial_angle,
    "span_contains": lambda m: realpos.span_contains([GOOD], m),
    "subalgebra": lambda m: realpos.subalgebra([m]),
    "supp_order": lambda m: realpos.supp_order(m, GOOD, ALG),
    "support_function": lambda m: realpos.support_function(m, 0.0),
    "support_idem": realpos.support_idem,
    "upper_bound_pair": lambda m: realpos.upper_bound_pair(m, GOOD, CTX),
    "ws_suite": lambda m: realpos.ws_suite(m, ALG),
    # public methods
    "AmbientContext.check_member": CTX.check_member,
    "AmbientContext.compress": CTX.compress,
    "AmbientContext.embed": CTX.embed,
    "AmbientContext.corner_norm": CTX.corner_norm,
    "AmbientContext.corner_abscissa": CTX.corner_abscissa,
    "SubalgebraBasis.contains": ALG.contains,
    "SubalgebraBasis.coords": ALG.coords,
    "SubalgebraBasis.project": ALG.project,
    "LinearMapOnAlgebra.apply": transpose_map(2).apply,
    "AmplifiedMap.apply": amplify(transpose_map(2), 1).apply,
}

# public functions that take no matrix (sizes, seeds, maps, suite names),
# or, for spans_equal and matrix_digest, lists or tuples of arrays
NO_MATRIX = {
    "amplify", "block_diag_algebra", "choi_matrix", "classify_projection",
    "default_tolerances", "diagonal_algebra", "full_context", "full_matrix_algebra",
    "identity_map", "is_cp", "kraus_factor", "matrix_digest", "op_norm_estimate",
    "random_accretive", "random_contraction", "random_hermitian", "random_idempotent",
    "random_matrix", "random_unitary", "rcp_test", "rng_for", "run_suite", "run_suites",
    "spans_equal", "transpose_map",
}


def _bad_inputs():
    nan_re = GOOD.copy()
    nan_re[0, 1] = complex(np.nan, 0.0)
    inf_im = GOOD.copy()
    inf_im[1, 0] = complex(0.0, np.inf)
    return {"nan_real": nan_re, "inf_imag": inf_im,
            "non_square": np.ones((2, 3), dtype=complex),
            "empty": np.zeros((0, 0), dtype=complex)}


def test_every_public_function_is_classified():
    public = {name for name, v in vars(realpos).items()
              if not name.startswith("_") and inspect.isfunction(v)}
    functions = {name for name in MATRIX_CALLS if "." not in name}
    assert public == functions | NO_MATRIX


@pytest.mark.parametrize("bad", sorted(_bad_inputs()))
@pytest.mark.parametrize("name", sorted(MATRIX_CALLS))
def test_public_boundary_rejects_malformed_matrix(name, bad):
    with pytest.raises(InputError):
        MATRIX_CALLS[name](_bad_inputs()[bad])


# public functions taking lists of matrices -> call with m as a list element
LIST_CALLS = {
    "span_contains": lambda m: realpos.span_contains([GOOD, m], GOOD),
    "spans_equal.mats_a": lambda m: realpos.spans_equal([m], [GOOD]),
    "spans_equal.mats_b": lambda m: realpos.spans_equal([GOOD], [GOOD, m]),
}


@pytest.mark.parametrize("bad", sorted(_bad_inputs()))
@pytest.mark.parametrize("name", sorted(LIST_CALLS))
def test_list_element_rejects_malformed_matrix(name, bad):
    with pytest.raises(InputError):
        LIST_CALLS[name](_bad_inputs()[bad])


@pytest.mark.parametrize("call", [
    lambda: realpos.span_contains([GOOD], np.eye(3)),
    lambda: realpos.span_contains([GOOD, np.eye(3)], GOOD),
    lambda: realpos.spans_equal([GOOD], [np.eye(3)]),
])
def test_span_functions_reject_mixed_sizes(call):
    with pytest.raises(InputError):
        call()
