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
    diagonal_algebra,
    full_context,
    full_matrix_algebra,
    identity_map,
    transpose_map,
)
from realpos.maps import map_affine_combo

CTX = full_context(2)
ALG = full_matrix_algebra(2)
GOOD = np.eye(2, dtype=complex)

# public name -> call with the matrix argument m in first matrix position
MATRIX_CALLS = {
    "aarnes_kadison_check": lambda m: realpos.aarnes_kadison_check(m, ALG),
    "abscissa": realpos.abscissa,
    "ba": realpos.ba,
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
    "lump_check": realpos.lump_check,
    "map_from_function": lambda m: realpos.map_from_function(lambda b: m, ALG),
    "map_from_kraus": lambda m: realpos.map_from_kraus([m], 2),
    "matrix_exp": realpos.matrix_exp,
    "membership": lambda m: realpos.membership(m, CTX),
    "operator_norm": realpos.operator_norm,
    "power": lambda m: realpos.power(m, 0.5),
    "power_all_methods": lambda m: realpos.power_all_methods(m, 0.5),
    "power_balakrishnan": lambda m: realpos.power_balakrishnan(m, 0.5),
    "power_series": lambda m: realpos.power_series(m, 0.5),
    "power_shifted": lambda m: realpos.power_shifted(m, 0.5),
    "sectorial_angle": realpos.sectorial_angle,
    "span_contains": lambda m: realpos.span_contains([GOOD], m),
    "subalgebra": lambda m: realpos.subalgebra([m]),
    "supp_order": lambda m: realpos.supp_order(m, GOOD, ALG),
    "support_function": lambda m: realpos.support_function(m, 0.0),
    "support_idem": realpos.support_idem,
    "ws_suite": lambda m: realpos.ws_suite(m, ALG),
    # public methods
    "AmbientContext.compress": CTX.compress,
    "AmbientContext.embed": CTX.embed,
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
    "diagonal_algebra", "full_context", "full_matrix_algebra",
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


# a well-formed matrix of the wrong size: InputError, not a bare numpy
# ValueError from a matmul or reshape (InputError subclasses ValueError)
PROPER = identity_map(diagonal_algebra(2))  # a map on a proper domain


@pytest.mark.parametrize("call", [
    lambda: realpos.span_contains([GOOD], np.eye(3)),
    lambda: realpos.span_contains([GOOD, np.eye(3)], GOOD),
    lambda: realpos.spans_equal([GOOD], [np.eye(3)]),
    lambda: ALG.coords(np.eye(3)),
    lambda: ALG.project(np.eye(3)),
    lambda: ALG.contains(np.eye(3)),
    lambda: realpos.span_contains(ALG, np.eye(3)),
    lambda: transpose_map(2).apply(np.eye(3)),
    lambda: PROPER.apply(np.eye(3)),
    lambda: amplify(transpose_map(2), 2).apply(np.eye(3)),
    lambda: amplify(PROPER, 2).apply(np.eye(3)),
])
def test_span_functions_reject_mixed_sizes(call):
    with pytest.raises(InputError):
        call()


NOT_NUMBERS = ["0.5", "abc", True, None]
BAD_POSITIVE_REALS = [np.nan, np.inf, -np.inf, 0.0, -1.0, 1j, *NOT_NUMBERS]

# scalar parameter -> (call, values it refuses, message)
SCALAR_CALLS = {
    **{f"{name}.r": (lambda v, f=getattr(realpos, name): f(GOOD, v),
                     [*BAD_POSITIVE_REALS, 1.5], r"exponent r must lie in \(0\.0, 1\.0\]")
       for name in ("power", "power_all_methods", "power_balakrishnan",
                    "power_series", "power_shifted")},
    "support_function.theta": (lambda v: realpos.support_function(GOOD, v),
                               [np.nan, np.inf, 1j, *NOT_NUMBERS],
                               "theta must be finite, a real number"),
    "dist_to_point.z": (lambda v: realpos.dist_to_point(GOOD, v),
                        [np.nan, complex(0.0, np.inf), *NOT_NUMBERS],
                        "z must be finite, a complex number"),
}


@pytest.mark.parametrize("name, value", [
    pytest.param(name, v, id=f"{name}-{v!r}")
    for name, (_, values, _) in SCALAR_CALLS.items() for v in values])
def test_scalar_parameters_must_be_finite_positive_reals(name, value):
    """Each scalar parameter refuses with InputError what is not a finite
    number in its range: a string, None, a bool, and a complex where a
    real is due, before float() or complex() can read it."""
    call, _, message = SCALAR_CALLS[name]
    with pytest.raises(InputError, match=message):
        call(value)


@pytest.mark.parametrize("tol", ["x", 1e-3, {"eq_tol": 1e-9}], ids=repr)
@pytest.mark.parametrize("call", [
    lambda t: realpos.power(GOOD, 0.5, tol=t),
    lambda t: realpos.rcp_test(identity_map(ALG), tol=t),
    lambda t: realpos.run_suite("lump", 0, 1, 2, t),
], ids=["power", "rcp_test", "run_suite"])
def test_tol_must_be_a_tolerances_bundle_or_none(call, tol):
    with pytest.raises(InputError, match="tol must be a Tolerances or None"):
        call(tol)


def _nan_action():
    a = np.eye(4, dtype=complex)
    a[1, 2] = np.nan
    return a


@pytest.mark.parametrize("action", [_nan_action(), np.full((4, 4), np.inf), "abc",
                                    [[1, 2], [3]], np.eye(3)],
                         ids=["nan", "inf", "string", "ragged", "wrong_shape"])
def test_map_action_must_be_a_finite_complex_matrix_of_its_shape(action):
    with pytest.raises(InputError, match="action"):
        realpos.LinearMapOnAlgebra(ALG, ALG, action)


@pytest.mark.parametrize("domain, codomain", [([GOOD], ALG), (ALG, [GOOD]), (ALG, None)],
                         ids=["list_domain", "list_codomain", "none_codomain"])
def test_map_domain_and_codomain_must_be_subalgebra_bases(domain, codomain):
    with pytest.raises(InputError, match="must be a SubalgebraBasis"):
        realpos.LinearMapOnAlgebra(domain, codomain, np.eye(4))


@pytest.mark.parametrize("alpha, beta", [(np.nan, 1.0), (1.0, np.inf), ("abc", 1.0)])
def test_map_affine_combo_rejects_non_finite_coefficients(alpha, beta):
    with pytest.raises(InputError, match="alpha and beta must be finite numbers"):
        map_affine_combo(identity_map(ALG), alpha, beta)


MAP = identity_map(ALG)

# public entry -> (call with v as its context, algebra or map argument,
# the type that argument needs)
TYPED_CALLS = {
    **{f"{name}.ctx": (lambda v, f=getattr(realpos, name): f(GOOD, v), "AmbientContext")
       for name in ("ba", "chaccr_verify", "decompose_halfF", "f_inverse", "f_transform",
                    "lump_check", "membership", "support_idem")},
    **{f"{name}.ctx": (lambda v, f=getattr(realpos, name): f(GOOD, 0.5, ctx=v),
                       "AmbientContext")
       for name in ("power", "power_all_methods", "power_balakrishnan", "power_series",
                    "power_shifted")},
    "subalgebra.ambient": (lambda v: realpos.subalgebra([GOOD], ambient=v), "AmbientContext"),
    **{f"{name}.algebra": (lambda v, f=getattr(realpos, name): f(GOOD, v), "SubalgebraBasis")
       for name in ("aarnes_kadison_check", "hsa_from_z", "ws_suite")},
    "supp_order.algebra": (lambda v: realpos.supp_order(GOOD, GOOD, v), "SubalgebraBasis"),
    "identity_map.algebra": (identity_map, "SubalgebraBasis"),
    "map_from_function.domain": (lambda v: realpos.map_from_function(lambda b: b, v),
                                 "SubalgebraBasis"),
    "map_from_function.codomain": (lambda v: realpos.map_from_function(lambda b: b, ALG, v),
                                   "SubalgebraBasis"),
    "build_symmetric_projection.algebra": (
        lambda v: realpos.build_symmetric_projection(MAP, GOOD, v), "SubalgebraBasis"),
    **{f"{name}.map": (getattr(realpos, name), "LinearMapOnAlgebra")
       for name in ("choi_matrix", "classify_projection", "is_cp", "kraus_factor",
                    "op_norm_estimate", "rcp_test")},
    "amplify.map": (lambda v: amplify(v, 2), "LinearMapOnAlgebra"),
    "map_affine_combo.map": (lambda v: map_affine_combo(v, 1.0, -2.0), "LinearMapOnAlgebra"),
    "build_symmetric_projection.theta": (
        lambda v: realpos.build_symmetric_projection(v, GOOD, ALG), "LinearMapOnAlgebra"),
}

# wrong values: the two other kinds of typed argument, a string, a list of
# matrices and a number
WRONG_TYPES = {"context": CTX, "algebra": ALG, "map": MAP,
               "str": "c", "list": [GOOD], "float": 0.5}


@pytest.mark.parametrize("name, bad", [
    pytest.param(name, bad, id=f"{name}-{bad}")
    for name, (_, needs) in TYPED_CALLS.items() for bad, v in WRONG_TYPES.items()
    if type(v).__name__ != needs])
def test_typed_arguments_reject_other_types(name, bad):
    """A context, algebra or map argument of another type raises InputError
    naming the type it needs, not an AttributeError from inside."""
    call, needs = TYPED_CALLS[name]
    with pytest.raises(InputError, match=f"must be an? {needs}"):
        call(WRONG_TYPES[bad])


def test_ba_names_its_ambient_argument():
    # ba calls its context ambient, and the message of a wrong one says so
    with pytest.raises(InputError, match="^ambient must be an AmbientContext or None, got str"):
        realpos.ba(GOOD, ambient="c")
