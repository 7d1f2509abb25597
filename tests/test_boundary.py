"""The public boundary: every public function or method that takes a
matrix validates it and rejects malformed input with InputError, so the
trusting internal kernels never see it."""
import inspect
import os

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
from realpos.maps import AmplifiedMap, map_affine_combo
from realpos.serialize import boundary_csv, boundary_svg, fmt_float, matrix_from_obj, matrix_to_obj

CTX = full_context(2)
ALG = full_matrix_algebra(2)
GOOD = np.eye(2, dtype=complex)

# the public classes whose constructors take caller input (the others are
# results the library builds)
CONSTRUCTORS = {"AmbientContext", "LinearMapOnAlgebra", "SubalgebraBasis", "Tolerances"}

# public name -> call with the matrix argument m in first matrix position
MATRIX_CALLS = {
    "AmbientContext": lambda m: realpos.AmbientContext(2, m),
    "LinearMapOnAlgebra": lambda m: realpos.LinearMapOnAlgebra(ALG, ALG, m),
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
    "SubalgebraBasis": lambda m: realpos.SubalgebraBasis([m]),
    "sectorial_angle": realpos.sectorial_angle,
    "span_contains": lambda m: realpos.span_contains([GOOD], m),
    "supp_order": lambda m: realpos.supp_order(m, GOOD, ALG),
    "support_function": lambda m: realpos.support_function(m, 0.0),
    "support_idem": realpos.support_idem,
    "ws_suite": lambda m: realpos.ws_suite(m, ALG),
    # public methods
    "LinearMapOnAlgebra.apply": transpose_map(2).apply,
    "AmplifiedMap.apply": amplify(transpose_map(2), 1).apply,
}

# public functions and constructors that take no matrix (sizes, seeds,
# maps, suite names, tolerances), or, for spans_equal and matrix_digest,
# lists or tuples of arrays
NO_MATRIX = {
    "Tolerances", "amplify", "block_diag_algebra", "choi_matrix", "classify_projection",
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


def _public_functions():
    return {name for name, v in vars(realpos).items()
            if not name.startswith("_") and inspect.isfunction(v)}


# public methods that take no matrix
NO_MATRIX_METHODS = {"Tolerances.as_dict", "VerificationReport.to_json_dict"}


def _public_methods():
    """Class.method for each non-underscore plain function defined by a
    public class of realpos or by maps.AmplifiedMap."""
    classes = {name: v for name, v in vars(realpos).items()
               if not name.startswith("_") and inspect.isclass(v)}
    classes["AmplifiedMap"] = AmplifiedMap
    return {f"{cname}.{name}" for cname, cls in classes.items()
            for name, v in vars(cls).items()
            if not name.startswith("_") and inspect.isfunction(v)}


def test_every_public_function_is_classified():
    functions = {name for name in MATRIX_CALLS if "." not in name}
    assert _public_functions() | CONSTRUCTORS == functions | NO_MATRIX


def test_every_public_method_is_classified():
    methods = {name for name in MATRIX_CALLS if "." in name}
    assert _public_methods() == methods | NO_MATRIX_METHODS


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
    lambda: realpos.hsa_from_z(np.eye(3), ALG),
    lambda: realpos.supp_order(GOOD, np.eye(3), ALG),
    lambda: realpos.aarnes_kadison_check(np.eye(3), ALG),
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
    "SubalgebraBasis.ambient": (lambda v: realpos.SubalgebraBasis([GOOD], ambient=v),
                                "AmbientContext"),
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


# calls whose argument must be refused with InputError by the shared
# argument rules, not accepted nor left to raise a bare TypeError or numpy
# ValueError (InputError subclasses ValueError, so pytest.raises(InputError)
# tells them apart)
LEAKS = {
    "random_accretive.angle_cap=str": (
        lambda: realpos.random_accretive(2, 0, angle_cap="x"), "^angle_cap must lie in"),
    "random_accretive.angle_cap=None": (
        lambda: realpos.random_accretive(2, 0, angle_cap=None), "^angle_cap must lie in"),
    "random_contraction.norm=str": (
        lambda: realpos.random_contraction(2, 0, norm="0.5"), "^contraction norm must lie in"),
    "random_contraction.norm=complex": (
        lambda: realpos.random_contraction(2, 0, norm=0.5j), "^contraction norm must lie in"),
    "random_hermitian.psd=str": (
        lambda: realpos.random_hermitian(3, 0, psd="no"), "^psd must be a bool"),
    "map_affine_combo.alpha=bool": (
        lambda: map_affine_combo(identity_map(ALG), True, 1.0),
        "^alpha and beta must be finite numbers"),
    "map_from_function.f=int": (
        lambda: realpos.map_from_function(5, ALG), "^f must be a Callable"),
    "run_suite.name=list": (
        lambda: realpos.run_suite(["lump"], 0, 1, 2), "^suite name must be a str"),
    "run_suites.names=str": (
        lambda: realpos.run_suites("lump", 0, 1, 2), "^names must be a list or tuple"),
    "run_suites.names=int": (
        lambda: realpos.run_suites(5, 0, 1, 2), "^names must be a list or tuple"),
    "span_contains.mats=int": (
        lambda: realpos.span_contains(5, GOOD), "^mats must be a list of matrices"),
    "spans_equal.mats_a=int": (
        lambda: realpos.spans_equal(5, [GOOD]), "^mats_a must be a list of matrices"),
    "SubalgebraBasis.basis=int": (
        lambda: realpos.SubalgebraBasis(5), "^basis must be a list of matrices"),
    "map_from_kraus.ops=int": (
        lambda: realpos.map_from_kraus(5, 2), "^kraus must be a list of matrices"),
    "build_symmetric_projection.q=3x3": (
        lambda: realpos.build_symmetric_projection(identity_map(ALG), np.eye(3), ALG),
        r"^q is 3x3, expected 2x2"),
    "support_function.theta=10**400": (lambda: realpos.support_function(GOOD, 10 ** 400),
                                       "^theta must be finite"),
    "Tolerances.eq_tol=10**400": (lambda: realpos.Tolerances(eq_tol=10 ** 400),
                                  "^tolerance eq_tol must be a finite positive real"),
    "transpose_map.n=2.5": (lambda: transpose_map(2.5), "^n must be an integer"),
    "map_from_kraus.n=2.5": (lambda: realpos.map_from_kraus([GOOD], 2.5),
                             "^n must be an integer"),
    "AmbientContext.n=2.5": (lambda: realpos.AmbientContext(2.5),
                             "^ambient dimension must be an integer"),
    "AmbientContext.n=str": (lambda: realpos.AmbientContext("x", GOOD),
                             "^ambient dimension must be an integer"),
    "AmbientContext.isometry=ones": (lambda: realpos.AmbientContext(2, isometry=np.ones((2, 1))),
                                     "^isometry must be a finite 2 x k matrix"),
    "fmt_float.x=None": (lambda: fmt_float(None), "^serialized value must be a finite real"),
    "fmt_float.x=str": (lambda: fmt_float("1.5"), "^serialized value must be a finite real"),
    "matrix_to_obj.m=str": (lambda: matrix_to_obj("x"), "^m is not convertible"),
    "boundary_csv.rb=str": (lambda: boundary_csv("x", os.devnull),
                            "^rb must be a RangeBoundary, got str"),
    "boundary_svg.rb=list": (lambda: boundary_svg([1j]), "^rb must be a RangeBoundary, got list"),
}


@pytest.mark.parametrize("name", sorted(LEAKS))
def test_argument_leaks_are_input_errors(name):
    call, message = LEAKS[name]
    with pytest.raises(InputError, match=message):
        call()


# a valid call, by keyword, of every public function, of each constructor
# in CONSTRUCTORS and of the serialize helpers that write no file; the
# sweep below swaps one argument at a time for a probe.  matrix_digest
# takes only *matrices and digests any array, so it has no row.
SWEEP_CALLS = {
    "AmbientContext": dict(n=2),
    "LinearMapOnAlgebra": dict(domain=ALG, codomain=ALG, action=np.eye(4)),
    "SubalgebraBasis": dict(basis=[GOOD]),
    "Tolerances": dict(),
    "aarnes_kadison_check": dict(x=GOOD, algebra=ALG),
    "abscissa": dict(x=GOOD),
    "amplify": dict(t_map=MAP, k=1),
    "ba": dict(x=GOOD),
    "block_diag_algebra": dict(sizes=[2]),
    "boundary": dict(x=GOOD),
    "build_symmetric_projection": dict(theta=MAP, q=GOOD, algebra=ALG),
    "chaccr_verify": dict(x=GOOD, ctx=CTX),
    "choi_matrix": dict(t_map=MAP),
    "classify_projection": dict(p_map=MAP),
    "corner_context": dict(e=GOOD),
    "decompose_halfF": dict(b=0.5 * GOOD, ctx=CTX),
    "diagonal_algebra": dict(n=2),
    "dist_to_point": dict(x=GOOD, z=-1.0),
    "f_inverse": dict(y=0.5 * GOOD),
    "f_transform": dict(x=GOOD),
    "fmt_float": dict(x=0.5),
    "full_context": dict(n=2),
    "full_matrix_algebra": dict(n=2),
    "herm_part": dict(x=GOOD),
    "hsa_from_z": dict(z=GOOD, algebra=ALG),
    "identity_map": dict(algebra=ALG),
    "is_cp": dict(t_map=MAP),
    "kraus_factor": dict(t_map=MAP),
    "lump_check": dict(p=GOOD),
    "map_affine_combo": dict(t_map=MAP, alpha=1.0, beta=-2.0),
    "map_from_function": dict(f=np.transpose, domain=ALG),
    "map_from_kraus": dict(ops=[GOOD], n=2),
    "matrix_exp": dict(x=GOOD),
    "matrix_from_obj": dict(obj=matrix_to_obj(GOOD)),
    "matrix_to_obj": dict(m=GOOD),
    "membership": dict(x=GOOD, ctx=CTX),
    "op_norm_estimate": dict(t_map=MAP),
    "operator_norm": dict(x=GOOD),
    **{name: dict(x=GOOD, r=0.5) for name in ("power", "power_all_methods",
                                               "power_balakrishnan", "power_series",
                                               "power_shifted")},
    **{name: dict(n=2, seed=0) for name in ("random_accretive", "random_contraction",
                                             "random_hermitian", "random_idempotent",
                                             "random_matrix", "random_unitary")},
    "rcp_test": dict(t_map=MAP),
    "rng_for": dict(seed=0),
    "run_suite": dict(name="lump", seed=0, count=1, n=2),
    "run_suites": dict(names=["lump"], seed=0, count=1, n=2),
    "sectorial_angle": dict(x=GOOD),
    "span_contains": dict(mats=[GOOD], m=GOOD),
    "spans_equal": dict(mats_a=[GOOD], mats_b=[GOOD]),
    "supp_order": dict(x=GOOD, y=GOOD, algebra=ALG),
    "support_function": dict(x=GOOD, theta=0.0),
    "support_idem": dict(x=GOOD),
    "transpose_map": dict(n=2),
    "ws_suite": dict(x=GOOD, algebra=ALG),
}

# a numeric string, None, a bool and a bare int
PROBES = {"str": "2", "None": None, "bool": True, "int": 2}

# the probes a parameter takes, by name or by function.name; every other
# probe, given to any parameter, is an InputError
ACCEPTS = {
    "tol": {"None"}, "ctx": {"None"}, "ambient": {"None"},
    "codomain": {"None"}, "norm": {"None"}, "rank": {"None", "int"}, "isometry": {"None"},
    "n": {"int"}, "seed": {"int"}, "count": {"int"}, "k": {"int"},
    "psd": {"bool"},
    "run_suite.name": {"str"},
    "support_function.theta": {"int"},
    "dist_to_point.z": {"int"},
    "map_affine_combo.alpha": {"int"},
    "map_affine_combo.beta": {"int"},
    "LinearMapOnAlgebra.codomain": set(),
    **{f"Tolerances.{p}": {"int"} for p in ("eq_tol", "psd_tol", "conv_tol")},
    "fmt_float.x": {"int"},
}

# swept callables that are not top-level names of realpos
NOT_TOP_LEVEL = {f.__name__: f for f in (map_affine_combo, fmt_float, matrix_from_obj,
                                         matrix_to_obj)}


def _sweep_function(name):
    return NOT_TOP_LEVEL[name] if name in NOT_TOP_LEVEL else getattr(realpos, name)


def _sweep_parameters():
    for name in sorted(SWEEP_CALLS):
        for p in inspect.signature(_sweep_function(name)).parameters.values():
            yield name, p.name


def test_the_sweep_covers_every_public_function():
    swept = _public_functions() | CONSTRUCTORS | set(NOT_TOP_LEVEL)
    assert swept == set(SWEEP_CALLS) | {"matrix_digest"}
    for name, kwargs in SWEEP_CALLS.items():
        params = inspect.signature(_sweep_function(name)).parameters.values()
        assert all(p.kind == p.POSITIONAL_OR_KEYWORD for p in params), name
        required = {p.name for p in params if p.default is p.empty}
        assert required <= set(kwargs) <= {p.name for p in params}, name


@pytest.mark.parametrize("name", sorted(SWEEP_CALLS))
def test_the_sweep_base_calls_succeed(name):
    _sweep_function(name)(**SWEEP_CALLS[name])


@pytest.mark.parametrize("name, param", [pytest.param(f, p, id=f"{f}.{p}")
                                         for f, p in _sweep_parameters()])
def test_every_parameter_refuses_probes_of_the_wrong_kind(name, param):
    """A str, None, a bool or a bare int given to a parameter that does not
    take it raises InputError, not a TypeError or numpy ValueError from
    inside, and is not accepted."""
    accepts = ACCEPTS.get(f"{name}.{param}", ACCEPTS.get(param, set()))
    leaks = []
    for kind, probe in PROBES.items():
        if kind in accepts:
            continue
        try:
            _sweep_function(name)(**{**SWEEP_CALLS[name], param: probe})
        except InputError:
            continue
        except Exception as exc:  # any other exception is the leak
            leaks.append(f"{kind}: {type(exc).__name__}: {exc}")
        else:
            leaks.append(f"{kind}: accepted")
    assert not leaks, leaks
