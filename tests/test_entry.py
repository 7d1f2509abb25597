"""The one entry check for cone elements: every function that takes an
element of r or F rejects an input outside its cone with a
PreconditionError that starts with the function's name and names the
input and its residual, and rejects a matrix outside the corner of a
corner context with an InputError.  Functions that also need the input
inside a given algebra reject one outside it in the same format, with
the span residual and its bound."""
import numpy as np
import pytest

from realpos.algebra import (
    SubalgebraBasis,
    aarnes_kadison_check,
    diagonal_algebra,
    full_matrix_algebra,
    hsa_from_z,
    lump_check,
    supp_order,
    support_idem,
    ws_suite,
)
from realpos.calculus import (
    f_inverse,
    f_transform,
    power,
    power_all_methods,
    power_balakrishnan,
    power_series,
    power_shifted,
)
from realpos.cones import (
    chaccr_verify,
    corner_context,
    decompose_halfF,
    full_context,
    membership,
)
from realpos.errors import InputError, PreconditionError

# id -> (cone, input name, call(v, ctx, alg, good)); v is the input under
# test, good an accretive F element of the same ambient algebra
ENTRIES = {
    "power": ("r", "x", lambda v, ctx, alg, good: power(v, 0.5, ctx)),
    "power_series": ("F", "x", lambda v, ctx, alg, good: power_series(v, 0.5, ctx)),
    "power_shifted": ("r", "x", lambda v, ctx, alg, good: power_shifted(v, 0.5, ctx)),
    "power_balakrishnan": ("r", "x", lambda v, ctx, alg, good: power_balakrishnan(v, 0.5, ctx)),
    "power_all_methods": ("r", "x", lambda v, ctx, alg, good: power_all_methods(v, 0.5, ctx)),
    "f_transform": ("r", "x", lambda v, ctx, alg, good: f_transform(v, ctx)),
    "f_inverse": (None, "y", lambda v, ctx, alg, good: f_inverse(v, ctx)),
    "support_idem": ("r", "x", lambda v, ctx, alg, good: support_idem(v, ctx)),
    "ws_suite": ("r", "x", lambda v, ctx, alg, good: ws_suite(v, alg)),
    "hsa_from_z": ("F", "z", lambda v, ctx, alg, good: hsa_from_z(v, alg)),
    "supp_order[x]": ("r", "x", lambda v, ctx, alg, good: supp_order(v, good, alg)),
    "supp_order[y]": ("r", "y", lambda v, ctx, alg, good: supp_order(good, v, alg)),
    "aarnes_kadison_check": ("r", "x", lambda v, ctx, alg, good: aarnes_kadison_check(v, alg)),
}
# entries without a cone requirement: id -> (input name, call(v, ctx, good)),
# good an element of the corner with norm below 1
PLAIN_ENTRIES = {
    "membership": ("x", lambda v, ctx, good: membership(v, ctx)),
    "chaccr_verify": ("x", lambda v, ctx, good: chaccr_verify(v, ctx)),
    "decompose_halfF": ("b", lambda v, ctx, good: decompose_halfF(v, ctx)),
    "lump_check": ("p", lambda v, ctx, good: lump_check(v, ctx)),
}
# entries whose input must also lie in the given algebra
IN_ALGEBRA = ("ws_suite", "hsa_from_z")


def _corner():
    """The corner e M_3 e, e = diag(1, 1, 0), and its matrix-unit algebra."""
    e = np.diag([1.0, 1.0, 0.0]).astype(complex)
    ctx = corner_context(e)
    basis = []
    for i in range(2):
        for j in range(2):
            b = np.zeros((3, 3), dtype=complex)
            b[i, j] = 1.0
            basis.append(b)
    return ctx, SubalgebraBasis(basis, ambient=ctx), e


def test_the_corner_algebra_reads_its_unit_off_its_span():
    _, alg, e = _corner()
    assert np.allclose(alg.unit, e, atol=1e-12)


def _corner_refusal(name):
    """The corner refusal of the input called name, its residual labels
    named after the input too."""
    return (rf"^{name} does not lie in the corner: residuals "
            rf"\|e{name}-{name}\|=.*, \|{name}e-{name}\|=")


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_one_entry_check(entry):
    cone, name, call = ENTRIES[entry]
    who = entry.split("[")[0]
    eye = np.eye(3, dtype=complex)
    ctx, alg = full_context(3), full_matrix_algebra(3)
    if cone is None:
        # no cone requirement: a non-accretive input is computed on
        call(-eye, ctx, alg, eye)
    else:
        # -I is not accretive; 3 I is accretive but ||e - 3 I|| = 2 puts it outside F
        bad = -eye if cone == "r" else 3.0 * eye
        with pytest.raises(PreconditionError) as info:
            call(bad, ctx, alg, eye)
        msg = str(info.value)
        assert msg.startswith(f"{who} needs {name} "), msg
        assert "residual" in msg, msg

    if entry in IN_ALGEBRA:
        # the projection onto (e1 + e2)/sqrt(2) is accretive, in F and
        # idempotent, but not diagonal
        p = np.zeros((3, 3), dtype=complex)
        p[:2, :2] = 0.5
        with pytest.raises(PreconditionError) as info:
            call(p, ctx, diagonal_algebra(3), eye)
        msg = str(info.value)
        assert msg.startswith(f"{who} needs {name} in the algebra; span residual "), msg
        # p - P p holds the two off-diagonal halves: 2^{-1/2} / (1 + 1)
        assert msg.endswith(f"||{name} - P {name}||_F / (1 + ||{name}||_F) = 0.354 "
                            "exceeds 1e-07"), msg

    ctx, alg, e = _corner()
    with pytest.raises(InputError, match=_corner_refusal(name)):
        call(eye, ctx, alg, e)  # I has ex - x != 0


@pytest.mark.parametrize("entry", sorted(ENTRIES) + sorted(PLAIN_ENTRIES))
def test_wrong_size_input_is_named_in_the_sized_format(entry):
    """A 3x3 input to a context or algebra on M_2 is refused in the one
    size format of the package, under the input's own name."""
    ctx, alg, good = full_context(2), full_matrix_algebra(2), 0.5 * np.eye(2, dtype=complex)
    if entry in ENTRIES:
        _, name, call = ENTRIES[entry]
        args = (ctx, alg, good)
    else:
        name, call = PLAIN_ENTRIES[entry]
        args = (ctx, good)
    with pytest.raises(InputError, match=f"^{name} is 3x3, expected 2x2$"):
        call(np.eye(3), *args)


@pytest.mark.parametrize("entry", sorted(PLAIN_ENTRIES))
def test_plain_entry_names_its_input(entry):
    name, call = PLAIN_ENTRIES[entry]
    ctx, _, e = _corner()
    bad = np.eye(3, dtype=complex)
    bad[0, 1] = np.nan
    with pytest.raises(InputError, match=f"^{name} contains non-finite entries$"):
        call(bad, ctx, 0.5 * e)
    with pytest.raises(InputError, match=_corner_refusal(name)):
        call(np.eye(3, dtype=complex), ctx, 0.5 * e)  # I has ex - x != 0
