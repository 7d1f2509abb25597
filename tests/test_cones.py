"""Cone membership, the five-way accretivity characterisation, scaling
maps between the cones, order helpers, and corner (relative-unit)
contexts."""
import warnings

import numpy as np
import pytest

from realpos.cones import (
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
from realpos.errors import InputError, NumericError, PreconditionError
from realpos.linalg import (
    Tolerances,
    matrix_exp,
    operator_norm,
    random_accretive,
    random_contraction,
    random_matrix,
)
from realpos.numrange import abscissa


def test_membership_diagonal_cases():
    ctx = full_context(2)
    eye = np.eye(2, dtype=complex)
    m = membership(eye, ctx)
    assert m.in_F and m.in_r
    # ||e - 2e|| = 1: still inside F (boundary)
    m2 = membership(2 * eye, ctx)
    assert m2.in_F and m2.in_r and m2.boundary
    # ||e - 3e|| = 2 > 1: accretive but outside F
    m3 = membership(3 * eye, ctx)
    assert not m3.in_F and m3.in_r
    # not accretive at all
    m4 = membership(-eye, ctx)
    assert not m4.in_F and not m4.in_r


def test_membership_F_implies_accretive():
    # forced implication even with numerically marginal inputs
    rng = np.random.default_rng(0)
    ctx = full_context(3)
    for _ in range(50):
        x = random_matrix(3, rng)
        m = membership(x, ctx)
        if m.in_F:
            assert m.in_r


def test_in_F_in_r_wrappers():
    # the in_F and in_r verdicts of membership on the unit and on a kernel
    # projection, which lies on the boundary of both cones
    ctx = full_context(2)
    assert membership(np.eye(2, dtype=complex), ctx).in_F
    m = membership(np.diag([1.0, 0.0]).astype(complex), ctx)
    assert m.in_F and m.in_r and m.boundary


@pytest.mark.parametrize("seed", range(8))
def test_chaccr_accretive_passes(seed):
    ctx = full_context(4)
    x = random_accretive(4, seed)
    rep = chaccr_verify(x, ctx)
    assert rep.passed
    assert all(rep.verdicts.values())


def _chaccr_margins_per_t(x, eq_tol):
    """Worst margins of conditions 2-5, one t and one norm at a time: the
    loop that the stacked norms of chaccr_verify must reproduce bit for bit."""
    eye = np.eye(x.shape[0])
    nrm = operator_norm(x)
    worst = {"c2": -np.inf, "c3": -np.inf, "c4": -np.inf, "c5": -np.inf}
    for t in np.logspace(-2.0, 2.0, 20):
        slack = eq_tol * (1.0 + (nrm * t) ** 2)
        m2 = operator_norm(eye - t * x) - (1.0 + (t * nrm) ** 2) - slack
        try:
            m3 = operator_norm(matrix_exp(-t * x)) - 1.0 - slack
        except NumericError:
            m3 = np.inf
        try:
            m4 = operator_norm(np.linalg.solve(t * eye + x, eye)) - 1.0 / t - slack / t
        except np.linalg.LinAlgError:
            m4 = np.inf
        m5 = operator_norm(eye - t * x) - operator_norm(eye - t * t * (x @ x)) - slack
        for key, m in (("c2", m2), ("c3", m3), ("c4", m4), ("c5", m5)):
            worst[key] = max(worst[key], m)
    return worst


@pytest.mark.parametrize("n", [2, 4, 8])
def test_chaccr_residuals_match_per_t_loop_bitwise(n):
    rng = np.random.default_rng(n)
    t4 = np.logspace(-2.0, 2.0, 20)[4]
    inputs = [random_accretive(n, rng), random_matrix(n, rng) - 0.5 * np.eye(n),
              random_accretive(n, rng) * np.diag([1.0] * (n - 1) + [0.0]),
              -t4 * np.eye(n),       # t e + x singular at one grid point
              -10.0 * np.eye(n)]     # exp(-t x) overflows at t = 100
    for x in inputs:
        rep = chaccr_verify(x, full_context(n))
        ref = _chaccr_margins_per_t(np.asarray(x, dtype=complex), Tolerances().eq_tol)
        assert rep.residuals == {"abscissa": abscissa(x), **ref}


def test_chaccr_internal_overflow_is_numeric_error():
    # a finite PSD input whose square overflows: the failure is numeric,
    # not malformed input, and names the condition
    # and numpy emits no overflow warnings on the way
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(NumericError, match=r"chaccr_verify: condition c5"):
            chaccr_verify(1e200 * np.eye(3), full_context(3))
    # a nilpotent input whose square is 0: only the growth bound overflows
    huge_nilpotent = np.array([[0.0, 1e200], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NumericError, match=r"chaccr_verify: the growth bound"):
        chaccr_verify(huge_nilpotent, full_context(2))


@pytest.mark.parametrize("seed", range(8))
def test_chaccr_coherent_on_unconstrained(seed):
    ctx = full_context(4)
    x = random_matrix(4, seed) - 0.3 * np.eye(4)
    rep = chaccr_verify(x, ctx)
    assert rep.passed  # verdicts agree, whatever they are
    vals = set(rep.verdicts.values())
    assert len(vals) == 1


def test_chaccr_clearly_nonaccretive_all_false():
    ctx = full_context(2)
    rep = chaccr_verify(-np.eye(2, dtype=complex), ctx)
    assert rep.passed
    assert not any(rep.verdicts.values())


def test_scale_into_F_certificate():
    ctx = full_context(3)
    x = random_accretive(3, 5) * 4.0
    c, y, cert = scale_into_F(x, ctx, eps=0.5)
    assert c > 0
    assert cert <= 1e-9
    assert operator_norm(np.eye(3) - y) <= 1.0 + 1e-9
    assert operator_norm(c * y - (x + 0.5 * np.eye(3))) <= 1e-10 * (1 + operator_norm(x))


def test_scale_into_F_rejects_nonaccretive():
    ctx = full_context(2)
    with pytest.raises(PreconditionError):
        scale_into_F(-np.eye(2, dtype=complex), ctx, eps=0.5)
    with pytest.raises(InputError):
        scale_into_F(np.eye(2, dtype=complex), ctx, eps=0.0)


def test_approximate_from_F_converges():
    ctx = full_context(3)
    x = random_accretive(3, 11) * 3.0
    prev = None
    for t in (1.0, 0.1, 0.01, 0.001):
        y = approximate_from_F(x, ctx, t)
        # y = x (e + t x)^-1 is in (1/t) F and tends to x
        err = operator_norm(y - x)
        if prev is not None:
            assert err <= prev + 1e-12
        prev = err
    assert prev <= 0.01 * (1 + operator_norm(x) ** 2)


def test_order_leq_hermitian():
    a = np.diag([2.0, 3.0]).astype(complex)
    b = np.diag([1.0, 1.0]).astype(complex)
    assert order_leq(b, a)
    assert not order_leq(a, b)


def test_decompose_halfF_reconstruction():
    ctx = full_context(3)
    for seed in range(10):
        b = random_contraction(3, seed, norm=0.9)
        p, q = decompose_halfF(b, ctx)
        assert operator_norm((p - q) - b) <= 1e-13
        assert operator_norm((p + q) - np.eye(3)) <= 1e-13
        assert membership(2 * p, ctx).in_F
        assert membership(2 * q, ctx).in_F


def test_decompose_halfF_rejects_big_norm():
    ctx = full_context(2)
    with pytest.raises(PreconditionError):
        decompose_halfF(1.5 * np.eye(2, dtype=complex), ctx)


def test_upper_bound_pair_dominates():
    ctx = full_context(3)
    x = random_matrix(3, 1)
    y = random_matrix(3, 2)
    x = 0.8 * x / operator_norm(x)
    y = 0.9 * y / operator_norm(y)
    e = upper_bound_pair(x, y, ctx)
    assert order_leq(x, e)
    assert order_leq(y, e)
    with pytest.raises(PreconditionError):
        upper_bound_pair(2 * x, y, ctx)


def test_corner_context_roundtrip():
    e = np.diag([1.0, 1.0, 0.0]).astype(complex)
    ctx = corner_context(e)
    assert ctx.dim == 2
    x = np.zeros((3, 3), dtype=complex)
    x[:2, :2] = [[1.0, 0.5], [0.0, 2.0]]
    xc = ctx.compress(x)
    assert xc.shape == (2, 2)
    assert np.allclose(ctx.embed(xc), x, atol=1e-12)
    m = membership(x, ctx)
    assert m.in_r


def test_corner_context_rejects_outside_corner():
    e = np.diag([1.0, 0.0]).astype(complex)
    ctx = corner_context(e)
    y = np.array([[1.0, 0.2], [0.0, 0.0]], dtype=complex)  # couples corner to complement
    with pytest.raises(InputError):
        membership(y, ctx)


def test_corner_context_validates_projection():
    with pytest.raises(InputError):
        corner_context(np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))  # not Hermitian
    with pytest.raises(InputError):
        corner_context(np.zeros((2, 2), dtype=complex))  # rank 0


def test_chaccr_rejects_bad_grid():
    ctx = full_context(2)
    with pytest.raises(InputError):
        chaccr_verify(np.eye(2, dtype=complex), ctx, t_grid=[-1.0, 1.0])
