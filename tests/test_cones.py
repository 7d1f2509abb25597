"""Cone membership, the five-way accretivity characterisation, the
splitting into halves of F, and corner (relative-unit) contexts."""
import warnings

import numpy as np
import pytest
import scipy.linalg as sla

from realpos import cones
from realpos.cones import (
    AmbientContext,
    chaccr_verify,
    corner_context,
    decompose_halfF,
    full_context,
    membership,
)
from realpos.errors import InputError, NumericError, PreconditionError
from realpos.linalg import (
    Tolerances,
    _rounding_cut,
    operator_norm,
    random_accretive,
    random_contraction,
    random_hermitian,
    random_matrix,
    random_unitary,
)
from realpos.numrange import abscissa
from realpos.serialize import dumps_stable


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


T_GRID = np.logspace(-2.0, 2.0, 20)


def _matrix_exp_per_t(a):
    """exp(a) as chaccr_verify computed it one t at a time: the overflow
    guard on the top Hermitian-part eigenvalue, then scipy's expm."""
    if np.max(np.linalg.eigvalsh((a + a.conj().T) / 2.0)) > 700.0:
        raise NumericError("guard")
    e = sla.expm(a)
    if not np.all(np.isfinite(e)):
        raise NumericError("overflow")
    return e


def _chaccr_margins_per_t(x, eq_tol):
    """Worst margins of conditions 2-5, one t and one norm at a time: the
    loop that the stacked norms of chaccr_verify must reproduce bit for
    bit.  A t where exp(-t x) or (t e + x)^{-1} cannot be computed is
    listed as failed and left out of the worst margin (the largest double
    when every t failed).  Returns (worst, failed)."""
    eye = np.eye(x.shape[0])
    nrm = operator_norm(x)
    worst = {"c2": -np.inf, "c3": -np.inf, "c4": -np.inf, "c5": -np.inf}
    failed = {"c3": [], "c4": []}
    for t in T_GRID:
        slack = eq_tol * (1.0 + (nrm * t) ** 2)
        margins = {"c2": operator_norm(eye - t * x) - (1.0 + (t * nrm) ** 2) - slack,
                   "c5": operator_norm(eye - t * x) - operator_norm(eye - t * t * (x @ x)) - slack}
        try:
            margins["c3"] = operator_norm(_matrix_exp_per_t(-t * x)) - 1.0 - slack
        except NumericError:
            failed["c3"].append(float(t))
        try:
            margins["c4"] = operator_norm(np.linalg.solve(t * eye + x, eye)) - 1.0 / t - slack / t
        except np.linalg.LinAlgError:
            failed["c4"].append(float(t))
        for key, m in margins.items():
            worst[key] = max(worst[key], m)
    for key in failed:
        if len(failed[key]) == T_GRID.size:
            worst[key] = np.finfo(float).max
    return worst, failed


def _kernel_input(n, rng):
    """u (A (+) 0) u* with A accretive and u unitary, as calls-mixed draws
    its kernel inputs: the abscissa is 0 up to rounding, where the
    allowance of the screened t-grid is tightest."""
    k = max(1, n // 2)
    d = np.zeros((n, n), dtype=complex)
    d[:k, :k] = random_accretive(k, rng)
    u = random_unitary(n, rng)
    return u @ d @ u.conj().T


def _chaccr_inputs(n, rng):
    t4 = T_GRID[4]
    return [random_accretive(n, rng), random_matrix(n, rng) - 0.5 * np.eye(n),
            random_accretive(n, rng) * np.diag([1.0] * (n - 1) + [0.0]),
            -t4 * np.eye(n),       # t e + x singular at one grid point
            -10.0 * np.eye(n),     # exp(-t x) overflows at t = 100
            -10.0 * (np.eye(n) + np.eye(n, k=1)),  # non-normal, overflows at large t
            -1e5 * np.eye(n),      # exp(-t x) overflows at every t
            _kernel_input(n, rng),
            # accretive, so the overflow guard passes at every t, but scipy's
            # expm overflows at the large t only: the screen must fall back to
            # the whole grid to list them all
            1e38 * random_accretive(n, rng)]


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_chaccr_residuals_match_per_t_loop_bitwise(n):
    for x in _chaccr_inputs(n, np.random.default_rng(n)):
        rep = chaccr_verify(x, full_context(n))
        ref, failed = _chaccr_margins_per_t(np.asarray(x, dtype=complex), Tolerances().eq_tol)
        assert rep.residuals == {"abscissa": abscissa(x), **ref}
        # with no failed t the details are those of the per-t loop, key for key
        expect = {"t_grid_size": 20, "norm": operator_norm(x)}
        expect.update({f"{c}_failed_t": ts for c, ts in failed.items() if ts})
        assert rep.details == expect


def test_chaccr_expm_failing_at_large_t_only_is_listed_whole():
    # the input of the fallback: expm fails at some t but not at all of them,
    # and the guard trips at none
    x = 1e38 * random_accretive(4, 0)
    failed = chaccr_verify(x, full_context(4)).details["c3_failed_t"]
    assert 0 < len(failed) < T_GRID.size and failed == list(T_GRID[-len(failed):])
    assert abscissa(x) > 0


T_SUBSETS = {"all": np.arange(20), "first": np.array([0]), "last": np.array([19]),
             "scattered": np.array([1, 6, 7, 13, 19])}


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_stacked_semigroup_and_resolvents_match_per_t_loop_bitwise(n):
    for x in _chaccr_inputs(n, np.random.default_rng(10 + n)):
        xc = np.asarray(x, dtype=complex)
        eye = np.eye(n)
        for subset in T_SUBSETS.values():
            ts = T_GRID[subset]
            exps, exp_ok = cones._semigroup(xc, abscissa(xc), ts)
            invs, inv_ok = cones._resolvent(xc, ts)
            for i, t in enumerate(ts):
                try:
                    exp_ref, exp_ref_ok = _matrix_exp_per_t(-t * xc), True
                except NumericError:
                    exp_ref, exp_ref_ok = eye, False
                try:
                    inv_ref, inv_ref_ok = np.linalg.solve(t * eye + xc, eye), True
                except np.linalg.LinAlgError:
                    inv_ref, inv_ref_ok = eye, False
                assert exp_ok[i] == exp_ref_ok and np.array_equal(exps[i], exp_ref)
                assert inv_ok[i] == inv_ref_ok and np.array_equal(invs[i], inv_ref)


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_chaccr_norm_bounds_hold_on_the_computed_norms(n):
    """Every finite bound of _norm_bounds dominates the norm (or, for
    condition 5, the difference of norms) that chaccr_verify computes at
    that t, and every largest column norm over 1 + d is at most the norm:
    the screen skips a t only on these bounds.  Scales up to 1e38 (where
    expm overflows at large t) keep scipy's expm accurate.  At 1e100 it
    returns near-unit matrices where exp(-t x) underflows, which no such
    bound dominates; there the slack eq_tol (t ||x||)^2 exceeds 1e180, and
    every margin of condition 3, bound or computed, rounds to minus it."""
    rng = np.random.default_rng(40 + n)
    eye = np.eye(n)
    d = _rounding_cut(n, 1.0)
    bases = [random_accretive(n, rng), _kernel_input(n, rng),
             random_matrix(n, rng) - 0.5 * np.eye(n)]
    # positive definite, scaled so that exp(-t x) is subnormal at t = 100:
    # only the absolute allowance of its bound covers the rounding there
    h = random_hermitian(n, rng, psd=True)
    subnormal = [h * (e / (T_GRID[-1] * np.linalg.eigvalsh(h)[0])) for e in (712, 725, 730, 740)]
    for x in [s * b for b in bases for s in (1.0, 1e-6, 1e6, 1e38)] + subnormal:
        absc, nrm = abscissa(x), operator_norm(x)
        lin_s = eye - T_GRID[:, None, None] * x
        sq_s = eye - T_GRID[:, None, None] ** 2 * (x @ x)
        with np.errstate(over="ignore", invalid="ignore"):
            lin_hi, exp_hi, inv_hi, gap_hi = cones._norm_bounds(absc, nrm, T_GRID, lin_s, sq_s)
            lin_lo = np.linalg.norm(lin_s, axis=-2).max(axis=-1) / (1.0 + d)
            sq_lo = np.linalg.norm(sq_s, axis=-2).max(axis=-1) / (1.0 + d)
        for i, t in enumerate(T_GRID):
            lin, sq = operator_norm(lin_s[i]), operator_norm(sq_s[i])
            assert lin <= lin_hi[i] or not np.isfinite(lin_hi[i])
            assert lin - sq <= gap_hi[i] or not np.isfinite(gap_hi[i])
            assert lin_lo[i] <= lin or not np.isfinite(lin_lo[i])
            assert sq_lo[i] <= sq or not np.isfinite(sq_lo[i])
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    e = _matrix_exp_per_t(-t * x)
                assert operator_norm(e) <= exp_hi[i]
            except NumericError:
                pass
            if t + absc > 0:
                assert operator_norm(np.linalg.solve(t * eye + x, eye)) <= inv_hi[i]


@pytest.mark.parametrize("scale, c3_failed, c4_failed", [
    (10.0, [T_GRID[19]], []),
    (T_GRID[5], [], [T_GRID[5]]),
    (1e5, list(T_GRID), []),
])
def test_chaccr_failed_t_report_serialises(scale, c3_failed, c4_failed):
    """A t where exp(-t x) overflows or t e + x is singular fails its
    condition, is named in details, and leaves every residual finite."""
    rep = chaccr_verify(-scale * np.eye(2), full_context(2))
    assert not rep.verdicts["c1_abscissa"]
    if c3_failed:
        assert not rep.verdicts["c3_semigroup"]
    if c4_failed:
        assert not rep.verdicts["c4_resolvent"]
    assert all(np.isfinite(v) for v in rep.residuals.values())
    assert rep.details.get("c3_failed_t", []) == c3_failed
    assert rep.details.get("c4_failed_t", []) == c4_failed
    assert dumps_stable(rep.to_json_dict())


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


def test_corner_context_roundtrip():
    e = np.diag([1.0, 1.0, 0.0]).astype(complex)
    ctx = corner_context(e)
    assert ctx.dim == 2
    x = np.zeros((3, 3), dtype=complex)
    x[:2, :2] = [[1.0, 0.5], [0.0, 2.0]]
    xc = ctx._compress(x)
    assert xc.shape == (2, 2)
    assert np.allclose(ctx._embed(xc), x, atol=1e-12)
    m = membership(x, ctx)
    assert m.in_r


def test_corner_context_rejects_outside_corner():
    e = np.diag([1.0, 0.0]).astype(complex)
    ctx = corner_context(e)
    y = np.array([[1.0, 0.2], [0.0, 0.0]], dtype=complex)  # couples corner to complement
    with pytest.raises(InputError):
        membership(y, ctx)


def test_a_context_is_read_off_its_isometry():
    full = AmbientContext(3)
    assert full.isometry is None and full.dim == 3
    assert np.array_equal(full.unit, np.eye(3)) and full.unit.dtype == complex
    e = np.diag([1.0, 0.0, 1.0]).astype(complex)
    corner = corner_context(e)
    assert corner.dim == 2 and np.allclose(corner.unit, e, atol=1e-15)
    again = AmbientContext(3, corner.isometry)
    assert again.dim == 2 and np.array_equal(again.unit, corner.unit)


def test_corner_context_validates_projection():
    with pytest.raises(InputError):
        corner_context(np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex))  # not Hermitian
    with pytest.raises(InputError):
        corner_context(np.zeros((2, 2), dtype=complex))  # rank 0
