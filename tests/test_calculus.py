"""Fractional powers: three methods against closed-form oracles, the
F-transform, and the power-law property reports."""
import numpy as np
import pytest
import scipy.linalg as sla

from realpos.calculus import (
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
from realpos.cones import full_context
from realpos.errors import InputError, NumericError, PreconditionError
from realpos.linalg import operator_norm, random_accretive, random_unitary


def normal_power_oracle(x, r):
    """x^r for normal x via the eigendecomposition and principal scalar
    powers (branch cut on the negative axis, 0^r = 0)."""
    w, v = np.linalg.eig(x)
    pw = np.array([0.0 if abs(lam) < 1e-14 else lam ** r for lam in w])
    return v @ np.diag(pw) @ np.linalg.inv(v)


METHODS = {
    "series": power_series,
    "shifted": power_shifted,
    "balakrishnan": power_balakrishnan,
}


def test_psd_diagonal_square_root():
    x = np.diag([4.0, 1.0]).astype(complex)
    y = power_shifted(x, 0.5)
    assert np.allclose(y, np.diag([2.0, 1.0]), atol=1e-10)
    yb = power_balakrishnan(x, 0.5)
    assert np.allclose(yb, np.diag([2.0, 1.0]), atol=1e-8)


def test_series_on_F_member():
    x = np.diag([1.0, 0.5]).astype(complex)
    y = power_series(x, 0.5)
    assert np.allclose(y, np.diag([1.0, np.sqrt(0.5)]), atol=1e-10)


def test_series_rejects_outside_F():
    x = np.diag([4.0, 1.0]).astype(complex)  # ||e - x|| = 3
    with pytest.raises(PreconditionError):
        power_series(x, 0.5)


@pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
def test_unipotent_oracle(r):
    # (I + N)^r = I + r N for N^2 = 0
    x = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    expect = np.array([[1.0, r], [0.0, 1.0]], dtype=complex)
    for name, fn in METHODS.items():
        y = fn(x, r)
        assert np.allclose(y, expect, atol=1e-8), name


@pytest.mark.parametrize("r", [0.25, 0.5, 0.75])
def test_normal_matrix_oracle(r):
    rng = np.random.default_rng(3)
    u = random_unitary(3, rng)
    d = np.diag([2.0, 0.5 + 0.5j, 0.5 - 0.5j]).astype(complex)
    x = u @ d @ u.conj().T
    expect = u @ np.diag(np.diag(d) ** r) @ u.conj().T
    ys = power_shifted(x, r)
    yb = power_balakrishnan(x, r)
    assert np.allclose(ys, expect, atol=1e-9)
    assert np.allclose(yb, expect, atol=1e-7)


def test_kernel_preserved():
    x = np.diag([1.0, 0.0]).astype(complex)
    for r in (0.3, 0.5):
        y = power_shifted(x, r)
        assert np.allclose(y, x, atol=1e-9)
    # skew block with exact kernel: principal power of i is e^{i pi/4}
    z = np.diag([1.0j, 0.0]).astype(complex)
    y = power_shifted(z, 0.5)
    assert np.allclose(y, np.diag([np.exp(1j * np.pi / 4), 0.0]), atol=1e-8)


def test_power_r_equals_one_exact():
    x = random_accretive(3, 7)
    y = power(x, 1.0)
    assert np.allclose(y, x, atol=1e-14)


def test_power_rejects_nonaccretive_and_bad_r():
    x = -np.eye(2, dtype=complex)
    with pytest.raises(PreconditionError):
        power(x, 0.5)
    with pytest.raises(InputError):
        power(np.eye(2, dtype=complex), 0.0)
    with pytest.raises(InputError):
        power(np.eye(2, dtype=complex), 1.5)


def test_nilpotent_not_accretive():
    x = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(PreconditionError):
        power_shifted(x, 0.5)


def test_power_all_methods_cross_validates():
    for seed in range(5):
        x = random_accretive(4, seed)
        value, candidates, deviations, skipped = power_all_methods(x, 0.5)
        assert "shifted" in candidates
        assert "balakrishnan" in candidates
        for dev in deviations.values():
            assert dev <= 1e-6 * (1 + operator_norm(x))


def test_balakrishnan_error_estimate_flag():
    x = np.diag([2.0, 1.0]).astype(complex)
    y, est = power_balakrishnan(x, 0.5, return_estimate=True)
    assert est <= 1e-6 * operator_norm(x) ** 0.5


def test_balakrishnan_r_one_is_exact_and_bad_r_rejected():
    x = np.diag([2.0, 1.0]).astype(complex)
    assert np.allclose(power_balakrishnan(x, 1.0), x, atol=1e-14)
    with pytest.raises(InputError):
        power_balakrishnan(x, 1.5)
    with pytest.raises(InputError):
        power_balakrishnan(x, 0.0)


def test_semigroup_property():
    x = random_accretive(4, 13)
    nrm = operator_norm(x)
    a = power_shifted(x, 0.25)
    b = power_shifted(x, 0.5)
    c = power_shifted(x, 0.75)
    assert operator_norm(a @ b - c) <= 1e-7 * (1 + nrm) ** 2


def test_root_power_inverts():
    x = random_accretive(4, 21)
    nrm = operator_norm(x)
    for k in (2, 3, 4):
        y = power_shifted(x, 1.0 / k)
        assert operator_norm(np.linalg.matrix_power(y, k) - x) <= 1e-6 * (1 + nrm)


def test_f_transform_oracles():
    eye = np.eye(2, dtype=complex)
    assert np.allclose(f_transform(eye), eye / 2, atol=1e-12)
    x = np.diag([1.0, 0.0]).astype(complex)
    assert np.allclose(f_transform(x), np.diag([0.5, 0.0]), atol=1e-12)


def test_f_transform_roundtrip():
    for seed in range(10):
        x = random_accretive(3, seed) * (1 + seed % 3)
        y = f_transform(x)
        back, cond = f_inverse(y)
        assert operator_norm(back - x) <= 1e-8 * (1 + cond)


def test_f_transform_contraction_bound():
    from realpos.numrange import dist_to_point

    for seed in range(10):
        x = random_accretive(3, seed)
        y = f_transform(x)
        lhs = operator_norm(np.eye(3) - y)
        d = dist_to_point(x, -1.0)
        assert lhs <= min(1.0, 1.0 / d) + 1e-8


def test_f_inverse_rejects_singular():
    with pytest.raises(InputError):
        f_inverse(np.eye(2, dtype=complex))  # e - y = 0


def test_power_property_report_passes():
    x = random_accretive(3, 2)
    rep = power_property_report(x)
    assert rep.passed, (rep.verdicts, rep.residuals)


def test_root_bai_check_invertible():
    x = np.diag([2.0, 1.0]).astype(complex)
    rep = root_bai_check(x, n_max=64)
    assert rep.passed


def test_root_bai_check_kernel_block():
    x = np.diag([1.0, 0.0]).astype(complex)
    rep = root_bai_check(x, n_max=64)
    assert rep.passed


@pytest.mark.parametrize("r", [0.3, 0.7])
@pytest.mark.parametrize("n", [3, 6])
def test_balakrishnan_matches_scipy_fractional_power(r, n):
    for seed in range(4):
        x = random_accretive(n, 40 + seed, angle_cap=0.4 + 0.3 * seed) + 0.05 * np.eye(n)
        expect = sla.fractional_matrix_power(x, r)
        y = power_balakrishnan(x, r)
        assert operator_norm(y - expect) <= 1e-9 * (1.0 + operator_norm(expect))


def _shifted_cases(n):
    """(x, r -> x^r) pairs: invertible accretive inputs, kernel inputs
    u (B + 0) u* whose power is u (B^r + 0) u*, and at n = 3 the
    imaginary-axis spectrum u diag(i, -i, 1) u*."""
    cases = []
    for seed in range(3):
        x = random_accretive(n, 60 + seed)
        cases.append((x, lambda r, x=x: sla.fractional_matrix_power(x, r)))
    for k in sorted({1, n // 2, n - 1}):
        u = random_unitary(n, 70 + k)
        b = random_accretive(k, 80 + k) + 0.1 * np.eye(k)

        def embed(m, u=u, k=k):
            p = np.zeros((n, n), dtype=complex)
            p[:k, :k] = m
            return u @ p @ u.conj().T

        cases.append((embed(b), lambda r, b=b, embed=embed:
                      embed(sla.fractional_matrix_power(b, r))))
    if n == 3:
        u = random_unitary(3, 90)
        d = np.array([1j, -1j, 1.0])
        cases.append((u @ np.diag(d) @ u.conj().T,
                      lambda r, u=u, d=d: u @ np.diag(d ** r) @ u.conj().T))
    return cases


@pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("n", [2, 3, 4, 8])
def test_power_shifted_matches_scipy_fractional_power(n, r):
    for x, oracle in _shifted_cases(n):
        err = operator_norm(power_shifted(x, r) - oracle(r))
        assert err <= 1e-12 * (1.0 + operator_norm(x)), err
