"""Fractional powers: three methods against closed-form oracles, the
F-transform, and the laws of the power functional calculus."""
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from realpos import calculus
from realpos.calculus import (
    f_inverse,
    f_transform,
    power,
    power_all_methods,
    power_balakrishnan,
    power_series,
    power_shifted,
)
from realpos.cones import corner_context, full_context, membership
from realpos.errors import InputError, NumericError, PreconditionError
from realpos.linalg import (Tolerances, _rounding_cut, operator_norm, random_accretive,
                            random_unitary)


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
    _, est, _ = calculus._Deflation(x, Tolerances()).balakrishnan(0.5)
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


GRID = [k / 10 for k in range(1, 10)]


def _semigroup(x):
    """||x^s x^u - x^{s+u}|| over s <= u, s + u <= 1, and its bound."""
    pw = {k: power(x, k / 10) for k in range(1, 11)}
    worst = max(operator_norm(pw[i] @ pw[j] - pw[i + j])
                for i in range(1, 10) for j in range(i, 11 - i))
    return worst, 1e-7 * (1.0 + operator_norm(x)) ** 2


def _scaling(x):
    """||(2x)^u - 2^u x^u|| over the grid, and its bound."""
    worst = max(operator_norm(power(2.0 * x, u) - 2.0 ** u * power(x, u)) for u in GRID)
    return worst, 1e-7 * 3.0 * (1.0 + operator_norm(x))


def _iterated(x):
    """||(x^u)^{1/2} - x^{u/2}|| and ||x^u x^u - x^{2u}|| on an F element,
    and their bound."""
    worst = 0.0
    for u in (0.2, 0.5, 0.8):
        xu = power(x, u)
        worst = max(worst, operator_norm(power(xu, 0.5) - power(x, u / 2.0)))
        if 2.0 * u <= 1.0:
            worst = max(worst, operator_norm(xu @ xu - power(x, 2.0 * u)))
    return worst, 1e-6 * (1.0 + operator_norm(x))


def _integral_bound(x):
    """||x^u|| - sin(pi u)/(pi u (1 - u)) ||x||^u over the grid, and its slack."""
    nrm = operator_norm(x)
    worst = max(operator_norm(power(x, u))
                - math.sin(math.pi * u) / (math.pi * u * (1.0 - u)) * nrm ** u for u in GRID)
    return worst, 1e-8


def _drury_bound(x):
    """||x^u|| - Gamma(u/2) Gamma((1-u)/2) / (2 sqrt(pi) Gamma(u) Gamma(1-u))
    over the grid for a contraction, and its slack."""
    g = math.gamma
    worst = max(operator_norm(power(x, u))
                - g(u / 2.0) * g((1.0 - u) / 2.0) / (2.0 * math.sqrt(math.pi) * g(u) * g(1.0 - u))
                for u in GRID)
    return worst, 1e-8


@pytest.mark.parametrize("law", [_semigroup, _scaling, _iterated, _integral_bound, _drury_bound],
                         ids=lambda f: f.__name__[1:])
def test_power_laws_on_the_exponent_grid(law):
    """The functional-calculus laws of x^u for an accretive x; the iterated
    roots and Drury's bound need an F element of norm at most 1, which F(x)/2
    is (F(x) lies in F, and F is convex and contains 0)."""
    x = random_accretive(3, 2)
    if law in (_iterated, _drury_bound):
        x = f_transform(x) / 2.0
        assert membership(x, full_context(3)).in_F and operator_norm(x) <= 1.0
    worst, bound = law(x)
    assert worst <= bound


@pytest.mark.parametrize("x, tol", [
    pytest.param(np.diag([2.0, 1.0]).astype(complex), None, id="invertible"),
    pytest.param(np.diag([1.0, 0.0]).astype(complex), None, id="kernel-block"),
    pytest.param(np.array([[-1e-7, 0.0, 0.0], [0.0, 1.0, 0.3], [0.0, 0.0, 2.0]], dtype=complex),
                 Tolerances(psd_tol=1e-6), id="loose-psd-tol"),
])
def test_roots_are_an_approximate_identity(x, tol):
    """||x^{1/n} x - x|| along n = 2, 4, ..., 1024 decays like
    ||x|| |log(spectral floor)| / n, an O(1/n) envelope and no faster: each
    step at most 5 % above the last, and the last below
    1e-6 + 40 (1 + ||x||) / 1024.  (A fixed 1e-6 at n = 1024 is out of reach
    already for diag(1, 1/2), whose residual there is 3.4e-4.)"""
    seq = [operator_norm(power_shifted(x, 2.0 ** -k, tol=tol) @ x - x) for k in range(1, 11)]
    assert all(b <= a * 1.05 + 1e-12 for a, b in zip(seq, seq[1:])), seq
    assert seq[-1] <= 1e-6 + 40.0 * (1.0 + operator_norm(x)) / 1024


@pytest.mark.parametrize("r", [0.3, 0.7])
@pytest.mark.parametrize("n", [3, 6, 16])
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


def _deflation_cases():
    """(x, ctx, corner coordinates) for an invertible input, a kernel
    input u (B + 0) u* and an element of the corner e M_4 e."""
    x_inv = random_accretive(4, 101)
    u = random_unitary(4, 102)
    d = np.zeros((4, 4), dtype=complex)
    d[:2, :2] = random_accretive(2, 103) + 0.1 * np.eye(2)
    x_ker = u @ d @ u.conj().T
    e = u @ np.diag([1.0, 1.0, 1.0, 0.0]) @ u.conj().T
    d = np.zeros((4, 4), dtype=complex)
    d[:3, :3] = random_accretive(3, 104)
    x_cor = u @ d @ u.conj().T
    cases = [(x_inv, full_context(4), x_inv), (x_ker, full_context(4), x_ker)]
    ctx = corner_context(e)
    cases.append((x_cor, ctx, ctx._compress(x_cor)))
    return cases


def test_one_deflation_gives_every_shifted_power_bitwise():
    t = Tolerances()
    for x, ctx, xc in _deflation_cases():
        d = calculus._Deflation(xc, t)
        for r in (0.25, 0.5, 0.75, 1.0):
            assert np.array_equal(ctx._embed(d.shifted(r)), power_shifted(x, r, ctx, tol=t)), r
        y, _, _ = d.balakrishnan(0.5)
        assert np.array_equal(ctx._embed(y), power_balakrishnan(x, 0.5, ctx, tol=t))


@pytest.mark.parametrize("k", [1, 2, 4, 16])
def test_upper_triangular_stack_solve_matches_general_solve(k):
    t11 = sla.schur(random_accretive(k, 110 + k) + 0.05 * np.eye(k), output="complex")[0]
    s = np.logspace(-6, 6, 25)
    one = np.ones_like(s)
    eye = np.eye(k, dtype=complex)
    for shift, scale in ((s, one), (one, s)):
        lhs = shift[:, None, None] * eye + scale[:, None, None] * t11
        got = np.moveaxis(calculus._solve_shifted_stack(t11, shift, scale), -1, 0)
        ref = np.linalg.solve(lhs, t11)
        err = np.linalg.norm(got - ref, axis=(1, 2)) / np.linalg.norm(ref, axis=(1, 2))
        assert err.max() <= 1e-12, err.max()


@pytest.mark.parametrize("r", [0.3, 0.7])
@pytest.mark.parametrize("k", [1, 4, 16])
def test_balakrishnan_rule_pair_matches_separate_rules(k, r):
    """The 32- and 64-node rules from one node stack equal each rule
    solved and contracted on its own."""
    t11 = sla.schur(random_accretive(k, 120 + k) + 0.05 * np.eye(k), output="complex")[0]
    pair = calculus._balakrishnan_rules(t11, r, (32, 64))
    for got, nodes in zip(pair, (32, 64)):
        ref = calculus._balakrishnan_rules(t11, r, (nodes,))[0]
        assert np.linalg.norm(got - ref) <= 1e-14 * np.linalg.norm(ref), nodes


BAL_EXPONENTS = [0.02, 0.3, 0.5, 0.7, 0.98]


def _jacobi_table(degree: int, r: float, u: np.ndarray) -> np.ndarray:
    """P_m^(-r, r-1)(u) for m = 0 .. degree, a row per degree, by the
    three-term recurrence of DLMF 18.9.2 at alpha + beta = -1."""
    a, b = -r, r - 1.0
    p = np.empty((degree + 1, u.size))
    p[0], p[1] = 1.0, (1.0 - r) + (u - 1.0) / 2.0
    for m in range(2, degree + 1):
        p[m] = ((2 * m - 2) * ((2 * m - 1) * (2 * m - 3) * u + a * a - b * b) * p[m - 1]
                - 2 * (m + a - 1) * (m + b - 1) * (2 * m - 1) * p[m - 2]) / (
                    2 * m * (m - 1) * (2 * m - 3))
    return p


@pytest.mark.parametrize("r", BAL_EXPONENTS)
@pytest.mark.parametrize("nodes", [32, 64, 1024])
def test_gauss_jacobi_rule_is_exact_to_degree_2n_minus_1(nodes, r):
    """The weights sum to 1, and the rule integrates the Jacobi
    polynomials P_m^(-r, r-1), 1 <= m <= 2N - 1, to their exact value 0.
    The polynomials come from scipy's eval_jacobi; at N = 1024, where it
    costs O(m) per value (about 20 s), from the recurrence, pinned to
    eval_jacobi at its first and last degrees."""
    u, w = calculus._gauss_jacobi(nodes, r)
    assert abs(w.sum() - 1.0) <= 1e-14
    top = 2 * nodes - 1
    if nodes <= 64:
        p = scipy.special.eval_jacobi(np.arange(1, top + 1)[:, None], -r, r - 1.0, u)
    else:
        p = _jacobi_table(top, r, u)[1:]
        for m in (1, 2, top - 1, top):
            ref = scipy.special.eval_jacobi(m, -r, r - 1.0, u)
            assert np.abs(p[m - 1] - ref).max() <= 1e-14 * m, m
    assert np.abs(p @ w).max() <= 2e-15 * nodes


def _balakrishnan_hard_cases():
    """Spectra that stretch the quadrature: unitarily similar geometric
    spectra of spread 1e2 .. 1e10 centred on 1 at n = 8 (at 1e10 the
    default zero cut 1e-9 (1 + ||x||) takes the smallest eigenvalue for
    kernel, so both routes see a spread of 3.7e8), a pair near the
    imaginary axis {1e-3 +- i y, 1, 2}, the imaginary-dominated
    1e-2 I + 50 i (G + G*), and scaled unipotents s (I + N)."""
    cases = []
    u = random_unitary(8, 130)
    for spread in (1e2, 1e6, 1e8, 1e10):
        lam = np.geomspace(spread ** -0.5, spread ** 0.5, 8)
        cases.append((f"spread {spread:g}", u @ np.diag(lam) @ u.conj().T))
    for y in (1e-2, 1e4):
        u = random_unitary(4, 131)
        lam = np.array([1e-3 + 1j * y, 1e-3 - 1j * y, 1.0, 2.0])
        cases.append((f"near axis y={y:g}", u @ np.diag(lam) @ u.conj().T))
    rng = np.random.default_rng(132)
    g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    cases.append(("imaginary", 1e-2 * np.eye(6) + 50j * (g + g.conj().T)))
    unipotent = np.eye(3) + np.triu(np.ones((3, 3)), 1)
    for s in (1e-6, 1e6):
        cases.append((f"unipotent x {s:g}", s * unipotent.astype(complex)))
    return cases


BAL_HARD_CASES = _balakrishnan_hard_cases()


# invertible spectra that the zero cut keeps whole: scipy's Schur-Pade
# fractional_matrix_power (Higham and Lin, 2011) shares no deflation with
# the two routes, so it checks them independently
ORACLE_CASES = ("spread 100", "spread 1e+06", "spread 1e+08")


@pytest.mark.parametrize("r", BAL_EXPONENTS)
@pytest.mark.parametrize("name,x", BAL_HARD_CASES, ids=[name for name, _ in BAL_HARD_CASES])
def test_balakrishnan_resolves_hard_spectra(name, x, r):
    y = power_balakrishnan(x, r)
    tol = 1e-6 * (1.0 + operator_norm(x))
    err = operator_norm(y - power_shifted(x, r))
    assert err <= tol, err
    if name in ORACLE_CASES:
        err = operator_norm(y - sla.fractional_matrix_power(x, r))
        assert err <= tol, err


@pytest.mark.xfail(strict=True, reason="the zero cut 1e-9 (1 + ||x||) of the power routes "
                   "takes the eigenvalue 1e-5 of spread 1e10 for kernel, and both routes share it")
def test_balakrishnan_spread_1e10_matches_scipy_at_small_r():
    """Off the oracle by 0.79 against the tolerance 0.1 at r = 0.02: the
    dropped eigenvalue sits at 0.09999 x the cut, just below the window."""
    x = dict(BAL_HARD_CASES)["spread 1e+10"]
    err = operator_norm(power_balakrishnan(x, 0.02) - sla.fractional_matrix_power(x, 0.02))
    assert err <= 1e-6 * (1.0 + operator_norm(x)), err


@pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("s", [1e-6, 1e6])
def test_balakrishnan_is_scale_covariant(s, r):
    """(s x)^r = s^r x^r: the map's scale c follows the spectrum, so the
    same rule resolves x and s x."""
    for x in (np.eye(3) + np.triu(np.ones((3, 3)), 1), random_accretive(5, 133)):
        x = x.astype(complex)
        ref = s ** r * power_balakrishnan(x, r)
        err = operator_norm(power_balakrishnan(s * x, r) - ref)
        assert err <= 1e-12 * operator_norm(ref), err


def test_series_converges_on_a_spectrum_near_its_boundary():
    """||(e - x)^j|| = 0.99^j decays geometrically, so the series stops
    near K = 2000, far inside its budget."""
    y = power_series(np.diag([1.0, 0.01]).astype(complex), 0.5)
    assert np.abs(y - np.diag([1.0, 0.1])).max() <= 1e-10


def _kernel_F_inputs():
    """diag(1, 0) and u (A + 0) u* with A = F(random accretive) in F."""
    u = random_unitary(4, 130)
    d = np.zeros((4, 4), dtype=complex)
    d[:3, :3] = f_transform(random_accretive(3, 131))
    return [np.diag([1.0, 0.0]).astype(complex), u @ d @ u.conj().T]


@pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
def test_series_refuses_kernel_input_before_the_first_term(monkeypatch, r):
    t = Tolerances()
    for x in _kernel_F_inputs():
        d = calculus._Deflation(x, t)
        assert abs(d.series_radius - 1.0) <= 1e-15  # split before _norm2 is patched

        def no_term(m):
            raise AssertionError("a series term was computed")

        with monkeypatch.context() as mp:
            mp.setattr(calculus, "_norm2", no_term)
            with pytest.raises(NumericError, match="spectral radius 1"):
                calculus._power_series(d, r)
        with pytest.raises(NumericError, match="spectral radius 1"):
            power_series(x, r)


# the refusal of diag(1, 5e-9, 1.5e-9) and diag(1, 1e-9) by the Schur split
_SPLIT_REFUSAL = (r"zero cluster split is ambiguous: (1\.5e-09|1e-09) lies within 10x below "
                  r"the cut 1e-09 x scale 2")


@pytest.mark.parametrize("route", [power, power_shifted, power_balakrishnan,
                                   power_all_methods])
def test_power_routes_refuse_an_unseparated_zero_cluster(route):
    """1.5e-9 (and 1e-9) sits in the window (2e-10, 2e-9] below the zero
    cut 2e-9: every power route refuses it, as support_idem does, instead
    of returning a power that depends on where the cut falls."""
    for x in (np.diag([1.0, 5e-9, 1.5e-9]), np.diag([1.0, 1e-9])):
        with pytest.raises(NumericError, match=_SPLIT_REFUSAL):
            route(x.astype(complex), 0.5)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just(0.0), st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e)),
                min_size=2, max_size=6))
def test_zero_rule_refuses_whatever_the_old_separation_guard_refused(mags):
    """The retired guard refused a split whose smallest kept |eigenvalue|
    was within 6x of the largest cut one.  That cut one then lies above a
    sixth of the cut, so in the window, and the rule refuses too; on a
    diagonal input it refuses exactly when a cut value is in the window."""
    nrm = max(mags)
    zero_cut = 1e-9 * (1.0 + nrm)
    kept = [m for m in mags if m > zero_cut]
    cut = [m for m in mags if m <= zero_cut]
    old_refuses = bool(kept and cut and min(kept) <= 6.0 * max(cut))
    try:
        calculus._split_zero_cluster(np.diag(mags).astype(complex), nrm)
        refuses = False
    except NumericError:
        refuses = True
    assert refuses or not old_refuses
    assert refuses == any(zero_cut / 10.0 < m <= zero_cut for m in mags)


def test_power_all_methods_skips_series_on_kernel_input():
    for x in _kernel_F_inputs():
        value, candidates, _, skipped = power_all_methods(x, 0.5)
        assert "series" not in candidates and "spectral radius" in skipped["series"]
        assert np.array_equal(value, power_shifted(x, 0.5))


@pytest.mark.parametrize("r", [0.1, 0.5, 0.9])
def test_series_tail_closed_form_matches_recurrence(r):
    b, tail = r, 1.0 - r
    closed = calculus._series_tail(r, np.arange(1, 2001))
    for k in range(1, 2001):
        assert abs(closed[k - 1] - tail) <= 1e-10 * tail, k
        b *= (k - r) / (k + 1)
        tail -= b


@pytest.mark.parametrize("r", [0.02, 0.3, 0.5, 0.98])
def test_series_tail_at_the_budget_matches_the_product_form(r):
    """tail_K = prod_{k<=K} (1 - r/k), summed in logarithms exactly rounded."""
    ref = math.exp(math.fsum(math.log1p(-r / k) for k in range(1, 200_001)))
    assert abs(calculus._series_tail(r, 200_000) - ref) <= 1e-8 * ref


def test_import_leaves_scipy_special_unloaded():
    """The CLI imports no scipy.special, unless scipy.linalg itself does."""
    # a fresh interpreter that imports the realpos this test imported
    src = str(Path(calculus.__file__).resolve().parents[1])

    def loads_special(module):
        probe = (f"import sys; sys.path.insert(0, {src!r}); import {module}; "
                 "print('scipy.special' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", probe], check=True,
                             capture_output=True, text=True).stdout
        return out.strip() == "True"

    if loads_special("scipy.linalg"):
        pytest.skip("this scipy loads scipy.special with scipy.linalg")
    assert not loads_special("realpos.cli")


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_chain_matches_an_unscreened_root_loop(n, seed):
    """The screened chain takes the roots, and returns the b and ||I - b||,
    of the loop that takes an SVD after every root."""
    d = calculus._Deflation(10.0 ** (2 * seed) * random_accretive(n, seed), Tolerances())
    b = d._split[1]
    eye = np.eye(len(b), dtype=complex)
    sqrts, e_norm = 0, operator_norm(eye - b)
    while e_norm > 0.3:
        b = calculus._sqrtm_tri(b)
        sqrts += 1
        e_norm = operator_norm(eye - b)
    chain_b, chain_sqrts, chain_norm = d._chain
    assert (chain_sqrts, chain_norm) == (sqrts, e_norm)
    assert np.array_equal(chain_b, b)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n", [2, 3, 4, 8, 16])
def test_sqrtm_tri_is_an_upper_triangular_root_to_working_precision(n, seed):
    t11 = calculus._Deflation(random_accretive(n, seed), Tolerances())._split[1]
    root = calculus._sqrtm_tri(t11)
    assert root.dtype == np.complex128 and root.shape == t11.shape
    assert np.all(np.tril(root, -1) == 0)
    bound = _rounding_cut(n, operator_norm(t11))
    assert operator_norm(root @ root - t11) <= bound
    assert np.all(np.diag(root).real > 0)  # the principal branch


@pytest.mark.parametrize("value", [0.0, -0.0])
@pytest.mark.parametrize("where", [0, 1, 2])
def test_sqrtm_tri_refuses_a_zero_diagonal_entry(where, value):
    t = np.triu(np.ones((3, 3), dtype=complex))
    t[where, where] = value
    with pytest.raises(NumericError, match="vanishing eigenvalue pair"):
        calculus._sqrtm_tri(t)


def test_sqrtm_tri_refuses_a_pair_across_the_branch_cut():
    # -1 + 0j and -1 - 0j have roots i and -i, so r_00 + r_11 = 0
    t = np.array([[-1.0 + 0.0j, 1.0], [0.0, complex(-1.0, -0.0)]])
    with pytest.raises(NumericError, match="vanishing eigenvalue pair"):
        calculus._sqrtm_tri(t)


@pytest.mark.parametrize("imag", [0.0, -0.0])
def test_sqrtm_tri_gives_a_lone_negative_eigenvalue_its_principal_root(imag):
    t = np.array([[complex(-2.0, imag), 1.0, 0.5], [0.0, 3.0, 1.0], [0.0, 0.0, complex(-5.0, imag)]])
    root = calculus._sqrtm_tri(t)
    assert np.array_equal(np.diag(root), np.sqrt(np.diag(t)))
    assert np.allclose(root @ root, t, atol=1e-14)


def test_a_small_negative_eigenvalue_admitted_by_a_loose_psd_tol_keeps_its_root():
    """Tolerances(psd_tol=1e-6) admits an eigenvalue -1e-7, above the zero
    cut, into the square-root chain: the routes return its principal power
    (i sqrt(1e-7) at r = 1/2) instead of refusing."""
    tol = Tolerances(psd_tol=1e-6)
    x = np.diag([-1e-7, 1.0, 2.0]).astype(complex)
    x[1, 2] = 0.3
    expected = np.array([[1j * np.sqrt(1e-7), 0.0, 0.0],
                         [0.0, 1.0, 0.3 / (1.0 + np.sqrt(2.0))],
                         [0.0, 0.0, np.sqrt(2.0)]])
    for value in (power_shifted(x, 0.5, tol=tol), power(x, 0.5, tol=tol)):
        assert operator_norm(value - expected) <= 1e-12


def test_sqrtm_tri_takes_the_principal_root_next_to_the_negative_axis():
    t = np.array([[complex(-1.0, 1e-12), 1.0], [0.0, 4.0]])
    root = calculus._sqrtm_tri(t)
    assert root[0, 0].real > 0 and np.allclose(root @ root, t, atol=1e-14)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("r", [0.3, 0.5, 0.7])
def test_shifted_route_matches_the_root_free_balakrishnan_route_at_n16(seed, r):
    """The Balakrishnan rule takes no square root, so it checks the
    shifted route's square-root chain independently of scipy's kernel."""
    x = random_accretive(16, seed)
    err = operator_norm(power_shifted(x, r) - power_balakrishnan(x, r))
    assert err <= 1e-6 * (1.0 + operator_norm(x))
