"""Fractional powers of accretive matrices and the F-transform.

Three independent constructions of x^r are implemented:

* ``power_series``       -- binomial series in (e - x), valid on the
                            shrunken cone F = {||e - x|| <= 1};
* ``power_shifted``      -- the limit eps -> 0 of (x + eps e)^r, taken
                            exactly: 0 on the kernel, and on the invertible
                            Schur block the principal power by inverse
                            scaling-and-squaring (the Schur-Pade scheme of
                            Higham & Lin, SIAM J. Matrix Anal. Appl. 32,
                            2011, with a binomial series in place of the
                            Pade approximant), valid on the whole
                            accretive cone;
* ``power_balakrishnan`` -- resolvent integral
                            x^r = sin(r pi)/pi * int_0^inf s^{r-1}(s+x)^{-1} x ds,
                            valid for accretive x and 0 < r < 1.

``power`` runs every applicable method and fails loudly when any two
completed methods disagree beyond 1e-6 * (1 + ||x||).

Accretive matrices have a semisimple reducing kernel (ker x = ker x*,
orthogonal to the range), so the zero eigenvalue cluster is split off
exactly by an ordered Schur form before any power or quadrature; the
power acts as zero on that block for every r > 0.
"""
from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
import scipy.linalg as sla
import scipy.special

from .cones import AmbientContext, _membership, full_context
from .errors import InputError, MethodDisagreementError, NumericError, PreconditionError
from .linalg import Tolerances, _norm2, as_matrix, resolve_tol
from .numrange import _dist_to_point, _sectorial_angle
from .report import VerificationReport, matrix_digest

__all__ = [
    "power_series",
    "power_shifted",
    "power_balakrishnan",
    "power",
    "power_all_methods",
    "f_transform",
    "f_inverse",
    "power_property_report",
    "root_bai_check",
]


# Gauss-Legendre nodes per integral of the Balakrishnan rule; the error
# estimate compares it with twice as many
_BAL_NODES = 200


# ---------------------------------------------------------------------------
# triangular kernels
# ---------------------------------------------------------------------------

def _sqrtm_tri(t: np.ndarray) -> np.ndarray:
    """Principal square root of an upper-triangular matrix whose spectrum
    avoids the closed negative real axis (recursive column substitution)."""
    n = t.shape[0]
    r = np.zeros_like(t)
    d = np.sqrt(np.diag(t).astype(complex))
    for j in range(n):
        r[j, j] = d[j]
        for i in range(j - 1, -1, -1):
            s = t[i, j] - r[i, i + 1:j] @ r[i + 1:j, j]
            denom = r[i, i] + r[j, j]
            if abs(denom) < 1e-300:
                raise NumericError("triangular square root hit a vanishing eigenvalue pair")
            r[i, j] = s / denom
    return r


def _power_tri(t: np.ndarray, r: float) -> np.ndarray:
    """Principal fractional power of an upper-triangular matrix with
    spectrum off the closed negative real axis.

    Inverse scaling and squaring: take square roots until ||I - B|| is
    small, run the binomial series for B^r, then square back.
    """
    n = t.shape[0]
    if n == 0:
        return t.copy()
    if abs(r - 1.0) < 1e-300:
        return t.copy()
    if n == 1:
        lam = complex(t[0, 0])
        return np.array([[np.exp(r * np.log(lam))]], dtype=complex)
    eye = np.eye(n, dtype=complex)
    b = t.astype(complex)
    sqrts = 0
    while _norm2(eye - b) > 0.3:
        if sqrts >= 60:
            raise NumericError("inverse scaling-and-squaring failed to contract the spectrum")
        b = _sqrtm_tri(b)
        sqrts += 1
    # binomial series (I - E)^r = sum_j a_j E^j, a_0 = 1, a_j = a_{j-1}(j-1-r)/j
    e_mat = eye - b
    e_norm = _norm2(e_mat)
    y = eye.copy()
    p = eye.copy()
    a = 1.0
    for j in range(1, 600):
        a *= (j - 1.0 - r) / j
        p = p @ e_mat
        y += a * p
        if abs(a) * e_norm ** j / max(1e-300, 1.0 - e_norm) < 1e-18 and j >= 8:
            break
    for _ in range(sqrts):
        y = y @ y
    return y


def _split_zero_cluster(xc: np.ndarray, zero_tol: float, tol: Tolerances):
    """Ordered complex Schur split isolating the zero eigenvalue cluster.

    Returns (z, t11, k, defect) with the nonzero-spectrum block t11 of
    size k leading, and xc = z diag(t11, ~0) z* up to the reported defect
    norm.  For accretive matrices the kernel is reducing and semisimple,
    so the off-diagonal coupling and the zero block are both tiny; a
    large defect signals an ill-separated spectrum near zero.
    """
    n = xc.shape[0]
    nrm = _norm2(xc)
    t, z, sdim = sla.schur(xc, output="complex", sort=lambda lam: abs(lam) > zero_tol)
    k = int(sdim)
    t11 = t[:k, :k]
    t12 = t[:k, k:]
    t22 = t[k:, k:]
    defect = 0.0
    if n - k > 0:
        defect = max(
            _norm2(t12) if t12.size else 0.0,
            _norm2(t22) if t22.size else 0.0,
        )
        if defect > 1e-7 * (1.0 + nrm):
            raise NumericError(
                "zero eigenvalue cluster is not cleanly reducing "
                f"(coupling {defect:.3g}); pass a different zero_tol "
                f"(current {zero_tol:.3g}) or check accretivity of the input"
            )
    return z, t11, k, defect


def _reassemble(z: np.ndarray, block: np.ndarray, n: int) -> np.ndarray:
    k = block.shape[0]
    full = np.zeros((n, n), dtype=complex)
    full[:k, :k] = block
    return z @ full @ z.conj().T


def _require_accretive(xc: np.ndarray, t: Tolerances, who: str):
    """Cone membership of the corner coordinates xc; raises unless accretive."""
    mem = _membership(xc, t)
    if not mem.in_r:
        raise PreconditionError(
            f"{who} needs an accretive input; abscissa residual {mem.r_residual:.3g} "
            f"is below -psd_tol = {-t.psd_tol:.3g}"
        )
    return mem


def _validate_exponent(r, lo_open: float, hi: float, allow_hi: bool) -> float:
    r = float(r)
    hi_ok = (r <= hi) if allow_hi else (r < hi)
    if not (lo_open < r and hi_ok and np.isfinite(r)):
        span = f"({lo_open}, {hi}{']' if allow_hi else ')'}"
        raise InputError(f"exponent r must lie in {span}, got {r!r}")
    return r


# ---------------------------------------------------------------------------
# the three methods
# ---------------------------------------------------------------------------

def power_series(x, r: float, ctx: AmbientContext | None = None,
                 tol: Tolerances | None = None, max_terms: int = 200_000) -> np.ndarray:
    """x^r for x in the shrunken cone F, via the binomial series
    x^r = e - sum_k b_k (e - x)^k with b_k = |binom(r, k)|.

    The coefficients are positive and sum to 1; with d = e - x and
    ||d|| <= 1 the tail after K terms is bounded by
    (1 - sum_{k<=K} b_k) * min_{j<=K+1} ||d^j||, which is the rigorous
    stopping rule used here.  Inputs with spectrum touching the unit
    circle of the series (e.g. singular x for small r) may need more
    than max_terms terms; that raises NumericError rather than silently
    truncating.
    """
    a = as_matrix(x)
    if ctx is None:
        ctx = full_context(a.shape[0])
    t = resolve_tol(tol)
    r = _validate_exponent(r, 0.0, 1.0, allow_hi=True)
    xc = ctx._compress_member(a, t)
    mem = _membership(xc, t)
    if not mem.in_F:
        raise PreconditionError(
            f"power_series needs ||e - x|| <= 1; residual {mem.F_residual:.3g} exceeds eq_tol"
        )
    return ctx._embed(_power_series(xc, r, t, max_terms))


def _power_series(xc: np.ndarray, r: float, t: Tolerances,
                  max_terms: int = 200_000) -> np.ndarray:
    """The binomial series on the corner coordinates xc of an F element."""
    if r == 1.0:
        return xc.copy()
    k_dim = xc.shape[0]
    eye = np.eye(k_dim, dtype=complex)
    d = eye - xc
    y = eye.copy()
    p = d.copy()
    b = r
    tail = 1.0 - r
    y -= b * p
    min_pow = _norm2(d)
    k = 1
    while True:
        p_next = p @ d
        min_pow = min(min_pow, _norm2(p_next))
        if tail * min_pow <= t.conv_tol:
            break
        if k >= max_terms:
            raise NumericError(
                f"series tail bound {tail * min_pow:.3g} still above conv_tol "
                f"after {max_terms} terms; the spectrum touches the series boundary"
            )
        if k % 1000 == 0 and min_pow > 0:
            # project the sublinear tail decay tail_k ~ C k^{-r}; bail out
            # early when the required k provably exceeds the term budget
            needed = k * (tail * min_pow / t.conv_tol) ** (1.0 / r)
            if needed > 10 * max_terms:
                raise NumericError(
                    f"series would need ~{needed:.3g} terms (> {max_terms}); "
                    "the spectrum touches the series boundary"
                )
        k += 1
        b *= (k - 1.0 - r) / k
        tail -= b
        p = p_next
        y -= b * p
    return y


def power_shifted(x, r: float, ctx: AmbientContext | None = None,
                  tol: Tolerances | None = None,
                  zero_tol: float | None = None) -> np.ndarray:
    """x^r for accretive x as the limit eps -> 0 of (x + eps e)^r.

    The kernel of x is split off exactly (it is reducing and semisimple
    for accretive x), and there the limit is 0.  The remaining Schur
    block is invertible with spectrum in the closed right half-plane
    minus 0, so the limit there is its principal power, computed directly
    by triangular inverse scaling-and-squaring.
    """
    a = as_matrix(x)
    if ctx is None:
        ctx = full_context(a.shape[0])
    t = resolve_tol(tol)
    r = _validate_exponent(r, 0.0, 1.0, allow_hi=True)
    xc = ctx._compress_member(a, t)
    _require_accretive(xc, t, "power_shifted")
    return ctx._embed(_power_shifted(xc, r, t, zero_tol))


def _power_shifted(xc: np.ndarray, r: float, t: Tolerances,
                   zero_tol: float | None = None) -> np.ndarray:
    """The shifted spectral power on the corner coordinates xc of an
    accretive element."""
    if r == 1.0:
        return xc.copy()
    nrm = _norm2(xc)
    ztol = 1e-9 * (1.0 + nrm) if zero_tol is None else float(zero_tol)
    z, t11, k, _ = _split_zero_cluster(xc, ztol, t)
    if k == 0:
        return np.zeros_like(xc)
    return _reassemble(z, _power_tri(t11, r), xc.shape[0])


@lru_cache(maxsize=32)
def _gl_panels(nodes: int, panels: int = 4):
    """Gauss-Legendre nodes/weights compounded over equal panels of [0, 1].

    Cached; the arrays are read-only."""
    per = max(4, nodes // panels)
    base_x, base_w = np.polynomial.legendre.leggauss(per)
    xs, ws = [], []
    for p in range(panels):
        a, b = p / panels, (p + 1) / panels
        half = (b - a) / 2.0
        xs.append(half * base_x + (a + b) / 2.0)
        ws.append(half * base_w)
    x, w = np.concatenate(xs), np.concatenate(ws)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _balakrishnan_block(t11: np.ndarray, r: float, nodes: int) -> np.ndarray:
    """sin(r pi)/pi * int_0^inf s^{r-1} (s + T)^{-1} T ds on the invertible
    Schur block, as two weight-free [0,1] integrals.

    Substituting s = v^{1/r} on s in [0, 1] and s = 1/w, w = v^{1/(1-r)}
    on s in [1, inf) gives
        int = (1/r) int_0^1 (v^{1/r} + T)^{-1} T dv
            + (1/(1-r)) int_0^1 (I + v^{1/(1-r)} T)^{-1} T dv,
    both with bounded analytic integrands handled by panelled
    Gauss-Legendre quadrature.  Each integral is one batched solve over
    all its nodes, (nodes, k, k) shifted matrices against T, contracted
    with the weights.
    """
    eye = np.eye(t11.shape[0], dtype=complex)
    v_nodes, v_weights = _gl_panels(nodes)

    def integral(lhs: np.ndarray) -> np.ndarray:
        return np.tensordot(v_weights, np.linalg.solve(lhs, t11), axes=1)

    acc_a = integral((v_nodes ** (1.0 / r))[:, None, None] * eye + t11)
    acc_b = integral(eye + (v_nodes ** (1.0 / (1.0 - r)))[:, None, None] * t11)
    total = acc_a / r + acc_b / (1.0 - r)
    return (math.sin(r * math.pi) / math.pi) * total


def power_balakrishnan(x, r: float, ctx: AmbientContext | None = None,
                       tol: Tolerances | None = None,
                       zero_tol: float | None = None,
                       return_estimate: bool = False):
    """x^r for accretive x and 0 < r < 1 via the Balakrishnan integral.

    The zero cluster is deflated first; the integral is evaluated on the
    invertible Schur block at 200 and 400 Gauss-Legendre nodes per
    integral, and the difference serves as the quadrature error estimate,
    required to stay below 1e-6 * ||x||^r.
    """
    a = as_matrix(x)
    if ctx is None:
        ctx = full_context(a.shape[0])
    t = resolve_tol(tol)
    r = float(r)
    if r != 1.0:
        r = _validate_exponent(r, 0.0, 1.0, allow_hi=False)
    xc = ctx._compress_member(a, t)
    _require_accretive(xc, t, "power_balakrishnan")
    y, est = _power_balakrishnan(xc, r, t, zero_tol)
    y = ctx._embed(y)
    return (y, est) if return_estimate else y


def _power_balakrishnan(xc: np.ndarray, r: float, t: Tolerances,
                        zero_tol: float | None = None):
    """(x^r, quadrature error estimate) on the corner coordinates xc of an
    accretive element."""
    if r == 1.0:
        return xc, 0.0
    n = xc.shape[0]
    nrm = _norm2(xc)
    ztol = 1e-9 * (1.0 + nrm) if zero_tol is None else float(zero_tol)
    z, t11, k, _ = _split_zero_cluster(xc, ztol, t)
    if k == 0:
        return np.zeros_like(xc), 0.0
    coarse = _balakrishnan_block(t11, r, _BAL_NODES)
    fine = _balakrishnan_block(t11, r, 2 * _BAL_NODES)
    est = _norm2(fine - coarse)
    target = 1e-6 * max(nrm, 1e-12) ** r
    if est > target:
        raise NumericError(
            f"quadrature error estimate {est:.3g} exceeds {target:.3g} at "
            f"{_BAL_NODES} and {2 * _BAL_NODES} nodes; the Balakrishnan rule does "
            "not resolve this spectrum"
        )
    return _reassemble(z, fine, n), est


# ---------------------------------------------------------------------------
# dispatcher
# ---------------------------------------------------------------------------

def power_all_methods(x, r: float, ctx: AmbientContext | None = None,
                      tol: Tolerances | None = None):
    """Run every applicable power method.

    Returns (value, candidates, deviations, skipped): the shifted-method
    value (the exact eps -> 0 limit of (x + eps e)^r), a dict of
    completed method results, the pairwise deviations, and a dict naming
    methods that raised NumericError: the series past its term budget,
    the Balakrishnan rule past its quadrature error target.
    Raises MethodDisagreementError when completed methods differ by more
    than 1e-6 * (1 + ||x||).
    """
    a = as_matrix(x)
    if ctx is None:
        ctx = full_context(a.shape[0])
    t = resolve_tol(tol)
    r = _validate_exponent(r, 0.0, 1.0, allow_hi=True)
    return _power_all_methods(ctx._compress_member(a, t), r, ctx, t)


def _power_all_methods(xc: np.ndarray, r: float, ctx: AmbientContext,
                       t: Tolerances):
    """power_all_methods on the corner coordinates xc; values are embedded."""
    mem = _require_accretive(xc, t, "power")
    if r == 1.0:
        xe = ctx._embed(xc)
        return xe, {"shifted": xe, "series": xe, "balakrishnan": xe}, {}, {}

    candidates = {}
    skipped = {}
    candidates["shifted"] = ctx._embed(_power_shifted(xc, r, t))
    if mem.in_F:
        try:
            candidates["series"] = ctx._embed(_power_series(xc, r, t))
        except NumericError as exc:
            skipped["series"] = str(exc)
    if 0.0 < r < 1.0:
        try:
            candidates["balakrishnan"] = ctx._embed(_power_balakrishnan(xc, r, t)[0])
        except NumericError as exc:
            skipped["balakrishnan"] = str(exc)

    nrm = _norm2(xc)
    cross_tol = 1e-6 * (1.0 + nrm)
    deviations = {}
    names = sorted(candidates)
    for i, ni in enumerate(names):
        for nj in names[i + 1:]:
            deviations[f"{ni}|{nj}"] = _norm2(candidates[ni] - candidates[nj])
    worst = max(deviations.values(), default=0.0)
    if worst > cross_tol:
        raise MethodDisagreementError(
            f"power methods disagree: worst pairwise deviation {worst:.3g} "
            f"exceeds {cross_tol:.3g} for r={r}",
            values={k: v for k, v in candidates.items()},
        )
    return candidates["shifted"], candidates, deviations, skipped


def power(x, r: float, ctx: AmbientContext | None = None,
          tol: Tolerances | None = None) -> np.ndarray:
    """Fractional power x^r of an accretive matrix, cross-validated.

    All applicable methods run (shifted spectral always; the binomial
    series when x is in F; the Balakrishnan integral when 0 < r < 1) and
    any pairwise disagreement beyond 1e-6 * (1 + ||x||) raises
    MethodDisagreementError carrying the candidate values.  The shifted
    spectral value is returned.  r = 1 returns x exactly.
    """
    value, _, _, _ = power_all_methods(x, r, ctx, tol)
    return value


# ---------------------------------------------------------------------------
# F-transform
# ---------------------------------------------------------------------------

def f_transform(x, ctx: AmbientContext | None = None,
                tol: Tolerances | None = None) -> np.ndarray:
    """F(x) = x (e + x)^{-1}, mapping the accretive cone into F.

    The contraction certificate ||e - F(x)|| = ||(e + x)^{-1}||
    <= 1 / dist(-1, W(x)) <= 1 is checked on the way out.
    """
    a = as_matrix(x)
    if ctx is None:
        ctx = full_context(a.shape[0])
    t = resolve_tol(tol)
    xc = ctx._compress_member(a, t)
    _require_accretive(xc, t, "f_transform")
    return ctx._embed(_f_transform(xc))


def _f_transform(xc: np.ndarray) -> np.ndarray:
    """F(x) with its contraction certificate, on the corner coordinates xc
    of an accretive element."""
    k = xc.shape[0]
    eye = np.eye(k, dtype=complex)
    y = np.linalg.solve(eye + xc, xc)
    lhs = _norm2(eye - y)
    d = _dist_to_point(xc, complex(-1.0))
    bound = min(1.0, 1.0 / d) if d > 0 else 1.0
    if lhs > bound + 1e-8:
        raise NumericError(
            f"F-transform contraction certificate failed: ||e - F(x)|| = {lhs:.12g} "
            f"exceeds min(1, 1/dist(-1, W(x))) = {bound:.12g}"
        )
    return y


def f_inverse(y, ctx: AmbientContext | None = None,
              tol: Tolerances | None = None):
    """Inverse F-transform x = y (e - y)^{-1}; returns (x, cond).

    cond is the condition number of e - y, reported so round-trip
    accuracy expectations can be scaled by it.  A singular or
    numerically singular e - y is rejected.
    """
    a = as_matrix(y, "y")
    if ctx is None:
        ctx = full_context(a.shape[0])
    t = resolve_tol(tol)
    yc = ctx._compress_member(a, t)
    k = yc.shape[0]
    eye = np.eye(k, dtype=complex)
    m = eye - yc
    cond = float(np.linalg.cond(m))
    if not np.isfinite(cond) or cond > 1e14:
        raise InputError(f"e - y is singular or nearly so (cond {cond:.3g})")
    x = np.linalg.solve(m, yc)
    return ctx._embed(x), cond


# ---------------------------------------------------------------------------
# law reports
# ---------------------------------------------------------------------------

def power_property_report(x, ctx: AmbientContext | None = None,
                          exponent_grid=None,
                          tol: Tolerances | None = None) -> VerificationReport:
    """Verify the functional-calculus laws on an exponent grid.

    Checks: the semigroup law x^s x^t = x^{s+t}; the scaling law
    (c x)^t = c^t x^t; iterated powers (x^t)^{1/2} = x^{t/2} and
    (x^t)^2 = x^{2t} for elements of F; the integral norm bound
    ||x^t|| <= sin(pi t)/(pi t (1-t)) ||x||^t; the contractive-case bound
    ||x^t|| <= Gamma(t/2) Gamma((1-t)/2) / (2 sqrt(pi) Gamma(t) Gamma(1-t))
    for ||x|| <= 1; and the sector laws
    angle(x^t) <= t * angle(x) and <= t*angle(x) + (1-t) pi/2.
    """
    a = as_matrix(x)
    if ctx is None:
        ctx = full_context(a.shape[0])
    t = resolve_tol(tol)
    xc = ctx._compress_member(a, t)
    mem = _require_accretive(xc, t, "power_property_report")
    if exponent_grid is None:
        exponent_grid = np.round(np.arange(1, 10) * 0.1, 10)
    grid = sorted(float(g) for g in exponent_grid)
    if any(not (0.0 < g < 1.0) for g in grid):
        raise InputError("exponent grid entries must lie in (0, 1)")

    nrm = _norm2(xc)
    cache: dict[float, np.ndarray] = {}

    def power_c(yc: np.ndarray, expo: float) -> np.ndarray:
        """power() of the element with corner coordinates yc, as coordinates."""
        return ctx._compress(_power_all_methods(yc, expo, ctx, t)[0])

    def pw(expo: float, base=None) -> np.ndarray:
        if base is None:
            key = round(expo, 12)
            if key not in cache:
                cache[key] = power_c(xc, expo)
            return cache[key]
        return power_c(ctx._compress(ctx._embed(base)), expo)

    verdicts = {}
    residuals = {}

    # semigroup law
    worst = 0.0
    for i, s in enumerate(grid):
        for u in grid[i:]:
            if s + u > 1.0 + 1e-12:
                continue
            lhs = pw(s) @ pw(u)
            rhs = pw(min(s + u, 1.0))
            worst = max(worst, _norm2(lhs - rhs))
    residuals["semigroup"] = worst
    verdicts["semigroup"] = worst <= 1e-7 * (1.0 + nrm) ** 2

    # scaling law with c = 2
    c = 2.0
    worst = 0.0
    for u in grid:
        lhs = power_c(ctx._compress(ctx._embed(c * xc)), u)
        worst = max(worst, _norm2(lhs - (c ** u) * pw(u)))
    residuals["scaling"] = worst
    verdicts["scaling"] = worst <= 1e-7 * (1.0 + c) * (1.0 + nrm)

    # iterated powers, for F elements only
    if mem.in_F:
        worst = 0.0
        for u in (0.2, 0.5, 0.8):
            worst = max(worst, _norm2(pw(0.5, base=pw(u)) - pw(u / 2.0)))
            if 2.0 * u <= 1.0 + 1e-12:
                worst = max(worst, _norm2(pw(u) @ pw(u) - pw(2.0 * u)))
        residuals["iterated"] = worst
        verdicts["iterated"] = worst <= 1e-6 * (1.0 + nrm)
    else:
        residuals["iterated"] = 0.0
        verdicts["iterated"] = True

    # norm bounds
    worst_bal = -np.inf
    worst_drury = -np.inf
    gamma = scipy.special.gamma
    for u in grid:
        pn = _norm2(pw(u))
        bal_bound = math.sin(math.pi * u) / (math.pi * u * (1.0 - u)) * nrm ** u
        worst_bal = max(worst_bal, pn - bal_bound)
        if nrm <= 1.0 + t.eq_tol:
            dr = gamma(u / 2.0) * gamma((1.0 - u) / 2.0) / (
                2.0 * math.sqrt(math.pi) * gamma(u) * gamma(1.0 - u))
            worst_drury = max(worst_drury, pn - dr)
    residuals["norm_bound_integral"] = worst_bal
    verdicts["norm_bound_integral"] = worst_bal <= 1e-8
    if nrm <= 1.0 + t.eq_tol:
        residuals["norm_bound_contractive"] = worst_drury
        verdicts["norm_bound_contractive"] = worst_drury <= 1e-8
    else:
        residuals["norm_bound_contractive"] = 0.0
        verdicts["norm_bound_contractive"] = True

    # sector laws
    base_angle = _sectorial_angle(xc, t).angle
    worst_sharp = -np.inf
    worst_banach = -np.inf
    if base_angle is not None:
        for u in grid:
            ang = _sectorial_angle(pw(u), t).angle
            if ang is None:
                worst_sharp = worst_banach = np.inf
                break
            worst_sharp = max(worst_sharp, ang - u * base_angle)
            worst_banach = max(worst_banach,
                               ang - (u * base_angle + (1.0 - u) * math.pi / 2.0))
    residuals["sector_sharp"] = worst_sharp if np.isfinite(worst_sharp) else np.inf
    residuals["sector_banach"] = worst_banach if np.isfinite(worst_banach) else np.inf
    verdicts["sector_sharp"] = worst_sharp <= 1e-6
    verdicts["sector_banach"] = worst_banach <= 1e-6

    return VerificationReport(
        check="power_properties",
        passed=all(verdicts.values()),
        verdicts=verdicts,
        residuals={k: float(v) for k, v in residuals.items()},
        tolerances=t.as_dict(),
        details={"grid": grid, "norm": nrm,
                 "angle": base_angle if base_angle is not None else "none"},
        instance=matrix_digest(a),
    )


def root_bai_check(x, ctx: AmbientContext | None = None, n_max: int = 1024,
                   tol: Tolerances | None = None) -> VerificationReport:
    """Track the approximate-identity residual ||x^{1/n} x - x|| along
    n = 2, 4, ..., n_max.

    The residual decays like ||x|| |log(spectral floor)| / n -- an O(1/n)
    envelope, not faster -- so the verdict asserts monotone-ish decay plus
    a final residual below 1e-6 + 40 (1 + ||x||) / n_max.  (A fixed 1e-6
    cut at n = 1024 is unattainable already for diag(1, 1/2), whose
    residual there is 3.4e-4.)
    """
    a = as_matrix(x)
    if ctx is None:
        ctx = full_context(a.shape[0])
    t = resolve_tol(tol)
    xc = ctx._compress_member(a, t)
    _require_accretive(xc, t, "root_bai_check")
    n_max = int(n_max)
    if n_max < 2:
        raise InputError(f"n_max must be >= 2, got {n_max}")
    nrm = _norm2(xc)
    ztol = 1e-9 * (1.0 + nrm)
    z, t11, k, _ = _split_zero_cluster(xc, ztol, t)
    levels = max(1, math.ceil(math.log2(n_max)))
    residuals_seq = []
    block = t11.copy()
    n_dim = xc.shape[0]
    for _ in range(levels):
        block = _sqrtm_tri(block) if k > 0 else block
        root = _reassemble(z, block, n_dim) if k > 0 else np.zeros_like(xc)
        residuals_seq.append(_norm2(root @ xc - xc))
    decay_ok = all(
        residuals_seq[i + 1] <= residuals_seq[i] * 1.05 + 1e-12
        for i in range(len(residuals_seq) - 1)
    )
    envelope = 1e-6 + 40.0 * (1.0 + nrm) / (2 ** levels)
    final_ok = residuals_seq[-1] <= envelope
    verdicts = {"decay_monotone": bool(decay_ok), "final_below_envelope": bool(final_ok)}
    return VerificationReport(
        check="root_bai",
        passed=all(verdicts.values()),
        verdicts=verdicts,
        residuals={"final": residuals_seq[-1], "envelope": envelope},
        tolerances=t.as_dict(),
        details={"sequence": residuals_seq, "n_max": 2 ** levels},
        instance=matrix_digest(a),
    )
