"""Numerical range of a matrix: boundary sweeps, abscissa, distances,
and the sectorial angle.

The numerical range W(x) = {v*xv : ||v|| = 1} is compact and convex; its
support function in direction e^{i theta} is the top eigenvalue of the
Hermitian part of e^{-i theta} x.  Every angle sweep here (the boundary,
the distance grid, and the sector grid of non-accretive inputs) runs as
one stacked Hermitian eigenproblem over all its angles (Johnson, SIAM J.
Numer. Anal. 15, 1978); only the bisection and golden-section
refinements, whose next angle depends on the last, go angle by angle.

The sectorial angle of an accretive x = H + iK (H >= 0) needs no sweep:
|v*Kv| <= tan(theta) v*Hv for every v exactly when -tan(theta) H <= K <=
tan(theta) H, so theta = arctan max |lambda| over the pencil K v =
lambda H v on the range of H, and theta = pi/2 when K does not vanish on
the kernel of H.  Both the accretivity test and the kernel are decided
by a cut at a small multiple of the rounding level of the eigen-solve,
_KER_ULPS * n * eps * ||x||, never by the sign of rounding noise: the cut
scales with x, so the angle of s x is that of x, and every eigenvalue of
H above rounding noise enters the pencil.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError
from .linalg import Tolerances, _herm_part, _norm2, as_matrix, resolve_tol

__all__ = [
    "RangeBoundary",
    "SectorVerdict",
    "NearlyPositiveReport",
    "boundary",
    "abscissa",
    "support_function",
    "dist_to_point",
    "sectorial_angle",
    "is_nearly_positive",
]


@dataclass(frozen=True)
class RangeBoundary:
    """Supporting half-plane sweep of the numerical range.

    angles          -- strictly increasing grid in [0, 2*pi)
    support_values  -- h(theta) = max eig of Re(e^{-i theta} x)
    boundary_points -- v* x v at the corresponding top eigenvectors
    """

    angles: np.ndarray
    support_values: np.ndarray
    boundary_points: np.ndarray


@dataclass(frozen=True)
class SectorVerdict:
    """Smallest symmetric sector containing the numerical range.

    angle is the half-angle in [0, pi], or None when no sector centred on
    the positive real axis contains W(x) (0 is interior, so every ray
    direction appears).  witness is a numerical-range point attaining the
    extreme argument (within the kernel tolerance when the kernel rule
    gives pi/2; 0 for x ~ 0; None in the sentinel case).
    """

    angle: float | None
    witness: complex | None


@dataclass(frozen=True)
class NearlyPositiveReport:
    """Outcome of the eps-nearly-positive test."""

    verdict: bool
    eps: float
    norm: float
    angle: float | None
    herm_distance: float
    herm_distance_ok: bool


def _herm_parts(x: np.ndarray, theta) -> np.ndarray:
    """Hermitian parts of e^{-i theta} x, stacked along the shape of theta.

    Built in place as (y + y*)/2 with y = e^{-i theta} x, entry for entry
    the same floating-point operations as ``herm_part`` on each rotated
    copy, so the eigenvalues match the one-angle evaluation bitwise.
    """
    y = np.exp(-1j * np.asarray(theta))[..., None, None] * x
    re, im = y.real, y.imag
    re += re.swapaxes(-1, -2)
    im -= im.swapaxes(-1, -2)
    y /= 2.0
    return y


def _check_finite(value, name: str):
    if not np.isfinite(value):
        raise InputError(f"{name} must be finite, got {value!r}")
    return value


def _support_at(x: np.ndarray, theta: float):
    """Support value and attaining range point in direction e^{i theta}."""
    w, v = np.linalg.eigh(_herm_parts(x, theta))
    vec = v[:, -1]
    return float(w[-1]), complex(vec.conj() @ (x @ vec))


def _min_herm_eig(x: np.ndarray, psi) -> np.ndarray:
    """g(psi) = smallest eigenvalue of the Hermitian part of e^{-i psi} x,
    for a scalar psi or elementwise over an array of angles."""
    return np.linalg.eigvalsh(_herm_parts(x, psi))[..., 0]


def support_function(x, theta: float) -> float:
    """h(theta) = sup {Re(e^{-i theta} z) : z in W(x)}."""
    a = as_matrix(x)
    return _support_at(a, _check_finite(float(theta), "theta"))[0]


def boundary(x, m: int = 256) -> RangeBoundary:
    """Sweep m supporting half-planes of W(x) at equispaced angles.

    The returned points v*xv lie on (or within rounding of) the boundary
    of the numerical range; the half-planes
    Re(e^{-i theta_j} z) <= h(theta_j) jointly enclose W(x).
    """
    a = as_matrix(x)
    m = int(m)
    if m < 8:
        raise InputError(f"boundary needs at least 8 angles, got {m}")
    angles = 2.0 * np.pi * np.arange(m) / m
    w, v = np.linalg.eigh(_herm_parts(a, angles))
    vecs = v[:, :, -1:]
    points = (vecs.swapaxes(-1, -2).conj() @ (a @ vecs))[:, 0, 0]
    return RangeBoundary(angles=angles, support_values=w[:, -1], boundary_points=points)


def _abscissa(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(_herm_part(a))[0])


def abscissa(x) -> float:
    """Leftmost point of W(x): the smallest Hermitian-part eigenvalue."""
    return _abscissa(as_matrix(x))


def dist_to_point(x, z, m: int = 256) -> float:
    """Distance from the complex point z to the numerical range W(x).

    dist(z, W) = max(0, sup_theta [Re(e^{-i theta} z) - h(theta)]) by
    convex duality.  A coarse sweep localises the maximiser and a golden
    section refinement sharpens it; accuracy is far better than
    1e-6 * (||x|| + |z| + 1).
    """
    return _dist_to_point(as_matrix(x), _check_finite(complex(z), "z"), m)


def _dist_to_point(a: np.ndarray, z: complex, m: int = 256) -> float:
    m = max(int(m), 32)

    def gap(theta: float) -> float:
        return (z * np.exp(-1j * theta)).real - _support_at(a, theta)[0]

    grid = 2.0 * np.pi * np.arange(m) / m
    vals = (z * np.exp(-1j * grid)).real - np.linalg.eigvalsh(_herm_parts(a, grid))[:, -1]
    j = int(np.argmax(vals))
    lo = grid[j] - 2.0 * np.pi / m
    hi = grid[j] + 2.0 * np.pi / m
    # golden-section ascent on the bracketing interval
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = gap(c), gap(d)
    for _ in range(80):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = gap(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = gap(d)
        if hi - lo < 1e-13:
            break
    best = max(float(vals[j]), fc, fd)
    return max(0.0, best)


def _normalize_angle(a: float) -> float:
    """Map to (-pi, pi]."""
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    if a <= 0:
        a += 2.0 * math.pi
    return a - math.pi


def sectorial_angle(x, tol: Tolerances | None = None, m: int = 256) -> SectorVerdict:
    """Smallest half-angle theta with W(x) inside {|arg z| <= theta}.

    Write x = H + iK with H, K Hermitian and let ktol = _KER_ULPS * n *
    eps * ||x||, a small multiple of the rounding error of an eigen-solve
    of H.  If the smallest eigenvalue of H is at least -ktol, x is
    accretive and the angle is exact, from one Hermitian eigen-solve of H
    and one of the whitened K:

    - Kernel rule: let V span the eigenvectors of H with eigenvalue <=
      ktol.  If ||K V|| > ktol, the range reaches the imaginary axis and
      the angle is pi/2; the witness is i*lambda for the eigenvalue of
      V*KV of largest modulus, or 0 when every eigenvalue is within
      ktol of 0 (then 0 is the only point of W(x) on the axis).
    - Otherwise theta = arctan max |lambda| over the eigenvalues of
      W*KW with W = V_r diag(w_r)^(-1/2) whitening the range of H; the
      witness is u*xu for the matching unit vector u = W e / ||W e||.

    A non-accretive x is swept instead.  The set D = {psi : min eig
    Re(e^{-i psi} x) >= 0} of supporting directions whose half-plane
    constraint passes through 0 is a closed arc (convexity of W).  One
    stacked sweep over m equispaced directions (m even, at least 64)
    finds the best direction psi0; the same sweep, read outwards from
    psi0 on each side, brackets the arc endpoints psi-, psi+ to one grid
    step, and bisection refines them.  The extreme argument rays of the
    enclosing cone are rho_inf = psi+ - pi/2 and rho_sup = psi- + pi/2.
    The verdict angle is max(|rho_inf|, |rho_sup|) after branch
    normalisation; if D is empty, 0 is interior to W(x) and no sector
    works (angle None).
    """
    return _sectorial_angle(as_matrix(x), resolve_tol(tol), m)


# Kernel cut of the exact path, in units of n * eps * ||x||.  eigh resolves
# H only to about n * eps * ||H||: Haar-conjugated kernels u (B + 0) u* and
# the kernels of their shifted-route powers come out below 3 n eps ||x||.
_KER_ULPS = 64.0


def _sectorial_angle(a: np.ndarray, t: Tolerances, m: int = 256) -> SectorVerdict:
    nrm = _norm2(a)
    if nrm <= t.eq_tol:
        return SectorVerdict(angle=0.0, witness=0j)
    ktol = _KER_ULPS * a.shape[0] * np.finfo(float).eps * nrm
    w, v = np.linalg.eigh(_herm_part(a))
    if w[0] >= -ktol:
        return _accretive_sector(a, w, v, ktol)
    return _swept_sector(a, m)


def _accretive_sector(a: np.ndarray, w: np.ndarray, v: np.ndarray,
                      ktol: float) -> SectorVerdict:
    """Exact sector of an accretive a from the eigenpairs (w, v) of its
    Hermitian part: the kernel rule, then the whitened pencil."""
    k = _herm_part(-1j * a)
    ker = w <= ktol
    v_ker = v[:, ker]
    if v_ker.shape[1] and _norm2(k @ v_ker) > ktol:
        lam = np.linalg.eigvalsh(v_ker.conj().T @ k @ v_ker)
        top = float(lam[np.argmax(np.abs(lam))])
        return SectorVerdict(angle=np.pi / 2.0, witness=1j * top if abs(top) > ktol else 0j)
    # some of H is range: were all of it kernel, ||x|| <= ||H|| + ||K|| <= 2 ktol
    wr = v[:, ~ker] / np.sqrt(w[~ker])
    lam, e = np.linalg.eigh(wr.conj().T @ k @ wr)
    j = int(np.argmax(np.abs(lam)))
    u = wr @ e[:, j]
    u /= np.linalg.norm(u)
    return SectorVerdict(angle=float(np.arctan(abs(lam[j]))),
                         witness=complex(u.conj() @ (a @ u)))


def _swept_sector(a: np.ndarray, m: int) -> SectorVerdict:
    """Sector of a non-accretive a by the stacked sweep and bisection."""
    m = max(int(m), 64)
    m += m % 2
    grid = np.linspace(-np.pi, np.pi, m, endpoint=False)
    g = _min_herm_eig(a, grid)
    j0 = int(np.argmax(g))
    if g[j0] < 0.0:
        # even the best direction cuts into W: 0 is interior
        return SectorVerdict(angle=None, witness=None)
    psi0 = float(grid[j0])
    steps = np.arange(1, m // 2 + 1)
    # psi0 + sign * u[i] is the grid direction j0 + sign * (i + 1), up to rounding
    u = 2.0 * np.pi * steps / m

    def locate_crossing(sign: int) -> float:
        """First zero of u -> g(psi0 + sign*u) on (0, pi]."""
        neg = np.flatnonzero(g[(j0 + sign * steps) % m] < 0.0)
        if neg.size == 0:
            return np.pi  # degenerate arc of full half-length (ray-like range)
        i = int(neg[0])
        lo, hi = (u[i - 1] if i > 0 else 0.0), u[i]
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if mid == lo or mid == hi:
                break  # the bracket is one ulp wide: further steps repeat this one
            if _min_herm_eig(a, psi0 + sign * mid) >= 0.0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0

    u_plus = locate_crossing(+1)
    u_minus = locate_crossing(-1)
    psi_plus = psi0 + u_plus
    psi_minus = psi0 - u_minus

    rho_inf = psi_plus - np.pi / 2.0
    rho_sup = psi_minus + np.pi / 2.0
    # shift the argument interval so its midpoint lies in (-pi, pi]
    mid = (rho_inf + rho_sup) / 2.0
    shift = _normalize_angle(mid) - mid
    lo_arg = rho_inf + shift
    hi_arg = rho_sup + shift
    if lo_arg < -np.pi - 1e-12 or hi_arg > np.pi + 1e-12:
        angle = float(np.pi)
    else:
        angle = float(min(np.pi, max(abs(lo_arg), abs(hi_arg))))

    # witness: boundary point attaining the extreme argument ray
    _, w_plus = _support_at(a, psi_plus + np.pi)
    _, w_minus = _support_at(a, psi_minus + np.pi)
    cand = [(abs(lo_arg), lo_arg, w_plus), (abs(hi_arg), hi_arg, w_minus)]
    if abs(cand[0][0] - cand[1][0]) <= 1e-12:
        # tie between the two extreme rays: report the smaller-angle one
        witness = min(cand, key=lambda item: item[1])[2]
    else:
        witness = max(cand, key=lambda item: item[0])[2]
    return SectorVerdict(angle=angle, witness=witness)


def is_nearly_positive(x, eps: float, tol: Tolerances | None = None) -> NearlyPositiveReport:
    """Test ||x|| <= 1 together with sectorial angle < arcsin(eps).

    When the verdict holds, the distance to the Hermitian part obeys
    ||x - Re x|| <= eps (up to eq_tol); the report records that check.
    """
    a = as_matrix(x)
    t = resolve_tol(tol)
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise InputError(f"eps must lie in (0, 1), got {eps!r}")
    nrm = _norm2(a)
    sect = _sectorial_angle(a, t)
    verdict = (
        nrm <= 1.0 + t.eq_tol
        and sect.angle is not None
        and sect.angle < math.asin(eps)
    )
    hdist = _norm2(a - _herm_part(a))
    hdist_ok = (not verdict) or (hdist <= eps + t.eq_tol)
    return NearlyPositiveReport(
        verdict=bool(verdict),
        eps=eps,
        norm=nrm,
        angle=sect.angle,
        herm_distance=hdist,
        herm_distance_ok=bool(hdist_ok),
    )
