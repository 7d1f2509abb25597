"""Numerical range of a matrix: boundary sweep, abscissa, distance to a
point, and the sectorial angle.

W(x) = {v*xv : ||v|| = 1} is compact and convex, with support function
h(theta) = max eig Re(e^{-i theta} x).  Only the boundary sweeps angles (its
points are its output), at an even number of them (Johnson, SIAM J. Numer.
Anal. 15, 1978).  One stacked values-only eigen-solve at the first half
gives h there, and the bottom eigenvalues, negated, give h at theta + pi.
One stacked shifted solve then gives every supporting point: a step of
inverse iteration, certified by its Rayleigh quotient (Ipsen, SIAM Review
39, 1997), with a full eigen-solve only for the slices it leaves
uncertified.  Elsewhere the directions psi where Re(e^{-i psi} b) is
singular, real eigen-angles of the pencil (Re b, -Re(-i b)) (Higham,
Tisseur and Van Dooren, Linear Algebra Appl. 351-352, 2002), and one
stacked eigen-solve at the midpoints between them bound an arc: for b = x
the admissible arc of a non-accretive x, for b = x - z the directions that
separate z from W(x).  An arc end at a tangent point is a double
eigen-angle, known from the pencil only to about sqrt(eps); one Newton
step on min eig sharpens it.  The sector of an accretive x = H + iK is
arctan max |lambda| over K v = lambda H v on the range of H (pi/2 when K
does not vanish on ker H).  Each decision is a cut
at _KER_ULPS * n * eps * ||x|| (linalg._rounding_cut), a small multiple of
the rounding level of the eigen-solve, never the sign of rounding noise:
the cut scales with x, so the angle of s x is that of x.  These sign and
cluster tests take no ambiguity window (linalg._nonzero): their cut is a
rounding bound, and computed kernels come out below 3 n eps ||x||, within
2x of a tenth of the cut.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import InputError
from .linalg import (Tolerances, _as_int, _as_number, _herm_part, _norm2, _rounding_cut,
                     as_matrix, resolve_tol)

__all__ = [
    "RangeBoundary",
    "SectorVerdict",
    "boundary",
    "abscissa",
    "support_function",
    "dist_to_point",
    "sectorial_angle",
]


@dataclass(frozen=True)
class RangeBoundary:
    """Supporting half-plane sweep of the numerical range.

    angles          -- strictly increasing grid in [0, 2*pi)
    support_values  -- h(theta) = max eig of Re(e^{-i theta} x)
    boundary_points -- v* x v for certified unit top eigenvectors v
    """

    angles: np.ndarray
    support_values: np.ndarray
    boundary_points: np.ndarray


@dataclass(frozen=True)
class SectorVerdict:
    """Smallest symmetric sector containing the numerical range.

    angle is the half-angle in [0, pi], or None when 0 is interior to W(x)
    (decided with the cut ktol of sectorial_angle).  0 on the boundary of
    W(x) is exact too: pi once W(x) meets the negative axis, and max(|phi|,
    pi - |phi|) when W(x) lies on a line e^{i phi} R.
    witness is a numerical-range point attaining the extreme argument
    (within ktol when the kernel rule gives pi/2; 0 for x ~ 0 or when only
    0 is on the extreme ray; None when angle is None).
    """

    angle: float | None
    witness: complex | None


def _herm_parts(x: np.ndarray, theta) -> np.ndarray:
    """Hermitian parts of e^{-i theta} x, stacked along the shape of theta.

    Built in place as (y + y*)/2 with y = e^{-i theta} x, entry for entry
    the same floating-point operations as ``herm_part`` on each rotated
    copy, so the eigenvalues match the one-angle evaluation bitwise.  In
    place rather than ``_herm_part(y)``, which allocates the conjugate and
    the sum of the whole stack and took 1.6 to 2.3 times as long at n = 16
    over 128 angles.
    """
    y = np.exp(-1j * np.asarray(theta))[..., None, None] * x
    re, im = y.real, y.imag
    re += re.swapaxes(-1, -2)
    im -= im.swapaxes(-1, -2)
    y /= 2.0
    return y


def support_function(x, theta: float) -> float:
    """h(theta) = sup {Re(e^{-i theta} z) : z in W(x)}, bitwise the value
    that ``boundary`` reports at the same angle in [0, pi)."""
    a = as_matrix(x)
    theta = _as_number(theta, "theta", "be finite, a real number")
    return float(np.linalg.eigvalsh(_herm_parts(a, theta))[-1])


def boundary(x, m: int = 256) -> RangeBoundary:
    """Sweep m supporting half-planes of W(x) at equispaced angles.

    m must be an even integer, at least 8.  One stacked values-only eigen-solve at
    the first m/2 angles gives both halves of the support values (the
    bottom eigenvalue at theta, negated, is the top one at theta + pi), and
    one stacked shifted solve the points v*xv (``_extreme_vectors``), each
    within _KER_ULPS * n * eps * ||x|| of its supporting line, so of the
    boundary of W(x).  The half-planes Re(e^{-i theta_j} z) <= h(theta_j)
    jointly enclose W(x).
    """
    a = as_matrix(x)
    m = _as_int(m, "boundary angle count", lo=8)
    if m % 2:
        raise InputError(f"boundary needs an even number of angles, got {m}")
    angles = 2.0 * np.pi * np.arange(m) / m
    h = _herm_parts(a, angles[: m // 2])
    w = np.linalg.eigvalsh(h)
    vecs = _extreme_vectors(h, np.concatenate((w[:, -1], w[:, 0])))
    points = np.einsum("ki,ki->k", vecs.conj(), vecs @ a.T)
    return RangeBoundary(angles=angles, support_values=np.concatenate((w[:, -1], -w[:, 0])),
                         boundary_points=points)


def _extreme_vectors(h: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Unit eigenvectors of the k Hermitian matrices h for their top
    eigenvalues lam[:k] and their bottom ones lam[k:], as rows.

    One step of inverse iteration each, in one stacked solve of (g - sigma
    I) u = b: g is the slice, sigma its eigenvalue moved one cut outwards
    (so g - sigma I is definite), b the fixed start b_p = sqrt(p) e^{ip},
    p = 1..n, whose unequal moduli keep it off every e_p +- e_q.  The cut
    is _KER_ULPS * n * eps * max |lam| (at most ||x||), and v = u/||u|| is
    kept when its Rayleigh quotient is within the cut of the eigenvalue:
    v*xv then lies in W(x) within the cut of the supporting line.  Slices
    with a non-finite or uncertified v take their vector from eigh, and so
    do all when the solve is singular (x = 0 makes every g - sigma I zero).
    """
    k, n = h.shape[0], h.shape[-1]
    cut = _rounding_cut(n, float(np.max(np.abs(lam))))
    shifted = np.concatenate((h, h))
    shifted.reshape(2 * k, n * n)[:, :: n + 1] -= (lam + np.repeat([cut, -cut], k))[:, None]
    p = np.arange(1.0, n + 1.0)
    with np.errstate(all="ignore"):
        try:
            u = np.linalg.solve(shifted, (np.sqrt(p) * np.exp(1j * p))[:, None])[..., 0]
        except np.linalg.LinAlgError:
            u = np.full((2 * k, n), np.nan, dtype=complex)
        v = u / np.linalg.norm(u, axis=-1, keepdims=True)
        hv = (h @ v.reshape(2, k, n, 1)).reshape(2 * k, n)
        gap = np.abs(np.einsum("ji,ji->j", v.conj(), hv).real - lam)
    redo = np.flatnonzero(~(gap <= cut))
    if redo.size:
        e = np.linalg.eigh(h[redo % k])[1]
        v[redo] = e[np.arange(redo.size), :, np.where(redo < k, -1, 0)]
    return v


def _abscissa(a: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(_herm_part(a))[0])


def abscissa(x) -> float:
    """Leftmost point of W(x): the smallest Hermitian-part eigenvalue."""
    return _abscissa(as_matrix(x))


def dist_to_point(x, z) -> float:
    """Distance from the complex point z to the numerical range W(x).

    With b = x - z, dist(z, W) = max(0, max_psi g(psi)) for g(psi) = min
    eig Re(e^{-i psi} b) = min Re(e^{-i psi}(W - z)).  g > 0 on one arc,
    bracketed by the pencil candidates of b around the run of midpoints
    above ktol = _KER_ULPS * n * eps * (|z| + ||x||_F); with none, z is in
    W(x) up to rounding, and 0 is returned.  g is unimodal on the arc (its
    superlevel sets are arcs): a safeguarded Newton iteration on g' refines
    the best midpoint, and at a kink the one-sided slopes decide and the
    bracket-end tangents give the next angle.  The largest g evaluated is
    returned, a lower bound accurate far beyond 1e-6 * (||x|| + |z| + 1).
    """
    return _dist_to_point(as_matrix(x),
                          _as_number(z, "z", "be finite, a complex number", kind=numbers.Complex))


# Newton on the slope of the gap stops at a step below _STEP_TOL (the gap is
# then within about |g''| * 1e-20 of its maximum), at a bracket narrower
# than _BRACKET_TOL, or after _MAX_SOLVES single-angle solves.
_STEP_TOL = 1e-10
_BRACKET_TOL = 1e-13
_MAX_SOLVES = 60


def _gap_jet(b: np.ndarray, psi: float):
    """g(psi) = min eig H for H = Re(e^{-i psi} b), its left and right
    slopes and a step, from one eigen-solve; H' = H(psi + pi/2), H'' = -H.
    Over the bottom cluster V of H (within rounding of g) the right slope
    is the least eigenvalue of V*H'V, the left one the largest (Kato,
    Perturbation Theory, II.5).  Equal slopes: g'' = -g + 2 sum_j |v_j* H'
    u|^2 / (g - w_j) over the eigenpairs apart from the bottom one u, and
    the step is Newton's (inf unless g'' < 0).  Else g has a kink within
    rounding of the crossing of its extreme branches, and the step goes
    there."""
    y = np.exp(-1j * psi) * b
    w, v = np.linalg.eigh((y + y.conj().T) / 2.0)
    hp, g = (y - y.conj().T) / 2j, w[0]
    apart = w - g > _rounding_cut(w.size, max(w[-1], -g))
    k = w.size - int(np.count_nonzero(apart))
    if k > 1:
        hpv = v[:, :k].conj().T @ hp @ v[:, :k]
        s = np.linalg.eigvalsh(hpv)
        if s[-1] - s[0] > _rounding_cut(w.size, max(w[-1], -g, s[-1], -s[0])):
            # the lowest branch rises to the crossing if its slope is the larger
            cross = (w[k - 1] - g) / (s[-1] - s[0])
            return g, s[-1], s[0], np.copysign(cross, hpv[0, 0].real - hpv[-1, -1].real)
    coupling = v.conj().T @ (hp @ v[:, 0])
    slope = coupling[0].real
    curvature = -g + 2.0 * np.sum(np.abs(coupling[apart]) ** 2 / (g - w[apart]))
    return g, slope, slope, -slope / curvature if curvature < 0 else np.inf


def _dist_to_point(a: np.ndarray, z: complex) -> float:
    b = a - z * np.eye(a.shape[0])
    c, mids = _pencil_angles(b)
    g = np.linalg.eigvalsh(_herm_parts(b, mids))[:, 0]
    pos = g > _rounding_cut(a.shape[0], abs(z) + float(np.linalg.norm(a)))
    if not pos.any():
        return 0.0
    # the candidates that bound the run of midpoints above ktol around the
    # best one (no wrap: g at the antipode of midpoint j is at most -g[j])
    j = int(np.argmax(g))
    psi, best, pos = float(mids[j]), float(g[j]), np.roll(pos, -j)
    lo = psi - float(np.mod(psi - c[(j - int(np.argmin(pos[::-1]))) % c.size], 2.0 * np.pi))
    hi = psi + float(np.mod(c[(j + int(np.argmin(pos))) % c.size] - psi, 2.0 * np.pi))
    tan_lo = tan_hi = None  # (g, slope) at the bracket ends, once evaluated
    last = before = hi - lo
    for _ in range(_MAX_SOLVES):
        val, left, right, step = _gap_jet(b, psi)
        best = max(best, val)
        if right > 0:
            lo, tan_lo = psi, (val, right)
        elif left < 0:
            hi, tan_hi = psi, (val, left)
        else:  # left >= 0 >= right: the maximum, or a kink within rounding of it
            return max(best, _gap_jet(b, psi + step)[0]) if left > right else best
        smooth = left == right
        if smooth and abs(step) < _STEP_TOL or hi - lo < _BRACKET_TOL:
            break
        # a Newton step stays in the bracket and is at most half the step
        # before last; else go where the tangents at its ends cross, or bisect
        new = (lo + hi) / 2.0
        if smooth and lo < psi + step < hi and abs(step) <= before / 2.0:
            new = psi + step
        elif tan_lo and tan_hi:
            (g0, s0), (g1, s1) = tan_lo, tan_hi
            cross = (g1 - g0 + s0 * lo - s1 * hi) / (s0 - s1)
            new = cross if lo < cross < hi else new
        last, before, psi = abs(new - psi), last, new
    return best


def _normalize_angle(a: float) -> float:
    """Map to (-pi, pi]."""
    a = math.fmod(a + math.pi, 2.0 * math.pi)
    if a <= 0:
        a += 2.0 * math.pi
    return a - math.pi


def sectorial_angle(x, tol: Tolerances | None = None) -> SectorVerdict:
    """Smallest half-angle theta with W(x) inside {|arg z| <= theta}.

    Write x = H + iK and let ktol = _KER_ULPS * n * eps * ||x||.  If the
    smallest eigenvalue of H is at least -ktol, x is accretive and the
    angle is exact, from one eigen-solve of H and one of the whitened K:

    - Kernel rule: let V span the eigenvectors of H with eigenvalue <=
      ktol.  If ||K V|| > ktol, the range reaches the imaginary axis and
      the angle is pi/2; the witness is i*lambda for the eigenvalue of
      V*KV of largest modulus, or 0 when every eigenvalue is within
      ktol of 0 (then 0 is the only point of W(x) on the axis).
    - Otherwise theta = arctan max |lambda| over the eigenvalues of
      W*KW with W = V_r diag(w_r)^(-1/2) whitening the range of H; the
      witness is u*xu for the matching unit vector u = W e / ||W e||.

    A non-accretive x is exact too.  The directions psi with min eig
    Re(e^{-i psi} x) >= 0 form an arc D (two antipodal points when W(x)
    lies on a line e^{i phi} R through 0), read off the pencil candidates
    and midpoints: the run of midpoints above ktol (0 outside W(x)), else
    the samples at or above -ktol.  An arc [psi-, psi+] gives the extreme
    rays psi+ - pi/2 and psi- + pi/2, two points the rays phi and phi +
    pi; the angle is the larger |arg| (pi once the cone holds the negative
    axis), and the witness the farthest point of W(x) on that ray.  angle
    is None only when no sample reaches -ktol: 0 is interior to W(x).
    """
    return _sectorial_angle(as_matrix(x), resolve_tol(tol))


def _sectorial_angle(a: np.ndarray, t: Tolerances) -> SectorVerdict:
    nrm = _norm2(a)
    if nrm <= t.eq_tol:
        return SectorVerdict(angle=0.0, witness=0j)
    ktol = _rounding_cut(a.shape[0], nrm)
    w, v = np.linalg.eigh(_herm_part(a))
    if w[0] >= -ktol:
        return _accretive_sector(a, w, v, ktol)
    return _pencil_sector(a, ktol)


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


def _runs(ok: np.ndarray) -> list:
    """(first, last) index of each cyclic run of True in ok, with last >=
    first and indices read mod len(ok)."""
    k = int(np.argmin(ok))
    d = np.diff(np.concatenate(([False], np.roll(ok, -k), [False])).astype(np.int8))
    return list(zip(np.flatnonzero(d == 1) + k, np.flatnonzero(d == -1) - 1 + k))


def _ray_point(a: np.ndarray, psi: float, rho: float, ktol: float) -> complex:
    """Farthest point of W(a) on the ray e^{i rho} R+, which lies on the
    supporting line Re(e^{-i psi} z) = 0: the top of Re(e^{-i rho} v*av)
    over the bottom eigenspace (within ktol) of Re(e^{-i psi} a)."""
    w, v = np.linalg.eigh(_herm_parts(a, psi))
    v = v[:, w <= w[0] + ktol]
    u = v @ np.linalg.eigh(v.conj().T @ _herm_parts(a, rho) @ v)[1][:, -1]
    return complex(u.conj() @ (a @ u))


def _pencil_angles(a: np.ndarray):
    """Candidates c for the psi where Re(e^{-i psi} a) = cos psi H + sin psi
    K is singular: the eigen-angles of (H, -K) and their antipodes, sorted
    in [0, 2 pi), from one QZ, and mids[i] between c[i] and c[i + 1] (c[0]
    + 2 pi for the last).  A complex eigenvalue adds a spurious candidate."""
    alpha, beta = sla.eigvals(_herm_part(a), -_herm_part(-1j * a), homogeneous_eigvals=True)
    s = np.where(np.abs(alpha) >= np.abs(beta), alpha, beta).conj()
    psi = np.arctan2((alpha * s).real, (beta * s).real)
    c = np.sort(np.mod(np.concatenate((psi, psi + np.pi)), 2.0 * np.pi))
    return c, (c + np.append(c[1:], c[0] + 2.0 * np.pi)) / 2.0


def _tangent_end(a: np.ndarray, c: np.ndarray, psi: float) -> float:
    """An end psi of the admissible arc, sharpened where it is a tangent
    point.  There g(psi) = min eig Re(e^{-i psi} a) touches 0 at its
    maximum, a double eigen-angle that the pencil splits into candidates
    about sqrt(eps) apart.  When two or more candidates lie within
    sqrt(eps) of psi, one Newton step of ``_gap_jet`` from their centre
    gives the maximum; it is kept only if it stays within sqrt(eps), so a
    simple crossing of 0 (a large step) keeps psi."""
    sqrt_eps = math.sqrt(np.finfo(float).eps)
    d = np.mod(c - psi + np.pi, 2.0 * np.pi) - np.pi
    near = d[np.abs(d) <= sqrt_eps]
    if near.size < 2:
        return psi
    centre = psi + float(np.mean(near))
    step = _gap_jet(a, centre)[3]
    return centre + step if abs(step) <= sqrt_eps else psi


def _pencil_sector(a: np.ndarray, ktol: float) -> SectorVerdict:
    """Exact sector of a non-accretive a from the eigen-angles of (H, -K)."""
    # samples: candidate c[i] at 2i, the midpoint after it at 2i + 1; run
    # indices reach past the end, so `at` repeats the samples one turn on
    c, mids = _pencil_angles(a)
    samples = np.column_stack((c, mids)).ravel()
    g = np.linalg.eigvalsh(_herm_parts(a, samples))[:, 0]
    at = np.append(samples, samples + 2.0 * np.pi)
    positive = _runs(g[1::2] > ktol)
    if positive:
        i, j = positive[0]
        psi_minus, psi_plus = float(at[2 * i]), float(at[2 * j + 2])
    else:
        runs = _runs(g >= -ktol)
        if not runs:
            # every direction cuts into W beyond ktol: 0 is interior
            return SectorVerdict(angle=None, witness=None)
        psi_minus, psi_plus = float(at[runs[0][0]]), float(at[runs[0][1]])
    psi_minus, psi_plus = _tangent_end(a, c, psi_minus), _tangent_end(a, c, psi_plus)
    if not positive and len(runs) > 1:
        # D is two antipodal points: W lies on the line e^{i phi} R
        psi = (psi_minus + psi_plus) / 2.0
        phi = _normalize_angle(psi - np.pi / 2.0)
        ray = phi if abs(phi) >= np.pi / 2.0 else phi + np.pi
        return SectorVerdict(angle=float(max(abs(phi), np.pi - abs(phi))),
                             witness=_ray_point(a, psi, ray, ktol))

    # the argument interval [psi+ - pi/2, psi- + pi/2], shifted so that its
    # midpoint lies in (-pi, pi]
    mid = (psi_minus + psi_plus) / 2.0
    shift = _normalize_angle(mid) - mid
    lo_arg, hi_arg = psi_plus - np.pi / 2.0 + shift, psi_minus + np.pi / 2.0 + shift
    angle = float(min(np.pi, max(abs(lo_arg), abs(hi_arg))))
    # witness on the extreme ray; on a tie, on the one of smaller argument
    tie = abs(abs(lo_arg) - abs(hi_arg)) <= 1e-12
    if (lo_arg <= hi_arg) if tie else (abs(lo_arg) > abs(hi_arg)):
        return SectorVerdict(angle=angle, witness=_ray_point(a, psi_plus, lo_arg, ktol))
    return SectorVerdict(angle=angle, witness=_ray_point(a, psi_minus, hi_arg, ktol))
