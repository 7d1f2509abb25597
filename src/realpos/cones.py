"""Real-positivity cones relative to an ambient matrix algebra.

Two cones are tracked for an element x of the ambient algebra (the full
n-by-n algebra, or a corner e M_n e cut out by a Hermitian idempotent):

* the shrunken cone F = {x : ||e - x|| <= 1}, and
* the accretive cone r = {x : Re(v* x v) >= 0}, i.e. abscissa >= 0.

All norms and spectra are computed after compressing to the corner via
its range isometry, so corner membership agrees with membership computed
in any intermediate subalgebra containing the element.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InputError, NumericError, PreconditionError
from .linalg import (
    Tolerances,
    as_matrix,
    herm_part,
    matrix_exp,
    operator_norm,
    resolve_tol,
)
from .numrange import abscissa
from .report import VerificationReport, matrix_digest

__all__ = [
    "AmbientContext",
    "full_context",
    "corner_context",
    "ConeMembership",
    "membership",
    "chaccr_verify",
    "scale_into_F",
    "approximate_from_F",
    "order_leq",
    "decompose_halfF",
    "upper_bound_pair",
]


class AmbientContext:
    """Ambient algebra: full M_n or a corner e M_n e.

    The corner case carries the isometry u (n-by-k, columns an
    orthonormal basis of range e); compression u* x u identifies the
    corner with M_k isometrically, which is how every norm, abscissa and
    inverse below is evaluated.
    """

    def __init__(self, n: int, unit: np.ndarray, mode: str, isometry: np.ndarray):
        self.n = int(n)
        self.unit = unit
        self.mode = mode
        self.isometry = isometry
        self.dim = isometry.shape[1]

    def __repr__(self):
        return f"AmbientContext(mode={self.mode!r}, n={self.n}, dim={self.dim})"

    def compress(self, x) -> np.ndarray:
        """u* x u: coordinates of a corner element in M_dim."""
        a = as_matrix(x)
        if a.shape[0] != self.n:
            raise InputError(f"matrix is {a.shape[0]}x{a.shape[0]}, ambient expects n={self.n}")
        if self.mode == "full":
            return a
        u = self.isometry
        return u.conj().T @ a @ u

    def embed(self, y) -> np.ndarray:
        """u y u*: corner coordinates back into the ambient algebra."""
        y = as_matrix(y)
        if y.shape[0] != self.dim:
            raise InputError(f"corner coordinates are {y.shape[0]}-dim, expected {self.dim}")
        if self.mode == "full":
            return y
        u = self.isometry
        return u @ y @ u.conj().T

    def check_member(self, x, tol: Tolerances | None = None) -> np.ndarray:
        """Validate ex = xe = x (x lies in the corner); returns x."""
        a = as_matrix(x)
        t = resolve_tol(tol)
        if a.shape[0] != self.n:
            raise InputError(f"matrix is {a.shape[0]}x{a.shape[0]}, ambient expects n={self.n}")
        if self.mode == "full":
            return a
        e = self.unit
        scale = 1.0 + operator_norm(a)
        r_left = operator_norm(e @ a - a)
        r_right = operator_norm(a @ e - a)
        if max(r_left, r_right) > 100 * t.eq_tol * scale:
            raise InputError(
                "matrix does not lie in the corner: residuals "
                f"|ex-x|={r_left:.3g}, |xe-x|={r_right:.3g} exceed tolerance"
            )
        return a

    def corner_norm(self, x) -> float:
        return operator_norm(self.compress(x))

    def corner_abscissa(self, x) -> float:
        return abscissa(self.compress(x))


def full_context(n: int) -> AmbientContext:
    n = int(n)
    if n < 1:
        raise InputError(f"ambient dimension must be >= 1, got {n}")
    return AmbientContext(n=n, unit=np.eye(n, dtype=complex), mode="full",
                          isometry=np.eye(n, dtype=complex))


def corner_context(e, tol: Tolerances | None = None) -> AmbientContext:
    """Corner algebra e M_n e for a Hermitian idempotent e."""
    a = as_matrix(e, "e")
    t = resolve_tol(tol)
    herm_res = operator_norm(a - a.conj().T)
    idem_res = operator_norm(a @ a - a)
    if herm_res > 100 * t.eq_tol * (1.0 + operator_norm(a)):
        raise InputError(f"corner unit is not Hermitian: residual {herm_res:.3g}")
    if idem_res > 100 * t.eq_tol * (1.0 + operator_norm(a)) ** 2:
        raise InputError(f"corner unit is not idempotent: residual {idem_res:.3g}")
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    mask = w > 0.5
    if not np.any(mask):
        raise InputError("corner unit has rank 0; the corner algebra is trivial")
    u = v[:, mask]
    e_clean = u @ u.conj().T
    return AmbientContext(n=a.shape[0], unit=e_clean, mode="corner", isometry=u)


@dataclass(frozen=True)
class ConeMembership:
    """Joint verdict for the shrunken cone F and the accretive cone r.

    F_residual = ||e - x|| - 1 (corner norm); r_residual = abscissa.
    boundary flags an element within +-eq_tol of either cone's face.
    """

    in_F: bool
    in_r: bool
    F_residual: float
    r_residual: float
    eq_tol: float
    psd_tol: float
    boundary: bool


def membership(x, ctx: AmbientContext, tol: Tolerances | None = None) -> ConeMembership:
    """Evaluate both cone tests for x relative to the ambient context."""
    t = resolve_tol(tol)
    a = ctx.check_member(x, t)
    xc = ctx.compress(a)
    k = xc.shape[0]
    f_res = float(operator_norm(np.eye(k) - xc) - 1.0)
    r_res = float(abscissa(xc))
    is_f = f_res <= t.eq_tol
    is_r = r_res >= -t.psd_tol
    if is_f and not is_r:
        # ||e - x|| <= 1 + eq_tol forces abscissa >= -eq_tol; keep the
        # implication intact when psd_tol was set tighter than eq_tol
        is_r = True
    on_edge = abs(f_res) <= t.eq_tol or abs(r_res) <= t.psd_tol
    return ConeMembership(
        in_F=bool(is_f),
        in_r=bool(is_r),
        F_residual=f_res,
        r_residual=r_res,
        eq_tol=t.eq_tol,
        psd_tol=t.psd_tol,
        boundary=bool(on_edge),
    )


def chaccr_verify(x, ctx: AmbientContext, t_grid=None,
                  tol: Tolerances | None = None) -> VerificationReport:
    """Check five equivalent characterisations of accretivity on a t-grid.

    1. abscissa(x) >= 0;
    2. ||e - t x|| <= 1 + t^2 ||x||^2 for all t > 0;
    3. ||exp(-t x)|| <= 1 for all t > 0;
    4. (t e + x) invertible with ||(t e + x)^{-1}|| <= 1/t for all t > 0;
    5. ||e - t x|| <= ||e - t^2 x^2|| for all t > 0.

    Grid conditions get slack eq_tol * (1 + ||x||^2 t^2).  A singular
    t e + x counts as condition-4 failure (consistent with the others),
    not an error.  The report passes iff all five verdicts agree.
    """
    tl = resolve_tol(tol)
    a = ctx.check_member(x, tl)
    xc = ctx.compress(a)
    k = xc.shape[0]
    eye = np.eye(k)
    nrm = operator_norm(xc)
    if t_grid is None:
        t_grid = np.logspace(-2.0, 2.0, 20)
    t_grid = np.asarray(t_grid, dtype=float)
    if t_grid.size == 0 or np.any(t_grid <= 0):
        raise InputError("t_grid must be a nonempty array of positive reals")

    v1 = abscissa(xc) >= -tl.psd_tol

    xc2 = xc @ xc
    worst = {"c2": -np.inf, "c3": -np.inf, "c4": -np.inf, "c5": -np.inf}
    v2 = v3 = v4 = v5 = True
    for t in t_grid:
        slack = tl.eq_tol * (1.0 + (nrm * t) ** 2)
        m2 = operator_norm(eye - t * xc) - (1.0 + (t * nrm) ** 2) - slack
        worst["c2"] = max(worst["c2"], m2)
        v2 &= m2 <= 0

        try:
            m3 = operator_norm(matrix_exp(-t * xc)) - 1.0 - slack
        except NumericError:
            m3 = np.inf  # exponential blow-up certifies failure at this t
        worst["c3"] = max(worst["c3"], m3)
        v3 &= m3 <= 0

        try:
            inv = np.linalg.solve(t * eye + xc, eye)
            m4 = operator_norm(inv) - 1.0 / t - slack / t
        except np.linalg.LinAlgError:
            m4 = np.inf  # -t is an eigenvalue: certainly not accretive
        worst["c4"] = max(worst["c4"], m4)
        v4 &= m4 <= 0

        m5 = operator_norm(eye - t * xc) - operator_norm(eye - t * t * xc2) - slack
        worst["c5"] = max(worst["c5"], m5)
        v5 &= m5 <= 0

    verdicts = {"c1_abscissa": bool(v1), "c2_norm_growth": bool(v2),
                "c3_semigroup": bool(v3), "c4_resolvent": bool(v4),
                "c5_square_compare": bool(v5)}
    agree = len(set(verdicts.values())) == 1
    return VerificationReport(
        check="chaccr",
        passed=bool(agree),
        verdicts=verdicts,
        residuals={"abscissa": abscissa(xc), **{k2: float(v) for k2, v in worst.items()}},
        tolerances=tl.as_dict(),
        details={"t_grid_size": int(t_grid.size), "norm": nrm},
        instance=matrix_digest(a),
    )


def scale_into_F(x, ctx: AmbientContext, eps: float,
                 tol: Tolerances | None = None):
    """Scale an accretive x into F: returns (C, y, certificate).

    C = eps + ||x||^2 / eps and y = (x + eps e) / C satisfies
    ||e - y|| <= 1 whenever x is accretive; the certificate is y's
    F-residual (<= eq_tol).
    """
    t = resolve_tol(tol)
    eps = float(eps)
    if eps <= 0:
        raise InputError(f"eps must be positive, got {eps!r}")
    m = membership(x, ctx, t)
    if not m.in_r:
        raise PreconditionError(
            f"scale_into_F needs an accretive input; abscissa residual {m.r_residual:.3g}"
        )
    a = ctx.check_member(x, t)
    nrm = ctx.corner_norm(a)
    c = eps + nrm * nrm / eps
    y = (a + eps * ctx.unit) / c
    cert = membership(y, ctx, t).F_residual
    return float(c), y, float(cert)


def approximate_from_F(x, ctx: AmbientContext, t: float,
                       tol: Tolerances | None = None) -> np.ndarray:
    """Resolvent-type approximant a_t = x (e + t x)^{-1} for accretive x.

    t * a_t lies in F and ||a_t - x|| <= t ||x||^2, so a_t -> x as t -> 0
    with every t*a_t inside the shrunken cone.
    """
    tl = resolve_tol(tol)
    t = float(t)
    if t <= 0:
        raise InputError(f"t must be positive, got {t!r}")
    m = membership(x, ctx, tl)
    if not m.in_r:
        raise PreconditionError(
            f"approximate_from_F needs an accretive input; abscissa residual {m.r_residual:.3g}"
        )
    a = ctx.check_member(x, tl)
    xc = ctx.compress(a)
    k = xc.shape[0]
    at = np.linalg.solve((np.eye(k) + t * xc).conj().T, xc.conj().T).conj().T
    return ctx.embed(at)


def order_leq(b, a, tol: Tolerances | None = None) -> bool:
    """Accretive-cone order: b <= a iff a - b is accretive."""
    t = resolve_tol(tol)
    bb = as_matrix(b, "b")
    aa = as_matrix(a, "a")
    if bb.shape != aa.shape:
        raise InputError(f"shape mismatch: {bb.shape} vs {aa.shape}")
    return bool(abscissa(aa - bb) >= -t.psd_tol)


def decompose_halfF(b, ctx: AmbientContext, tol: Tolerances | None = None):
    """Write b = x - y with x, y in (1/2) F, given ||b|| < 1.

    x = (e + b)/2 and y = (e - b)/2; then ||e - 2x|| = ||b|| < 1 puts
    both halves strictly inside (1/2) F.
    """
    t = resolve_tol(tol)
    a = ctx.check_member(b, t)
    nrm = ctx.corner_norm(a)
    if nrm >= 1.0:
        raise PreconditionError(f"decompose_halfF needs ||b|| < 1, got {nrm:.6g}")
    x = (ctx.unit + a) / 2.0
    y = (ctx.unit - a) / 2.0
    return x, y


def upper_bound_pair(x, y, ctx: AmbientContext, tol: Tolerances | None = None):
    """Common accretive upper bound in (1/2)*2 F for two open-ball elements.

    For ||x|| < 1 and ||y|| < 1 the unit e dominates both in the
    accretive order (e - x and e - y are accretive since their Hermitian
    parts are I - Re x >= (1 - ||x||) I > 0).
    """
    t = resolve_tol(tol)
    ax = ctx.check_member(x, t)
    ay = ctx.check_member(y, t)
    nx, ny = ctx.corner_norm(ax), ctx.corner_norm(ay)
    if nx >= 1.0 or ny >= 1.0:
        raise PreconditionError(
            f"upper_bound_pair needs open-unit-ball inputs, got norms {nx:.6g}, {ny:.6g}"
        )
    e = ctx.unit
    if not (order_leq(ax, e, t) and order_leq(ay, e, t)):
        raise NumericError("unit failed to dominate open-ball elements (unexpected)")
    return e
