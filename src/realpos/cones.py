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
from .linalg import (Tolerances, _as_positive_int, _as_positive_real, _matrix_exp, _norm2,
                     as_matrix, resolve_tol)
from .numrange import _abscissa
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

    def _compress(self, a: np.ndarray) -> np.ndarray:
        if self.mode == "full":
            return a
        u = self.isometry
        return u.conj().T @ a @ u

    def compress(self, x) -> np.ndarray:
        """u* x u: coordinates of a corner element in M_dim."""
        a = as_matrix(x)
        if a.shape[0] != self.n:
            raise InputError(f"matrix is {a.shape[0]}x{a.shape[0]}, ambient expects n={self.n}")
        return self._compress(a)

    def _embed(self, y: np.ndarray) -> np.ndarray:
        if self.mode == "full":
            return y
        u = self.isometry
        return u @ y @ u.conj().T

    def embed(self, y) -> np.ndarray:
        """u y u*: corner coordinates back into the ambient algebra."""
        y = as_matrix(y)
        if y.shape[0] != self.dim:
            raise InputError(f"corner coordinates are {y.shape[0]}-dim, expected {self.dim}")
        return self._embed(y)

    def _compress_member(self, a: np.ndarray, t: Tolerances) -> np.ndarray:
        """Corner coordinates of a validated matrix, once it is checked to
        lie in the corner (ex = xe = x)."""
        if a.shape[0] != self.n:
            raise InputError(f"matrix is {a.shape[0]}x{a.shape[0]}, ambient expects n={self.n}")
        if self.mode == "full":
            return a
        e = self.unit
        scale = 1.0 + _norm2(a)
        r_left = _norm2(e @ a - a)
        r_right = _norm2(a @ e - a)
        if max(r_left, r_right) > 100 * t.eq_tol * scale:
            raise InputError(
                "matrix does not lie in the corner: residuals "
                f"|ex-x|={r_left:.3g}, |xe-x|={r_right:.3g} exceed tolerance"
            )
        return self._compress(a)


def full_context(n: int) -> AmbientContext:
    n = _as_positive_int(n, "ambient dimension")
    return AmbientContext(n=n, unit=np.eye(n, dtype=complex), mode="full",
                          isometry=np.eye(n, dtype=complex))


def _context(ctx, n: int, name: str = "ctx") -> AmbientContext:
    """ctx, or M_n for None; InputError, naming name, for anything that is
    not an AmbientContext."""
    if ctx is None:
        return full_context(n)
    if not isinstance(ctx, AmbientContext):
        raise InputError(f"{name} must be an AmbientContext or None, got {type(ctx).__name__}")
    return ctx


def corner_context(e, tol: Tolerances | None = None) -> AmbientContext:
    """Corner algebra e M_n e for a Hermitian idempotent e."""
    a = as_matrix(e, "e")
    t = resolve_tol(tol)
    herm_res = _norm2(a - a.conj().T)
    idem_res = _norm2(a @ a - a)
    if herm_res > 100 * t.eq_tol * (1.0 + _norm2(a)):
        raise InputError(f"corner unit is not Hermitian: residual {herm_res:.3g}")
    if idem_res > 100 * t.eq_tol * (1.0 + _norm2(a)) ** 2:
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
    _, _, t, xc, _ = _element(x, ctx, tol, "membership", cone=None)
    return _membership(xc, t)


def _membership(xc: np.ndarray, t: Tolerances) -> ConeMembership:
    """Both cone tests on the corner coordinates xc of a checked member."""
    k = xc.shape[0]
    f_res = float(_norm2(np.eye(k) - xc) - 1.0)
    r_res = float(_abscissa(xc))
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


def _require_in(xc: np.ndarray, t: Tolerances, who: str, cone: str = "r",
                name: str = "x") -> ConeMembership:
    """Cone membership of the corner coordinates xc; raises
    PreconditionError, naming who, name, the residual and its bound,
    unless xc lies in the cone ("r" accretive, "F" shrunken)."""
    mem = _membership(xc, t)
    if cone == "r" and not mem.in_r:
        raise PreconditionError(
            f"{who} needs {name} accretive; abscissa residual {mem.r_residual:.3g} "
            f"is below -psd_tol = {-t.psd_tol:.3g}"
        )
    if cone == "F" and not mem.in_F:
        raise PreconditionError(
            f"{who} needs {name} in F; residual ||e - {name}|| - 1 = {mem.F_residual:.3g} "
            f"exceeds eq_tol = {t.eq_tol:.3g}"
        )
    return mem


def _element(x, ctx: AmbientContext | None, tol: Tolerances | None, who: str,
             cone: str | None = "r", name: str = "x"):
    """The entry check of every function that takes a cone element.

    Validates x (as name), defaults ctx to M_n, checks that x lies in the
    corner and, unless cone is None, that it lies in the cone ("r" or
    "F"; see _require_in).  Returns (a, ctx, t, xc, mem): the validated
    matrix, the context, the tolerances, the corner coordinates and the
    cone membership (None when cone is None, which computes none).
    """
    a = as_matrix(x, name)
    ctx = _context(ctx, a.shape[0])
    t = resolve_tol(tol)
    xc = ctx._compress_member(a, t)
    mem = None if cone is None else _require_in(xc, t, who, cone, name)
    return a, ctx, t, xc, mem


def _semigroup_and_resolvents(xc: np.ndarray, absc: float, t_grid: np.ndarray):
    """exp(-t xc) and (t e + xc)^{-1} over the t-grid, each one stacked call;
    absc is the abscissa of xc.

    Returns (exps, exp_ok, invs, inv_ok); a slice whose mask is False
    holds the unit.  exp(-t xc) fails at a t where the overflow guard of
    _matrix_exp trips (on -t abscissa(xc), the top eigenvalue of -t Re xc)
    or expm overflows, a blow-up certifying that condition 3 fails there.
    A singular t e + xc (-t an eigenvalue: not accretive) makes the stacked
    solve raise; only then the resolvent runs per t to find those slices.
    """
    eye = np.eye(xc.shape[0])
    ts = t_grid[:, None, None]
    exps, exp_ok, _ = _matrix_exp(-ts * xc, -t_grid * absc)
    exps[~exp_ok] = eye
    inv_ok = np.ones(t_grid.size, dtype=bool)
    try:
        invs = np.linalg.solve(ts * eye + xc, eye)
    except np.linalg.LinAlgError:
        invs = np.empty_like(exps)
        for i, t in enumerate(t_grid):
            try:
                invs[i] = np.linalg.solve(t * eye + xc, eye)
            except np.linalg.LinAlgError:
                invs[i], inv_ok[i] = eye, False
    return exps, exp_ok, invs, inv_ok


def chaccr_verify(x, ctx: AmbientContext,
                  tol: Tolerances | None = None) -> VerificationReport:
    """Check five equivalent characterisations of accretivity on the fixed
    t-grid of 20 points spaced logarithmically over [1e-2, 1e2].

    1. abscissa(x) >= 0;
    2. ||e - t x|| <= 1 + t^2 ||x||^2 for all t > 0;
    3. ||exp(-t x)|| <= 1 for all t > 0;
    4. (t e + x) invertible with ||(t e + x)^{-1}|| <= 1/t for all t > 0;
    5. ||e - t x|| <= ||e - t^2 x^2|| for all t > 0.

    Grid conditions get slack eq_tol * (1 + ||x||^2 t^2).  The whole grid
    runs stacked: one overflow guard and one expm for exp(-t x), one solve
    for the resolvents, one SVD per norm family.  An exponential that
    overflows, or a singular t e + x, fails condition 3 or 4 at that t
    (consistent with the others), not an error; the residual of a
    condition is its largest margin over the t where it was computed (the
    largest double when it was computed at none), and details list the
    failed t as c3_failed_t / c4_failed_t.  The report passes iff all five
    verdicts agree.
    """
    a, ctx, tl, xc, _ = _element(x, ctx, tol, "chaccr_verify", cone=None)
    k = xc.shape[0]
    eye = np.eye(k)
    nrm = _norm2(xc)
    t_grid = np.logspace(-2.0, 2.0, 20)

    absc = _abscissa(xc)
    v1 = absc >= -tl.psd_tol

    def grid_norms(stack, what):
        """||m|| for each matrix m of the t-grid stack, one SVD call."""
        try:
            return _norm2(stack)
        except NumericError:
            raise NumericError(f"chaccr_verify: {what} overflows on the t-grid "
                               f"(||x|| = {nrm:.3g})") from None

    exps, exp_ok, invs, inv_ok = _semigroup_and_resolvents(xc, absc, t_grid)
    # an overflow on the t-grid is reported as NumericError (by grid_norms or
    # the growth check below), not as numpy warnings; growth takes scalar
    # powers, as in the per-t formula: an array power rounds differently
    with np.errstate(over="ignore", invalid="ignore"):
        growth = np.array([1.0 + (nrm * t) ** 2 for t in t_grid])
        slack = tl.eq_tol * growth
        ts = t_grid[:, None, None]
        lin = grid_norms(eye - ts * xc, "condition c2/c5 ||e - t x||")
        margins = {
            "c2": lin - growth - slack,
            "c3": np.where(exp_ok, grid_norms(exps, "condition c3 ||exp(-t x)||")
                           - 1.0 - slack, np.inf),
            "c4": np.where(inv_ok, grid_norms(invs, "condition c4 ||(t e + x)^-1||")
                           - 1.0 / t_grid - slack / t_grid, np.inf),
            "c5": lin - grid_norms(eye - ts * ts * (xc @ xc),
                                   "condition c5 ||e - t^2 x^2||") - slack,
        }
    if not np.isfinite(growth).all():  # x^2 need not overflow when x does, e.g. nilpotent x
        raise NumericError("chaccr_verify: the growth bound 1 + (t ||x||)^2 overflows "
                           f"on the t-grid (||x|| = {nrm:.3g})")
    verdicts = {"c1_abscissa": bool(v1),
                "c2_norm_growth": bool(np.all(margins["c2"] <= 0)),
                "c3_semigroup": bool(np.all(margins["c3"] <= 0)),
                "c4_resolvent": bool(np.all(margins["c4"] <= 0)),
                "c5_square_compare": bool(np.all(margins["c5"] <= 0))}
    agree = len(set(verdicts.values())) == 1
    details = {"t_grid_size": int(t_grid.size), "norm": nrm}
    for c, ok in (("c3", exp_ok), ("c4", inv_ok)):
        if not ok.all():
            details[f"{c}_failed_t"] = t_grid[~ok].tolist()
    return VerificationReport(
        check="chaccr",
        passed=bool(agree),
        verdicts=verdicts,
        residuals={"abscissa": absc, **{c: _largest_computed(m) for c, m in margins.items()}},
        tolerances=tl.as_dict(),
        details=details,
        instance=matrix_digest(a),
    )


def _largest_computed(margins: np.ndarray) -> float:
    """The largest finite margin, or the largest double when none is
    finite (the condition was computed at no t)."""
    done = margins[np.isfinite(margins)]
    return float(done.max()) if done.size else float(np.finfo(float).max)


def scale_into_F(x, ctx: AmbientContext, eps: float,
                 tol: Tolerances | None = None):
    """Scale an accretive x into F: returns (C, y, certificate).

    C = eps + ||x||^2 / eps and y = (x + eps e) / C satisfies
    ||e - y|| <= 1 whenever x is accretive; the certificate is y's
    F-residual (<= eq_tol).
    """
    eps = _as_positive_real(eps, "eps")
    a, ctx, t, xc, _ = _element(x, ctx, tol, "scale_into_F")
    nrm = _norm2(xc)
    c = eps + nrm * nrm / eps
    y = (a + eps * ctx.unit) / c
    cert = _membership(ctx._compress(y), t).F_residual
    return float(c), y, float(cert)


def approximate_from_F(x, ctx: AmbientContext, t: float,
                       tol: Tolerances | None = None) -> np.ndarray:
    """Resolvent-type approximant a_t = x (e + t x)^{-1} for accretive x.

    t * a_t lies in F and ||a_t - x|| <= t ||x||^2, so a_t -> x as t -> 0
    with every t*a_t inside the shrunken cone.
    """
    t = _as_positive_real(t, "t")
    _, ctx, _, xc, _ = _element(x, ctx, tol, "approximate_from_F")
    k = xc.shape[0]
    at = np.linalg.solve((np.eye(k) + t * xc).conj().T, xc.conj().T).conj().T
    return ctx._embed(at)


def order_leq(b, a, tol: Tolerances | None = None) -> bool:
    """Accretive-cone order: b <= a iff a - b is accretive."""
    t = resolve_tol(tol)
    bb = as_matrix(b, "b")
    aa = as_matrix(a, "a")
    if bb.shape != aa.shape:
        raise InputError(f"shape mismatch: {bb.shape} vs {aa.shape}")
    return bool(_abscissa(aa - bb) >= -t.psd_tol)


def decompose_halfF(b, ctx: AmbientContext, tol: Tolerances | None = None):
    """Write b = x - y with x, y in (1/2) F, given ||b|| < 1.

    x = (e + b)/2 and y = (e - b)/2; then ||e - 2x|| = ||b|| < 1 puts
    both halves strictly inside (1/2) F.
    """
    a, ctx, _, bc, _ = _element(b, ctx, tol, "decompose_halfF", cone=None, name="b")
    nrm = _norm2(bc)
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
    ax, ctx, t, xc, _ = _element(x, ctx, tol, "upper_bound_pair", cone=None)
    ay, _, _, yc, _ = _element(y, ctx, t, "upper_bound_pair", cone=None, name="y")
    nx, ny = _norm2(xc), _norm2(yc)
    if nx >= 1.0 or ny >= 1.0:
        raise PreconditionError(
            f"upper_bound_pair needs open-unit-ball inputs, got norms {nx:.6g}, {ny:.6g}"
        )
    e = ctx.unit
    if not (_abscissa(e - ax) >= -t.psd_tol and _abscissa(e - ay) >= -t.psd_tol):
        raise NumericError("unit failed to dominate open-ball elements (unexpected)")
    return e
