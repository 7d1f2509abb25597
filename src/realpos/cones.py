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
from .linalg import (_EXP_OVERFLOW, Tolerances, _as_array, _as_instance, _as_int,
                     _matrix_exp, _norm2, _rounding_cut, as_matrix, resolve_tol)
from .numrange import _abscissa
from .report import VerificationReport, matrix_digest

__all__ = [
    "AmbientContext",
    "full_context",
    "corner_context",
    "ConeMembership",
    "membership",
    "chaccr_verify",
    "decompose_halfF",
]


class AmbientContext:
    """Ambient algebra: full M_n (isometry None) or the corner e M_n e of
    e = u u*, for an n-by-k isometry u whose columns are an orthonormal
    basis of range e.  Compression u* x u identifies the corner with M_k
    isometrically, which is how every norm, abscissa and inverse below is
    evaluated.  The unit e and the dimension k are read off u.  A context
    has no public compress or embed: the entry check of every function
    that takes an element (``_element``) checks it lies in the corner
    before compressing it.
    """

    def __init__(self, n: int, isometry=None):
        self.n = _as_int(n, "ambient dimension")
        u = None if isometry is None else _as_array(isometry, "isometry")
        if u is not None:
            k = u.shape[1] if u.ndim == 2 else 0
            if (u.shape != (self.n, k) or k < 1 or not np.isfinite(u).all()
                    or _norm2(u.conj().T @ u - np.eye(k)) > _rounding_cut(self.n, 1.0)):
                raise InputError(f"isometry must be a finite {self.n} x k matrix, 1 <= k <= "
                                 f"{self.n}, with orthonormal columns; got shape {u.shape}")
        self.isometry = u

    @property
    def dim(self) -> int:
        return self.n if self.isometry is None else self.isometry.shape[1]

    @property
    def unit(self) -> np.ndarray:
        u = self.isometry
        return np.eye(self.n, dtype=complex) if u is None else u @ u.conj().T

    def __repr__(self):
        return f"AmbientContext(n={self.n}, dim={self.dim})"

    def _compress(self, a: np.ndarray) -> np.ndarray:
        u = self.isometry
        return a if u is None else u.conj().T @ a @ u

    def _embed(self, y: np.ndarray) -> np.ndarray:
        u = self.isometry
        return y if u is None else u @ y @ u.conj().T


def full_context(n: int) -> AmbientContext:
    return AmbientContext(n)


def corner_context(e, tol: Tolerances | None = None) -> AmbientContext:
    """Corner algebra e M_n e for a Hermitian idempotent e."""
    a = as_matrix(e, "e")
    t = resolve_tol(tol)
    herm_res = _norm2(a - a.conj().T)
    idem_res = _norm2(a @ a - a)
    scale = 1.0 + _norm2(a)
    if herm_res > 100 * t.eq_tol * scale:
        raise InputError(f"corner unit is not Hermitian: residual {herm_res:.3g}")
    if idem_res > 100 * t.eq_tol * scale ** 2:
        raise InputError(f"corner unit is not idempotent: residual {idem_res:.3g}")
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    mask = w > 0.5
    if not np.any(mask):
        raise InputError("corner unit has rank 0; the corner algebra is trivial")
    return AmbientContext(a.shape[0], v[:, mask])


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
             cone: str | None = "r", name: str = "x", ctx_name: str = "ctx"):
    """The entry check of every function that takes a cone element.

    Validates x (as name) and ctx (as ctx_name; None is M_n), checks that
    x is ctx.n-by-ctx.n (in the message format of _as_sized), that it
    lies in the corner (ex = xe = x) and, unless cone is None, that it
    lies in the cone ("r" or "F"; see _require_in).  Returns (a, ctx, t,
    xc, mem): the validated matrix, the context, the tolerances, the
    corner coordinates and the cone membership (None when cone is None,
    which computes none).
    """
    a = as_matrix(x, name)
    ctx = _as_instance(ctx, AmbientContext, ctx_name, lambda: full_context(a.shape[0]))
    t = resolve_tol(tol)
    n = ctx.n
    if a.shape[0] != n:
        raise InputError(f"{name} is {a.shape[0]}x{a.shape[0]}, expected {n}x{n}")
    if ctx.isometry is not None:
        e, scale = ctx.unit, 1.0 + _norm2(a)
        r_left, r_right = _norm2(e @ a - a), _norm2(a @ e - a)
        if max(r_left, r_right) > 100 * t.eq_tol * scale:
            raise InputError(
                "matrix does not lie in the corner: residuals "
                f"|ex-x|={r_left:.3g}, |xe-x|={r_right:.3g} exceed tolerance"
            )
    xc = ctx._compress(a)
    mem = None if cone is None else _require_in(xc, t, who, cone, name)
    return a, ctx, t, xc, mem


def _semigroup(xc: np.ndarray, absc: float, ts: np.ndarray):
    """exp(-t xc) at each t of ts: one stacked overflow guard and one expm
    call; absc is the abscissa of xc.

    Returns (exps, ok); a slice whose mask is False holds the unit.
    exp(-t xc) fails at a t where the overflow guard of _matrix_exp trips
    (on -t abscissa(xc), the top eigenvalue of -t Re xc) or expm
    overflows, a blow-up certifying that condition 3 fails there.
    """
    exps, ok, _ = _matrix_exp(-ts[:, None, None] * xc, -ts * absc)
    exps[~ok] = np.eye(xc.shape[0])
    return exps, ok


def _resolvent(xc: np.ndarray, ts: np.ndarray):
    """(t e + xc)^{-1} at each t of ts: one stacked solve.

    Returns (invs, ok); a slice whose mask is False holds the unit.  A
    singular t e + xc (-t an eigenvalue: not accretive) makes the stacked
    solve raise; only then the resolvent runs per t to find those slices.
    """
    eye = np.eye(xc.shape[0])
    ok = np.ones(ts.size, dtype=bool)
    try:
        return np.linalg.solve(ts[:, None, None] * eye + xc, eye), ok
    except np.linalg.LinAlgError:
        invs = np.empty((ts.size,) + xc.shape, dtype=complex)
        for i, t in enumerate(ts):
            try:
                invs[i] = np.linalg.solve(t * eye + xc, eye)
            except np.linalg.LinAlgError:
                invs[i], ok[i] = eye, False
    return invs, ok


def _norm_bounds(absc: float, nrm: float, t_grid: np.ndarray, lin_stack: np.ndarray,
                 sq_stack: np.ndarray):
    """Closed-form upper bounds (lin_hi, exp_hi, inv_hi, gap_hi) on
    ||e - t x||, ||exp(-t x)||, ||(t e + x)^{-1}|| and
    ||e - t x|| - ||e - t^2 x^2|| at each t of t_grid; lin_stack and
    sq_stack are the stacks e - t x and e - t^2 x^2.

    With a the abscissa and v a unit vector, the proofs of 1 => 2-5 give:
    * ||v - t x v||^2 = 1 - 2 t Re<x v, v> + t^2 ||x v||^2
      <= 1 - 2 t a + t^2 ||x||^2;
    * ||exp(-t x)|| <= exp(-t a), the Lumer-Phillips bound;
    * ||(t e + x) v|| >= Re<(t e + x) v, v> >= t + a, so
      ||(t e + x)^{-1}|| <= 1 / (t + a) where t + a > 0 (inf elsewhere);
    * e - t^2 x^2 = (e - t x)(e + t x), and the smallest singular value of
      e + t x is at least 1 + t a: where 1 + t a > 0 the gap is at most
      -t a ||e - t x||, with ||e - t x|| bounded above when a < 0 and
      below, by its largest column norm, when a >= 0.  Everywhere the
      bound on ||e - t x|| less the largest column norm of e - t^2 x^2
      bounds it too.
    Each bound has an allowance d = _rounding_cut(k, 1.0) to dominate the
    computed value, not only the exact one: relative, absolute (d times
    the size 1 + t ||x|| of e - t x, or its square for the gap, and d for
    the exponential), a column norm divided by 1 + d, and a lowered by
    d ||x||, the rounding level of its eigen-solve.
    """
    d = _rounding_cut(sq_stack.shape[-1], 1.0)
    a = absc - d * nrm
    tn = t_grid * nrm
    lin_hi = np.sqrt(np.maximum(0.0, 1.0 - 2.0 * t_grid * a + tn * tn)) + d * (1.0 + tn)
    exp_hi = np.exp(-t_grid * a) * (1.0 + d) + d
    inv_hi = np.full(t_grid.size, np.inf)
    pos = t_grid + a > 0
    inv_hi[pos] = (1.0 + d) / (t_grid[pos] + a)
    gap_hi = lin_hi - _largest_column(sq_stack) / (1.0 + d)
    pos = 1.0 + t_grid * a > 0
    lin_near = lin_hi if a < 0 else _largest_column(lin_stack) / (1.0 + d)
    gap_hi[pos] = np.minimum(gap_hi[pos], -t_grid[pos] * a * lin_near[pos]
                             + d * (1.0 + tn[pos]) ** 2)
    return lin_hi, exp_hi, inv_hi, gap_hi


def _largest_column(stack: np.ndarray) -> np.ndarray:
    """The largest column norm of each matrix of a stack, a lower bound on
    its operator norm."""
    return np.linalg.norm(stack, axis=-2).max(axis=-1)


def _screened(bound: np.ndarray, exact, first=()) -> np.ndarray:
    """One condition's margins over the t-grid, with exact(i), the margins
    at the grid indices i, run only where they can decide its verdict or
    its largest margin.

    bound[j] dominates the margin exact computes at j (bounds on its norms
    combined by the same operations: rounding is monotone), or is not
    finite (no bound).  exact runs at first and at the largest finite bound, then
    in one call at every j whose bound reaches the largest finite margin
    computed or is not finite; should a computed margin exceed its finite
    bound, at every j left.  A j left out holds -inf: its margin lies below
    one computed, so neither the verdict (every margin <= 0) nor
    _largest_computed moves.
    """
    margins = np.full(bound.size, -np.inf)
    known = np.isfinite(bound)
    ceiling = np.where(known, bound, np.inf)
    done = np.zeros(bound.size, dtype=bool)
    todo = done.copy()
    todo[[*first, np.argmax(np.where(known, bound, -np.inf))]] = True
    while todo.any():
        margins[todo] = exact(np.flatnonzero(todo))
        done |= todo
        if (margins[todo] > ceiling[todo]).any():  # a bound failed: screen no more
            todo = ~done
        else:
            worst = np.max(margins, where=np.isfinite(margins), initial=-np.inf)
            todo = ~done & (ceiling >= worst)
    return margins


def chaccr_verify(x, ctx: AmbientContext,
                  tol: Tolerances | None = None) -> VerificationReport:
    """Check five equivalent characterisations of accretivity on the fixed
    t-grid of 20 points spaced logarithmically over [1e-2, 1e2].

    1. abscissa(x) >= 0;
    2. ||e - t x|| <= 1 + t^2 ||x||^2 for all t > 0;
    3. ||exp(-t x)|| <= 1 for all t > 0;
    4. (t e + x) invertible with ||(t e + x)^{-1}|| <= 1/t for all t > 0;
    5. ||e - t x|| <= ||e - t^2 x^2|| for all t > 0.

    Grid conditions get slack eq_tol * (1 + ||x||^2 t^2); the margin of a
    condition at t is its left side minus its right side minus the slack.
    An exponential that overflows (the overflow guard of _matrix_exp, or
    expm) or a singular t e + x fails condition 3 or 4 at that t
    (consistent with the others), not an error; the residual of a condition
    is its largest margin over the t where it was computed (the largest
    double when it was computed at none), and details list the failed t as
    c3_failed_t / c4_failed_t.  The report passes iff all five verdicts
    agree.

    The grid is screened (_screened): per condition, the t of largest
    closed-form bound (_norm_bounds, from the proofs of 1 => 2-5) is
    computed first, then, in one stacked call, every t whose bound reaches
    the largest margin found or is not finite (for condition 4, every t
    with t + a <= 0); condition 3 also computes the largest t first, and
    fails a t where the overflow guard trips with no expm.  A t left out
    has its margin below one computed, so the verdicts, residuals, failed t
    and error messages are those of the whole grid, each computed margin
    bitwise its whole-grid value.
    """
    a, ctx, tl, xc, _ = _element(x, ctx, tol, "chaccr_verify", cone=None)
    k = xc.shape[0]
    eye = np.eye(k)
    nrm = _norm2(xc)
    t_grid = np.logspace(-2.0, 2.0, 20)
    ts = t_grid[:, None, None]

    absc = _abscissa(xc)
    v1 = absc >= -tl.psd_tol

    def grid_norms(stack, what):
        """||m|| for each matrix m of a t-grid stack, one SVD call."""
        try:
            return _norm2(stack)
        except NumericError:
            raise NumericError(f"chaccr_verify: {what} overflows on the t-grid "
                               f"(||x|| = {nrm:.3g})") from None

    lin = np.full(t_grid.size, np.nan)

    def lin_at(i):
        """||e - t x|| at the grid indices i, each t's SVD taken once."""
        new = i[np.isnan(lin[i])]
        if new.size:
            lin[new] = grid_norms(lin_stack[new], "condition c2/c5 ||e - t x||")
        return lin[i]

    def semigroup(i):
        exps, ok = _semigroup(xc, absc, t_grid[i])
        return np.where(ok, grid_norms(exps, "condition c3 ||exp(-t x)||")
                        - 1.0 - slack[i], np.inf)

    def resolvent(i):
        invs, ok = _resolvent(xc, t_grid[i])
        return np.where(ok, grid_norms(invs, "condition c4 ||(t e + x)^-1||")
                        - 1.0 / t_grid[i] - slack[i] / t_grid[i], np.inf)

    # an overflow on the t-grid is reported as NumericError (by grid_norms or
    # the growth check below), not as numpy warnings; growth takes scalar
    # powers, as in the per-t formula: an array power rounds differently
    with np.errstate(over="ignore", invalid="ignore"):
        growth = np.array([1.0 + (nrm * t) ** 2 for t in t_grid])
        slack = tl.eq_tol * growth
        lin_stack = eye - ts * xc
        sq_stack = eye - ts * ts * (xc @ xc)
        lin_hi, exp_hi, inv_hi, gap_hi = _norm_bounds(absc, nrm, t_grid, lin_stack, sq_stack)
        guarded = -t_grid * absc > _EXP_OVERFLOW  # failed with no expm
        margins = {
            "c2": _screened(lin_hi - growth - slack,
                            lambda i: lin_at(i) - growth[i] - slack[i]),
            "c3": _screened(np.where(guarded, np.inf, exp_hi - 1.0 - slack), semigroup,
                            first=[t_grid.size - 1]),
            "c4": _screened(inv_hi - 1.0 / t_grid - slack / t_grid, resolvent),
            "c5": _screened(gap_hi - slack,
                            lambda i: lin_at(i) - grid_norms(sq_stack[i],
                                                             "condition c5 ||e - t^2 x^2||")
                            - slack[i]),
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
    for c in ("c3", "c4"):
        failed = np.isposinf(margins[c])  # a computed margin is never +inf
        if failed.any():
            details[f"{c}_failed_t"] = t_grid[failed].tolist()
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
