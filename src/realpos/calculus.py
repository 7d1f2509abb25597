"""Fractional powers of accretive matrices and the F-transform.

Three independent constructions of x^r are implemented:

* ``power_series``       -- binomial series in (e - x), valid on the
                            shrunken cone F = {||e - x|| <= 1}, refused
                            before the first term when a closed-form tail
                            bound proves it cannot converge within budget
                            (a kernel, for one);
* ``power_shifted``      -- the limit eps -> 0 of (x + eps e)^r, taken
                            exactly: 0 on the kernel, and on the invertible
                            Schur block the principal power by inverse
                            scaling-and-squaring (the Schur-Pade scheme of
                            Higham & Lin, SIAM J. Matrix Anal. Appl. 32,
                            2011, with a binomial series in place of the
                            Pade approximant; each triangular square root
                            is scipy's compiled blocked Schur method of
                            Deadman, Higham & Ralha, LNCS 7782, 2013),
                            valid on the whole accretive cone;
* ``power_balakrishnan`` -- resolvent integral
                            x^r = sin(r pi)/pi * int_0^inf s^{r-1}(s+x)^{-1} x ds,
                            valid for accretive x and 0 < r < 1.

``power`` runs every applicable method and fails loudly when any two
completed methods disagree beyond 1e-6 * (1 + ||x||).  The Balakrishnan
route takes no square root, so it checks the shifted route independently
of scipy's triangular square-root kernel.

Accretive matrices have a semisimple reducing kernel (ker x = ker x*,
orthogonal to the range), so the zero eigenvalue cluster is split off
exactly by an ordered Schur form before any power or quadrature; the
power acts as zero on that block for every r > 0.  That split
(``_Deflation``, in ``_split_zero_cluster``) cuts the eigenvalues
|lambda| <= 1e-9 (1 + ||x||), decided by the package's one zero rule,
``linalg._nonzero``: an eigenvalue within its window below the cut
leaves the cluster unseparated, and NumericError is raised alike by the
three powers and by ``algebra.support_idem``, which reads its projection
off the same split.  One split and one square-root chain per input serve
every exponent and both spectral routes, and its Schur diagonal gives the
spectral radius of e - x behind the series refusal.  The Balakrishnan
route maps s = c (1 + u)/(1 - u), c = sqrt(min |t_ii| max |t_ii|) over
the invertible Schur block T; its 32- and 64-node Gauss-Jacobi rules are
solved by one back substitution on T, and a rule that misses its target
is doubled.
"""
from __future__ import annotations

import cmath
import math
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg as sla

from .cones import AmbientContext, _element
from .errors import InputError, MethodDisagreementError, NumericError
from .linalg import Tolerances, _as_number, _nonzero, _norm2, _rounding_cut

__all__ = [
    "power_series",
    "power_shifted",
    "power_balakrishnan",
    "power",
    "power_all_methods",
    "f_transform",
    "f_inverse",
]


# term budget of the binomial series on F
_SERIES_TERMS = 200_000
#: zero cut of the Schur split, relative to 1 + ||x||
_ZERO_CUT = 1e-9
#: the _as_number rule of the exponent r of every power route: (0, 1]
_EXPONENT = ("exponent r", "lie in (0.0, 1.0]", lambda v: 0.0 < v <= 1.0)


# ---------------------------------------------------------------------------
# triangular kernels
# ---------------------------------------------------------------------------

def _sqrtm_tri(t: np.ndarray) -> np.ndarray:
    """Principal square root of a complex upper-triangular matrix, upper
    triangular too: scipy's compiled blocked Schur method (Deadman, Higham
    & Ralha, PARA 2012, LNCS 7782, 2013), which skips the Schur step on
    triangular input.

    The substitution divides by r_ii + r_jj, which vanishes only for a zero
    eigenvalue or for a pair -a + 0j, -a - 0j on the negative real axis
    (principal roots i sqrt(a) and -i sqrt(a)).  scipy flags such input
    instead of raising, so it raises NumericError here before the call; a
    lone negative eigenvalue keeps its principal root i sqrt(a)."""
    cut = [cmath.sqrt(z) for z in t.diagonal().tolist() if z.imag == 0.0 and z.real <= 0.0]
    if any(abs(a + b) < 1e-300 for a in cut for b in cut):
        raise NumericError("triangular square root hit a vanishing eigenvalue pair")
    return sla.sqrtm(t)


def _solve_shifted_stack(t: np.ndarray, shift: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """x_m = (shift_m I + scale_m t)^{-1} t for an upper-triangular t (k, k)
    and every node m, stacked on the trailing axis (k, k, m).

    Every shifted matrix shares the strictly upper part of t up to the
    factor scale_m, so back substitution runs once for all nodes: each of
    the k row steps is one product of a row of t with the rows below it,
    over all columns and nodes at once, scaled by scale_m and divided by
    the diagonal shift_m + scale_m t_ii.  x_m is upper triangular too, so
    row i needs only its columns i.. .
    """
    k, m = t.shape[0], shift.size
    x = np.zeros((k, k, m), dtype=complex)
    for i in reversed(range(k)):
        below = t[i, i + 1:] @ x[i + 1:, i:].reshape(k - i - 1, (k - i) * m)
        x[i, i:] = (t[i, i:, None] - scale * below.reshape(k - i, m)) / (shift + scale * t[i, i])
    return x


def _split_zero_cluster(xc: np.ndarray, nrm: float):
    """Ordered complex Schur split isolating the zero eigenvalue cluster of
    xc, of operator norm nrm: the eigenvalues |lambda| <= _ZERO_CUT (1 +
    nrm).

    Returns (z, t, k): the Schur form xc = z t z* with the nonzero-spectrum
    block t11 = t[:k, :k] leading and t[k:, k:] ~ 0.  The Schur diagonal
    is decided by linalg._nonzero at cut _ZERO_CUT and scale 1 + nrm: a
    |t_ii| within its window below the cut leaves the cluster
    unseparated, and raises NumericError.  For accretive matrices the
    kernel is reducing and semisimple, so the off-diagonal coupling and
    the zero block are both tiny; a large one signals an ill-separated
    spectrum near zero and raises NumericError too.
    """
    n, scale = xc.shape[0], 1.0 + nrm
    t, z, sdim = sla.schur(xc, output="complex", sort=lambda lam: abs(lam) > _ZERO_CUT * scale)
    k = int(sdim)
    _nonzero(np.abs(np.diag(t)), scale, _ZERO_CUT, "zero cluster split")
    if n - k > 0:
        defect = max(_norm2(t[:k, k:]) if k else 0.0, _norm2(t[k:, k:]))
        if defect > 1e-7 * scale:
            raise NumericError(
                "zero eigenvalue cluster is not cleanly reducing "
                f"(coupling {defect:.3g} at zero cut {_ZERO_CUT * scale:.3g}); "
                "check accretivity of the input"
            )
    return z, t, k


def _reassemble(z: np.ndarray, block: np.ndarray, n: int) -> np.ndarray:
    k = block.shape[0]
    full = np.zeros((n, n), dtype=complex)
    full[:k, :k] = block
    return z @ full @ z.conj().T


class _Deflation:
    """One accretive input xc, shared by every exponent, by the shifted and
    Balakrishnan routes, the series refusal and the support idempotent.
    Its zero cluster is |lambda| <= _ZERO_CUT (1 + ||x||), decided by
    linalg._nonzero in _split_zero_cluster.  Its Schur split (z, t11, k)
    and the square-root chain of t11 are built on first use, so r = 1
    needs neither; a split that fails raises again at each use."""

    def __init__(self, xc: np.ndarray, t: Tolerances):
        self.xc, self.t = xc, t
        self.nrm = _norm2(xc)

    @cached_property
    def _schur(self):
        return _split_zero_cluster(self.xc, self.nrm)

    @cached_property
    def _split(self):
        """(z, t11, k): the Schur basis, the invertible block and its size."""
        z, t, k = self._schur
        return z, t[:k, :k], k

    @cached_property
    def series_radius(self) -> float:
        """rho = max_i |1 - t_ii| over the split's Schur diagonal: the
        spectral radius of e - x, so ||(e - x)^j|| >= rho^j up to the Schur
        backward error (see _power_series)."""
        return float(np.max(np.abs(1.0 - np.diag(self._schur[1]))))

    @cached_property
    def _chain(self):
        """(b, sqrts, ||I - b||): square roots of t11 until ||I - b|| <= 0.3.
        A column of I - b longer than 0.3 (1 + 1e-9) bounds ||I - b|| above
        0.3 by far more than rounding, so it takes the next root without an
        SVD; only the exit is decided by ||I - b||, so the root count and
        the returned norm are those of an SVD at every root."""
        b = self._split[1]
        eye = np.eye(b.shape[0], dtype=complex)
        sqrts = 0
        while True:
            e = eye - b
            if not np.linalg.norm(e, axis=0).max() > 0.3 * (1.0 + 1e-9):
                e_norm = _norm2(e)
                if e_norm <= 0.3:
                    return b, sqrts, e_norm
            if sqrts >= 60:
                raise NumericError("inverse scaling-and-squaring failed to contract the spectrum")
            b = _sqrtm_tri(b)
            sqrts += 1

    def shifted(self, r: float) -> np.ndarray:
        """The shifted-route x^r: 0 on the kernel; on t11 the principal power,
        the binomial series for b^r on the chain's last root b squared back."""
        if r == 1.0:
            return self.xc.copy()
        z, t11, k = self._split
        if k == 0:
            return np.zeros_like(self.xc)
        if k == 1:
            y = np.array([[np.exp(r * np.log(complex(t11[0, 0])))]], dtype=complex)
            return _reassemble(z, y, self.xc.shape[0])
        b, sqrts, e_norm = self._chain
        eye = np.eye(k, dtype=complex)
        # binomial series (I - E)^r = sum_j a_j E^j, a_0 = 1, a_j = a_{j-1}(j-1-r)/j
        e_mat = eye - b
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
        return _reassemble(z, y, self.xc.shape[0])

    def balakrishnan(self, r: float):
        """(x^r, quadrature error estimate, nodes) by the Gauss-Jacobi rule on
        t11: the 32- and 64-node rules are solved in one stack, the last two
        rules differ by the estimate, and while it misses 1e-6 ||x||^r the
        rule is doubled up to 1024 nodes; nodes is the accepted rule's (0
        when x^r needs no rule)."""
        if r == 1.0:
            return self.xc, 0.0, 0
        z, t11, k = self._split
        if k == 0:
            return np.zeros_like(self.xc), 0.0, 0
        target = 1e-6 * max(self.nrm, 1e-12) ** r
        nodes, (coarse, fine) = 64, _balakrishnan_rules(t11, r, (32, 64))
        while (est := _norm2(fine - coarse)) > target:
            if nodes == 1024:
                raise NumericError(
                    f"quadrature error estimate {est:.3g} exceeds {target:.3g} at "
                    f"{nodes} nodes; the Balakrishnan rule does not resolve this spectrum"
                )
            nodes *= 2
            coarse, (fine,) = fine, _balakrishnan_rules(t11, r, (nodes,))
        return _reassemble(z, fine, self.xc.shape[0]), est, nodes


# ---------------------------------------------------------------------------
# the three methods
# ---------------------------------------------------------------------------

def power_series(x, r: float, ctx: AmbientContext | None = None,
                 tol: Tolerances | None = None) -> np.ndarray:
    """x^r for x in the shrunken cone F, via the binomial series
    x^r = e - sum_k b_k (e - x)^k with b_k = |binom(r, k)|.

    The coefficients are positive and sum to 1; with d = e - x and
    ||d|| <= 1 the tail after K terms is bounded by
    tail_K * min_{j<=K+1} ||d^j||, tail_K = 1 - sum_{k<=K} b_k =
    |binom(r - 1, K)|, which is the rigorous stopping rule used here.
    Before the first term, the spectral radius rho of d, read off the
    Schur diagonal of the zero-cluster split, bounds that product from
    below at the budget of 200 000 terms; when the bound stays above
    conv_tol (a kernel makes rho = 1) the series provably cannot converge
    within its budget, and NumericError is raised at once rather than
    silently truncating.
    """
    r = _as_number(r, *_EXPONENT)
    _, ctx, t, xc, _ = _element(x, ctx, tol, "power_series", cone="F")
    return ctx._embed(_power_series(_Deflation(xc, t), r))


def _series_tail(r: float, terms):
    """tail_K = 1 - sum_{1<=k<=K} |binom(r, k)| at K = terms (an integer or
    an array of them), 0 < r < 1, in closed form: sum_{k<=K} (-1)^k
    binom(r, k) = (-1)^K binom(r - 1, K), and |binom(r - 1, K)| =
    Gamma(K + 1 - r) / (Gamma(1 - r) Gamma(K + 1)), evaluated as exp of a
    difference of math.lgamma (relative error about K eps: below 1e-9 at
    the 200 000-term budget)."""
    lgamma = np.vectorize(math.lgamma, otypes=[float])
    k = np.asarray(terms, dtype=float)
    return np.exp(lgamma(k + 1.0 - r) - lgamma(k + 1.0) - math.lgamma(1.0 - r))


def _power_series(d: _Deflation, r: float) -> np.ndarray:
    """The binomial series on the deflated F element d, whose e - x has
    spectral radius rho = d.series_radius.

    The loop stops at the first K with tail_K * min_{j<=K+1} ||d^j|| <=
    conv_tol.  A Schur form x ~ Z T Z* whose backward error, like the
    rounding of each product d^{j-1} d, stays below eta = _rounding_cut(n,
    1 + ||x||) gives ||d^j|| >= rho^j - j eta (||d|| <= 1 on F,
    and the (i, i) entry of (I - T)^j is (1 - t_ii)^j), so if tail_B
    (rho^{B+1} - (B+1) eta) > conv_tol at the budget B, no K <= B can stop
    it (both factors fall with K): that is refused before the first term.
    Any other input iterates as the rule says.
    """
    xc, t = d.xc, d.t
    if r == 1.0:
        return xc.copy()
    k_dim, rho = xc.shape[0], d.series_radius
    eta = _rounding_cut(k_dim, 1.0 + d.nrm)
    floor = _series_tail(r, _SERIES_TERMS) * (
        rho ** (_SERIES_TERMS + 1) - (_SERIES_TERMS + 1) * eta)
    if floor > t.conv_tol:
        raise NumericError(
            f"series tail bound is at least {floor:.3g} > conv_tol {t.conv_tol:.3g} "
            f"through all {_SERIES_TERMS} terms (e - x has spectral radius {rho:.6g}); "
            "the spectrum touches the series boundary"
        )
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
        if k >= _SERIES_TERMS:
            raise NumericError(
                f"series tail bound {tail * min_pow:.3g} still above conv_tol "
                f"after {_SERIES_TERMS} terms; the spectrum touches the series boundary"
            )
        k += 1
        b *= (k - 1.0 - r) / k
        tail -= b
        p = p_next
        y -= b * p
    return y


def power_shifted(x, r: float, ctx: AmbientContext | None = None,
                  tol: Tolerances | None = None) -> np.ndarray:
    """x^r for accretive x as the limit eps -> 0 of (x + eps e)^r.

    The kernel of x is split off exactly (it is reducing and semisimple
    for accretive x), and there the limit is 0.  The remaining Schur
    block is invertible with spectrum in the closed right half-plane
    minus 0, so the limit there is its principal power, computed directly
    by triangular inverse scaling-and-squaring.
    """
    r = _as_number(r, *_EXPONENT)
    _, ctx, t, xc, _ = _element(x, ctx, tol, "power_shifted")
    return ctx._embed(_Deflation(xc, t).shifted(r))


@lru_cache(maxsize=64)
def _gauss_jacobi(nodes: int, r: float):
    """Gauss rule for the weight (1 - u)^{-r} (1 + u)^{r-1} on (-1, 1), by
    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    its Jacobi matrix a_0 = 2r - 1, a_k = (1 - 2r)/((2k - 1)(2k + 1)),
    b_1^2 = 2r(1 - r), b_k^2 = (k - r)(k + r - 1)/(2k - 1)^2, and the
    weights, summing to 1, the squared first components of its
    eigenvectors.  Cached; the arrays are read-only."""
    k = np.arange(1, nodes)
    diag = np.concatenate(([2.0 * r - 1.0], (1.0 - 2.0 * r) / ((2 * k - 1) * (2 * k + 1))))
    off = np.sqrt((k - r) * (k + r - 1.0)) / (2 * k - 1)
    off[0] = math.sqrt(2.0 * r * (1.0 - r))
    u, v = sla.eigh_tridiagonal(diag, off)
    w = v[0] ** 2
    u.flags.writeable = w.flags.writeable = False
    return u, w


def _balakrishnan_rules(t11: np.ndarray, r: float, counts) -> list:
    """sin(r pi)/pi * int_0^inf s^{r-1} (s + T)^{-1} T ds on the invertible
    Schur block T, by the Gauss-Jacobi rule at each node count in counts,
    as a list in the same order.

    The map s = c (1 + u)/(1 - u), c = sqrt(min |t_ii| max |t_ii|), makes
    it exactly 2 c^r sum_j w_j (c (1 + u_j) I + (1 - u_j) T)^{-1} T for the
    Jacobi weight (1 - u)^{-r} (1 + u)^{r-1} of the rule, with an integrand
    analytic on [-1, 1]; c follows the spectrum, so the rule is scale
    covariant.  One back substitution (_solve_shifted_stack) solves every
    node's shifted matrix, and one product with a weight matrix, a column
    per rule, contracts them.
    """
    d = np.abs(np.diag(t11))
    c = math.sqrt(d.min()) * math.sqrt(d.max())
    rules = [_gauss_jacobi(m, r) for m in counts]
    u = np.concatenate([nodes for nodes, _ in rules])
    x = _solve_shifted_stack(t11, c * (1.0 + u), 1.0 - u)
    w = sla.block_diag(*(weights[:, None] for _, weights in rules))
    k = t11.shape[0]
    total = x.reshape(k * k, -1) @ ((2.0 * c ** r) * w)
    return [total[:, j].reshape(k, k) for j in range(len(rules))]


def power_balakrishnan(x, r: float, ctx: AmbientContext | None = None,
                       tol: Tolerances | None = None) -> np.ndarray:
    """x^r for accretive x and 0 < r <= 1 via the Balakrishnan integral.

    The zero cluster is deflated first; on the invertible Schur block T
    the map s = c (1 + u)/(1 - u), c = sqrt(min |t_ii| max |t_ii|), moves
    the weight s^{r-1} into a Gauss-Jacobi rule.  The rules at 32 and 64
    nodes come from one stacked back substitution, and the difference of
    the last two rules, the error estimate, must fall below 1e-6 ||x||^r;
    the rule is doubled up to 1024 nodes before NumericError is raised.
    """
    r = _as_number(r, *_EXPONENT)
    _, ctx, t, xc, _ = _element(x, ctx, tol, "power_balakrishnan")
    return ctx._embed(_Deflation(xc, t).balakrishnan(r)[0])


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
    r = _as_number(r, *_EXPONENT)
    _, ctx, t, xc, mem = _element(x, ctx, tol, "power_all_methods")
    return _power_all_methods(_Deflation(xc, t), r, ctx, mem)


def _power_all_methods(d: _Deflation, r: float, ctx: AmbientContext, mem):
    """power_all_methods on the deflated accretive input d, whose cone
    membership is mem; every route shares d, and values are embedded."""
    if r == 1.0:
        xe = ctx._embed(d.xc)
        return xe, {"shifted": xe, "series": xe, "balakrishnan": xe}, {}, {}

    candidates = {}
    skipped = {}
    candidates["shifted"] = ctx._embed(d.shifted(r))
    if mem.in_F:
        try:
            candidates["series"] = ctx._embed(_power_series(d, r))
        except NumericError as exc:
            skipped["series"] = str(exc)
    if 0.0 < r < 1.0:
        try:
            candidates["balakrishnan"] = ctx._embed(d.balakrishnan(r)[0])
        except NumericError as exc:
            skipped["balakrishnan"] = str(exc)

    cross_tol = 1e-6 * (1.0 + d.nrm)
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
    r = _as_number(r, *_EXPONENT)
    _, ctx, t, xc, mem = _element(x, ctx, tol, "power")
    return _power_all_methods(_Deflation(xc, t), r, ctx, mem)[0]


# ---------------------------------------------------------------------------
# F-transform
# ---------------------------------------------------------------------------

def f_transform(x, ctx: AmbientContext | None = None,
                tol: Tolerances | None = None) -> np.ndarray:
    """F(x) = x (e + x)^{-1}, mapping the accretive cone into F.

    The contraction certificate ||e - F(x)|| = ||(e + x)^{-1}||
    <= 1 / dist(-1, W(x)) <= 1 is checked on the way out, proved by a
    witness vector (see _f_transform) with no numerical-range search.
    """
    _, ctx, _, xc, _ = _element(x, ctx, tol, "f_transform")
    return ctx._embed(_f_transform(xc))


def _f_transform(xc: np.ndarray) -> np.ndarray:
    """F(x) with its contraction certificate, on the corner coordinates xc
    of an accretive element.

    The certificate lhs = ||m|| <= min(1, 1/dist(-1, W(x))), m = e - F(x)
    = (e + x)^{-1}, is proved by the top left singular vector w of m
    (Kato, Perturbation Theory, V.3.2): (e + x) w has norm 1/lhs, so
    |1 + w*xw| <= 1/lhs by Cauchy-Schwarz, and w*xw in W(x) bounds the
    distance above by d_up = |1 + w*xw| + _rounding_cut(k, 1 + ||x||_F),
    the cut covering the rounding of w*xw and of lhs.  A pass against
    1/d_up is a pass against the distance itself.
    """
    k = xc.shape[0]
    eye = np.eye(k, dtype=complex)
    y = np.linalg.solve(eye + xc, xc)
    try:
        u, s, _ = np.linalg.svd(eye - y)
    except np.linalg.LinAlgError as exc:  # LAPACK gives up on non-finite entries
        raise NumericError(f"operator norm failed: {exc}") from exc
    w = u[:, 0]
    d_up = abs(1.0 + w.conj() @ xc @ w) + _rounding_cut(k, 1.0 + float(np.linalg.norm(xc)))
    lhs, bound = s[0], min(1.0, 1.0 / d_up)
    if lhs > bound + 1e-8:
        raise NumericError(
            f"F-transform contraction certificate failed: ||e - F(x)|| = {lhs:.12g} "
            f"exceeds min(1, 1/d) = {bound:.12g}, d = |1 + w*xw| + cut >= dist(-1, W(x))"
        )
    return y


def f_inverse(y, ctx: AmbientContext | None = None,
              tol: Tolerances | None = None):
    """Inverse F-transform x = y (e - y)^{-1}; returns (x, cond).

    cond is the condition number of e - y, reported so round-trip
    accuracy expectations can be scaled by it.  A singular or
    numerically singular e - y is rejected.
    """
    _, ctx, _, yc, _ = _element(y, ctx, tol, "f_inverse", cone=None, name="y")
    k = yc.shape[0]
    eye = np.eye(k, dtype=complex)
    m = eye - yc
    cond = float(np.linalg.cond(m))
    if not np.isfinite(cond) or cond > 1e14:
        raise InputError(f"e - y is singular or nearly so (cond {cond:.3g})")
    x = np.linalg.solve(m, yc)
    return ctx._embed(x), cond
