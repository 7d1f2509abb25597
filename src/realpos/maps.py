"""Linear maps on matrix algebras: Choi matrices, Kraus factorisations,
matrix-level norm estimation, real-positivity preservation testing, and
symmetric projections.

A map is stored as its coordinate action between explicit subalgebra
bases; the amplification T_k to M_k(A) applies T to each block of a
k-by-k block matrix.  Matrix-level norms are bracketed: an ascent from a
fixed set of starts (the unit, the swap and pairing at full-domain levels
k >= 2, and the top Hilbert-Schmidt singular directions of the map) gives
the lower end, and a factorisation read off the Choi matrix bounds the
completely bounded norm from above.  Complete positivity is decided
exactly through the Choi matrix.  Real complete positivity (RCP) is
decided on every domain A by CP extension (Blecher and Read): T is RCP
when T(a) + T(b)* is a well-defined map on S = A + A* that extends to a
CP map, a semidefinite feasibility question whose answer comes with a
certificate either way, a PSD Choi matrix of an extension or an
accretive witness (see rcp_test).
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    SubalgebraBasis,
    _as_matrices,
    _max_op_norm,
    _max_op_norm_above,
    _pair_products,
    _rank,
    _right_blocks,
    _spans_equal,
    _vec,
    full_matrix_algebra,
)
from .errors import InputError, NumericError, PreconditionError
from .linalg import (
    Tolerances,
    _as_instance,
    _as_int,
    _as_number,
    _as_sized,
    _herm_part,
    _nonzero,
    _norm2,
    _rounding_cut,
    as_matrix,
    resolve_tol,
)
from .numrange import _abscissa

__all__ = [
    "LinearMapOnAlgebra",
    "identity_map",
    "transpose_map",
    "map_from_function",
    "map_from_kraus",
    "map_affine_combo",
    "amplify",
    "ChoiMatrix",
    "choi_matrix",
    "CpVerdict",
    "is_cp",
    "kraus_factor",
    "NormEstimate",
    "op_norm_estimate",
    "RcpVerdict",
    "rcp_test",
    "SymmetricProjectionCert",
    "build_symmetric_projection",
    "ProjectionClassification",
    "classify_projection",
]


def _products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(len(right) * len(left), n, n) stack with [j, i] = left[i] @ right[j]."""
    n = left.shape[-1]
    return _pair_products(left, right).reshape(-1, n, n)


class LinearMapOnAlgebra:
    """A linear map T: span(domain) -> span(codomain), stored as the
    coordinate matrix `action` (codomain dim x domain dim).

    apply() is that of the level-1 amplification: a span membership
    check on the input, then the cached vectorised action.  full_domain is
    true when the domain basis spans the whole ambient matrix algebra.
    """

    def __init__(self, domain: SubalgebraBasis, codomain: SubalgebraBasis, action):
        self.domain = _as_instance(domain, SubalgebraBasis, "domain")
        self.codomain = _as_instance(codomain, SubalgebraBasis, "codomain")
        try:
            a = np.asarray(action, dtype=complex)
        except (TypeError, ValueError) as exc:
            raise InputError(f"action is not convertible to a complex matrix: {exc}") from exc
        if a.shape != (codomain.dim, domain.dim):
            raise InputError(
                f"action shape {a.shape} does not match (codomain dim {codomain.dim}, "
                f"domain dim {domain.dim})"
            )
        if not np.isfinite(a).all():
            raise InputError("action contains non-finite entries")
        self.action = a
        self._vec_action = codomain._cols @ a @ domain._pinv

    @property
    def full_domain(self) -> bool:
        return self.domain.dim == self.domain.n ** 2

    def apply(self, a) -> np.ndarray:
        """T(a), through the level-1 amplification (its size and span checks)."""
        return amplify(self, 1).apply(a)

    def _apply_stack(self, mats: np.ndarray) -> np.ndarray:
        """T of each matrix of a (k, n, n) stack of domain-span matrices, by
        one matmul, unchecked; returns the (k, n, n) stack of images."""
        n_out = self.codomain.n
        rows = mats.reshape(len(mats), -1) @ self._vec_action.T
        return rows.reshape(-1, n_out, n_out)

    @cached_property
    def _choi_block(self) -> np.ndarray:
        """Block matrix of Choi(T o E_B), E_B the Hilbert-Schmidt projection
        onto the domain span B (least-squares coordinates are those of
        E_B(m)); Choi(T) on a full domain.  Built once, read-only."""
        c = amplify(self, self.domain.n)._unblocks(self._vec_action.T.copy())
        c.flags.writeable = False
        return c

    def __repr__(self):
        return (f"LinearMapOnAlgebra(domain dim={self.domain.dim}, "
                f"codomain dim={self.codomain.dim}, full={self.full_domain})")


def identity_map(algebra: SubalgebraBasis) -> LinearMapOnAlgebra:
    algebra = _as_instance(algebra, SubalgebraBasis, "algebra")
    return LinearMapOnAlgebra(algebra, algebra, np.eye(algebra.dim, dtype=complex))


def transpose_map(n: int) -> LinearMapOnAlgebra:
    """The transpose on the full n-by-n algebra (positive, famously not
    completely positive for n >= 2)."""
    alg = full_matrix_algebra(n)
    return map_from_function(lambda m: m.T.copy(), alg, alg)


def map_from_function(f, domain: SubalgebraBasis,
                      codomain: SubalgebraBasis | None = None) -> LinearMapOnAlgebra:
    """Build the coordinate action from a python function on matrices.

    Every basis image must be a codomain-size matrix in the codomain span
    (checked); one stacked solve gives the coordinates of all images."""
    f = _as_instance(f, Callable, "f")
    domain = _as_instance(domain, SubalgebraBasis, "domain")
    codomain = _as_instance(codomain, SubalgebraBasis, "codomain", lambda: domain)
    n = codomain.n
    images = [as_matrix(f(b), f"image[{i}]") for i, b in enumerate(domain.basis)]
    bad = next((i for i, img in enumerate(images) if img.shape != (n, n)), None)
    if bad is not None:
        raise InputError(f"image[{bad}] has shape {images[bad].shape}, the codomain {n}x{n}")
    stack = np.array(images)
    cols, res = codomain._coords_stack(stack)
    outside = np.flatnonzero(res > 1e-8 * (1.0 + np.linalg.norm(stack, axis=(1, 2))))
    if outside.size:
        raise InputError(f"image of basis element {outside[0]} lies outside the codomain "
                         f"span (residual {res[outside[0]]:.3g})")
    return LinearMapOnAlgebra(domain, codomain, cols)


def map_from_kraus(ops, n: int) -> LinearMapOnAlgebra:
    """T(a) = sum_l op_l^* a op_l on the full n-by-n algebra."""
    ops = _as_matrices(ops, "kraus")
    alg = full_matrix_algebra(n)
    if any(o.shape[0] != n for o in ops):
        raise InputError("kraus operators must act on the domain dimension")

    def act(a):
        # started at a zero matrix, so an empty family gives the zero map
        return sum((o.conj().T @ a @ o for o in ops), np.zeros((n, n), dtype=complex))

    return map_from_function(act, alg, alg)


def map_affine_combo(t_map: LinearMapOnAlgebra, alpha: float, beta: float) -> LinearMapOnAlgebra:
    """alpha * id + beta * T for an endomorphism T (used for I-P, I-2P)."""
    if _as_instance(t_map, LinearMapOnAlgebra, "t_map").domain.dim != t_map.codomain.dim:
        raise InputError("affine combinations need an endomorphism")
    for c in (alpha, beta):
        _as_number(c, "alpha and beta", "be finite numbers", kind=numbers.Complex)
    eye = np.eye(t_map.domain.dim, dtype=complex)
    return LinearMapOnAlgebra(t_map.domain, t_map.codomain,
                              alpha * eye + beta * t_map.action)


class AmplifiedMap:
    """T_k = id_{M_k} tensor T on M_k(span(domain)), applied blockwise:
    (T_k X)_ij = T(X_ij).

    Every operation splits its kn-by-kn argument into k*k vectorised
    blocks, ordered (i, j) row-major, and works on all of them at once
    with the base map's vectorised action or the base domain's span
    projector, so no basis of M_k(domain) is ever built.
    """

    def __init__(self, t_map: LinearMapOnAlgebra, k: int):
        self.base = t_map
        self.k = k
        self.n_in = k * t_map.domain.n
        self.full_domain = t_map.full_domain

    @cached_property
    def unit(self) -> np.ndarray | None:
        """I_k tensor the domain unit, or None; built on first use."""
        u = self.base.domain.unit
        return None if u is None else np.kron(np.eye(self.k, dtype=complex), u)

    def _blocks(self, x: np.ndarray) -> np.ndarray:
        """The (k*k, n*n) block rows of x, or of each matrix of a stack x."""
        k, n, lead = self.k, x.shape[-1] // self.k, x.shape[:-2]
        return x.reshape(*lead, k, n, k, n).swapaxes(-3, -2).reshape(*lead, k * k, n * n)

    def _unblocks(self, rows: np.ndarray) -> np.ndarray:
        """Inverse of _blocks, for one matrix or a stack."""
        k, n, lead = self.k, math.isqrt(rows.shape[-1]), rows.shape[:-2]
        return rows.reshape(*lead, k, k, n, n).swapaxes(-3, -2).reshape(*lead, k * n, k * n)

    def apply(self, x) -> np.ndarray:
        a = _as_sized(x, self.n_in)
        if not self.full_domain:
            res = self.base.domain._span_residual(self._blocks(a))
            if res > 1e-7:
                raise InputError(f"map input lies outside M_{self.k}(domain span) "
                                 f"(relative residual {res:.3g})")
        return self._apply(a)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """T_k(x) for x in M_k(domain span), unchecked."""
        return self._unblocks(self._blocks(x) @ self.base._vec_action.T)

    def _project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto M_k(domain span), block by block, of
        one matrix or of each matrix of a stack."""
        return self._unblocks(self.base.domain._project_vecs(self._blocks(x)))


def amplify(t_map: LinearMapOnAlgebra, k: int) -> AmplifiedMap:
    """The matrix-level amplification T_k = id_{M_k} tensor T, acting
    blockwise on M_k(span(domain)); the level k is an integer >= 1."""
    return AmplifiedMap(_as_instance(t_map, LinearMapOnAlgebra, "t_map"),
                        _as_int(k, "amplification level"))


def _unit_pairing(k: int, n: int, swap: bool = False) -> np.ndarray:
    """sum_{i,j < min(k, n)} E_ij tensor E_ij in M_k(M_n), or with swap
    sum E_ij tensor E_ji.  The first is min(k, n) times a rank-one
    projection (positive); the second is the swap operator for k = n."""
    out = np.zeros((k, n, k, n), dtype=complex)
    i, j = np.indices((min(k, n), min(k, n)))
    if swap:
        out[i, j, j, i] = 1.0
    else:
        out[i, i, j, j] = 1.0
    return out.reshape(k * n, k * n)


# ---------------------------------------------------------------------------
# Choi / CP / Kraus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChoiMatrix:
    """Block Choi matrix c with block (i, j) = T(E_ij)."""

    c: np.ndarray
    herm: bool
    min_eig: float
    n_in: int
    n_out: int


def choi_matrix(t_map: LinearMapOnAlgebra, tol: Tolerances | None = None) -> ChoiMatrix:
    """Choi matrix of a full-domain map (block (i,j) = T(E_ij))."""
    if not _as_instance(t_map, LinearMapOnAlgebra, "t_map").full_domain:
        raise PreconditionError("the Choi matrix is defined for full-domain maps only")
    t = resolve_tol(tol)
    c = t_map._choi_block
    herm = _norm2(c - c.conj().T) <= 100 * t.eq_tol * (1.0 + _norm2(c))
    return ChoiMatrix(c=c, herm=bool(herm), min_eig=_abscissa(c), n_in=t_map.domain.n,
                      n_out=t_map.codomain.n)


@dataclass(frozen=True)
class CpVerdict:
    cp: bool
    herm: bool
    min_eig: float
    choi: ChoiMatrix


def is_cp(t_map: LinearMapOnAlgebra, tol: Tolerances | None = None) -> CpVerdict:
    """Complete positivity via the Choi matrix: Hermitian and PSD."""
    t = resolve_tol(tol)
    ch = choi_matrix(t_map, t)
    return CpVerdict(cp=bool(ch.herm and ch.min_eig >= -t.psd_tol), herm=ch.herm,
                     min_eig=ch.min_eig, choi=ch)


def kraus_factor(t_map: LinearMapOnAlgebra, tol: Tolerances | None = None):
    """Kraus operators of a CP map: T(a) = sum_l op_l^* a op_l.

    Eigenvectors of the Choi matrix at significantly positive eigenvalues
    are unvectorised into the factors; reconstruction over the matrix
    units is certified to 1e-8 relative residual.  Returns (ops, residual).
    """
    t = resolve_tol(tol)
    verdict = is_cp(t_map, t)
    if not verdict.cp:
        raise PreconditionError(
            f"kraus_factor needs a CP map; Choi min eigenvalue {verdict.min_eig:.3g}, "
            f"herm={verdict.herm}"
        )
    n, m = verdict.choi.n_in, verdict.choi.n_out
    w, vecs = np.linalg.eigh(_herm_part(verdict.choi.c))
    cutoff = max(t.psd_tol, 1e-12 * max(float(w[-1]), 0.0))
    # op = conj(y) as an n x m matrix for each eigenvector y above the cutoff, top first
    top = np.flatnonzero(_nonzero(np.maximum(w, 0.0), 1.0, cutoff, "kraus_factor"))[::-1]
    o = (vecs[:, top] * np.sqrt(w[top])).T.conj().reshape(-1, n, m)
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)  # [i n + j] = E_ij
    # sum_l op_l^* E_ij op_l has entry (a, b) = sum_l conj(op_l[i, a]) op_l[j, b]
    rebuilt = np.einsum("lia,ljb->ijab", o.conj(), o).reshape(n * n, m, m)
    worst = _max_op_norm(t_map._apply_stack(units) - rebuilt)
    if worst > 1e-8:
        raise NumericError(f"Kraus reconstruction residual {worst:.3g} exceeds 1e-8")
    return list(o), float(worst)


# ---------------------------------------------------------------------------
# matrix-level norm estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormEstimate:
    """Bracket value <= ||T_k|| <= ||T||_cb <= upper.

    value is the lower bound of a monotone alternating ascent from the
    fixed starts of _op_norm_estimates; upper is the Choi-factorisation
    bound of _cb_upper (or, for the projection family of _projection_norms,
    the bound _projection_uppers derives from that of I - 2P).  The bracket
    closes once value is within 2 * delta * upper of upper (delta the
    rounding allowance of _cb_delta); stationary is then True, and
    iterations counts the ascent steps run until then (0 when the unit
    start closes it, with start_index 0).  On an open bracket stationary
    means the last accepted step of the best start improved by less than
    the settle threshold (a local maximiser), and value is only a lower
    bound; start_index is the position of the best start."""

    value: float
    upper: float
    stationary: bool
    iterations: int
    start_index: int


#: ascent steps each start may run
_ASCENT_STEPS = 40
#: most starts of one map's ascent
_MAX_STARTS = 6


def _cb_delta(t_map: LinearMapOnAlgebra) -> float:
    """Relative rounding allowance of _cb_upper: _KER_ULPS * n * m * eps for
    an n-by-n domain and m-by-m codomain (the side of the Choi matrix is
    n * m)."""
    return _rounding_cut(t_map.domain.n * t_map.codomain.n, 1.0)


def _cb_upper(t_map: LinearMapOnAlgebra) -> float:
    """Certified upper bound on ||T||_cb over the domain span B.

    One SVD C = sum_l s_l x_l y_l* of C = Choi(T o E_B) gives T(a) =
    sum_l A_l a B_l* on B, with A_l, B_l the m-by-n unvectorisations of
    sqrt(s_l) x_l and sqrt(s_l) y_l, so ||T||_cb <= ||[A_1 ... A_L]|| *
    ||[B_1 ... B_L]|| = sqrt(||Tr_in |C*||| * ||Tr_in |C|||) (Paulsen,
    Completely Bounded Maps and Operator Algebras, 2002, ch. 8); T o E_B
    agrees with T on B, so its cb norm bounds that of T there.  The bound
    is exact for a CP map, where Tr_in C = T(1), and the factor
    1 + _cb_delta covers rounding."""
    n, m = t_map.domain.n, t_map.codomain.n
    x, s, yh = np.linalg.svd(t_map._choi_block)
    rt = np.sqrt(s)
    left = (x * rt).reshape(n, m, -1).swapaxes(0, 1).reshape(m, -1)
    right = (rt[:, None] * yh).reshape(-1, n, m).transpose(2, 0, 1).reshape(m, -1)
    return _norm2(left) * _norm2(right) * (1.0 + _cb_delta(t_map))


def op_norm_estimate(t_map: LinearMapOnAlgebra, k: int = 1) -> NormEstimate:
    """Bracket ||T_k|| = sup {||T_k(u)|| : u in M_k(domain), ||u|| <= 1}.

    The upper end is the Choi-factorisation bound on ||T||_cb (see
    NormEstimate); when the unit start (I_k tensor the domain unit, or
    E_00 tensor the first basis element) meets it, the bracket is closed
    and nothing else runs.  Otherwise the lower end comes from
    alternating ascent: for the current u take the top singular pair
    (w, v) of Y = T_k(u); the functional u -> Re w* T_k(u) v is linear,
    represented by a matrix G, and its maximiser over the full unit ball
    is the polar factor of G (projected back onto the domain span when
    the domain is proper, accepting only improving steps so the iteration
    stays monotone).  The starts are fixed (see _op_norm_estimates), so
    the estimate is a function of T and k alone; the best value is a
    certified lower bound.
    """
    return _op_norm_estimates([_as_instance(t_map, LinearMapOnAlgebra, "t_map")], k)[0]


def _op_norm_estimates(t_maps, k: int, uppers=None) -> list:
    """op_norm_estimate of each map of t_maps, which share one domain and
    one codomain size, as a list of NormEstimate; uppers are the maps'
    upper bounds (default: _cb_upper of each).

    A map whose unit start is within 2 * delta * upper of its upper bound
    is closed at once.  Each open map then ascends from at most
    _MAX_STARTS starts: the unit start; on a full domain with k >= 2 the
    swap and the normalised pairing of _unit_pairing; and E_00 tensor
    b_j / ||b_j|| for the top right singular directions b_j of T on the
    domain span B in the Hilbert-Schmidt inner product (one stacked SVD of
    the open maps' actions on an orthonormal basis of B), never more than
    dim B of them.  All (open map, start) ascents run in lockstep: a step
    is one stacked SVD of the active T_k(u), one stacked transpose action,
    one stacked polar SVD and, on a proper domain, one projection and one
    batched rescale; an ascent stops after _ASCENT_STEPS steps or at its
    first step that does not improve its value by more than 1e-12 *
    (1 + value), and all of a map's once the best of them closes it.
    """
    if uppers is None:
        uppers = [_cb_upper(t) for t in t_maps]
    tk = amplify(t_maps[0], k)
    base = tk.base.domain
    if tk.unit is not None:
        u0 = tk.unit
    else:  # E_00 tensor the first basis element
        u0 = np.zeros((tk.n_in, tk.n_in), dtype=complex)
        u0[:base.n, :base.n] = base.basis[0]
    starts = [u0 / max(_norm2(u0), 1e-30)]

    def objective(va, u):  # top singular triple of T_k(u[i]) under action va[i]
        y = tk._unblocks(tk._blocks(u) @ va.transpose(0, 2, 1))
        uu, sv, vvh = np.linalg.svd(y)
        return sv[:, 0], uu[:, :, 0], vvh[:, 0].conj()

    vas = np.array([t._vec_action for t in t_maps])
    unit_vals = objective(vas, np.tile(starts[0], (len(t_maps), 1, 1)))[0]
    closing = np.array(uppers, dtype=float) * (1.0 - 2.0 * _cb_delta(t_maps[0]))
    out = [NormEstimate(value=float(v), upper=float(up), stationary=True, iterations=0,
                        start_index=0) if v >= c else None
           for v, up, c in zip(unit_vals, uppers, closing)]
    open_maps = [m for m, e in enumerate(out) if e is None]
    if not open_maps:
        return out

    if tk.full_domain and k >= 2:
        starts.append(_unit_pairing(k, base.n, swap=True))
        starts.append(_unit_pairing(k, base.n) / min(k, base.n))
    # E_00 tensor b_j / ||b_j||, b_j the top Hilbert-Schmidt right singular
    # directions of each open T on B, read off an orthonormal basis of B
    n_maps, n = len(open_maps), base.n
    vh = np.linalg.svd(vas[open_maps] @ base._span_q.T, full_matrices=False)[2]
    b = (vh[:, :_MAX_STARTS - len(starts)].conj() @ base._span_q).reshape(n_maps, -1, n, n)
    hs = np.zeros((*b.shape[:2], tk.n_in, tk.n_in), dtype=complex)
    hs[..., :n, :n] = b / _norm2(b)[..., None, None]
    stack = np.concatenate([np.tile(np.array(starts), (n_maps, 1, 1, 1)), hs], axis=1)
    n_starts = stack.shape[1]
    owner = np.repeat(np.arange(n_maps), n_starts)  # ascent -> its open map
    va = vas[open_maps][owner]

    active = np.arange(len(owner))
    val, w, v = objective(va, stack.reshape(-1, tk.n_in, tk.n_in))
    stationary = np.zeros(len(owner), dtype=bool)
    iterations = np.zeros(n_maps, dtype=int)
    for _ in range(_ASCENT_STEPS):
        if not len(active):
            break
        iterations += np.bincount(owner[active], minlength=n_maps)
        outer = w[active].conj()[:, :, None] * v[active][:, None, :]
        g = tk._unblocks(tk._blocks(outer) @ va[active]).swapaxes(-2, -1)
        gu, _, gvh = np.linalg.svd(g)
        u_new = gvh.conj().swapaxes(-2, -1) @ gu.conj().swapaxes(-2, -1)
        if not tk.full_domain:
            u_new = tk._project(u_new)
            nn = _norm2(u_new)
            big = nn > 1.0
            u_new[big] /= nn[big, None, None]
        val_new, w_new, v_new = objective(va[active], u_new)
        up = val_new > val[active] + 1e-12 * (1.0 + val[active])
        stationary[active[~up]] = True
        active = active[up]
        val[active], w[active], v[active] = val_new[up], w_new[up], v_new[up]
        closed = (val.reshape(n_maps, n_starts).max(axis=1) >= closing[open_maps])[owner]
        stationary |= closed
        active = active[~closed[active]]

    for i, m in enumerate(open_maps):
        best_val, best_idx, best_stat = -1.0, 0, False
        for idx, (a, stat) in enumerate(zip(val[owner == i], stationary[owner == i])):
            if a > best_val + 1e-15:
                best_val, best_idx, best_stat = float(a), idx, bool(stat)
        out[m] = NormEstimate(value=best_val, upper=float(uppers[m]), stationary=best_stat,
                              iterations=int(iterations[i]), start_index=best_idx)
    return out


# ---------------------------------------------------------------------------
# real complete positivity
# ---------------------------------------------------------------------------

@dataclass
class RcpVerdict:
    """Outcome of the real-complete-positivity test (see rcp_test).

    certified marks a proof: certificate "choi_psd" or "cp_extension"
    (PASS: a PSD Choi matrix of a map that extends T, C_0 itself or an
    alternating-projection iterate) or "witness" (FAIL), a dict with the
    level, the (certified accretive) input matrix, and both abscissas.
    steps counts the alternating-projection steps run (0 when C_0, or
    the Hermitian test before it, decides).  An uncertified PASS, noted
    "undecided", means the step cap ran out with neither certificate.
    """

    passed: bool
    certified: bool
    certificate: str | None
    witness: dict | None
    steps: int
    note: str = ""


#: alternating-projection steps of rcp_test before it returns "undecided"
_RCP_STEPS = 4096


def _operator_system(dom: SubalgebraBasis):
    """The operator system S = A + A* of the domain span A (dimension d,
    in M_n), from one SVD of the 2d x n^2 stack q = [U; U*] of the
    orthonormal basis U of A (dom._span_q) and its adjoints.

    Returns (q, pinv, null, perp): v @ pinv (pinv is n^2 x 2d) are
    coordinates c over the rows of q with c @ q the projection of v onto
    S; the rows of null are an orthonormal basis of the combinations c
    with c @ q = 0, one per dimension of A cap A*; the rows of perp are an
    orthonormal basis of S minus A (none when A is closed under the
    adjoint)."""
    d, n = dom.dim, dom.n
    u = dom._span_q
    q = np.concatenate([u, u.reshape(d, n, n).transpose(0, 2, 1).conj().reshape(d, -1)])
    left, sv, vh = np.linalg.svd(q)
    r = _rank(sv)
    pinv = (vh[:r].conj().T / sv[:r]) @ left[:, :r].conj().T
    perp = vh[:0]
    if r > d:
        adj = q[d:] - (q[d:] @ u.conj().T) @ u  # the adjoints, less their part in A
        perp = np.linalg.svd(adj, full_matrices=False)[2][:r - d]
    return q, pinv, left[:, r:].conj().T, perp


def _choi_sum(ins: np.ndarray, outs: np.ndarray, n: int, m: int) -> np.ndarray:
    """sum_l conj(ins_l) (x) outs_l for rows of vectorised n-by-n ins and
    m-by-m outs: the Choi matrix of a map sending an orthonormal set
    ins_l to outs_l and its orthogonal complement to 0."""
    c = (ins.conj().T @ outs).reshape(n, n, m, m)
    return c.transpose(0, 2, 1, 3).reshape(n * m, n * m)


def _witness(tk: AmplifiedMap, x: np.ndarray, cut: float) -> dict | None:
    """The witness dict for x in M_k(domain), or None.  x must be accretive
    to -1e-10 * (1 + ||x||) (a domain with a unit shifts x by the unit
    into the cone), and T_k(x) must have abscissa at most -cut."""
    in_absc = _abscissa(x)
    if in_absc < -1e-10 * (1.0 + _norm2(x)):
        if tk.unit is None:
            return None
        x = x - in_absc * tk.unit
        in_absc = _abscissa(x)
    out_absc = _abscissa(tk._apply(x))
    if out_absc <= -cut:
        return {"level": tk.k, "matrix": x, "in_abscissa": float(in_absc),
                "out_abscissa": float(out_absc)}
    return None


def _hermitian_witness(t_map: LinearMapOnAlgebra, g: np.ndarray, cut: float) -> dict | None:
    """The first level-1 witness i h or -i h, held to cut, for h the
    Hermitian or the skew part of a row of g (an orthonormal basis of
    A cap A*) scaled to ||h|| = 1; None if there is none.  Re(+-i h) = 0,
    so each is accretive, and Re T(+-i h) = -+Im T(h).  When Choi(T - T^#)
    on A cap A* (T^#(a) = T(a*)*) has norm above 4 * len(g) * cut, some h
    has ||Im T(h)|| above cut, and one sign of it is a witness."""
    n = t_map.domain.n
    g = g.reshape(-1, n, n)
    h = np.concatenate([_herm_part(g), _herm_part(-1j * g)])
    ih = 1j * h / np.maximum(_norm2(h), np.finfo(float).tiny)[:, None, None]
    t1 = amplify(t_map, 1)
    return next(filter(None, (_witness(t1, x, cut) for x in (*ih, *-ih))), None)


def rcp_test(t_map: LinearMapOnAlgebra, tol: Tolerances | None = None) -> RcpVerdict:
    """Does T: A -> M_m preserve accretivity at every matrix level?

    By Blecher and Read's extension theorem, on a unital operator algebra
    A the real completely positive maps are the restrictions of the CP
    maps on C*(A) (and so on M_n), so RCP is a semidefinite feasibility
    question.  With S = A + A* and T~(a + b*) = T(a) + T(b)*:

    1. T~ is well defined iff T(h) is Hermitian for every Hermitian h in
       A cap A*.  When the Choi matrix of g -> T(g) - T(g*)* on A cap A*
       (read off the null combinations of [A; A*]) has norm above is_cp's
       Hermitian cut 100 eq_tol (1 + ||Choi(T o E_A)||), a certified
       witness i h or -i h at level 1 gives FAIL (see _hermitian_witness).
       On a *-closed domain that Choi matrix is C - C* for C = Choi(T o E_A).
    2. C_0 = Choi(T~ o E_S) is the cached Choi(T o E_A) plus
       sum_l conj(w_l) (x) T~(w_l) over an orthonormal basis w_l of S
       minus A (none on a *-closed domain).  lambda_min(C_0) >= -psd_tol
       is a certified PASS "choi_psd".
    3. Alternating projections between the PSD cone and the affine set
       C_0 + conj(S^perp) (x) M_m, the Choi matrices of the maps that agree
       with T~ on S.  An iterate with lambda_min >= -psd_tol is the Choi
       matrix of a CP map that extends T: a certified PASS "cp_extension",
       on any domain.  The negative part N of each iterate, projected onto
       conj(S) (x) M_m and re-indexed, is X = a + a* in M_m(S) with a in
       M_m(A); a, scaled to ||Re a|| = 1, is tried as a witness at level m
       held to the cut psd_tol / m.  On a C*-algebra domain N(C_0) lies in
       conj(A) (x) M_m already and pairs with C_0 to -||N||_F^2, so the
       first candidate is a witness whenever C_0 fails (as is_cp decides).
       After _RCP_STEPS steps without either certificate the verdict is an
       uncertified PASS noted "undecided".

    Both certificates are checked facts on any domain; on a unital
    operator algebra every map gets one, up to the cap and the tolerances.
    """
    t = resolve_tol(tol)
    dom = _as_instance(t_map, LinearMapOnAlgebra, "t_map").domain
    d, n, m = dom.dim, dom.n, t_map.codomain.n
    q, pinv, null, perp = _operator_system(dom)
    u = dom._span_q
    tu = t_map._apply_stack(u.reshape(d, n, n))
    images = np.concatenate([tu, tu.conj().transpose(0, 2, 1)]).reshape(2 * d, -1)

    if len(null):
        g = math.sqrt(2.0) * null[:, :d] @ u  # an orthonormal basis of A cap A*
        skew = _norm2(_choi_sum(g, math.sqrt(2.0) * null @ images, n, m))
        # the cut is at least 100 eq_tol: ||Choi(T o E_A)|| is needed only above it
        herm_cut = 100 * t.eq_tol * (1.0 + (_norm2(t_map._choi_block)
                                            if skew > 100 * t.eq_tol else 0.0))
        if skew > herm_cut:
            witness = _hermitian_witness(t_map, g, herm_cut / (4 * len(g)))
            if witness is not None:
                return RcpVerdict(passed=False, certified=True, certificate="witness",
                                  witness=witness, steps=0,
                                  note="T(h) is not Hermitian for a Hermitian h in A cap A*")

    c0 = t_map._choi_block
    if len(perp):
        c0 = c0 + _choi_sum(perp, perp @ pinv @ images, n, m)
    tm = amplify(t_map, m)
    z = _herm_part(c0)
    for step in range(_RCP_STEPS):
        if _abscissa(z) >= -t.psd_tol:
            return RcpVerdict(passed=True, certified=True,
                              certificate="choi_psd" if step == 0 else "cp_extension",
                              witness=None, steps=step,
                              note="a CP map on M_n extends T, so T is RCP at every level")
        w, v = np.linalg.eigh(z)
        neg = (v[:, w < 0] * -w[w < 0]) @ v[:, w < 0].conj().T
        # slices (k, l) of N = -(z)_-: X in M_m(S) has blocks conj(slice (k, l))
        rows = neg.reshape(n, m, n, m).transpose(1, 3, 0, 2).reshape(m * m, n * n)
        coords = (rows.conj() @ pinv).reshape(m, m, 2 * d)  # X over [A; A*]
        a = tm._unblocks(((coords[..., :d] + coords[..., d:].swapaxes(0, 1).conj()) / 2)
                         .reshape(m * m, d) @ u)
        scale = _norm2(_herm_part(a))
        witness = None if scale == 0 else _witness(tm, a / scale, t.psd_tol / m)
        if witness is not None:
            return RcpVerdict(passed=False, certified=True, certificate="witness",
                              witness=witness, steps=step,
                              note="accretive input with non-accretive image")
        # z lies on the affine set, so its projection of z + N is z + N - proj(N)
        z = z + (rows - (coords.reshape(m * m, -1) @ q).conj()).reshape(
            m, m, n, n).transpose(2, 0, 3, 1).reshape(n * m, n * m)
    return RcpVerdict(passed=True, certified=False, certificate=None, witness=None,
                      steps=_RCP_STEPS, note="undecided")


# ---------------------------------------------------------------------------
# symmetric projections
# ---------------------------------------------------------------------------

#: the matrix levels k at which projections have their norms estimated
_LEVELS = (1, 2, 3)


def _projection_uppers(p_map: LinearMapOnAlgebra, sym_map: LinearMapOnAlgebra) -> tuple:
    """Upper bounds on the cb norms of I - 2P, P and I - P, once for every
    level: u_S = _cb_upper(I - 2P); I - P = (I + (I - 2P)) / 2 and P =
    (I - (I - 2P)) / 2 with ||id||_cb = 1 give (1 + u_S) / 2 for both, and
    P also has its own Choi bound."""
    u_sym = _cb_upper(sym_map)
    half = (1.0 + u_sym) / 2.0
    return u_sym, min(_cb_upper(p_map), half), half


def _projection_norms(p_map: LinearMapOnAlgebra) -> tuple:
    """The lower ends of the norm brackets of P, I - P and I - 2P at each
    level of _LEVELS, as three {level: value} dicts.  The upper bounds of
    _projection_uppers are computed once for every level, so a map that
    meets its bound at the unit start runs no ascent."""
    sym_map = map_affine_combo(p_map, 1.0, -2.0)
    family = [p_map, map_affine_combo(p_map, 1.0, -1.0), sym_map]
    u_sym, u_p, u_comp = _projection_uppers(p_map, sym_map)
    p_norms, comp_norms, sym_norms = {}, {}, {}
    for k in _LEVELS:
        p_norms[k], comp_norms[k], sym_norms[k] = (e.value for e in _op_norm_estimates(
            family, k, [u_p, u_comp, u_sym]))
    return p_norms, comp_norms, sym_norms


@dataclass
class SymmetricProjectionCert:
    """Certificates attached to a built symmetric projection."""

    idempotent_residual: float
    symmetry_norms: dict
    contractive_norms: dict
    complement_norms: dict
    rcp: RcpVerdict
    range_is_fixed_points: bool
    complement_vanishing: float
    passed: bool


def build_symmetric_projection(theta: LinearMapOnAlgebra, q, algebra: SubalgebraBasis,
                               tol: Tolerances | None = None):
    """P(a) = (a + theta(a)(2q - 1)) / 2 for a period-2 multiplicative
    symmetry theta fixing the Hermitian idempotent q.

    Preconditions (each named on failure): theta is an endomorphism of
    the algebra with theta(theta(a)) = a and theta(ab) = theta(a)theta(b)
    on the basis; q is an idempotent in the span with theta(q) = q.

    Returns (P, cert) with certificates: P idempotent; ||I - 2P||, ||P||
    and ||I - P|| estimated at the matrix levels 1, 2 and 3 (the lower ends
    of their brackets, from _projection_norms); the certified RCP verdict of rcp_test on P, which
    covers every matrix level; the range of P equals the theta-fixed
    points compressed to the q corner; and P vanishes on the
    complementary corner pieces (this last certificate holds when theta
    acts as the identity on the complement, the compatibility the
    construction needs to be a projection onto a hereditary piece).
    """
    theta = _as_instance(theta, LinearMapOnAlgebra, "theta")
    algebra = _as_instance(algebra, SubalgebraBasis, "algebra")
    t = resolve_tol(tol)
    qm = _as_sized(q, algebra.n, "q")
    cube = np.array(algebra.basis)
    scale = 1.0 + _max_op_norm(cube)

    if not (theta.domain.dim == algebra.dim and _spans_equal(theta.domain, algebra)):
        raise PreconditionError("theta's domain is not the given algebra")
    if not (theta.codomain.dim == algebra.dim and _spans_equal(theta.codomain, algebra)):
        raise PreconditionError("theta's codomain is not the given algebra")

    t_cube = theta._apply_stack(cube)
    bound = 100 * t.eq_tol * scale
    worst = _max_op_norm_above(theta._apply_stack(t_cube) - cube, bound)
    if worst > bound:
        raise PreconditionError(f"theta is not period-2: residual {worst:.3g}")
    bound = 100 * t.eq_tol * scale ** 2
    # exact above the bound: the block that holds the worst residual returns it
    worst = max(_max_op_norm_above(theta._apply_stack(_products(cube, cube[b]))
                                   - _products(t_cube, t_cube[b]), bound)
                for b in _right_blocks(len(cube)))
    if worst > bound:
        raise PreconditionError(f"theta is not multiplicative: residual {worst:.3g}")
    idem_res = _norm2(qm @ qm - qm)
    q_scale = 1.0 + _norm2(qm)
    if idem_res > 100 * t.eq_tol * q_scale ** 2:
        raise PreconditionError(f"q is not idempotent: residual {idem_res:.3g}")
    if algebra._span_residual(_vec(qm)) > 1e-7:
        raise PreconditionError("q does not lie in the algebra span")
    fix_res = _norm2(theta._apply_stack(qm[None])[0] - qm)
    if fix_res > 100 * t.eq_tol * q_scale:
        raise PreconditionError(f"theta does not fix q: residual {fix_res:.3g}")

    images = 0.5 * (cube + 2.0 * (t_cube @ qm) - t_cube)
    cols, res = algebra._coords_stack(images)
    bad = np.flatnonzero(res > 1e-8 * (1.0 + np.linalg.norm(images, axis=(1, 2))))
    if len(bad):
        raise PreconditionError(
            f"projection image of basis element {bad[0]} leaves the algebra "
            f"(residual {res[bad[0]]:.3g}); theta, q are not compatible"
        )
    p_map = LinearMapOnAlgebra(algebra, algebra, cols)

    va = p_map._vec_action
    idem = _norm2(va @ va - va)
    p_norms, comp_norms, sym_norms = _projection_norms(p_map)
    rcp = rcp_test(p_map, tol=t)

    # range = fixed points of theta intersected with the q corner
    d = algebra.dim
    comp_action, _ = algebra._coords_stack(qm @ cube @ qm)
    stackm = np.concatenate([theta.action - np.eye(d), comp_action - np.eye(d)], axis=0)
    _, sv, vh = np.linalg.svd(stackm)
    null = ~_nonzero(sv, max(1.0, float(sv[0])), 1e-9, "build_symmetric_projection fixed points")
    fixed = np.tensordot(vh[null].conj(), cube, axes=1)
    range_ok = _spans_equal(p_map._apply_stack(cube), fixed)

    vanish = _max_op_norm(p_map._apply_stack(
        np.concatenate([cube - qm @ cube, cube - cube @ qm])))

    passed = (
        idem <= 1e-9 * (1.0 + _norm2(p_map.action) ** 2)
        and all(v <= 1.0 + 1e-6 for v in sym_norms.values())
        and rcp.passed
        and range_ok
        and vanish <= 1e-7 * scale
    )
    cert = SymmetricProjectionCert(
        idempotent_residual=idem,
        symmetry_norms=sym_norms,
        contractive_norms=p_norms,
        complement_norms=comp_norms,
        rcp=rcp,
        range_is_fixed_points=bool(range_ok),
        complement_vanishing=float(vanish),
        passed=bool(passed),
    )
    return p_map, cert


# ---------------------------------------------------------------------------
# projection classification
# ---------------------------------------------------------------------------

@dataclass
class ProjectionClassification:
    """Diagnostic profile of an idempotent linear map on an algebra.

    symmetric is the statement ||I - 2P|| <= 1 + 1e-6 read at level 1;
    the norm estimates at levels 1, 2 and 3 are recorded separately, and
    completely_symmetric reads all three, since symmetries need not be
    completely contractive (the scalar-averaging projection on M_2 is the
    standard example: level 1 norm 1, level 2 norm 2)."""

    idempotent_residual: float
    contractive_levels: dict
    contractive: bool
    bicontractive_levels: dict
    bicontractive: bool
    symmetric_levels: dict
    symmetric: bool
    completely_symmetric: bool
    rcp: RcpVerdict
    cond_exp_residual: float
    conditional_expectation: bool
    range_product_closed: bool
    induced_assoc_residual: float
    kernel_square_residual: float
    kernel_square_zero: bool


def classify_projection(p_map: LinearMapOnAlgebra,
                        tol: Tolerances | None = None) -> ProjectionClassification:
    """Classify an idempotent map: contractivity per level, bicontractivity,
    symmetry (at the levels 1, 2 and 3, each judged on the lower end of
    the norm bracket of P, I - P or I - 2P from _projection_norms, the
    estimates build_symmetric_projection certifies), the RCP verdict of
    rcp_test (for every level at once), the conditional-expectation
    identity P(P(a) b P(c)) = P(a) P(b) P(c), multiplicative closure of the
    range, associativity of the induced product a o b = P(ab), and
    square-zero behaviour of the kernel."""
    t = resolve_tol(tol)
    if _as_instance(p_map, LinearMapOnAlgebra, "p_map").domain.dim != p_map.codomain.dim:
        raise PreconditionError("classify_projection needs an endomorphism")
    act = p_map.action
    va = p_map._vec_action
    idem_res = _norm2(va @ va - va)
    scale = 1.0 + _norm2(act) ** 2
    if idem_res > 100 * t.eq_tol * scale:
        raise PreconditionError(f"map is not idempotent: residual {idem_res:.3g}")

    contr, bicon, symn = _projection_norms(p_map)
    contractive = all(v <= 1.0 + 1e-6 for v in contr.values())
    bicontractive = contractive and all(v <= 1.0 + 1e-6 for v in bicon.values())
    symmetric = symn[1] <= 1.0 + 1e-6
    completely_symmetric = all(v <= 1.0 + 1e-6 for v in symn.values())

    rcp = rcp_test(p_map, tol=t)

    cube = np.array(p_map.domain.basis)
    d, n = p_map.domain.dim, p_map.domain.n
    p_of = p_map._apply_stack(cube)
    pp = _products(p_of, p_of)  # [b, a] = P(a) P(b)
    p_pp = p_map._apply_stack(pp)  # [b, a] = P(P(a) P(b))
    p_b = _products(p_of, cube)  # [b, a] = P(a) b
    # one (b, a) stack per c, so no stack holds more than d^2 products
    worst_ce = worst_assoc = 0.0
    for pc, p_bc in zip(p_of, p_pp.reshape(d, d, n, n)):  # p_bc[b] = P(P(b) P(c))
        worst_ce = max(worst_ce, _max_op_norm(p_map._apply_stack(p_b @ pc) - pp @ pc))
        worst_assoc = max(worst_assoc, _max_op_norm(
            p_map._apply_stack(p_pp @ pc) - p_map._apply_stack(_products(p_of, p_bc))))
    cond_exp = worst_ce <= 1e-9

    products = pp[_nonzero(_norm2(pp), 1.0, 1e-12, "classify_projection range product cut")]
    range_closed = _spans_equal(p_of, np.concatenate([p_of, products]))

    # kernel basis from the SVD null space of the (square) action
    _, sv, vh = np.linalg.svd(act)
    null = ~_nonzero(sv, max(1.0, sv[0]), 1e-9, "classify_projection kernel")
    kern = np.tensordot(vh[null].conj(), cube, axes=1)
    worst_kernel = _max_op_norm(_products(kern, kern))

    return ProjectionClassification(
        idempotent_residual=idem_res,
        contractive_levels=contr,
        contractive=bool(contractive),
        bicontractive_levels=bicon,
        bicontractive=bool(bicontractive),
        symmetric_levels=symn,
        symmetric=bool(symmetric),
        completely_symmetric=bool(completely_symmetric),
        rcp=rcp,
        cond_exp_residual=float(worst_ce),
        conditional_expectation=bool(cond_exp),
        range_product_closed=bool(range_closed),
        induced_assoc_residual=float(worst_assoc),
        kernel_square_residual=float(worst_kernel),
        kernel_square_zero=bool(worst_kernel <= 1e-7),
    )
