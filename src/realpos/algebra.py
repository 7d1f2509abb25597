"""Finite-dimensional operator algebras: generated subalgebras, support
idempotents, hereditary subalgebras, and the structural equivalences
that accretive elements satisfy.

Subalgebras are represented by explicit bases inside an ambient matrix
algebra; span questions reduce to numerical rank decisions on stacked
vectorisations, with an explicit ambiguity window that refuses to guess
when singular values sit too close to the cut.

The structural certificates (basis closure, ideals, unit residuals) run
on stacked ``(m, n, n)`` arrays: one matmul per right factor, then one
projection or one stacked operator norm per check.  The inner-ideal
products of ``hsa_from_z`` run as one ``(d_A, d_D)`` stack per element of
D, so their memory is bounded by the dimensions of A and D.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import _f_transform, _split_zero_cluster, _sqrtm_tri
from .cones import AmbientContext, _membership, full_context
from .errors import InputError, MethodDisagreementError, NumericError, PreconditionError
from .linalg import Tolerances, _norm2, as_matrix, resolve_tol
from .report import VerificationReport, matrix_digest

__all__ = [
    "SubalgebraBasis",
    "subalgebra",
    "full_matrix_algebra",
    "diagonal_algebra",
    "block_diag_algebra",
    "span_contains",
    "spans_equal",
    "ba",
    "SupportIdempotent",
    "support_idem",
    "ws_suite",
    "HsaResult",
    "hsa_from_z",
    "supp_order",
    "lump_check",
    "aarnes_kadison_check",
    "ba_ftransform_equal",
    "idempotent_ideal",
]

#: relative singular-value cut for rank decisions on stacked spans
_RANK_TOL = 1e-10
#: span-equality / containment threshold used by the structural checks
_SPAN_TOL = 1e-8


def _vec(m: np.ndarray) -> np.ndarray:
    return np.asarray(m, dtype=complex).ravel()


def _stack(mats) -> np.ndarray:
    """Rows are the vectorised matrices, each normalised to unit length
    (zero rows stay zero) so rank cuts are scale-free."""
    if len(mats) == 0:
        return np.zeros((0, 1), dtype=complex)
    rows = np.asarray(mats, dtype=complex).reshape(len(mats), -1)
    nv = np.linalg.norm(rows, axis=1, keepdims=True)
    return rows / np.where(nv > 0, nv, 1.0)


def _pair_products(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Rows vec(l r) for every l in the (p, n, n) stack left and every r
    in the (q, n, n) stack right, by one (p n, n) @ (n, n) product per r."""
    n = left.shape[-1]
    return (left.reshape(-1, n) @ right).reshape(-1, n * n)


def _worst_span_residual(products: np.ndarray, q: np.ndarray) -> float:
    """Largest relative distance ||v - (v q*) q|| / (1 + ||v||) of a row v
    of products from the span of q, a stack of orthonormal vectorised or
    (n, n) matrices (0.0 for no rows)."""
    q = q.reshape(len(q), products.shape[1])
    res = products - (products @ q.conj().T) @ q
    rel = np.linalg.norm(res, axis=1) / (1.0 + np.linalg.norm(products, axis=1))
    return float(np.max(rel, initial=0.0))


def _max_op_norm(mats: np.ndarray) -> float:
    """Largest operator norm over an (m, n, n) stack (0.0 for m = 0)."""
    return float(np.max(_norm2(mats), initial=0.0))


def _worst_unit_residual(s: np.ndarray, mats: np.ndarray) -> float:
    """Largest operator norm of s b - b and b s - b over the (m, n, n)
    stack mats (0.0 for no matrices)."""
    return _max_op_norm(np.concatenate([s @ mats - mats, mats @ s - mats]))


class SubalgebraBasis:
    """A linearly independent basis of a multiplicatively closed span
    inside an ambient context.

    closure_residual records the worst relative distance of a pairwise
    product from the span; the constructor rejects sets that are not
    actually algebras (unless validate=False for trusted internal
    constructions, which still computes spans but skips the O(d^2)
    product check and the per-matrix input validation).
    """

    def __init__(self, basis, ambient: AmbientContext | None = None,
                 unit=None, tol: Tolerances | None = None, validate: bool = True):
        t = resolve_tol(tol)
        if validate:
            mats = [as_matrix(b, f"basis[{i}]") for i, b in enumerate(basis)]
            unit = None if unit is None else as_matrix(unit, "unit")
        else:
            mats = list(basis)
        if not mats:
            raise InputError("a subalgebra basis needs at least one element")
        n = mats[0].shape[0]
        if any(m.shape[0] != n for m in mats):
            raise InputError("basis matrices must share one ambient dimension")
        if ambient is None:
            ambient = full_context(n)
        if ambient.n != n:
            raise InputError(f"basis matrices are {n}x{n} but ambient has n={ambient.n}")
        self.ambient = ambient
        self.basis = mats
        self.unit = unit

        stack = _stack(mats)
        sv = np.linalg.svd(stack, compute_uv=False)
        rel = sv / sv[0] if sv[0] > 0 else sv
        if np.any((rel >= _RANK_TOL) & (rel < 10 * _RANK_TOL)):
            raise NumericError(
                "basis rank decision is ambiguous (singular value within 10x of the "
                "cut); orthogonalise the basis or pass cleaner generators"
            )
        rank = int(np.sum(rel >= 10 * _RANK_TOL))
        if rank != len(mats):
            raise InputError(
                f"basis is not linearly independent: rank {rank} < {len(mats)} elements"
            )
        # orthonormal row basis of the span, and the coordinate solver
        cube = np.array(mats)
        vecs = cube.reshape(len(mats), -1)
        _, _, vh = np.linalg.svd(vecs, full_matrices=False)
        self._span_q = vh[:rank]
        self._pinv = np.linalg.pinv(vecs.T)

        self.closure_residual = 0.0
        if validate:
            self.closure_residual = _worst_span_residual(_pair_products(cube, cube), self._span_q)
            if self.closure_residual > 100 * t.eq_tol:
                raise InputError(
                    f"basis is not multiplicatively closed: relative closure residual "
                    f"{self.closure_residual:.3g}"
                )
            if self.unit is not None:
                if self._span_distance(self.unit) > 100 * t.eq_tol * (1.0 + np.linalg.norm(self.unit)):
                    raise InputError("declared unit does not lie in the span")
                worst_u = _worst_unit_residual(self.unit, cube)
                if worst_u > 100 * t.eq_tol * (1.0 + _max_op_norm(cube)):
                    raise InputError(f"declared unit fails u b = b = b u (residual {worst_u:.3g})")

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def n(self) -> int:
        return self.ambient.n

    def _project_vecs(self, v: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto the span of vectorised matrices, one
        per row of v (or a single vector)."""
        return (v @ self._span_q.conj().T) @ self._span_q

    def _span_distance(self, m) -> float:
        v = _vec(m)
        return float(np.linalg.norm(v - self._project_vecs(v)))

    def contains(self, m, tol: float = _SPAN_TOL) -> bool:
        return self._contains(as_matrix(m), tol)

    def _contains(self, a: np.ndarray, tol: float) -> bool:
        return self._span_distance(a) <= tol * (1.0 + np.linalg.norm(_vec(a)))

    def coords(self, m):
        """Least-squares coordinates of m in the (original) basis,
        with the representation residual."""
        return self._coords(as_matrix(m))

    def _coords(self, a: np.ndarray):
        v = _vec(a)
        c = self._pinv @ v
        cols = np.array([_vec(b) for b in self.basis]).T
        res = float(np.linalg.norm(cols @ c - v))
        return c, res

    def project(self, m) -> np.ndarray:
        return self._project_vecs(_vec(as_matrix(m))).reshape(self.n, self.n)

    def __repr__(self):
        return f"SubalgebraBasis(dim={self.dim}, n={self.n}, unit={'yes' if self.unit is not None else 'no'})"


def subalgebra(basis, ambient: AmbientContext | None = None, unit=None,
               tol: Tolerances | None = None) -> SubalgebraBasis:
    """Validate a basis (independence, closure, optional unit) and wrap it."""
    return SubalgebraBasis(basis, ambient=ambient, unit=unit, tol=tol, validate=True)


def full_matrix_algebra(n: int) -> SubalgebraBasis:
    """The full n-by-n algebra with its matrix-unit basis."""
    n = int(n)
    basis = []
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            basis.append(e)
    return SubalgebraBasis(basis, ambient=full_context(n), unit=np.eye(n, dtype=complex),
                           validate=False)


def diagonal_algebra(n: int) -> SubalgebraBasis:
    """The diagonal (commutative) subalgebra of M_n."""
    n = int(n)
    basis = []
    for i in range(n):
        e = np.zeros((n, n), dtype=complex)
        e[i, i] = 1.0
        basis.append(e)
    return SubalgebraBasis(basis, ambient=full_context(n), unit=np.eye(n, dtype=complex),
                           validate=False)


def block_diag_algebra(sizes) -> SubalgebraBasis:
    """M_{k_1} + ... + M_{k_m} embedded block-diagonally in M_n."""
    sizes = [int(s) for s in sizes]
    if any(s < 1 for s in sizes):
        raise InputError("block sizes must be positive")
    n = sum(sizes)
    basis = []
    off = 0
    for s in sizes:
        for i in range(s):
            for j in range(s):
                e = np.zeros((n, n), dtype=complex)
                e[off + i, off + j] = 1.0
                basis.append(e)
        off += s
    return SubalgebraBasis(basis, ambient=full_context(n), unit=np.eye(n, dtype=complex),
                           validate=False)


def _as_matrices(mats, name: str) -> list:
    """The validated elements of a list of same-size matrices; a
    SubalgebraBasis is trusted as it is."""
    if isinstance(mats, SubalgebraBasis):
        return mats.basis
    out = [as_matrix(b, f"{name}[{i}]") for i, b in enumerate(mats)]
    if len({b.shape for b in out}) > 1:
        raise InputError(f"{name} mixes matrix sizes")
    return out


def span_contains(mats, m, tol: float = _SPAN_TOL) -> bool:
    """Does m lie in the linear span of mats (relative residual <= tol)?"""
    if isinstance(mats, SubalgebraBasis):
        return mats.contains(m, tol)
    mats = _as_matrices(mats, "mats")
    a = as_matrix(m)
    if mats and mats[0].shape != a.shape:
        raise InputError(f"m has shape {a.shape}, the span elements {mats[0].shape}")
    stack = _stack(mats)
    v = _vec(a)
    nv = np.linalg.norm(v)
    if stack.shape[0] == 0:
        return nv <= tol
    _, sv, vh = np.linalg.svd(stack, full_matrices=False)
    keep = vh[sv / sv[0] >= 10 * _RANK_TOL] if sv[0] > 0 else vh[:0]
    proj = (v @ keep.conj().T) @ keep
    return float(np.linalg.norm(v - proj)) <= tol * (1.0 + nv)


def _span_rank(mats, rank_tol: float = _RANK_TOL) -> int:
    stack = _stack(mats)
    if stack.shape[0] == 0:
        return 0
    sv = np.linalg.svd(stack, compute_uv=False)
    if sv[0] == 0:
        return 0
    rel = sv / sv[0]
    if np.any((rel >= rank_tol) & (rel < 10 * rank_tol)):
        raise NumericError(
            "span rank decision is ambiguous (singular value within 10x of the cut "
            f"{rank_tol:.3g}); pass an explicit rank_tol override"
        )
    return int(np.sum(rel >= 10 * rank_tol))


def spans_equal(mats_a, mats_b, rank_tol: float = _RANK_TOL) -> bool:
    """Two-sided span equality by rank tests on the separate and joined
    stacks of normalised vectorisations."""
    mats_a = _as_matrices(mats_a, "mats_a")
    mats_b = _as_matrices(mats_b, "mats_b")
    if mats_a and mats_b and mats_a[0].shape != mats_b[0].shape:
        raise InputError("mats_a and mats_b hold matrices of different sizes")
    return _spans_equal(mats_a, mats_b, rank_tol)


def _spans_equal(mats_a, mats_b, rank_tol: float = _RANK_TOL) -> bool:
    """spans_equal on trusted lists, stacks or subalgebra bases."""
    if isinstance(mats_a, SubalgebraBasis):
        mats_a = mats_a.basis
    if isinstance(mats_b, SubalgebraBasis):
        mats_b = mats_b.basis
    ra = _span_rank(mats_a, rank_tol)
    rb = _span_rank(mats_b, rank_tol)
    if ra != rb:
        return False
    rj = _span_rank(list(mats_a) + list(mats_b), rank_tol)
    return rj == ra


def _ortho_matrices(mats, n: int, rank_tol: float = _RANK_TOL) -> np.ndarray:
    """Orthonormal matrices spanning span(mats) (Frobenius inner product),
    as an (r, n, n) stack."""
    stack = _stack(mats)
    if stack.shape[0] == 0:
        return np.zeros((0, n, n), dtype=complex)
    _, sv, vh = np.linalg.svd(stack, full_matrices=False)
    if sv[0] == 0:
        return np.zeros((0, n, n), dtype=complex)
    rel = sv / sv[0]
    if np.any((rel >= rank_tol) & (rel < 10 * rank_tol)):
        raise NumericError("span rank decision is ambiguous; pass cleaner generators")
    r = int(np.sum(rel >= 10 * rank_tol))
    return vh[:r].reshape(r, n, n)


# ---------------------------------------------------------------------------
# generated subalgebra and support idempotent
# ---------------------------------------------------------------------------

def ba(x, ambient: AmbientContext | None = None, tol: Tolerances | None = None,
       rank_tol: float = _RANK_TOL) -> SubalgebraBasis:
    """The (non-unital) subalgebra generated by x: span{x, x^2, x^3, ...}.

    Powers of x/||x|| accumulate until the numerical rank of the stacked
    span stops growing; the returned basis is orthonormalised.  A unit
    candidate (an element acting as identity on the span) is attached
    when one exists.
    """
    a = as_matrix(x)
    if ambient is None:
        ambient = full_context(a.shape[0])
    t = resolve_tol(tol)
    return _ba(ambient._check_member(a, t), ambient, t, rank_tol)


def _ba(a: np.ndarray, ambient: AmbientContext, t: Tolerances,
        rank_tol: float = _RANK_TOL) -> SubalgebraBasis:
    """ba(x) for a checked member a of the ambient algebra."""
    n = a.shape[0]
    nrm = _norm2(a)
    if nrm <= t.eq_tol:
        raise InputError("ba(x) of a (numerically) zero element is the zero space")
    xn = a / nrm
    powers = [xn]
    rank = 1
    cur = xn
    for _ in range(n * n + 1):
        cur = cur @ xn
        powers.append(cur)
        new_rank = _span_rank(powers, rank_tol)
        if new_rank == rank:
            powers.pop()
            break
        rank = new_rank
    basis = _ortho_matrices(powers, n, rank_tol)
    alg = SubalgebraBasis(basis, ambient=ambient, validate=False)
    unit = _unit_candidate(alg, t)
    if unit is not None:
        alg.unit = unit
    return alg


def _unit_candidate(alg: SubalgebraBasis, t: Tolerances):
    """Least-squares element u of the span with u b = b = b u for all
    basis b; None when the residual says there is no unit."""
    cube = np.array(alg.basis)
    d = len(cube)
    # for each b, the rows of u b = b (columns vec(f b) over the basis f)
    # and of b u = b (columns vec(b f)), both against vec(b)
    prods = _pair_products(cube, cube).reshape(d, d, -1)  # [b, f] = vec(f b)
    blocks = np.stack([prods, prods.transpose(1, 0, 2)], axis=1)
    m = blocks.transpose(0, 1, 3, 2).reshape(-1, d)
    v = np.repeat(cube.reshape(d, -1), 2, axis=0).ravel()
    c, *_ = np.linalg.lstsq(m, v, rcond=None)
    res = float(np.linalg.norm(m @ c - v))
    if res > 1e-8 * (1.0 + np.linalg.norm(v)):
        return None
    return np.tensordot(c, cube, axes=1)


@dataclass(frozen=True)
class SupportIdempotent:
    """Support projection of an accretive element, with the method used
    and the cross-method agreement residual."""

    s: np.ndarray
    method: str
    agreement_residual: float


def support_idem(x, ctx: AmbientContext | None = None,
                 tol: Tolerances | None = None,
                 zero_tol: float | None = None,
                 n_max: int = 1024) -> SupportIdempotent:
    """Support idempotent s(x) of an accretive matrix.

    Primary method: the Riesz projection complementary to the eigenvalue
    0, computed as a trapezoid contour integral on a circle separating 0
    from the rest of the spectrum (s = e - P_0).  Cross-check: the
    root-limit s = lim x^{1/n} along n = 2^k up to n_max, accelerated by
    two Richardson extrapolation levels in 1/n.  Disagreement beyond
    1e-6 raises MethodDisagreementError carrying both candidates.

    For accretive x the kernel is reducing and semisimple, so s(x) is the
    orthogonal projection onto the closure of the range, satisfies
    s x = x s = x, s^2 = s, and lies in F (||e - s|| <= 1).
    """
    a = as_matrix(x)
    if ctx is None:
        ctx = full_context(a.shape[0])
    t = resolve_tol(tol)
    xc = ctx._compress_member(a, t)
    mem = _membership(xc, t)
    if not mem.in_r:
        raise PreconditionError(
            f"support_idem needs an accretive input; abscissa residual {mem.r_residual:.3g}"
        )
    return _support_idem(xc, ctx, t, zero_tol, n_max)


def _support_idem(xc: np.ndarray, ctx: AmbientContext, t: Tolerances,
                  zero_tol: float | None = None, n_max: int = 1024) -> SupportIdempotent:
    """support_idem on the corner coordinates xc of an accretive element."""
    k_dim = xc.shape[0]
    nrm = _norm2(xc)
    ztol = 1e-9 * (1.0 + nrm) if zero_tol is None else float(zero_tol)
    eigs = np.linalg.eigvals(xc)
    zero_mask = np.abs(eigs) <= ztol
    eye = np.eye(k_dim, dtype=complex)

    if np.all(zero_mask):
        s_riesz = np.zeros_like(xc)
        s_root = np.zeros_like(xc)
    elif not np.any(zero_mask):
        s_riesz = eye.copy()
        s_root = _root_limit_block(xc, ztol, t, n_max)
    else:
        lam_min = float(np.min(np.abs(eigs[~zero_mask])))
        lam_zero = float(np.max(np.abs(eigs[zero_mask]))) if np.any(zero_mask) else 0.0
        rho = lam_min / 2.0
        if rho <= 3.0 * lam_zero:
            raise NumericError(
                f"cannot separate the zero cluster: radius {rho:.3g} vs cluster "
                f"extent {lam_zero:.3g}; pass a different zero_tol"
            )
        p0 = _riesz_zero_projection(xc, rho, t)
        s_riesz = eye - p0
        s_root = _root_limit_block(xc, ztol, t, n_max)

    agreement = _norm2(s_riesz - s_root)
    if agreement > 1e-6:
        raise MethodDisagreementError(
            f"support idempotent methods disagree by {agreement:.3g} (> 1e-6)",
            values={"riesz": ctx._embed(s_riesz), "root_limit": ctx._embed(s_root)},
        )
    return SupportIdempotent(
        s=ctx._embed(s_riesz), method="RieszProjection", agreement_residual=agreement
    )


def _riesz_zero_projection(xc: np.ndarray, rho: float, t: Tolerances) -> np.ndarray:
    """Spectral projection onto the zero cluster by trapezoid quadrature
    of the resolvent on |lambda| = rho (geometric convergence in the node
    count; doubled until stable).  Each rule is one stacked solve of
    lambda_j - x against the identity over all its nodes lambda_j,
    summed with the weights lambda_j / nodes."""
    eye = np.eye(xc.shape[0], dtype=complex)

    def trapezoid(nodes: int) -> np.ndarray:
        lam = rho * np.exp(2j * np.pi * np.arange(nodes) / nodes)
        resolvents = np.linalg.solve(lam[:, None, None] * eye - xc, eye)
        return np.tensordot(lam, resolvents, axes=1) / nodes

    prev = trapezoid(64)
    for nodes in (128, 256, 512):
        cur = trapezoid(nodes)
        if _norm2(cur - prev) <= max(t.conv_tol, 1e-13) * (1.0 + _norm2(cur)):
            return cur
        prev = cur
    raise NumericError("resolvent contour integral failed to stabilise by 512 nodes")


def _root_limit_block(xc: np.ndarray, ztol: float, t: Tolerances, n_max: int) -> np.ndarray:
    """lim_k x^{1/2^k} with two Richardson levels in 1/n.

    x^{1/n} = s + s log(x')/n + O(1/n^2) on the invertible part, so
    R1_k = 2 a_{k+1} - a_k kills the 1/n term and a second level kills
    1/n^2, reaching ~1e-9 accuracy by n = 1024 where the raw root alone
    would still be ~|log lambda|/n.
    """
    levels = max(3, int(math.ceil(math.log2(max(4, n_max)))))
    z, t11, k, _ = _split_zero_cluster(xc, ztol, t)
    n_dim = xc.shape[0]
    if k == 0:
        return np.zeros_like(xc)
    block = t11.copy()
    tail = []
    for lev in range(1, levels + 1):
        block = _sqrtm_tri(block)
        if lev >= levels - 2:
            tail.append(block.copy())
    r1a = 2.0 * tail[1] - tail[0]
    r1b = 2.0 * tail[2] - tail[1]
    r2 = (4.0 * r1b - r1a) / 3.0
    out = np.zeros((n_dim, n_dim), dtype=complex)
    out[:k, :k] = r2
    return z @ out @ z.conj().T


# ---------------------------------------------------------------------------
# structural equivalence suites
# ---------------------------------------------------------------------------

def ws_suite(x, algebra: SubalgebraBasis, tol: Tolerances | None = None) -> VerificationReport:
    """Check the equivalent descriptions of a well-supported element.

    (i)   s(x) lies in the algebra;
    (ii)  x has a support idempotent inside the algebra (with (i));
    (iii) the support acts as a unit on x (with (i));
    (iv)  x y x = x is solvable over the algebra;
    (v)   x is invertible within ba(x) (x z = z x = u for ba(x)'s unit
          candidate u);
    (vi)  0 is isolated in the spectrum (gap above 1e-8).

    In finite dimension s(x) is a polynomial in x with zero constant
    term, so (ii) and (iii) hold identically whenever the data make
    sense; the suite verifies that (i), (iv), (v) agree and that each
    implies (vi).
    """
    t = resolve_tol(tol)
    a = as_matrix(x)
    ctx = algebra.ambient
    xc = ctx._compress_member(a, t)
    mem = _membership(xc, t)
    if not mem.in_r:
        raise PreconditionError(
            f"ws_suite needs an accretive input; abscissa residual {mem.r_residual:.3g}"
        )
    if not algebra._contains(a, 1e-7):
        raise PreconditionError("ws_suite input does not lie in the given algebra")

    nrm = _norm2(a)
    sup = _support_idem(xc, ctx, t)
    s = sup.s

    v1 = algebra._contains(s, 1e-7)

    # (iv): least squares for x y x = x over the algebra
    cols = np.array([_vec(a @ b @ a) for b in algebra.basis]).T
    target = _vec(a)
    c, *_ = np.linalg.lstsq(cols, target, rcond=None)
    res_iv = float(np.linalg.norm(cols @ c - target))
    v4 = res_iv <= 1e-8 * (1.0 + np.linalg.norm(target))

    # (v): invertibility within ba(x)
    v5 = False
    res_v = np.inf
    if nrm > t.eq_tol:
        gen = _ba(a, ctx, t)
        if gen.unit is not None:
            u = gen.unit
            cols_l = np.array([_vec(a @ b) for b in gen.basis]).T
            cols_r = np.array([_vec(b @ a) for b in gen.basis]).T
            m = np.concatenate([cols_l, cols_r], axis=0)
            v = np.concatenate([_vec(u), _vec(u)])
            cz, *_ = np.linalg.lstsq(m, v, rcond=None)
            res_v = float(np.linalg.norm(m @ cz - v))
            v5 = res_v <= 1e-8 * (1.0 + np.linalg.norm(v))

    # (vi): spectral gap at zero
    eigs = np.linalg.eigvals(xc)
    ztol = 1e-9 * (1.0 + nrm)
    nonzero = np.abs(eigs)[np.abs(eigs) > ztol]
    gap = float(np.min(nonzero)) if nonzero.size else np.inf
    v6 = gap > 1e-8

    equiv = (v1 == v4 == v5)
    implied = (not v1) or v6
    verdicts = {
        "i_support_in_algebra": bool(v1),
        "ii_support_exists": True,
        "iii_support_acts_as_unit": True,
        "iv_inner_solution": bool(v4),
        "v_invertible_in_ba": bool(v5),
        "vi_zero_isolated": bool(v6),
        "equivalence": bool(equiv),
        "implication_to_vi": bool(implied),
    }
    return VerificationReport(
        check="ws",
        passed=bool(equiv and implied),
        verdicts=verdicts,
        residuals={"iv": res_iv, "v": res_v if np.isfinite(res_v) else -1.0,
                   "gap": gap if np.isfinite(gap) else -1.0,
                   "support_agreement": sup.agreement_residual},
        tolerances=t.as_dict(),
        instance=matrix_digest(a),
    )


@dataclass
class HsaResult:
    """Hereditary-subalgebra data generated by an F element z:
    J = span(z A) (right ideal), D = span(z A z) (inner ideal),
    K = span(A z) (left ideal), with certificate residuals."""

    j_basis: list
    d_basis: list
    k_basis: list
    report: VerificationReport


def hsa_from_z(z, algebra: SubalgebraBasis, tol: Tolerances | None = None) -> HsaResult:
    """Build the hereditary structure generated by z in F.

    Certifies: J is a right ideal, K is a left ideal, D = z A z is an
    inner ideal (d a d' stays in D), and s(z) acts as a unit on D.

    Each certificate is one stacked product and projection; the products
    d b d' run as one (dim A, dim D) stack per d in D, so peak memory is
    about dim A * dim D * n^2 complex numbers.
    """
    t = resolve_tol(tol)
    a = as_matrix(z, "z")
    ctx = algebra.ambient
    xc = ctx._compress_member(a, t)
    mem = _membership(xc, t)
    if not mem.in_F:
        raise PreconditionError(
            f"hsa_from_z needs z in F; residual {mem.F_residual:.3g} exceeds eq_tol"
        )
    if not algebra._contains(a, 1e-7):
        raise PreconditionError("hsa_from_z input does not lie in the given algebra")
    n = algebra.n
    cube = np.array(algebra.basis)
    j_cube = _ortho_matrices(a @ cube, n)
    d_cube = _ortho_matrices(a @ cube @ a, n)
    k_cube = _ortho_matrices(cube @ a, n)

    r_right = _worst_span_residual(_pair_products(j_cube, cube), j_cube)
    r_left = _worst_span_residual(_pair_products(cube, k_cube), k_cube)
    r_inner = max((_worst_span_residual(_pair_products(d @ cube, d_cube), d_cube)
                   for d in d_cube), default=0.0)

    s = _support_idem(xc, ctx, t).s
    r_unit = _worst_unit_residual(s, d_cube)

    verdicts = {
        "right_ideal": r_right <= 1e-7,
        "left_ideal": r_left <= 1e-7,
        "inner_ideal": r_inner <= 1e-7,
        "support_unit_on_core": r_unit <= 1e-6,
    }
    report = VerificationReport(
        check="hsa",
        passed=all(verdicts.values()),
        verdicts=verdicts,
        residuals={"right_ideal": r_right, "left_ideal": r_left,
                   "inner_ideal": r_inner, "support_unit": r_unit},
        tolerances=t.as_dict(),
        details={"dim_J": len(j_cube), "dim_D": len(d_cube), "dim_K": len(k_cube)},
        instance=matrix_digest(a),
    )
    return HsaResult(j_basis=list(j_cube), d_basis=list(d_cube), k_basis=list(k_cube),
                     report=report)


def supp_order(x, y, algebra: SubalgebraBasis, tol: Tolerances | None = None) -> VerificationReport:
    """Check span(x A) inside span(y A)  <=>  s(y) s(x) = s(x)."""
    t = resolve_tol(tol)
    ax = as_matrix(x, "x")
    ay = as_matrix(y, "y")
    ctx = algebra.ambient
    xcs = []
    for m, name in ((ax, "x"), (ay, "y")):
        xcs.append(ctx._compress_member(m, t))
        if not _membership(xcs[-1], t).in_r:
            raise PreconditionError(f"supp_order needs accretive inputs; {name} is not")
    xa = [ax @ b for b in algebra.basis]
    ya = [ay @ b for b in algebra.basis]
    r_ya = _span_rank(ya)
    r_joint = _span_rank(ya + xa)
    contained = r_joint == r_ya
    sx = _support_idem(xcs[0], ctx, t).s
    sy = _support_idem(xcs[1], ctx, t).s
    res = _norm2(sy @ sx - sx)
    dominates = res <= 1e-7
    verdicts = {"ideal_containment": bool(contained), "support_domination": bool(dominates)}
    return VerificationReport(
        check="supp_order",
        passed=contained == dominates,
        verdicts=verdicts,
        residuals={"support_domination": res},
        tolerances=t.as_dict(),
        details={"rank_yA": r_ya, "rank_joint": r_joint},
        instance=matrix_digest(ax, ay),
    )


def lump_check(p, ctx: AmbientContext | None = None,
               tol: Tolerances | None = None) -> VerificationReport:
    """For an idempotent p, membership in F and accretivity coincide
    (both characterise orthogonal projections); check the two verdicts
    agree.

    In an orthonormal basis adapted to the range, p = [[I, B], [0, 0]],
    so ||e - p|| - 1 = sqrt(1 + s^2) - 1 and the Hermitian-part abscissa
    is (1 - sqrt(1 + s^2))/2 with s the largest singular value of B: the
    accretivity residual is exactly minus half the F residual.  The two
    faces are therefore tested against a common band (scaled 2:1) so
    that no idempotent can straddle the thresholds.
    """
    t = resolve_tol(tol)
    a = as_matrix(p, "p")
    if ctx is None:
        ctx = full_context(a.shape[0])
    nrm = _norm2(a)
    idem_res = _norm2(a @ a - a)
    if idem_res > 100 * t.eq_tol * (1.0 + nrm) ** 2:
        raise PreconditionError(f"lump_check needs an idempotent; residual {idem_res:.3g}")
    mem = _membership(ctx._compress_member(a, t), t)
    band = max(t.eq_tol, 2.0 * t.psd_tol)
    verdicts = {"in_F": mem.F_residual <= band,
                "accretive": mem.r_residual >= -band / 2.0}
    return VerificationReport(
        check="lump",
        passed=verdicts["in_F"] == verdicts["accretive"],
        verdicts=verdicts,
        residuals={"F_residual": mem.F_residual, "r_residual": mem.r_residual,
                   "idempotent": idem_res},
        tolerances=t.as_dict(),
        instance=matrix_digest(a),
    )


def aarnes_kadison_check(x, algebra: SubalgebraBasis,
                         tol: Tolerances | None = None) -> VerificationReport:
    """Check the equivalent fullness conditions of an accretive element:
    span(x A x) = span(A)  <=>  span(x A) = span(A x) = span(A)  <=>
    s(x) acts as the unit of A."""
    t = resolve_tol(tol)
    a = as_matrix(x)
    ctx = algebra.ambient
    xc = ctx._compress_member(a, t)
    if not _membership(xc, t).in_r:
        raise PreconditionError("aarnes_kadison_check needs an accretive input")
    cube = np.array(algebra.basis)
    c1 = _spans_equal(a @ cube @ a, cube)
    c2 = _spans_equal(a @ cube, cube) and _spans_equal(cube @ a, cube)
    s = _support_idem(xc, ctx, t).s
    res_unit = _worst_unit_residual(s, cube)
    scale = 1.0 + _max_op_norm(cube)
    c3 = res_unit <= 1e-7 * scale and algebra._contains(s, 1e-7)
    verdicts = {"sandwich_full": bool(c1), "one_sided_full": bool(c2),
                "support_is_unit": bool(c3)}
    return VerificationReport(
        check="aarnes",
        passed=len({c1, c2, c3}) == 1,
        verdicts=verdicts,
        residuals={"support_unit": res_unit},
        tolerances=t.as_dict(),
        instance=matrix_digest(a),
    )


def ba_ftransform_equal(x, ctx: AmbientContext | None = None,
                        tol: Tolerances | None = None) -> VerificationReport:
    """The subalgebras generated by x and by F(x) = x(e+x)^{-1} coincide."""
    t = resolve_tol(tol)
    a = as_matrix(x)
    if ctx is None:
        ctx = full_context(a.shape[0])
    xc = ctx._compress_member(a, t)
    if not _membership(xc, t).in_r:
        raise PreconditionError("ba_ftransform_equal needs an accretive input")
    y = ctx._embed(_f_transform(xc))
    b1 = _ba(a, ctx, t)
    b2 = _ba(y, ctx, t)
    equal = _spans_equal(b1, b2)
    return VerificationReport(
        check="ba_ftransform",
        passed=bool(equal),
        verdicts={"spans_equal": bool(equal)},
        residuals={},
        tolerances=t.as_dict(),
        details={"dim_ba_x": b1.dim, "dim_ba_Fx": b2.dim},
        instance=matrix_digest(a),
    )


def idempotent_ideal(q, algebra: SubalgebraBasis, x=None,
                     tol: Tolerances | None = None) -> VerificationReport:
    """For an idempotent q in F inside the algebra: span(q A) is a right
    ideal with left unit q.  When an accretive x is supplied and its
    support lies in the algebra, span(x A) = span(s(x) A) as well."""
    t = resolve_tol(tol)
    aq = as_matrix(q, "q")
    ctx = algebra.ambient
    idem_res = _norm2(aq @ aq - aq)
    if idem_res > 100 * t.eq_tol * (1.0 + _norm2(aq)) ** 2:
        raise PreconditionError(f"idempotent_ideal needs an idempotent q; residual {idem_res:.3g}")
    mem = _membership(ctx._compress_member(aq, t), t)
    if not mem.in_F:
        raise PreconditionError(f"idempotent_ideal needs q in F; residual {mem.F_residual:.3g}")
    if not algebra._contains(aq, 1e-7):
        raise PreconditionError("q does not lie in the given algebra")
    cube = np.array(algebra.basis)
    ideal = _ortho_matrices(aq @ cube, algebra.n)
    worst_ideal = _worst_span_residual(_pair_products(ideal, cube), ideal)
    worst_unit = _max_op_norm(aq @ ideal - ideal)
    verdicts = {"right_ideal": worst_ideal <= 1e-7, "left_unit": worst_unit <= 1e-7}
    residuals = {"right_ideal": worst_ideal, "left_unit": worst_unit}
    details = {"dim_ideal": len(ideal)}
    if x is not None:
        axm = as_matrix(x)
        xc = ctx._compress_member(axm, t)
        if not _membership(xc, t).in_r:
            raise PreconditionError("supplied x must be accretive")
        s = _support_idem(xc, ctx, t).s
        if algebra._contains(s, 1e-7):
            same = _spans_equal([axm @ b for b in algebra.basis],
                                [s @ b for b in algebra.basis])
            verdicts["xA_equals_sA"] = bool(same)
            details["support_in_algebra"] = True
        else:
            details["support_in_algebra"] = False
    return VerificationReport(
        check="idempotent_ideal",
        passed=all(verdicts.values()),
        verdicts=verdicts,
        residuals=residuals,
        tolerances=t.as_dict(),
        details=details,
        instance=matrix_digest(aq),
    )
