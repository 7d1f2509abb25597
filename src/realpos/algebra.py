"""Finite-dimensional operator algebras: generated subalgebras, support
idempotents, hereditary subalgebras, and the structural equivalences
that accretive elements satisfy.

Subalgebras are explicit bases inside an ambient matrix algebra, each
factored once: one SVD of the normalised vectorisations decides
independence and gives both the orthonormal span rows and the coordinate
solver.  Matrix units, set by indexing one (d, n, n) array, need no SVD:
their rows are already orthonormal and serve as both.  Span questions are
rank decisions at the relative cut _RANK_CUT by the package's one zero
rule ``linalg._nonzero``, which refuses to guess inside its window;
span-membership residuals (_SPAN_TOL) are distances and take no window.

The structural certificates (basis closure, ideals, unit residuals) run
on stacked ``(m, n, n)`` arrays: one matmul per right factor, then one
projection or one stacked operator norm per check.  ``hsa_from_z``
certifies its ideals through the support idempotent s(z), by span
residuals between (d_A, n, n) stacks, so no triple product is formed.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .calculus import _Deflation
from .cones import AmbientContext, _element, _membership, full_context
from .errors import InputError, MethodDisagreementError, PreconditionError
from .linalg import (Tolerances, _as_instance, _as_int, _as_sized, _nonzero, _norm2,
                     as_matrix, resolve_tol)
from .report import VerificationReport, matrix_digest

__all__ = [
    "SubalgebraBasis",
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
]

#: relative singular-value cut for rank decisions on stacked spans
_RANK_CUT = 1e-9
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


def _rank(sv: np.ndarray) -> int:
    """Numerical rank from descending singular values: the count above
    _RANK_CUT sv[0], decided by linalg._nonzero (a value within its window
    raises NumericError instead of a guess)."""
    return int(np.count_nonzero(_nonzero(sv, sv[0], _RANK_CUT, "span rank decision")))


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


def _right_blocks(d: int) -> list:
    """Slices of d right factors, each of which, taken against d left
    factors, makes at most about 4096 products (16 MB at n = 16; one
    slice for d^2 <= 4096)."""
    step = max(1, 4096 // d)
    return [slice(i, i + step) for i in range(0, d, step)]


def _closure_residual(cube: np.ndarray, q: np.ndarray) -> float:
    """_worst_span_residual of every product l r of two matrices of the
    (d, n, n) stack cube against the span rows q, taken for one
    _right_blocks slice of right factors r at a time."""
    return max(_worst_span_residual(_pair_products(cube, cube[b]), q)
               for b in _right_blocks(len(cube)))


def _max_op_norm(mats: np.ndarray) -> float:
    """Largest operator norm over an (m, n, n) stack (0.0 for m = 0)."""
    return float(np.max(_norm2(mats), initial=0.0))


def _max_op_norm_above(mats: np.ndarray, bound: float) -> float:
    """_max_op_norm(mats) when it exceeds bound, else some value <= bound,
    for a residual that only feeds a "<= bound" decision.  The Frobenius
    norm bounds the operator norm from above, so a matrix whose Frobenius
    norm is below bound by more than rounding (a relative 1e-9) takes no
    SVD; a non-finite one keeps its SVD, which raises."""
    parts = np.ascontiguousarray(mats).view(float)  # real and imaginary parts
    fro = np.sqrt(np.einsum("ijk,ijk->i", parts, parts))
    return _max_op_norm(mats[~(fro <= bound * (1.0 - 1e-9))])


def _worst_unit_residual(s: np.ndarray, mats: np.ndarray) -> float:
    """Largest operator norm of s b - b and b s - b over the (m, n, n)
    stack mats (0.0 for no matrices)."""
    return _max_op_norm(np.concatenate([s @ mats - mats, mats @ s - mats]))


class SubalgebraBasis:
    """A linearly independent basis of a multiplicatively closed span
    inside an ambient context.

    The constructor validates every basis matrix and rejects a dependent
    basis and a span that is not closed under products (closure_residual,
    the worst relative distance of a pairwise product from the span,
    above 100 eq_tol).  Whether the span has a unit is read off the span
    itself, on first use of ``unit``.  A basis has no public span
    methods: whether a matrix lies in the span is asked through
    ``span_contains``, which reads ``_span_residual``.
    """

    def __init__(self, basis, ambient: AmbientContext | None = None,
                 tol: Tolerances | None = None):
        t = resolve_tol(tol)
        mats = _as_matrices(basis, "basis")
        if not mats:
            raise InputError("a subalgebra basis needs at least one element")
        n = mats[0].shape[0]
        ambient = _as_instance(ambient, AmbientContext, "ambient", lambda: full_context(n))
        if ambient.n != n:
            raise InputError(f"basis matrices are {n}x{n} but ambient has n={ambient.n}")
        self.ambient, self.basis = ambient, mats

        # one SVD u sv vh of the normalised rows decides independence and
        # gives both the orthonormal span rows vh and the coordinate solver
        cube = np.array(mats)
        vecs = cube.reshape(len(mats), -1)
        u, sv, vh = np.linalg.svd(_stack(vecs), full_matrices=False)
        rank = _rank(sv)
        if rank != len(mats):
            raise InputError(f"basis is not linearly independent: rank {rank} < {len(mats)} "
                             "elements")
        self._span_q = vh
        # pinv(vecs.T) = diag(1/norms) conj(u) diag(1/sv) conj(vh) at full rank
        self._pinv = (u.conj() / sv) @ vh.conj() / np.linalg.norm(vecs, axis=1)[:, None]
        self._cols = vecs.T

        self.closure_residual = _closure_residual(cube, self._span_q)
        if self.closure_residual > 100 * t.eq_tol:
            raise InputError(f"basis is not multiplicatively closed: relative closure "
                             f"residual {self.closure_residual:.3g}")

    @cached_property
    def unit(self) -> np.ndarray | None:
        """Least-squares element u of the span with u b = b = b u for all
        basis b, or None when the residual says there is no unit; solved
        over all 2 d^2 products on first use."""
        cube = np.array(self.basis)
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

    @classmethod
    def _matrix_units(cls, units: np.ndarray) -> "SubalgebraBasis":
        """The unital algebra spanned by a (d, n, n) stack of distinct
        matrix units, factored in closed form: the vectorised units are
        orthonormal 0/1 rows, so they are their own span rows and their own
        coordinate solver (pinv(rows.T) = rows), and no SVD is taken."""
        alg = cls.__new__(cls)
        n = units.shape[-1]
        rows = units.reshape(len(units), -1)
        alg.ambient, alg.basis, alg.unit = full_context(n), list(units), np.eye(n, dtype=complex)
        alg._span_q, alg._pinv, alg._cols = rows, rows, rows.T
        alg.closure_residual = 0.0
        return alg

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

    def _span_residual(self, v: np.ndarray) -> float:
        """The relative distance ||v - P v||_F / (1 + ||v||_F) of v from
        the span, P the projection onto it: the residual that the "is a in
        A?" questions on a basis read, for one vectorised matrix v or a
        stack of them (rows) taken as one block."""
        return float(np.linalg.norm(v - self._project_vecs(v))) / (1.0 + np.linalg.norm(v))

    def _require(self, a: np.ndarray, who: str, name: str, tol: float = 1e-7) -> None:
        """Raise PreconditionError, in the format of the cone entry check,
        unless a lies in the span (_span_residual at most tol)."""
        res = self._span_residual(_vec(a))
        if res > tol:
            raise PreconditionError(
                f"{who} needs {name} in the algebra; span residual ||{name} - P {name}||_F "
                f"/ (1 + ||{name}||_F) = {res:.3g} exceeds {tol:.3g}"
            )

    def _coords_stack(self, mats: np.ndarray):
        """Least-squares coordinates of each matrix of an (m, n, n) stack:
        the (dim, m) coordinate columns and the (m,) representation
        residuals."""
        v = mats.reshape(len(mats), -1).T
        c = self._pinv @ v
        return c, np.linalg.norm(self._cols @ c - v, axis=0)

    def __repr__(self):
        return f"SubalgebraBasis(dim={self.dim}, n={self.n})"


def full_matrix_algebra(n: int) -> SubalgebraBasis:
    """The full n-by-n algebra with its matrix-unit basis E_ij, row-major."""
    return block_diag_algebra([_as_int(n, "n")])


def diagonal_algebra(n: int) -> SubalgebraBasis:
    """The diagonal (commutative) subalgebra of M_n, with basis E_ii."""
    return block_diag_algebra([1] * _as_int(n, "n"))


def block_diag_algebra(sizes) -> SubalgebraBasis:
    """M_{k_1} + ... + M_{k_m} embedded block-diagonally in M_n, with the
    matrix units of each block, row-major, block by block."""
    k = np.asarray(sizes, dtype=object)
    if k.ndim != 1 or k.size == 0:
        raise InputError("block sizes must be a nonempty list of positive integers")
    k = np.array([_as_int(s, "block size") for s in k])
    blk = np.repeat(np.arange(k.size), k)  # the block of each row and column
    # the row-major order of the block-diagonal positions is block by block
    rows, cols = np.nonzero(blk[:, None] == blk)
    n = blk.size
    units = np.zeros((len(rows), n, n), dtype=complex)
    units[np.arange(len(rows)), rows, cols] = 1.0
    return SubalgebraBasis._matrix_units(units)


def _as_matrices(mats, name: str) -> list:
    """The validated elements of a list, tuple or (m, n, n) array of
    same-size matrices; a SubalgebraBasis is trusted as it is.  InputError
    for anything else, a single matrix, a number or a string included."""
    if isinstance(mats, SubalgebraBasis):
        return mats.basis
    if not (isinstance(mats, (list, tuple)) or isinstance(mats, np.ndarray) and mats.ndim == 3):
        raise InputError(f"{name} must be a list of matrices, got {type(mats).__name__}")
    out = [as_matrix(b, f"{name}[{i}]") for i, b in enumerate(mats)]
    if len({b.shape for b in out}) > 1:
        raise InputError(f"{name} mixes matrix sizes")
    return out


def span_contains(mats, m) -> bool:
    """Does m lie in the linear span of mats (relative residual <=
    _SPAN_TOL)?  For a list of matrices an ambiguous rank raises
    NumericError, as in spans_equal; a SubalgebraBasis had its rank
    certified by its constructor."""
    if isinstance(mats, SubalgebraBasis):
        return mats._span_residual(_vec(_as_sized(m, mats.n, "m"))) <= _SPAN_TOL
    mats = _as_matrices(mats, "mats")
    if not mats:
        return float(np.linalg.norm(as_matrix(m, "m"))) <= _SPAN_TOL
    a = _as_sized(m, mats[0].shape[0], "m")
    return _worst_span_residual(_vec(a)[None], _ortho_matrices(mats, a.shape[0])) <= _SPAN_TOL


def _span_rank(mats) -> int:
    stack = _stack(mats)
    if stack.shape[0] == 0:
        return 0
    return _rank(np.linalg.svd(stack, compute_uv=False))


def spans_equal(mats_a, mats_b) -> bool:
    """Two-sided span equality by rank tests on the separate and joined
    stacks of normalised vectorisations."""
    mats_a = _as_matrices(mats_a, "mats_a")
    mats_b = _as_matrices(mats_b, "mats_b")
    if mats_a and mats_b and mats_a[0].shape != mats_b[0].shape:
        raise InputError("mats_a and mats_b hold matrices of different sizes")
    return _spans_equal(mats_a, mats_b)


def _spans_equal(mats_a, mats_b) -> bool:
    """spans_equal on trusted lists, stacks or subalgebra bases."""
    if mats_a is mats_b and isinstance(mats_a, SubalgebraBasis):
        return True
    # a subalgebra basis is independent: its constructor certified the rank
    ra, rb = (m.dim if isinstance(m, SubalgebraBasis) else _span_rank(m)
              for m in (mats_a, mats_b))
    if ra != rb:
        return False
    mats_a, mats_b = (m.basis if isinstance(m, SubalgebraBasis) else m for m in (mats_a, mats_b))
    return _span_rank(list(mats_a) + list(mats_b)) == ra


def _ortho_matrices(mats, n: int) -> np.ndarray:
    """Orthonormal matrices spanning span(mats) (Frobenius inner product),
    as an (r, n, n) stack."""
    stack = _stack(mats)
    if stack.shape[0] == 0:
        return np.zeros((0, n, n), dtype=complex)
    _, sv, vh = np.linalg.svd(stack, full_matrices=False)
    r = _rank(sv)
    return vh[:r].reshape(r, n, n)


# ---------------------------------------------------------------------------
# generated subalgebra and support idempotent
# ---------------------------------------------------------------------------

def ba(x, ambient: AmbientContext | None = None,
       tol: Tolerances | None = None) -> SubalgebraBasis:
    """The (non-unital) subalgebra generated by x: span{x, x^2, x^3, ...}.

    Powers of x/||x|| accumulate until the numerical rank of the stacked
    span stops growing; the returned basis is orthonormalised and goes
    through the SubalgebraBasis constructor, so its closure_residual
    certifies that the span is closed.  Its unit, an element acting as
    identity on the span when one exists, is read off the span on first
    use, as for any SubalgebraBasis.
    """
    a, ambient, t, _, _ = _element(x, ambient, tol, "ba", cone=None, ctx_name="ambient")
    return _ba(a, ambient, t)


def _ba(a: np.ndarray, ambient: AmbientContext, t: Tolerances) -> SubalgebraBasis:
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
        new_rank = _span_rank(powers)
        if new_rank == rank:
            powers.pop()
            break
        rank = new_rank
    return SubalgebraBasis(_ortho_matrices(powers, n), ambient=ambient, tol=t)


@dataclass(frozen=True)
class SupportIdempotent:
    """Support projection s(x) of an accretive element: the projection
    onto the range of x read from an ordered Schur split (method
    "RieszProjection": s = e - P_0 with P_0 the spectral projection at
    0), and its distance from the range projection of an SVD."""

    s: np.ndarray
    method: str
    agreement_residual: float


def support_idem(x, ctx: AmbientContext | None = None,
                 tol: Tolerances | None = None) -> SupportIdempotent:
    """Support idempotent s(x) = lim x^{1/n} of an accretive matrix.

    For accretive x the kernel is reducing and semisimple, so s(x) is the
    orthogonal projection onto the range of x, e - P_0 with P_0 the
    Riesz projection at 0; it satisfies s x = x s = x, s^2 = s, and lies
    in F (||e - s|| <= 1).  It is read exactly as Z_k Z_k* from the
    Schur vectors Z_k of the k eigenvalues kept by the zero-cluster split
    that the powers use (calculus._split_zero_cluster, cut 1e-9 (1 +
    ||x||), decided by linalg._nonzero), and cross-checked against U_k U_k*
    from the top k left singular vectors of x.  The two factorisations are
    independent; disagreement beyond 1e-6 raises MethodDisagreementError
    carrying both candidates.  An eigenvalue within the window below the
    cut (so diag(1, 1e-9) is refused), or a zero cluster that does not
    split off cleanly, raises NumericError, as for the powers.
    """
    _, ctx, t, xc, _ = _element(x, ctx, tol, "support_idem")
    return _support_idem(_Deflation(xc, t), ctx)


def _support_idem(d, ctx: AmbientContext) -> SupportIdempotent:
    """support_idem on the deflated accretive element d."""
    z, _, k = d._schur
    u = np.linalg.svd(d.xc)[0][:, :k]
    s_schur = z[:, :k] @ z[:, :k].conj().T
    s_svd = u @ u.conj().T
    agreement = _norm2(s_schur - s_svd)
    if agreement > 1e-6:
        raise MethodDisagreementError(
            f"support idempotent methods disagree by {agreement:.3g} (> 1e-6)",
            values={"schur": ctx._embed(s_schur), "svd": ctx._embed(s_svd)},
        )
    return SupportIdempotent(
        s=ctx._embed(s_schur), method="RieszProjection", agreement_residual=agreement
    )


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
    (vi)  0 is isolated in the spectrum: the smallest |eigenvalue| kept
          by the zero-cluster split of s(x) is above 1e-8 (a reported
          verdict, not a zero decision: it takes no window).

    In finite dimension s(x) is a polynomial in x with zero constant
    term, so (ii) and (iii) hold identically whenever the data make
    sense; the suite verifies that (i), (iv), (v) agree and that each
    implies (vi).
    """
    algebra = _as_instance(algebra, SubalgebraBasis, "algebra")
    a, ctx, t, xc, _ = _element(x, algebra.ambient, tol, "ws_suite")
    algebra._require(a, "ws_suite", "x")

    d = _Deflation(xc, t)
    sup = _support_idem(d, ctx)
    s = sup.s

    v1 = algebra._span_residual(_vec(s)) <= 1e-7

    # (iv): least squares for x y x = x over the algebra
    cols = (a @ np.array(algebra.basis) @ a).reshape(algebra.dim, -1).T
    target = _vec(a)
    c, *_ = np.linalg.lstsq(cols, target, rcond=None)
    res_iv = float(np.linalg.norm(cols @ c - target))
    v4 = res_iv <= 1e-8 * (1.0 + np.linalg.norm(target))

    # (v): invertibility within ba(x)
    v5 = False
    res_v = np.inf
    if d.nrm > t.eq_tol:
        gen = _ba(a, ctx, t)
        if gen.unit is not None:
            cube = np.array(gen.basis)
            m = np.concatenate([a @ cube, cube @ a], axis=1).reshape(gen.dim, -1).T
            v = np.tile(_vec(gen.unit), 2)
            cz, *_ = np.linalg.lstsq(m, v, rcond=None)
            res_v = float(np.linalg.norm(m @ cz - v))
            v5 = res_v <= 1e-8 * (1.0 + np.linalg.norm(v))

    # (vi): spectral gap at zero, off the kept part of the split's Schur diagonal
    _, tri, k = d._schur
    gap = float(np.min(np.abs(np.diag(tri)[:k]))) if k else np.inf
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

    In finite dimensions the hereditary subalgebra of z is s A s with
    s = s(z) in ba(z), a subset of A.  The certificate checks that s lies
    in A, s^2 = s and s z = z s = z, and that the spans zA = sA, Az = As
    and zAz = sAs agree (each side's dim A rows against an orthonormal
    basis of the other side).  J = zA is then a right ideal and K = Az a
    left ideal (sA A lies in sA), and D = zAz an inner ideal (sAs A sAs
    lies in sAs), with s acting as a unit on D.  Memory is a few
    (dim A, n, n) stacks.
    """
    algebra = _as_instance(algebra, SubalgebraBasis, "algebra")
    a, ctx, t, xc, _ = _element(z, algebra.ambient, tol, "hsa_from_z", cone="F", name="z")
    algebra._require(a, "hsa_from_z", "z")
    n = algebra.n
    cube = np.array(algebra.basis)
    s = _support_idem(_Deflation(xc, t), ctx).s

    residuals = {}
    bases = {}
    sides = {"right_ideal": lambda m: m @ cube, "inner_ideal": lambda m: m @ cube @ m,
             "left_ideal": lambda m: cube @ m}
    for key, side in sides.items():
        z_side, s_side = side(a), side(s)
        bases[key] = _ortho_matrices(z_side, n)
        z_rows, s_rows = z_side.reshape(len(cube), -1), s_side.reshape(len(cube), -1)
        residuals[key] = max(_worst_span_residual(z_rows, _ortho_matrices(s_side, n)),
                             _worst_span_residual(s_rows, bases[key]))
    residuals["support_in_algebra"] = algebra._span_residual(_vec(s))
    residuals["idempotent"] = _norm2(s @ s - s)
    residuals["support_commutes"] = _worst_unit_residual(s, a[None])
    residuals["support_unit"] = _worst_unit_residual(s, bases["inner_ideal"])

    support = all(residuals[key] <= 1e-7
                  for key in ("support_in_algebra", "idempotent", "support_commutes"))
    verdicts = {key: support and residuals[key] <= 1e-7
                for key in ("right_ideal", "left_ideal", "inner_ideal")}
    verdicts["support_unit_on_core"] = residuals["support_unit"] <= 1e-6
    j_cube, d_cube, k_cube = bases["right_ideal"], bases["inner_ideal"], bases["left_ideal"]
    report = VerificationReport(
        check="hsa",
        passed=all(verdicts.values()),
        verdicts=verdicts,
        residuals=residuals,
        tolerances=t.as_dict(),
        details={"dim_J": len(j_cube), "dim_D": len(d_cube), "dim_K": len(k_cube)},
        instance=matrix_digest(a),
    )
    return HsaResult(j_basis=list(j_cube), d_basis=list(d_cube), k_basis=list(k_cube),
                     report=report)


def supp_order(x, y, algebra: SubalgebraBasis, tol: Tolerances | None = None) -> VerificationReport:
    """Check span(x A) inside span(y A)  <=>  s(y) s(x) = s(x)."""
    ctx = _as_instance(algebra, SubalgebraBasis, "algebra").ambient
    ax, _, t, xc, _ = _element(x, ctx, tol, "supp_order")
    ay, _, _, yc, _ = _element(y, ctx, t, "supp_order", name="y")
    cube = np.array(algebra.basis)
    ya = ay @ cube
    r_ya = _span_rank(ya)
    r_joint = _span_rank(np.concatenate([ya, ax @ cube]))
    contained = r_joint == r_ya
    sx = _support_idem(_Deflation(xc, t), ctx).s
    sy = _support_idem(_Deflation(yc, t), ctx).s
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
    a, ctx, t, pc, _ = _element(p, ctx, tol, "lump_check", cone=None, name="p")
    idem_res = _norm2(a @ a - a)
    if idem_res > 100 * t.eq_tol * (1.0 + _norm2(a)) ** 2:
        raise PreconditionError(f"lump_check needs an idempotent; residual {idem_res:.3g}")
    mem = _membership(pc, t)
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
    algebra = _as_instance(algebra, SubalgebraBasis, "algebra")
    a, ctx, t, xc, _ = _element(x, algebra.ambient, tol, "aarnes_kadison_check")
    cube = np.array(algebra.basis)
    c1 = _spans_equal(a @ cube @ a, algebra)
    c2 = _spans_equal(a @ cube, algebra) and _spans_equal(cube @ a, algebra)
    s = _support_idem(_Deflation(xc, t), ctx).s
    res_unit = _worst_unit_residual(s, cube)
    scale = 1.0 + _max_op_norm(cube)
    c3 = res_unit <= 1e-7 * scale and algebra._span_residual(_vec(s)) <= 1e-7
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
