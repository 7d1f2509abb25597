"""Linear maps on matrix algebras: Choi matrices, Kraus factorisations,
matrix-level norm estimation, real-positivity preservation testing, and
symmetric projections.

A map is stored as its coordinate action between explicit subalgebra
bases; the amplification T_k to M_k(A) applies T to each block of a
k-by-k block matrix.  Matrix-level norms are bracketed: a seeded ascent
gives the lower end and a factorisation read off the Choi matrix bounds
the completely bounded norm from above.  Complete positivity is decided
exactly through the Choi matrix.  On a C*-algebra domain B real
complete positivity (RCP) is complete positivity, decided by the Choi
matrix of T o E_B (E_B the Hilbert-Schmidt projection onto B): a
certified PASS or a certified witness at level n.  Elsewhere RCP is
tested by seeded sampling plus a witness search, which is evidence, not
proof.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .algebra import (
    SubalgebraBasis,
    _max_op_norm,
    _pair_products,
    _spans_equal,
    _vec,
    full_matrix_algebra,
)
from .errors import InputError, NumericError, PreconditionError, UnsupportedError
from .linalg import (
    Tolerances,
    _herm_part,
    _norm2,
    as_matrix,
    random_unitary,
    resolve_tol,
    rng_for,
)
from .numrange import _KER_ULPS, _abscissa

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

    apply() goes through a cached vectorised action, with a span
    membership check on the input.  full_domain is true when the domain
    basis spans the whole ambient matrix algebra.
    """

    def __init__(self, domain: SubalgebraBasis, codomain: SubalgebraBasis, action):
        self.domain = domain
        self.codomain = codomain
        a = np.asarray(action, dtype=complex)
        if a.shape != (codomain.dim, domain.dim):
            raise InputError(
                f"action shape {a.shape} does not match (codomain dim {codomain.dim}, "
                f"domain dim {domain.dim})"
            )
        self.action = a
        self._vec_action = codomain._cols @ a @ domain._pinv

    @property
    def full_domain(self) -> bool:
        return self.domain.dim == self.domain.n ** 2

    def apply(self, a, check: bool = True) -> np.ndarray:
        m = as_matrix(a)
        if check and not self.full_domain:
            res = self.domain._span_distance(m)
            if res > 1e-7 * (1.0 + np.linalg.norm(_vec(m))):
                raise InputError(
                    f"map input lies outside the domain span (residual {res:.3g})"
                )
        return self._apply(m)

    def _apply(self, m: np.ndarray) -> np.ndarray:
        """T(m) for a matrix m of the domain span, unchecked."""
        n_out = self.codomain.n
        return (self._vec_action @ _vec(m)).reshape(n_out, n_out)

    def _apply_stack(self, mats: np.ndarray) -> np.ndarray:
        """T of each matrix of a (k, n, n) stack of domain-span matrices, by
        one matmul, unchecked; returns the (k, n, n) stack of images."""
        n_out = self.codomain.n
        rows = mats.reshape(len(mats), -1) @ self._vec_action.T
        return rows.reshape(-1, n_out, n_out)

    def __repr__(self):
        return (f"LinearMapOnAlgebra(domain dim={self.domain.dim}, "
                f"codomain dim={self.codomain.dim}, full={self.full_domain})")


def identity_map(algebra: SubalgebraBasis) -> LinearMapOnAlgebra:
    return LinearMapOnAlgebra(algebra, algebra, np.eye(algebra.dim, dtype=complex))


def transpose_map(n: int) -> LinearMapOnAlgebra:
    """The transpose on the full n-by-n algebra (positive, famously not
    completely positive for n >= 2)."""
    alg = full_matrix_algebra(n)
    return map_from_function(lambda m: m.T.copy(), alg, alg)


def map_from_function(f, domain: SubalgebraBasis,
                      codomain: SubalgebraBasis | None = None) -> LinearMapOnAlgebra:
    """Build the coordinate action from a python function on matrices.

    Every basis image must lie in the codomain span (checked)."""
    codomain = domain if codomain is None else codomain
    cols = []
    for i, b in enumerate(domain.basis):
        img = as_matrix(f(b), f"image[{i}]")
        c, res = codomain._coords(img)
        if res > 1e-8 * (1.0 + np.linalg.norm(_vec(img))):
            raise InputError(
                f"image of basis element {i} lies outside the codomain span "
                f"(residual {res:.3g})"
            )
        cols.append(c)
    return LinearMapOnAlgebra(domain, codomain, np.array(cols).T)


def map_from_kraus(ops, n: int) -> LinearMapOnAlgebra:
    """T(a) = sum_l op_l^* a op_l on the full n-by-n algebra."""
    ops = [as_matrix(o, f"kraus[{i}]") for i, o in enumerate(ops)]
    alg = full_matrix_algebra(n)
    if any(o.shape[0] != n for o in ops):
        raise InputError("kraus operators must act on the domain dimension")

    def act(a):
        return sum(o.conj().T @ a @ o for o in ops)

    return map_from_function(act, alg, alg)


def map_affine_combo(t_map: LinearMapOnAlgebra, alpha: float, beta: float) -> LinearMapOnAlgebra:
    """alpha * id + beta * T for an endomorphism T (used for I-P, I-2P)."""
    if t_map.domain.dim != t_map.codomain.dim:
        raise InputError("affine combinations need an endomorphism")
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

    def apply(self, x, check: bool = True) -> np.ndarray:
        a = as_matrix(x)
        if check and not self.full_domain:
            rows = self._blocks(a)
            res = float(np.linalg.norm(rows - self.base.domain._project_vecs(rows)))
            if res > 1e-7 * (1.0 + np.linalg.norm(rows)):
                raise InputError(
                    f"map input lies outside M_{self.k}(domain span) (residual {res:.3g})"
                )
        return self._apply(a)

    def _apply(self, x: np.ndarray) -> np.ndarray:
        """T_k(x) for x in M_k(domain span), unchecked."""
        return self._unblocks(self._blocks(x) @ self.base._vec_action.T)

    def apply_transpose(self, y: np.ndarray) -> np.ndarray:
        """The transpose action: sum(apply_transpose(y) * x) equals
        sum(y * apply(x)) for every x in M_k(domain span)."""
        return self._unblocks(self._blocks(y) @ self.base._vec_action)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto M_k(domain span), block by block, of
        one matrix or of each matrix of a stack."""
        return self._unblocks(self.base.domain._project_vecs(self._blocks(x)))

    def random_element(self, rng) -> np.ndarray:
        """sum_{i,j,l} c_ijl E_ij tensor b_l for complex Gaussian c, drawn
        as all real parts then all imaginary parts in (i, j, l) order."""
        dim = self.base.domain.dim
        d = self.k * self.k * dim
        coef = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        return self._unblocks(coef.reshape(self.k * self.k, dim) @ self.base.domain._cols.T)


def amplify(t_map: LinearMapOnAlgebra, k: int) -> AmplifiedMap:
    """The matrix-level amplification T_k = id_{M_k} tensor T, acting
    blockwise on M_k(span(domain))."""
    k = int(k)
    if k < 1:
        raise InputError(f"amplification level must be >= 1, got {k}")
    return AmplifiedMap(t_map, k)


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
    if not t_map.full_domain:
        raise UnsupportedError("the Choi matrix is defined for full-domain maps only")
    return _choi(t_map, resolve_tol(tol))


def _choi_block(t_map: LinearMapOnAlgebra) -> np.ndarray:
    """Block matrix of Choi(T o E_B), E_B the Hilbert-Schmidt projection onto
    the domain span B: the vectorised action reads least-squares
    coordinates, which are those of E_B(m).  For a full-domain map this is
    Choi(T)."""
    n = t_map.domain.n
    return amplify(t_map, n)._apply(_unit_pairing(n, n))


def _choi(t_map: LinearMapOnAlgebra, t: Tolerances) -> ChoiMatrix:
    """ChoiMatrix of T o E_B (see _choi_block)."""
    c = _choi_block(t_map)
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
    return CpVerdict(cp=_choi_psd(ch, t), herm=ch.herm, min_eig=ch.min_eig, choi=ch)


def _choi_psd(ch: ChoiMatrix, t: Tolerances) -> bool:
    return bool(ch.herm and ch.min_eig >= -t.psd_tol)


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
    ops = []
    for idx in range(len(w) - 1, -1, -1):
        if w[idx] <= cutoff:
            break
        y = math.sqrt(float(w[idx])) * vecs[:, idx]
        v_fac = y.reshape(n, m).T  # m x n, block i of y = column i
        ops.append(v_fac.conj().T)  # convention: T(a) = sum op^* a op
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)  # [i n + j] = E_ij
    o = np.array(ops, dtype=complex).reshape(-1, n, m)
    # sum_l op_l^* E_ij op_l has entry (a, b) = sum_l conj(op_l[i, a]) op_l[j, b]
    rebuilt = np.einsum("lia,ljb->ijab", o.conj(), o).reshape(n * n, m, m)
    worst = _max_op_norm(t_map._apply_stack(units) - rebuilt)
    if worst > 1e-8:
        raise NumericError(f"Kraus reconstruction residual {worst:.3g} exceeds 1e-8")
    return ops, float(worst)


# ---------------------------------------------------------------------------
# matrix-level norm estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormEstimate:
    """Bracket value <= ||T_k|| <= ||T||_cb <= upper.

    value is the lower bound of a monotone alternating ascent; upper is
    the Choi-factorisation bound of _cb_upper (or, for a projection
    family, the bound derived from that of I - 2P).  When the unit start
    already reaches upper to within 2 * delta * upper (delta the rounding
    allowance of _cb_delta) the bracket is closed: no ascent runs, and
    iterations is 0, stationary True and start_index 0.  Otherwise
    stationary means the last accepted step of the best start improved by
    less than the settle threshold (a local maximiser), and value is only
    a lower bound."""

    value: float
    upper: float
    stationary: bool
    iterations: int
    start_index: int


_NORM_BUDGET = 240


def _cb_delta(t_map: LinearMapOnAlgebra) -> float:
    """Relative rounding allowance of _cb_upper: _KER_ULPS * n * m * eps for
    an n-by-n domain and m-by-m codomain (the side of the Choi matrix is
    n * m)."""
    return _KER_ULPS * t_map.domain.n * t_map.codomain.n * float(np.finfo(float).eps)


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
    x, s, yh = np.linalg.svd(_choi_block(t_map))
    rt = np.sqrt(s)
    left = (x * rt).reshape(n, m, -1).swapaxes(0, 1).reshape(m, -1)
    right = (rt[:, None] * yh).reshape(-1, n, m).transpose(2, 0, 1).reshape(m, -1)
    return _norm2(left) * _norm2(right) * (1.0 + _cb_delta(t_map))


def op_norm_estimate(t_map: LinearMapOnAlgebra, k: int = 1, budget: int = _NORM_BUDGET,
                     seed: int = 0) -> NormEstimate:
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
    stays monotone).  Several deterministic starts plus seeded unitary
    starts are used; the best value is a certified lower bound.
    """
    if int(budget) < 1:
        raise InputError(f"budget must be >= 1, got {budget}")
    return _op_norm_estimates([t_map], k, budget, seed)[0]


def _op_norm_estimates(t_maps, k: int, budget: int, seed: int, uppers=None) -> list:
    """op_norm_estimate of each map of t_maps, which share one domain and
    one codomain size, as a list of NormEstimate; uppers are the maps'
    upper bounds (default: _cb_upper of each).

    The unit start is evaluated for every map first, and a map whose
    value is within 2 * delta * upper of its upper bound is closed.  The
    other starts depend only on the domain, k and seed, so every open map
    gets the same six.  All (open map, start) ascents run in lockstep: a
    step is one stacked SVD of the active T_k(u), one stacked transpose
    action, one stacked polar SVD and, on a proper domain, one projection
    and one batched rescale; an ascent stops at its first step that does
    not improve its value by more than 1e-12 * (1 + value).
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
    keep = 1.0 - 2.0 * _cb_delta(t_maps[0])
    out = [NormEstimate(value=float(v), upper=float(up), stationary=True, iterations=0,
                        start_index=0) if v >= up * keep else None
           for v, up in zip(unit_vals, uppers)]
    open_maps = [m for m, e in enumerate(out) if e is None]
    if not open_maps:
        return out

    rng = rng_for(seed)
    if tk.full_domain and k >= 2:
        starts.append(_unit_pairing(k, base.n, swap=True))
        starts.append(_unit_pairing(k, base.n) / min(k, base.n))
    while len(starts) < 6:
        if tk.full_domain:
            starts.append(random_unitary(tk.n_in, rng))
        else:
            cand = tk.random_element(rng)
            starts.append(cand / max(_norm2(cand), 1e-30))

    n_maps, n_starts = len(open_maps), len(starts)
    per_start = max(3, int(budget) // n_starts)
    owner = np.repeat(np.arange(n_maps), n_starts)  # ascent -> its open map
    va = vas[open_maps][owner]

    active = np.arange(len(owner))
    val, w, v = objective(va, np.tile(np.array(starts), (n_maps, 1, 1)))
    stationary = np.zeros(len(owner), dtype=bool)
    iterations = np.zeros(n_maps, dtype=int)
    for _ in range(per_start):
        if not len(active):
            break
        iterations += np.bincount(owner[active], minlength=n_maps)
        outer = w[active].conj()[:, :, None] * v[active][:, None, :]
        g = tk._unblocks(tk._blocks(outer) @ va[active]).swapaxes(-2, -1)
        gu, _, gvh = np.linalg.svd(g)
        u_new = gvh.conj().swapaxes(-2, -1) @ gu.conj().swapaxes(-2, -1)
        if not tk.full_domain:
            u_new = tk.project(u_new)
            nn = _norm2(u_new)
            big = nn > 1.0
            u_new[big] /= nn[big, None, None]
        val_new, w_new, v_new = objective(va[active], u_new)
        up = val_new > val[active] + 1e-12 * (1.0 + val[active])
        stationary[active[~up]] = True
        active = active[up]
        val[active], w[active], v[active] = val_new[up], w_new[up], v_new[up]

    for i, m in enumerate(open_maps):
        best_val, best_idx, best_stat = -1.0, 0, False
        for idx in range(n_starts):
            a = i * n_starts + idx
            if val[a] > best_val + 1e-15:
                best_val, best_idx, best_stat = float(val[a]), idx, bool(stationary[a])
        out[m] = NormEstimate(value=best_val, upper=float(uppers[m]), stationary=best_stat,
                              iterations=int(iterations[i]), start_index=best_idx)
    return out


# ---------------------------------------------------------------------------
# real complete positivity
# ---------------------------------------------------------------------------

@dataclass
class RcpVerdict:
    """Outcome of the real-complete-positivity test (see rcp_test).

    certified marks a proof: certificate "choi_psd" (PASS, exact on
    C*-algebra domains) or "witness" (FAIL), a dict with the level, the
    (certified accretive) input matrix, and both abscissas.  An
    uncertified PASS is the evidence of sampling and descent only.
    """

    passed: bool
    certified: bool
    certificate: str | None
    witness: dict | None
    levels: tuple
    sampled_violations: list
    note: str = ""


def _accretive_sample(tk: AmplifiedMap, rng) -> np.ndarray | None:
    """Random accretive element of M_k(domain): unit shift of a random combo."""
    if tk.unit is None:
        return None
    z = tk.random_element(rng)
    z = z / max(_norm2(z), 1e-30)
    return tk.unit + z  # abscissa >= lambda_min(unit-part) - ||z|| >= 0


def _clip_accretive(x: np.ndarray) -> np.ndarray:
    """Nearest-ish accretive matrix: clip the Hermitian part to PSD."""
    h = _herm_part(x)
    s = x - h
    w, v = np.linalg.eigh(h)
    hp = (v * np.clip(w, 0.0, None)) @ v.conj().T
    return hp + s


def _witness(tk: AmplifiedMap, x: np.ndarray) -> dict | None:
    """The witness dict for x in M_k(domain), or None.  x must be accretive
    to -1e-10 * (1 + ||x||) (a domain with a unit shifts x by the unit
    into the cone), and T_k(x) must have abscissa at most
    -max(1e-8 * (1 + ||T_k(x)||), 1e-9)."""
    in_absc = _abscissa(x)
    if in_absc < -1e-10 * (1.0 + _norm2(x)):
        if tk.unit is None:
            return None
        x = x - in_absc * tk.unit
        in_absc = _abscissa(x)
    y = tk._apply(x)
    out_absc = _abscissa(y)
    if out_absc <= -max(1e-8 * (1.0 + _norm2(y)), 1e-9):
        return {"level": tk.k, "matrix": x, "in_abscissa": float(in_absc),
                "out_abscissa": float(out_absc)}
    return None


def _choi_witness(t_map: LinearMapOnAlgebra, levels: tuple) -> dict | None:
    """For a map on a C*-algebra domain B whose Choi(T o E_B) is not PSD:
    the witness at the smallest requested level k >= n, or None.

    The input is X = (E_B)_k(P) / n with P = sum_{i,j<n} E_ij (x) E_ij:
    E_B is CP, so X is PSD, and T_k(X) is Choi(T o E_B) / n (padded with
    zeros when k > n).  A Hermitian Choi matrix that is not PSD gives X a
    non-accretive image; a non-Hermitian one gives that to i X or -i X,
    whose images have Hermitian parts -/+ the skew part of Choi / n."""
    n = t_map.domain.n
    k = min((lv for lv in levels if lv >= n), default=None)
    if k is None:
        return None
    tk = amplify(t_map, k)
    x = _unit_pairing(k, n)
    if not tk.full_domain:
        x = tk.project(x)
    for cand in (x / n, 1j * x / n, -1j * x / n):
        w = _witness(tk, cand)
        if w is not None:
            return w
    return None


def rcp_test(t_map: LinearMapOnAlgebra, levels=(1, 2, 3), samples: int = 20,
             budget: int = 2000, seed: int = 0,
             tol: Tolerances | None = None) -> RcpVerdict:
    """Does T preserve accretivity at matrix levels?

    When the domain B is a C*-algebra (declared unit or full span, and
    closed under the adjoint), RCP is CP there and CP is decided by one
    Hermitian eigen-solve of Choi(T o E_B): PSD gives a certified PASS;
    otherwise a fixed input at the smallest requested level >= n (n for
    the default levels and n <= 3) is a certified witness, with no
    sampling or search.  Every other case is tested for evidence: phase 1
    samples seeded accretive elements of M_k(domain) per level and
    checks the image abscissa against -1e-8 * (1 + ||T_k(X)||); phase 2
    runs a random-direction descent over the accretive cone minimising
    the image abscissa.  A certified witness (exactly clipped accretive
    input, image abscissa below threshold) gives verdict FAIL; without
    one the verdict is an uncertified PASS unless a sample violated.
    """
    t = resolve_tol(tol)
    levels = tuple(int(k) for k in levels)
    if any(k < 1 for k in levels):
        raise InputError("levels must be positive integers")
    dom = t_map.domain
    if (dom.unit is not None or t_map.full_domain) and dom._star_closed:
        if _choi_psd(_choi(t_map, t), t):
            return RcpVerdict(passed=True, certified=True, certificate="choi_psd",
                              witness=None, levels=levels, sampled_violations=[],
                              note="Choi(T o E_B) is PSD: T is CP on the C*-domain, "
                                   "so RCP at every level")
        witness = _choi_witness(t_map, levels)
        if witness is not None:
            return RcpVerdict(passed=False, certified=True, certificate="witness",
                              witness=witness, levels=levels, sampled_violations=[],
                              note="accretive input with non-accretive image")

    rng = rng_for(seed)
    violations = []
    worst_x = {}
    amps = {k: amplify(t_map, k) for k in levels}
    for k in levels:
        tk = amps[k]
        for s_idx in range(samples):
            x = _accretive_sample(tk, rng)
            if x is None:
                break
            y = tk._apply(x)
            out_absc = _abscissa(y)
            if out_absc < -1e-8 * (1.0 + _norm2(y)):
                violations.append({"level": k, "sample": s_idx,
                                   "out_abscissa": float(out_absc)})
                if k not in worst_x or out_absc < worst_x[k][0]:
                    worst_x[k] = (float(out_absc), x)

    witness = _rcp_witness_search(t_map, amps, levels, budget, rng, worst_x)
    if witness is not None:
        return RcpVerdict(passed=False, certified=True, certificate="witness",
                          witness=witness, levels=levels,
                          sampled_violations=violations,
                          note="accretive input with non-accretive image")
    return RcpVerdict(passed=not violations, certified=False, certificate=None,
                      witness=None, levels=levels, sampled_violations=violations,
                      note="sampling and descent found no violation (not a proof)")


def _rcp_witness_search(t_map, amps, levels, budget, rng, worst_x):
    """Random-direction descent on the image abscissa over the accretive
    cone; the budget is split evenly across levels so a high-level
    witness is never starved by fruitless low-level searching."""
    base_n = t_map.domain.n
    per_level = max(1, int(budget) // max(len(levels), 1))
    for k in levels:
        evals_left = per_level
        tk = amps[k]
        n_in = tk.n_in
        full = tk.full_domain

        def certify(x):
            xc = _clip_accretive(x)
            return _witness(tk, xc if full else tk.project(xc))

        seeds = []
        if full and k >= 2:
            seeds.append(_unit_pairing(k, base_n) / min(k, base_n))
        if k in worst_x:
            seeds.append(worst_x[k][1])
        else:
            s = _accretive_sample(tk, rng)
            if s is not None:
                seeds.append(s)
        for seed_x in seeds:
            if evals_left <= 0:
                break
            found = certify(seed_x)
            evals_left -= 1
            if found is not None:
                return found
            # descent from this seed
            x = _clip_accretive(seed_x)
            fval = _abscissa(tk._apply(x))
            sigma = 0.25 * max(_norm2(x), 1e-3)
            while evals_left > 0:
                if full:
                    d = (rng.standard_normal((n_in, n_in))
                         + 1j * rng.standard_normal((n_in, n_in)))
                else:
                    d = tk.random_element(rng)
                d = d / max(_norm2(d), 1e-30)
                cand = _clip_accretive(x + sigma * d)
                nn = _norm2(cand)
                if nn > 4.0:
                    cand = cand * (4.0 / nn)
                fc = _abscissa(tk._apply(cand))
                evals_left -= 1
                if fc < fval:
                    x, fval = cand, fc
                    sigma = min(sigma * 1.5, 2.0)
                    w = certify(x)
                    if w is not None:
                        return w
                else:
                    sigma = sigma * 0.5
                    if sigma < 1e-8:
                        break
    return None


# ---------------------------------------------------------------------------
# symmetric projections
# ---------------------------------------------------------------------------

def _projection_uppers(p_map: LinearMapOnAlgebra, sym_map: LinearMapOnAlgebra) -> tuple:
    """Upper bounds on the cb norms of I - 2P, P and I - P, once for every
    level: u_S = _cb_upper(I - 2P); I - P = (I + (I - 2P)) / 2 and P =
    (I - (I - 2P)) / 2 with ||id||_cb = 1 give (1 + u_S) / 2 for both, and
    P also has its own Choi bound."""
    u_sym = _cb_upper(sym_map)
    half = (1.0 + u_sym) / 2.0
    return u_sym, min(_cb_upper(p_map), half), half


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
                               tol: Tolerances | None = None, levels=(1, 2, 3),
                               seed: int = 0, rcp_budget: int = 600):
    """P(a) = (a + theta(a)(2q - 1)) / 2 for a period-2 multiplicative
    symmetry theta fixing the Hermitian idempotent q.

    Preconditions (each named on failure): theta is an endomorphism of
    the algebra with theta(theta(a)) = a and theta(ab) = theta(a)theta(b)
    on the basis; q is an idempotent in the span with theta(q) = q.

    Returns (P, cert) with certificates: P idempotent; ||I - 2P||, ||P||
    and ||I - P|| estimated at the requested matrix levels (the lower ends
    of their brackets, with the upper bounds of _projection_uppers computed
    once for all levels, so a family that meets them at the unit start
    runs no ascent); rcp_test on P; the range of P equals the theta-fixed
    points compressed to the q corner; and P vanishes on the complementary
    corner pieces (this last certificate holds when theta acts as the
    identity on the complement, the compatibility the construction needs
    to be a projection onto a hereditary piece).
    """
    t = resolve_tol(tol)
    qm = as_matrix(q, "q")
    cube = np.array(algebra.basis)
    scale = 1.0 + _max_op_norm(cube)

    if not (theta.domain.dim == algebra.dim and _spans_equal(theta.domain, algebra)):
        raise PreconditionError("theta's domain is not the given algebra")
    if not (theta.codomain.dim == algebra.dim and _spans_equal(theta.codomain, algebra)):
        raise PreconditionError("theta's codomain is not the given algebra")

    t_cube = theta._apply_stack(cube)
    worst = _max_op_norm(theta._apply_stack(t_cube) - cube)
    if worst > 100 * t.eq_tol * scale:
        raise PreconditionError(f"theta is not period-2: residual {worst:.3g}")
    worst = _max_op_norm(theta._apply_stack(_products(cube, cube))
                         - _products(t_cube, t_cube))
    if worst > 100 * t.eq_tol * scale ** 2:
        raise PreconditionError(f"theta is not multiplicative: residual {worst:.3g}")
    idem_res = _norm2(qm @ qm - qm)
    if idem_res > 100 * t.eq_tol * (1.0 + _norm2(qm)) ** 2:
        raise PreconditionError(f"q is not idempotent: residual {idem_res:.3g}")
    if not algebra._contains(qm, 1e-7):
        raise PreconditionError("q does not lie in the algebra span")
    fix_res = _norm2(theta._apply(qm) - qm)
    if fix_res > 100 * t.eq_tol * (1.0 + _norm2(qm)):
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
    sym_map = map_affine_combo(p_map, 1.0, -2.0)
    comp_map = map_affine_combo(p_map, 1.0, -1.0)
    u_sym, u_p, u_comp = _projection_uppers(p_map, sym_map)
    sym_norms, p_norms, comp_norms = {}, {}, {}
    for k in levels:
        sym_norms[k], p_norms[k], comp_norms[k] = (e.value for e in _op_norm_estimates(
            [sym_map, p_map, comp_map], k, _NORM_BUDGET, seed, [u_sym, u_p, u_comp]))
    rcp = rcp_test(p_map, levels=levels, budget=rcp_budget, seed=seed, tol=t)

    # range = fixed points of theta intersected with the q corner
    d = algebra.dim
    comp_action, _ = algebra._coords_stack(qm @ cube @ qm)
    stackm = np.concatenate([theta.action - np.eye(d), comp_action - np.eye(d)], axis=0)
    _, sv, vh = np.linalg.svd(stackm)
    fixed = np.tensordot(vh[sv <= 1e-9 * max(1.0, float(sv[0]))].conj(), cube, axes=1)
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

    symmetric is the level-1 statement ||I - 2P|| <= 1 + 1e-6; the
    per-level norm estimates are recorded separately since symmetries
    need not be completely contractive (the scalar-averaging projection
    on M_2 is the standard example: level 1 norm 1, level 2 norm 2)."""

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


def classify_projection(p_map: LinearMapOnAlgebra, levels=(1, 2, 3), seed: int = 0,
                        budget: int = 600, tol: Tolerances | None = None) -> ProjectionClassification:
    """Classify an idempotent map: contractivity per level, bicontractivity,
    symmetry (each judged on the lower end of the norm bracket of P, I - P
    or I - 2P; the upper bounds of _projection_uppers are computed once for
    all levels and let the ascent stop at the unit start when met), RCP
    sampling, the conditional-expectation identity
    P(P(a) b P(c)) = P(a) P(b) P(c), multiplicative closure of the range,
    associativity of the induced product a o b = P(ab), and square-zero
    behaviour of the kernel."""
    t = resolve_tol(tol)
    if p_map.domain.dim != p_map.codomain.dim:
        raise PreconditionError("classify_projection needs an endomorphism")
    act = p_map.action
    va = p_map._vec_action
    idem_res = _norm2(va @ va - va)
    scale = 1.0 + _norm2(act) ** 2
    if idem_res > 100 * t.eq_tol * scale:
        raise PreconditionError(f"map is not idempotent: residual {idem_res:.3g}")

    comp = map_affine_combo(p_map, 1.0, -1.0)
    sym = map_affine_combo(p_map, 1.0, -2.0)
    u_sym, u_p, u_comp = _projection_uppers(p_map, sym)
    contr, bicon, symn = {}, {}, {}
    for k in levels:
        contr[k], bicon[k], symn[k] = (e.value for e in _op_norm_estimates(
            [p_map, comp, sym], k, _NORM_BUDGET, seed, [u_p, u_comp, u_sym]))
    contractive = all(v <= 1.0 + 1e-6 for v in contr.values())
    bicontractive = contractive and all(v <= 1.0 + 1e-6 for v in bicon.values())
    symmetric = symn[min(levels)] <= 1.0 + 1e-6 if levels else False
    completely_symmetric = all(v <= 1.0 + 1e-6 for v in symn.values())

    rcp = rcp_test(p_map, levels=levels, budget=budget, seed=seed, tol=t)

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

    try:
        range_closed = _spans_equal(p_of, np.concatenate([p_of, pp[_norm2(pp) > 1e-12]]))
    except NumericError:
        range_closed = False

    # kernel basis from the SVD null space of the (square) action
    _, sv, vh = np.linalg.svd(act)
    kern = np.tensordot(vh[sv <= 1e-9 * max(1.0, sv[0])].conj(), cube, axes=1)
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
