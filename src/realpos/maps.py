"""Linear maps on matrix algebras: Choi matrices, Kraus factorisations,
matrix-level norm estimation, real-positivity preservation testing, and
symmetric projections.

A map is stored as its coordinate action between explicit subalgebra
bases; the amplification T_k to M_k(A) applies T to each block of a
k-by-k block matrix.  Complete positivity is decided exactly through
the Choi matrix (full-domain maps); real complete positivity (RCP) is
tested by seeded sampling plus a witness search over the accretive cone,
short-circuited by the CP certificate when one exists.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .algebra import SubalgebraBasis, _spans_equal, _vec, full_matrix_algebra
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
        cols_out = np.array([_vec(b) for b in codomain.basis]).T
        self._vec_action = cols_out @ a @ domain._pinv

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
        u = t_map.domain.unit
        self.unit = None if u is None else np.kron(np.eye(k, dtype=complex), u)

    def _blocks(self, x: np.ndarray) -> np.ndarray:
        k, n = self.k, x.shape[0] // self.k
        return x.reshape(k, n, k, n).transpose(0, 2, 1, 3).reshape(k * k, n * n)

    def _unblocks(self, rows: np.ndarray) -> np.ndarray:
        k, n = self.k, math.isqrt(rows.shape[1])
        return rows.reshape(k, k, n, n).transpose(0, 2, 1, 3).reshape(k * n, k * n)

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
        """Orthogonal projection onto M_k(domain span), block by block."""
        return self._unblocks(self.base.domain._project_vecs(self._blocks(x)))

    def random_element(self, rng) -> np.ndarray:
        """sum_{i,j,l} c_ijl E_ij tensor b_l for complex Gaussian c, drawn
        as all real parts then all imaginary parts in (i, j, l) order."""
        basis = self.base.domain.basis
        d = self.k * self.k * len(basis)
        coef = rng.standard_normal(d) + 1j * rng.standard_normal(d)
        stacked = np.array([_vec(b) for b in basis])
        return self._unblocks(coef.reshape(self.k * self.k, len(basis)) @ stacked)


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
    t = resolve_tol(tol)
    if not t_map.full_domain:
        raise UnsupportedError("the Choi matrix is defined for full-domain maps only")
    n = t_map.domain.n
    m = t_map.codomain.n
    c = amplify(t_map, n)._apply(_unit_pairing(n, n))
    herm_res = _norm2(c - c.conj().T)
    herm = herm_res <= 100 * t.eq_tol * (1.0 + _norm2(c))
    min_eig = _abscissa(c)
    return ChoiMatrix(c=c, herm=bool(herm), min_eig=min_eig, n_in=n, n_out=m)


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
    cp = ch.herm and ch.min_eig >= -t.psd_tol
    return CpVerdict(cp=bool(cp), herm=ch.herm, min_eig=ch.min_eig, choi=ch)


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
    worst = 0.0
    for i in range(n):
        for j in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            rebuilt = sum(o.conj().T @ e @ o for o in ops) if ops else np.zeros((m, m))
            worst = max(worst, _norm2(t_map._apply(e) - rebuilt))
    if worst > 1e-8:
        raise NumericError(f"Kraus reconstruction residual {worst:.3g} exceeds 1e-8")
    return ops, float(worst)


# ---------------------------------------------------------------------------
# matrix-level norm estimation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormEstimate:
    """Lower bound for ||T_k|| from monotone alternating ascent.

    stationary means the last accepted step improved by less than the
    settle threshold (a local maximiser); the value is always a valid
    lower bound but only that."""

    value: float
    stationary: bool
    iterations: int
    start_index: int


def op_norm_estimate(t_map: LinearMapOnAlgebra, k: int = 1, budget: int = 240,
                     seed: int = 0, tol: Tolerances | None = None) -> NormEstimate:
    """Estimate ||T_k|| = sup {||T_k(u)|| : u in M_k(domain), ||u|| <= 1}.

    Alternating ascent: for the current u take the top singular pair
    (w, v) of Y = T_k(u); the functional u -> Re w* T_k(u) v is linear,
    represented by a matrix G, and its maximiser over the full unit ball
    is the polar factor of G (projected back onto the domain span when
    the domain is proper, accepting only improving steps so the iteration
    stays monotone).  Several deterministic starts plus seeded unitary
    starts are used; the best value is a certified lower bound.
    """
    if int(budget) < 1:
        raise InputError(f"budget must be >= 1, got {budget}")
    tk = amplify(t_map, k)
    n_in = tk.n_in
    full = tk.full_domain
    rng = rng_for(seed)

    def objective(u):
        uu, sv, vvh = np.linalg.svd(tk._apply(u))
        return float(sv[0]), uu[:, 0], vvh[0].conj()

    base = t_map.domain
    if tk.unit is not None:
        u0 = tk.unit
    else:  # E_00 tensor the first basis element
        u0 = np.zeros((n_in, n_in), dtype=complex)
        u0[:base.n, :base.n] = base.basis[0]
    starts = [u0 / max(_norm2(u0), 1e-30)]
    if full and k >= 2:
        starts.append(_unit_pairing(k, base.n, swap=True))
        starts.append(_unit_pairing(k, base.n) / min(k, base.n))
    while len(starts) < 6:
        if full:
            starts.append(random_unitary(n_in, rng))
        else:
            cand = tk.random_element(rng)
            starts.append(cand / max(_norm2(cand), 1e-30))

    per_start = max(3, int(budget) // len(starts))
    best_val, best_idx, best_stat, total_iter = -1.0, 0, False, 0
    for idx, u in enumerate(starts):
        val, w, v = objective(u)
        stationary = False
        for _ in range(per_start):
            total_iter += 1
            g = tk.apply_transpose(np.outer(w.conj(), v)).T
            gu, _, gvh = np.linalg.svd(g)
            u_new = gvh.conj().T @ gu.conj().T
            if not full:
                u_new = tk.project(u_new)
                nn = _norm2(u_new)
                if nn > 1.0:
                    u_new = u_new / nn
            val_new, w_new, v_new = objective(u_new)
            if val_new > val + 1e-12 * (1.0 + val):
                u, val, w, v = u_new, val_new, w_new, v_new
            else:
                stationary = True
                break
        if val > best_val + 1e-15:
            best_val, best_idx, best_stat = val, idx, stationary
    return NormEstimate(value=best_val, stationary=best_stat,
                        iterations=total_iter, start_index=best_idx)


# ---------------------------------------------------------------------------
# real complete positivity
# ---------------------------------------------------------------------------

@dataclass
class RcpVerdict:
    """Outcome of the real-complete-positivity test.

    passed=True means no accretive input with non-accretive image was
    found; certified marks the cases backed by an actual proof (the CP
    Choi certificate).  A witness, when present, is a dict with the
    level, the (certified accretive) input matrix, and both abscissas.
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


def rcp_test(t_map: LinearMapOnAlgebra, levels=(1, 2, 3), samples: int = 20,
             budget: int = 2000, seed: int = 0,
             tol: Tolerances | None = None) -> RcpVerdict:
    """Does T preserve accretivity at matrix levels?

    Phase 1 samples seeded accretive elements of M_k(domain) per level
    and checks the image abscissa against -1e-8 * (1 + ||T_k(X)||).
    Phase 2 (full-domain maps) short-circuits through the Choi matrix:
    CP implies the verdict PASS with a genuine certificate.  Phase 3,
    when no certificate exists, runs a random-direction descent over the
    accretive cone minimising the image abscissa; a certified witness
    (exactly clipped accretive input, image abscissa below threshold)
    gives verdict FAIL.  Without a witness the verdict is PASS but
    uncertified: sampling plus search is evidence, not proof.
    """
    t = resolve_tol(tol)
    levels = tuple(int(k) for k in levels)
    if any(k < 1 for k in levels):
        raise InputError("levels must be positive integers")
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

    certificate = None
    certified = False
    if t_map.full_domain and t_map.domain.n == t_map.codomain.n:
        cp = is_cp(t_map, t)
        if cp.cp:
            if violations:
                raise NumericError(
                    "inconsistency: Choi matrix is PSD yet sampling found "
                    f"{len(violations)} accretivity violations"
                )
            return RcpVerdict(passed=True, certified=True, certificate="choi_psd",
                              witness=None, levels=levels, sampled_violations=[],
                              note="CP via PSD Choi matrix; CP implies RCP at every level")

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
            if not full:
                xc = tk.project(xc)
            in_absc = _abscissa(xc)
            if in_absc < -1e-10 * (1.0 + _norm2(xc)):
                if tk.unit is not None:
                    xc = xc - in_absc * tk.unit
                    in_absc = _abscissa(xc)
                else:
                    return None
            y = tk._apply(xc)
            out_absc = _abscissa(y)
            if out_absc <= -max(1e-8 * (1.0 + _norm2(y)), 1e-9):
                return {"level": k, "matrix": xc, "in_abscissa": float(in_absc),
                        "out_abscissa": float(out_absc)}
            return None

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

    Returns (P, cert) with certificates: P idempotent; ||I - 2P|| and
    ||P|| estimated at the requested matrix levels; rcp_test on P; the
    range of P equals the theta-fixed points compressed to the q corner;
    and P vanishes on the complementary corner pieces (this last
    certificate holds when theta acts as the identity on the complement,
    the compatibility the construction needs to be a projection onto a
    hereditary piece).
    """
    t = resolve_tol(tol)
    qm = as_matrix(q, "q")
    scale = 1.0 + max(_norm2(b) for b in algebra.basis)

    if not (theta.domain.dim == algebra.dim and _spans_equal(theta.domain, algebra)):
        raise PreconditionError("theta's domain is not the given algebra")
    if not (theta.codomain.dim == algebra.dim and _spans_equal(theta.codomain, algebra)):
        raise PreconditionError("theta's codomain is not the given algebra")

    worst = max(
        _norm2(theta._apply(theta._apply(b)) - b)
        for b in algebra.basis
    )
    if worst > 100 * t.eq_tol * scale:
        raise PreconditionError(f"theta is not period-2: residual {worst:.3g}")
    worst = 0.0
    for bi in algebra.basis:
        ti = theta._apply(bi)
        for bj in algebra.basis:
            worst = max(worst, _norm2(
                theta._apply(bi @ bj) - ti @ theta._apply(bj)))
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

    images = []
    for b in algebra.basis:
        tb = theta._apply(b)
        images.append(0.5 * (b + 2.0 * (tb @ qm) - tb))
    cols = []
    for i, img in enumerate(images):
        c, res = algebra._coords(img)
        if res > 1e-8 * (1.0 + np.linalg.norm(_vec(img))):
            raise PreconditionError(
                f"projection image of basis element {i} leaves the algebra "
                f"(residual {res:.3g}); theta, q are not compatible"
            )
        cols.append(c)
    p_map = LinearMapOnAlgebra(algebra, algebra, np.array(cols).T)

    va = p_map._vec_action
    idem = _norm2(va @ va - va)
    sym_map = map_affine_combo(p_map, 1.0, -2.0)
    comp_map = map_affine_combo(p_map, 1.0, -1.0)
    sym_norms = {}
    p_norms = {}
    comp_norms = {}
    for k in levels:
        sym_norms[k] = op_norm_estimate(sym_map, k, seed=seed).value
        p_norms[k] = op_norm_estimate(p_map, k, seed=seed).value
        comp_norms[k] = op_norm_estimate(comp_map, k, seed=seed).value
    rcp = rcp_test(p_map, levels=levels, budget=rcp_budget, seed=seed, tol=t)

    # range = fixed points of theta intersected with the q corner
    d = algebra.dim
    comp_action = np.zeros((d, d), dtype=complex)
    for j, b in enumerate(algebra.basis):
        c, _ = algebra._coords(qm @ b @ qm)
        comp_action[:, j] = c
    stackm = np.concatenate([theta.action - np.eye(d), comp_action - np.eye(d)], axis=0)
    _, sv, vh = np.linalg.svd(stackm)
    fixed = []
    for i in range(d):
        if sv[i] <= 1e-9 * max(1.0, float(sv[0])):
            coefv = vh.conj().T[:, i]
            fixed.append(sum(cc * bb for cc, bb in zip(coefv, algebra.basis)))
    range_mats = [p_map._apply(b) for b in algebra.basis]
    range_ok = _spans_equal(range_mats, fixed) if fixed or range_mats else True

    vanish = 0.0
    for b in algebra.basis:
        left = b - qm @ b
        right = b - b @ qm
        vanish = max(vanish, _norm2(p_map._apply(left)))
        vanish = max(vanish, _norm2(p_map._apply(right)))

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
    symmetry, RCP sampling, the conditional-expectation identity
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
    contr = {}
    bicon = {}
    symn = {}
    for k in levels:
        contr[k] = op_norm_estimate(p_map, k, seed=seed).value
        bicon[k] = op_norm_estimate(comp, k, seed=seed).value
        symn[k] = op_norm_estimate(sym, k, seed=seed).value
    contractive = all(v <= 1.0 + 1e-6 for v in contr.values())
    bicontractive = contractive and all(v <= 1.0 + 1e-6 for v in bicon.values())
    symmetric = symn[min(levels)] <= 1.0 + 1e-6 if levels else False
    completely_symmetric = all(v <= 1.0 + 1e-6 for v in symn.values())

    rcp = rcp_test(p_map, levels=levels, budget=budget, seed=seed, tol=t)

    basis = p_map.domain.basis
    p_of = [p_map._apply(b) for b in basis]
    worst_ce = 0.0
    for pa in p_of:
        for b, pb in zip(basis, p_of):
            for pc in p_of:
                lhs = p_map._apply(pa @ b @ pc)
                worst_ce = max(worst_ce, _norm2(lhs - pa @ pb @ pc))
    cond_exp = worst_ce <= 1e-9

    range_prods = [pi @ pj for pi in p_of for pj in p_of]
    try:
        range_closed = _spans_equal(p_of, p_of + [rp for rp in range_prods
                                                  if _norm2(rp) > 1e-12])
    except NumericError:
        range_closed = False

    worst_assoc = 0.0
    for pa in p_of:
        for pb in p_of:
            for pc in p_of:
                lhs = p_map._apply(p_map._apply(pa @ pb) @ pc)
                rhs = p_map._apply(pa @ p_map._apply(pb @ pc))
                worst_assoc = max(worst_assoc, _norm2(lhs - rhs))

    # kernel basis from the SVD null space of the action
    d = p_map.domain.dim
    _, sv, vh = np.linalg.svd(act)
    kern = []
    for i in range(d):
        s_i = sv[i] if i < len(sv) else 0.0
        if s_i <= 1e-9 * max(1.0, sv[0] if len(sv) else 1.0):
            coefv = vh.conj().T[:, i]
            kern.append(sum(cc * bb for cc, bb in zip(coefv, basis)))
    worst_kernel = 0.0
    for ki in kern:
        for kj in kern:
            worst_kernel = max(worst_kernel, _norm2(ki @ kj))

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
