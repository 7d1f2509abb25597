"""Dense complex linear-algebra kernel shared by every other module.

Everything is deterministic: decompositions come straight from LAPACK
through numpy/scipy, and all randomness flows through explicit integer
seeds (PCG64 generators, never global state).  Matrices are plain
``numpy.ndarray`` values of dtype complex128.

Validation contract: a public function validates each matrix it receives
once, with ``as_matrix`` (square, nonempty, finite, complex), and then
works on the validated array.  The ``_``-prefixed kernels (``_norm2``,
``_herm_part``, ``_matrix_exp`` here; ``_abscissa`` in numrange and the
like elsewhere) trust their input and are what the package calls on
arrays it built itself; a kernel raises ``NumericError``, never
``InputError``, when its own arithmetic overflows (``_matrix_exp``
instead marks the matrices of its stack whose exponential overflows).
A function that takes an element of a cone enters through the single
entry check ``cones._element``: ``as_matrix``, the corner check, and the
cone hypothesis, raised as one ``PreconditionError`` format.

Every other argument is decided by one rule per kind, each raising
``InputError`` with one message format: ``_as_int`` for sizes, levels,
counts, seeds and ranks; ``_as_number`` for a finite number that is not
a bool (exponents, angles, points, tolerances, coefficients and the
generator parameters), with an optional range test; ``_as_instance``
for a tolerance bundle, context, algebra, map, range boundary, callable,
flag or suite name, with None standing for a default where there is one;
and ``algebra._as_matrices`` for a list of same-size matrices.

Decision layer: every rank, null space, zero cluster and Kraus cut asks
``_nonzero`` whether a singular value or eigenvalue is zero, with its own
cut and scale; a value in the window between a tenth of the cut and the
cut raises ``NumericError`` naming the site rather than a guess.
``_rounding_cut`` is a rounding bound with no window, for the sign and
cluster tests of ``numrange`` and the series and norm-bracket allowances.
"""
from __future__ import annotations

import cmath
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import InputError, NumericError

__all__ = [
    "Tolerances",
    "as_matrix",
    "operator_norm",
    "herm_part",
    "matrix_exp",
    "rng_for",
    "random_matrix",
    "random_unitary",
    "random_hermitian",
    "random_accretive",
    "random_contraction",
    "random_idempotent",
]

#: overflow guard for the matrix exponential; exp of anything whose
#: Hermitian part reaches this spills out of double range.
_EXP_OVERFLOW = 700.0

#: ambiguity window of _nonzero: a value within this factor below its cut
#: is refused, not decided
_WINDOW = 10.0

# Rounding cut, in units of n * eps * scale.  eigh resolves H only to about
# n * eps * ||H||: Haar-conjugated kernels u (B + 0) u* and the kernels of
# their shifted-route powers come out below 3 n eps ||x||.
_KER_ULPS = 64.0


def _nonzero(values: np.ndarray, scale: float, cut: float, who: str) -> np.ndarray:
    """Mask of the nonnegative values above cut * scale.  A value at or
    below cut * scale / _WINDOW is zero; one in between raises
    NumericError naming who, the value and the cut.  At scale 0 the window
    is empty and a zero value is zero (a zero stack has rank 0)."""
    big = values > cut * scale
    unsure = values[~big & (values > cut * scale / _WINDOW)]
    if unsure.size:
        raise NumericError(
            f"{who} is ambiguous: {float(unsure.max()):.3g} lies within {_WINDOW:g}x "
            f"below the cut {cut:.3g} x scale {float(scale):.3g}"
        )
    return big


def _rounding_cut(n: int, scale: float) -> float:
    """_KER_ULPS * n * eps * scale: a small multiple of the rounding level of
    an n-by-n eigen-solve of a matrix of size scale."""
    return _KER_ULPS * n * np.finfo(float).eps * scale


@dataclass(frozen=True)
class Tolerances:
    """Shared tolerance bundle.

    eq_tol   -- equality / residual comparisons
    psd_tol  -- eigenvalue nonnegativity slack
    conv_tol -- iteration and series convergence targets
    """

    eq_tol: float = 1e-9
    psd_tol: float = 1e-9
    conv_tol: float = 1e-10

    def __post_init__(self):
        for name in ("eq_tol", "psd_tol", "conv_tol"):
            _as_number(getattr(self, name), f"tolerance {name}", "be a finite positive real",
                       lambda v: v > 0)

    def as_dict(self):
        return {"eq_tol": self.eq_tol, "psd_tol": self.psd_tol, "conv_tol": self.conv_tol}


def resolve_tol(tol: Tolerances | None) -> Tolerances:
    """tol, or the default bundle for None; InputError for anything else."""
    return _as_instance(tol, Tolerances, "tol", Tolerances)


def _as_array(x, name: str) -> np.ndarray:
    """x as a complex array of any shape; InputError when numpy cannot
    convert it."""
    try:
        return np.asarray(x, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{name} is not convertible to a complex matrix: {exc}") from exc


def as_matrix(x, name: str = "x") -> np.ndarray:
    """Validate and return ``x`` as a square finite complex matrix."""
    a = _as_array(x, name)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] == 0:
        raise InputError(f"{name} must be a nonempty square matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise InputError(f"{name} contains non-finite entries")
    return a


def _as_sized(x, n: int, name: str = "x") -> np.ndarray:
    """as_matrix(x, name), which must moreover be n-by-n."""
    a = as_matrix(x, name)
    if a.shape[0] != n:
        raise InputError(f"{name} is {a.shape[0]}x{a.shape[0]}, expected {n}x{n}")
    return a


def _as_int(v, what: str, lo: int = 1, hi: int | None = None) -> int:
    """v as an int in [lo, hi] (hi None: no upper end); InputError for
    anything else, a bool, a float or a numeric string included."""
    if (isinstance(v, (bool, np.bool_)) or not isinstance(v, (int, np.integer))
            or v < lo or (hi is not None and v > hi)):
        bounds = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
        raise InputError(f"{what} must be an integer {bounds}, got {v!r}")
    return int(v)


def _as_number(v, what: str, need: str, ok=None, kind=numbers.Real):
    """v as a float (a complex for kind numbers.Complex): a finite number
    of the numbers ABC kind, not a bool, for which ok(v) holds when ok is
    given; otherwise InputError "{what} must {need}, got {v!r}"."""
    try:
        good = (isinstance(v, kind) and not isinstance(v, (bool, np.bool_))
                and cmath.isfinite(v) and (ok is None or ok(v)))
    except OverflowError:  # an int beyond the double range
        good = False
    if not good:
        raise InputError(f"{what} must {need}, got {v!r}")
    return float(v) if kind is numbers.Real else complex(v)


def _as_instance(v, cls, what: str, default=None):
    """v, an instance of cls (a class or a tuple of them); for None,
    default() when a default is given.  InputError, naming what and cls,
    for anything else."""
    if v is None and default is not None:
        return default()
    if not isinstance(v, cls):
        kind = " or ".join(c.__name__ for c in cls) if isinstance(cls, tuple) else cls.__name__
        article = "an" if kind[0] in "AEIOU" else "a"
        raise InputError(f"{what} must be {article} {kind}{' or None' if default else ''}, "
                         f"got {type(v).__name__}")
    return v


def _norm2(a: np.ndarray):
    """Largest singular value of a matrix (a float) or of each matrix in
    an (m, k, k) stack (an array), bitwise the value of
    ``np.linalg.norm(a, 2)``; raises NumericError when it is not finite."""
    try:
        s = np.linalg.svd(a, compute_uv=False)[..., 0]
    except np.linalg.LinAlgError as exc:  # LAPACK gives up on non-finite entries
        raise NumericError(f"operator norm failed: {exc}") from exc
    if not np.isfinite(s).all():
        raise NumericError("operator norm is not finite: the matrix overflowed")
    return s if s.ndim else float(s)


def operator_norm(x) -> float:
    """Largest singular value (the operator norm on column vectors)."""
    return _norm2(as_matrix(x))


def _herm_part(a: np.ndarray) -> np.ndarray:
    """(a + a*)/2 of a matrix, or of each matrix of a stack."""
    return (a + a.conj().swapaxes(-1, -2)) / 2.0


def herm_part(x) -> np.ndarray:
    """Hermitian (real) part (x + x*)/2."""
    return _herm_part(as_matrix(x))


def _matrix_exp(a: np.ndarray, growth: np.ndarray | None = None):
    """exp of each matrix of an (m, k, k) stack: one overflow guard and one
    scipy expm call, each bitwise its one-matrix evaluation.

    Returns (e, ok, growth).  growth (one stacked eigen-solve unless given)
    is the top Hermitian-part eigenvalue of each matrix, a lower bound on
    log||exp(a)||; a matrix with growth above _EXP_OVERFLOW is not
    exponentiated (its slice of e is 0), and ok marks the matrices whose
    exponential was computed and is finite.
    """
    growth = np.linalg.eigvalsh(_herm_part(a))[:, -1] if growth is None else growth
    ok = growth <= _EXP_OVERFLOW
    e = np.zeros_like(a)
    if ok.any():
        e[ok] = sla.expm(a[ok])
        ok &= np.isfinite(e).all(axis=(1, 2))
    return e, ok, growth


def matrix_exp(x) -> np.ndarray:
    """Matrix exponential via scipy's scaling-and-squaring Pade evaluation."""
    a = as_matrix(x)
    e, ok, growth = _matrix_exp(a[None])
    if growth[0] > _EXP_OVERFLOW:
        raise NumericError(
            f"matrix_exp overflow: Hermitian-part abscissa {growth[0]:.3g} exceeds {_EXP_OVERFLOW}"
        )
    if not ok[0]:
        raise NumericError(f"matrix_exp overflow for input of norm {_norm2(a):.3g}")
    return e[0]


# ---------------------------------------------------------------------------
# seeded generators (the size n is an integer >= 1, checked before any draw;
# random_hermitian and random_accretive leave the check to random_matrix)
# ---------------------------------------------------------------------------

def rng_for(seed) -> np.random.Generator:
    """The one way randomness enters: a fresh PCG64 generator per seed (an
    integer >= 0); a Generator passes through unaltered, so a caller can
    draw several instances from one stream."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(_as_int(seed, "seed", lo=0))


def random_matrix(n: int, seed) -> np.ndarray:
    """Complex Ginibre matrix, entries N(0,1/2n) + i N(0,1/2n)."""
    n = _as_int(n, "n")
    rng = rng_for(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g / np.sqrt(2.0 * n)


def random_unitary(n: int, seed) -> np.ndarray:
    """Haar-distributed unitary (QR of Ginibre with phase correction)."""
    n = _as_int(n, "n")
    rng = rng_for(seed)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_hermitian(n: int, seed, psd: bool = False) -> np.ndarray:
    """Random Hermitian matrix of unit operator norm; PSD when requested."""
    psd = _as_instance(psd, bool, "psd")
    rng = rng_for(seed)
    g = random_matrix(n, rng)
    if psd:
        h = g @ g.conj().T
    else:
        h = (g + g.conj().T) / 2.0
    nrm = _norm2(h)
    return h / nrm if nrm > 0 else h


def random_accretive(n: int, seed, angle_cap: float = np.pi / 2) -> np.ndarray:
    """Seeded accretive matrix H + iK with sectorial angle <= angle_cap.

    H is Hermitian PSD of unit norm.  For angle_cap < pi/2 the skew part
    is dominated pointwise, K = tan(angle_cap) * H^(1/2) Kt H^(1/2) with
    ||Kt|| <= 1, so |Im v*xv| <= tan(angle_cap) * Re v*xv for every
    vector v and the numerical range sits inside the closed sector of
    half-angle angle_cap exactly.
    """
    angle_cap = _as_number(angle_cap, "angle_cap", "lie in (0, pi/2]",
                           lambda a: 0 < a <= np.pi / 2 + 1e-15)
    rng = rng_for(seed)
    h = random_hermitian(n, rng, psd=True)
    kt = random_hermitian(n, rng)
    if angle_cap >= np.pi / 2 - 1e-12:
        return h + 1j * kt
    w, v = np.linalg.eigh(h)
    hs = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    k = np.tan(angle_cap) * (hs @ kt @ hs)
    return h + 1j * (k + k.conj().T) / 2.0


def random_contraction(n: int, seed, norm: float | None = None) -> np.ndarray:
    """Random matrix rescaled to a chosen operator norm < 1 (drawn when None)."""
    n = _as_int(n, "n")
    rng = rng_for(seed)
    target = rng.uniform(0.0, 0.99) if norm is None else _as_number(
        norm, "contraction norm", "lie in [0, 1)", lambda v: 0 <= v < 1)
    g = random_matrix(n, rng)
    nrm = _norm2(g)
    return g * (target / nrm) if nrm > 0 else g


def random_idempotent(n: int, seed, rank: int | None = None) -> np.ndarray:
    """Random similarity S P S^{-1} of a Hermitian projection P.

    The similarity is built as Q1 diag(s) Q2* with log-uniform singular
    values between 1e3^(-1/2) and 1e3^(1/2), so cond(S) <= 1e3 by
    construction.  The rank, drawn when None, is an integer in [0, n].
    """
    n = _as_int(n, "n")
    rng = rng_for(seed)
    r = int(rng.integers(0, n + 1)) if rank is None else _as_int(rank, "rank", lo=0, hi=n)
    p = np.zeros((n, n), dtype=complex)
    p[:r, :r] = np.eye(r)
    q1 = random_unitary(n, rng)
    q2 = random_unitary(n, rng)
    half = np.sqrt(1e3)
    s = np.exp(rng.uniform(-np.log(half), np.log(half), size=n))
    sim = (q1 * s) @ q2.conj().T
    return sim @ p @ np.linalg.inv(sim)
