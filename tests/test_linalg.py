"""Foundation helpers: tolerances, matrix checks, seeded generators."""
import numpy as np
import pytest

from realpos import linalg
from realpos.errors import InputError, NumericError
from realpos.linalg import (
    Tolerances,
    _norm2,
    as_matrix,
    herm_part,
    matrix_exp,
    operator_norm,
    random_accretive,
    random_contraction,
    random_hermitian,
    random_idempotent,
    random_matrix,
    random_unitary,
    rng_for,
)
from realpos.numrange import abscissa


def closed_form_2x2_norm(a, b, c, d):
    """Largest singular value of [[a, b], [c, d]] from the 2x2 Gram
    eigenvalue formula: s^2 = (t + sqrt(t^2 - 4 q)) / 2 with
    t = sum |entries|^2 and q = |det|^2."""
    m2 = abs(a) ** 2 + abs(b) ** 2 + abs(c) ** 2 + abs(d) ** 2
    q = abs(a * d - b * c) ** 2
    disc = max(m2 * m2 - 4 * q, 0.0)
    return np.sqrt((m2 + np.sqrt(disc)) / 2.0)


def test_operator_norm_matches_2x2_closed_form():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a, b, c, d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        m = np.array([[a, b], [c, d]])
        assert operator_norm(m) == pytest.approx(
            closed_form_2x2_norm(a, b, c, d), abs=1e-12)


def test_tolerances_validation():
    t = Tolerances(eq_tol=1e-9, psd_tol=1e-9, conv_tol=1e-10)
    assert t.as_dict()["eq_tol"] == 1e-9
    with pytest.raises(InputError):
        Tolerances(eq_tol=-1e-9, psd_tol=1e-9, conv_tol=1e-10)
    with pytest.raises(InputError):
        Tolerances(eq_tol=0.0, psd_tol=1e-9, conv_tol=1e-10)


@pytest.mark.parametrize("field", ["eq_tol", "psd_tol", "conv_tol"])
def test_tolerances_reject_bool(field):
    """bool is an int subclass, but True is no tolerance: it would be
    written into reports as "eq_tol": true."""
    with pytest.raises(InputError, match=field):
        Tolerances(**{field: True})


def test_as_matrix_rejects_bad_input():
    with pytest.raises(InputError):
        as_matrix(np.zeros((2, 3)))
    with pytest.raises(InputError):
        as_matrix(np.array([[np.inf, 0], [0, 1]]))
    with pytest.raises(InputError):
        as_matrix(np.zeros((0, 0)))


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_norm2_kernel_is_bitwise_numpy_spectral_norm(n):
    stack = np.array([np.zeros((n, n), dtype=complex)]
                     + [random_matrix(n, seed) for seed in range(5)])
    for m in stack:
        assert _norm2(m) == np.linalg.norm(m, 2)
    assert np.array_equal(_norm2(stack), np.linalg.norm(stack, 2, axis=(1, 2)))
    stack[3, 0, -1] = np.inf
    with pytest.raises(NumericError):
        _norm2(stack[3])
    with pytest.raises(NumericError):
        _norm2(stack)


def test_herm_part():
    m = np.array([[1.0, 2.0], [0.0, 3.0]], dtype=complex)
    h = herm_part(m)
    assert np.allclose(h, h.conj().T)
    assert np.allclose(h, [[1.0, 1.0], [1.0, 3.0]])


def test_matrix_exp_matches_diagonal():
    d = np.diag([0.5, -1.0, 2.0]).astype(complex)
    assert np.allclose(matrix_exp(d), np.diag(np.exp([0.5, -1.0, 2.0])))


def test_matrix_exp_overflow_guard():
    with pytest.raises(NumericError):
        matrix_exp(np.diag([1000.0, 0.0]).astype(complex))


def test_stacked_matrix_exp_masks_each_failing_slice(monkeypatch):
    """The guard skips a slice above _EXP_OVERFLOW, and an expm result
    that is not finite is masked too (forced here: past the guard,
    ||exp(a)|| <= e^700 stays in range)."""
    a = np.array([random_matrix(3, s) for s in range(4)])
    a[1] += 800.0 * np.eye(3)
    expm = linalg.sla.expm

    def expm_overflowing_first(m):
        e = expm(m)
        e[0, 0, 0] = np.inf
        return e

    monkeypatch.setattr(linalg.sla, "expm", expm_overflowing_first)
    e, ok, growth = linalg._matrix_exp(a)
    assert ok.tolist() == [False, False, True, True]
    assert growth[1] > 700.0 and not e[1].any()
    for i in (2, 3):
        assert np.array_equal(e[i], expm(a[i]))
    with pytest.raises(NumericError, match="overflow for input of norm"):
        matrix_exp(a[0])


def test_generators_deterministic():
    for gen in (random_matrix, random_unitary, random_hermitian,
                random_accretive, random_contraction, random_idempotent):
        a = gen(4, 123)
        b = gen(4, 123)
        assert np.array_equal(a, b)
        c = gen(4, 124)
        assert not np.array_equal(a, c)


def test_rng_for_passes_a_generator_through():
    g = rng_for(5)
    assert rng_for(g) is g
    for s in (0, 42):
        assert np.array_equal(random_accretive(4, rng_for(s)), random_accretive(4, s))


@pytest.mark.parametrize("seed", [-1, 2.5, True, np.bool_(False), "3", None, (1, 2)],
                         ids=["negative", "float", "bool", "numpy_bool", "str", "none", "tuple"])
@pytest.mark.parametrize("gen", [rng_for, lambda s: random_matrix(3, s),
                                 lambda s: random_accretive(3, s)],
                         ids=["rng_for", "random_matrix", "random_accretive"])
def test_seeds_that_are_not_integers_at_least_zero_are_refused(gen, seed):
    with pytest.raises(InputError, match="seed must be an integer >= 0"):
        gen(seed)


@pytest.mark.parametrize("seed", [0, 1, 42, 2 ** 40, np.int64(7), np.uint8(200)])
def test_valid_seeds_draw_what_default_rng_draws(seed):
    assert np.array_equal(rng_for(seed).standard_normal(6),
                          np.random.default_rng(int(seed)).standard_normal(6))
    g = np.random.default_rng(int(seed))
    want = (g.standard_normal((3, 3)) + 1j * g.standard_normal((3, 3))) / np.sqrt(6.0)
    assert np.array_equal(random_matrix(3, seed), want)


@pytest.mark.parametrize("call", [
    lambda: random_matrix(0, 0),
    lambda: random_unitary(0, 0),
    lambda: random_matrix(2.7, 0),
    lambda: random_matrix("3", 0),
    lambda: random_hermitian(True, 0),
    lambda: random_accretive(True, 0),
    lambda: random_contraction(-1, 0),
    lambda: random_idempotent(0, 0),
    lambda: random_idempotent(4, 0, rank=2.7),
    lambda: random_idempotent(4, 0, rank=True),
    lambda: random_idempotent(4, 0, rank=5),
    lambda: random_idempotent(4, 0, rank=-1),
], ids=["matrix_0", "unitary_0", "matrix_2.7", "matrix_str", "hermitian_True",
        "accretive_True", "contraction_-1", "idempotent_0", "rank_2.7", "rank_True",
        "rank_5", "rank_-1"])
def test_generators_refuse_sizes_that_are_not_integers_in_range(call):
    with pytest.raises(InputError, match="integer"):
        call()


def test_random_idempotent_allows_rank_zero_and_numpy_sizes():
    assert np.array_equal(random_idempotent(3, 1, rank=0), np.zeros((3, 3)))
    assert np.array_equal(random_idempotent(np.int64(3), 1, rank=np.int64(2)),
                          random_idempotent(3, 1, rank=2))


def test_random_unitary_is_unitary():
    u = random_unitary(5, 9)
    assert np.allclose(u @ u.conj().T, np.eye(5), atol=1e-12)


def test_random_accretive_is_accretive():
    for seed in range(20):
        x = random_accretive(4, seed)
        assert abscissa(x) >= -1e-12


def test_random_accretive_angle_cap():
    for seed in range(10):
        x = random_accretive(3, seed, angle_cap=0.4)
        h = herm_part(x)
        k = (x - h) / 1j
        # sector containment: |w* k w| <= tan(cap) w* h w for all w
        rng = rng_for(seed + 1000)
        for _ in range(20):
            w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
            num = abs(w.conj() @ k @ w)
            den = (w.conj() @ h @ w).real
            assert num <= np.tan(0.4) * den + 1e-9


def test_random_contraction_norm():
    for seed in range(10):
        assert operator_norm(random_contraction(4, seed)) <= 0.99 + 1e-12
    assert operator_norm(random_contraction(4, 3, norm=0.5)) == pytest.approx(0.5)


def test_random_idempotent_properties():
    for seed in range(20):
        p = random_idempotent(4, seed)
        assert operator_norm(p @ p - p) <= 1e-10
        assert np.linalg.cond(np.eye(4) + 0 * p) >= 1.0  # sanity
    p = random_idempotent(5, 7, rank=2)
    assert np.linalg.matrix_rank(p) == 2


def test_random_idempotent_condition_cap():
    for seed in range(10):
        p = random_idempotent(4, seed)
        # the similarity's condition cap 1e3 bounds the idempotent norm
        assert operator_norm(p) <= 1e3 * (1 + 1e-9)


# _nonzero at cut 1e-9 and scale 2: nonzero above 2e-9, zero at or below
# 2e-10, refused in between
CUT, SCALE = 1e-9, 2.0
EDGE = CUT * SCALE


def test_nonzero_returns_the_mask_of_values_above_the_cut():
    values = np.array([3.0, EDGE / 10.0, np.nextafter(EDGE, 1.0), 0.0])
    mask = linalg._nonzero(values, SCALE, CUT, "site")
    assert mask.dtype == bool and mask.tolist() == [True, False, True, False]


@pytest.mark.parametrize("value", [EDGE, np.nextafter(EDGE / 10.0, 1.0)],
                         ids=["at_the_cut", "just_above_a_tenth"])
def test_nonzero_refuses_both_window_edges(value):
    with pytest.raises(NumericError, match=r"^site is ambiguous: .* within 10x below "
                                           r"the cut 1e-09 x scale 2$"):
        linalg._nonzero(np.array([1.0, value]), SCALE, CUT, "site")


def test_nonzero_at_scale_zero_has_no_window():
    assert linalg._nonzero(np.zeros(3), 0.0, CUT, "site").tolist() == [False] * 3
    assert linalg._nonzero(np.array([1e-300, 0.0]), 0.0, CUT, "site").tolist() == [True, False]
