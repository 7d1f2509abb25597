"""Subalgebra spans, generated algebras, support idempotents, and the
structural equivalence checks."""
import tracemalloc

import numpy as np
import pytest

from realpos import algebra
from realpos.algebra import (
    SubalgebraBasis,
    _max_op_norm,
    _max_op_norm_above,
    _pair_products,
    _worst_span_residual,
    _worst_unit_residual,
    aarnes_kadison_check,
    ba,
    block_diag_algebra,
    diagonal_algebra,
    full_matrix_algebra,
    hsa_from_z,
    lump_check,
    span_contains,
    spans_equal,
    supp_order,
    support_idem,
    ws_suite,
)
from realpos.calculus import f_transform
from realpos.cones import full_context
from realpos.errors import InputError, NumericError, PreconditionError
from realpos.linalg import operator_norm, random_accretive, random_contraction, random_unitary
from realpos.maps import map_from_function


def test_standard_algebras():
    f = full_matrix_algebra(3)
    assert f.dim == 9 and f.n == 3
    d = diagonal_algebra(3)
    assert d.dim == 3
    b = block_diag_algebra([2, 1])
    assert b.dim == 5
    assert b.unit is not None


@pytest.mark.parametrize("n", [1, 2, 4])
def test_full_and_diagonal_algebras_are_ordered_matrix_units(n):
    units = np.eye(n * n, dtype=complex).reshape(n * n, n, n)  # [i n + j] = E_ij
    assert np.array_equal(np.array(full_matrix_algebra(n).basis), units)
    assert np.array_equal(np.array(diagonal_algebra(n).basis), units[::n + 1])


def test_block_diag_algebra_lists_each_block_row_major():
    expected = []
    off = 0
    for s in (2, 1, 3):
        for i in range(s):
            for j in range(s):
                e = np.zeros((6, 6), dtype=complex)
                e[off + i, off + j] = 1.0
                expected.append(e)
        off += s
    b = block_diag_algebra([2, 1, 3])
    assert np.array_equal(np.array(b.basis), np.array(expected))
    assert np.array_equal(b.unit, np.eye(6))


def _svd_factored(alg):
    """The algebra's matrix units factored by the SVD of the general path."""
    return SubalgebraBasis(alg.basis, ambient=alg.ambient)


@pytest.mark.parametrize("sizes", [[2], [4], [3, 1], [1] * 4, [8], [16]],
                         ids=["2", "4", "3-1", "1x4", "8", "16"])
def test_matrix_units_closed_form_is_bitwise_the_svd_factoring(sizes):
    alg = block_diag_algebra(sizes)
    ref = _svd_factored(alg)
    assert "unit" not in vars(ref)  # read off the span on first use only: no 2 d^2 products
    for name in ("_span_q", "_pinv", "_cols"):
        got, want = getattr(alg, name), getattr(ref, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


@pytest.mark.parametrize("sizes", [[1, 1], [7, 1], [5, 5], [1, 2, 3]],
                         ids=["1-1", "7-1", "5-5", "1-2-3"])
def test_matrix_units_closed_form_is_the_svd_span_up_to_row_signs(sizes):
    """Here LAPACK returns some unit rows negated (and -0.0 for 0); the
    closed form keeps every row +1, an orthonormal basis of the same span
    with the same coordinate solver."""
    alg = block_diag_algebra(sizes)
    ref = _svd_factored(alg)
    assert np.array_equal(np.abs(alg._span_q), np.abs(ref._span_q))
    assert np.array_equal(alg._span_q, np.array(alg.basis).reshape(alg.dim, -1))
    assert alg._pinv.tobytes() == ref._pinv.tobytes()
    assert alg._cols.tobytes() == ref._cols.tobytes()
    m = random_accretive(alg.n, 3)
    assert np.array_equal(alg._project_vecs(m.ravel()), ref._project_vecs(m.ravel()))


@pytest.mark.parametrize("sizes", [[], [2, 0]])
def test_block_diag_algebra_rejects_empty_blocks(sizes):
    with pytest.raises(InputError):
        block_diag_algebra(sizes)


@pytest.mark.parametrize("size", [2.7, True, "2"])
@pytest.mark.parametrize("make", [
    lambda k: block_diag_algebra([k]), full_matrix_algebra, diagonal_algebra, full_context,
], ids=["block_diag_algebra", "full_matrix_algebra", "diagonal_algebra", "full_context"])
def test_sizes_must_be_integers(make, size):
    """No size is truncated or converted: 2.7 is not M_2, nor True M_1."""
    with pytest.raises(InputError, match="integer"):
        make(size)


def _scaled_upper_triangular_basis(rng):
    """A non-orthogonal basis of the upper-triangular 3x3 algebra whose
    elements have Frobenius norms from 1e-6 to 1e6."""
    units = np.eye(9, dtype=complex).reshape(9, 3, 3)[[0, 1, 2, 4, 5, 8]]
    mix = np.eye(6) + 0.5 * rng.standard_normal((6, 6))
    cube = np.tensordot(mix, units, axes=1)
    cube /= np.linalg.norm(cube.reshape(6, -1), axis=1)[:, None, None]
    return list(cube * np.logspace(-6, 6, 6)[:, None, None])


def _lstsq_equilibrated(cols, rhs):
    """np.linalg.lstsq on the unit-norm columns, rescaled: on the raw
    columns (condition number ~1e12) lstsq itself is off by ~1e-6."""
    nrm = np.linalg.norm(cols, axis=0)
    return (np.linalg.lstsq(cols / nrm, rhs, rcond=None)[0].T / nrm).T


def test_coords_and_map_actions_match_lstsq_on_a_scaled_non_orthogonal_basis():
    rng = np.random.default_rng(5)
    basis = _scaled_upper_triangular_basis(rng)
    alg = SubalgebraBasis(basis)
    cols = np.array(basis).reshape(6, -1).T
    for _ in range(3):
        m = np.triu(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
        c, res = alg._coords_stack(m[None])
        assert np.allclose(c[:, 0], _lstsq_equilibrated(cols, m.ravel()), rtol=1e-10, atol=0)
        assert res[0] <= 1e-10 * np.linalg.norm(m)
    # a similarity by an invertible upper-triangular g maps the algebra to itself
    g = np.triu(rng.standard_normal((3, 3))) + 3.0 * np.eye(3)
    g_inv = np.linalg.inv(g)
    t_map = map_from_function(lambda m: g @ m @ g_inv, alg)
    images = np.array([(g @ b @ g_inv).ravel() for b in basis]).T
    assert np.allclose(t_map.action, _lstsq_equilibrated(cols, images), rtol=1e-10, atol=0)


def test_subalgebra_rejects_non_closed_span():
    # span{E_12} in M_2 is closed (E_12^2 = 0) but span{E_11 + E_12, E_22}
    # misses the product (E_11+E_12)E_22 = E_12
    e11 = np.array([[1.0, 0], [0, 0]], dtype=complex)
    e12 = np.array([[0, 1.0], [0, 0]], dtype=complex)
    e22 = np.array([[0, 0], [0, 1.0]], dtype=complex)
    with pytest.raises(InputError):
        SubalgebraBasis([e11 + e12, e22])
    SubalgebraBasis([e12])  # nilpotent line is fine


def test_subalgebra_rejects_dependent_basis():
    e11 = np.array([[1.0, 0], [0, 0]], dtype=complex)
    with pytest.raises(InputError):
        SubalgebraBasis([e11, 2 * e11])


def test_span_helpers():
    f = full_matrix_algebra(2)
    m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    assert span_contains(f.basis, m)
    d = diagonal_algebra(2)
    assert not span_contains(d.basis, m)
    assert spans_equal(f.basis, [b.copy() for b in f.basis])
    assert not spans_equal(f.basis, d.basis)


def test_spans_equal_of_an_algebra_with_itself_takes_no_rank(monkeypatch):
    f = full_matrix_algebra(2)
    monkeypatch.setattr(algebra, "_span_rank", lambda *args: pytest.fail("rank computed"))
    assert algebra._spans_equal(f, f)


def test_span_rank_ambiguity_is_refused_by_every_span_question():
    # the stack [a, a + 4e-10 c] has relative singular values (1, 2e-10),
    # inside the ambiguity window (1e-10, 1e-9] of the rank cut
    a = np.diag([1.0, 0.0]).astype(complex)
    c = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    mats = [a, a + 4e-10 * c]
    with pytest.raises(NumericError, match="span rank decision is ambiguous"):
        span_contains(mats, c)
    with pytest.raises(NumericError, match="span rank decision is ambiguous"):
        spans_equal(mats, [a])
    with pytest.raises(NumericError, match="span rank decision is ambiguous"):
        SubalgebraBasis(mats)


def test_coords_and_project():
    d = diagonal_algebra(2)
    m = np.diag([2.0, 3.0]).astype(complex)
    c, res = d._coords_stack(m[None])
    assert res[0] <= 1e-12
    assert np.allclose(c[:, 0], [2.0, 3.0], atol=1e-12)
    assert np.allclose(d._project_vecs(m.ravel()), m.ravel(), atol=1e-12)
    off = np.array([[0, 1.0], [0, 0]], dtype=complex)
    assert operator_norm(d._project_vecs(off.ravel()).reshape(2, 2)) <= 1e-12


def test_ba_generated_dimension_oracle():
    # diag(1, 2, 0): powers span a 2-dimensional algebra
    x = np.diag([1.0, 2.0, 0.0]).astype(complex)
    alg = ba(x)
    assert alg.dim == 2
    assert alg.unit is not None
    assert np.allclose(alg.unit, np.diag([1.0, 1.0, 0.0]), atol=1e-8)


@pytest.mark.parametrize("seed", [0, 1, 42])
@pytest.mark.parametrize("n", [2, 4, 8])
def test_ba_carries_its_closure_certificate(n, seed):
    """ba(x) goes through the validating constructor: its closure_residual
    is the worst product residual recomputed from its basis, not an
    unchecked 0.0, and it is small."""
    alg = ba(random_accretive(n, seed))
    cube = np.array(alg.basis)
    assert alg.closure_residual == _worst_span_residual(_pair_products(cube, cube), alg._span_q)
    assert alg.closure_residual <= 1e-10


def test_closure_check_in_blocks_is_the_one_block_check():
    """81^2 products exceed one block of 4096, so the closure residual is
    taken over two blocks of right factors: it is the worst residual of
    all products."""
    cube = np.array(full_matrix_algebra(9).basis) + 1e-3 * random_accretive(9, 5)
    q = algebra._ortho_matrices(cube[:80], 9).reshape(80, -1)  # one direction short
    whole = _worst_span_residual(_pair_products(cube, cube), q)
    assert algebra._closure_residual(cube, q) == pytest.approx(whole, rel=1e-12)
    assert whole > 0.1


def test_ba_of_zero_rejected():
    with pytest.raises(InputError):
        ba(np.zeros((2, 2), dtype=complex))


def test_ba_nilpotent_has_no_unit():
    x = np.array([[0, 1.0], [0, 0]], dtype=complex)
    alg = ba(x)
    assert alg.dim == 1
    assert alg.unit is None


def test_unit_is_read_off_the_span():
    """span{I, E12} has the unit I; span{E12} has none, and span{E11, E12}
    only a one-sided one (E11 b = b for both b, but E12 E11 = 0)."""
    e11 = np.diag([1.0, 0.0]).astype(complex)
    e12 = np.array([[0, 1.0], [0, 0]], dtype=complex)
    alg = SubalgebraBasis([np.eye(2), e12])
    assert "unit" not in vars(alg)
    assert operator_norm(alg.unit - np.eye(2)) <= 1e-12
    assert SubalgebraBasis([e12]).unit is None
    assert SubalgebraBasis([e11, e12]).unit is None


@pytest.mark.parametrize("n", [3, 5, 8])
def test_ba_unit_is_the_support_idempotent(n):
    """On accretive x, kernel blocks of dimension 0 to n - 2 included, the
    unit of ba(x) is s(x): both are the range projection."""
    for seed in range(4):
        rng = np.random.default_rng(60 + seed)
        u = random_unitary(n, rng)
        k = seed % (n - 1)
        x = np.zeros((n, n), dtype=complex)
        x[k:, k:] = random_accretive(n - k, rng) + 0.2 * np.eye(n - k)
        x = u @ x @ u.conj().T
        alg = ba(x)
        assert "unit" not in vars(alg)
        assert operator_norm(alg.unit - support_idem(x).s) <= 1e-10


@pytest.mark.parametrize("x", [
    np.diag([1.0, 2.0, 0.0]).astype(complex),
    np.array([[0, 1.0], [0, 0]], dtype=complex),
    np.eye(3, dtype=complex),
    random_accretive(4, 1),
    random_accretive(6, 2) @ np.diag([1.0, 1.0, 1.0, 0.0, 0.0, 0.0]),
], ids=["diag", "nilpotent", "unit", "accretive4", "rank3"])
def test_ba_basis_is_bitwise_the_orthonormalised_kept_powers(x):
    """ba's basis is bitwise the orthonormalisation of the normalised powers
    of x kept until the next power adds no rank."""
    xn = x / operator_norm(x)
    powers = [xn]
    while True:
        nxt = powers[-1] @ xn
        if algebra._span_rank(powers + [nxt]) == algebra._span_rank(powers):
            break
        powers.append(nxt)
    got = np.array(ba(x).basis)
    want = algebra._ortho_matrices(powers, x.shape[0])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_spans_equal_reads_the_rank_of_a_subalgebra_basis_off_its_dim(monkeypatch):
    f = full_matrix_algebra(2)
    sizes = []
    rank = algebra._span_rank
    monkeypatch.setattr(algebra, "_span_rank", lambda m: sizes.append(len(m)) or rank(m))
    x = random_accretive(2, 0) + 0.25 * np.eye(2)
    assert algebra._spans_equal(x @ np.array(f.basis), f)
    assert sizes == [4, 8]  # the stack x A and the joint stack, not A
    sizes.clear()
    assert aarnes_kadison_check(x, f).passed
    assert sizes == [4, 8] * 3


def test_support_idempotent_block_oracle():
    rng = np.random.default_rng(8)
    u = random_unitary(4, rng)
    a = random_accretive(2, rng) + 0.3 * np.eye(2)
    x = np.zeros((4, 4), dtype=complex)
    x[:2, :2] = a
    x = u @ x @ u.conj().T
    expect = u @ np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex) @ u.conj().T
    res = support_idem(x)
    assert res.method == "RieszProjection"
    assert res.agreement_residual <= 1e-6
    assert operator_norm(res.s - expect) <= 1e-8
    assert operator_norm(res.s @ x - x) <= 1e-9 * (1 + operator_norm(x))
    assert operator_norm(x @ res.s - x) <= 1e-9 * (1 + operator_norm(x))


@pytest.mark.parametrize("n", [3, 5, 8])
def test_support_idempotent_kernel_is_idempotent(n):
    """The Schur range projection yields s^2 = s and s x = x."""
    for seed in range(3):
        rng = np.random.default_rng(20 + seed)
        u = random_unitary(n, rng)
        k = 1 + seed % (n - 1)
        x = np.zeros((n, n), dtype=complex)
        x[k:, k:] = random_accretive(n - k, rng) + 0.2 * np.eye(n - k)
        x = u @ x @ u.conj().T
        res = support_idem(x)
        assert res.method == "RieszProjection"
        assert operator_norm(res.s @ res.s - res.s) <= 1e-10
        assert operator_norm(res.s @ x - x) <= 1e-9 * (1 + operator_norm(x))


def test_support_idempotent_invertible_is_unit():
    x = random_accretive(3, 3) + 0.3 * np.eye(3)
    res = support_idem(x)
    assert operator_norm(res.s - np.eye(3)) <= 1e-9


def test_support_idempotent_zero_matrix():
    res = support_idem(np.zeros((2, 2), dtype=complex))
    assert operator_norm(res.s) <= 1e-12


# the refusal of diag(1, 5e-9, 1.5e-9) and diag(1, 1e-9) by the Schur split
_SPLIT_REFUSAL = (r"zero cluster split is ambiguous: (1\.5e-09|1e-09) lies within 10x below "
                  r"the cut 1e-09 x scale 2")


def test_support_idempotent_rejects_an_unseparated_zero_cluster():
    """1.5e-9 sits in the window (2e-10, 2e-9] below the zero cut 2e-9, so
    the cut cannot tell the kernel apart; so does 1e-9 of diag(1, 1e-9)."""
    for x in (np.diag([1.0, 5e-9, 1.5e-9]), np.diag([1.0, 1e-9])):
        with pytest.raises(NumericError, match=_SPLIT_REFUSAL):
            support_idem(x.astype(complex))


def test_zero_cut_and_rank_messages_name_no_parameter():
    """The refusals name the cut value, not a parameter to pass."""
    cases = [
        lambda: support_idem(np.diag([1.0, 5e-9, 1.5e-9]).astype(complex)),
        lambda: support_idem(np.array([[1.0, 3e-5], [0.0, 0.0]], dtype=complex)),
        lambda: algebra._rank(np.array([1.0, 2e-10])),
    ]
    for call in cases:
        with pytest.raises(NumericError) as exc:
            call()
        msg = str(exc.value)
        assert "_tol" not in msg and "pass a" not in msg, msg
        assert ("zero cut 2e-09" in msg) or ("the cut 1e-09 x scale" in msg), msg


def test_support_idem_and_ws_suite_read_the_split_not_eigvals(monkeypatch):
    """Both read the zero cluster off the one Schur split of the
    deflation; an eigvals call would be a second zero decision."""
    x_inv = random_accretive(3, 5) + 0.3 * np.eye(3)
    u = random_unitary(3, 17)
    x_ker = u @ np.diag([1.0, 0.5 + 0.2j, 0.0]) @ u.conj().T
    monkeypatch.setattr(np.linalg, "eigvals",
                        lambda *a, **k: pytest.fail("eigvals called"))
    for x, gap in ((x_inv, None), (x_ker, abs(0.5 + 0.2j))):
        res = support_idem(x)
        assert res.method == "RieszProjection" and res.agreement_residual <= 1e-12
        rep = ws_suite(x, full_matrix_algebra(3))
        assert rep.passed and rep.verdicts["vi_zero_isolated"]
        if gap is not None:  # the smallest nonzero |eigenvalue|
            assert abs(rep.residuals["gap"] - gap) <= 1e-12


def test_support_idempotent_rejects_a_non_reducing_kernel():
    """Accretive within psd_tol, but the kernel couples to the range by 3e-5."""
    x = np.array([[1.0, 3e-5], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NumericError, match="not cleanly reducing"):
        support_idem(x)


def test_support_idempotent_non_normal_block_with_kernel():
    """A Jordan-like accretive block I + 1.4 N (one eigenvalue, no
    eigenbasis) beside a two-dimensional kernel: both factorisations give
    the range projection to rounding."""
    b = np.eye(3) + 1.4 * np.diag([1.0, 1.0], 1)
    for seed in range(3):
        u = random_unitary(5, seed)
        x = np.zeros((5, 5), dtype=complex)
        x[:3, :3] = b
        x = u @ x @ u.conj().T
        res = support_idem(x)
        expect = u @ np.diag([1.0, 1.0, 1.0, 0.0, 0.0]).astype(complex) @ u.conj().T
        assert operator_norm(res.s - expect) <= 1e-12
        assert res.agreement_residual <= 1e-12


def test_ws_suite_invertible_all_true():
    x = random_accretive(3, 5) + 0.3 * np.eye(3)
    rep = ws_suite(x, full_matrix_algebra(3))
    assert rep.passed
    assert rep.verdicts["i_support_in_algebra"] and rep.verdicts["iv_inner_solution"]
    assert rep.verdicts["v_invertible_in_ba"] and rep.verdicts["vi_zero_isolated"]


def test_ws_suite_kernel_instance():
    rng = np.random.default_rng(17)
    u = random_unitary(3, rng)
    a = random_accretive(2, rng) + 0.3 * np.eye(2)
    x = np.zeros((3, 3), dtype=complex)
    x[:2, :2] = a
    x = u @ x @ u.conj().T
    rep = ws_suite(x, full_matrix_algebra(3))
    assert rep.passed


def test_hsa_from_z_dimension_oracle():
    z = np.diag([0.5, 0.0]).astype(complex)
    res = hsa_from_z(z, full_matrix_algebra(2))
    assert res.report.passed
    assert res.report.details["dim_J"] == 2
    assert res.report.details["dim_D"] == 1
    assert res.report.details["dim_K"] == 2


def test_hsa_rejects_outside_F():
    z = np.diag([4.0, 0.0]).astype(complex)
    with pytest.raises(PreconditionError):
        hsa_from_z(z, full_matrix_algebra(2))


def test_supp_order_ground_truths():
    alg = full_matrix_algebra(3)
    a = np.diag([1.0, 2.0, 0.0]).astype(complex)
    b = np.diag([1.0, 1.0, 1.0]).astype(complex)
    rep = supp_order(a, b, alg)  # s(a) <= s(b) = I
    assert rep.passed and rep.verdicts["support_domination"]
    c = np.diag([0.0, 0.0, 1.0]).astype(complex)
    rep2 = supp_order(a, c, alg)  # disjoint supports
    assert rep2.passed and not rep2.verdicts["support_domination"]


def test_lump_hermitian_projection():
    p = np.diag([1.0, 1.0, 0.0]).astype(complex)
    rep = lump_check(p)
    assert rep.passed
    assert rep.verdicts["in_F"] and rep.verdicts["accretive"]


def test_lump_skew_idempotent():
    p = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    rep = lump_check(p)
    assert rep.passed
    assert not rep.verdicts["in_F"] and not rep.verdicts["accretive"]


def test_lump_near_orthogonal_boundary_verdicts_agree():
    # p = [[1, a], [0, 0]] has ||I - p|| - 1 = sqrt(1 + a^2) - 1 and
    # Hermitian-part abscissa exactly minus half of that.  Pick a so the
    # F residual lands between eq_tol and 2*psd_tol, the window where
    # raw per-face thresholds would split the verdicts.
    a = np.sqrt(3e-9)
    p = np.array([[1.0, a], [0.0, 0.0]], dtype=complex)
    rep = lump_check(p)
    f_res = rep.residuals["F_residual"]
    assert 1e-9 < f_res <= 2e-9
    assert abs(rep.residuals["r_residual"] + f_res / 2) < 1e-15
    assert rep.passed
    assert rep.verdicts["in_F"] == rep.verdicts["accretive"]


def test_lump_rejects_non_idempotent():
    with pytest.raises(Exception):
        lump_check(np.diag([2.0, 0.0]).astype(complex))


def test_aarnes_kadison_invertible():
    x = random_accretive(3, 9) + 0.3 * np.eye(3)
    rep = aarnes_kadison_check(x, full_matrix_algebra(3))
    assert rep.passed
    assert all(rep.verdicts.values())


def test_aarnes_kadison_kernel_case_consistent():
    x = np.diag([1.0, 0.0]).astype(complex)
    rep = aarnes_kadison_check(x, full_matrix_algebra(2))
    assert rep.passed
    assert not any(rep.verdicts[k] for k in ("sandwich_full", "one_sided_full", "support_is_unit"))


@pytest.mark.parametrize("n", [2, 4, 8])
@pytest.mark.parametrize("seed", [0, 1, 42])
def test_ba_equals_ba_of_f_transform(n, seed):
    """ba(x) = ba(F(x)): F(x) = x (e + x)^{-1} is a polynomial in x and x
    one in F(x)."""
    x = random_accretive(n, seed)
    assert spans_equal(ba(x), ba(f_transform(x)))


@pytest.mark.xfail(raises=NumericError, strict=True,
                   reason="the monomial power basis of ba is too ill-conditioned at n = 12: "
                          "the joint span rank lands in the zero rule's window")
@pytest.mark.parametrize("seed", [0, 1, 42])
def test_ba_equals_ba_of_f_transform_at_n12(seed):
    x = random_accretive(12, seed)
    assert spans_equal(ba(x), ba(f_transform(x)))


# per-product reference loops for the stacked certificates

def _loop_ortho(mats):
    """Orthonormal matrices spanning span(mats): SVD of the normalised
    vectorisations with the library's rank cut (10 * 1e-10 relative)."""
    n = mats[0].shape[0]
    rows = [m.ravel() / np.linalg.norm(m) if np.linalg.norm(m) > 0 else m.ravel() for m in mats]
    _, sv, vh = np.linalg.svd(np.array(rows), full_matrices=False)
    if sv[0] == 0:
        return []
    return [vh[i].reshape(n, n) for i in range(int(np.sum(sv / sv[0] >= 1e-9)))]


def _loop_span_residual(products, span):
    worst = 0.0
    for p in products:
        v = p.ravel()
        proj = sum(np.vdot(q.ravel(), v) * q.ravel() for q in span) if span else 0.0
        worst = max(worst, float(np.linalg.norm(v - proj)) / (1.0 + np.linalg.norm(v)))
    return worst


def _loop_unit_residual(s, mats):
    return max((max(operator_norm(s @ b - b), operator_norm(b @ s - b)) for b in mats),
               default=0.0)


def _loop_hsa(z, basis):
    j = _loop_ortho([z @ b for b in basis])
    d = _loop_ortho([z @ b @ z for b in basis])
    k = _loop_ortho([b @ z for b in basis])
    residuals = {
        "right_ideal": _loop_span_residual([x @ b for x in j for b in basis], j),
        "left_ideal": _loop_span_residual([b @ x for x in k for b in basis], k),
        "inner_ideal": _loop_span_residual([x @ b @ y for x in d for b in basis for y in d], d),
        "support_unit": _loop_unit_residual(support_idem(z).s, d),
    }
    verdicts = {"right_ideal": residuals["right_ideal"] <= 1e-7,
                "left_ideal": residuals["left_ideal"] <= 1e-7,
                "inner_ideal": residuals["inner_ideal"] <= 1e-7,
                "support_unit_on_core": residuals["support_unit"] <= 1e-6}
    return residuals, verdicts, {"dim_J": len(j), "dim_D": len(d), "dim_K": len(k)}


def _loop_aarnes(x, algebra):
    basis = algebra.basis
    s = support_idem(x).s
    res_unit = _loop_unit_residual(s, basis)
    scale = 1.0 + max(operator_norm(b) for b in basis)
    verdicts = {
        "sandwich_full": spans_equal([x @ b @ x for b in basis], basis),
        "one_sided_full": (spans_equal([x @ b for b in basis], basis)
                           and spans_equal([b @ x for b in basis], basis)),
        "support_is_unit": (res_unit <= 1e-7 * scale
                            and _loop_span_residual([s], _loop_ortho(basis)) <= 1e-7),
    }
    return {"support_unit": res_unit}, verdicts


def _certificate_cases():
    """(algebra, z in F) on invertible, kernel and zero inputs, in full,
    block-diagonal and upper-triangular algebras."""
    cases = []
    for n in (2, 3, 4):
        rng = np.random.default_rng(40 + n)
        u = random_unitary(n, rng)
        k = n - 1
        zb = np.zeros((n, n), dtype=complex)
        zb[:k, :k] = np.eye(k) - random_contraction(k, rng, norm=0.8)
        alg = full_matrix_algebra(n)
        cases.append((alg, np.eye(n) - random_contraction(n, rng, norm=0.8)))
        cases.append((alg, u @ zb @ u.conj().T))
    rng = np.random.default_rng(47)
    blocks = block_diag_algebra([2, 1])
    for corner in (0.5, 0.0):
        z = np.zeros((3, 3), dtype=complex)
        z[:2, :2] = np.eye(2) - random_contraction(2, rng, norm=0.8)
        z[2, 2] = corner
        cases.append((blocks, z))
    cases.append((full_matrix_algebra(3), np.zeros((3, 3), dtype=complex)))
    upper = _upper_triangular_algebra(3)
    c = np.triu(random_contraction(3, rng))
    cases.append((upper, np.eye(3) - 0.8 * c / operator_norm(c)))
    z = np.zeros((3, 3), dtype=complex)
    z[:2, :2] = [[0.6, 0.3], [0.0, 0.6]]
    cases.append((upper, z))
    return cases


def _upper_triangular_algebra(n):
    """span{E_ij : i <= j}, unital and not closed under the adjoint."""
    units = []
    for i in range(n):
        for j in range(i, n):
            e = np.zeros((n, n), dtype=complex)
            e[i, j] = 1.0
            units.append(e)
    return SubalgebraBasis(units)


@pytest.mark.parametrize("case", range(len(_certificate_cases())))
def test_stacked_certificates_match_per_product_loop(case):
    algebra, z = _certificate_cases()[case]

    # the product certificate is the oracle for the support-idempotent one
    rep = hsa_from_z(z, algebra).report
    residuals, verdicts, dims = _loop_hsa(z, algebra.basis)
    assert rep.verdicts == verdicts and rep.details == dims
    for key in ("right_ideal", "left_ideal", "inner_ideal"):
        assert residuals[key] <= 1e-7, key
    assert abs(rep.residuals["support_unit"] - residuals["support_unit"]) <= 1e-14

    rep = aarnes_kadison_check(z, algebra)
    residuals, verdicts = _loop_aarnes(z, algebra)
    assert rep.verdicts == verdicts
    assert abs(rep.residuals["support_unit"] - residuals["support_unit"]) <= 1e-14


def test_stacked_residual_helpers_match_loops():
    """Off-span products and a one-sided unit, where the residuals are
    not rounding noise."""
    rng = np.random.default_rng(48)
    left = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
    right = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    span = _loop_ortho(list(left[:2]))
    products = [l @ r for r in right for l in left]
    rows = _pair_products(left, right)
    assert np.array_equal(rows, np.array([p.ravel() for p in products]))
    for i in range(len(products)):
        assert abs(_worst_span_residual(rows[i:i + 1], np.array(span))
                   - _loop_span_residual(products[i:i + 1], span)) <= 1e-14
    assert abs(_worst_span_residual(rows, np.array(span))
               - _loop_span_residual(products, span)) <= 1e-14
    s = np.diag([1.0, 0.0, 0.0]).astype(complex)
    e12 = np.zeros((1, 3, 3), dtype=complex)
    e12[0, 0, 1] = 1.0  # s e12 = e12 but e12 s = 0
    for mats in (e12, left, e12[:0]):
        assert abs(_worst_unit_residual(s, mats) - _loop_unit_residual(s, list(mats))) <= 1e-14


@pytest.mark.parametrize("seed", range(4))
def test_screened_max_op_norm_decides_as_the_svd(seed):
    """_max_op_norm_above decides "> bound" as _max_op_norm does, and above
    the bound returns its value bitwise, on stacks straddling the bound:
    full-rank matrices, and rank-one ones whose Frobenius norm equals their
    operator norm, scaled to within a few ulps of it."""
    rng = np.random.default_rng(seed)
    n, bound = 4, 1e-7
    u = rng.standard_normal((6, n, 1)) + 1j * rng.standard_normal((6, n, 1))
    rank_one = u @ u.conj().swapaxes(1, 2)
    full = rng.standard_normal((6, n, n)) + 1j * rng.standard_normal((6, n, n))
    for mats in (rank_one, full):
        mats = mats / _max_op_norm(mats)
        for scale in bound * (1.0 + np.array([-4e-9, -1e-15, 0.0, 1e-15, 4e-9, 0.5])):
            for stack in (scale * mats, scale * mats[:1], scale * mats[:0]):
                exact, screened = _max_op_norm(stack), _max_op_norm_above(stack, bound)
                assert (screened > bound) == (exact > bound)
                if exact > bound:
                    assert screened == exact
    with pytest.raises(NumericError):
        _max_op_norm_above(np.full((1, 2, 2), np.nan), bound)


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("full", [True, False], ids=["full_rank", "half_rank"])
def test_hsa_from_z_memory_bounded(n, full):
    """The certificate holds a few (dim A, n, n) stacks, never the
    d_D^2 d_A triple products (4.3e9 of them at n = 16, full rank)."""
    rng = np.random.default_rng(5)
    k = n if full else n // 2
    z = np.zeros((n, n), dtype=complex)
    z[:k, :k] = np.eye(k) - random_contraction(k, rng, norm=0.8)
    u = random_unitary(n, rng)
    z = u @ z @ u.conj().T
    algebra = full_matrix_algebra(n)
    tracemalloc.start()
    try:
        rep = hsa_from_z(z, algebra).report
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert rep.details == {"dim_J": k * n, "dim_D": k * k, "dim_K": n * k}
    assert peak < 16 * 2**20
