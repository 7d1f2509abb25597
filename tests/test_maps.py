"""Linear maps: Choi matrices, Kraus factors, amplification, norm
estimation, real-complete-positivity testing, symmetric projections."""
import numpy as np
import pytest

from realpos.algebra import (
    block_diag_algebra,
    diagonal_algebra,
    full_matrix_algebra,
    spans_equal,
    subalgebra,
)
from realpos.errors import InputError, PreconditionError, UnsupportedError
from realpos.linalg import operator_norm, random_matrix, random_unitary, rng_for
from realpos.maps import (
    LinearMapOnAlgebra,
    amplify,
    build_symmetric_projection,
    choi_matrix,
    classify_projection,
    identity_map,
    is_cp,
    kraus_factor,
    map_from_function,
    map_from_kraus,
    op_norm_estimate,
    rcp_test,
    transpose_map,
)
from realpos.linalg import _norm2
from realpos.maps import (
    _NORM_BUDGET,
    NormEstimate,
    _accretive_sample,
    _cb_delta,
    _cb_upper,
    _op_norm_estimates,
    _projection_uppers,
    _unit_pairing,
    map_affine_combo,
)
from realpos.numrange import abscissa
from realpos.suites import _theta_q_fixture

SWAP2 = np.array([
    [1, 0, 0, 0],
    [0, 0, 1, 0],
    [0, 1, 0, 0],
    [0, 0, 0, 1],
], dtype=complex)


def test_choi_of_transpose_is_swap():
    ch = choi_matrix(transpose_map(2))
    assert np.allclose(ch.c, SWAP2, atol=1e-14)
    assert ch.min_eig == pytest.approx(-1.0, abs=1e-12)
    assert ch.herm


def test_choi_of_identity_is_entangled_projector():
    ch = choi_matrix(identity_map(full_matrix_algebra(2)))
    # block (i,j) = E_ij: entries c[2i+k, 2j+l] = delta_{ik} delta_{jl}
    expect = np.array([
        [1, 0, 0, 1],
        [0, 0, 0, 0],
        [0, 0, 0, 0],
        [1, 0, 0, 1],
    ], dtype=complex)
    assert np.allclose(ch.c, expect, atol=1e-14)
    assert ch.min_eig >= -1e-12
    assert is_cp(identity_map(full_matrix_algebra(2))).cp


def test_choi_requires_full_domain():
    with pytest.raises(UnsupportedError):
        choi_matrix(identity_map(diagonal_algebra(2)))


def test_kraus_roundtrip_unitary_conjugation():
    u = random_unitary(3, 4)
    t_map = map_from_kraus([u], 3)
    ops, res = kraus_factor(t_map)
    assert len(ops) == 1
    assert res <= 1e-10
    # single Kraus operator recovered up to phase
    ratio = ops[0] @ np.linalg.inv(u)
    assert np.allclose(ratio, ratio[0, 0] * np.eye(3), atol=1e-8)
    assert abs(abs(ratio[0, 0]) - 1.0) <= 1e-9


def test_kraus_roundtrip_random_cp():
    rng = rng_for(12)
    ops = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
           for _ in range(2)]
    t_map = map_from_kraus(ops, 3)
    kops, res = kraus_factor(t_map)
    assert res <= 1e-8
    a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    rebuilt = sum(o.conj().T @ a @ o for o in kops)
    assert np.allclose(rebuilt, t_map.apply(a), atol=1e-8)


def test_kraus_factor_between_sizes():
    # T(a) = v^* a v from M_2 to M_3; rcp_test decides it through its Choi matrix
    rng = rng_for(1)
    v = rng.standard_normal((2, 3)) + 1j * rng.standard_normal((2, 3))
    t_map = map_from_function(lambda a: v.conj().T @ a @ v, full_matrix_algebra(2),
                              full_matrix_algebra(3))
    kops, res = kraus_factor(t_map)
    assert len(kops) == 1 and kops[0].shape == (2, 3)
    assert res <= 1e-12
    a = random_matrix(2, rng)
    assert np.allclose(kops[0].conj().T @ a @ kops[0], t_map.apply(a), atol=1e-10)
    verdict = rcp_test(t_map)
    assert verdict.passed and verdict.certificate == "choi_psd"


def test_kraus_rejects_non_cp():
    with pytest.raises(PreconditionError):
        kraus_factor(transpose_map(2))


def test_amplify_identity_and_blocks():
    t_map = identity_map(full_matrix_algebra(2))
    t2 = amplify(t_map, 2)
    assert t2.n_in == 4
    rng = rng_for(3)
    x = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert np.allclose(t2.apply(x), x, atol=1e-12)


def test_amplify_acts_blockwise():
    t_map = transpose_map(2)
    t2 = amplify(t_map, 2)
    rng = rng_for(5)
    blocks = [[rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
               for _ in range(2)] for _ in range(2)]
    x = np.block(blocks)
    y = t2.apply(x)
    expect = np.block([[blocks[i][j].T for j in range(2)] for i in range(2)])
    assert np.allclose(y, expect, atol=1e-12)


def _amplify_reference(t_map, x, k):
    """sum_ij E_ij tensor T(X_ij), block by block."""
    n = t_map.domain.n
    out = 0
    for i in range(k):
        for j in range(k):
            e = np.zeros((k, k), dtype=complex)
            e[i, j] = 1.0
            out = out + np.kron(e, t_map.apply(x[i * n:(i + 1) * n, j * n:(j + 1) * n]))
    return out


def _domain_element(alg, rng):
    coef = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    return sum(c * b for c, b in zip(coef, alg.basis))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("domain", ["full", "block21"])
def test_amplify_matches_blockwise_reference(k, domain):
    rng = rng_for(40 + k)
    if domain == "full":
        ops = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(2)]
        t_map = map_from_kraus(ops, 3)
    else:
        alg = block_diag_algebra([2, 1])
        action = rng.standard_normal((alg.dim, alg.dim)) + 1j * rng.standard_normal((alg.dim, alg.dim))
        t_map = LinearMapOnAlgebra(alg, alg, action)
    alg = t_map.domain
    x = np.block([[_domain_element(alg, rng) for _ in range(k)] for _ in range(k)])
    tk = amplify(t_map, k)
    y = tk.apply(x)
    assert np.allclose(y, _amplify_reference(t_map, x, k), atol=1e-12)
    # transpose action pairs with apply under sum(a * b)
    z = rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
    assert np.sum(tk.apply_transpose(z) * x) == pytest.approx(np.sum(z * y), abs=1e-10)
    # projection onto M_k(domain) is the domain projection of each block
    n = alg.n
    w = rng.standard_normal(x.shape) + 1j * rng.standard_normal(x.shape)
    expect = np.block([[alg.project(w[i * n:(i + 1) * n, j * n:(j + 1) * n])
                        for j in range(k)] for i in range(k)])
    assert np.allclose(tk.project(w), expect, atol=1e-12)
    assert np.allclose(tk.project(x), x, atol=1e-12)
    r = tk.random_element(rng)
    assert np.allclose(tk.project(r), r, atol=1e-12)


def test_amplify_rejects_off_span_block_and_level_zero():
    alg = block_diag_algebra([2, 1])
    t_map = identity_map(alg)
    t2 = amplify(t_map, 2)
    x = np.kron(np.eye(2), alg.unit).astype(complex)
    assert np.allclose(t2.apply(x), x, atol=1e-12)
    x[0, 2] = 1.0  # off the block-diagonal pattern in block (0, 0)
    with pytest.raises(InputError):
        t2.apply(x)
    with pytest.raises(InputError):
        amplify(t_map, 0)


def test_map_rejects_out_of_domain_input():
    d = diagonal_algebra(2)
    t_map = identity_map(d)
    with pytest.raises(InputError):
        t_map.apply(np.array([[0, 1.0], [0, 0]], dtype=complex))


def test_map_from_function_validates_codomain():
    d = diagonal_algebra(2)
    with pytest.raises(InputError):
        map_from_function(lambda m: np.array([[0, m[0, 0]], [0, 0]], dtype=complex), d)


def test_op_norm_transpose_levels():
    t_map = transpose_map(2)
    e1 = op_norm_estimate(t_map, k=1)
    assert e1.value == pytest.approx(1.0, abs=1e-9)
    e2 = op_norm_estimate(t_map, k=2)
    assert e2.value == pytest.approx(2.0, abs=1e-9)
    e3 = op_norm_estimate(t_map, k=3)
    assert 2.0 - 1e-9 <= e3.value <= 2.0 + 1e-9  # min(k, n) = 2


def test_op_norm_identity():
    t_map = identity_map(full_matrix_algebra(3))
    assert op_norm_estimate(t_map, k=2).value == pytest.approx(1.0, abs=1e-9)


def test_op_norm_scaling():
    alg = full_matrix_algebra(2)
    t_map = map_from_function(lambda m: 3.0 * m, alg)
    assert op_norm_estimate(t_map, k=1).value == pytest.approx(3.0, abs=1e-8)


def _norm_estimate_by_loop(t_map, k, budget=_NORM_BUDGET, seed=0, upper=None):
    """op_norm_estimate one start, one step and one SVD at a time: the
    reference the lockstep ascent must reproduce bitwise.  upper defaults
    to the map's own Choi bound; the unit start closes the bracket when it
    is within 2 delta of upper, and upper = inf never closes it."""
    upper = _cb_upper(t_map) if upper is None else upper
    tk = amplify(t_map, k)
    base, full, rng = t_map.domain, tk.full_domain, rng_for(seed)

    def objective(u):
        uu, sv, vvh = np.linalg.svd(tk._apply(u))
        return float(sv[0]), uu[:, 0], vvh[0].conj()

    if tk.unit is not None:
        u0 = tk.unit
    else:
        u0 = np.zeros((tk.n_in, tk.n_in), dtype=complex)
        u0[:base.n, :base.n] = base.basis[0]
    starts = [u0 / max(_norm2(u0), 1e-30)]
    unit_val = objective(starts[0])[0]
    if unit_val >= upper * (1.0 - 2.0 * _cb_delta(t_map)):
        return NormEstimate(value=unit_val, upper=upper, stationary=True,
                            iterations=0, start_index=0)
    if full and k >= 2:
        starts.append(_unit_pairing(k, base.n, swap=True))
        starts.append(_unit_pairing(k, base.n) / min(k, base.n))
    while len(starts) < 6:
        if full:
            starts.append(random_unitary(tk.n_in, rng))
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
    return NormEstimate(value=best_val, upper=upper, stationary=best_stat,
                        iterations=total_iter, start_index=best_idx)


def _scalar_averaging_p():
    return map_from_function(lambda m: np.trace(m) / 2.0 * np.eye(2, dtype=complex),
                             full_matrix_algebra(2))


def _rank_one_p():
    """P(m) = tr(m a) b with tr(b a) = 1: idempotent, not a conditional
    expectation, and its norm ascents are slow (far from stationary)."""
    rng = rng_for(5)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    b = b / np.trace(b @ a)
    return map_from_function(lambda m: np.trace(m @ a) * b, full_matrix_algebra(2))


def _projection_family(p_map):
    """P, I - P and I - 2P: one domain, so one set of ascent starts."""
    return [p_map, map_affine_combo(p_map, 1.0, -1.0), map_affine_combo(p_map, 1.0, -2.0)]


def _norm_family(kind):
    if kind == "scalar_avg":
        return _projection_family(_scalar_averaging_p())
    if kind == "rank_one":
        return _projection_family(_rank_one_p())
    if kind == "transpose2":
        return [transpose_map(2)]
    n = int(kind[-1])  # theta_q_<n>: the proj suite's CP fixture, proper domain
    p_map, _ = build_symmetric_projection(*_theta_q_fixture(rng_for(n), n), levels=(1,))
    return _projection_family(p_map)


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("kind", ["scalar_avg", "rank_one", "theta_q_3", "theta_q_4",
                                  "transpose2"])
def test_lockstep_norm_estimates_match_per_start_loop(kind, k, seed):
    family = _norm_family(kind)
    want = [_norm_estimate_by_loop(t, k, seed=seed) for t in family]
    assert all(e.value <= e.upper for e in want)
    assert _op_norm_estimates(family, k, _NORM_BUDGET, seed) == want
    assert [op_norm_estimate(t, k, seed=seed) for t in family] == want
    if len(family) == 3:  # a projection family, with the bounds its callers pass
        u_sym, u_p, u_comp = _projection_uppers(family[0], family[2])
        uppers = [u_p, u_comp, u_sym]
        want = [_norm_estimate_by_loop(t, k, seed=seed, upper=u)
                for t, u in zip(family, uppers)]
        assert _op_norm_estimates(family, k, _NORM_BUDGET, seed, uppers) == want


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("kind", ["scalar_avg", "rank_one", "theta_q_3", "theta_q_4",
                                  "transpose2"])
def test_lockstep_without_bounds_is_the_plain_ascent(kind, k):
    # upper = inf never closes a bracket: every start ascends, as before the bound
    family = _norm_family(kind)
    inf = [float("inf")] * len(family)
    want = [_norm_estimate_by_loop(t, k, seed=3, upper=u) for t, u in zip(family, inf)]
    assert _op_norm_estimates(family, k, _NORM_BUDGET, 3, inf) == want
    assert all(e.iterations > 0 for e in want)


def _close_to(bound, exact, t_map):
    return abs(bound - exact) <= 2.0 * _cb_delta(t_map) * bound


def test_cb_upper_exact_values():
    # CP maps: ||T||_cb = ||T(1)||
    for n in (3, 4):
        p_map = _norm_family(f"theta_q_{n}")[0]
        assert _close_to(_cb_upper(p_map), _norm2(p_map._apply(np.eye(n))), p_map)
    for seed, (n, n_ops) in enumerate([(3, 2), (4, 3)]):
        rng = rng_for(seed)
        ops = [random_matrix(n, rng) for _ in range(n_ops)]
        t_map = map_from_kraus(ops, n)
        assert _close_to(_cb_upper(t_map), _norm2(t_map._apply(np.eye(n))), t_map)
    # ||transpose_n||_cb = n
    for n in (2, 3, 4):
        assert _close_to(_cb_upper(transpose_map(n)), float(n), transpose_map(n))
    # the theta-q I - 2P is T1 - T2 with orthogonal Choi supports: bound 1
    for n in (3, 4):
        sym = _norm_family(f"theta_q_{n}")[2]
        assert _close_to(_cb_upper(sym), 1.0, sym)
    # scalar averaging on M_2: P, I - P, I - 2P
    for t_map, want in zip(_norm_family("scalar_avg"), (1.0, 1.5, 2.0)):
        assert _close_to(_cb_upper(t_map), want, t_map)


@pytest.mark.parametrize("domain", ["full", "block"])
def test_norm_bracket_holds_on_random_maps(domain):
    rng = rng_for(11)
    alg = full_matrix_algebra(3) if domain == "full" else block_diag_algebra([2, 1])
    for _ in range(3):
        action = (rng.standard_normal((alg.dim, alg.dim))
                  + 1j * rng.standard_normal((alg.dim, alg.dim)))
        t_map = LinearMapOnAlgebra(alg, alg, action)
        upper = _cb_upper(t_map)
        for k in (1, 2, 3):
            est = op_norm_estimate(t_map, k, budget=60)
            assert est.upper == upper
            assert est.value <= est.upper
            if est.iterations == 0:
                assert est.upper - est.value <= 2.0 * _cb_delta(t_map) * est.upper


def test_norm_bracket_closes_at_the_unit_start():
    for kind in ("theta_q_3", "theta_q_4"):
        family = _norm_family(kind)
        u_sym, u_p, u_comp = _projection_uppers(family[0], family[2])
        for k in (1, 2, 3):
            got = _op_norm_estimates(family, k, _NORM_BUDGET, 0, [u_p, u_comp, u_sym])
            assert [e.iterations for e in got] == [0, 0, 0]
            assert all(e.upper - e.value <= 2.0 * _cb_delta(family[0]) * e.upper
                       for e in got)
    # the scalar-averaging I - 2P has norm 1 < 2 = ||I - 2P||_cb at level 1
    family = _norm_family("scalar_avg")
    u_sym, u_p, u_comp = _projection_uppers(family[0], family[2])
    sym = _op_norm_estimates(family, 1, _NORM_BUDGET, 0, [u_p, u_comp, u_sym])[2]
    assert sym.iterations > 0
    assert sym.value == pytest.approx(1.0, abs=1e-9)


def test_norm_estimates_exact_values():
    # I - 2P for the scalar-averaging P is -(Ad R) o transpose: norm 1, then 2
    sym = _projection_family(_scalar_averaging_p())[2]
    assert op_norm_estimate(sym, 1).value == pytest.approx(1.0, abs=1e-9)
    assert op_norm_estimate(sym, 2).value == pytest.approx(2.0, abs=1e-9)
    # the theta-q projection is CP and unital, so ||P_k|| = ||P(1)|| = 1
    for n in (3, 4):
        p_map = _norm_family(f"theta_q_{n}")[0]
        for k in (1, 2, 3):
            assert op_norm_estimate(p_map, k).value == pytest.approx(1.0, abs=1e-9)


def test_norm_estimate_budget_edges():
    with pytest.raises(InputError, match="budget"):
        op_norm_estimate(transpose_map(2), 1, budget=0)
    # below the six starts every ascent still runs up to 3 steps: the
    # rank-one projection's I - P and I - 2P use all 3 at each start
    family = _norm_family("rank_one")
    got = _op_norm_estimates(family, 1, 1, 5)
    assert got == [_norm_estimate_by_loop(t, 1, budget=1, seed=5) for t in family]
    assert [e.iterations for e in got][1:] == [3 * 6, 3 * 6]
    assert not got[2].stationary


def test_rcp_cp_certificate():
    v = rcp_test(identity_map(full_matrix_algebra(2)), seed=3)
    assert v.passed and v.certified and v.certificate == "choi_psd"
    assert not v.sampled_violations


def test_rcp_transpose_witness():
    v = rcp_test(transpose_map(2), seed=3)
    assert not v.passed and v.certified and v.certificate == "witness"
    w = v.witness
    assert w["level"] == 2
    assert w["in_abscissa"] >= -1e-10
    assert w["out_abscissa"] <= -1e-4


def test_rcp_non_full_domain_uncertified_pass():
    # the diagonal algebra is a C*-algebra: decided exactly, certified
    v = rcp_test(identity_map(diagonal_algebra(3)), seed=1, budget=60)
    assert v.passed and v.certified and v.certificate == "choi_psd"
    # the upper-triangular algebra is not *-closed: sampling is evidence only
    e = np.eye(2, dtype=complex)
    upper = subalgebra([np.outer(e[0], e[0]), np.outer(e[0], e[1]), np.outer(e[1], e[1])],
                       unit=np.eye(2))
    v = rcp_test(identity_map(upper), seed=1, budget=60)
    assert v.passed and not v.certified and v.certificate is None


def _criterion_12_maps():
    """The identity on M_3 and the 20 seeded Kraus maps of acceptance
    criterion 12."""
    maps = [identity_map(full_matrix_algebra(3))]
    for i in range(20):
        rng = np.random.default_rng((20260816, 12, i))
        n = 2 + (i % 3)
        ops = [random_matrix(n, rng) / np.sqrt(2 * n)
               for _ in range(1 + int(rng.integers(0, 3)))]
        maps.append(map_from_kraus(ops, n))
    return maps


def _theta_q_projection(n, seed=5):
    theta, q, alg = _theta_q_fixture(rng_for(seed), n)
    p_map, _ = build_symmetric_projection(theta, q, alg, levels=(1,), seed=seed)
    return p_map


def _id_plus_transpose(beta):
    return map_from_function(lambda m: m + beta * m.T, full_matrix_algebra(2))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rcp_exact_on_theta_q_projection(n):
    v = rcp_test(_theta_q_projection(n), seed=n)
    assert v.passed and v.certified and v.certificate == "choi_psd"
    assert not v.sampled_violations


def test_rcp_exact_witness_on_block_diagonal_transpose():
    alg = block_diag_algebra([2, 1])
    t_map = map_from_function(lambda m: m.T.copy(), alg)
    v = rcp_test(t_map)
    assert not v.passed and v.certified and v.certificate == "witness"
    w = v.witness
    assert w["level"] == 3
    assert w["in_abscissa"] >= -1e-10
    assert w["out_abscissa"] <= -1e-4
    y = amplify(t_map, 3).apply(w["matrix"], check=True)
    assert abscissa(y) == pytest.approx(w["out_abscissa"], abs=1e-12)


def test_rcp_exact_witness_for_non_hermitian_choi():
    t_map = map_from_function(lambda m: 1j * m, full_matrix_algebra(2))
    assert not choi_matrix(t_map).herm
    v = rcp_test(t_map)
    assert not v.passed and v.certified and v.certificate == "witness"
    assert v.witness["level"] == 2
    assert v.witness["in_abscissa"] >= -1e-10
    assert v.witness["out_abscissa"] <= -1e-4


@pytest.mark.parametrize("beta, passed, certified", [
    (1e-10, True, True),   # Choi min eigenvalue -1e-10 is within psd_tol
    (3e-9, True, False),   # image abscissa -1.5e-9 is above the witness threshold
    (1e-6, False, True),
])
def test_rcp_near_cp_boundary(beta, passed, certified):
    v = rcp_test(_id_plus_transpose(beta))
    assert (v.passed, v.certified) == (passed, certified)
    if certified:
        assert v.certificate == ("choi_psd" if passed else "witness")


def test_rcp_verdict_is_cp_verdict_on_criterion_12_maps():
    for i, t_map in enumerate(_criterion_12_maps()):
        cp = is_cp(t_map).cp
        v = rcp_test(t_map, seed=i)
        assert v.passed == cp and v.certified == cp


def _sampled_accretivity_holds(t_map, seed):
    """The phase-1 sampler of the evidence path (20 seeded accretive
    samples per level, levels 1-3): every image abscissa is at least
    -1e-8 * (1 + ||T_k(X)||)."""
    rng = rng_for(seed)
    for k in (1, 2, 3):
        tk = amplify(t_map, k)
        for _ in range(20):
            y = tk.apply(_accretive_sample(tk, rng))
            if abscissa(y) < -1e-8 * (1.0 + operator_norm(y)):
                return False
    return True


def test_exact_rcp_passes_agree_with_sampling():
    certified = [identity_map(diagonal_algebra(3)), _id_plus_transpose(1e-10),
                 *(_theta_q_projection(n) for n in (2, 3, 4)), *_criterion_12_maps()]
    for seed, t_map in enumerate(certified):
        v = rcp_test(t_map, seed=seed)
        assert v.passed and v.certified, seed
        assert _sampled_accretivity_holds(t_map, seed), seed


def _theta_q_m2_plus_m1(seed=0):
    alg = block_diag_algebra([2, 1])
    rng = rng_for(seed)
    h = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    w, v = np.linalg.eigh(h + h.conj().T)
    u2 = (v * np.sign(w)) @ v.conj().T
    u = np.eye(3, dtype=complex)
    u[:2, :2] = u2
    q = np.diag([1.0, 1.0, 0.0]).astype(complex)
    theta = map_from_function(lambda m: u @ m @ u.conj().T, alg)
    return theta, q, alg


def test_build_symmetric_projection_cert():
    theta, q, alg = _theta_q_m2_plus_m1(7)
    p_map, cert = build_symmetric_projection(theta, q, alg, seed=2)
    assert cert.passed
    assert cert.idempotent_residual <= 1e-9
    assert all(v <= 1.0 + 1e-6 for v in cert.symmetry_norms.values())
    assert cert.rcp.passed
    assert cert.range_is_fixed_points
    assert cert.complement_vanishing <= 1e-7
    # P really averages theta on the q corner
    b = np.zeros((3, 3), dtype=complex)
    b[0, 1] = 1.0
    expect = 0.5 * (b + theta.apply(b))
    assert np.allclose(p_map.apply(b), expect, atol=1e-10)


def test_build_symmetric_projection_named_preconditions():
    theta, q, alg = _theta_q_m2_plus_m1(7)
    bad_q = np.diag([2.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(PreconditionError, match="idempotent"):
        build_symmetric_projection(theta, bad_q, alg)
    rot = np.diag([1.0, 1.0j, 1.0]).astype(complex)  # period 4, not 2
    theta4 = map_from_function(lambda m: rot @ m @ rot.conj().T, alg)
    with pytest.raises(PreconditionError, match="period-2"):
        build_symmetric_projection(theta4, q, alg)
    # theta not fixing q: swap the two blocks of a [1,1] tower
    alg2 = block_diag_algebra([1, 1])
    swap = np.array([[0, 1.0], [1.0, 0]], dtype=complex)
    theta_sw = map_from_function(lambda m: swap @ m @ swap, alg2)
    q2 = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(PreconditionError, match="fix"):
        build_symmetric_projection(theta_sw, q2, alg2)


def test_scalar_averaging_classification():
    alg = full_matrix_algebra(2)
    p_map = map_from_function(
        lambda m: np.trace(m) / 2.0 * np.eye(2, dtype=complex), alg)
    c = classify_projection(p_map, seed=4)
    assert c.symmetric
    assert not c.completely_symmetric
    # adjugate identity: I - 2P = -(Ad R) o transpose, so level 2 norm is 2
    assert c.symmetric_levels[1] == pytest.approx(1.0, abs=1e-8)
    assert c.symmetric_levels[2] == pytest.approx(2.0, abs=1e-8)
    assert c.cond_exp_residual <= 1e-10
    assert c.conditional_expectation
    assert c.rcp.passed and c.rcp.certified
    assert c.contractive
    assert c.range_product_closed
    assert c.induced_assoc_residual <= 1e-10


def test_classify_block_conditional_expectation():
    # P = compression to the diagonal of M_2: a genuine conditional
    # expectation, completely symmetric (I - 2P = Ad diag(1,-1))
    alg = full_matrix_algebra(2)
    p_map = map_from_function(lambda m: np.diag(np.diag(m)).astype(complex), alg)
    c = classify_projection(p_map, seed=4)
    assert c.completely_symmetric
    assert c.conditional_expectation
    assert c.bicontractive
    # kernel = off-diagonal span; E12 E21 = E11, so squares do not vanish
    assert not c.kernel_square_zero


def _projection_residuals_by_loop(p_map):
    """cond-exp, associativity and kernel-square residuals and range
    closure of P, one product and one application of P at a time."""
    basis = p_map.domain.basis
    p_of = [p_map.apply(b) for b in basis]
    worst_ce = worst_assoc = 0.0
    for pa in p_of:
        for b, pb in zip(basis, p_of):
            for pc in p_of:
                worst_ce = max(worst_ce, operator_norm(
                    p_map.apply(pa @ b @ pc) - pa @ pb @ pc))
                lhs = p_map.apply(p_map.apply(pa @ pb) @ pc)
                worst_assoc = max(worst_assoc, operator_norm(
                    lhs - p_map.apply(pa @ p_map.apply(pb @ pc))))
    prods = [pi @ pj for pi in p_of for pj in p_of]
    closed = spans_equal(p_of, p_of + [m for m in prods if operator_norm(m) > 1e-12])
    _, sv, vh = np.linalg.svd(p_map.action)
    kern = [sum(c * b for c, b in zip(vh[i].conj(), basis))
            for i in range(len(sv)) if sv[i] <= 1e-9 * max(1.0, sv[0])]
    worst_kernel = max((operator_norm(ki @ kj) for ki in kern for kj in kern), default=0.0)
    return worst_ce, worst_assoc, closed, worst_kernel


@pytest.mark.parametrize("kind", ["scalar_avg", "diagonal", "rank_one"])
def test_classify_projection_stacks_match_loop(kind):
    if kind == "scalar_avg":
        p_map = _scalar_averaging_p()
    elif kind == "diagonal":
        p_map = map_from_function(lambda m: np.diag(np.diag(m)).astype(complex),
                                  full_matrix_algebra(2))
    else:  # the compared residuals are far from 0
        p_map = _rank_one_p()
    c = classify_projection(p_map, levels=(1,), budget=20, seed=1)
    ce, assoc, closed, kernel = _projection_residuals_by_loop(p_map)
    assert c.cond_exp_residual == pytest.approx(ce, rel=1e-12, abs=1e-14)
    assert c.induced_assoc_residual == pytest.approx(assoc, rel=1e-12, abs=1e-14)
    assert c.range_product_closed == closed
    assert c.kernel_square_residual == pytest.approx(kernel, rel=1e-12, abs=1e-14)
    if kind == "rank_one":
        assert ce > 1e-3 and not c.conditional_expectation


def test_build_symmetric_projection_multiplicativity_matches_loop():
    # the transpose is period-2 and fixes diag(1, 0), but reverses products
    alg = full_matrix_algebra(2)
    theta = transpose_map(2)
    worst = max(operator_norm(theta.apply(bi @ bj) - theta.apply(bi) @ theta.apply(bj))
                for bi in alg.basis for bj in alg.basis)
    q = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(PreconditionError, match=f"not multiplicative: residual {worst:.3g}"):
        build_symmetric_projection(theta, q, alg)


def test_classify_rejects_non_idempotent():
    alg = full_matrix_algebra(2)
    t_map = map_from_function(lambda m: 2.0 * m, alg)
    with pytest.raises(PreconditionError):
        classify_projection(t_map)
