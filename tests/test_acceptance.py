"""Acceptance gate: thirteen end-to-end checks of the library's central
guarantees at fixed seeds, sample counts, and tolerances.

Each criterion is one test that prints a single PASS/FAIL summary line
(shown with -s, or on failure).  Instance generation uses only the
package's seeded generators, so every run checks identical matrices.
"""
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest
from scipy.special import gamma

import realpos
from realpos import (
    block_diag_algebra,
    build_symmetric_projection,
    chaccr_verify,
    choi_matrix,
    classify_projection,
    decompose_halfF,
    dist_to_point,
    f_inverse,
    f_transform,
    full_context,
    full_matrix_algebra,
    identity_map,
    kraus_factor,
    lump_check,
    map_from_function,
    map_from_kraus,
    membership,
    power_balakrishnan,
    power_series,
    power_shifted,
    random_accretive,
    random_contraction,
    random_hermitian,
    random_idempotent,
    random_matrix,
    random_unitary,
    rcp_test,
    sectorial_angle,
    supp_order,
    support_idem,
    transpose_map,
    ws_suite,
)
from realpos.errors import NumericError

SEED = 20260816
R_GRID = (0.1, 0.3, 0.5, 0.7, 0.9)


def _ok(num, passed, detail=""):
    tail = f" ({detail})" if detail else ""
    line = f"criterion {num:02d}: {'PASS' if passed else 'FAIL'}{tail}"
    print(line)
    assert passed, line


def _rng(tag, i):
    return np.random.default_rng((SEED, tag, i))


def _corner_accretive(rng, n, k, u, offset=0):
    """u (0 ⊕ A ⊕ 0) u* with A k-by-k accretive and invertible."""
    a = random_accretive(k, rng) + 0.25 * np.eye(k)
    m = np.zeros((n, n), dtype=complex)
    m[offset:offset + k, offset:offset + k] = a
    return u @ m @ u.conj().T


# --------------------------------------------------------------------------
# shared instance set for criteria 2, 3, 5
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def power_data():
    insts = []
    for i in range(200):
        n = 2 + (i % 7)  # 2..8
        rng = _rng(2, i)
        if i % 3 == 0:
            # inside the shrunken cone: e - (strict contraction), so the
            # series method is applicable alongside the other two
            x = np.eye(n) - random_contraction(
                n, rng, norm=float(rng.uniform(0.05, 0.95)))
        else:
            x = random_accretive(n, rng)
        insts.append(x)
    cache = {}

    def xr(i, r):
        key = (i, round(float(r), 12))
        if key not in cache:
            cache[key] = power_shifted(insts[i], r)
        return cache[key]

    return types.SimpleNamespace(insts=insts, cache=cache, xr=xr)


def test_criterion_01_accretivity_conditions_agree():
    t0 = time.monotonic()
    ctx = full_context(4)
    disagreements = 0
    for i in range(1000):
        rng = _rng(1, i)
        x = random_accretive(4, rng) if i < 500 else random_matrix(4, rng)
        rep = chaccr_verify(x, ctx)
        if not rep.passed:
            disagreements += 1
    elapsed = time.monotonic() - t0
    _ok(1, disagreements == 0 and elapsed < 60.0,
        f"0 disagreements on 1000 matrices, {elapsed:.1f}s")


def test_criterion_02_power_methods_coincide(power_data):
    t0 = time.monotonic()
    worst_ratio = 0.0
    series_runs = 0
    series_skips = 0
    for i, x in enumerate(power_data.insts):
        n = x.shape[0]
        nrm = float(np.linalg.norm(x, 2))
        bound = 1e-6 * (1.0 + nrm)
        in_f = float(np.linalg.norm(np.eye(n) - x, 2)) <= 1.0
        for r in R_GRID:
            vals = {"shifted": power_shifted(x, r)}
            if in_f:
                try:
                    vals["series"] = power_series(x, r)
                    series_runs += 1
                except NumericError:
                    series_skips += 1  # spectrum touches the series boundary
            vals["balakrishnan"] = power_balakrishnan(x, r)
            power_data.cache[(i, round(r, 12))] = vals["shifted"]
            names = sorted(vals)
            for a in range(len(names)):
                for b in range(a + 1, len(names)):
                    dev = float(np.linalg.norm(vals[names[a]] - vals[names[b]], 2))
                    worst_ratio = max(worst_ratio, dev / bound)
    elapsed = time.monotonic() - t0
    healthy_series = series_runs >= 100 and series_runs >= 10 * series_skips
    _ok(2, worst_ratio < 1.0 and healthy_series and elapsed < 300.0,
        f"worst deviation at {worst_ratio:.2g} of bound, "
        f"{series_runs} series runs / {series_skips} skips, {elapsed:.1f}s")


def test_criterion_03_roots_and_semigroup(power_data):
    worst_root = 0.0
    worst_semi = 0.0
    for i, x in enumerate(power_data.insts):
        nrm = float(np.linalg.norm(x, 2))
        for k in (2, 3, 4):
            y = power_data.xr(i, 1.0 / k)
            acc = y.copy()
            for _ in range(k - 1):
                acc = acc @ y
            resid = float(np.linalg.norm(acc - x, 2)) / (1e-6 * (1.0 + nrm))
            worst_root = max(worst_root, resid)
        for s in (0.25, 0.5):
            for t in (0.25, 0.5):
                if s + t > 1.0:
                    continue
                target = x if s + t == 1.0 else power_data.xr(i, s + t)
                prod = power_data.xr(i, s) @ power_data.xr(i, t)
                resid = (float(np.linalg.norm(prod - target, 2))
                         / (1e-7 * (1.0 + nrm) ** 2))
                worst_semi = max(worst_semi, resid)
    _ok(3, worst_root < 1.0 and worst_semi < 1.0,
        f"worst root residual {worst_root:.2g}, "
        f"worst semigroup residual {worst_semi:.2g} (fractions of bound)")


def test_criterion_04_power_norm_bounds():
    t_grid = tuple((k + 1) / 10 for k in range(9))
    min_slack = np.inf
    for i in range(1000):
        rng = _rng(4, i)
        n = 2 + (i % 4)
        x = random_accretive(n, rng)
        nrm = float(np.linalg.norm(x, 2))
        if nrm > 1.0:
            x = x / nrm
        for t in t_grid:
            nt = float(np.linalg.norm(power_shifted(x, t), 2))
            b_sine = np.sin(np.pi * t) / (np.pi * t * (1.0 - t))
            b_gamma = (gamma(t / 2) * gamma((1 - t) / 2)
                       / (2 * np.sqrt(np.pi) * gamma(t) * gamma(1 - t)))
            min_slack = min(min_slack, b_sine - nt, b_gamma - nt)
    _ok(4, min_slack >= -1e-8, f"min slack over both bounds {min_slack:.3g}")


def test_criterion_05_sectorial_power_law(power_data):
    worst_sharp = -np.inf
    worst_coarse = -np.inf
    for i, x in enumerate(power_data.insts):
        ax = sectorial_angle(x).angle
        assert ax is not None  # accretive: half-angle at most pi/2
        for r in R_GRID:
            at = sectorial_angle(power_data.xr(i, r)).angle
            assert at is not None
            worst_sharp = max(worst_sharp, at - (r * ax + 1e-6))
            worst_coarse = max(
                worst_coarse, at - (r * ax + (1 - r) * np.pi / 2 + 1e-6))
    worst_root = -np.inf
    for i in range(50):
        n = 2 + (i % 5)
        x = random_accretive(n, _rng(5, i))
        for nn in (2, 4, 8, 16):
            ang = sectorial_angle(power_shifted(x, 1.0 / nn)).angle
            worst_root = max(worst_root, ang - (np.pi / (2 * nn) + 1e-6))
    _ok(5, worst_sharp <= 0 and worst_coarse <= 0 and worst_root <= 0,
        f"margins: sharp {-worst_sharp:.2g}, coarse {-worst_coarse:.2g}, "
        f"roots {-worst_root:.2g}")


def test_criterion_06_f_transform_contraction():
    worst_bound = -np.inf
    worst_round = 0.0
    for i in range(500):
        rng = _rng(6, i)
        n = 2 + (i % 5)
        x = random_accretive(n, rng)
        y = f_transform(x)
        d = dist_to_point(x, -1.0)
        bound = min(1.0, 1.0 / d) + 1e-8
        gap = float(np.linalg.norm(np.eye(n) - y, 2)) - bound
        worst_bound = max(worst_bound, gap)
        back, cond = f_inverse(y)
        resid = (float(np.linalg.norm(back - x, 2))
                 / (1e-8 * (1.0 + cond)))
        worst_round = max(worst_round, resid)
    _ok(6, worst_bound <= 0 and worst_round < 1.0,
        f"contraction margin {-worst_bound:.2g}, "
        f"worst round-trip at {worst_round:.2g} of bound")


def test_criterion_07_support_idempotent():
    worst_agree = 0.0
    worst_eq = 0.0
    all_in_f = True
    for i in range(500):
        rng = _rng(7, i)
        n = 2 + (i % 5)
        if i % 2 == 0:
            x = random_accretive(n, rng)
        else:
            k = 1 + int(rng.integers(0, n))  # 1..n, kernel of dim n-k
            u = random_unitary(n, rng)
            x = _corner_accretive(rng, n, k, u)
        res = support_idem(x)
        s = res.s
        worst_agree = max(worst_agree, res.agreement_residual)
        worst_eq = max(worst_eq,
                       float(np.linalg.norm(s @ x - x, 2)),
                       float(np.linalg.norm(x @ s - x, 2)),
                       float(np.linalg.norm(s @ s - s, 2)))
        all_in_f = all_in_f and membership(s, full_context(n)).in_F
    pairs_ok = 0
    for j in range(200):
        rng = _rng(77, j)
        n = 4 + (j % 3)
        u = random_unitary(n, rng)
        alg = full_matrix_algebra(n)
        if j % 2 == 0:
            k1 = 1 + int(rng.integers(0, n - 1))
            k2 = k1 + int(rng.integers(0, n - k1 + 1))
            x = _corner_accretive(rng, n, k1, u)
            y = _corner_accretive(rng, n, max(k2, 1), u)
            expected = True
        else:
            k1 = 1 + int(rng.integers(0, n // 2))
            k2 = 1 + int(rng.integers(0, n - k1))
            x = _corner_accretive(rng, n, k1, u)
            y = _corner_accretive(rng, n, k2, u, offset=n - k2)
            expected = False
        rep = supp_order(x, y, alg)
        agree = rep.passed
        honest = rep.verdicts["support_domination"] == expected
        pairs_ok += agree and honest
    _ok(7, worst_agree < 1e-6 and worst_eq <= 1e-9 and all_in_f
        and pairs_ok == 200,
        f"agreement {worst_agree:.2g}, identities {worst_eq:.2g}, "
        f"{pairs_ok}/200 order pairs")


def test_criterion_08_support_equivalences():
    equiv_ok = 0
    gap_ok = 0
    for i in range(500):
        rng = _rng(8, i)
        n = 3 + (i % 4)
        fam = i % 3
        if fam == 0:
            x = random_accretive(n, rng) + 0.25 * np.eye(n)
            alg = full_matrix_algebra(n)
        elif fam == 1:
            k = 1 + int(rng.integers(0, n - 1))
            u = random_unitary(n, rng)
            x = _corner_accretive(rng, n, k, u)
            alg = full_matrix_algebra(n)
        else:
            k = 1 + int(rng.integers(0, n - 1))
            alg = block_diag_algebra([k, n - k])
            x = np.zeros((n, n), dtype=complex)
            x[:k, :k] = random_accretive(k, rng) + 0.25 * np.eye(k)
        rep = ws_suite(x, alg)
        v = rep.verdicts
        same = (v["i_support_in_algebra"] == v["iv_inner_solution"]
                == v["v_invertible_in_ba"])
        equiv_ok += same and rep.passed
        if v["i_support_in_algebra"]:
            lam = np.abs(np.linalg.eigvals(x))
            nonzero = lam[lam > 1e-12]
            gap_ok += v["vi_zero_isolated"] and (
                nonzero.size == 0 or float(nonzero.min()) > 1e-8)
    _ok(8, equiv_ok == 500 and gap_ok == 500,
        f"{equiv_ok}/500 equivalences, {gap_ok}/500 spectral gaps")


def test_criterion_09_idempotent_membership_equivalence():
    failures = 0
    for i in range(10_000):
        rng = _rng(9, i)
        n = 2 + (i % 5)
        p = random_idempotent(n, rng)
        if not lump_check(p).passed:
            failures += 1
    _ok(9, failures == 0, "0 equivalence failures on 10000 idempotents")


def test_criterion_10_half_cone_decomposition():
    worst_recon = 0.0
    memberships = True
    for i in range(1000):
        rng = _rng(10, i)
        n = 2 + (i % 5)
        b = random_contraction(n, rng, norm=float(rng.uniform(0.0, 0.99)))
        ctx = full_context(n)
        p, q = decompose_halfF(b, ctx)
        memberships = (memberships and membership(2 * p, ctx).in_F
                       and membership(2 * q, ctx).in_F)
        worst_recon = max(worst_recon,
                          float(np.linalg.norm((p - q) - b, 2)))
    _ok(10, memberships and worst_recon <= 1e-12,
        f"reconstruction residual {worst_recon:.2g}")


def _theta_q_fixture(rng, a, b):
    alg = block_diag_algebra([a, b])
    n = a + b
    w, v = np.linalg.eigh(random_hermitian(a, rng))
    signs = np.array([(-1.0) ** k for k in range(a)])
    ua = (v * signs) @ v.conj().T  # Hermitian unitary: period-2 symmetry
    u = np.zeros((n, n), dtype=complex)
    u[:a, :a] = ua
    u[a:, a:] = np.eye(b)
    theta = map_from_function(lambda m: u @ m @ u.conj().T, alg)
    q = np.zeros((n, n), dtype=complex)
    q[:a, :a] = np.eye(a)
    return theta, q, alg


def test_criterion_11_symmetric_projections():
    built_ok = 0
    for i in range(50):
        rng = _rng(11, i)
        a = 2 + (i % 3)
        b = 1 + (i % 2)
        theta, q, alg = _theta_q_fixture(rng, a, b)
        p_map, cert = build_symmetric_projection(theta, q, alg)
        ok = (cert.idempotent_residual <= 1e-9
              and all(cert.symmetry_norms[k] <= 1 + 1e-6 for k in (1, 2, 3))
              and cert.rcp.passed
              and cert.range_is_fixed_points)
        built_ok += ok
    alg2 = full_matrix_algebra(2)
    avg = map_from_function(
        lambda m: (np.trace(m) / 2.0) * np.eye(2, dtype=complex), alg2)
    cls = classify_projection(avg)
    _ok(11, built_ok == 50 and cls.symmetric
        and cls.cond_exp_residual <= 1e-10,
        f"{built_ok}/50 certified builds; averaging fixture symmetric, "
        f"cond-exp residual {cls.cond_exp_residual:.2g}")


def test_criterion_12_cp_and_transpose_witness():
    maps = [identity_map(full_matrix_algebra(3))]
    for i in range(20):
        rng = _rng(12, i)
        n = 2 + (i % 3)
        ops = [random_matrix(n, rng) / np.sqrt(2 * n)
               for _ in range(1 + int(rng.integers(0, 3)))]
        maps.append(map_from_kraus(ops, n))
    cp_ok = 0
    for t_map in maps:
        verdict = rcp_test(t_map)
        _, resid = kraus_factor(t_map)
        cp_ok += (verdict.passed and verdict.certified and resid <= 1e-8)
    tm = transpose_map(2)
    ch = choi_matrix(tm)
    verdict = rcp_test(tm)
    w = verdict.witness
    transpose_ok = (ch.min_eig <= -1 + 1e-9
                    and not verdict.passed
                    and w is not None
                    and w["level"] == 2
                    and w["in_abscissa"] >= -1e-10
                    and w["out_abscissa"] <= -1e-4)
    _ok(12, cp_ok == 21 and transpose_ok,
        f"{cp_ok}/21 CP maps certified; transpose Choi min eig "
        f"{ch.min_eig:.3f}, witness image abscissa "
        f"{w['out_abscissa'] if w else float('nan'):.3g}")


def test_criterion_13_cli_determinism(tmp_path):
    exe = shutil.which("realpos")
    if exe:
        base = [exe]
    else:
        # run the realpos this test imported, whether or not it is on PYTHONPATH
        src = str(Path(realpos.__file__).resolve().parents[1])
        base = [sys.executable, "-c",
                f"import sys; sys.path.insert(0, {src!r}); "
                "from realpos.cli import main; sys.exit(main())"]
    t0 = time.monotonic()
    reports = []
    for name in ("r1.json", "r2.json"):
        path = tmp_path / name
        res = subprocess.run(
            base + ["verify", "all", "--seed", "42", "--n", "4",
                    "--count", "50", "--report", str(path)],
            capture_output=True, text=True)
        assert res.returncode == 0, res.stdout + res.stderr
        reports.append(path.read_bytes())
    elapsed = time.monotonic() - t0
    _ok(13, reports[0] == reports[1] and elapsed < 600.0,
        f"two runs byte-identical ({len(reports[0])} bytes), {elapsed:.1f}s")
