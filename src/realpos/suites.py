"""Seeded verification suites behind the command-line `verify` command.

A suite is a generator (rngs, n, tol) that yields one (report, inputs)
pair per instance, drawing that instance from its own generator in rngs.
run_suite is the one loop: it seeds instance i of suite k from the stream
(seed, k, i), so reports are byte-stable for a fixed seed and instance
counts do not interact across suites; it stamps the tolerances on each
report and tags it with its suite, instance and the digest of its inputs.
A suite passes when every report in it passes.  Wall-clock timing never
enters the reports.
"""
from __future__ import annotations

import numpy as np

from . import algebra as alg_mod
from . import calculus as calc_mod
from . import cones as cones_mod
from . import maps as maps_mod
from .errors import InputError, NumericError
from .linalg import (
    Tolerances,
    _as_instance,
    _as_int,
    _norm2,
    random_accretive,
    random_contraction,
    random_idempotent,
    random_matrix,
    random_unitary,
    resolve_tol,
)
from .numrange import sectorial_angle
from .report import VerificationReport, matrix_digest

__all__ = ["SUITE_ORDER", "run_suite", "run_suites"]


def _tag(rep: VerificationReport, suite: str, i: int, seed: int, *mats) -> VerificationReport:
    """Name the report after its suite and instance; a library check has
    already digested the same mats into rep.instance."""
    rep.check = suite
    rep.instance = f"{suite}[{i}]:{rep.instance or matrix_digest(*mats)}"
    rep.seed = [int(seed), SUITE_ORDER.index(suite), int(i)]
    return rep


def suite_chaccr(rngs, n: int, tol: Tolerances):
    """Five-way accretivity characterisation coherence, on constructed
    accretive matrices and on unconstrained (possibly non-accretive) ones."""
    ctx = cones_mod.full_context(n)
    for i, rng in enumerate(rngs):
        if i % 2 == 0:
            x = random_accretive(n, rng)
        else:
            x = random_matrix(n, rng)
            if i % 4 == 1:
                x = x - 0.5 * np.eye(n)
        yield cones_mod.chaccr_verify(x, ctx, tol=tol), (x,)


def suite_bal(rngs, n: int, tol: Tolerances):
    """Quadrature power against the spectral power on accretive inputs;
    both routes share one deflation of each input."""
    for rng in rngs:
        x = random_accretive(n, rng)
        cones_mod._require_in(x, tol, "power_balakrishnan")
        d = calc_mod._Deflation(x, tol)
        residuals = {}
        verdicts = {}
        details = {}
        for r in (0.3, 0.7):
            key = f"r={r:g}"
            try:
                y, _, nodes = d.balakrishnan(r)
                dev = _norm2(y - d.shifted(r))
                residuals[key] = float(dev)
                details[f"nodes_{key}"] = nodes
                verdicts[key] = bool(dev <= 1e-6 * (1.0 + d.nrm))
            except NumericError as exc:
                verdicts[key] = False
                details[key] = str(exc)
        yield VerificationReport(check="bal", passed=all(verdicts.values()),
                                 verdicts=verdicts, residuals=residuals,
                                 details=details), (x,)


def suite_sectt(rngs, n: int, tol: Tolerances):
    """Sector transformation: angle(x^t) against the sharp and generic
    bounds, and root angles against pi/(2n).  One deflation of each input
    gives every power; the roots x^{1/2} and x^{1/4} are grid points."""
    caps = (0.3, 0.6, 0.9, 1.2, np.pi / 2 - 0.1)
    for i, rng in enumerate(rngs):
        x = random_accretive(n, rng, angle_cap=caps[i % len(caps)])
        ang = sectorial_angle(x, tol).angle
        if ang is None:
            yield VerificationReport(check="sectt", passed=False,
                                     verdicts={"angle_defined": False}), (x,)
            continue
        cones_mod._require_in(x, tol, "power_shifted")
        d = calc_mod._Deflation(x, tol)
        verdicts = {}
        residuals = {}
        # an undefined angle of x^t fails every law that reads it (residual -1.0)
        angles = {}
        for t_exp in (0.25, 0.5, 0.75):
            ay = angles[t_exp] = sectorial_angle(d.shifted(t_exp), tol).angle
            verdicts[f"sharp_t={t_exp:g}"] = bool(ay is not None and ay <= t_exp * ang + 1e-6)
            verdicts[f"generic_t={t_exp:g}"] = bool(
                ay is not None and ay <= t_exp * ang + (1.0 - t_exp) * np.pi / 2 + 1e-6)
            residuals[f"angle_t={t_exp:g}"] = -1.0 if ay is None else float(ay)
        for nn in (2, 4):
            ay = angles[1.0 / nn]
            verdicts[f"root_n={nn}"] = bool(ay is not None and ay <= np.pi / (2 * nn) + 1e-6)
            residuals[f"root_angle_n={nn}"] = -1.0 if ay is None else float(ay)
        residuals["angle"] = float(ang)
        yield VerificationReport(check="sectt", passed=all(verdicts.values()),
                                 verdicts=verdicts, residuals=residuals), (x,)


def suite_lump(rngs, n: int, tol: Tolerances):
    """Cone-membership lumping for idempotents."""
    ctx = cones_mod.full_context(n)
    for rng in rngs:
        rank = 1 + int(rng.integers(0, n))
        p = random_idempotent(n, rng, rank=rank)
        yield alg_mod.lump_check(p, ctx, tol), (p,)


def _conjugated_block(rng, n: int, sizes_filled: list) -> np.ndarray:
    """u (a_1 (+) ... (+) 0) u* with invertible accretive blocks."""
    u = random_unitary(n, rng)
    d = np.zeros((n, n), dtype=complex)
    pos = 0
    for size, fill in sizes_filled:
        if fill and size > 0:
            a = random_accretive(size, rng) + 0.25 * np.eye(size)
            d[pos:pos + size, pos:pos + size] = a
        pos += size
    return u @ d @ u.conj().T


def suite_supp3(rngs, n: int, tol: Tolerances):
    """Support-idempotent order pairs with known ground truth: nested
    supports (expected comparable) and orthogonal supports (expected not)."""
    algebra = alg_mod.full_matrix_algebra(n)
    for i, rng in enumerate(rngs):
        k1 = 1 + int(rng.integers(0, n - 1))
        u = random_unitary(n, rng)
        a = random_accretive(k1, rng) + 0.25 * np.eye(k1)
        dx = np.zeros((n, n), dtype=complex)
        dx[:k1, :k1] = a
        x = u @ dx @ u.conj().T
        expected = i % 2 == 0
        if expected:  # nested: k1 <= k2 < n, from the top corner
            start, k2 = 0, k1 + int(rng.integers(0, n - k1))
        else:  # orthogonal: 1 <= k2 <= n - k1, below the block of x
            start, k2 = k1, 1 + int(rng.integers(0, n - k1))
        b = random_accretive(k2, rng) + 0.25 * np.eye(k2)
        dy = np.zeros((n, n), dtype=complex)
        dy[start:start + k2, start:start + k2] = b
        y = u @ dy @ u.conj().T
        rep = alg_mod.supp_order(x, y, algebra, tol)
        claimed = bool(rep.verdicts.get("support_domination", False))
        rep.verdicts["matches_expected"] = claimed == expected
        rep.details["expected_leq"] = expected
        rep.passed = bool(rep.passed and rep.verdicts["matches_expected"])
        yield rep, (x, y)


def suite_ws(rngs, n: int, tol: Tolerances):
    """Support-structure equivalences on invertible, kernel, and
    block-embedded accretive instances."""
    for i, rng in enumerate(rngs):
        family = i % 3
        if family == 0:
            x = random_accretive(n, rng) + 0.25 * np.eye(n)
            algebra = alg_mod.full_matrix_algebra(n)
        elif family == 1:
            k = 1 + int(rng.integers(0, n - 1))
            x = _conjugated_block(rng, n, [(k, True), (n - k, False)])
            algebra = alg_mod.full_matrix_algebra(n)
        else:  # a (+) 0 in M_{n-1} (+) M_1
            algebra = alg_mod.block_diag_algebra([n - 1, 1])
            x = np.zeros((n, n), dtype=complex)
            x[:-1, :-1] = random_accretive(n - 1, rng) + 0.25 * np.eye(n - 1)
        yield alg_mod.ws_suite(x, algebra, tol), (x,)


def suite_decompose(rngs, n: int, tol: Tolerances):
    """Splitting of norm-bounded elements into differences of halved
    F-elements, with exact reconstruction."""
    ctx = cones_mod.full_context(n)
    for rng in rngs:
        b = random_contraction(n, rng, norm=float(rng.uniform(0.1, 0.99)))
        p, q = cones_mod.decompose_halfF(b, ctx, tol)
        rec = _norm2((p - q) - b)
        sum_res = _norm2((p + q) - np.eye(n))
        mp = cones_mod.membership(2.0 * p, ctx, tol)
        mq = cones_mod.membership(2.0 * q, ctx, tol)
        verdicts = {
            "half_F_plus": bool(mp.in_F),
            "half_F_minus": bool(mq.in_F),
            "reconstruction": bool(rec <= 1e-12 * (1.0 + _norm2(b))),
            "complementary": bool(sum_res <= 1e-12),
        }
        yield VerificationReport(
            check="decompose", passed=all(verdicts.values()), verdicts=verdicts,
            residuals={"reconstruction": float(rec), "complementary": float(sum_res),
                       "F_plus": float(mp.F_residual), "F_minus": float(mq.F_residual)},
        ), (b,)


def suite_hsa(rngs, n: int, tol: Tolerances):
    """Hereditary-piece structure generated by single accretive elements."""
    algebra = alg_mod.full_matrix_algebra(n)
    for i, rng in enumerate(rngs):
        if i % 2 == 0:
            z = np.eye(n) - random_contraction(n, rng, norm=0.8)
        else:
            k = 1 + int(rng.integers(0, n - 1))
            zk = np.eye(k) - random_contraction(k, rng, norm=0.8)
            u = random_unitary(n, rng)
            zb = np.zeros((n, n), dtype=complex)
            zb[:k, :k] = zk
            z = u @ zb @ u.conj().T
        yield alg_mod.hsa_from_z(z, algebra, tol).report, (z,)


def suite_aarnes(rngs, n: int, tol: Tolerances):
    """Sandwich / one-sided / unit-support equivalences."""
    algebra = alg_mod.full_matrix_algebra(n)
    for i, rng in enumerate(rngs):
        if i % 2 == 0:
            x = random_accretive(n, rng) + 0.25 * np.eye(n)
        else:
            k = 1 + int(rng.integers(0, n - 1))
            x = _conjugated_block(rng, n, [(k, True), (n - k, False)])
        yield alg_mod.aarnes_kadison_check(x, algebra, tol), (x,)


def _theta_q_fixture(rng, n: int):
    """Block algebra M_{n-1} (+) M_1, central idempotent q = 1 (+) 0, and
    the period-2 inner symmetry Ad(u (+) 1) fixing q."""
    a = n - 1
    algebra = alg_mod.block_diag_algebra([a, 1])
    if a == 1:
        u2 = np.array([[1.0 + 0j]])
    else:
        h = rng.standard_normal((a, a)) + 1j * rng.standard_normal((a, a))
        _, v = np.linalg.eigh(h + h.conj().T)
        signs = np.where(np.arange(a) % 2 == 0, 1.0, -1.0)
        u2 = (v * signs) @ v.conj().T
    u = np.eye(n, dtype=complex)
    u[:a, :a] = u2
    q = np.zeros((n, n), dtype=complex)
    q[:a, :a] = np.eye(a)
    theta = maps_mod.map_from_function(lambda m: u @ m @ u.conj().T, algebra)
    return theta, q, algebra


def suite_proj(rngs, n: int, tol: Tolerances):
    """Symmetric-projection construction certificates plus the
    scalar-averaging classification; details["rcp_certificate"] names the
    certificate behind the RCP verdict ("" for an undecided one)."""
    for i, rng in enumerate(rngs):
        if i == 0:
            alg2 = alg_mod.full_matrix_algebra(2)
            p_map = maps_mod.map_from_function(
                lambda m: np.trace(m) / 2.0 * np.eye(2, dtype=complex), alg2)
            cls = maps_mod.classify_projection(p_map, tol=tol)
            verdicts = {
                "symmetric": bool(cls.symmetric),
                "conditional_expectation": bool(cls.cond_exp_residual <= 1e-10),
                "rcp": bool(cls.rcp.passed),
                "contractive": bool(cls.contractive),
            }
            yield VerificationReport(
                check="proj", passed=all(verdicts.values()), verdicts=verdicts,
                residuals={"cond_exp": float(cls.cond_exp_residual),
                           "idempotent": float(cls.idempotent_residual),
                           **{f"symmetry_level_{k}": float(v)
                              for k, v in cls.symmetric_levels.items()}},
                details={"fixture": "scalar_averaging_M2",
                         "rcp_certificate": cls.rcp.certificate or ""},
            ), (p_map.action,)
            continue
        theta, q, algebra = _theta_q_fixture(rng, n)
        p_map, cert = maps_mod.build_symmetric_projection(theta, q, algebra, tol=tol)
        verdicts = {
            "idempotent": bool(cert.idempotent_residual <= 1e-9),
            "symmetry_levels": bool(all(v <= 1.0 + 1e-6
                                        for v in cert.symmetry_norms.values())),
            "rcp": bool(cert.rcp.passed),
            "range_fixed_points": bool(cert.range_is_fixed_points),
            "complement_vanishing": bool(cert.complement_vanishing <= 1e-7),
        }
        yield VerificationReport(
            check="proj", passed=bool(cert.passed and all(verdicts.values())),
            verdicts=verdicts,
            residuals={"idempotent": float(cert.idempotent_residual),
                       "complement": float(cert.complement_vanishing),
                       **{f"symmetry_level_{k}": float(v)
                          for k, v in cert.symmetry_norms.items()}},
            details={"fixture": "theta_q_block",
                     "rcp_certificate": cert.rcp.certificate or ""},
        ), (p_map.action,)


def suite_rcp(rngs, n: int, tol: Tolerances):
    """Real-complete-positivity verdicts against known ground truth:
    CP maps must pass (with the Choi certificate), the 2x2 transpose (the
    last instance when count >= 2) must fail with a certified witness at
    level 2."""
    for i, rng in enumerate(rngs):
        if 0 < i == len(rngs) - 1:  # the last of two or more: the 2x2 transpose
            t_map = maps_mod.transpose_map(2)
            v = maps_mod.rcp_test(t_map, tol=tol)
            wit_ok = (v.witness is not None and not v.passed and v.certified
                      and v.witness["out_abscissa"] <= -1e-4
                      and v.witness["in_abscissa"] >= -1e-10)
            yield VerificationReport(
                check="rcp", passed=bool(wit_ok),
                verdicts={"witness_found": bool(v.witness is not None),
                          "expected_failure": bool(not v.passed),
                          "certified": bool(v.certified)},
                residuals={} if v.witness is None else {
                    "witness_out_abscissa": float(v.witness["out_abscissa"]),
                    "witness_in_abscissa": float(v.witness["in_abscissa"])},
                details={"fixture": "transpose2",
                         "witness_level": None if v.witness is None
                         else int(v.witness["level"])},
            ), (t_map.action,)
            continue
        if i == 0:
            t_map = maps_mod.identity_map(alg_mod.full_matrix_algebra(n))
            name = "identity"
        else:
            n_ops = 1 + int(rng.integers(0, 3))
            t_map = maps_mod.map_from_kraus([random_matrix(n, rng) for _ in range(n_ops)], n)
            name = f"kraus_{n_ops}"
        v = maps_mod.rcp_test(t_map, tol=tol)
        yield VerificationReport(
            check="rcp", passed=bool(v.passed and v.certified),
            verdicts={"rcp_passed": bool(v.passed), "certified": bool(v.certified),
                      # rcp_test samples nothing; the key stays so that the
                      # verdict keys of the report do not change
                      "no_sampled_violations": True},
            details={"fixture": name, "certificate": v.certificate or ""},
        ), (t_map.action,)


_SUITES = {
    "chaccr": suite_chaccr,
    "bal": suite_bal,
    "sectt": suite_sectt,
    "lump": suite_lump,
    "supp3": suite_supp3,
    "ws": suite_ws,
    "decompose": suite_decompose,
    "hsa": suite_hsa,
    "aarnes": suite_aarnes,
    "proj": suite_proj,
    "rcp": suite_rcp,
}
SUITE_ORDER = tuple(_SUITES)


def run_suite(name: str, seed: int, count: int, n: int,
              tol: Tolerances | None = None) -> list:
    """The reports of count instances of the named suite at size n >= 2,
    instance i drawn from default_rng((seed, suite index, i))."""
    t = resolve_tol(tol)
    if _as_instance(name, str, "suite name") not in _SUITES:
        raise InputError(f"unknown suite {name!r}; expected one of "
                         f"{', '.join(SUITE_ORDER)} or all")
    count, n = _as_int(count, "count"), _as_int(n, "n", lo=2)
    seed, k = _as_int(seed, "seed", lo=0), SUITE_ORDER.index(name)
    rngs = [np.random.default_rng((seed, k, i)) for i in range(count)]
    reports = []
    for i, (rep, mats) in enumerate(_SUITES[name](rngs, n, t)):
        rep.tolerances = t.as_dict()
        reports.append(_tag(rep, name, i, seed, *mats))
    return reports


def run_suites(names, seed: int, count: int, n: int, tol: Tolerances | None = None):
    """Run the named suites in canonical order; returns (reports, all_passed)."""
    names = _as_instance(names, (list, tuple), "names")
    unknown = {_as_instance(s, str, "suite name") for s in names} - set(SUITE_ORDER) - {"all"}
    if unknown:
        raise InputError(f"unknown suites: {', '.join(sorted(unknown))}")
    reports = [rep for name in SUITE_ORDER if "all" in names or name in names
               for rep in run_suite(name, seed, count, n, tol)]
    return reports, all(r.passed for r in reports)
