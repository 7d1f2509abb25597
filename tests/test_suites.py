"""Verification suites: every suite passes at small scale, runs are
deterministic, and option validation is enforced."""
from types import SimpleNamespace

import numpy as np
import pytest

from realpos import calculus, suites
from realpos.errors import InputError, NumericError, PreconditionError
from realpos.report import matrix_digest
from realpos.serialize import dumps_stable, report_file_obj
from realpos.suites import SUITE_ORDER, run_suite, run_suites


# n = 2 is the smallest size run_suite admits; the n = 3 ids are the bare names
@pytest.mark.parametrize("name, n", [
    pytest.param(name, n, id=name if n == 3 else f"{name}-n{n}")
    for n in (3, 2) for name in SUITE_ORDER])
def test_each_suite_passes_small(name, n):
    reports = run_suite(name, seed=11, count=4, n=n)
    assert len(reports) == 4
    for rep in reports:
        assert rep.check == name
        assert rep.passed, (name, rep.instance, rep.verdicts, rep.residuals)


def test_runs_are_deterministic():
    def snapshot():
        reports, ok = run_suites(["chaccr", "supp3"], seed=5, count=3, n=3)
        assert ok
        return dumps_stable(report_file_obj("verify", 5, {}, reports))

    assert snapshot() == snapshot()


def test_all_expands_in_declared_order():
    reports, ok = run_suites(["all"], seed=1, count=1, n=3)
    assert ok
    assert [r.check for r in reports] == list(SUITE_ORDER)


def test_supp3_exercises_both_answers():
    reports = run_suite("supp3", seed=0, count=6, n=4)
    answers = {rep.verdicts["support_domination"] for rep in reports}
    assert answers == {True, False}
    assert all(rep.passed for rep in reports)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_proj_rcp_is_decided_by_choi_certificate(n):
    reports = run_suite("proj", seed=3, count=3, n=n)
    assert [rep.details["rcp_certificate"] for rep in reports] == ["choi_psd"] * 3


def test_transpose_fixture_only_with_rcp_alone():
    # the last rcp instance of two or more is the 2x2 transpose, which must
    # fail with a certified witness at level 2; a single instance is the identity
    reports, ok = run_suites(["rcp"], seed=0, count=2, n=2)
    assert ok and len(reports) == 2
    last = reports[-1]
    assert last.details["fixture"] == "transpose2"
    assert last.verdicts == {"witness_found": True, "expected_failure": True,
                             "certified": True}
    assert last.details["witness_level"] == 2
    assert [r.details["fixture"] for r in run_suite("rcp", seed=0, count=1, n=2)] == [
        "identity"]


def test_bad_options_rejected():
    with pytest.raises(InputError):
        run_suite("nosuch", seed=0, count=1, n=3)
    with pytest.raises(InputError):
        run_suite("lump", seed=0, count=0, n=3)
    with pytest.raises(InputError):
        run_suite("lump", seed=0, count=1, n=1)
    # refused, not read as 1 (True) nor left to fail with a bare TypeError (2.5)
    for count, n in ((True, 4), (2.5, 4), ("2", 4), (1, 2.5), (1, True)):
        with pytest.raises(InputError, match="integer"):
            run_suite("lump", 0, count, n)


@pytest.mark.parametrize("seed", [-1, 2.5, True, "3", None, np.random.default_rng(0)],
                         ids=["negative", "float", "bool", "str", "none", "generator"])
def test_seeds_that_are_not_integers_at_least_zero_are_refused(seed):
    with pytest.raises(InputError, match="seed must be an integer >= 0"):
        run_suite("lump", seed, 1, 3)


def test_numpy_integer_seed_is_the_int_seed():
    a = dumps_stable(report_file_obj("verify", 7, {}, run_suite("lump", np.int64(7), 2, 3)))
    b = dumps_stable(report_file_obj("verify", 7, {}, run_suite("lump", 7, 2, 3)))
    assert a == b


@pytest.mark.parametrize("name", SUITE_ORDER)
def test_instance_id_is_the_digest_of_the_tagged_matrices(name, monkeypatch):
    """A library check's own instance digest is reused; it must be the
    digest of the matrices the suite tags the report with."""
    tag = suites._tag
    seen = []

    def checked(rep, suite, i, seed, *mats):
        out = tag(rep, suite, i, seed, *mats)
        seen.append((out.instance, f"{suite}[{i}]:{matrix_digest(*mats)}"))
        return out

    monkeypatch.setattr(suites, "_tag", checked)
    run_suite(name, seed=3, count=3, n=3)
    assert len(seen) == 3
    for got, want in seen:
        assert got == want


def test_bal_reports_a_failed_deflation_per_exponent(monkeypatch):
    def fail(*args):
        raise NumericError("zero eigenvalue cluster is not cleanly reducing")

    monkeypatch.setattr(calculus, "_split_zero_cluster", fail)
    for rep in run_suite("bal", seed=3, count=2, n=3):
        assert not rep.passed and rep.residuals == {}
        assert rep.verdicts == {"r=0.3": False, "r=0.7": False}
        assert rep.details == {key: "zero eigenvalue cluster is not cleanly reducing"
                               for key in ("r=0.3", "r=0.7")}


def test_bal_records_the_accepted_node_count_per_exponent():
    for rep in run_suite("bal", seed=3, count=2, n=3):
        assert rep.passed
        assert rep.details == {"nodes_r=0.3": 64, "nodes_r=0.7": 64}


def test_sectt_fails_an_undefined_angle_of_a_power(monkeypatch):
    inputs = []
    real_accretive, real_angle = suites.random_accretive, suites.sectorial_angle

    def accretive(n, rng, **kw):
        inputs.append(real_accretive(n, rng, **kw))
        return inputs[-1]

    def angle(x, tol):  # defined on the inputs, undefined on their powers
        return real_angle(x, tol) if x is inputs[-1] else SimpleNamespace(angle=None)

    monkeypatch.setattr(suites, "random_accretive", accretive)
    monkeypatch.setattr(suites, "sectorial_angle", angle)
    for rep in run_suite("sectt", seed=3, count=2, n=3):
        assert not rep.passed and not any(rep.verdicts.values())
        assert len(rep.verdicts) == 8
        assert {k: v for k, v in rep.residuals.items() if k != "angle"} == {
            **{f"angle_t={t:g}": -1.0 for t in (0.25, 0.5, 0.75)},
            **{f"root_angle_n={nn}": -1.0 for nn in (2, 4)}}
        assert rep.residuals["angle"] >= 0.0


def test_bal_propagates_a_non_accretive_input(monkeypatch):
    monkeypatch.setattr(suites, "random_accretive", lambda n, rng: -np.eye(n, dtype=complex))
    with pytest.raises(PreconditionError):
        run_suite("bal", seed=3, count=1, n=3)
