"""Command-line interface: exit codes, output files, determinism."""
import numpy as np
import pytest

import realpos.cli as cli
from realpos.report import VerificationReport
from realpos.serialize import dump_json, load_json, matrix_to_obj


def _accretive_path(tmp_path, name="x.json"):
    x = np.array([[1.0, 0.5], [0.0, 2.0]], dtype=complex)
    p = tmp_path / name
    dump_json(matrix_to_obj(x), str(p))
    return str(p)


def test_nrange_writes_csv_and_svg(tmp_path, capsys):
    mp = _accretive_path(tmp_path)
    csv = tmp_path / "b.csv"
    svg = tmp_path / "b.svg"
    rc = cli.main(["nrange", mp, "--m", "64",
                   "--csv", str(csv), "--svg", str(svg)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "abscissa" in out
    assert csv.read_text().splitlines()[0] == "theta,h_theta,re,im"
    assert svg.read_text().startswith("<svg ")


def test_nrange_rank_one_psd_has_angle_zero(tmp_path, capsys):
    v = np.array([1.0, -1.0j, 0.5, 0.0])
    p = tmp_path / "p.json"
    dump_json(matrix_to_obj(np.outer(v, v.conj())), str(p))
    assert cli.main(["nrange", str(p)]) == cli.EXIT_OK
    assert "sectorial angle: 0\n" in capsys.readouterr().out


def test_nrange_segment_through_zero_has_angle_pi(tmp_path, capsys):
    # W = [-1e-10, 1]: 0 is on the boundary, not interior
    p = tmp_path / "seg.json"
    dump_json(matrix_to_obj(np.diag([1.0, -1e-10]).astype(complex)), str(p))
    assert cli.main(["nrange", str(p)]) == cli.EXIT_OK
    assert "sectorial angle: 3.14159265359\n" in capsys.readouterr().out


def test_nrange_rejects_malformed_json(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    assert cli.main(["nrange", str(p)]) == cli.EXIT_USAGE


def test_nrange_missing_file_is_usage_error(tmp_path):
    assert cli.main(["nrange", str(tmp_path / "nope.json")]) == cli.EXIT_USAGE


def test_power_cross_reports_methods(tmp_path, capsys):
    mp = _accretive_path(tmp_path)
    out = tmp_path / "p.json"
    rc = cli.main(["power", mp, "--r", "0.5", "--method", "cross",
                   "--out", str(out)])
    assert rc == 0
    obj = load_json(str(out))
    assert obj["r"] == 0.5
    assert obj["method"] == "cross"
    assert "shifted" in obj["methods_run"]
    got = np.array(obj["value"]["re"]) + 1j * np.array(obj["value"]["im"])
    x = np.array([[1.0, 0.5], [0.0, 2.0]])
    assert np.linalg.norm(got @ got - x, 2) <= 1e-8


def test_power_single_method(tmp_path):
    mp = _accretive_path(tmp_path)
    out = tmp_path / "p.json"
    rc = cli.main(["power", mp, "--r", "0.5", "--method", "shifted",
                   "--out", str(out)])
    assert rc == 0
    obj = load_json(str(out))
    assert obj["method"] == "shifted"
    assert "methods_run" not in obj


def test_power_nonaccretive_exits_precondition(tmp_path, capsys):
    x = np.diag([-1.0, 1.0]).astype(complex)
    p = tmp_path / "neg.json"
    dump_json(matrix_to_obj(x), str(p))
    assert cli.main(["power", str(p), "--r", "0.5"]) == cli.EXIT_PRECONDITION
    assert "accretive" in capsys.readouterr().err


def test_power_bad_exponent_is_usage(tmp_path):
    mp = _accretive_path(tmp_path)
    assert cli.main(["power", mp, "--r", "-0.5"]) == cli.EXIT_USAGE


def test_verify_single_suite_writes_report(tmp_path, capsys):
    rep = tmp_path / "r.json"
    rc = cli.main(["verify", "lump", "--seed", "7", "--count", "3",
                   "--n", "3", "--report", str(rep)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "lump: 3/3 passed" in out
    assert "ALL PASSED" in out
    obj = load_json(str(rep))
    assert obj["schema_version"] == "1"
    assert obj["seed"] == 7
    assert len(obj["instances"]) == 3
    assert all(i["passed"] for i in obj["instances"])


def test_verify_bad_tolerance_is_usage():
    # verify has no --tol option: reports are judged against Tolerances()
    for pair in ("nonsense=1", "eq_tol=abc", "eq_tol=1e-8"):
        assert cli.main(["verify", "lump", "--count", "1",
                         "--tol", pair]) == cli.EXIT_USAGE


def test_verify_has_no_fixture_option():
    assert cli.main(["verify", "rcp", "--count", "2",
                     "--fixture", "transpose2"]) == cli.EXIT_USAGE


def test_verify_unknown_suite_is_usage():
    assert cli.main(["verify", "nosuchsuite", "--count", "1"]) == cli.EXIT_USAGE


def test_verify_failure_exits_one_but_writes_report(tmp_path, capsys, monkeypatch):
    bad = VerificationReport(check="lump", passed=False,
                             verdicts={"in_F": False, "accretive": True},
                             residuals={}, tolerances={}, details={},
                             instance=0, seed=1)

    def fake(names, seed, count, n, tol):
        return [bad], False

    monkeypatch.setattr(cli, "run_suites", fake)
    rep = tmp_path / "r.json"
    rc = cli.main(["verify", "lump", "--count", "1", "--report", str(rep)])
    assert rc == cli.EXIT_VERIFY_FAILED
    assert "FAILED" in capsys.readouterr().out
    assert load_json(str(rep))["instances"][0]["passed"] is False


def test_random_outputs_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for kind in ("accretive", "contraction", "idempotent"):
        assert cli.main(["random", kind, "--n", "4", "--seed", "9",
                         "--out", str(a)]) == 0
        assert cli.main(["random", kind, "--n", "4", "--seed", "9",
                         "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_random_has_no_algebra_kind(tmp_path):
    assert cli.main(["random", "algebra", "--n", "3",
                     "--out", str(tmp_path / "a.json")]) == cli.EXIT_USAGE


def test_random_size_below_one_is_usage(capsys):
    assert cli.main(["random", "accretive", "--n", "0"]) == cli.EXIT_USAGE
    assert "integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["random", "accretive", "--seed", "-1"],
    ["verify", "lump", "--seed", "-1", "--n", "3", "--count", "1"],
], ids=["random", "verify"])
def test_negative_seed_is_usage(argv, capsys):
    assert cli.main(argv) == cli.EXIT_USAGE
    assert "seed must be an integer >= 0" in capsys.readouterr().err


def test_random_accretive_is_accretive(tmp_path, capsys):
    out = tmp_path / "x.json"
    assert cli.main(["random", "accretive", "--n", "5", "--seed", "3",
                     "--out", str(out)]) == 0
    from realpos.numrange import abscissa
    from realpos.serialize import read_matrix
    assert abscissa(read_matrix(str(out))) >= -1e-12


def test_no_subcommand_is_usage(capsys):
    assert cli.main([]) == cli.EXIT_USAGE


def test_help_exits_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert "realpos" in capsys.readouterr().out
