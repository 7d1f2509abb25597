"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload, in the configuration the benchmark measures, for one
second (a single unit of work) untraced and traced (twice, same seed)
against the same references as a full run, and checks the
output contract: the last line is one JSON object with exactly the keys
correct, attempted, failed and metrics; every metric printed is declared
in BENCHMARK.json with the same unit, and every declared metric is
printed; names match [A-Za-z0-9_.-]+; traced call counts repeat exactly.
"""
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int) and 0 <= result["failed"] <= result["attempted"]
    return json.loads(lines[-2]), result


def declared(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_are_well_formed():
    names = [w["name"] for w in SPEC["workloads"]]
    names += list(declared("end_to_end")) + list(declared("per_layer"))
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert "setup_s" in declared("end_to_end")


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_contract(workload):
    details, plain = result_of(bench(workload, 0))
    got = {k: v["unit"] for k, v in plain["metrics"].items()}
    assert got == declared("end_to_end")
    assert all(isinstance(v["value"], (int, float)) for v in plain["metrics"].values())
    assert plain["metrics"]["verdict_match_frac"]["value"] == 1.0
    assert plain["metrics"]["report_bytes_stable"]["value"] == 1
    assert plain["correct"] and plain["failed"] == 0, details["failures"]

    runs = [result_of(bench(workload, 1)) for _ in range(2)]
    for _, traced in runs:
        assert {k: v["unit"] for k, v in traced["metrics"].items()} == declared("per_layer")
    counts = [{k: v["value"] for k, v in r["metrics"].items()
               if k.endswith((".calls", ".errors"))} for _, r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["linalg.as_matrix.calls"] > 0
    if workload == "calls-mixed":
        assert all(v == 0 for k, v in counts[0].items() if k.startswith("maps."))


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(SPEC["workloads"][0]["name"], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
