#!/usr/bin/env python3
"""realpos benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload verify-n4 --seed 7 --seconds 45 --trace 0

--trace 0 measures the end-to-end metrics with nothing wrapped; --trace 1
runs a fixed unit of work alternately untraced and traced and reports the
per-layer metrics.  Outputs are checked in both modes.  The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it holds run details (machine record,
tail percentile and sample count, failure notes, unscaled timings).
End-to-end timings are scaled to a reference machine speed (calibration_s).

The program is imported from src/ next to this directory and nowhere
else; without it the command exits with an error and prints no result.
"""
import os
import sys

# BLAS pinned to one thread in this process and every process it starts:
# the matrices are small, and timings must not depend on free cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("REALPOS_DEFAULT_TOL", None)  # the references use default tolerances

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("verify-n4", "calls-mixed")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60
# Seconds one calibration pass takes at the reference speed: the median on
# the 2-vCPU x86_64 machine the benchmark was defined on.  See calibration_s.
CAL_REF_S = 0.022

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.tail": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
    "verdict_match_frac": "fraction",
    "report_bytes_stable": "bool",
}


def import_program():
    """Import realpos from this checkout's src/ and nowhere else."""
    if not (SRC / "realpos" / "__init__.py").is_file():
        raise SystemExit(f"error: realpos sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    import realpos
    if Path(realpos.__file__).resolve().parent != (SRC / "realpos").resolve():
        raise SystemExit(f"error: realpos was imported from {realpos.__file__}, not {SRC}")
    return realpos


def machine_record() -> dict:
    import numpy as np
    import scipy
    try:
        cfg = np.show_config(mode="dicts")
        info = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = {k: info.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, AttributeError):
        blas = {"name": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "sched_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "machine": platform.machine(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def tail_of(values):
    """(value, percentile): the highest percentile with at least ten samples
    beyond it.  With fewer than 21 samples no percentile above the median
    qualifies, and the maximum is reported as percentile 100."""
    xs = sorted(values)
    n = len(xs)
    if n >= 21:
        i = n - 11
        return xs[i], 100.0 * (i + 1) / n
    return xs[-1], 100.0


def calibration_s() -> float:
    """Seconds one pass of a fixed kernel takes now.

    The kernel mixes what the workloads spend their time on, small complex
    eigen- and singular-value solves and interpreted Python, and calls
    nothing of realpos, so no change to the program moves it.  The shared
    machine's speed drifts by up to a factor of two over minutes; every
    timing is multiplied by CAL_REF_S over the calibration time measured
    next to it, which reports it at the reference speed."""
    import numpy as np
    rng = np.random.default_rng(20261018)
    mats = []
    for n in (4, 8, 16, 4, 8, 16):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats.append(g + 3.0 * n * np.eye(n))
    t0 = time.perf_counter()
    for _ in range(48):
        acc = 0.0
        for m in mats:
            acc += float(np.linalg.eigvalsh(m + m.conj().T)[0])
            acc += float(np.linalg.svd(m, compute_uv=False)[0])
            acc += abs(np.linalg.solve(m, m[:, 0])[0])
        table = {}
        for i in range(1500):
            table[i % 97] = table.get(i % 97, 0.0) + acc
    return time.perf_counter() - t0


class Tally:
    """Output checks, applied to each op as soon as it returns."""

    def __init__(self):
        self.attempted = self.failed = self.verdicts = self.mismatches = 0
        self.drift = 0.0
        self.notes = {}  # "<call>/<input class>" or suite -> count and an example

    def add(self, wl, op, result, error) -> None:
        self.attempted += 1
        if error is None:
            oc = wl.check(op, result)
            self.verdicts += oc.verdicts
            self.mismatches += oc.mismatches
            self.drift = max(self.drift, oc.drift)
            if oc.ok:
                return
            error = oc.note or f"{oc.mismatches} verdict mismatches or a failed report"
        self.failed += 1
        group = self.notes.setdefault("/".join(filter(None, (op.kind, op.args.get("cls")))),
                                      {"count": 0, "example": error})
        group["count"] += 1


def run_unit(wl, ops, tally=None, tracer=None, unit_digest=None):
    """Run ops back to back and return the seconds each took.  Only the call
    itself is timed; its output is checked (tally) and folded into
    unit_digest after the clock stops, and is not kept."""
    seconds = []
    clock = time.perf_counter
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        t0 = clock()
        try:
            result, error = wl.run(op), None
        except Exception as exc:  # a failed op is counted and the loop goes on
            result, error = None, "".join(traceback.format_exception_only(type(exc), exc)).strip()
        seconds.append(clock() - t0)
        if tally is not None:
            tally.add(wl, op, result, error)
        if unit_digest is not None:
            unit_digest.update(f"{op.kind}:{op.slot}:".encode())
            unit_digest.update(wl.stable_bytes(result) if error is None else error.encode())
    return seconds


# ---------------------------------------------------------------------------
# set-up probes: fresh interpreters timed from start to the first op
# ---------------------------------------------------------------------------

def probe(args) -> int:
    """Child side: set up, report READY, optionally rerun the first unit."""
    import_program()
    import workloads
    wl = workloads.make_workload(args.workload)
    wl.setup(args.seed)
    print("READY", flush=True)
    if args.recheck:
        unit_digest = hashlib.sha256()
        run_unit(wl, wl.unit(0), unit_digest=unit_digest)
        print(unit_digest.hexdigest(), flush=True)
    return 0


def run_probes(args):
    """Returns (set-up seconds of each probe at the reference speed,
    first-unit digest from the last)."""
    times, recheck = [], None
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--probe", "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds)]
        last = i == SETUP_PROBES - 1
        cmd += ["--recheck"] if last else []
        cal_before = calibration_s()
        t0 = time.perf_counter()
        # unbuffered, so communicate() below sees everything readline() left
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, bufsize=0) as proc:
            try:
                first = proc.stdout.readline()
                t1 = time.perf_counter()
                rest, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise SystemExit("error: set-up probe timed out")
        if proc.returncode != 0 or first.strip() != b"READY":
            raise SystemExit(f"error: set-up probe failed (exit {proc.returncode})")
        scale = CAL_REF_S / ((cal_before + calibration_s()) / 2)
        times.append((t1 - t0) * scale)
        if last:
            recheck = rest.decode().strip()
    return times, recheck


# ---------------------------------------------------------------------------
# the two modes
# ---------------------------------------------------------------------------

def measure(args, wl, main_setup_s):
    """Untraced run: whole units until the time is (about) used up.  Each
    unit's inputs are built before its first op, and outputs are checked
    after each op's clock stops, so neither counts as op time.  A
    calibration pass before the first unit and after every unit gives the
    scale for the op times of the unit between them."""
    times, recheck = run_probes(args)
    tally = Tally()
    first_unit = hashlib.sha256()
    lat_ms, by_kind = [], {}
    raw_s = 0.0
    cal = [calibration_s()]
    units = 0
    t_start = time.perf_counter()
    while True:
        ops = wl.unit(units)
        seconds = run_unit(wl, ops, tally, unit_digest=first_unit if units == 0 else None)
        cal.append(calibration_s())
        scale = CAL_REF_S / ((cal[-2] + cal[-1]) / 2)
        raw_s += sum(seconds)
        for op, sec in zip(ops, seconds):
            lat_ms.append(sec * scale * 1e3)
            by_kind.setdefault(op.kind, []).append(sec * scale * 1e3)
        units += 1
        wall = time.perf_counter() - t_start
        # stop where the end lands closest to the requested length
        if wall + 0.5 * wall / units >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    stable = recheck == first_unit.hexdigest()

    busy_s = sum(lat_ms) / 1e3
    tail, tail_pct = tail_of(lat_ms)
    n = tally.attempted
    metrics = {
        "setup_s": statistics.median(times),
        "ops_per_s": n / busy_s,
        "op_ms.p50": statistics.median(lat_ms),
        "op_ms.tail": tail,
        "ok_frac": (n - tally.failed) / n,
        "peak_rss_mb": peak_rss_mb,
        "verdict_match_frac": (1.0 - tally.mismatches / tally.verdicts
                               if tally.verdicts else 1.0),
        "report_bytes_stable": 1 if stable else 0,
    }
    details = {
        "units": units, "samples": n, "op_s": busy_s, "wall_s": wall,
        "raw_op_s": raw_s, "raw_ops_per_s": n / raw_s,
        "calibration_s": {"median": statistics.median(cal), "min": min(cal), "max": max(cal)},
        "tail_percentile": tail_pct, "setup_probe_s": times, "main_setup_s": main_setup_s,
        "op_ms_p50_by_kind": {k: statistics.median(v) for k, v in sorted(by_kind.items())},
        "failures": tally.notes, "verdicts_compared": tally.verdicts,
        "residual_drift_max": tally.drift,
        "first_unit_digest": {"fresh_process": recheck, "this_process": first_unit.hexdigest()},
    }
    result = {
        "correct": tally.failed == 0 and stable,
        "attempted": n,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()},
    }
    return details, result


def traced(args, wl):
    """Traced run: one fixed unit of work, alternately untraced and traced."""
    import tracer as tracer_mod

    ops = [op for u in range(wl.trace_units) for op in wl.unit(u)]
    tr = tracer_mod.Tracer()
    tally = Tally()
    plain_s, traced_s, summaries, suite_s = [], [], [], []
    t_start = time.perf_counter()
    while True:
        seconds = run_unit(wl, ops, tally)
        plain_s.append(sum(seconds))
        per_suite = {}
        for op, sec in zip(ops, seconds):
            per_suite[op.kind] = per_suite.get(op.kind, 0.0) + sec
        suite_s.append(per_suite)

        tr.reset()
        tr.install()
        try:
            traced_s.append(sum(run_unit(wl, ops, tally, tracer=tr)))
        finally:
            tr.uninstall()
        summaries.append(tr.summary())
        if len(summaries) == 1:
            OUT_DIR.mkdir(exist_ok=True)
            tr.save_spans(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz")
        if time.perf_counter() - t_start >= args.seconds:
            break

    first = summaries[0]
    counters = [k for k in first if not k.endswith(".self_s")]
    repeatable = all(s[k] == first[k] for s in summaries for k in counters)

    metrics = {}
    for k in first:
        if k.endswith(".self_s"):
            metrics[k] = (statistics.median(s[k] for s in summaries), "s")
        elif k.endswith(("_frac", "_ratio")):
            metrics[k] = (first[k], "ratio")
        else:
            metrics[k] = (first[k], "count")
    from realpos.suites import SUITE_ORDER
    for name in SUITE_ORDER:
        metrics[f"suites.{name}.s"] = (statistics.median(s.get(name, 0.0) for s in suite_s), "s")
    metrics["suites.residual_drift_max"] = (tally.drift, "residual")
    plain_rate = len(ops) / statistics.median(plain_s)
    traced_rate = len(ops) / statistics.median(traced_s)
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_frac"] = ((plain_rate - traced_rate) / plain_rate, "ratio")

    details = {
        "passes": len(summaries), "ops_per_pass": len(ops),
        "untraced_pass_s": plain_s, "traced_pass_s": traced_s,
        "counts_repeat": repeatable, "failures": tally.notes,
        "verdicts_compared": tally.verdicts, "verdict_mismatches": tally.mismatches,
    }
    result = {
        "correct": tally.failed == 0 and repeatable,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return details, result


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--recheck", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.probe:
        return probe(args)
    t0 = time.perf_counter()
    import_program()
    import workloads
    wl = workloads.make_workload(args.workload)
    wl.setup(args.seed)
    main_setup_s = time.perf_counter() - t0
    if args.trace:
        details, result = traced(args, wl)
    else:
        details, result = measure(args, wl, main_setup_s)
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "machine": machine_record(), **details}
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
