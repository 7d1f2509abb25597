#!/usr/bin/env python3
"""Record the reference verdicts and residuals the benchmark checks against.

    python3 perfbench/record.py [--workload NAME]

Runs every pool entry of each workload once on the current checkout and
writes perfbench/reference/<key>.json.gz.  Record on the commit whose
verdicts are the reference (the parent of a change under test), never on
the change itself.
"""
import argparse
import gzip
import json
import sys
import time

import run  # pins BLAS threads and locates the sources

run.import_program()
import workloads  # noqa: E402


def record(wl) -> dict:
    data = {"key": wl.reference_key(), "pool": wl.pool}
    oracle_failures = 0
    if isinstance(wl, workloads.VerifyWorkload):
        jobs = {}
        for k in range(wl.pool):
            jobs[str(k)] = {}
            for op in wl.unit_for_pool(k):
                reports, _ = wl.run(op)
                jobs[str(k)][op.kind] = wl.summarize(reports)
                if not all(r.passed for r in reports):
                    print(f"  {op.kind}[pool {k}]: a report did not pass", file=sys.stderr)
        data["jobs"] = jobs
    else:
        cycles = {}
        for k in range(wl.pool):
            ops = sorted(wl.unit_for_pool(k), key=lambda o: o.slot)
            row = []
            for op in ops:
                out = wl.run(op)
                row.append({key: bool(v) for key, v in wl.verdicts(op.kind, out).items()})
                oracle_failures += not wl.oracle(op, out)[0]
            cycles[str(k)] = row
        data["cycles"] = cycles
        print(f"  oracle failures while recording: {oracle_failures}", file=sys.stderr)
    return data


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=run.WORKLOADS, action="append")
    args = p.parse_args(argv)
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in args.workload or run.WORKLOADS:
        wl = workloads.make_workload(name)
        wl.prepare()
        t0 = time.perf_counter()
        data = record(wl)
        path = workloads.REFERENCE_DIR / f"{wl.reference_key()}.json.gz"
        with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
            fh.write(json.dumps(data, sort_keys=True).encode("utf-8"))
        print(f"{path.name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
