"""The benchmark workloads and the checks on their outputs.

Every workload is a closed loop driven by one client: the next op starts
when the previous one has returned.  Ops come in units (a round of suite
jobs, or a cycle of single calls) whose composition is the same for every
seed, so a run that executes whole units always measures the same mix.
The seed only chooses which entries of a fixed pool of inputs are used and
in which order; every pool entry has a reference, recorded with record.py
at the commit that introduced the benchmark, against which verdicts and
residuals are compared.
"""
from __future__ import annotations

import gzip
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg as sla

from realpos import cones, numrange, calculus, algebra, suites, serialize
from realpos.linalg import Tolerances

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
SEED_BASE = 1000  # suite seeds / cycle seeds are SEED_BASE + pool index
TOL = Tolerances()


@dataclass
class Op:
    kind: str          # suite name, or public call name
    pool_index: int    # which pool entry (round or cycle) it belongs to
    slot: int          # position inside its pool entry
    args: dict = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool
    verdicts: int = 0       # verdicts compared with the reference
    mismatches: int = 0     # of those, how many differ
    drift: float = 0.0      # largest |residual - reference residual|
    note: str = ""


def load_reference(name: str) -> dict:
    with gzip.open(REFERENCE_DIR / f"{name}.json.gz", "rt", encoding="utf-8") as fh:
        return json.load(fh)


def _compare_verdicts(got: dict, ref: dict) -> int:
    keys = set(got) | set(ref)
    return sum(1 for k in keys if got.get(k) != ref.get(k))


class Workload:
    """A seed-permuted walk over a pool of units of ops.

    Subclasses define reference_key, prepare (fixtures and warm-up),
    unit_for_pool, run, check and stable_bytes.
    """

    def __init__(self, name: str, pool: int, trace_units: int):
        self.name = name
        self.pool = pool
        self.trace_units = trace_units
        self.reference = None
        self.order = None

    def setup(self, seed: int) -> None:
        """Everything before the first timed op: fixtures, warm-up, reference."""
        self.prepare()
        self.reference = load_reference(self.reference_key())
        if self.reference["pool"] < self.pool:
            raise RuntimeError(f"reference {self.reference_key()} covers too few pool entries")
        self.order = [int(i) for i in np.random.default_rng(seed).permutation(self.pool)]

    def unit(self, index: int) -> list:
        """Ops of the index-th unit of this seed's sequence."""
        return self.unit_for_pool(self.order[index % self.pool])


# ---------------------------------------------------------------------------
# verify workloads: rounds of suite jobs
# ---------------------------------------------------------------------------

class VerifyWorkload(Workload):
    """Rounds of `realpos verify`, split into one job per suite.

    A job is run_suite -> report_file_obj -> dumps_stable, exactly the
    path of the command-line `verify` command, at a fixed n and count.
    """

    def __init__(self, name: str, n: int, count: int, pool: int, trace_units: int):
        super().__init__(name, pool, trace_units)
        self.suite_names = suites.SUITE_ORDER
        self.n = n
        self.count = count

    def reference_key(self) -> str:
        return f"{self.name}-n{self.n}-c{self.count}"

    def prepare(self) -> None:
        self.tol_dict = TOL.as_dict()
        # warm-up: one count-1 job per suite, outside the pool's seed range
        for name in self.suite_names:
            suites.run_suite(name, 0, 1, self.n, TOL)

    def unit_for_pool(self, k: int) -> list:
        return [Op(kind=s, pool_index=k, slot=j) for j, s in enumerate(self.suite_names)]

    def run(self, op: Op):
        seed = SEED_BASE + op.pool_index
        reports = suites.run_suite(op.kind, seed, self.count, self.n, TOL)
        cmd = f"verify {op.kind} --seed {seed} --n {self.n} --count {self.count}"
        text = serialize.dumps_stable(serialize.report_file_obj(cmd, seed, self.tol_dict, reports))
        return reports, text

    @staticmethod
    def summarize(reports) -> list:
        """What the reference records for one job."""
        return [[bool(r.passed), {k: bool(v) for k, v in r.verdicts.items()},
                 {k: float(v) for k, v in r.residuals.items()}] for r in reports]

    def check(self, op: Op, result) -> Outcome:
        reports, _ = result
        ref = self.reference["jobs"][str(op.pool_index)][op.kind]
        got = self.summarize(reports)
        verdicts = mismatches = 0
        drift = 0.0
        for i, (ref_passed, ref_verdicts, ref_res) in enumerate(ref):
            verdicts += 1 + len(ref_verdicts)
            if i >= len(got):
                mismatches += 1 + len(ref_verdicts)
                continue
            passed, vd, res = got[i]
            mismatches += int(passed != ref_passed) + _compare_verdicts(vd, ref_verdicts)
            for key, value in ref_res.items():
                if key in res and math.isfinite(value) and math.isfinite(res[key]):
                    drift = max(drift, abs(res[key] - value))
        mismatches += max(0, len(got) - len(ref))
        ok = mismatches == 0 and all(r.passed for r in reports)
        return Outcome(ok=ok, verdicts=verdicts, mismatches=mismatches, drift=drift)

    @staticmethod
    def stable_bytes(result) -> bytes:
        return result[1].encode("utf-8")


# ---------------------------------------------------------------------------
# calls-mixed: single public calls with independent oracles
# ---------------------------------------------------------------------------

# call -> input classes it receives.  inv: invertible accretive; sing:
# accretive with a kernel (unitarily block-diagonal A (+) 0); nonacc: not
# accretive.  sectorial_angle gets no kernel inputs: its answer on them is
# wrong (README.md, "Output checks"), and every op of a workload must pass.
CALL_CLASSES = (
    ("membership", ("inv", "sing", "nonacc")),
    ("chaccr_verify", ("inv", "sing", "nonacc")),
    ("sectorial_angle", ("inv", "nonacc")),
    ("dist_to_point", ("inv", "nonacc")),
    ("boundary", ("inv", "nonacc")),
    ("power", ("inv", "sing")),
    ("power_shifted", ("inv", "sing")),
    ("f_roundtrip", ("inv", "sing")),
    ("support_idem", ("inv", "sing")),
)
CALL_SIZES = (4, 8, 16)


def _unitary(n, rng):
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diag(r)
    return q * (d / np.abs(d))


def _accretive_block(k, rng):
    """H + iK with H positive definite (eigenvalues in [0.2, 2])."""
    u = _unitary(k, rng)
    h = (u * rng.uniform(0.2, 2.0, size=k)) @ u.conj().T
    g = rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
    return h + 1j * (g + g.conj().T) / (2.0 * math.sqrt(2.0 * k))


def _embed(u, block, n):
    d = np.zeros((n, n), dtype=complex)
    k = block.shape[0]
    d[:k, :k] = block
    return u @ d @ u.conj().T


def make_input(cls: str, n: int, rng):
    """Returns (x, construction) where construction lets the oracles
    rebuild exact answers: (u, block) with x = u (block (+) 0) u*."""
    if cls == "inv":
        x = _accretive_block(n, rng)
        return x, (np.eye(n, dtype=complex), x)
    if cls == "sing":
        k = 1 + int(rng.integers(0, n - 1))
        u = _unitary(n, rng)
        block = _accretive_block(k, rng)
        return _embed(u, block, n), (u, block)
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return g / math.sqrt(2.0 * n) - 0.5 * np.eye(n), None


def _norm(m) -> float:
    return float(np.linalg.norm(m, 2))


def _herm_min(m) -> float:
    return float(np.linalg.eigvalsh((m + m.conj().T) / 2.0)[0])


def _rotated_top(x, theta):
    """Top eigenpair of Re(e^{-i theta} x), computed independently."""
    r = np.exp(-1j * theta) * x
    w, v = np.linalg.eigh((r + r.conj().T) / 2.0)
    return float(w[-1]), v[:, -1]


class CallsWorkload(Workload):
    """A stream of single public calls on seeded matrices, n in {4, 8, 16}."""

    def __init__(self, sizes, pool: int):
        super().__init__("calls-mixed", pool, trace_units=1)
        self.sizes = tuple(sizes)
        self.specs = [(call, cls, n) for call, classes in CALL_CLASSES
                      for cls in classes for n in self.sizes]
        self.ctx = {}

    def reference_key(self) -> str:
        return f"{self.name}-n{'-'.join(map(str, self.sizes))}"

    def prepare(self) -> None:
        self.ctx = {n: cones.full_context(n) for n in self.sizes}
        # warm-up: every call kind once at the smallest size
        for op in self.unit_for_pool(-1):
            if op.args["n"] == self.sizes[0]:
                self.run(op)

    def unit_for_pool(self, k: int) -> list:
        rng = np.random.default_rng((SEED_BASE, k + 1))
        ops = []
        for slot, (call, cls, n) in enumerate(self.specs):
            x, built = make_input(cls, n, rng)
            args = {"x": x, "n": n, "cls": cls, "built": built}
            if call in ("power", "power_shifted"):
                args["r"] = 0.5 if cls == "sing" else float(rng.choice([0.3, 0.7]))
            ops.append(Op(kind=call, pool_index=k, slot=slot, args=args))
        return [ops[i] for i in rng.permutation(len(ops))]

    def run(self, op: Op):
        a = op.args
        x, ctx = a["x"], self.ctx[a["n"]]
        kind = op.kind
        if kind == "membership":
            return cones.membership(x, ctx, TOL)
        if kind == "chaccr_verify":
            return cones.chaccr_verify(x, ctx, tol=TOL)
        if kind == "sectorial_angle":
            return numrange.sectorial_angle(x, TOL)
        if kind == "dist_to_point":
            return numrange.dist_to_point(x, -1.0)
        if kind == "boundary":
            return numrange.boundary(x)
        if kind == "power":
            return calculus.power(x, a["r"], ctx, TOL)
        if kind == "power_shifted":
            return calculus.power_shifted(x, a["r"], ctx, tol=TOL)
        if kind == "f_roundtrip":
            y = calculus.f_transform(x, ctx, TOL)
            return y, calculus.f_inverse(y, ctx, TOL)
        if kind == "support_idem":
            return algebra.support_idem(x, ctx, TOL)
        raise ValueError(f"unknown call {kind!r}")

    @staticmethod
    def verdicts(kind: str, out) -> dict:
        """Boolean verdicts a call returns, as the reference records them."""
        if kind == "membership":
            return {"in_F": out.in_F, "in_r": out.in_r, "boundary": out.boundary}
        if kind == "chaccr_verify":
            return {"passed": out.passed, **out.verdicts}
        if kind == "sectorial_angle":
            return {"defined": out.angle is not None}
        if kind == "dist_to_point":
            return {"positive": out > 0.0}
        if kind == "support_idem":
            return {"method_riesz": out.method == "RieszProjection"}
        return {}

    def check(self, op: Op, out) -> Outcome:
        ref = self.reference["cycles"][str(op.pool_index)][op.slot]
        vd = {k: bool(v) for k, v in self.verdicts(op.kind, out).items()}
        mismatches = _compare_verdicts(vd, ref)
        ok, note = self.oracle(op, out)
        return Outcome(ok=ok and mismatches == 0, verdicts=len(ref),
                       mismatches=mismatches, note=note)

    @staticmethod
    def oracle(op: Op, out):
        """Independent check of one call's output: (ok, reason if not ok)."""
        a = op.args
        x, n, cls = a["x"], a["n"], a["cls"]
        nx = _norm(x)
        kind = op.kind
        if kind == "membership":
            lam = _herm_min(x)
            f_res = _norm(np.eye(n) - x) - 1.0
            ok = (out.in_r == (lam >= -TOL.psd_tol)
                  and abs(out.r_residual - lam) <= 1e-9 * (1.0 + nx)
                  and abs(out.F_residual - f_res) <= 1e-9 * (1.0 + nx))
            return ok, "" if ok else "membership disagrees with eigvalsh"
        if kind == "chaccr_verify":
            accretive = _herm_min(x) >= -TOL.psd_tol
            ok = out.passed and out.verdicts["c1_abscissa"] == accretive
            return ok, "" if ok else "chaccr verdicts disagree"
        if kind == "sectorial_angle":
            ang = out.angle
            if cls == "nonacc":
                ok = ang is None or ang > math.pi / 2 - 1e-9
                return ok, "" if ok else f"angle {ang!r} <= pi/2 on a non-accretive input"
            # exact angle of the accretive block H + iK (H positive
            # definite): arctan of the largest |lambda| with K v = lambda H v
            _, block = a["built"]
            h = (block + block.conj().T) / 2.0
            k = (block - block.conj().T) / 2j
            exact = math.atan(float(np.max(np.abs(sla.eigvalsh(k, h)))))
            ok = ang is not None and abs(ang - exact) <= 1e-8
            return ok, "" if ok else f"angle {ang!r}, exact {exact}"
        if kind == "dist_to_point":
            z = -1.0 + 0j
            thetas = np.linspace(0, 2 * math.pi, 64, endpoint=False)
            lower = max(0.0, max((z * np.exp(-1j * th)).real - _rotated_top(x, th)[0]
                                 for th in thetas))
            upper = min(abs(z - v.conj() @ x @ v) for v in
                        (_rotated_top(x, th)[1] for th in thetas))
            ok = lower - 1e-9 * (1.0 + nx) <= out <= upper + 1e-9 * (1.0 + nx)
            return ok, "" if ok else f"distance {out} outside [{lower}, {upper}]"
        if kind == "boundary":
            m = out.angles.size
            ok = True
            for j in range(0, m, max(1, m // 8)):
                h, _ = _rotated_top(x, out.angles[j])
                p = out.boundary_points[j]
                ok &= abs(out.support_values[j] - h) <= 1e-9 * (1.0 + nx)
                ok &= abs((np.exp(-1j * out.angles[j]) * p).real - h) <= 1e-8 * (1.0 + nx)
            return bool(ok), "" if ok else "support values disagree with eigvalsh"
        if kind in ("power", "power_shifted"):
            r = a["r"]
            u, block = a["built"]
            root = sla.sqrtm(block) if r == 0.5 else sla.fractional_matrix_power(block, r)
            expect = _embed(u, root, n)
            err = _norm(out - expect)
            ok = err <= 1e-6 * (1.0 + nx)
            return ok, "" if ok else f"power deviates from scipy by {err:.3g}"
        if kind == "f_roundtrip":
            y, (back, cond) = out
            err = _norm(back - x)
            ok = err <= 1e-9 * cond * (1.0 + nx)
            return ok, "" if ok else f"round trip error {err:.3g} (cond {cond:.3g})"
        if kind == "support_idem":
            s = out.s
            idem = _norm(s @ s - s)
            unit = _norm(s @ x - x)
            ok = idem <= 1e-8 and unit <= 1e-7 * (1.0 + nx)
            return ok, "" if ok else f"s^2 - s = {idem:.3g}, s x - x = {unit:.3g}"
        raise ValueError(f"unknown call {kind!r}")

    def stable_bytes(self, result) -> bytes:
        return _digest_outputs(result).encode("ascii")


def _digest_outputs(obj) -> str:
    """Stable text for a call output: arrays at full precision, fields in order."""
    h = hashlib.sha256()

    def feed(o):
        if isinstance(o, np.ndarray):
            h.update(str(o.shape).encode())
            h.update(np.ascontiguousarray(o, dtype=complex).tobytes())
        elif isinstance(o, (tuple, list)):
            for item in o:
                feed(item)
        elif hasattr(o, "__dataclass_fields__"):
            for name in o.__dataclass_fields__:
                feed(getattr(o, name))
        else:
            h.update(repr(o).encode())

    feed(obj)
    return h.hexdigest()


def make_workload(name: str):
    """The workload called `name`."""
    if name == "verify-n4":
        return VerifyWorkload(name, n=4, count=3, pool=64, trace_units=2)
    if name == "calls-mixed":
        return CallsWorkload(sizes=CALL_SIZES, pool=64)
    raise KeyError(name)
