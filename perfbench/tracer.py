"""Per-layer tracing from outside the realpos package.

The package's modules import each other's functions by name (for
example `from .linalg import operator_norm` in calculus, cones and
maps), so wrapping a function only where it is defined would miss every
internal call.  Tracer.install() therefore rebinds the wrapper under
every name, in every realpos module namespace, that holds the original
function; the SubalgebraBasis constructor is wrapped on the class itself.
uninstall() restores the originals.

Each wrapped call records a span (target, start, end, parent span, op
id) in memory.  Self time is a span's duration minus the time covered by
its direct child spans.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np

from realpos.errors import RealposError

# realpos module -> traced functions; metrics are named <module>.<function>.<stat>
TARGETS = {
    "linalg": ("as_matrix", "operator_norm", "herm_part", "matrix_exp"),
    "numrange": ("sectorial_angle", "dist_to_point", "boundary", "abscissa",
                 "support_function"),
    "cones": ("membership", "chaccr_verify", "decompose_halfF"),
    "calculus": ("power_series", "power_shifted", "power_balakrishnan",
                 "power_all_methods", "f_transform", "f_inverse"),
    "algebra": ("SubalgebraBasis", "span_contains", "spans_equal", "support_idem",
                "hsa_from_z", "ws_suite", "supp_order", "aarnes_kadison_check",
                "lump_check"),
    "maps": ("amplify", "choi_matrix", "op_norm_estimate", "rcp_test",
             "build_symmetric_projection", "classify_projection"),
    "serialize": ("dumps_stable", "report_file_obj"),
    "report": ("matrix_digest",),
}


def target_names() -> list:
    return [f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns]


class Tracer:
    """Wraps the TARGETS functions; one instance per benchmark process."""

    def __init__(self):
        self.names = target_names()
        self.spans = []          # (target index, start, end, parent span, op id)
        self.errors = Counter()  # target index -> RealposError raised
        self.op_id = 0
        self._stack = []
        self._patches = []       # (owner, attribute, original)
        # deterministic counters read from return values
        self.methods_attempted = 0
        self.methods_skipped = 0
        self.amplify_keys = {}   # (id(map), level) -> map, kept alive so ids stay unique
        self.amplify_calls = 0
        self.norm_iterations = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "realpos" or name.startswith("realpos."))]
        observers = self._observers()
        for idx, name in enumerate(self.names):
            mod_name, attr = name.split(".")
            owner = sys.modules[f"realpos.{mod_name}"]
            original = getattr(owner, attr)
            if isinstance(original, type):
                init = original.__init__
                self._patch(original, "__init__", self._wrap(idx, init, observers.get(name)))
                continue
            wrapper = self._wrap(idx, original, observers.get(name))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, idx: int, fn, observe):
        spans, stack, errors = self.spans, self._stack, self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            i = len(spans)
            spans.append(None)
            stack.append(i)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except RealposError:
                errors[idx] += 1
                raise
            finally:
                t1 = clock()
                stack.pop()
                spans[i] = (idx, t0, t1, parent, self.op_id)
            if observe is not None:
                observe(args, kwargs, out)
            return out

        return wrapper

    def _observers(self) -> dict:
        def power_all_methods(args, kwargs, out):
            _, candidates, _, skipped = out
            self.methods_attempted += len(candidates) + len(skipped)
            self.methods_skipped += len(skipped)

        def amplify(args, kwargs, out):
            t_map = args[0] if args else kwargs["t_map"]
            k = args[1] if len(args) > 1 else kwargs.get("k")
            self.amplify_calls += 1
            self.amplify_keys.setdefault((id(t_map), int(k)), t_map)

        def op_norm_estimate(args, kwargs, out):
            self.norm_iterations += int(out.iterations)

        return {"calculus.power_all_methods": power_all_methods,
                "maps.amplify": amplify,
                "maps.op_norm_estimate": op_norm_estimate}

    # -- results -----------------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (between traced passes)."""
        self.spans.clear()
        self.errors.clear()
        self.methods_attempted = self.methods_skipped = 0
        self.amplify_keys.clear()
        self.amplify_calls = 0
        self.norm_iterations = 0

    def summary(self) -> dict:
        """calls / self_s / errors per target, plus the derived counters."""
        k = len(self.names)
        calls = np.zeros(k, dtype=np.int64)
        total = np.zeros(k)
        child = np.zeros(len(self.spans))
        for idx, t0, t1, parent, _ in self.spans:
            calls[idx] += 1
            if parent >= 0:
                child[parent] += t1 - t0
        for i, (idx, t0, t1, _, _) in enumerate(self.spans):
            total[idx] += (t1 - t0) - child[i]
        out = {}
        for idx, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[idx])
            out[f"{name}.self_s"] = float(total[idx])
            out[f"{name}.errors"] = int(self.errors[idx])
        out["calculus.power_all_methods.skipped_frac"] = (
            self.methods_skipped / self.methods_attempted if self.methods_attempted else 0.0)
        out["maps.amplify.rebuild_ratio"] = (
            self.amplify_calls / len(self.amplify_keys) if self.amplify_keys else 0.0)
        out["maps.op_norm_estimate.iterations"] = int(self.norm_iterations)
        return out

    def save_spans(self, path) -> None:
        """Write the recorded spans as compressed arrays, one row per span."""
        arr = np.array(self.spans, dtype=float).reshape(-1, 5)
        np.savez_compressed(path, names=np.array(self.names),
                            target=arr[:, 0].astype(np.int32), start=arr[:, 1],
                            end=arr[:, 2], parent=arr[:, 3].astype(np.int64),
                            op=arr[:, 4].astype(np.int64))
