"""Structured verification reports shared by library checks, suites and
the command-line tool.

A VerificationReport is a plain record: named boolean verdicts, the
residuals backing them, the tolerances in force, and an overall pass
flag.  Serialization lives in realpos.serialize; this module uses numpy
only to digest input matrices into a stable identifier.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

__all__ = ["VerificationReport", "matrix_digest"]


def matrix_digest(*matrices) -> str:
    """Short stable hex digest identifying the input matrices."""
    h = hashlib.sha256()
    for m in matrices:
        a = np.asarray(m, dtype=complex)
        h.update(str(a.shape).encode())
        # "re,im;" per entry, 17 significant digits, in one format call
        h.update((("%.17g,%.17g;" * a.size) % tuple(a.ravel().view(float).tolist())).encode())
    return h.hexdigest()[:16]


@dataclass
class VerificationReport:
    """Outcome of one verification: verdicts, residuals, tolerances."""

    check: str
    passed: bool
    verdicts: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    instance: str = ""
    seed: object = None

    def to_json_dict(self) -> dict:
        out = {
            "check": self.check,
            "passed": bool(self.passed),
            "instance": self.instance,
            "verdicts": {k: bool(v) for k, v in self.verdicts.items()},
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "tolerances": {k: float(v) for k, v in self.tolerances.items()},
            "details": self.details,
        }
        if self.seed is not None:
            out["seed"] = self.seed
        return out
