"""Deterministic serialization: JSON with 17-significant-digit floats and
stable key order (report files and the {rows, cols, re, im} matrix
files the CLI reads and writes), CSV boundary tables, and static SVG
range plots.

Python's json module emits shortest-round-trip floats, which vary in
length; reports here must be byte-identical across runs, so a small
emitter formats every float with %.17g (enough digits to round-trip an
IEEE double) and writes dict keys in insertion order, which every
builder in this package keeps fixed.  All files use LF newlines.
"""
from __future__ import annotations

import json

import numpy as np

from .errors import InputError
from .linalg import _as_array, _as_instance, _as_int, _as_number
from .numrange import RangeBoundary

__all__ = [
    "fmt_float",
    "dumps_stable",
    "dump_json",
    "load_json",
    "matrix_to_obj",
    "matrix_from_obj",
    "read_matrix",
    "boundary_csv",
    "boundary_svg",
    "report_file_obj",
]


def fmt_float(x: float) -> str:
    """17 significant digits; exact round-trip for IEEE doubles.  A value
    that is not a finite real number is an InputError."""
    return "%.17g" % _as_number(x, "serialized value", "be a finite real number")


#: json.dumps(s) for a str s: the ASCII-escaped quoted string
_quote = json.encoder.encode_basestring_ascii


def _emit(obj, parts):
    if obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, str):
        parts.append(_quote(obj))
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(fmt_float(float(obj)))
    elif isinstance(obj, complex):
        _emit({"re": obj.real, "im": obj.imag}, parts)
    elif isinstance(obj, dict):
        parts.append("{")
        first = True
        for k, v in obj.items():
            if not first:
                parts.append(", ")
            first = False
            parts.append(_quote(str(k)))
            parts.append(": ")
            _emit(v, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        first = True
        for v in obj:
            if not first:
                parts.append(", ")
            first = False
            _emit(v, parts)
        parts.append("]")
    elif isinstance(obj, np.ndarray):
        _emit(matrix_to_obj(obj), parts)
    else:
        raise InputError(f"cannot serialize object of type {type(obj).__name__}")


def dumps_stable(obj) -> str:
    parts = []
    _emit(obj, parts)
    return "".join(parts)


def dump_json(obj, path: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps_stable(obj))
        fh.write("\n")


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

def matrix_to_obj(m) -> dict:
    m = _as_array(m, "m")
    if m.ndim != 2:
        raise InputError(f"expected a 2-d array, got ndim={m.ndim}")
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "re": [[float(v.real) for v in row] for row in m],
        "im": [[float(v.imag) for v in row] for row in m],
    }


def matrix_from_obj(obj) -> np.ndarray:
    try:
        rows, cols = obj["rows"], obj["cols"]
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed matrix object: {exc}") from exc
    rows, cols = _as_int(rows, "matrix rows"), _as_int(cols, "matrix cols")
    if re.shape != (rows, cols) or im.shape != (rows, cols):
        raise InputError(
            f"matrix object shape mismatch: declared {(rows, cols)}, "
            f"re {re.shape}, im {im.shape}"
        )
    out = re + 1j * im
    if not np.all(np.isfinite(re)) or not np.all(np.isfinite(im)):
        raise InputError("matrix object contains non-finite entries")
    return out


def read_matrix(path: str) -> np.ndarray:
    """Load a matrix from a JSON file ({rows, cols, re, im})."""
    try:
        obj = load_json(path)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read matrix from {path}: {exc}") from exc
    return matrix_from_obj(obj)


# ---------------------------------------------------------------------------
# boundary CSV and SVG
# ---------------------------------------------------------------------------

def boundary_csv(rb, path: str) -> None:
    """theta, h_theta, re, im — one row per sampled boundary direction."""
    rb = _as_instance(rb, RangeBoundary, "rb")
    lines = ["theta,h_theta,re,im"]
    for th, h, z in zip(rb.angles, rb.support_values, rb.boundary_points):
        lines.append(",".join([fmt_float(th), fmt_float(h),
                               fmt_float(z.real), fmt_float(z.imag)]))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")


def boundary_svg(rb, path: str | None = None) -> str:
    """Static 800-by-800 SVG plot of a numerical-range boundary.

    The view box covers the boundary polyline, the unit circle, and the
    origin, padded by 10 percent; the closed right half-plane is shaded,
    the axes and the unit circle are drawn, and the boundary is a
    polyline over the sampled points.
    """
    rb = _as_instance(rb, RangeBoundary, "rb")
    size = 800
    pts = np.asarray(rb.boundary_points, dtype=complex)
    xs = np.concatenate([pts.real, [-1.0, 1.0, 0.0]])
    ys = np.concatenate([pts.imag, [-1.0, 1.0, 0.0]])
    lo = min(float(xs.min()), float(ys.min()))
    hi = max(float(xs.max()), float(ys.max()))
    span = max(hi - lo, 1e-6)
    pad = 0.1 * span
    lo, hi = lo - pad, hi + pad
    span = hi - lo
    scale = size / span

    def px(x):
        return (x - lo) * scale

    def py(y):
        return size - (y - lo) * scale

    poly = " ".join(f"{px(z.real):.3f},{py(z.imag):.3f}" for z in pts)
    if len(pts):
        first = pts[0]
        poly += f" {px(first.real):.3f},{py(first.imag):.3f}"

    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect x="0" y="0" width="{size}" height="{size}" fill="#ffffff"/>',
        f'<rect x="{px(0.0):.3f}" y="0" width="{size - px(0.0):.3f}" height="{size}" '
        f'fill="#e8f4e8"/>',
        f'<line x1="0" y1="{py(0.0):.3f}" x2="{size}" y2="{py(0.0):.3f}" '
        f'stroke="#888888" stroke-width="1"/>',
        f'<line x1="{px(0.0):.3f}" y1="0" x2="{px(0.0):.3f}" y2="{size}" '
        f'stroke="#888888" stroke-width="1"/>',
        f'<circle cx="{px(0.0):.3f}" cy="{py(0.0):.3f}" r="{scale:.3f}" '
        f'fill="none" stroke="#bbbbbb" stroke-width="1" stroke-dasharray="4 3"/>',
        f'<polyline points="{poly}" fill="none" stroke="#1f5fbf" stroke-width="2"/>',
        "</svg>",
    ]
    text = "\n".join(svg) + "\n"
    if path is not None:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    return text


# ---------------------------------------------------------------------------
# verification report files
# ---------------------------------------------------------------------------

def report_file_obj(command: str, seed, tolerances, reports) -> dict:
    """Assemble the stable report-file structure (schema version 1) from a
    list of VerificationReport."""
    return {
        "schema_version": "1",
        "command": command,
        "seed": seed,
        "tolerances": dict(tolerances),
        "instances": [r.to_json_dict() for r in reports],
    }
