"""Deterministic serialization: float formatting, JSON round trips,
CSV table shape, SVG structure."""
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realpos.algebra import block_diag_algebra
from realpos.errors import InputError
from realpos.maps import identity_map
from realpos.numrange import boundary
from realpos.report import matrix_digest
from realpos.serialize import (
    algebra_from_obj,
    algebra_to_obj,
    boundary_csv,
    boundary_svg,
    dump_json,
    dumps_stable,
    fmt_float,
    load_json,
    map_from_obj,
    map_to_obj,
    matrix_from_obj,
    matrix_to_obj,
    read_matrix,
    write_matrix,
)


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_float_roundtrips_exactly(x):
    assert float(fmt_float(x)) == x


def test_fmt_float_rejects_nonfinite():
    with pytest.raises(InputError):
        fmt_float(float("nan"))
    with pytest.raises(InputError):
        fmt_float(float("inf"))


def test_dumps_stable_is_valid_json_and_deterministic():
    obj = {"a": 1, "b": [1.5, True, None, "s"], "c": {"d": 2.0 ** -40}}
    s1 = dumps_stable(obj)
    s2 = dumps_stable(obj)
    assert s1 == s2
    assert json.loads(s1) == {"a": 1, "b": [1.5, True, None, "s"],
                              "c": {"d": 2.0 ** -40}}


def test_dumps_stable_complex_and_arrays():
    s = dumps_stable({"z": 1 + 2j})
    assert json.loads(s) == {"z": {"re": 1.0, "im": 2.0}}
    m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    parsed = json.loads(dumps_stable(m))
    assert parsed["rows"] == 2 and parsed["re"][1][0] == 3.0


def test_matrix_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    p = tmp_path / "m.json"
    write_matrix(m, str(p))
    back = read_matrix(str(p))
    assert np.array_equal(back, m)  # 17 significant digits: exact


def test_matrix_obj_validation():
    with pytest.raises(InputError):
        matrix_from_obj({"rows": 2, "cols": 2, "re": [[1.0]], "im": [[0.0]]})
    with pytest.raises(InputError):
        matrix_from_obj({"rows": 1, "cols": 1, "re": [[float("nan")]], "im": [[0.0]]})
    with pytest.raises(InputError):
        matrix_from_obj({"nope": True})


def test_algebra_and_map_roundtrip(tmp_path):
    alg = block_diag_algebra([2, 1])
    obj = algebra_to_obj(alg)
    alg2 = algebra_from_obj(obj)
    assert alg2.dim == alg.dim and alg2.n == alg.n
    for b1, b2 in zip(alg.basis, alg2.basis):
        assert np.array_equal(b1, b2)
    t_map = identity_map(alg)
    t2 = map_from_obj(map_to_obj(t_map))
    x = np.diag([1.0, 2.0, 3.0]).astype(complex)
    assert np.allclose(t2.apply(x), t_map.apply(x), atol=1e-14)


def test_boundary_csv_format(tmp_path):
    x = np.diag([1.0, 1.0j]).astype(complex)
    rb = boundary(x, m=16)
    p = tmp_path / "b.csv"
    boundary_csv(rb, str(p))
    lines = p.read_text().splitlines()
    assert lines[0] == "theta,h_theta,re,im"
    assert len(lines) == 17
    row = lines[1].split(",")
    assert len(row) == 4
    assert float(row[0]) == rb.angles[0]
    assert float(row[1]) == rb.support_values[0]


def test_boundary_svg_structure(tmp_path):
    x = np.diag([1.0, 1.0j]).astype(complex)
    rb = boundary(x, m=32)
    text = boundary_svg(rb)
    assert text.startswith("<svg ")
    assert 'width="800"' in text and 'height="800"' in text
    assert "<polyline" in text
    assert "<circle" in text  # unit circle
    assert text.count("<line") == 2  # axes
    assert "<rect" in text  # background + half-plane shading
    p = tmp_path / "b.svg"
    boundary_svg(rb, str(p))
    assert p.read_text() == text


def test_dump_json_uses_lf(tmp_path):
    p = tmp_path / "o.json"
    dump_json({"k": 1.0}, str(p))
    raw = p.read_bytes()
    assert b"\r" not in raw
    assert raw.endswith(b"\n")
    assert load_json(str(p)) == {"k": 1.0}


def _digest_by_entry(*matrices):
    """matrix_digest one entry at a time: the formula the one-call
    formatting must reproduce byte for byte."""
    h = hashlib.sha256()
    for m in matrices:
        a = np.asarray(m, dtype=complex)
        h.update(str(a.shape).encode())
        for v in a.ravel():
            h.update(f"{v.real:.17g},{v.imag:.17g};".encode())
    return h.hexdigest()[:16]


def test_matrix_digest_matches_per_entry_formula():
    rng = np.random.default_rng(3)
    z = rng.standard_normal((5, 6)) + 1j * rng.standard_normal((5, 6))
    special = np.array([[0.0, -0.0, 5e-324, -2.2250738585072014e-308],
                        [1e308, -1e308, 1.0 / 3.0, -7.0]])
    cases = [
        (special + 1j * special[::-1],),
        (special,),                                  # real
        (np.arange(12).reshape(3, 4),),              # int
        (z[::2, 1::2],),                             # non-contiguous view
        (z.T,),                                      # Fortran order
        (np.zeros((0, 0), dtype=complex),),
        (z, special, np.eye(3, dtype=int), z[1:3, 2:4]),  # several at once
    ]
    for mats in cases:
        assert matrix_digest(*mats) == _digest_by_entry(*mats)
    assert matrix_digest(np.zeros((1, 1))) != matrix_digest(-np.zeros((1, 1)))
