"""Numerical range: support functions, boundary, distances, sectorial
angles.  Oracles come from normal matrices, whose range is the convex
hull of the spectrum."""
import numpy as np
import pytest
import scipy.linalg as sla
from scipy.spatial import ConvexHull
from hypothesis import given, settings
from hypothesis import strategies as st

from realpos import numrange
from realpos.errors import InputError
from realpos.calculus import power_shifted
from realpos.linalg import (
    random_accretive,
    random_hermitian,
    random_matrix,
    random_unitary,
)
from realpos.numrange import (
    abscissa,
    boundary,
    dist_to_point,
    sectorial_angle,
    support_function,
)


def hull_support(points, theta):
    """Support function of conv(points) in direction theta."""
    return max((np.exp(-1j * theta) * p).real for p in points)


def seg_dist(z, a, b):
    """Distance from complex z to the segment [a, b]."""
    if a == b:
        return abs(z - a)
    t = ((z - a).real * (b - a).real + (z - a).imag * (b - a).imag) / abs(b - a) ** 2
    t = min(max(t, 0.0), 1.0)
    return abs(z - (a + t * (b - a)))


DIAGS = [
    [2.0, 0.5],
    [1.0 + 1.0j, 1.0 - 1.0j],
    [0.3, 2.0 + 0.5j, 1.0 - 1.5j],
    [1.0j, -1.0j, 3.0],
]


@pytest.mark.parametrize("diag", DIAGS)
def test_support_function_normal_oracle(diag):
    x = np.diag(diag).astype(complex)
    for theta in np.linspace(-np.pi, np.pi, 17):
        assert support_function(x, theta) == pytest.approx(
            hull_support(diag, theta), abs=1e-10)


def test_abscissa_is_min_real_part_for_normal():
    x = np.diag([1.0 + 2.0j, -0.5 + 1.0j, 3.0]).astype(complex)
    assert abscissa(x) == pytest.approx(-0.5, abs=1e-12)


def test_abscissa_nonnormal():
    # herm part of [[0, 1], [0, 0]] has eigenvalues +-1/2
    x = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    assert abscissa(x) == pytest.approx(-0.5, abs=1e-12)


def test_boundary_shape_and_points():
    x = np.diag([1.0, 1.0j]).astype(complex)
    rb = boundary(x, m=64)
    assert len(rb.angles) == 64
    assert len(rb.boundary_points) == 64
    # every boundary point lies in the hull (segment [1, i])
    for z in rb.boundary_points:
        assert seg_dist(z, 1.0 + 0j, 1.0j) <= 1e-9
    with pytest.raises(InputError):
        boundary(x, m=4)
    for m in (16.7, "8", True, 16.0):  # refused, not truncated by int()
        with pytest.raises(InputError, match="integer"):
            boundary(x, m=m)


@pytest.mark.parametrize("z", [0.0 + 0j, -1.0 + 0j, 2.0 + 2.0j, 0.5 + 0.1j])
def test_dist_to_point_segment_oracle(z):
    a, b = 1.0 + 0.5j, 2.0 - 1.0j
    x = np.diag([a, b]).astype(complex)
    assert dist_to_point(x, z) == pytest.approx(seg_dist(z, a, b), abs=1e-9)


def test_dist_to_point_inside_is_zero():
    x = np.diag([1.0, 1.0j, -1.0, -1.0j]).astype(complex)
    assert dist_to_point(x, 0.1 + 0.1j) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("phi", [0.2, 0.7, 1.2, 1.5])
def test_sectorial_angle_conjugate_pair(phi):
    x = np.diag([np.exp(1j * phi), np.exp(-1j * phi)]).astype(complex)
    v = sectorial_angle(x)
    assert v.angle == pytest.approx(phi, abs=1e-8)
    assert abs(v.witness) == pytest.approx(1.0, abs=1e-8)
    assert abs(np.angle(v.witness)) == pytest.approx(phi, abs=1e-6)


def test_sectorial_angle_psd_is_zero():
    x = np.diag([3.0, 1.0, 0.25]).astype(complex)
    assert sectorial_angle(x).angle == pytest.approx(0.0, abs=1e-12)


def test_sectorial_angle_singular_psd_contraction_is_zero():
    x = embed_with_kernel(np.diag([0.9, 0.5]).astype(complex), 4, 13)
    assert sectorial_angle(x).angle == pytest.approx(0.0, abs=1e-12)


def test_sectorial_angle_zero_matrix():
    v = sectorial_angle(np.zeros((3, 3), dtype=complex))
    assert v.angle == 0.0
    # just above eq_tol in norm: a positive multiple of I, W(x) = {1.0000000005e-9}
    v = sectorial_angle(1.0000000005e-9 * np.eye(3, dtype=complex))
    assert v.angle == 0.0
    assert v.witness == pytest.approx(1.0000000005e-9, rel=1e-12)


def test_sectorial_angle_segment_to_i():
    x = np.diag([1.0, 1.0j]).astype(complex)
    assert sectorial_angle(x).angle == pytest.approx(np.pi / 2, abs=1e-8)


def test_sectorial_angle_interior_zero_sentinel():
    x = np.diag([1.0, 1.0j, -1.0, -1.0j]).astype(complex)
    v = sectorial_angle(x)
    assert v.angle is None and v.witness is None


def test_sectorial_angle_negative_halfline():
    x = np.diag([-1.0, -2.0]).astype(complex)
    assert sectorial_angle(x).angle == pytest.approx(np.pi, abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0))
def test_dist_to_point_lower_bounds_support_gap(re, im):
    """dist(z, W(x)) >= Re(e^{-i theta} z) - h(theta) for every theta."""
    x = np.array([[1.0, 0.7], [0.0, 0.4 + 0.9j]], dtype=complex)
    z = complex(re, im)
    d = dist_to_point(x, z)
    for theta in np.linspace(-np.pi, np.pi, 9):
        gap = (np.exp(-1j * theta) * z).real - support_function(x, theta)
        assert d >= gap - 1e-8


def rotated_herm(x, theta):
    """Re(e^{-i theta} x), formed one angle at a time."""
    y = np.exp(-1j * theta) * x
    return (y + y.conj().T) / 2.0


def eigh_support(x, theta):
    """Support value and attaining range point in direction e^{i theta},
    from one full eigen-solve."""
    w, v = np.linalg.eigh(numrange._herm_parts(x, theta))
    return float(w[-1]), complex(v[:, -1].conj() @ (x @ v[:, -1]))


def certificate_gap(rb):
    """|h(theta_k) - Re(e^{-i theta_k} p_k)| for each boundary point p_k:
    how far p_k lies from its supporting line, which for p = v*xv is the
    Rayleigh gap of v at the extreme eigenvalue."""
    return np.abs(rb.support_values - (np.exp(-1j * rb.angles) * rb.boundary_points).real)


@pytest.mark.parametrize("n", [4, 8, 16])
def test_stacked_sweeps_match_per_angle_loop_bitwise(n):
    """eigvalsh over a stacked grid is the per-angle loop bit for bit.  The
    boundary sweep solves only its first m/2 angles: its support values
    there are bitwise the per-angle eigvalsh, the top eigenvalue at theta_k
    and minus the bottom one as the top at theta_k + pi, and within
    rounding of the per-angle solve at theta_k + pi.  Its points come from
    a certified shifted solve, not from eigh: each passes the Rayleigh
    certificate, and (the extreme eigenvalues being simple here) lies
    within 1e-10 (1 + ||x||) of the per-angle eigh point."""
    grid = np.linspace(-np.pi, np.pi, 256, endpoint=False)
    eps = np.finfo(float).eps
    for seed in range(5):
        x = random_matrix(n, seed) if seed % 2 else random_accretive(n, seed)
        stacked = np.linalg.eigvalsh(numrange._herm_parts(x, grid))[:, 0]
        loop = np.array([np.linalg.eigvalsh(rotated_herm(x, th))[0] for th in grid])
        assert np.array_equal(stacked, loop)
        rb = boundary(x)
        half = rb.angles.size // 2
        nrm = np.linalg.norm(x, 2)
        top, bottom, points, antipodal_points = [], [], [], []
        for th in rb.angles[:half]:
            r = rotated_herm(x, th)
            w, v = np.linalg.eigvalsh(r), np.linalg.eigh(r)[1]
            top.append(w[-1])
            bottom.append(w[0])
            points.append(v[:, -1].conj() @ (x @ v[:, -1]))
            antipodal_points.append(v[:, 0].conj() @ (x @ v[:, 0]))
        assert np.array_equal(rb.support_values[:half], np.array(top))
        assert np.array_equal(rb.support_values[half:], -np.array(bottom))
        assert np.max(certificate_gap(rb)) <= 64 * n * eps * nrm
        assert np.max(np.abs(rb.boundary_points - np.array(points + antipodal_points))) \
            <= 1e-10 * (1.0 + nrm)
        antipodal = np.array([np.linalg.eigvalsh(rotated_herm(x, th))[-1]
                              for th in rb.angles[half:]])
        assert np.max(np.abs(rb.support_values[half:] - antipodal)) <= 64 * n * eps * nrm


def start_vector_kernel_projection(n):
    """I - bb*/|b|^2 for the start vector b_p = sqrt(p) e^{ip} of the
    shifted solve: b spans the bottom eigenspace of H(0), so its one
    inverse-iteration step cannot reach the top one there."""
    p = np.arange(1.0, n + 1.0)
    b = np.sqrt(p) * np.exp(1j * p)
    return np.eye(n) - np.outer(b, b.conj()) / np.vdot(b, b).real


# inputs where the shifted solve could fail: a zero matrix (every shifted
# matrix singular), H(0) = 0, a repeated top eigenvalue, a point range,
# extreme scales, a start vector with no component on the top eigenspace
SHIFT_HARD_INPUTS = [
    pytest.param(np.zeros((3, 3)), id="zero"),
    pytest.param(1j * np.eye(3), id="i-identity"),
    pytest.param(np.diag([1.0, 1.0, 1.0j]), id="repeated-top"),
    pytest.param(np.array([[0.0, 1.0], [0.0, 0.0]]), id="jordan"),
    pytest.param(1e6 * random_matrix(5, 31), id="scale-1e6"),
    pytest.param(1e-6 * random_matrix(5, 31), id="scale-1e-6"),
    pytest.param(np.array([[2.0 - 0.5j]]), id="n=1"),
    pytest.param(start_vector_kernel_projection(3), id="start-in-bottom-eigenspace"),
]


@pytest.mark.parametrize("m", [8, 256])
@pytest.mark.parametrize("x", SHIFT_HARD_INPUTS)
def test_boundary_points_certified_on_hard_inputs(x, m):
    """Every point is finite, within the Rayleigh cut of its supporting
    line, and in W(x); a RuntimeWarning would fail the test."""
    x = np.asarray(x, dtype=complex)
    n, nrm = x.shape[0], np.linalg.norm(x, 2)
    rb = boundary(x, m=m)
    cut = 64 * n * np.finfo(float).eps * nrm
    assert np.isfinite(rb.boundary_points).all()
    assert np.max(certificate_gap(rb)) <= cut
    for p in rb.boundary_points:
        assert dist_to_point(x, p) <= cut


def test_boundary_points_on_known_ranges():
    """The Jordan block's range is the disc |z| <= 1/2, whose boundary
    point in direction theta is e^{i theta}/2; W(diag(1, 1, i)) is the
    segment [1, i]; W(i I) and W(c) are single points."""
    eps = np.finfo(float).eps
    rb = boundary(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert np.max(np.abs(np.abs(rb.boundary_points) - 0.5)) <= 4 * eps
    assert np.max(np.abs(rb.boundary_points - np.exp(1j * rb.angles) / 2.0)) <= 1e-12
    for z in boundary(np.diag([1.0, 1.0, 1.0j])).boundary_points:
        assert seg_dist(z, 1.0 + 0j, 1.0j) <= 1e-15
    assert np.max(np.abs(boundary(1j * np.eye(3)).boundary_points - 1j)) <= 1e-15
    assert np.max(np.abs(boundary(np.array([[2.0 - 0.5j]]), m=8).boundary_points
                         - (2.0 - 0.5j))) <= 4 * eps * abs(2.0 - 0.5j)


def test_boundary_falls_back_to_eigh_only_when_uncertified(monkeypatch):
    """The shifted solve certifies every point on random inputs, with no
    full eigen-solve; x = 0 makes every shifted matrix singular, and the
    points then come from eigh, as they do where the start vector misses
    the extreme eigenspace."""
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *args, **kw: calls.append(1) or eigh(*args, **kw))
    rng = np.random.default_rng(2020)
    for k in range(50):
        n = int(rng.integers(2, 17))
        x = random_matrix(n, rng) if k % 2 else random_accretive(n, rng)
        boundary(x)
    assert not calls
    assert np.array_equal(boundary(np.zeros((4, 4))).boundary_points, np.zeros(256))
    assert calls
    calls.clear()
    boundary(start_vector_kernel_projection(3))
    assert calls


def test_support_function_is_the_boundary_support_value_bitwise():
    for n, seed in ((1, 40), (3, 41), (8, 42), (16, 43)):
        x = random_matrix(n, seed)
        rb = boundary(x, m=64)
        half = rb.angles.size // 2
        assert np.array_equal([support_function(x, th) for th in rb.angles[:half]],
                              rb.support_values[:half])


def test_boundary_rejects_odd_m():
    x = np.diag([1.0, 1.0j]).astype(complex)
    with pytest.raises(InputError, match="even"):
        boundary(x, m=9)
    assert boundary(x, m=10).angles.size == 10


def _dist_to_point_golden(x, z, m=256):
    """dist(z, W(x)) by an m-angle sweep and golden-section ascent on the
    bracketing interval, one eigen-solve per angle: the method that the
    Newton refinement of dist_to_point replaced, kept as its oracle."""
    def gap(theta):
        return (z * np.exp(-1j * theta)).real - eigh_support(x, theta)[0]

    grid = 2.0 * np.pi * np.arange(m) / m
    vals = (z * np.exp(-1j * grid)).real - np.array(
        [np.linalg.eigvalsh(rotated_herm(x, th))[-1] for th in grid])
    j = int(np.argmax(vals))
    lo, hi = grid[j] - 2.0 * np.pi / m, grid[j] + 2.0 * np.pi / m
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - invphi * (hi - lo), lo + invphi * (hi - lo)
    fc, fd = gap(c), gap(d)
    for _ in range(80):
        if fc >= fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = gap(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = gap(d)
        if hi - lo < 1e-13:
            break
    return max(0.0, float(vals[j]), fc, fd)


def _dist_inputs():
    """(smooth, polygonal, inside) lists of (x, z).  Smooth: accretive and
    Ginibre x, z = -1 or random; polygonal: normal x, whose gap has kinks
    where the closest point of W(x) lies on an edge; inside: z = tr(x)/n,
    an average of points of W(x)."""
    rng = np.random.default_rng(2015)
    smooth, polygonal, inside = [], [], []
    for n in (2, 4, 8, 16):
        for _ in range(6):
            z = complex(*rng.normal(scale=3.0, size=2))
            smooth += [(random_accretive(n, rng), -1.0 + 0j), (random_accretive(n, rng), z),
                       (random_matrix(n, rng), z)]
            lam = rng.normal(size=n) + 1j * rng.normal(size=n)
            u = random_unitary(n, rng)
            z = complex(*rng.normal(scale=4.0, size=2))
            polygonal.append((u @ np.diag(lam) @ u.conj().T, z))
            x = random_matrix(n, rng)
            inside.append((x, complex(np.trace(x) / n)))
    return smooth, polygonal, inside


def test_dist_to_point_matches_golden_section_oracle():
    for group in _dist_inputs():
        for x, z in group:
            d = dist_to_point(x, z)
            assert abs(d - _dist_to_point_golden(x, z)) <= 1e-12 * (1.0 + d)


def test_dist_to_point_single_angle_solves(monkeypatch):
    """The Newton refinement needs few single-angle eigen-solves on smooth
    inputs, and few at kinks too (where it steps to the crossing of the
    bracket-end tangents); the pencil midpoints alone prove dist = 0 for
    every z well inside W(x)."""
    calls = []
    jet = numrange._gap_jet
    monkeypatch.setattr(numrange, "_gap_jet", lambda *args: calls.append(1) or jet(*args))
    counts = []
    for group in _dist_inputs():
        counts.append([])
        for x, z in group:
            calls.clear()
            dist_to_point(x, z)
            counts[-1].append(len(calls))
    assert max(max(c) for c in counts) <= 16
    assert np.median(counts[0]) <= 8
    assert max(counts[2]) == 0


def test_dist_to_point_polygon_range():
    """Normal x: W(x) is the convex hull of the spectrum, and the distance
    to a z outside it is that to the nearest edge.  Where that point lies
    inside an edge, the gap has a kink at its maximum; the refinement
    steps onto the crossing of the two branches there."""
    for x, z in _dist_inputs()[1]:
        lam = np.linalg.eigvals(x)
        pts = np.column_stack((lam.real, lam.imag))
        if lam.size > 2:
            hull = ConvexHull(pts)
            if np.all(hull.equations @ [z.real, z.imag, 1.0] <= 0.0):
                assert dist_to_point(x, z) == 0.0
                continue
        exact = min(seg_dist(z, a, b) for a in lam for b in lam)
        assert abs(dist_to_point(x, z) - exact) <= 1e-13 * (1.0 + exact)


def _segment_input(n, seed, c):
    """x = h + i c I with h Hermitian: W(x) is the segment [l, r] + i c
    between the extreme eigenvalues of h."""
    h = random_hermitian(n, seed)
    lam = np.linalg.eigvalsh(h)
    return h + 1j * c * np.eye(n), complex(lam[0], c), complex(lam[-1], c)


def test_dist_to_point_degenerate_top_eigenspace():
    """At psi = pi/2, Re(e^{-i psi}(x - z)) is a multiple of I: the whole
    space is the bottom cluster.  A slope read off one arbitrary vector of
    it stopped the refinement there, 1.6e-4 short of the distance to the
    end of the segment."""
    x, _, right = _segment_input(2, 0, 0.01)
    z = right + 0.04 - 5.01j
    assert abs(dist_to_point(x, z) - abs(z - right)) <= 1e-12


@pytest.mark.parametrize("n, seed", [(2, 1), (4, 2), (8, 3)])
def test_dist_to_point_segment_range(n, seed):
    """z beyond either end of a segment W(x), at every angle, including the
    directions perpendicular to the segment (at the ends and in between)."""
    x, left, right = _segment_input(n, seed, 0.7)
    for r in (1e-3, 0.5, 4.0):
        for phi in np.linspace(-np.pi / 2.0, np.pi / 2.0, 7):
            z = right + r * np.exp(1j * phi)
            assert abs(dist_to_point(x, z) - r) <= 1e-12 * (1.0 + r)
            z = left - r * np.exp(1j * phi)
            assert abs(dist_to_point(x, z) - r) <= 1e-12 * (1.0 + r)
        mid = (left + right) / 2.0
        for z in (mid + 1j * r, mid - 1j * r):
            assert abs(dist_to_point(x, z) - r) <= 1e-12 * (1.0 + r)


@pytest.mark.parametrize("c", [0.0, 1.5 - 2.0j])
def test_dist_to_point_single_point_range(c):
    """W(c I) = {c}: at every angle the whole space is the bottom cluster,
    with a single slope."""
    x = c * np.eye(3, dtype=complex)
    for z in (c + 1.0, c - 2.0j, c + 3.0 * np.exp(0.3j), c + 1e-6j):
        assert abs(dist_to_point(x, z) - abs(z - c)) <= 1e-12 * (1.0 + abs(z - c))
    assert dist_to_point(x, c) == 0.0


def test_dist_to_point_at_an_eigenvalue_with_a_normal_eigenvector():
    """x = (2 + i) (+) y with y small: z = 2 + i is a vertex of W(x) and
    Re(e^{-i psi}(x - z)) is singular at every psi, a singular pencil.
    The distance is 0, and a point just beyond the vertex is at its own
    distance from it."""
    y = 0.3 * random_matrix(3, 5)
    x = np.zeros((4, 4), dtype=complex)
    x[0, 0], x[1:, 1:] = 2.0 + 1.0j, y
    assert dist_to_point(x, 2.0 + 1.0j) == 0.0
    z = 2.0 + 1.0j + 0.25 * np.exp(0.4j)
    assert abs(dist_to_point(x, z) - 0.25) <= 1e-12


@pytest.mark.parametrize("n, seed", [(3, 6), (4, 7), (8, 8)])
def test_dist_to_point_on_and_near_the_boundary(n, seed):
    """z = p + t e^{i theta} for a boundary point p of W(x) with outward
    normal e^{i theta}: dist = t, so 0 on the boundary."""
    x = random_matrix(n, seed)
    rb = boundary(x, m=16)
    for theta, p in zip(rb.angles, rb.boundary_points):
        assert dist_to_point(x, p) <= 1e-12
        for t in (1e-8, 1e-4):
            assert abs(dist_to_point(x, p + t * np.exp(1j * theta)) - t) <= 1e-12


def test_dist_to_point_stacks_at_most_2n_matrices(monkeypatch):
    """The midpoints between the 2n pencil candidates are the only stacked
    eigen-solve: no 128-angle sweep."""
    stacked = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda m, *args, **kw: stacked.append(m.shape) or eigvalsh(m, *args, **kw))
    for group in _dist_inputs():
        for x, z in group:
            stacked.clear()
            dist_to_point(x, z)
            assert max(int(np.prod(s[:-2])) for s in stacked) <= 2 * x.shape[0]


def pencil_angle(x):
    """arctan max |lambda| over K v = lambda H v for x = H + iK, H > 0."""
    h = (x + x.conj().T) / 2.0
    k = (x - x.conj().T) / 2j
    return np.arctan(np.max(np.abs(sla.eigvalsh(k, h))))


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_sectorial_angle_matches_pencil_angle(n):
    """For x = H + iK with H positive definite, the sectorial angle is
    arctan max |lambda| over K v = lambda H v."""
    for seed in range(6):
        x = random_accretive(n, 100 * n + seed, angle_cap=0.15 + 0.25 * seed)
        exact = pencil_angle(x)
        v = sectorial_angle(x)
        assert v.angle == pytest.approx(exact, abs=1e-8)
        assert abs(abs(np.angle(v.witness)) - exact) <= 1e-6


def _min_herm_eig(x, psi):
    """Smallest eigenvalue of Re(e^{-i psi} x), elementwise over psi."""
    return np.linalg.eigvalsh(numrange._herm_parts(x, psi))[..., 0]


def _sectorial_angle_per_side_sweep(x, m=256):
    """Sector of a non-accretive x by a sweep of m directions, a separate
    128-angle sweep per side to bracket the ends of the admissible arc,
    and 60 bisection steps on each: an independent reference for the
    pencil eigen-angles of sectorial_angle."""
    if np.linalg.norm(x, 2) <= 1e-9:
        return 0.0, 0j
    grid = np.linspace(-np.pi, np.pi, m, endpoint=False)
    g = _min_herm_eig(x, grid)
    j0 = int(np.argmax(g))
    if g[j0] < 0.0:
        return None, None
    psi0 = float(grid[j0])
    u = np.pi * np.arange(1, 129) / 128

    def crossing(sign):
        neg = np.flatnonzero(_min_herm_eig(x, psi0 + sign * u) < 0.0)
        if neg.size == 0:
            return np.pi
        i = int(neg[0])
        lo, hi = (u[i - 1] if i > 0 else 0.0), u[i]
        for _ in range(60):
            mid = (lo + hi) / 2.0
            if _min_herm_eig(x, psi0 + sign * mid) >= 0.0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2.0

    psi_plus = psi0 + crossing(1.0)
    psi_minus = psi0 - crossing(-1.0)
    rho_inf, rho_sup = psi_plus - np.pi / 2.0, psi_minus + np.pi / 2.0
    mid = (rho_inf + rho_sup) / 2.0
    shift = numrange._normalize_angle(mid) - mid
    lo_arg, hi_arg = rho_inf + shift, rho_sup + shift
    if lo_arg < -np.pi - 1e-12 or hi_arg > np.pi + 1e-12:
        angle = float(np.pi)
    else:
        angle = float(min(np.pi, max(abs(lo_arg), abs(hi_arg))))
    cand = [(abs(lo_arg), lo_arg, eigh_support(x, psi_plus + np.pi)[1]),
            (abs(hi_arg), hi_arg, eigh_support(x, psi_minus + np.pi)[1])]
    if abs(cand[0][0] - cand[1][0]) <= 1e-12:
        return angle, min(cand, key=lambda item: item[1])[2]
    return angle, max(cand, key=lambda item: item[0])[2]


@pytest.mark.parametrize("n", [2, 4, 8, 16])
def test_sectorial_angle_matches_per_side_sweep(n):
    """Accretive inputs take the whitened pencil; non-accretive ones (random
    matrices, and accretive draws rotated off the right half-plane so that
    their angle is defined) agree with the per-side sweep reference to
    rounding."""
    rng = np.random.default_rng(n)
    for _ in range(3):
        for x in (random_accretive(n, rng), random_hermitian(n, rng, psd=True),
                  random_accretive(n, rng, angle_cap=float(rng.uniform(0.05, 1.5)))):
            exact = pencil_angle(x)
            v = sectorial_angle(x)
            assert v.angle == pytest.approx(exact, abs=1e-8)
            assert abs(abs(np.angle(v.witness)) - exact) <= 1e-6
        cap = float(rng.uniform(0.05, 0.7))
        phi = rng.choice([-1.0, 1.0]) * rng.uniform(np.pi / 2 + cap, np.pi - cap)
        for x in (random_matrix(n, rng), np.exp(1j * phi) * random_accretive(n, rng, cap)):
            assert abscissa(x) < 0.0
            v = sectorial_angle(x)
            angle, witness = _sectorial_angle_per_side_sweep(x)
            if angle is None:
                assert v.angle is None and v.witness is None
            else:
                assert abs(v.angle - angle) <= 1e-12
                assert abs(v.witness - witness) <= 1e-10


def embed_with_kernel(block, n, seed):
    """u (block + 0) u* with a Haar unitary u of size n."""
    z = np.zeros((n, n), dtype=complex)
    k = block.shape[0]
    z[:k, :k] = block
    u = random_unitary(n, seed)
    return u @ z @ u.conj().T


def test_sectorial_angle_rank_one_projection_is_zero():
    u = random_unitary(2, 11)
    v = sectorial_angle(u @ np.diag([1.0, 0.0]) @ u.conj().T)
    assert abs(v.angle) <= 1e-12
    assert abs(np.angle(v.witness)) <= 1e-12


def test_sectorial_angle_rank_one_psd_is_zero_not_none():
    g = random_matrix(4, 12)[:, :1]
    v = sectorial_angle(g @ g.conj().T)
    assert v.angle == 0.0


@pytest.mark.parametrize("n", [4, 8, 16])
def test_sectorial_angle_with_kernel_is_block_pencil_angle(n):
    for seed in range(4):
        block = random_accretive(n // 2, 1000 * n + seed, angle_cap=0.2 + 0.4 * seed)
        exact = pencil_angle(block)
        v = sectorial_angle(embed_with_kernel(block, n, seed))
        assert v.angle == pytest.approx(exact, abs=1e-8)
        assert abs(abs(np.angle(v.witness)) - exact) <= 1e-6


def test_sectorial_angle_kernel_rule():
    # K is nonzero on the kernel of H = diag(1, 0): the point i is in W
    v = sectorial_angle(np.diag([1.0, 1.0j]))
    assert v.angle == np.pi / 2 and v.witness == 1j
    # H = diag(1, 0) and K = [[0, -i], [i, 0]]: K is zero on ker H x ker H
    # but K e2 != 0, so W touches the imaginary axis only at 0
    v = sectorial_angle(np.array([[1.0, 1.0], [-1.0, 0.0]]))
    assert v.angle == np.pi / 2 and v.witness == 0j


@pytest.mark.parametrize("delta", [1e-9, 1.9e-9, 1e-6])
def test_sectorial_angle_keeps_small_range_eigenvalues(delta):
    # W(x) is the segment from 1 to delta (1 + i): H = diag(1, delta) has no
    # kernel, however small delta is against ||x||
    v = sectorial_angle(np.diag([1.0, delta * (1 + 1j)]))
    assert v.angle == pytest.approx(np.pi / 4, abs=1e-12)
    assert v.witness == pytest.approx(delta * (1 + 1j), rel=1e-12)


def test_sectorial_angle_small_h_eigenvalue_with_coupling_is_pencil_angle():
    # H = diag(1, 1e-9) is positive definite; K = 1e-8 sigma_x couples its
    # two directions, so the angle is arctan(1e-8 / sqrt(1e-9)), not pi/2
    x = np.diag([1.0, 1e-9]) + 1e-8j * np.array([[0.0, 1.0], [1.0, 0.0]])
    assert sectorial_angle(x).angle == pytest.approx(pencil_angle(x), rel=1e-9)
    assert sectorial_angle(x).angle == pytest.approx(np.arctan(1e-8 / np.sqrt(1e-9)), rel=1e-9)


# non-accretive inputs with 0 on the boundary of W(x), or interior to it:
# the exact angle (None: 0 is interior) and the farthest point of W(x) on
# the extreme ray (0 for the disk, which meets its extreme rays only at 0)
BOUNDARY_INPUTS = [
    pytest.param(np.diag([1.0, -1e-10]), np.pi, -1e-10, id="segment-through-0"),
    pytest.param(np.diag([1.0, 1.0j, -0.5]), np.pi, -0.5, id="0-on-an-edge"),
    pytest.param(np.exp(0.7j) * np.diag([1.0, -3.0]), np.pi - 0.7, -3.0 * np.exp(0.7j),
                 id="line-through-0"),
    pytest.param(np.exp(-0.7j) * np.diag([1.0, -3.0]), np.pi - 0.7, -3.0 * np.exp(-0.7j),
                 id="line-through-0-below"),
    pytest.param(np.exp(2.5j) * np.array([[1.0, 2.0], [0.0, 1.0]]), np.pi, 0.0,
                 id="disk-tangent-at-0"),
    pytest.param(np.array([[0.0, 1.0], [0.0, 0.0]]), None, None, id="0-interior"),
    pytest.param(np.exp(2.0j) * np.diag([1.0, 0.0]), 2.0, np.exp(2.0j), id="segment-ending-at-0"),
    pytest.param(np.diag([np.exp(2.0j), np.exp(2.5j), 0.0]), 2.5, np.exp(2.5j), id="0-a-corner"),
]


@pytest.mark.parametrize("x, angle, witness", BOUNDARY_INPUTS)
def test_sectorial_angle_on_boundary_inputs(x, angle, witness):
    v = sectorial_angle(x)
    if angle is None:
        assert v.angle is None and v.witness is None
        return
    assert abs(v.angle - angle) <= 1e-12
    # the tangent point is an eigen-angle of multiplicity two, known to sqrt(eps)
    assert v.witness == pytest.approx(witness, abs=1e-12 if witness else 1e-7)


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
def test_sectorial_angle_is_scale_invariant(s):
    kernel_input = embed_with_kernel(random_accretive(3, 21, angle_cap=0.9), 6, 22)
    for x in (np.diag([1.0, 1e-3 * (1 + 1j)]), random_accretive(5, 23, angle_cap=0.6),
              kernel_input, random_hermitian(4, 24, psd=True)):
        assert sectorial_angle(s * x).angle == pytest.approx(sectorial_angle(x).angle, abs=1e-12)
    for param in BOUNDARY_INPUTS:
        x, expected, _ = param.values
        angle = sectorial_angle(s * x).angle
        assert angle is None if expected is None else abs(angle - expected) <= 1e-12


@pytest.mark.parametrize("s", [1e-6, 1.0, 1e6])
def test_sectorial_angle_at_a_tangent_arc_end(s):
    """W(e^{0.5i} [[1, 2], [0, 1]]) is the unit disc about e^{0.5i}, tangent
    to the line through 0: the admissible arc is the double eigen-angle
    0.5, which the pencil knows only to about sqrt(eps) (4.4e-9 at s =
    1e6).  A Newton step from the centre of the candidates sharpens it."""
    x = s * np.exp(0.5j) * np.array([[1.0, 2.0], [0.0, 1.0]])
    assert abs(sectorial_angle(x).angle - (0.5 + np.pi / 2.0)) <= 1e-12


@pytest.mark.parametrize("d", [1e-9, 1e-12])
def test_sectorial_angle_at_two_close_crossings(d):
    """W(diag(1, i, -0.5 + d i)) is a triangle just above 0: its admissible
    arc [pi/2 - 2d, pi/2] ends at simple crossings of two eigenvalues,
    candidates within sqrt(eps) of each other that are not a tangent
    point.  The Newton step from their centre is far too long and is
    refused, so the angle and witness stay at the vertex -0.5 + d i."""
    corner = -0.5 + d * 1j
    v = sectorial_angle(np.diag([1.0, 1.0j, corner]))
    assert abs(v.angle - np.angle(corner)) <= 1e-15
    assert v.witness == corner


def test_tangent_refinement_leaves_random_inputs_bitwise(monkeypatch):
    """On 400 random non-accretive inputs (Ginibre draws, and accretive
    draws rotated off the right half-plane) no arc end is a tangent point:
    the angle and witness are bitwise those without the refinement."""
    rng = np.random.default_rng(1978)
    inputs = []
    for n in (2, 3, 4, 8, 16):
        for _ in range(40):
            cap = float(rng.uniform(0.05, 0.7))
            phi = rng.choice([-1.0, 1.0]) * rng.uniform(np.pi / 2 + cap, np.pi - cap)
            inputs += [random_matrix(n, rng), np.exp(1j * phi) * random_accretive(n, rng, cap)]
    with_refinement = [sectorial_angle(x) for x in inputs]
    monkeypatch.setattr(numrange, "_tangent_end", lambda a, c, psi: psi)
    assert [sectorial_angle(x) for x in inputs] == with_refinement


@pytest.mark.parametrize("x", [
    pytest.param(embed_with_kernel(random_accretive(2, 14, angle_cap=0.8), 4, 15),
                 id="kernel-input"),
    # angle(x) = pi/4 exactly, and the shifted route keeps the eigenvalue
    # 1.9e-9 (1 + i), so angle(x^t) = t pi/4
    pytest.param(np.diag([1.0, 1.9e-9 * (1 + 1j)]), id="small-range-eigenvalue"),
])
def test_power_shrinks_the_sector(x):
    """angle(x^t) <= t angle(x) on the exponent grid t = 0.1, ..., 0.9."""
    angle = sectorial_angle(x).angle
    for k in range(1, 10):
        assert sectorial_angle(power_shifted(x, k / 10)).angle <= k / 10 * angle + 1e-6, k


def test_non_finite_point_or_angle_rejected():
    x = np.diag([1.0, 1.0j]).astype(complex)
    for z in (np.nan, complex(0.0, np.inf), -np.inf):
        with pytest.raises(InputError, match="z must be finite"):
            dist_to_point(x, z)
    for theta in (np.inf, np.nan):
        with pytest.raises(InputError, match="theta must be finite"):
            support_function(x, theta)
