import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monomap.errors import UnsupportedDomain
from monomap.geometry import DomainKind, DomainSpec


class TestClassification:
    def test_rectangle(self):
        d = DomainSpec.rectangle(0.0, 2.0, -1.0, 1.0)
        assert d.classify() == DomainKind.RECTANGLE

    def test_convex_polygon(self):
        d = DomainSpec.polygon([(0, 0), (2, 0), (3, 1), (1, 3), (0, 1)])
        assert d.classify() == DomainKind.CONVEX

    def test_notched_polygon_is_semi_convex(self):
        # axis-aligned notch: exterior probes inside the notch escape upward
        pts = [(0, 0), (2, 0), (2, 2), (1.2, 2), (1.2, 0.8),
               (0.8, 0.8), (0.8, 2), (0, 2)]
        d = DomainSpec.polygon(pts)
        assert d.classify() == DomainKind.SEMI_CONVEX

    def test_keyhole_is_unsupported(self):
        # probes just below the keyhole's neck see the boundary along
        # every axis ray, so the exterior-ray test fails
        pts = [(0, 0), (3, 0), (3, 3), (1.6, 3), (1.6, 2), (2, 2), (2, 1),
               (1, 1), (1, 2), (1.4, 2), (1.4, 3), (0, 3)]
        d = DomainSpec.polygon(pts)
        assert d.classify() == DomainKind.UNSUPPORTED

    def test_self_intersecting_rejected(self):
        d = DomainSpec.polygon([(0, 0), (1, 1), (1, 0), (0, 1)])
        with pytest.raises(UnsupportedDomain):
            d.classify()

    def test_pentagon_from_family_is_convex(self):
        d = DomainSpec.polygon([(2, 0), (2, 2), (0.7, 2), (0, 0.7), (0, 0)])
        assert d.classify() == DomainKind.CONVEX


class TestContainment:
    def test_rectangle_inside_outside_boundary(self):
        d = DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
        assert int(d.contains(0.5, 0.5)) == 1
        assert int(d.contains(2.0, 0.5)) == -1
        assert int(d.contains(1.0, 0.5)) == 0

    def test_vectorized(self):
        d = DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
        xs = np.array([0.5, 2.0, 0.25])
        ys = np.array([0.5, 0.5, 0.75])
        out = d.contains(xs, ys)
        assert list(out) == [1, -1, 1]

    def test_polygon_interior(self):
        d = DomainSpec.polygon([(0, 0), (4, 0), (4, 4), (0, 4)])
        assert int(d.contains(2.0, 2.0)) == 1
        assert int(d.contains(-0.1, 2.0)) == -1

    def test_result_shape_follows_input(self):
        d = DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
        for x, y in [
            (0.5, 0.5),
            (np.float64(0.5), np.float64(0.5)),
            (np.array(0.5), np.array(0.5)),
        ]:
            out = d.contains(x, y)
            assert np.ndim(out) == 0
            assert int(out) == 1
        xs = np.array([0.5, 2.0, 1.0])
        out = d.contains(xs, np.array([0.5, 0.5, 0.5]))
        assert out.shape == (3,)
        assert list(out) == [1, -1, 0]
        # a scalar y broadcasts against a 1-D x
        assert list(d.contains(xs, 0.5)) == [1, -1, 0]


class TestMetrics:
    def test_bbox_and_diam(self):
        d = DomainSpec.polygon([(0, 0), (3, 0), (3, 4), (0, 4)])
        assert d.bbox == pytest.approx((0.0, 3.0, 0.0, 4.0))
        assert d.diam == pytest.approx(5.0)

    def test_chord_tol_scales_with_diameter(self):
        small = DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
        big = DomainSpec.rectangle(0.0, 100.0, 0.0, 100.0)
        assert big.chord_tol > small.chord_tol


class TestProjection:
    def test_axis_ray_hits_nearest_boundary(self):
        d = DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
        px, py = d.project(2.0, 0.5, "x-")
        assert px == pytest.approx(1.0, abs=1e-9)
        assert py == pytest.approx(0.5, abs=1e-9)

    def test_axis_ray_misses(self):
        d = DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
        assert d.project(2.0, 0.5, "x+") is None


class TestSlices:
    HEXAGON = [(-1.2, 0.0), (-0.9, -0.5), (0.9, -0.5), (1.2, 0.0),
               (0.9, 0.5), (-0.9, 0.5)]

    def test_horizontal_slices(self):
        # the hexagon cut at its vertex heights is two trapezoids, one
        # per band; their sides give the ends of the horizontal slices
        d = DomainSpec.polygon(self.HEXAGON)
        cuts, bands = d.trapezoids()
        assert list(cuts) == [-0.5, 0.0, 0.5]
        assert [b.shape for b in bands] == [(1, 2), (1, 2)]
        # heights past a band's ends clamp to them; the top is a flat edge
        (left, right), = bands[1]
        t = np.array([0.0, 0.25, 0.5, 2.0])
        assert d.edge_x(left, t) == pytest.approx([-1.2, -1.05, -0.9, -0.9])
        assert d.edge_x(right, t) == pytest.approx([1.2, 1.05, 0.9, 0.9])
        (left, right), = bands[0]
        assert d.edge_x(left, -0.5) == pytest.approx(-0.9)
        assert d.edge_x(right, -0.5) == pytest.approx(0.9)

    def test_notch_splits_the_bands_above_its_tip(self):
        # a V notch in the top side: one trapezoid below its tip, two
        # side by side above it
        d = DomainSpec.polygon([(0, 0), (2, 0), (2, 2), (1.6, 2),
                                (1.3, 0.9), (1.0, 2), (0, 2)])
        cuts, bands = d.trapezoids()
        assert list(cuts) == [0.0, 0.9, 2.0]
        assert [len(b) for b in bands] == [1, 2]
        sides = [float(d.edge_x(e, 1.5)) for e in bands[1].ravel()]
        assert sides == pytest.approx([0.0, 1.0 + 0.3 * 0.5 / 1.1,
                                       1.6 - 0.3 * 0.5 / 1.1, 2.0])
        (left, right), = bands[0]
        assert (d.edge_x(left, 0.5), d.edge_x(right, 0.5)) == (0.0, 2.0)

    def test_vertical_slices(self):
        d = DomainSpec.polygon(self.HEXAGON)
        lo, hi = d.slice_bounds(np.array([-1.2, -1.05, 0.0, 1.2]))
        assert lo == pytest.approx([0.0, -0.25, -0.5, 0.0])
        assert hi == pytest.approx([0.0, 0.25, 0.5, 0.0])

    def test_slab_extent_includes_vertices_inside_the_slab(self):
        diamond = DomainSpec.polygon([(0, -1), (1, 0), (0, 1), (-1, 0)])
        lo, hi = diamond.slab_extent(np.array([-0.5, 0.25, -1.0]),
                                     np.array([0.5, 0.75, -1.0]))
        assert lo == pytest.approx([-1.0, -0.75, 0.0])
        assert hi == pytest.approx([1.0, 0.75, 0.0])


def _ray_test_one_probe_at_a_time(d):
    """Reference for DomainSpec._semi_convex_ray_test: the same probes,
    located and ray-tested one at a time."""
    v = d.vertices
    samples = np.concatenate([v, 0.5 * (v + np.roll(v, -1, axis=0))])
    if len(samples) > 256:
        samples = samples[:: len(samples) // 256]
    eps = 64.0 * d.chord_tol + 1e-9 * d.diam
    for px, py in samples:
        for ox, oy in [(1, 0), (-1, 0), (0, 1), (0, -1),
                       (1, 1), (1, -1), (-1, 1), (-1, -1)]:
            sx, sy = px + ox * eps, py + oy * eps
            if int(d.contains(sx, sy)) != -1:
                continue
            if all(d.project(sx, sy, k) is not None
                   for k in ("x+", "x-", "y+", "y-")):
                return False
    return True


def test_ray_test_matches_one_probe_at_a_time():
    rng = np.random.default_rng(4)
    seen = set()
    for _ in range(40):
        # random star-shaped polygons: simple, often not convex
        n = int(rng.integers(5, 13))
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        radii = rng.uniform(0.2, 2.0, n)
        d = DomainSpec.polygon(np.column_stack(
            [radii * np.cos(angles), 0.7 * radii * np.sin(angles)]))
        want = _ray_test_one_probe_at_a_time(d)
        assert d._semi_convex_ray_test() == want
        seen.add(want)
    assert seen == {True, False}


def _self_intersecting_pairwise(d):
    """Reference for DomainSpec._is_self_intersecting: every pair of
    edges that share no vertex, one pair at a time."""
    def orient(a, b, c):
        return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])

    p = d.vertices
    q = np.roll(p, -1, axis=0)
    n = len(p)
    for i in range(n):
        for j in range(i + 1, n):
            if (j + 1) % n == i or (i + 1) % n == j:
                continue
            d1 = orient(p[j], q[j], p[i])
            d2 = orient(p[j], q[j], q[i])
            d3 = orient(p[i], q[i], p[j])
            d4 = orient(p[i], q[i], q[j])
            if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
                return True
    return False


def test_self_intersection_matches_pairwise_loop():
    rng = np.random.default_rng(11)
    seen = set()
    for k in range(120):
        n = int(rng.integers(3, 25))
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
        radii = rng.uniform(0.2, 2.0, n)
        pts = np.column_stack([radii * np.cos(angles), radii * np.sin(angles)])
        if k % 3 == 1:
            pts = pts[rng.permutation(n)]  # mostly self-intersecting
        elif k % 3 == 2:
            # small integer grid: collinear and touching edges, exact zeros
            pts = rng.integers(0, 4, (n, 2)).astype(float)
        try:
            d = DomainSpec.polygon(pts)
        except UnsupportedDomain:
            continue
        want = _self_intersecting_pairwise(d)
        assert d._is_self_intersecting() == want
        seen.add(want)
    assert seen == {True, False}


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(5, 12),
    seed=st.integers(0, 10_000),
)
def test_random_convex_polygons_classify_convex(n, seed):
    rng = np.random.default_rng(seed)
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    if np.min(np.diff(angles)) < 1e-3:
        angles = np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)
    radii = rng.uniform(0.5, 2.0)
    pts = [(radii * np.cos(a), 0.7 * radii * np.sin(a)) for a in angles]
    d = DomainSpec.polygon(pts)
    assert d.classify() in (DomainKind.CONVEX, DomainKind.RECTANGLE)
    cx = float(np.mean([p[0] for p in pts]))
    cy = float(np.mean([p[1] for p in pts]))
    assert int(d.contains(cx, cy)) >= 0
