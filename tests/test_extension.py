import json

import numpy as np
import pytest
from test_stability import _notched_square_case

from monomap.errors import (
    NonMonotoneInducedEdge,
    OutsideRect,
    SectorOrderViolation,
    UnsupportedDomain,
)
from monomap.examples import make_eq8
from monomap.extension import (
    ExtendedMap,
    audit_extension,
    extend,
    extend_rectangle,
)
from monomap.geometry import DomainSpec
from monomap.map_model import (
    Box,
    DEC_INC,
    INC_DEC,
    Direction,
    MapSpec,
    MonotoneSignature,
)
from monomap.report import dumps_json


def _random_convex_case(rng):
    """A convex polygon with vertices on a random ellipse and a rational
    map of either mixed signature, as in acceptance criterion 4."""
    n = int(rng.integers(5, 13))
    angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    while np.min(np.diff(np.append(angles, angles[0] + 2 * np.pi))) < 0.1:
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
    rx, ry = rng.uniform(0.5, 2.0, 2)
    rot = rng.uniform(0.0, np.pi)
    centre = rng.uniform(2.5, 4.0, 2)
    ex, ey = rx * np.cos(angles), ry * np.sin(angles)
    pts = centre + np.column_stack([ex * np.cos(rot) - ey * np.sin(rot),
                                    ex * np.sin(rot) + ey * np.cos(rot)])
    domain = DomainSpec.polygon(pts)
    q = rng.uniform(0.2, 2.0)
    p, r = q * rng.uniform(0.1, 1.0), rng.uniform(0.2, 2.0)
    if rng.integers(0, 2):
        func, sig = (lambda x, y: (p + q * y) / (1.0 + y + r * x)), DEC_INC
    else:
        func, sig = (lambda x, y: (p + q * x) / (1.0 + x + r * y)), INC_DEC
    return MapSpec(func, sig, Box(*domain.bbox)), domain


# a flat bottom edge whose left end is the leftmost vertex, in the
# engine's frame (dec_inc) and, mirrored, in the swapped one (inc_dec)
_FLAT_BOTTOM_CASES = [
    (lambda x, y: (1.0 + y) / (1.0 + x), DEC_INC, [(0, 0), (1, 0), (1, 1)]),
    (lambda x, y: (1.0 + y) / (1.0 + x), DEC_INC,
     [(0, 0), (1, 0), (1.2, 1), (0.4, 1.2)]),
    (lambda x, y: (1.0 + x) / (1.0 + y), INC_DEC, [(0, 0), (1, 1), (0, 1)]),
    (lambda x, y: y - x * x, DEC_INC, [(0, 0), (1, 0), (1, 1)]),
]


def _flat_bottom_case(k):
    func, sig, verts = _FLAT_BOTTOM_CASES[k]
    domain = DomainSpec.polygon(verts)
    return MapSpec(func, sig, Box(*domain.bbox)), domain


class TestRectangleExtension:
    def test_is_the_base_map(self, eq7_ext):
        spec = eq7_ext.base
        for x, y in [(0.2, 0.8), (0.0, 0.0), (1.0, 1.0)]:
            assert eq7_ext.eval(x, y) == pytest.approx(
                float(spec(x, y)), abs=1e-14
            )

    def test_outside_rect_raises(self, eq7_ext):
        with pytest.raises(OutsideRect):
            eq7_ext.eval(2.0, 0.5)

    def test_audit_passes(self, eq7_ext):
        audit = audit_extension(eq7_ext, rng=np.random.default_rng(0))
        assert audit.all_ok


class TestConvexExtension:
    def test_agrees_with_base_inside(self, eq8_ext, rng):
        spec = eq8_ext.base
        domain = eq8_ext.domain
        x0, x1, y0, y1 = domain.bbox
        n = 0
        while n < 300:
            x = rng.uniform(x0, x1)
            y = rng.uniform(y0, y1)
            if int(domain.contains(x, y)) != 1:
                continue
            n += 1
            assert eq8_ext.eval(x, y) == pytest.approx(
                float(spec(x, y)), abs=1e-12
            )

    def test_outside_value_pins_to_boundary(self, eq8_ext):
        # the point (0.1, b) lies left of the pentagon; its value is the
        # base map at the horizontal boundary hit with the same y
        got = eq8_ext.eval(0.1, 6.2)
        assert got == pytest.approx(0.0011093502377179099, abs=1e-15)

    def test_range_stays_within_base_range(self, eq8_ext, rng):
        lo, hi = eq8_ext.base_range
        x0, x1, y0, y1 = eq8_ext.rect.as_tuple()
        xs = rng.uniform(x0, x1, 2000)
        ys = rng.uniform(y0, y1, 2000)
        vals = np.array([eq8_ext.eval(x, y) for x, y in zip(xs, ys)])
        assert vals.min() >= lo - 1e-9 * (hi - lo + 1.0)
        assert vals.max() <= hi + 1e-9 * (hi - lo + 1.0)

    def test_audit_passes(self, eq8_ext):
        audit = audit_extension(eq8_ext, rng=np.random.default_rng(0))
        assert audit.all_ok
        assert audit.n_monotone_violations == 0
        assert audit.max_disagreement <= 1e-12

    def test_monotone_along_axes(self, eq8_ext):
        x0, x1, y0, y1 = eq8_ext.rect.as_tuple()
        xs = np.linspace(x0, x1, 80)
        for y in np.linspace(y0, y1, 9):
            vals = [eq8_ext.eval(x, y) for x in xs]
            assert np.all(np.diff(vals) >= -1e-9)
        ys = np.linspace(y0, y1, 80)
        for x in np.linspace(x0, x1, 9):
            vals = [eq8_ext.eval(x, y) for y in ys]
            assert np.all(np.diff(vals) <= 1e-9)


class TestFlatBottom:
    """On a flat bottom edge that starts at the leftmost vertex the left
    wall sits at that vertex, so the edge lies in the base zone."""

    @pytest.mark.parametrize("k", range(len(_FLAT_BOTTOM_CASES)))
    def test_extension_is_f_on_the_boundary_and_audits(self, k):
        spec, domain = _flat_bottom_case(k)
        ext = extend(spec, domain)
        audit = audit_extension(ext, rng=np.random.default_rng(k))
        # y - x^2 peaks inside an edge, which the sampled range misses,
        # so its range check fails; that is a defect of the range check
        assert audit.continuity_ok and audit.agreement_ok
        assert audit.monotone_ok and audit.n_monotone_violations == 0
        if k < 3:
            assert audit.all_ok
        v = domain.vertices
        t = np.linspace(0.0, 1.0, 41)[:, None, None]
        edge = (v + t * (np.roll(v, -1, axis=0) - v)).reshape(-1, 2)
        lo, hi = ext.base_range
        np.testing.assert_allclose(
            ext.eval(edge[:, 0], edge[:, 1]), spec(edge[:, 0], edge[:, 1]),
            rtol=0, atol=1e-14 * max(1.0, hi - lo))


class TestSwappedSignature:
    def test_dec_inc_map_extends_in_native_frame(self):
        func = lambda x, y: (1.0 + y) / (1.0 + x + y)
        spec = MapSpec(func, DEC_INC, Box(0.0, 1.0, 0.0, 1.0))
        d = DomainSpec.polygon([(0, 0), (1, 0), (1, 0.7), (0.4, 1), (0, 1)])
        ext = extend(spec, d)
        assert not ext.swapped
        assert ext.eval(0.2, 0.3) == pytest.approx(
            func(0.2, 0.3), abs=1e-12
        )
        audit = audit_extension(ext, rng=np.random.default_rng(1))
        assert audit.all_ok

    def test_inc_dec_map_extends_via_coordinate_swap(self, eq8_ext):
        assert eq8_ext.swapped


class TestSemiConvex:
    def test_bitten_domain_extends_and_audits(self):
        pts = [(0, 0), (2, 0), (2, 2), (1.4, 2), (1.0, 1.3), (0.6, 2), (0, 2)]
        d = DomainSpec.polygon(pts)
        func = lambda x, y: (1.0 + x) / (1.0 + x + y)
        spec = MapSpec(func, INC_DEC, Box(0.0, 2.0, 0.0, 2.0))
        ext = extend(spec, d)
        audit = audit_extension(ext, rng=np.random.default_rng(2))
        assert audit.all_ok

    def test_wedge_domain_extends_and_audits(self):
        d = DomainSpec.polygon([(0, 0), (1, 0), (0.2, 0.2), (0, 1)])
        func = lambda x, y: (1.0 + x) / (1.0 + x + y)
        spec = MapSpec(func, INC_DEC, Box(0.0, 1.0, 0.0, 1.0))
        ext = extend(spec, d)
        audit = audit_extension(ext, rng=np.random.default_rng(6))
        assert audit.all_ok

    def test_unsupported_boundary_chain_rejected(self):
        # the bite faces sideways, so a boundary chain loses monotonicity
        pts = [(0, 0), (2, 0), (2, 0.6), (1.3, 1.0), (2, 1.4), (2, 2), (0, 2)]
        d = DomainSpec.polygon(pts)
        func = lambda x, y: (1.0 + x) / (1.0 + x + y)
        spec = MapSpec(func, INC_DEC, Box(0.0, 2.0, 0.0, 2.0))
        with pytest.raises(UnsupportedDomain):
            extend(spec, d)

    def test_u_notch_rejected_by_sector_fill(self):
        # a deep axis-aligned notch classifies semi-convex, but the
        # boundary values along its sector arc are not monotone
        pts = [(0, 0), (2, 0), (2, 2), (1.2, 2), (1.2, 0.8),
               (0.8, 0.8), (0.8, 2), (0, 2)]
        d = DomainSpec.polygon(pts)
        func = lambda x, y: (1.0 + x) / (1.0 + x + y)
        spec = MapSpec(func, INC_DEC, Box(0.0, 2.0, 0.0, 2.0))
        with pytest.raises(NonMonotoneInducedEdge):
            extend(spec, d)


class TestSerialization:
    def test_round_trip_is_exact(self, eq8_ext, rng):
        data = eq8_ext.to_dict()
        loaded = ExtendedMap.from_dict(data, eq8_ext.base)
        x0, x1, y0, y1 = eq8_ext.rect.as_tuple()
        xs = rng.uniform(x0, x1, 500)
        ys = rng.uniform(y0, y1, 500)
        for x, y in zip(xs, ys):
            assert loaded.eval(x, y) == eq8_ext.eval(x, y)

    def test_loaded_extension_audits(self, eq8_ext):
        loaded = ExtendedMap.from_dict(eq8_ext.to_dict(), eq8_ext.base)
        np.testing.assert_array_equal(loaded.domain.vertices,
                                      eq8_ext.domain.vertices)
        assert loaded.domain.chord_tol == eq8_ext.domain.chord_tol
        audit = audit_extension(loaded, rng=np.random.default_rng(3))
        assert audit.all_ok
        assert audit.to_dict() == audit_extension(
            eq8_ext, rng=np.random.default_rng(3)).to_dict()

    def test_loaded_extension_audit_catches_corrupted_values(self, eq8_ext):
        # raise the boundary values the north-west zone takes its maximum
        # over and lower those the south-east zone takes its minimum over
        data = json.loads(dumps_json(eq8_ext.to_dict()))
        tables = data["engine"]["tables"]
        tables["nw"]["fs"] = [v + 1.0 for v in tables["nw"]["fs"]]
        tables["se"]["fs"] = [v - 1.0 for v in tables["se"]["fs"]]
        loaded = ExtendedMap.from_dict(data, eq8_ext.base)
        audit = audit_extension(loaded, rng=np.random.default_rng(3))
        assert not audit.nice_ok
        assert audit.range_inflation == pytest.approx(1.0)

    @pytest.mark.parametrize("side", range(4))
    def test_rectangle_must_be_the_domain_bounding_box(self, eq8_ext, side):
        # extend only builds the bounding box; a stored rectangle grown
        # on any side is refused, not evaluated
        data = json.loads(dumps_json(eq8_ext.to_dict()))
        data["rect"][side] += 0.5 if side % 2 else -0.5
        with pytest.raises(ValueError, match="bounding box"):
            ExtendedMap.from_dict(data, eq8_ext.base)

    def test_loaded_rectangle_has_no_domain(self, eq7_ext):
        loaded = ExtendedMap.from_dict(eq7_ext.to_dict(), eq7_ext.base)
        assert loaded.domain is None and loaded.engine is None

    def test_seeded_round_trips_are_bitwise(self):
        # the loaded engine rebuilds its walls and pieces from the stored
        # tables and sectors; both must match the built ones exactly
        rng = np.random.default_rng(20261018)
        cases = [_random_convex_case(rng) for _ in range(12)]
        cases += [_notched_square_case(rng, k) for k in range(24)]
        seen = set()
        for k, (spec, domain) in enumerate(cases):
            ext = extend(spec, domain)
            d = json.loads(dumps_json(ext.to_dict()))
            loaded = ExtendedMap.from_dict(d, spec)
            assert json.loads(dumps_json(loaded.to_dict())) == d, k
            x0, x1, y0, y1 = ext.rect.as_tuple()
            X, Y = np.meshgrid(np.linspace(x0, x1, 151),
                               np.linspace(y0, y1, 151), indexing="ij")
            v = domain.vertices
            t = np.linspace(0.0, 1.0, 41)[:, None, None]
            edge = (v + t * (np.roll(v, -1, axis=0) - v)).reshape(-1, 2)
            x = np.concatenate([X.ravel(), edge[:, 0]])
            y = np.concatenate([Y.ravel(), edge[:, 1]])
            np.testing.assert_array_equal(loaded.eval(x, y), ext.eval(x, y),
                                          err_msg=str(k))
            seen.add((spec.signature, len(ext.engine.sectors) > 0))
        # convex and notched cases of both signatures took part
        assert seen == {(sig, notched) for sig in (INC_DEC, DEC_INC)
                        for notched in (False, True)}

    def test_schema_version_present(self, eq8_ext):
        assert "schema_version" in eq8_ext.to_dict()


def _zone_probe_points(engine, rng):
    """Canonical-frame points around an engine: a seeded grid over its
    rectangle, the wall knots and the boundary vertices, and points one
    ulp either side of each wall, at its knots and between them."""
    r = engine.rect
    gx = rng.uniform(r.x0, r.x1, 400)
    gy = rng.uniform(r.y0, r.y1, 400)
    X, Y = np.meshgrid(np.linspace(r.x0, r.x1, 61), np.linspace(r.y0, r.y1, 61))
    xs = [gx, X.ravel(), engine.omega[:, 0]]
    ys = [gy, Y.ravel(), engine.omega[:, 1]]
    for kx, ky in ((engine.wall_left_x, engine.wall_left_y),
                   (engine.wall_right_x, engine.wall_right_y)):
        mid_y = 0.5 * (ky[:-1] + ky[1:])
        wall_y = np.concatenate([ky, mid_y])
        wall_x = np.concatenate([kx, np.interp(mid_y, ky, kx)])
        for x in (wall_x, np.nextafter(wall_x, -np.inf),
                  np.nextafter(wall_x, np.inf)):
            xs.append(x)
            ys.append(wall_y)
        for y in (np.nextafter(ky, -np.inf), np.nextafter(ky, np.inf)):
            xs.append(kx)
            ys.append(y)
    return np.concatenate(xs), np.concatenate(ys)


class TestOnePointZoneTest:
    """_Engine.is_base answers classify's base-zone question for one
    point, on floats; in a sector's x range it answers False and leaves
    the point to eval."""

    def test_matches_classify(self):
        from monomap.extension import _Z_BASE

        rng = np.random.default_rng(20261019)
        cases = [_random_convex_case(rng) for _ in range(8)]
        cases += [_notched_square_case(rng, k) for k in range(16)]
        cases += [_flat_bottom_case(k) for k in range(len(_FLAT_BOTTOM_CASES))]
        seen = set()
        for k, (spec, domain) in enumerate(cases):
            ext = extend(spec, domain)
            loaded = ExtendedMap.from_dict(
                json.loads(dumps_json(ext.to_dict())), spec)
            for engine in (ext.engine, loaded.engine):
                x, y = _zone_probe_points(engine, rng)
                want = engine.classify(x, y) == _Z_BASE
                spans = engine._sector_spans
                in_sector = np.zeros(x.shape, dtype=bool)
                for lo, hi in spans:
                    in_sector |= (x >= lo) & (x <= hi)
                got = np.array([engine.is_base(a, b)
                                for a, b in zip(x.tolist(), y.tolist())])
                np.testing.assert_array_equal(got, want & ~in_sector,
                                              err_msg=str(k))
                assert want.any() and (~want).any()
            seen.add((spec.signature, len(ext.engine.sectors) > 0))
        assert seen == {(sig, notched) for sig in (INC_DEC, DEC_INC)
                        for notched in (False, True)}

    def test_extended_map_swaps_and_checks_the_rectangle(self, eq8_ext, rng):
        # where is_base says yes, eval is F itself, bit for bit; a point
        # off the rectangle, which eval clamps, is never base
        r = eq8_ext.rect
        x = rng.uniform(r.x0, r.x1, 3000)
        y = rng.uniform(r.y0, r.y1, 3000)
        base = np.array([eq8_ext.is_base(a, b)
                         for a, b in zip(x.tolist(), y.tolist())])
        assert 0.2 < base.mean() < 1.0
        np.testing.assert_array_equal(eq8_ext.eval(x[base], y[base]),
                                      eq8_ext.base(x[base], y[base]))
        assert not base[~np.asarray(eq8_ext.domain.contains(x, y) >= 0)].any()
        pad = 1e-12 * r.diam
        for a, b in ((r.x0 - pad, 0.5), (0.5, r.y1 + pad)):
            assert not eq8_ext.is_base(a, b)

    def test_rectangle_extension_is_base_on_its_box(self, eq7_ext):
        assert eq7_ext.is_base(0.0, 1.0) and eq7_ext.is_base(0.3, 0.6)
        assert not eq7_ext.is_base(np.nextafter(1.0, 2.0), 0.5)
        assert not eq7_ext.is_base(0.5, np.nan)


def _even_odd(x, y, poly):
    """Even-odd ray casting over every point and every edge."""
    inside = np.zeros(x.shape, dtype=bool)
    x0s, y0s = poly[:, 0], poly[:, 1]
    x1s, y1s = np.roll(x0s, -1), np.roll(y0s, -1)
    for ex0, ey0, ex1, ey1 in zip(x0s, y0s, x1s, y1s):
        cond = (ey0 > y) != (ey1 > y)
        with np.errstate(divide="ignore", invalid="ignore"):
            xi = ex0 + (y - ey0) * (ex1 - ex0) / (ey1 - ey0)
        inside ^= cond & (x < xi)
    return inside


class TestSectorZones:
    def test_matches_full_array_sector_test(self):
        # a point of the base zone goes to sector k when sector k's
        # polygon holds it and the domain does not; the even-odd test
        # here runs on every base point, not only on the sector's hits
        from monomap.extension import _Z_BASE, _Z_SECTOR

        rng = np.random.default_rng(20261020)
        cases = [_random_convex_case(rng) for _ in range(8)]
        cases += [_notched_square_case(rng, k) for k in range(16)]
        seen = set()
        for k, (spec, domain) in enumerate(cases):
            ext = extend(spec, domain)
            loaded = ExtendedMap.from_dict(
                json.loads(dumps_json(ext.to_dict())), spec)
            for engine in (ext.engine, loaded.engine):
                x, y = _zone_probe_points(engine, rng)
                got = engine.classify(x, y)
                want = got.copy()
                base = (got == _Z_BASE) | (got >= _Z_SECTOR)
                xb, yb = x[base], y[base]
                sub = np.full(xb.shape, _Z_BASE)
                for j, s in enumerate(engine.sectors):
                    hit = s.contains(xb, yb) & (sub == _Z_BASE)
                    sub[hit & ~_even_odd(xb, yb, engine.omega)] = (
                        _Z_SECTOR + j)
                want[base] = sub
                np.testing.assert_array_equal(got, want, err_msg=str(k))
                seen.add((spec.signature, bool(engine.sectors),
                          bool((got >= _Z_SECTOR).any())))
        assert seen == {(INC_DEC, False, False), (DEC_INC, False, False),
                        (INC_DEC, True, True), (DEC_INC, True, True)}


class TestNegativeControls:
    def test_oscillating_boundary_values_rejected(self):
        # not actually monotone: boundary values oscillate along an arc
        func = lambda x, y: np.sin(9.0 * x) + 0.0 * y
        spec = MapSpec(func, INC_DEC, Box(0.0, 2.0, 0.0, 2.0))
        d = DomainSpec.polygon([(0, 0), (2, 0), (2, 1.4), (1, 2), (0, 2)])
        with pytest.raises(
            (NonMonotoneInducedEdge, SectorOrderViolation, UnsupportedDomain)
        ):
            ext = extend(spec, d)
            audit = audit_extension(ext, rng=np.random.default_rng(4))
            assert not audit.all_ok
            raise UnsupportedDomain("caught by audit instead of builder")

    def test_wrong_signature_fails_audit(self):
        func = lambda x, y: (1.0 + x) / (1.0 + x + y)
        spec = MapSpec(func, DEC_INC, Box(0.0, 1.0, 0.0, 1.0))
        ext = extend_rectangle(spec, Box(0.0, 1.0, 0.0, 1.0))
        audit = audit_extension(ext, rng=np.random.default_rng(5))
        assert not audit.all_ok
        assert audit.n_monotone_violations > 0
        # the worst violation is the fall in y, declared increasing, from
        # the grid point (0, 0): F(0, h) - F(0, 0) = -1/100 for h = 1/99
        x, y, worst = audit.to_dict()["witnesses"]["monotone"]
        h = 1.0 / 99
        assert (x, y) == (0.0, 0.0)
        assert worst == pytest.approx(func(x, y + h) - func(x, y), rel=1e-12)
        assert worst < 0

    def test_monotone_witness_is_a_real_violation(self):
        # declared decreasing in both: only x is violated, worst along y = 1
        func = lambda x, y: (1.0 + x) / (1.0 + x + y)
        sig = MonotoneSignature(Direction.DECREASING, Direction.DECREASING)
        spec = MapSpec(func, sig, Box(0.0, 1.0, 0.0, 1.0))
        ext = extend_rectangle(spec, Box(0.0, 1.0, 0.0, 1.0))
        audit = audit_extension(ext, rng=np.random.default_rng(5))
        assert not audit.monotone_ok
        x, y, worst = audit.to_dict()["witnesses"]["monotone"]
        h = 1.0 / 99
        assert y > 0
        assert func(x + h, y) - func(x, y) > 0
        assert worst == pytest.approx(-(func(x + h, y) - func(x, y)), rel=1e-12)
