import collections

import numpy as np
import pytest
from test_embedding import _rising_in_y

import monomap.fixed_points as fp
import monomap.stability as stab
from monomap.embedding import EmbeddedSystem
from monomap.enclosure import corner_ranges
from monomap.errors import NonFiniteValue
from monomap.examples import eq7_equilibrium, make_eq7, make_eq8
from monomap.geometry import DomainKind, DomainSpec
from monomap.map_model import Box, DEC_INC, INC_DEC, MapSpec
from monomap.stability import (
    GLOBALLY_STABLE,
    INCONCLUSIVE,
    REFUTED,
    certify,
    iterate_orbit,
    verify_invariance,
)


def _outside_by(domain, x, y):
    """A lower bound on how far (x, y) lies outside a convex domain: the
    largest distance past one of its edge lines (negative inside)."""
    v = domain.vertices
    d = np.roll(v, -1, axis=0) - v
    left = d[:, 0] * (y - v[:, 1]) - d[:, 1] * (x - v[:, 0])
    return float(np.max(-left / np.hypot(d[:, 0], d[:, 1])))


def _assert_real_witness(spec, domain, res):
    """The witness lies in the domain and its image T(w) = (F(w), w_x)
    lies outside it by more than the proof's tolerance."""
    assert not res.verified
    assert res.witness is not None
    x, y = res.witness
    assert _outside_by(domain, x, y) <= 1e-12 * domain.diam
    assert _outside_by(domain, float(spec(x, y)), x) > 4 * domain.chord_tol


def _winding(domain, x, y):
    """Winding number of the domain's boundary around (x, y), from the
    sum of the angles its edges subtend there."""
    a = domain.vertices - (x, y)
    b = np.roll(a, -1, axis=0)
    cross = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    dot = (a * b).sum(axis=1)
    return round(float(np.arctan2(cross, dot).sum()) / (2 * np.pi))


def _boundary_distance(domain, x, y):
    """Distance from (x, y) to the domain's boundary."""
    a = domain.vertices
    d = np.roll(a, -1, axis=0) - a
    t = np.clip(((x - a[:, 0]) * d[:, 0] + (y - a[:, 1]) * d[:, 1])
                / (d * d).sum(axis=1), 0.0, 1.0)
    return float(np.hypot(x - a[:, 0] - t * d[:, 0],
                          y - a[:, 1] - t * d[:, 1]).min())


def _assert_real_exit(spec, domain, res):
    """_assert_real_witness for any polygon: the witness lies in the
    domain (or on its boundary), and its image lies outside it, farther
    than the proof's tolerance from the boundary."""
    assert not res.verified
    assert res.witness is not None
    x, y = res.witness
    assert (_winding(domain, x, y) == 1
            or _boundary_distance(domain, x, y) <= 1e-12 * domain.diam)
    fx = float(spec(x, y))
    assert _winding(domain, fx, x) == 0
    assert _boundary_distance(domain, fx, x) > 4 * domain.chord_tol


def _shift_edge(vertices, i, dist):
    """The convex polygon with edge i moved inward by dist, its ends slid
    along the neighbouring edges."""
    v = np.asarray(vertices, dtype=float)
    n = len(v)
    a, b = v[i], v[(i + 1) % n]
    d = b - a
    inward = np.array([-d[1], d[0]]) / np.hypot(*d)  # left of a ccw edge
    p = a + dist * inward

    def meet(q, e):  # the shifted edge line meets the line q + s e
        s = np.linalg.solve(np.array([d, -e]).T, q - p)
        return p + s[0] * d

    w = v.copy()
    w[i] = meet(v[i - 1], a - v[i - 1])
    w[(i + 1) % n] = meet(b, v[(i + 2) % n] - b)
    return w


_DEC_INC = MapSpec(lambda x, y: (1 + y) / (1 + x + y), DEC_INC,
                   Box(0.0, 1.0, 0.0, 1.0), name="dec_inc")


class TestInvariance:
    def test_eq8_pentagon_is_invariant(self, eq8_problem):
        spec, domain = eq8_problem
        res = verify_invariance(spec, domain)
        assert res.verified
        assert res.method == "MonotoneEnclosure"
        assert res.search["unproved"] == []
        assert res.to_dict()["search"]["stop"] == "proved"

    def test_eq7_square_takes_one_cell(self):
        res = verify_invariance(*make_eq7(0.5, 2.0, 4.0))
        assert res.verified
        assert (res.search["cells"], res.search["evaluations"]) == (1, 2)

    def test_shrunk_square_is_not_invariant(self, eq8_problem):
        spec, _ = eq8_problem
        small = DomainSpec.rectangle(0.0, 0.35, 0.0, 0.35)
        res = verify_invariance(spec, small)
        assert not res.verified
        assert res.witness is not None
        # the witness point really does leave the square
        x, y = res.witness
        fx = float(spec(x, y))
        assert not (0.0 <= fx <= 0.35 and 0.0 <= x <= 0.35) or fx > 0.35
        _assert_real_witness(spec, small, res)

    @pytest.mark.parametrize("edge", [1, 2, 3, 4])
    def test_pentagon_edge_moved_inward_fails(self, eq8_problem, edge):
        # every edge but the right side x = c carries images of the
        # pentagon; moved 1% of c inward, it lets some of them out
        spec, domain = eq8_problem
        c = domain.bbox[1]
        moved = DomainSpec.polygon(_shift_edge(domain.vertices, edge, 0.01 * c))
        assert moved.classify() == DomainKind.CONVEX
        res = verify_invariance(spec, moved)
        assert res.method == "MonotoneEnclosure"
        _assert_real_witness(spec, moved, res)

    @pytest.mark.parametrize("vertices", [
        [(0, 0), (1, 0), (1, 1), (0, 1)],
        # the image of (1, 0) is (1/2, 1), the top end of the cut edge
        [(0, 0), (1, 0), (1, 1), (0.5, 1), (0, 0.5)],
    ])
    def test_dec_inc_invariant(self, vertices):
        res = verify_invariance(_DEC_INC, DomainSpec.polygon(vertices))
        assert res.verified
        assert res.method == "MonotoneEnclosure"

    @pytest.mark.parametrize("vertices", [
        [(0, 0), (1, 0), (1, 1), (0.51, 1), (0, 0.49)],
        [(0, 0), (0.7, 0), (1, 0.3), (1, 1), (0, 1)],
    ])
    def test_dec_inc_not_invariant(self, vertices):
        domain = DomainSpec.polygon(vertices)
        _assert_real_witness(_DEC_INC, domain, verify_invariance(_DEC_INC, domain))

    def test_heights_above_the_domain_fail(self):
        # F maps into [0, 1], inside the wide rectangle's x-range, but an
        # image's height is its pre-image's x, up to 2 > 1
        spec = MapSpec(lambda x, y: (1 + x) / (2 + x + y), INC_DEC,
                       Box(0.0, 2.0, 0.0, 1.0))
        wide = DomainSpec.rectangle(0.0, 2.0, 0.0, 1.0)
        _assert_real_witness(spec, wide, verify_invariance(spec, wide))

    def test_heights_just_above_the_top_meet_the_top_band(self):
        # the x-range passes the top y = 1 by 3.6e-6, less than tol, so
        # a cell with 1 < x0 <= x1 has images just above the domain; its
        # heights are clipped to 1 and checked against the top band with
        # slack tol - (x1 - 1).  F leaves the x-range by up to 1.2e-6
        # near y = 0, within tol but past that slack, so those cells
        # fail down to the leaf width; unclipped, their heights would
        # cross no band and they would pass
        domain = DomainSpec.rectangle(0.9, 1.0 + 3.6e-6, 0.0, 1.0)
        tol = 4 * domain.chord_tol
        assert 3.6e-6 < tol < 3.6e-6 + 1.2e-6
        spec = MapSpec(lambda x, y: 1.0 + 4.8e-6 - 0.1 * y + 0.0 * x,
                       INC_DEC, Box(*domain.bbox))
        res = verify_invariance(spec, domain)
        assert not res.verified and res.witness is None
        search = res.search
        assert (search["stop"], search["cells"], search["depth"]) == (
            "min_width", 81, 18)
        assert len(search["unproved"]) == 6
        assert all(x0 > 1.0 for x0, _, _, _ in search["unproved"])

    def test_semi_convex_domain_is_proved(self):
        # a notch in the right side, past every image F <= 1
        domain = DomainSpec.polygon([(0, 0), (2, 0), (2, 0.6), (1.3, 1.0),
                                     (2, 1.4), (2, 2), (0, 2)])
        assert domain.classify() == DomainKind.SEMI_CONVEX
        spec = MapSpec(lambda x, y: (1 + x) / (1 + x + y), INC_DEC,
                       Box(0.0, 2.0, 0.0, 2.0))
        res = verify_invariance(spec, domain)
        assert res.verified
        assert res.method == "MonotoneEnclosure"
        assert res.search["stop"] == "proved"
        assert res.search["unproved"] == []
        assert "search" in res.to_dict()

    def test_thin_image_in_a_shallow_notch_fails(self):
        # the images (F, x) with F within 1e-8 of 1 are narrower than
        # the slack, and (F(2, 0), 2) lies inside the top notch
        domain = DomainSpec.polygon([(0, 0), (2, 0), (2, 2), (1.1, 2),
                                     (1.0, 1.5), (0.9, 2), (0, 2)])
        assert domain.classify() == DomainKind.SEMI_CONVEX
        spec = MapSpec(lambda x, y: 1 + 1e-9 * (x - y), INC_DEC,
                       Box(0.0, 2.0, 0.0, 2.0))
        res = verify_invariance(spec, domain)
        assert res.search["stop"] == "witness"
        assert res.witness == (2.0, 0.0)
        _assert_real_exit(spec, domain, res)

    def test_notched_square_certifies(self):
        domain = DomainSpec.polygon([(0, 0), (2, 0), (2, 2), (1.6, 2),
                                     (1.3, 0.9), (1.0, 2), (0, 2)])
        assert domain.classify() == DomainKind.SEMI_CONVEX
        spec = MapSpec(lambda x, y: (1 + x) / (1 + x + y), INC_DEC,
                       Box(0.0, 2.0, 0.0, 2.0))
        cert = certify(spec, domain)
        assert cert.verdict == GLOBALLY_STABLE
        assert cert.x_star == 0.7071067811865476
        assert cert.invariance.verified
        assert (cert.invariance.search["cells"],
                cert.invariance.search["evaluations"]) == (1, 2)

    def test_unproved_cells_fail_without_a_witness(self, eq8_problem,
                                                   monkeypatch):
        # a budget of a few cells stops the eq8 proof before it finishes
        monkeypatch.setattr(stab, "_MAX_INVARIANCE_CELLS", 8)
        res = verify_invariance(*eq8_problem)
        assert not res.verified
        assert res.witness is None
        assert res.search["stop"] == "cell_budget"
        assert res.search["unproved"]
        cert = certify(*eq8_problem)
        assert cert.verdict == INCONCLUSIVE
        assert cert.verdict_detail["stage"] == "invariance"
        assert "unproved" in cert.verdict_detail["reason"]

    def test_depth_is_the_deepest_level_evaluated(self, eq8_problem,
                                                  monkeypatch):
        # levels 0 and 1 (1 and 4 cells) are evaluated; 4 * 3 failing
        # cells would exceed the budget, so they are left unproved
        monkeypatch.setattr(stab, "_MAX_INVARIANCE_CELLS", 8)
        search = verify_invariance(*eq8_problem).search
        assert (search["cells"], search["depth"]) == (5, 1)
        assert len(search["unproved"]) == 3


def _random_invariance_case(rng, k):
    """Case k of the seeded suite: eq8 or eq7 on its own domain, or on
    that domain shrunk toward an inner point by up to 30%."""
    if k % 2:
        p = rng.uniform(0.5, 3.0)
        spec, domain = make_eq8(p, rng.uniform(0.05, 0.499))
    else:
        q = rng.uniform(0.5, 4.0)
        spec, domain = make_eq7(rng.uniform(0.05, 1.0) * q, q,
                                rng.uniform(0.1, 6.0))
    shrunk = (k // 2) % 2 == 1
    if shrunk:
        v = domain.vertices
        centre = v.mean(axis=0)
        domain = DomainSpec.polygon(
            centre + rng.uniform(0.7, 1.0) * (v - centre))
    return spec, domain, shrunk


def _slice_ends(domain, t):
    """Ends L(t), R(t) of a convex domain's slices at the heights t, the
    heights clamped to its y-range."""
    v = domain.vertices
    y0, x0 = v[:, 1], v[:, 0]
    y1, x1 = np.roll(y0, -1), np.roll(x0, -1)
    t = np.clip(np.asarray(t, dtype=float), y0.min(), y0.max())[..., None]
    dy = y1 - y0
    flat = dy == 0
    hit = (np.minimum(y0, y1) <= t) & (t <= np.maximum(y0, y1))
    s = np.clip((t - y0) / np.where(flat, 1.0, dy), 0.0, 1.0)
    x = x0 + s * (x1 - x0)
    lo = np.where(hit, np.where(flat, np.minimum(x0, x1), x), np.inf)
    hi = np.where(hit, np.where(flat, np.maximum(x0, x1), x), -np.inf)
    return lo.min(axis=-1), hi.max(axis=-1)


def _two_height_invariance(map_spec, domain):
    """Reference for verify_invariance on convex domains: the cell test
    checks the slice ends at the two ends h0, h1 of the cell's heights
    only, which suffices as L is convex and R concave.  Returns the
    search record and the witness."""
    tol = 4 * domain.chord_tol
    bx0, bx1, by0, by1 = domain.bbox
    sig = map_spec.signature.as_tuple()
    x0, x1 = np.array([bx0]), np.array([bx1])
    y0, y1 = np.array([by0]), np.array([by1])
    unproved = []
    witness = None
    depth = cells = evaluations = 0
    stop = "proved"
    while x0.size:
        lo, hi = domain.slab_extent(x0, x1)
        y0, y1 = np.maximum(y0, lo), np.minimum(y1, hi)
        meets = y0 <= y1
        x0, x1, y0, y1 = x0[meets], x1[meets], y0[meets], y1[meets]
        xs, ys, f = corner_ranges(map_spec, sig, x0, x1, y0, y1)
        cells += x0.size
        evaluations += f.size
        slack = tol - np.maximum(0.0, np.maximum(by0 - x0, x1 - by1))
        l0, r0 = _slice_ends(domain, x0)
        l1, r1 = _slice_ends(domain, x1)
        bad = ~((slack >= 0)
                & (f[0] >= np.maximum(l0, l1) - slack)
                & (f[1] <= np.minimum(r0, r1) + slack))
        if not bad.any():
            break
        cx, cy, fx = xs[:, bad].ravel(), ys[:, bad].ravel(), f[:, bad].ravel()
        out = ((domain.contains(cx, cy, tol=0.0) >= 0)
               & (domain.contains(fx, cx, tol=tol) < 0))
        if out.any():
            k = int(np.argmax(out))
            witness = (float(cx[k]), float(cy[k]))
            stop = "witness"
            break
        x0, x1, y0, y1 = x0[bad], x1[bad], y0[bad], y1[bad]
        left = np.maximum(x1 - x0, y1 - y0) < tol
        if 4 * x0.size > stab._MAX_INVARIANCE_CELLS:
            left[:], stop = True, "cell_budget"
        elif left.any():
            stop = "min_width"
        unproved += [[float(c) for c in box] for box in
                     zip(x0[left], x1[left], y0[left], y1[left])]
        x0, x1, y0, y1 = x0[~left], x1[~left], y0[~left], y1[~left]
        xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        x0, x1 = np.concatenate([x0, xm, x0, xm]), np.concatenate([xm, x1, xm, x1])
        y0, y1 = np.concatenate([y0, y0, ym, ym]), np.concatenate([ym, ym, y1, y1])
        depth += 1
    search = {"cells": cells, "evaluations": evaluations, "depth": depth,
              "tol": tol, "stop": stop, "unproved": unproved}
    return search, witness


def _eager_invariance(map_spec, domain):
    """Reference for verify_invariance on any semi-convex domain: the
    level loop that looks up the witness at every level that has failing
    cells and stops there, with the band-by-band trapezoid test.
    Returns the search record and the witness."""
    tol = 4 * domain.chord_tol
    bx0, bx1, by0, by1 = domain.bbox
    cuts, bands = domain.trapezoids()
    sig = map_spec.signature.as_tuple()

    def clip(cells):
        lo, hi = domain.slab_extent(cells[0], cells[1])
        cells[2], cells[3] = np.maximum(cells[2], lo), np.minimum(cells[3], hi)
        return cells[:, cells[2] <= cells[3]]

    def fits(h0, h1, f0, f1, slack):
        ok = slack >= 0
        f0, f1, slack = f0[:, None], f1[:, None], slack[:, None]
        for lo, hi, sides in zip(cuts[:-1], cuts[1:], bands):
            a, b = np.maximum(h0, lo), np.minimum(h1, hi)
            crossed = (a < b) | ((a == b) & (h0 == h1))
            x = domain.edge_x(sides, np.stack([a, b])[..., None, None])
            fit = ((f0 >= x[..., 0].max(axis=0) - slack)
                   & (f1 <= x[..., 1].min(axis=0) + slack))
            ok &= ~crossed | fit.any(axis=1)
        return ok

    cells = clip(np.array([[bx0], [bx1], [by0], [by1]]))
    leaves, stop, witness = [], "proved", None
    depth = n_cells = 0
    while True:
        x0, x1, y0, y1 = cells
        xs, ys, f = corner_ranges(map_spec, sig, x0, x1, y0, y1)
        n_cells += cells.shape[1]
        slack = tol - np.maximum(0.0, np.maximum(by0 - x0, x1 - by1))
        bad = ~fits(np.clip(x0, by0, by1), np.clip(x1, by0, by1), f[0], f[1],
                    slack)
        cx, cy, fx = xs[:, bad].ravel(), ys[:, bad].ravel(), f[:, bad].ravel()
        out = np.flatnonzero((domain.contains(cx, cy, tol=0.0) >= 0)
                             & (domain.contains(fx, cx, tol=tol) < 0))
        if out.size:
            witness, stop = (float(cx[out[0]]), float(cy[out[0]])), "witness"
            break
        cells = cells[:, bad]
        if 4 * cells.shape[1] > stab._MAX_INVARIANCE_CELLS:
            leaves += cells.T.tolist()
            stop = "cell_budget"
            break
        left = np.maximum(cells[1] - cells[0], cells[3] - cells[2]) < tol
        if left.any():
            leaves += cells[:, left].T.tolist()
            cells, stop = cells[:, ~left], "min_width"
        if not cells.shape[1]:
            break
        x0, x1, y0, y1 = cells
        xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        cells = clip(np.array([np.concatenate(r) for r in (
            [x0, xm, x0, xm], [xm, x1, xm, x1],
            [y0, y0, ym, ym], [ym, ym, y1, y1])]))
        depth += 1
    search = {"cells": n_cells, "evaluations": 2 * n_cells, "depth": depth,
              "tol": tol, "stop": stop, "unproved": leaves}
    return search, witness


def _counting_points(spec):
    """``spec`` with its map wrapped to count the points it is evaluated
    at, and the one-element list that holds the count."""
    count = [0]

    def func(x, y):
        count[0] += np.broadcast(x, y).size
        return spec.func(x, y)

    return MapSpec(func, spec.signature, spec.box, params=spec.params), count


def _sample_invariance(map_spec, domain, n_boundary, rng):
    """Reference check by sampling: n_boundary points per edge and
    n_boundary^2 interior points drawn by rejection from the bounding
    box.  Returns whether every image T(x, y) = (F(x, y), x) lies within
    4 * chord_tol of the domain."""
    v = domain.vertices
    w = np.roll(v, -1, axis=0)
    ts = np.linspace(0.0, 1.0, n_boundary, endpoint=False)[:, None]
    bx = (v[:, 0] + ts * (w[:, 0] - v[:, 0])).ravel()
    by = (v[:, 1] + ts * (w[:, 1] - v[:, 1])).ravel()
    x0, x1, y0, y1 = domain.bbox
    want = n_boundary * n_boundary
    ix, iy = np.empty(0), np.empty(0)
    while len(ix) < want:
        cx = rng.uniform(x0, x1, 2 * want)
        cy = rng.uniform(y0, y1, 2 * want)
        keep = domain.contains(cx, cy) >= 0
        ix, iy = np.concatenate([ix, cx[keep]]), np.concatenate([iy, cy[keep]])
    sx = np.concatenate([bx, ix[:want]])
    sy = np.concatenate([by, iy[:want]])
    tx = np.asarray(map_spec(sx, sy), dtype=float)
    return bool(np.all(domain.contains(tx, sx, tol=4 * domain.chord_tol) >= 0))


class TestInvarianceRandomized:
    """The proof never passes where the sampled check finds an image
    outside, and every witness it gives is real."""

    def test_proof_agrees_with_sampling(self):
        rng = np.random.default_rng(20261018)
        outcomes = {"proved": 0, "witness": 0}
        for k in range(200):
            spec, domain, shrunk = _random_invariance_case(rng, k)
            proof = verify_invariance(spec, domain)
            sampled = _sample_invariance(spec, domain, 40,
                                         np.random.default_rng(k))
            assert not (proof.verified and not sampled), (k, spec.params)
            if proof.witness is not None:
                _assert_real_witness(spec, domain, proof)
                outcomes["witness"] += 1
            elif not shrunk:
                assert proof.verified, (k, spec.params, proof.search)
            outcomes["proved"] += proof.verified
        # both outcomes are exercised
        assert outcomes["proved"] >= 100 and outcomes["witness"] >= 20, outcomes

    def test_convex_record_matches_two_height_reference(self):
        # on a convex domain each band holds one trapezoid, and the band
        # checks decide every cell as the two-height test does
        rng = np.random.default_rng(20261018)
        for k in range(200):
            spec, domain, _ = _random_invariance_case(rng, k)
            assert domain.classify() in (DomainKind.RECTANGLE,
                                         DomainKind.CONVEX)
            proof = verify_invariance(spec, domain)
            search, witness = _two_height_invariance(spec, domain)
            assert proof.search == search, (k, spec.params)
            assert proof.witness == witness, (k, spec.params)

    def test_witness_runs_evaluate_few_points_past_the_witness(
            self, monkeypatch):
        # the witness scans run in batches, so a failing proof evaluates
        # F a level or more past its witness's; the bounds are the most
        # the suite measured.  A proof that holds looks its corners up
        # in at most four scans of two containment calls.
        contains = DomainSpec.contains
        calls = [0]

        def counted(*args, **kwargs):
            calls[0] += 1
            return contains(*args, **kwargs)

        monkeypatch.setattr(DomainSpec, "contains", counted)
        rng = np.random.default_rng(20261018)
        witnesses = 0
        for k in range(200):
            spec, domain, _ = _random_invariance_case(rng, k)
            counting, points = _counting_points(spec)
            calls[0] = 0
            proof = verify_invariance(counting, domain)
            recorded = proof.search["evaluations"]
            if proof.witness is not None:
                witnesses += 1
                # a witness at level 0 has a one-cell record
                bound = 3.5 if proof.search["depth"] else 21
                assert points[0] <= bound * recorded, (k, points, recorded)
            else:
                assert points[0] == recorded, k
            if proof.verified:
                assert calls[0] <= 8, (k, calls)
        assert witnesses >= 20, witnesses

    def test_semi_convex_record_matches_eager_reference(self):
        # the witness scans cut the record back to the eager loop's
        rng = np.random.default_rng(20261019)
        cases = [_notched_square_case(rng, k) for k in range(300)]
        inc_dec = MapSpec(lambda x, y: 1 + 1e-9 * (x - y), INC_DEC,
                          Box(0.0, 2.0, 0.0, 2.0))
        cases += [(inc_dec, DomainSpec.polygon(
            [(0, 0), (2, 0), (2, 2), (1.1, 2), (1.0, 1.5), (0.9, 2),
             (0, 2)]))]
        outcomes = collections.Counter()
        for k, (spec, domain) in enumerate(cases):
            counting, points = _counting_points(spec)
            proof = verify_invariance(counting, domain)
            search, witness = _eager_invariance(spec, domain)
            assert proof.search == search, (k, spec.params)
            assert proof.witness == witness, (k, spec.params)
            outcomes[search["stop"]] += 1
            outcomes["cut_back"] += points[0] > search["evaluations"]
        assert outcomes["proved"] >= 50 and outcomes["cut_back"] >= 40, outcomes

    def test_semi_convex_proof_agrees_with_sampling(self):
        rng = np.random.default_rng(20261019)
        outcomes = {(sig, stop): 0 for sig in (INC_DEC, DEC_INC)
                    for stop in ("proved", "witness")}
        for k in range(300):
            spec, domain = _notched_square_case(rng, k)
            assert domain.classify() == DomainKind.SEMI_CONVEX, k
            proof = verify_invariance(spec, domain)
            sampled = _sample_invariance(spec, domain, 40,
                                         np.random.default_rng(k))
            assert not (proof.verified and not sampled), (k, spec.params)
            if proof.witness is not None:
                _assert_real_exit(spec, domain, proof)
            else:
                assert proof.verified, (k, spec.params, proof.search)
            outcomes[spec.signature, proof.search["stop"]] += 1
        # both outcomes occur in both signatures
        assert min(outcomes.values()) >= 5, outcomes


def _notched_square_case(rng, k):
    """Case k of the seeded semi-convex suite: the first rational family
    F = (p + q x)/(1 + x + r y) on [0, q]^2 with one or two V notches cut
    into the top side (signature inc_dec), or on even k its mirror
    F = (p + q y)/(1 + y + r x) with the domain mirrored in the diagonal,
    which moves the notches to the right side (dec_inc)."""
    q = rng.uniform(0.5, 4.0)
    p = rng.uniform(0.05, 1.0) * q
    r = rng.uniform(0.1, 6.0)
    n = int(rng.integers(1, 3))
    cuts = np.sort(rng.uniform(0.05, 0.95, 2 * n))[::-1] * q
    pts = [(0.0, 0.0), (q, 0.0), (q, q)]
    for right, left in cuts.reshape(-1, 2):  # right to left along the top
        tip = (left + (right - left) * rng.uniform(0.2, 0.8),
               q * rng.uniform(0.2, 0.95))
        pts += [(right, q), tip, (left, q)]
    pts.append((0.0, q))
    pts = np.array(pts)
    if k % 2:
        spec, _ = make_eq7(p, q, r)
    else:
        spec = MapSpec(lambda x, y: (p + q * y) / (1 + y + r * x), DEC_INC,
                       Box(0.0, q, 0.0, q), params={"p": p, "q": q, "r": r})
        pts = pts[::-1, ::-1].copy()
    return spec, DomainSpec.polygon(pts)


class TestOrbits:
    def test_eq8_orbit_converges(self, eq8_problem):
        spec, domain = eq8_problem
        orbit = iterate_orbit(spec, 0.6, 0.2, 2000, domain=domain)
        assert orbit.exited_at is None
        assert orbit.final == pytest.approx(0.7, abs=1e-9)

    def test_domain_exit_is_flagged(self, eq8_problem):
        spec, _ = eq8_problem
        small = DomainSpec.rectangle(0.0, 0.35, 0.0, 0.35)
        orbit = iterate_orbit(spec, 0.0, 0.0, 50, domain=small)
        assert orbit.exited_at is not None

    def test_float_orbit_is_numpy_bitwise(self, rng):
        # x ** 2.0 and y ** 3.0 on floats differ from numpy's in the last
        # bit for some inputs; the orbit must keep numpy's values
        from monomap.map_model import compile_expression

        params = {"p": 0.5, "q": 0.8}
        spec = MapSpec(
            compile_expression("(p + x ** 2) / (1 + x ** 2 + q * y ** 3)",
                               params),
            INC_DEC, Box(0.0, 1.0, 0.0, 1.0))
        for x0, x_m1 in rng.uniform(0.0, 1.0, (5, 2)):
            vals = [x_m1, x0]
            for k in range(3000):
                vals.append(float(spec(np.float64(vals[k + 1]),
                                       np.float64(vals[k]))))
            got = iterate_orbit(spec, x0, x_m1, 3000).values
            assert got.tobytes() == np.array(vals).tobytes()

    def test_zero_denominator_is_non_finite(self):
        # 1 / (x - y) from (1.5, 1): x_1 = 2, x_2 = 2, then 1 / 0, which
        # numpy evaluates to inf where Python floats would raise
        spec = MapSpec(lambda x, y: 1.0 / (x - y), INC_DEC,
                       Box(0.0, 4.0, 0.0, 4.0))
        with np.errstate(divide="ignore"), pytest.raises(NonFiniteValue) as got:
            iterate_orbit(spec, 1.5, 1.0, 10)
        assert str(got.value) == "orbit produced a non-finite value at step 3"

    def test_zero_denominator_on_the_float_path(self):
        # the compiled expression raises ZeroDivisionError on floats at
        # step 3; that step goes to numpy, whose inf ends the orbit
        from monomap.map_model import compile_expression

        spec = MapSpec(compile_expression("1 / (x - y)", {}), INC_DEC,
                       Box(0.0, 4.0, 0.0, 4.0))
        assert spec.float_exact
        with np.errstate(divide="ignore"), pytest.raises(NonFiniteValue) as got:
            iterate_orbit(spec, 1.5, 1.0, 10)
        assert str(got.value) == "orbit produced a non-finite value at step 3"

    def test_overflow_on_the_float_path(self, monkeypatch):
        # Python floats overflow to inf as numpy does, without numpy
        from monomap.map_model import compile_expression

        spec = MapSpec(compile_expression("x * x * 1e300 - y", {}), INC_DEC,
                       Box(0.0, 4.0, 0.0, 4.0))
        monkeypatch.setattr(MapSpec, "__call__", _no_numpy_call)
        with pytest.raises(NonFiniteValue) as got:
            iterate_orbit(spec, 2.0, 0.0, 10)
        assert str(got.value) == "orbit produced a non-finite value at step 2"

    @pytest.mark.parametrize("make,args,start", [
        (make_eq7, (2.05, 3.0, 3.0), (0.4, 2.9)),
        (make_eq8, (1.0, 0.3), (0.6, 0.2)),
        (make_eq8, (0.95, 0.495), (0.9, 0.3)),
    ], ids=["eq7", "eq8", "eq8-near-degenerate"])
    def test_expression_orbits_stay_on_floats(self, make, args, start,
                                              monkeypatch):
        # the rational families run on Python floats alone, with the
        # bits of numpy's 0-d evaluation
        spec, domain = make(*args)
        x0, x_m1 = start
        vals = [x_m1, x0]
        for k in range(2000):
            vals.append(float(spec(vals[k + 1], vals[k])))
        monkeypatch.setattr(MapSpec, "__call__", _no_numpy_call)
        orbit = iterate_orbit(spec, x0, x_m1, 2000, domain=domain)
        assert orbit.values.tobytes() == np.array(vals).tobytes()
        assert orbit.exited_at is None


def _no_numpy_call(self, x, y):
    raise AssertionError("F was evaluated through numpy")


def _reference_orbit(map_spec, x0, x_m1, n, domain):
    """iterate_orbit with the domain checked after every step."""
    vals = np.empty(n + 2)
    vals[0] = x_m1
    vals[1] = x0
    exited = None
    for k in range(n):
        cur, prev = vals[k + 1], vals[k]
        nxt = float(map_spec(cur, prev))
        vals[k + 2] = nxt
        if exited is None and domain.contains(
            nxt, cur, tol=4 * domain.chord_tol
        ) < 0:
            exited = k + 1
    return vals, exited


# x_{n+1} = 2 cos(t) x_n - x_{n-1} turns (x_n, x_{n-1}) around an
# ellipse by t per step; the hexagon is flat, so the orbit leaves it
# through the top and bottom and comes back each half turn
_TURN = 0.05
_ROTATION = MapSpec(lambda x, y: 2 * np.cos(_TURN) * x - y, INC_DEC,
                    Box(-2.0, 2.0, -2.0, 2.0), name="rotation")
_FLAT_HEXAGON = DomainSpec.polygon(
    [(-1.2, 0.0), (-0.9, -0.5), (0.9, -0.5), (1.2, 0.0), (0.9, 0.5),
     (-0.9, 0.5)])


class TestOrbitContainmentPass:
    """iterate_orbit locates the whole orbit after it has run, block by
    block; exited_at and the values must be those of a per-step check."""

    def _assert_matches_reference(self, x0, x_m1, n):
        orbit = iterate_orbit(_ROTATION, x0, x_m1, n, domain=_FLAT_HEXAGON)
        vals, exited = _reference_orbit(_ROTATION, x0, x_m1, n, _FLAT_HEXAGON)
        assert np.array_equal(orbit.values, vals)
        assert orbit.exited_at == exited
        return orbit

    @pytest.mark.parametrize("block", [1, 5, 11, 12, 1 << 16])
    def test_leaves_and_re_enters(self, monkeypatch, block):
        # first exit at n = 12: block 11 puts it first in the second
        # block, block 12 last in the first
        monkeypatch.setattr(stab, "_ORBIT_BLOCK", block)
        orbit = self._assert_matches_reference(0.0, np.sin(_TURN), 200)
        assert orbit.exited_at == 12
        codes = _FLAT_HEXAGON.contains(orbit.values[2:], orbit.values[1:-1])
        assert codes[orbit.exited_at - 1] < 0
        assert np.any(codes[orbit.exited_at:] > 0)  # it came back in

    def test_start_outside(self):
        assert _FLAT_HEXAGON.contains(1.0, np.cos(_TURN)) < 0
        orbit = self._assert_matches_reference(1.0, np.cos(_TURN), 50)
        assert orbit.exited_at == 1

    @pytest.mark.parametrize("start", [(0.0, 0.1), (1.0, np.cos(_TURN))])
    def test_no_steps(self, start):
        orbit = self._assert_matches_reference(*start, 0)
        assert orbit.exited_at is None
        assert list(orbit.values) == [start[1], start[0]]

    def test_longer_than_one_block(self, monkeypatch):
        monkeypatch.setattr(stab, "_ORBIT_BLOCK", 8)
        # stays inside for 4 blocks and a part block: no exit anywhere
        orbit = self._assert_matches_reference(0.0, 0.01, 37)
        assert orbit.exited_at is None
        # first exit in the second block
        orbit = self._assert_matches_reference(0.0, np.sin(_TURN), 37)
        assert orbit.exited_at == 12


_SQUARE = DomainSpec.rectangle(-4.0, 4.0, -4.0, 4.0)
# x_{n+1} = -x_n - x_{n-1} from (2, 1) runs 2, -3, 1, 2, -3, ... exactly:
# its states (2, 1), (-3, 2), (1, -3) repeat with period 3 from step 0;
# (1, -3) lies below the box, and state 2 is its first visit
_TRIPLE = MapSpec(lambda x, y: -x - y, DEC_INC, Box(-4.0, 4.0, -4.0, 4.0))
_TRIPLE_BOX = DomainSpec.rectangle(-4.0, 3.0, -2.0, 3.0)


class TestOrbitCycleStop:
    """iterate_orbit stops calling F once a state repeats bit for bit and
    tiles the cycle; values and exited_at are those of the full run."""

    def _assert_matches_reference(self, spec, x0, x_m1, n, domain, calls):
        counted, count = _counting_points(spec)
        orbit = iterate_orbit(counted, x0, x_m1, n, domain=domain)
        vals, exited = _reference_orbit(spec, x0, x_m1, n, domain)
        # tobytes, since array_equal takes -0.0 for 0.0
        assert orbit.values.tobytes() == vals.tobytes()
        assert orbit.exited_at == exited
        assert count[0] == calls
        return orbit

    def test_fixed_state(self):
        spec = MapSpec(lambda x, y: 0.5 * (x + y), INC_DEC,
                       Box(-4.0, 4.0, -4.0, 4.0))
        # state 1 repeats the start: one call of F for 1000 steps
        self._assert_matches_reference(spec, 0.25, 0.25, 1000, _SQUARE,
                                       calls=1)

    def test_signed_zero_two_cycle(self):
        # F = -x from (0, 0) gives 0.0, -0.0, 0.0, ...: by == alone state
        # 1 would repeat state 0, a period 1 that writes -0.0 everywhere
        spec = MapSpec(lambda x, y: -x, DEC_INC, Box(-1.0, 1.0, -1.0, 1.0))
        orbit = self._assert_matches_reference(spec, 0.0, 0.0, 101, _SQUARE,
                                               calls=4)
        signs = np.signbit(orbit.values[1:])
        assert signs[1::2].all() and not signs[::2].any()

    @pytest.mark.parametrize("n", [0, 1, 50, 99, 100, 103, 200, 10_000])
    def test_eq8_cycle_of_period_three(self, n):
        # from (1.2, 0.4) the states repeat from step 100 with period 3,
        # which the state saved at step 128 sees at step 131
        spec, domain = make_eq8(0.9, 0.47)
        self._assert_matches_reference(spec, 1.2, 0.4, n, domain,
                                       calls=min(n, 131))

    @pytest.mark.parametrize("n", [1, 2, 7, 100])
    def test_cycle_leaves_the_domain(self, n):
        orbit = self._assert_matches_reference(_TRIPLE, 2.0, 1.0, n,
                                               _TRIPLE_BOX, calls=min(n, 7))
        assert orbit.exited_at == (2 if n >= 2 else None)

    @pytest.mark.parametrize("block", [1, 2, 3, 7])
    def test_blocks_below_the_cycle_start(self, monkeypatch, block):
        monkeypatch.setattr(stab, "_ORBIT_BLOCK", block)
        orbit = self._assert_matches_reference(_TRIPLE, 2.0, 1.0, 100,
                                               _TRIPLE_BOX, calls=7)
        assert orbit.exited_at == 2
        # an eq8 orbit whose cycle starts at step 100 and never leaves
        spec, domain = make_eq8(0.9, 0.47)
        orbit = self._assert_matches_reference(spec, 1.2, 0.4, 1000, domain,
                                               calls=131)
        assert orbit.exited_at is None


def _reference_ensemble(map_spec, domain, starts_x, starts_y, n_steps,
                        tol_fp, keep_every=100):
    """_run_ensemble with the domain checked after every step."""
    cur, prev = starts_x.copy(), starts_y.copy()
    exited = np.zeros(cur.shape, dtype=bool)
    traces, steps = [prev.copy(), cur.copy()], [0]
    settled = False
    for k in range(n_steps):
        nxt = np.asarray(map_spec(cur, prev), dtype=float)
        exited |= domain.contains(nxt, cur, tol=4 * domain.chord_tol) < 0
        change = np.max(np.abs(nxt - cur))
        prev, cur = cur, nxt
        traces.append(cur.copy())
        steps.append(k + 1)
        if change < tol_fp / 10:
            settled = True
            break
    # the start, every keep_every-th step and the last, each once
    keep = np.array([i for i, step in enumerate(steps)
                     if step % keep_every == 0 or i == len(steps) - 1])
    traces = np.asarray(traces)
    return (cur, int(np.count_nonzero(exited)), traces[keep + 1],
            traces[keep], [steps[i] for i in keep], settled)


class TestEnsembleContainmentPass:
    """_run_ensemble locates the orbits a block of steps at a time; the
    exits, the early stop and the traces must be those of a per-step
    check."""

    def _assert_matches_reference(self, spec, domain, starts, n_steps,
                                  tol_fp):
        got = stab._run_ensemble(spec, domain, *starts, n_steps, tol_fp)
        want = _reference_ensemble(spec, domain, *starts, n_steps, tol_fp)
        assert np.array_equal(got[0], want[0])
        assert got[1] == want[1]
        assert np.array_equal(got[2], want[2])
        assert np.array_equal(stab._previous_rows(got[2], got[3]), want[3])
        assert got[4] == want[4]
        assert got[5] == want[5]
        return got

    @pytest.mark.parametrize("block", [1, 7, 256])
    def test_settling_orbits_on_a_shrunk_pentagon(self, monkeypatch, block):
        # the top side moved down by a fifth of c: some orbits pass above
        # it before they settle at x* = 0.7, within the first 256 steps
        monkeypatch.setattr(stab, "_ENSEMBLE_BLOCK", block)
        spec, domain = make_eq8(1.0, 0.3)
        moved = DomainSpec.polygon(
            _shift_edge(domain.vertices, 1, 0.2 * domain.bbox[1]))
        starts = stab.sample_starts(moved, 100, np.random.default_rng(3))
        _, exits, _, _, _, settled = self._assert_matches_reference(
            spec, moved, starts, 10_000, 1e-9 * domain.bbox[1])
        assert 0 < exits < 100
        assert settled

    @pytest.mark.parametrize("block", [1, 7, 256])
    def test_turning_orbits_run_every_step(self, monkeypatch, block):
        # rotations never settle; the orbits far from the centre leave
        # the flat hexagon, those near it stay
        monkeypatch.setattr(stab, "_ENSEMBLE_BLOCK", block)
        sx, sy = stab.sample_starts(_FLAT_HEXAGON, 100,
                                    np.random.default_rng(3))
        _, exits, traces, _, steps, settled = self._assert_matches_reference(
            _ROTATION, _FLAT_HEXAGON, (0.5 * sx, 0.5 * sy), 600, 1e-9)
        assert 0 < exits < 100
        assert not settled
        # the last step, 600, is a multiple of keep_every: kept once
        assert steps == [0, 100, 200, 300, 400, 500, 600]
        assert len(traces) == 7


def _frozen_kept_rows(map_spec, starts_x, starts_y, n_steps, tol_fp,
                      keep_every):
    """The trace rows of _run_ensemble as it kept them before the x_{k-1}
    of a row was stored only where the row before is not step k - 1:
    (traces, previous, steps), frozen."""
    cur, prev = starts_x.copy(), starts_y.copy()
    kept, steps = [(prev.copy(), cur.copy())], [0]
    n_run = 0
    for k in range(n_steps):
        nxt = np.asarray(map_spec(cur, prev), dtype=float)
        change = np.max(np.abs(nxt - cur))
        prev, cur = cur, nxt
        n_run = k + 1
        if n_run % keep_every == 0:
            kept.append((prev.copy(), cur.copy()))
            steps.append(n_run)
        if change < tol_fp / 10:
            break
    if steps[-1] != n_run:
        kept.append((prev.copy(), cur.copy()))
        steps.append(n_run)
    previous, traces = np.asarray(kept).transpose(1, 0, 2)
    return traces, previous, steps


def _frozen_previous(traces, gaps):
    """x_{k-1} beside each trace row, assembled as _run_ensemble
    assembled it before it returned the gap rows instead: frozen."""
    previous = np.empty_like(traces)
    previous[1:] = traces[:-1]
    for row, x in gaps:
        previous[row] = x
    return previous


class TestEnsemblePrevious:
    """The x_{k-1} beside each trace row is stored only where the row
    before is not step k - 1; the rows are those of the frozen loop that
    stored it beside every row."""

    @pytest.mark.parametrize("keep_every", [1, 7, 100])
    @pytest.mark.parametrize("n_steps, tol_fp", [
        (8, 0.0), (250, 0.0), (701, 0.0),
        # settles at a step that is no multiple of 7 or of 100
        (10_000, 1e-8)])
    def test_rows_match_the_frozen_loop(self, keep_every, n_steps, tol_fp):
        spec, domain = make_eq8(1.0, 0.3)
        sx, sy = stab.sample_starts(domain, 5, np.random.default_rng(8))
        _, _, traces, gaps, steps, settled = stab._run_ensemble(
            spec, domain, sx, sy, n_steps, tol_fp, keep_every=keep_every)
        previous = stab._previous_rows(traces, gaps)
        want = _frozen_kept_rows(spec, sx, sy, n_steps, tol_fp, keep_every)
        assert traces.tobytes() == want[0].tobytes()
        assert previous.tobytes() == want[1].tobytes()
        assert steps == want[2]
        assert settled == (tol_fp > 0)
        if settled:
            assert steps[-1] % 7 and steps[-1] % 100

    @pytest.mark.parametrize("keep_every", [1, 7, 100])
    def test_assembly_matches_the_frozen_one(self, keep_every):
        # certify assembles the rows from the gaps _run_ensemble returns;
        # the bits are those _run_ensemble itself assembled
        spec, domain = make_eq8(1.0, 0.3)
        sx, sy = stab.sample_starts(domain, 5, np.random.default_rng(8))
        _, _, traces, gaps, _, _ = stab._run_ensemble(
            spec, domain, sx, sy, 701, 0.0, keep_every=keep_every)
        # the start is a gap row; step 701 follows the row before it
        assert gaps[0][0] == 0 and gaps[-1][0] < len(traces) - 1
        assert (stab._previous_rows(traces, gaps).tobytes()
                == _frozen_previous(traces, gaps).tobytes())


class TestCertify:
    def test_eq8_globally_stable(self, eq8_problem):
        spec, domain = eq8_problem
        cert = certify(spec, domain)
        assert cert.verdict == GLOBALLY_STABLE
        assert cert.x_star == pytest.approx(0.7, abs=1e-9)
        assert cert.globally_stable

    def test_eq7_matches_bisection_oracle(self):
        spec, domain = make_eq7(1.0, 1.0, 5.0)
        cert = certify(spec, domain)
        assert cert.verdict == GLOBALLY_STABLE
        # independent oracle: plain bisection on F(x,x) - x
        g = lambda x: float(spec(x, x)) - x
        lo, hi = 1e-12, 1.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if g(lo) * g(mid) <= 0:
                hi = mid
            else:
                lo = mid
        assert cert.x_star == pytest.approx(0.5 * (lo + hi), abs=1e-9)

    def test_eq7_unstable_regime_is_inconclusive(self):
        spec, domain = make_eq7(0.5, 2.0, 4.0)
        cert = certify(spec, domain)
        assert cert.verdict == INCONCLUSIVE
        assert cert.verdict_detail["stage"] == "artificial_fixed_points"

    def test_unknown_config_key_rejected(self, eq8_problem):
        spec, domain = eq8_problem
        with pytest.raises(ValueError):
            certify(spec, domain, {"bogus_knob": 3})

    def test_tol_chain_is_not_a_config_key(self, eq8_problem):
        spec, domain = eq8_problem
        with pytest.raises(ValueError, match="tol_chain"):
            certify(spec, domain, {"tol_chain": 1e-10})

    def test_empty_equilibrium_sweep_is_inconclusive(self, monkeypatch):
        monkeypatch.setattr(fp, "find_equilibria", lambda *a, **k: [])
        cert = certify(*make_eq8(1.0, 0.3))
        assert cert.verdict == INCONCLUSIVE
        assert cert.verdict_detail["stage"] == "artificial_fixed_points"
        assert cert.verdict_detail["reason"] == (
            "the 256-cell sweep of F(x, x) - x found no equilibrium")

    @pytest.mark.parametrize("n_orbits", [0, -3])
    def test_orbit_count_below_one_rejected(self, n_orbits):
        with pytest.raises(ValueError, match="n_orbits"):
            certify(*make_eq7(1.0, 1.0, 1.0), {"n_orbits": n_orbits})

    def test_certificate_records_the_chain_stop(self, eq8_problem):
        spec, domain = eq8_problem
        cert = certify(spec, domain)
        cc = cert.corner_chain_limits
        assert cc["stop"] == "converged"
        assert cc["gap"] <= cert.tolerances["tol_fp"] * 10
        assert cc["min_chain"]["n_iter"] == cc["max_chain"]["n_iter"]
        assert "tol_chain" not in cert.tolerances

    def test_certificate_serializes(self, eq8_problem):
        import json

        spec, domain = eq8_problem
        doc = certify(spec, domain).to_dict()
        assert doc["schema_version"] >= 1
        json.dumps(doc)

    def test_short_orbit_budget_leaves_verdict_alone(self):
        # 5 steps are too few for the orbits to settle; they stay inside
        # the pentagon, which contradicts nothing the proof stages showed
        spec, domain = make_eq8(1.0, 0.3)
        cert = certify(spec, domain, {"orbit_steps": 5})
        assert cert.verdict == GLOBALLY_STABLE
        stage = cert.stages[-1]
        assert stage["stage"] == "orbit_ensemble"
        assert stage["status"] == "incomplete"
        assert stage["n_domain_exits"] == 0
        assert stage["max_final_deviation"] > 1e-6
        assert cert.orbit_ensemble["steps"] == 5

    @pytest.mark.parametrize("equilibria, named", [
        ([(0.7, 0.0), (0.8, 0.0)], "[0.7, 0.8]"),
        ([(0.75, 0.0)], "[0.75]"),
    ])
    def test_chains_must_meet_at_the_one_equilibrium(
            self, eq8_problem, monkeypatch, equilibria, named):
        # x* is stage 5's equilibrium; stage 6 fails, naming the values,
        # when the sweep holds two, or one the chains do not bracket
        monkeypatch.setattr(fp, "find_equilibria", lambda *a, **k: equilibria)
        cert = certify(*eq8_problem)
        assert cert.verdict == INCONCLUSIVE
        assert cert.verdict_detail["stage"] == "corner_chains"
        assert cert.corner_chain_limits["stop"] == "converged"
        reason = cert.verdict_detail["reason"]
        assert named in reason
        assert f"meet at {float(cert.chains[0].limit[0])!r}" in reason

    def test_equilibria_found_once(self, eq8_problem, monkeypatch):
        # stage 6 reads x* from the artificial-point stage's equilibria;
        # nothing solves for it again
        calls = []
        real = stab.fp.find_equilibria

        def counted(*a, **k):
            calls.append(a)
            return real(*a, **k)

        monkeypatch.setattr(stab.fp, "find_equilibria", counted)
        cert = certify(*eq8_problem)
        assert cert.verdict == GLOBALLY_STABLE
        assert len(calls) == 1

    def test_staircase_with_a_non_square_box_stops_at_the_pair_search(self):
        # the eq7 image staircase P = U [F(g_i, q), F(g_i+1, 0)] x
        # [g_i, g_i+1], g_i = iq/4, is invariant (T(P) lies in T([0, q]^2),
        # which lies in P), but its bounding box is not square, and the
        # pair search and the embedding need a square one
        spec, _ = make_eq7(2.05, 3.0, 3.0)
        g = [0.0, 0.75, 1.5, 2.25, 3.0]
        lo = [float(spec(g[i], 3.0)) for i in range(4)]
        hi = [float(spec(g[i + 1], 0.0)) for i in range(4)]
        domain = DomainSpec.polygon(
            [v for i in range(4) for v in ((hi[i], g[i]), (hi[i], g[i + 1]))]
            + [v for i in reversed(range(4))
               for v in ((lo[i], g[i + 1]), (lo[i], g[i]))])
        assert domain.bbox == (0.205, 2.7625, 0.0, 3.0)
        cert = certify(spec, domain)
        assert [(s["stage"], s["status"]) for s in cert.stages] == [
            ("monotonicity", "passed"), ("classify_domain", "passed"),
            ("invariance", "passed"), ("extension", "passed"),
            ("artificial_fixed_points", "failed")]
        assert cert.stages[1]["kind"] == "semi_convex"
        assert cert.extension_audit["all_ok"]
        assert cert.verdict == INCONCLUSIVE
        assert cert.verdict_detail == {
            "stage": "artificial_fixed_points", "error": "ParamConstraint",
            "reason": "the symmetric fixed-point system needs a square box"}

    def test_coppel_style_flat_map(self):
        # one-dimensional contraction viewed as a planar map constant in y
        spec = MapSpec(lambda x, y: x / 2.0 + 0.25 - 0.0 * y, INC_DEC,
                       Box(0.0, 1.0, 0.0, 1.0))
        domain = DomainSpec.rectangle(0.0, 1.0, 0.0, 1.0)
        cert = certify(spec, domain)
        assert cert.verdict == GLOBALLY_STABLE
        assert cert.x_star == pytest.approx(0.5, abs=1e-9)


class TestFoundRegressions:
    """Stable cases that the earlier Newton sweep and dense oracle left
    Inconclusive at the artificial fixed-point stage."""

    def test_eq7_just_above_threshold_certifies(self):
        cert = certify(*make_eq7(2.05, 3.0, 3.0))
        assert cert.verdict == GLOBALLY_STABLE
        exact = eq7_equilibrium(2.05, 3.0, 3.0)
        assert abs(cert.x_star - exact) <= 4 * np.spacing(exact)

    def test_eq8_p3_h0495_certifies(self):
        cert = certify(*make_eq8(3.0, 0.495))
        assert cert.verdict == GLOBALLY_STABLE
        assert cert.x_star == pytest.approx(3.0 - 0.495, abs=1e-9)


class TestSoundnessGate:
    """Forcing any single pipeline check to fail must flip the verdict."""

    def _certify(self, eq8_problem):
        spec, domain = eq8_problem
        return certify(spec, domain)

    def test_monotonicity_failure_blocks(self, eq8_problem, monkeypatch):
        real = stab.check_monotonicity

        def broken(*a, **k):
            audit = real(*a, **k)
            audit.ok = False
            return audit

        monkeypatch.setattr(stab, "check_monotonicity", broken)
        cert = self._certify(eq8_problem)
        assert cert.verdict == INCONCLUSIVE
        assert cert.verdict_detail["stage"] == "monotonicity"

    def test_invariance_failure_blocks(self, eq8_problem, monkeypatch):
        real = stab.verify_invariance

        def broken(*a, **k):
            res = real(*a, **k)
            res.verified = False
            return res

        monkeypatch.setattr(stab, "verify_invariance", broken)
        cert = self._certify(eq8_problem)
        assert cert.verdict == INCONCLUSIVE
        assert cert.verdict_detail["stage"] == "invariance"

    def test_extension_audit_failure_blocks(self, eq8_problem, monkeypatch):
        real = stab.audit_extension

        def broken(*a, **k):
            audit = real(*a, **k)
            audit.monotone_ok = False
            return audit

        monkeypatch.setattr(stab, "audit_extension", broken)
        cert = self._certify(eq8_problem)
        assert cert.verdict == INCONCLUSIVE
        assert cert.verdict_detail["stage"] == "extension"

    def test_artificial_pair_blocks(self, eq8_problem, monkeypatch):
        real = stab.fp.find_artificial

        def broken(*a, **k):
            rep = real(*a, **k)
            rep.artificial = [((0.2, 0.9), 0.0, (0.2, 0.2, 0.9, 0.9))]
            return rep

        monkeypatch.setattr(stab.fp, "find_artificial", broken)
        cert = self._certify(eq8_problem)
        assert cert.verdict == INCONCLUSIVE
        assert cert.verdict_detail["stage"] == "artificial_fixed_points"

    def test_unresolved_box_blocks(self, eq8_problem, monkeypatch):
        real = stab.fp.find_artificial

        def broken(*a, **k):
            rep = real(*a, **k)
            rep.unresolved = [((2.0, 3.0), 0.1, (1.9, 2.1, 2.9, 3.1))]
            return rep

        monkeypatch.setattr(stab.fp, "find_artificial", broken)
        cert = self._certify(eq8_problem)
        assert cert.verdict == INCONCLUSIVE
        assert cert.verdict_detail["stage"] == "artificial_fixed_points"
        assert cert.artificial_search["search"]["unresolved"][0]["box"] == [
            1.9, 2.1, 2.9, 3.1]

    def test_order_audit_failure_blocks(self, eq8_problem, monkeypatch):
        # the audit of F(x, y) = y on [0, 1]^2, declared inc_dec, stands
        # in for eq8's: a real failure, with its witness pair
        real = stab.check_order_preserving
        rising = EmbeddedSystem(_rising_in_y())
        audits = []

        def broken(sys, **k):
            audits.append(real(rising, **k))
            return audits[-1]

        monkeypatch.setattr(stab, "check_order_preserving", broken)
        cert = self._certify(eq8_problem)
        assert cert.verdict == INCONCLUSIVE
        assert cert.verdict_detail["stage"] == "corner_chains"
        assert cert.verdict_detail["error"] == "MonomapError"
        audit, = audits
        assert not audit.ok
        assert cert.verdict_detail["reason"] == (
            "embedded step is not order preserving (margin "
            f"{audit.worst_margin:.3e}): {audit.witness_before.tolist()} "
            f"precedes {audit.witness_after.tolist()}, their images do not")


def _one_domain_exit(monkeypatch):
    """Make certify's orbit ensemble report that one orbit left the
    domain, with everything else it measured unchanged."""
    real = stab._run_ensemble

    def one_exit(*a, **k):
        finals, _, *rest = real(*a, **k)
        return (finals, 1, *rest)

    monkeypatch.setattr(stab, "_run_ensemble", one_exit)


class TestRefuted:
    def test_an_orbit_leaving_the_domain_refutes(self, eq8_problem,
                                                monkeypatch):
        _one_domain_exit(monkeypatch)
        cert = certify(*eq8_problem)
        assert cert.verdict == REFUTED
        assert not cert.globally_stable
        assert [s["status"] for s in cert.stages[:-1]] == ["passed"] * 6
        dev = cert.orbit_ensemble["max_final_deviation"]
        assert cert.stages[-1] == {"stage": "orbit_ensemble",
                                   "status": "failed", "n_domain_exits": 1,
                                   "max_final_deviation": dev}
        assert cert.verdict_detail == {
            "reason": "a sampled orbit contradicts the certificate",
            "n_domain_exits": 1, "max_final_deviation": dev}
        assert cert.orbit_ensemble["n_domain_exits"] == 1


class TestVerdictVocabulary:
    def test_constants(self):
        assert GLOBALLY_STABLE == "GloballyStable"
        assert INCONCLUSIVE == "Inconclusive"
