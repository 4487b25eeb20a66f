"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line for its criterion so the run
log doubles as a checklist.
"""

import functools
import json
import math
import time

import numpy as np
import pytest

from monomap.cli import main as cli_main
from monomap import stability
from monomap.embedding import (
    CONVERGED,
    STALLED,
    SYM2,
    SYM4,
    build_embedding,
    check_order_preserving,
    run_corner_chains,
)
from monomap.errors import DegenerateCase
from monomap.examples import make_eq7, make_eq8, make_xfy
from monomap.extension import (
    audit_extension,
    extend,
    extend_rectangle,
)
from monomap.fixed_points import find_artificial
from monomap.geometry import DomainKind, DomainSpec
from monomap.map_model import Box, DEC_INC, INC_DEC, MapSpec
from monomap.stability import certify, iterate_orbit, verify_invariance


def criterion(label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            from conftest import CRITERION_RESULTS

            try:
                fn(*args, **kwargs)
            except BaseException:
                CRITERION_RESULTS.append(f"FAIL {label}")
                raise
            CRITERION_RESULTS.append(f"PASS {label}")

        return wrapper

    return deco


def bisect_equilibrium(spec, lo, hi, iters=80):
    g = lambda x: float(spec(x, x)) - x
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(lo) * g(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@criterion("criterion 1: eq8 benchmark end-to-end")
def test_criterion_1_eq8_end_to_end():
    t0 = time.perf_counter()
    spec, domain = make_eq8(1.0, 0.3)
    x_star = 0.7

    inv = verify_invariance(spec, domain)
    assert inv.verified
    assert inv.method == "MonotoneEnclosure"
    assert inv.search["unproved"] == []

    ext = extend(spec, domain)
    audit = audit_extension(ext, rng=np.random.default_rng(1))
    assert audit.all_ok

    rep = find_artificial(ext)
    assert not rep.has_artificial
    assert not rep.unresolved

    sys4 = build_embedding(ext, SYM4)
    lo, hi, stop = run_corner_chains(sys4, tol=1e-12 * (sys4.b - sys4.a))
    assert stop == CONVERGED
    assert np.allclose(lo.limit, x_star, atol=1e-8)
    assert np.allclose(hi.limit, x_star, atol=1e-8)

    # 100 random starts inside the pentagon settle at the equilibrium
    rng = np.random.default_rng(2)
    x0b, x1b, y0b, y1b = domain.bbox
    xs, ys = [], []
    while len(xs) < 100:
        cx = rng.uniform(x0b, x1b)
        cy = rng.uniform(y0b, y1b)
        if int(domain.contains(cx, cy)) == 1:
            xs.append(cx)
            ys.append(cy)
    x = np.array(xs)
    y = np.array(ys)
    for _ in range(10_000):
        x, y = np.asarray(spec(x, y), dtype=float), x
        if np.max(np.abs(x - x_star)) < 1e-7 and np.max(np.abs(y - x_star)) < 1e-7:
            break
    assert np.max(np.abs(x - x_star)) <= 1e-6

    for sx, sy in [(0.6, 0.2), (1.0, 0.45), (0.4, 0.3)]:
        orbit = iterate_orbit(spec, sx, sy, 10_000, domain=domain)
        assert orbit.exited_at is None
        assert abs(orbit.final - x_star) <= 1e-6

    assert time.perf_counter() - t0 < 30.0


@criterion("criterion 2: eq7 certification against the bisection oracle")
def test_criterion_2_eq7_matrix():
    for p, q, r in [(1.0, 1.0, 5.0), (2.0, 3.0, 0.5), (1.1, 3.0, 2.0)]:
        spec, domain = make_eq7(p, q, r)
        cert = certify(spec, domain)
        assert cert.verdict == "GloballyStable", (p, q, r)
        oracle = bisect_equilibrium(spec, 1e-12, q)
        assert abs(cert.x_star - oracle) <= 1e-9, (p, q, r)

    spec, domain = make_eq7(0.5, 2.0, 4.0)
    x0, x1, y0, y1 = domain.bbox
    rep = find_artificial(extend_rectangle(spec, Box(x0, x1, y0, y1)))
    assert rep.has_artificial
    (ax, ay), _, _ = rep.artificial[0]
    lo_exact = (3.0 - math.sqrt(3.0)) / 6.0
    hi_exact = (3.0 + math.sqrt(3.0)) / 6.0
    assert abs(ax - lo_exact) <= 1e-6 and abs(ay - hi_exact) <= 1e-6
    cert = certify(spec, domain)
    assert cert.verdict == "Inconclusive"


@criterion("criterion 3: multiplicative family with a decreasing factor")
def test_criterion_3_xfy():
    spec, domain = make_xfy(lambda y: 2.0 / (1.0 + y))
    x0, x1, y0, y1 = domain.bbox
    ext = extend_rectangle(spec, Box(x0, x1, y0, y1))
    sys2 = build_embedding(ext, SYM2)

    # finite-difference Jacobian of the embedded map at the equilibrium
    x_eq = np.array([1.0, 1.0])
    h = 1e-6
    J = np.empty((2, 2))
    for j in range(2):
        e = np.zeros(2)
        e[j] = h
        J[:, j] = (sys2.step(x_eq + e) - sys2.step(x_eq - e)) / (2 * h)
    eig = np.sort(np.abs(np.linalg.eigvals(J)))
    assert eig[0] == pytest.approx(0.5, abs=1e-4)
    assert eig[1] == pytest.approx(1.5, abs=1e-4)

    # the chains settle on separate limits: their order interval stops
    # shrinking instead of closing
    lo, hi, stop = run_corner_chains(sys2)
    assert stop == STALLED
    assert float(np.max(np.abs(lo.limit - hi.limit))) > 0.1

    rep = find_artificial(ext)
    assert rep.has_artificial


@criterion("criterion 3: separate chain limits fail the chain stage")
def test_criterion_3_separate_limits_fail_the_chain_stage(monkeypatch):
    # the xfy box is not invariant and holds an artificial pair, so
    # certify stops before the chains; without those two stages the
    # chain stage itself must refuse the separate limits
    spec, domain = make_xfy(lambda y: 2.0 / (1.0 + y))
    monkeypatch.setattr(stability, "_STAGES", [
        (name, stage) for name, stage in stability._STAGES
        if name not in ("invariance", "artificial_fixed_points")
    ])
    cert = certify(spec, domain)
    assert cert.verdict == "Inconclusive"
    assert cert.verdict_detail["stage"] == "corner_chains"
    assert cert.stages[-1]["status"] == "failed"
    gap = cert.corner_chain_limits["gap"]
    assert cert.corner_chain_limits["stop"] == STALLED
    assert gap > 0.1
    assert f"gap {gap:.3e}" in cert.verdict_detail["reason"]


@criterion("criterion 4: random convex domains with random rational maps")
def test_criterion_4_random_domains():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    n_trials = 1000
    for trial in range(n_trials):
        n_verts = int(rng.integers(5, 13))
        # points on a random ellipse are always in convex position
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n_verts))
        while np.min(np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))) < 0.1:
            angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, n_verts))
        rx = rng.uniform(0.5, 2.0)
        ry = rng.uniform(0.5, 2.0)
        rot = rng.uniform(0.0, np.pi)
        cx = rng.uniform(2.5, 4.0)
        cy = rng.uniform(2.5, 4.0)
        ex = rx * np.cos(angles)
        ey = ry * np.sin(angles)
        pts = [
            (
                cx + ex[i] * np.cos(rot) - ey[i] * np.sin(rot),
                cy + ex[i] * np.sin(rot) + ey[i] * np.cos(rot),
            )
            for i in range(n_verts)
        ]
        domain = DomainSpec.polygon(pts)
        assert domain.classify() in (DomainKind.CONVEX, DomainKind.RECTANGLE)

        # p <= q keeps the numerator dominant, so the map is genuinely
        # increasing in its first slot everywhere in the quadrant
        q = rng.uniform(0.2, 2.0)
        p = q * rng.uniform(0.1, 1.0)
        r = rng.uniform(0.2, 2.0)
        if rng.integers(0, 2) == 0:
            func = lambda x, y, p=p, q=q, r=r: (p + q * x) / (1.0 + x + r * y)
            sig = INC_DEC
        else:
            func = lambda x, y, p=p, q=q, r=r: (p + q * y) / (1.0 + y + r * x)
            sig = DEC_INC
        bx0, bx1, by0, by1 = domain.bbox
        spec = MapSpec(func, sig, Box(bx0, bx1, by0, by1))

        ext = extend(spec, domain)
        audit = audit_extension(ext, grid_n=200,
                                rng=np.random.default_rng(trial))
        assert audit.agreement_ok, trial
        assert audit.max_disagreement <= 1e-12, trial
        assert audit.continuity_ok, trial
        assert audit.n_monotone_violations == 0, trial
        assert audit.nice_ok, trial
    assert time.perf_counter() - t0 < 300.0


@criterion("criterion 5: order preservation and orbit bracketing")
def test_criterion_5_order_and_bracketing():
    spec, domain = make_eq7(1.0, 1.0, 1.0)
    ext = extend_rectangle(spec, Box(0.0, 1.0, 0.0, 1.0))
    rng = np.random.default_rng(11)
    for variant in (SYM2, SYM4):
        sysv = build_embedding(ext, variant)

        audit = check_order_preserving(sysv, n_pairs=10_000, rng=rng)
        assert audit.ok, variant
        assert audit.n_pairs == 10_000

        lo, hi, _ = run_corner_chains(sysv)
        signs = sysv.order_signs
        for chain, direction in ((lo, 1.0), (hi, -1.0)):
            diffs = np.diff(chain.states, axis=0)
            assert np.all(direction * signs * diffs >= -1e-9)

        starts = rng.uniform(sysv.a, sysv.b, (100, sysv.state_dim))
        lo_s = sysv.min_corner.copy()
        hi_s = sysv.max_corner.copy()
        mids = starts.copy()
        checkpoints = {1, 10, 100}
        for n in range(1, 101):
            lo_s = sysv.step(lo_s)
            hi_s = sysv.step(hi_s)
            mids = sysv.step(mids)
            if n in checkpoints:
                for s in mids:
                    assert sysv.precedes(lo_s, s, tol=1e-9), (variant, n)
                    assert sysv.precedes(s, hi_s, tol=1e-9), (variant, n)


@criterion("criterion 6: degenerate height detected, near-degenerate certified")
def test_criterion_6_degenerate_boundary(tmp_path):
    with pytest.raises(DegenerateCase):
        make_eq8(1.0, 0.5)

    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text("[map]\nfamily = eq8\np = 1.0\nh = 0.5\n")
    code = cli_main(["certify", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    assert code != 0

    spec, domain = make_eq8(1.0, 0.499)
    cert = certify(spec, domain)
    assert cert.verdict == "GloballyStable"
    assert cert.x_star == pytest.approx(0.501, abs=1e-9)


@criterion("criterion 7: bitwise reproducible certificates")
def test_criterion_7_determinism(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("[map]\nfamily = eq8\np = 1.0\nh = 0.3\n\n[run]\nseed = 42\n")
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    assert cli_main(["certify", "--config", str(cfg), "--out", str(out1)]) == 0
    assert cli_main(["certify", "--config", str(cfg), "--out", str(out2)]) == 0
    b1 = (out1 / "certificate.json").read_bytes()
    b2 = (out2 / "certificate.json").read_bytes()
    assert b1 == b2
    doc = json.loads(b1)
    assert doc["verdict"] == "GloballyStable"
