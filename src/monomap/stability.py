"""Invariance checks, orbit iteration, and the global-stability certificate.

The certificate chains together every audit in the package: declared
monotonicity, domain classification, invariance of the domain under the
companion map T(x, y) = (F(x, y), x), the continuity/monotonicity/range
audit of the rectangular extension, the absence of artificial fixed
points (by monotone enclosures on a quadtree), and the convergence of both
corner chains of the symmetric embedding to the one equilibrium.  Only
when every link holds does the verdict become GloballyStable; sampled
orbits are attached as corroborating evidence, never as proof.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np

from . import fixed_points as fp
from .embedding import (SYM4, EmbeddedSystem, check_order_preserving,
                        run_corner_chains)
from .enclosure import METHOD_ENCLOSURE, corner_ranges
from .errors import MonomapError, NonFiniteValue, UnsupportedDomain
from .extension import ExtendedMap, audit_extension, extend
from .geometry import DomainKind, DomainSpec
from .map_model import Box, MapSpec, check_monotonicity

SCHEMA_VERSION = 5

GLOBALLY_STABLE = "GloballyStable"
INCONCLUSIVE = "Inconclusive"
REFUTED = "Refuted"


# ---------------------------------------------------------------------------
# Invariance of a domain under the companion map.
# ---------------------------------------------------------------------------


# the proof refines cells until each is proved, or until a failing cell
# is narrower than the image tolerance, or before a level would hold
# more than this many cells
_MAX_INVARIANCE_CELLS = 1 << 16

INVARIANCE_LIMITS = (
    "the proof is only as sound as the monotonicity of the map, which "
    "the monotonicity stage checks by sampling",
    "images are proved to lie within tol of the domain, not inside it",
)


@dataclass
class InvarianceResult:
    """Whether T(x, y) = (F(x, y), x) maps the domain into itself, proved
    by corner enclosures (``method`` MonotoneEnclosure) with the record
    in ``search``.  ``witness`` is a point of the domain whose image
    leaves it by more than the tolerance.
    """

    verified: bool
    search: dict
    witness: Optional[Tuple[float, float]] = None
    method: str = METHOD_ENCLOSURE

    def to_dict(self):
        d = {"method": self.method, "verified": self.verified,
             "search": self.search, "limits": list(INVARIANCE_LIMITS)}
        if self.witness is not None:
            d["witness"] = list(self.witness)
        return d


def _fits_trapezoids(domain, cuts, bands, h0, h1, f0, f1, slack):
    """Which cells have their image slice [f0, f1] in one trapezoid of
    every band that their heights [h0, h1] cross, within ``slack``.  A
    band is crossed when [h0, h1] overlaps it with positive length, or
    holds h0 = h1: a point shared with a neighbouring band is checked
    there."""
    ok = slack >= 0
    f0, f1, slack = f0[:, None], f1[:, None], slack[:, None]
    for lo, hi, sides in zip(cuts[:-1], cuts[1:], bands):
        a, b = np.maximum(h0, lo), np.minimum(h1, hi)
        crossed = (a < b) | ((a == b) & (h0 == h1))
        # the sides' x at both ends, shape (2, cells, trapezoids, 2)
        x = domain.edge_x(sides, np.stack([a, b])[..., None, None])
        fit = ((f0 >= x[..., 0].max(axis=0) - slack)
               & (f1 <= x[..., 1].min(axis=0) + slack))
        ok &= ~crossed | fit.any(axis=1)
    return ok


def verify_invariance(map_spec: MapSpec, domain: DomainSpec) -> InvarianceResult:
    """Prove that T maps the domain into its tol-band, by bisection.

    On a cell [x0, x1] x [y0, y1] the images T(x, y) have heights in
    [x0, x1], and the corner enclosure gives the exact range [f0, f1] of
    F.  The domain, cut at its vertex heights, is a union of trapezoids
    (`DomainSpec.trapezoids`).  Clip the heights to the domain's
    y-range, giving [h0, h1], which overshoots it by some e <= tol.  In
    each band that [h0, h1] crosses, over [a, b], the cell needs one
    trapezoid, with left and right edges l and r, such that

        f0 >= max(l(a), l(b)) - (tol - e),
        f1 <= min(r(a), r(b)) + (tol - e).

    A trapezoid is convex, so the slice then fits it at every height in
    [a, b], and every image lies within tol of the domain.  On a convex
    domain each band holds one trapezoid; its slice ends L(t), R(t) are
    convex and concave, so the band checks come down to those at h0 and
    h1.  The test is the same for rectangles, convex and semi-convex
    domains.

    Cells start as the bounding box, and each level first clips the
    y-range of every cell to the domain's extent over its x-range
    (dropping the cells that miss the domain), then evaluates every
    cell in one call of F.  A failing cell is split in x and in y.  An
    extreme corner in the domain whose image lies outside by more than
    tol stops the proof with that corner as the witness.  Failing cells
    narrower than tol, and all failing cells when the next level would
    exceed the cell budget, are left as ``unproved`` boxes.  The band
    tol, thousands of ulps wide, also absorbs the rounding of F and of
    the edge positions.
    """
    tol = 4 * domain.chord_tol
    bx0, bx1, by0, by1 = domain.bbox
    cuts, bands = domain.trapezoids()
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
        bad = ~_fits_trapezoids(domain, cuts, bands, np.clip(x0, by0, by1),
                                np.clip(x1, by0, by1), f[0], f[1], slack)
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
        if 4 * x0.size > _MAX_INVARIANCE_CELLS:
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
    return InvarianceResult(
        verified=witness is None and not unproved,
        witness=witness,
        search={
            "cells": cells,
            "evaluations": evaluations,
            "depth": depth,
            "tol": tol,
            "stop": stop,
            "unproved": unproved,
        },
    )


# ---------------------------------------------------------------------------
# Orbits of the second-order equation.
# ---------------------------------------------------------------------------


@dataclass
class Orbit:
    values: np.ndarray  # x_{-1}, x_0, x_1, ..., x_n
    exited_at: Optional[int] = None  # first n with (x_n, x_{n-1}) outside

    @property
    def final(self) -> float:
        return float(self.values[-1])

    def to_dict(self):
        return {
            "values": self.values.tolist(),
            "exited_at": self.exited_at,
        }


# points per containment call in iterate_orbit: an orbit that leaves the
# domain early stops after the block it leaves in
_ORBIT_BLOCK = 1 << 16


def iterate_orbit(
    map_spec: MapSpec,
    x0: float,
    x_m1: float,
    n: int,
    domain: Optional[DomainSpec] = None,
) -> Orbit:
    """Run x_{k+1} = F(x_k, x_{k-1}) for n steps from (x0, x_m1).

    The values are kept as Python floats, but F is always evaluated by
    numpy, on the 0-d arrays ``map_spec`` makes of them: Python's own
    ``**`` and ``/`` differ from numpy's (x ** 3.0 in the last bit, and
    1 / 0 raises where numpy gives inf, a NonFiniteValue here).
    ``exited_at`` is the first n with (x_n, x_{n-1}) outside the domain;
    the orbit is located after it has run, block by block, up to the
    first block with an exit.
    """
    prev, cur = float(x_m1), float(x0)
    vals = array("d", (prev, cur))
    for k in range(n):
        prev, cur = cur, float(map_spec(cur, prev))
        if not math.isfinite(cur):
            raise NonFiniteValue(
                f"orbit produced a non-finite value at step {k + 1}"
            )
        vals.append(cur)
    vals = np.frombuffer(vals)
    exited = None
    if domain is not None:
        tol = 4 * domain.chord_tol
        for start in range(0, n, _ORBIT_BLOCK):
            stop = min(start + _ORBIT_BLOCK, n)
            codes = domain.contains(vals[start + 2 : stop + 2],
                                    vals[start + 1 : stop + 1], tol=tol)
            out = np.flatnonzero(codes < 0)
            if out.size:
                exited = start + int(out[0]) + 1
                break
    return Orbit(values=vals, exited_at=exited)


# steps per containment call in _run_ensemble: one call locates a block
# of steps of every orbit (256 steps of 100 orbits are 400 KB of points)
_ENSEMBLE_BLOCK = 256


def _run_ensemble(
    map_spec: MapSpec,
    domain: DomainSpec,
    starts_x: np.ndarray,
    starts_y: np.ndarray,
    n_steps: int,
    tol_fp: float,
    keep_every: int = 100,
):
    """Iterate many orbits in lockstep.

    Returns the final values, the number of orbits that left the domain,
    the traces, and whether the orbits settled: every orbit's step size
    dropped below tol_fp / 10, which also stops the iteration early.
    Traces are thinned to every `keep_every`-th value for plotting.
    The domain is checked once per block of _ENSEMBLE_BLOCK steps.
    """
    cur = np.asarray(starts_x, dtype=float).copy()
    prev = np.asarray(starts_y, dtype=float).copy()
    exited = np.zeros(cur.shape, dtype=bool)
    tol = 4 * domain.chord_tol
    traces = [cur.copy()]
    settled = False
    # the points (x_{k+1}, x_k) of the steps not located yet
    px = np.empty((_ENSEMBLE_BLOCK, cur.size))
    py = np.empty_like(px)
    filled = 0
    for k in range(n_steps):
        nxt = np.asarray(map_spec(cur, prev), dtype=float)
        if not np.all(np.isfinite(nxt)):
            raise NonFiniteValue(
                f"orbit ensemble produced a non-finite value at step {k + 1}"
            )
        px[filled], py[filled] = nxt, cur
        filled += 1
        if filled == _ENSEMBLE_BLOCK:
            exited |= np.any(domain.contains(px, py, tol=tol) < 0, axis=0)
            filled = 0
        change = np.max(np.abs(nxt - cur))
        prev, cur = cur, nxt
        if (k + 1) % keep_every == 0:
            traces.append(cur.copy())
        if change < tol_fp / 10:
            settled = True
            break
    if filled:
        exited |= np.any(domain.contains(px[:filled], py[:filled], tol=tol) < 0,
                         axis=0)
    traces.append(cur.copy())
    return cur, int(np.count_nonzero(exited)), np.asarray(traces), settled


def sample_starts(domain: DomainSpec, n: int, rng: np.random.Generator):
    """n start points (x_0, x_{-1}) drawn uniformly from the bounding box
    of the domain, keeping those inside it or on its boundary."""
    x0, x1, y0, y1 = domain.bbox
    sx = np.empty(0)
    sy = np.empty(0)
    while len(sx) < n:
        cx = rng.uniform(x0, x1, 4 * n)
        cy = rng.uniform(y0, y1, 4 * n)
        keep = domain.contains(cx, cy) >= 0
        sx = np.concatenate([sx, cx[keep]])[:n]
        sy = np.concatenate([sy, cy[keep]])[:n]
    return sx, sy


# ---------------------------------------------------------------------------
# The certificate pipeline.
# ---------------------------------------------------------------------------

_DEFAULTS = {
    "n_grid": 256,
    "n_orbits": 100,
    "orbit_steps": 10000,
    "n_order_pairs": 1000,
    "audit_grid": 100,
    "max_iter": 100000,
    "seed": 0,
}

# run sizes (grid cells, samples, orbits, steps; ``steps`` is simulate's)
SIZE_KEYS = ("n_grid", "n_orbits", "orbit_steps", "max_iter", "audit_grid",
             "n_order_pairs", "steps")


def check_sizes(sizes: dict) -> None:
    """Raise ValueError naming the first run size in ``sizes`` below 1."""
    for key in SIZE_KEYS:
        if key in sizes and sizes[key] < 1:
            raise ValueError(f"{key} must be at least 1, got {sizes[key]}")


@dataclass
class StabilityCertificate:
    map_name: str
    map_params: dict
    domain_summary: dict
    stages: List[dict] = field(default_factory=list)
    invariance: Optional[InvarianceResult] = None
    extension_audit: Optional[dict] = None
    artificial_search: Optional[dict] = None
    corner_chain_limits: Optional[dict] = None
    orbit_ensemble: Optional[dict] = None
    verdict: str = INCONCLUSIVE
    verdict_detail: dict = field(default_factory=dict)
    tolerances: dict = field(default_factory=dict)
    # side data for report rendering; not serialized
    extension: Optional[ExtendedMap] = None
    chains: Optional[tuple] = None  # (min-corner chain, max-corner chain)
    orbit_traces: Optional[np.ndarray] = None

    @property
    def globally_stable(self) -> bool:
        return self.verdict == GLOBALLY_STABLE

    @property
    def x_star(self) -> Optional[float]:
        return self.verdict_detail.get("x_star")

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "map": {"name": self.map_name, "params": self.map_params},
            "domain": self.domain_summary,
            "stages": self.stages,
            "invariance": None
            if self.invariance is None
            else self.invariance.to_dict(),
            "extension_audit": self.extension_audit,
            "artificial_search": self.artificial_search,
            "corner_chain_limits": self.corner_chain_limits,
            "orbit_ensemble": self.orbit_ensemble,
            "verdict": self.verdict,
            "verdict_detail": self.verdict_detail,
            "tolerances": self.tolerances,
        }


def _stage(cert: StabilityCertificate, name: str, status: str, **extra):
    cert.stages.append({"stage": name, "status": status, **extra})


@dataclass
class _Run:
    """What the certify stages read and pass on to later stages."""

    spec: MapSpec
    domain: DomainSpec
    cfg: dict
    rng: np.random.Generator
    cert: StabilityCertificate
    tol_fp: float
    ext: Optional[ExtendedMap] = None
    equilibria: Optional[list] = None  # (x, residual) pairs from stage 5
    x_star: Optional[float] = None


# Each stage returns the extra fields of its "passed" record or raises;
# it may fill certificate fields first, so a failure keeps its evidence.


def _check_monotonicity(run: _Run) -> dict:
    mono = check_monotonicity(run.spec, Box(*run.domain.bbox))
    if not mono.ok:
        raise MonomapError(f"declared signature violated at {mono.witness}")
    return {"n_violations": mono.n_violations_x + mono.n_violations_y}


def _classify_domain(run: _Run) -> dict:
    kind = run.domain.classify()
    if kind == DomainKind.UNSUPPORTED:
        raise UnsupportedDomain("domain is not semi-convex")
    return {"kind": kind.value}


def _check_invariance(run: _Run) -> dict:
    inv = verify_invariance(run.spec, run.domain)
    run.cert.invariance = inv
    if inv.witness is not None:
        raise MonomapError(f"domain is not invariant; witness {inv.witness}")
    if not inv.verified:
        raise MonomapError(
            f"domain invariance unproved on {len(inv.search['unproved'])} "
            f"cell(s) (stop: {inv.search['stop']})"
        )
    return {"method": inv.method, "cells": inv.search["cells"],
            "evaluations": inv.search["evaluations"]}


def _build_extension(run: _Run) -> dict:
    ext = extend(run.spec, run.domain)
    aud = audit_extension(ext, grid_n=run.cfg["audit_grid"], rng=run.rng)
    run.cert.extension_audit = aud.to_dict()
    if not aud.all_ok:
        raise MonomapError("extension audit failed")
    run.ext = run.cert.extension = ext
    return {"n_pieces": len(ext.pieces)}


def _search_artificial(run: _Run) -> dict:
    ext, cert = run.ext, run.cert
    report = fp.find_artificial(ext, n_grid=run.cfg["n_grid"])
    cert.artificial_search = report.to_dict()
    run.equilibria = report.equilibria
    if report.has_artificial:
        raise MonomapError(
            "artificial fixed points exist: "
            f"{[(pair, res) for pair, res, _ in report.artificial]}"
        )
    if report.unresolved:
        raise MonomapError(
            f"{len(report.unresolved)} search box(es) neither hold a "
            f"root nor exclude one, the first {report.unresolved[0][2]}"
        )
    if not report.equilibria:
        raise MonomapError(
            f"the {run.cfg['n_grid']}-cell sweep of F(x, x) - x found no "
            "equilibrium"
        )
    return {"n_equilibria": len(report.equilibria)}


def _run_chains(run: _Run) -> dict:
    cfg, ext, tol_fp = run.cfg, run.ext, run.tol_fp
    sys = EmbeddedSystem(ext)
    order = check_order_preserving(sys, cfg["n_order_pairs"], rng=run.rng)
    if not order.ok:
        raise MonomapError(
            f"embedded step is not order preserving "
            f"(margin {order.worst_margin:.3e})"
        )
    lo, hi, stop = run_corner_chains(
        sys, max_iter=cfg["max_iter"], tol=10 * tol_fp
    )
    gap = float(np.max(np.abs(hi.limit - lo.limit)))
    run.cert.chains = (lo, hi)
    run.cert.corner_chain_limits = {
        "variant": SYM4,
        "stop": stop,
        "gap": gap,
        "min_chain": lo.to_dict(),
        "max_chain": hi.to_dict(),
    }
    s_lo = lo.limit
    diag = float(np.max(np.abs(s_lo - s_lo[0])))
    if gap > 10 * tol_fp or diag > 10 * tol_fp:
        raise MonomapError(
            f"corner chains do not meet at a diagonal point "
            f"(stop {stop}, gap {gap:.3e}, off-diagonal {diag:.3e})"
        )
    # every equilibrium lies in the chains' order interval, so x* is the
    # one equilibrium of stage 5, within gap + diag of the chain limit
    limit, eqs = float(s_lo[0]), [x for x, _ in run.equilibria]
    if len(eqs) != 1 or abs(eqs[0] - limit) > gap + 10 * tol_fp:
        raise MonomapError(
            f"the corner chains meet at {limit!r} (gap {gap:.3e}), but the "
            f"sweep's equilibria {eqs} are not one point in their interval"
        )
    run.x_star = eqs[0]
    return {"x_star": eqs[0]}


_STAGES: List[Tuple[str, Callable[[_Run], dict]]] = [
    ("monotonicity", _check_monotonicity),
    ("classify_domain", _classify_domain),
    ("invariance", _check_invariance),
    ("extension", _build_extension),
    ("artificial_fixed_points", _search_artificial),
    ("corner_chains", _run_chains),
]


def certify(
    map_spec: MapSpec,
    domain: DomainSpec,
    config: Optional[dict] = None,
) -> StabilityCertificate:
    """Run the full global-stability pipeline and assemble a certificate.

    Any stage failure is recorded and turns the verdict Inconclusive
    with the stage name; the remaining stages are skipped.  Side data
    (chains, extension, orbits) is kept on the returned certificate
    object for report rendering.
    """
    cfg = dict(_DEFAULTS)
    if config:
        unknown = set(config) - set(cfg)
        if unknown:
            raise ValueError(f"unknown certify config keys: {sorted(unknown)}")
        cfg.update(config)
    check_sizes(cfg)
    rng = np.random.default_rng(cfg["seed"])
    x0, x1, y0, y1 = domain.bbox
    span = max(x1 - x0, y1 - y0)
    tol_fp = 1e-9 * span
    cert = StabilityCertificate(
        map_name=map_spec.name,
        map_params=dict(map_spec.params),
        domain_summary={
            "bbox": [x0, x1, y0, y1],
            "n_vertices": int(len(domain.vertices)),
            "name": domain.name,
        },
        tolerances={
            "tol_fp": tol_fp,
            "seed": cfg["seed"],
        },
    )
    run = _Run(map_spec, domain, cfg, rng, cert, tol_fp)
    for name, stage in _STAGES:
        try:
            extra = stage(run)
        except Exception as e:  # noqa: BLE001 - every stage converts to verdict
            _stage(cert, name, "failed", error=type(e).__name__,
                   message=str(e))
            cert.verdict = INCONCLUSIVE
            cert.verdict_detail = {
                "stage": name,
                "error": type(e).__name__,
                "reason": str(e),
            }
            return cert
        _stage(cert, name, "passed", **extra)
    x_star = run.x_star

    # 7. empirical orbit ensemble (corroboration only)
    want = cfg["n_orbits"]
    starts_x, starts_y = sample_starts(domain, want, rng)
    finals, exits, traces, settled = _run_ensemble(
        map_spec, domain, starts_x, starts_y, cfg["orbit_steps"], tol_fp
    )
    cert.orbit_traces = traces
    worst_dev = float(np.max(np.abs(finals - x_star)))
    cert.orbit_ensemble = {
        "n_orbits": want,
        "steps": cfg["orbit_steps"],
        "n_domain_exits": exits,
        "max_final_deviation": worst_dev,
    }
    away = worst_dev > max(1e4 * tol_fp, 1e-6 * span)
    if exits or (away and settled):
        _stage(cert, "orbit_ensemble", "failed",
               n_domain_exits=exits, max_final_deviation=worst_dev)
        cert.verdict = REFUTED
        cert.verdict_detail = {
            "reason": "a sampled orbit contradicts the certificate",
            "n_domain_exits": exits,
            "max_final_deviation": worst_dev,
        }
        return cert
    if away:
        # the orbits stay inside but have not settled within the step
        # budget: that contradicts nothing, it only corroborates less
        _stage(cert, "orbit_ensemble", "incomplete",
               n_domain_exits=exits, max_final_deviation=worst_dev)
    else:
        _stage(cert, "orbit_ensemble", "passed", max_final_deviation=worst_dev)

    cert.verdict = GLOBALLY_STABLE
    cert.verdict_detail = {"x_star": x_star}
    return cert
