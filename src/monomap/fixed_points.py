"""Equilibria and artificial fixed points of a planar map.

An equilibrium is a root of F(x, x) = x.  An artificial fixed point is
an off-diagonal solution of the symmetric system

    F(x, y) = x  and  F(y, x) = y,

whose absence is the key hypothesis for the global stability
certificate: the solutions of this system are exactly the fixed points
of the symmetric embeddings.  Values of F are clamped to the square
box before comparison, so roots created by the box clamp (for maps
whose range overflows the box) are found as well; those are precisely
the extra fixed points the embedded iteration can converge to.

Searches are grid sweeps with damped-Newton refinement, backed by an
independent dense brute-force oracle (`oracle_sweep`) so that a missed
root shows up as an unexplained flagged cell.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import brentq

from .errors import ContinuumOfFixedPoints, DegenerateCase, ParamConstraint
from .extension import ExtendedMap
from .map_model import MapSpec

SCHEMA_VERSION = 1

METHOD_SWEEP = "NumericSweep"


def _as_eval(target) -> Callable:
    """Vectorized (x, y) -> F(x, y) from a map spec, extension, or callable."""
    if isinstance(target, ExtendedMap):
        return target.eval
    if isinstance(target, MapSpec):
        return lambda x, y: np.asarray(target(x, y), dtype=float)
    return lambda x, y: np.asarray(target(x, y), dtype=float)


@dataclass
class FixedPointReport:
    """Roots of the symmetric system F(x,y)=x, F(y,x)=y on a square box."""

    equilibria: List[Tuple[float, float]]  # (x*, residual)
    artificial: List[Tuple[Tuple[float, float], float]]  # ((x, y), residual)
    suspicious: List[dict] = field(default_factory=list)
    sweep: dict = field(default_factory=dict)
    method: str = METHOD_SWEEP

    @property
    def has_artificial(self) -> bool:
        return len(self.artificial) > 0

    def to_dict(self):
        return {
            "schema_version": SCHEMA_VERSION,
            "method": self.method,
            "equilibria": [
                {"x": x, "residual": r} for x, r in self.equilibria
            ],
            "artificial": [
                {"x": p[0], "y": p[1], "residual": r} for p, r in self.artificial
            ],
            "suspicious": self.suspicious,
            "sweep": self.sweep,
        }


# ---------------------------------------------------------------------------
# Equilibria: 1-D sweep + bisection.
# ---------------------------------------------------------------------------


def find_equilibria(
    target,
    interval: Tuple[float, float],
    n_grid: int = 256,
    tol_fp: Optional[float] = None,
    sep_min: Optional[float] = None,
) -> List[Tuple[float, float]]:
    """Roots of g(x) = F(x, x) - x on [a, b], as (root, residual) pairs."""
    F = _as_eval(target)
    a, b = float(interval[0]), float(interval[1])
    if tol_fp is None:
        tol_fp = 1e-9 * (b - a)
    if sep_min is None:
        sep_min = 1e-6 * (b - a)
    xs = np.linspace(a, b, n_grid + 1)
    g = np.asarray(F(xs, xs), dtype=float) - xs
    tiny = 1e-12 * max(1.0, float(np.max(np.abs(g))))
    degenerate = np.count_nonzero(
        (np.abs(g[:-1]) <= tiny) & (np.abs(g[1:]) <= tiny)
    )
    if degenerate > n_grid / 2:
        raise ContinuumOfFixedPoints(
            f"{degenerate} of {n_grid} grid cells are identically zero; "
            "the map has a continuum of equilibria"
        )
    gfun = lambda x: float(F(x, x)) - x
    roots: List[float] = []
    for i in range(n_grid):
        g0, g1 = g[i], g[i + 1]
        if g0 == 0.0:
            roots.append(float(xs[i]))
        elif g0 * g1 < 0:
            roots.append(float(brentq(gfun, xs[i], xs[i + 1], xtol=tol_fp / 4)))
    if g[-1] == 0.0:
        roots.append(float(xs[-1]))
    out: List[Tuple[float, float]] = []
    for r in sorted(roots):
        if out and abs(r - out[-1][0]) <= sep_min:
            continue
        out.append((r, abs(gfun(r))))
    return out


# ---------------------------------------------------------------------------
# The symmetric system H(x, y) = (F(x,y)-x, F(y,x)-y), clamped to the box.
# ---------------------------------------------------------------------------


def _square_bounds(rect) -> Tuple[float, float]:
    x0, x1, y0, y1 = rect.as_tuple()
    tol = 1e-9 * max(1.0, abs(x1 - x0))
    if abs(x0 - y0) > tol or abs(x1 - y1) > tol:
        raise ParamConstraint(
            "the symmetric fixed-point system needs a square box"
        )
    return float(x0), float(x1)


def _h_system(F: Callable, a: float, b: float) -> Callable:
    def H(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        h1 = np.clip(F(x, y), a, b) - x
        h2 = np.clip(F(y, x), a, b) - y
        if x.ndim == 0 and y.ndim == 0:
            return np.squeeze(h1), np.squeeze(h2)
        return h1, h2

    return H


def _newton_refine(H, x, y, a, b, tol_fp):
    """Damped Newton with finite-difference Jacobian, clamped to the box."""
    p = np.array([x, y], dtype=float)
    h1, h2 = H(p[0], p[1])
    res = max(abs(float(h1)), abs(float(h2)))
    for _ in range(60):
        if res < tol_fp:
            return p, res, True
        step_h = 1e-6 * max(1.0, abs(p[0]), abs(p[1]))
        # one-sided differences, flipped at the box edge
        J = np.empty((2, 2))
        for j in range(2):
            q = p.copy()
            dh = step_h if q[j] + step_h <= b else -step_h
            q[j] += dh
            g1, g2 = H(q[0], q[1])
            J[0, j] = (float(g1) - float(h1)) / dh
            J[1, j] = (float(g2) - float(h2)) / dh
        try:
            delta = np.linalg.solve(J, -np.array([float(h1), float(h2)]))
        except np.linalg.LinAlgError:
            return p, res, False
        lam = 1.0
        for _ in range(50):
            q = np.clip(p + lam * delta, a, b)
            g1, g2 = H(q[0], q[1])
            new_res = max(abs(float(g1)), abs(float(g2)))
            if new_res < res:
                break
            lam *= 0.5
        else:
            return p, res, False
        p, h1, h2, res = q, g1, g2, new_res
    return p, res, res < tol_fp


def _flagged_cells(h1: np.ndarray, h2: np.ndarray, tol: float) -> np.ndarray:
    """Boolean mask of grid cells where both components change sign."""

    def changes(h):
        c = np.stack(
            [h[:-1, :-1], h[1:, :-1], h[:-1, 1:], h[1:, 1:]]
        )
        return (c.min(axis=0) < -tol) & (c.max(axis=0) > tol)

    return changes(h1) & changes(h2)


def find_artificial(
    ext,
    n_grid: int = 256,
    tol_fp: Optional[float] = None,
    sep_min: Optional[float] = None,
) -> FixedPointReport:
    """Sweep the box for solutions of F(x,y)=x, F(y,x)=y and refine them.

    Cells of an n_grid x n_grid sweep where both residual components
    change sign seed a damped Newton; converged roots off the diagonal
    by more than sep_min are artificial, the rest are equilibria.  Grid
    nodes where the residual already vanishes (roots pinned to the box
    edge by clamping) are collected directly.  Only the half y > x is
    swept; roots are mirrored by the symmetry of the system.
    """
    F = _as_eval(ext)
    a, b = _square_bounds(ext.rect)
    if tol_fp is None:
        tol_fp = 1e-9 * (b - a)
    if sep_min is None:
        sep_min = 1e-6 * (b - a)
    H = _h_system(F, a, b)
    xs = np.linspace(a, b, n_grid + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    h1, h2 = H(X.ravel(), Y.ravel())
    h1 = h1.reshape(X.shape)
    h2 = h2.reshape(X.shape)

    roots: List[Tuple[float, float, float]] = []
    suspicious: List[dict] = []

    # roots sitting exactly on grid nodes (typically pinned by the clamp)
    node_hit = np.maximum(np.abs(h1), np.abs(h2)) < tol_fp
    for i, j in zip(*np.nonzero(node_hit)):
        if xs[j] >= xs[i]:  # keep y >= x half
            roots.append((float(xs[i]), float(xs[j]), 0.0))

    mask = _flagged_cells(h1, h2, 0.0)
    n_cells = int(np.count_nonzero(mask))
    for i, j in zip(*np.nonzero(mask)):
        cx = 0.5 * (xs[i] + xs[i + 1])
        cy = 0.5 * (xs[j] + xs[j + 1])
        if cy < cx - sep_min:  # mirror half; handled by symmetry
            continue
        p, res, ok = _newton_refine(H, cx, cy, a, b, tol_fp)
        if ok:
            roots.append((float(p[0]), float(p[1]), res))
        else:
            suspicious.append(
                {"cell_center": [cx, cy], "residual": res,
                 "reason": "newton stalled"}
            )

    equilibria: List[Tuple[float, float]] = []
    artificial: List[Tuple[Tuple[float, float], float]] = []
    for x, y, res in roots:
        if abs(x - y) <= sep_min:
            x_star = 0.5 * (x + y)
            if all(abs(x_star - e[0]) > sep_min for e in equilibria):
                equilibria.append((x_star, res))
        else:
            lo, hi = (x, y) if x < y else (y, x)
            if all(
                abs(lo - p[0]) > sep_min or abs(hi - p[1]) > sep_min
                for p, _ in artificial
            ):
                # the mirrored point solves the system with the same residual
                g1, g2 = H(hi, lo)
                mirror_res = max(abs(float(g1)), abs(float(g2)))
                artificial.append(((lo, hi), max(res, mirror_res)))
    equilibria.sort(key=lambda e: e[0])
    artificial.sort(key=lambda e: e[0])
    return FixedPointReport(
        equilibria=equilibria,
        artificial=artificial,
        suspicious=suspicious,
        sweep={
            "n_grid": n_grid,
            "box": [a, b],
            "n_flagged_cells": n_cells,
            "tol_fp": tol_fp,
            "sep_min": sep_min,
        },
        method=METHOD_SWEEP,
    )


# ---------------------------------------------------------------------------
# Independent dense oracle.
# ---------------------------------------------------------------------------


def oracle_sweep(ext, n_dense: int = 1024) -> dict:
    """Brute-force residual sweep on a dense grid.

    Returns all cells where both components of the residual change sign
    and all nodes where the residual vanishes outright.  Used to
    cross-check `find_artificial`: every reported root must be explained
    by a flagged cell or zero node, and vice versa.
    """
    F = _as_eval(ext)
    a, b = _square_bounds(ext.rect)
    tol_fp = 1e-9 * (b - a)
    H = _h_system(F, a, b)
    xs = np.linspace(a, b, n_dense + 1)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    h1, h2 = H(X.ravel(), Y.ravel())
    h1 = h1.reshape(X.shape)
    h2 = h2.reshape(X.shape)
    mask = _flagged_cells(h1, h2, 0.0)
    ii, jj = np.nonzero(mask)
    cell = (b - a) / n_dense
    cells = [
        (float(xs[i]), float(xs[j]), float(xs[i + 1]), float(xs[j + 1]))
        for i, j in zip(ii, jj)
    ]
    node_hit = np.maximum(np.abs(h1), np.abs(h2)) < tol_fp
    zi, zj = np.nonzero(node_hit)
    zero_nodes = [(float(xs[i]), float(xs[j])) for i, j in zip(zi, zj)]
    return {
        "n_dense": n_dense,
        "box": [a, b],
        "cell_size": cell,
        "cells": cells,
        "cell_indices": list(zip(map(int, ii), map(int, jj))),
        "zero_nodes": zero_nodes,
    }


def _cell_clusters(indices: Sequence[Tuple[int, int]]) -> List[List[Tuple[int, int]]]:
    """Group flagged cells into 8-connected clusters."""
    todo = set(indices)
    clusters = []
    while todo:
        seed = todo.pop()
        group = [seed]
        frontier = [seed]
        while frontier:
            ci, cj = frontier.pop()
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    nb = (ci + di, cj + dj)
                    if nb in todo:
                        todo.remove(nb)
                        group.append(nb)
                        frontier.append(nb)
        clusters.append(group)
    return clusters


def check_oracle_consistency(
    ext,
    report: FixedPointReport,
    oracle: dict,
) -> Tuple[bool, dict]:
    """Do the sweep report and the dense oracle explain each other?

    Every reported root must sit inside (or one cell away from) a
    flagged oracle cell or zero node.  Conversely, every connected
    cluster of flagged cells must be explained: Newton started from a
    cell of the cluster has to land on a reported root (the zero curves
    of the two residual components may share cells along a near-tangent
    stretch without crossing there, so the landing root may lie outside
    the cluster).  Unexplained clusters, orphan roots, or suspicious
    seeds all fail the check.
    """
    F = _as_eval(ext)
    a, b = oracle["box"]
    cell = oracle["cell_size"]
    tol_fp = 1e-9 * (b - a)
    sep = max(2 * cell, 1e4 * tol_fp)
    H = _h_system(F, a, b)
    points = [(x, x) for x, _ in report.equilibria]
    for (x, y), _ in report.artificial:
        points.extend([(x, y), (y, x)])
    marks = [
        (0.5 * (c[0] + c[2]), 0.5 * (c[1] + c[3])) for c in oracle["cells"]
    ] + [tuple(z) for z in oracle["zero_nodes"]]

    def near(p, qs, rad):
        return any(max(abs(p[0] - q[0]), abs(p[1] - q[1])) <= rad for q in qs)

    orphan_roots = [p for p in points if not near(p, marks, 2 * cell)]

    unexplained = []
    for group in _cell_clusters(oracle["cell_indices"]):
        ci, cj = group[len(group) // 2]
        cx = a + (ci + 0.5) * cell
        cy = a + (cj + 0.5) * cell
        if near((cx, cy), points, max(2 * cell, (len(group) + 1) * cell)):
            continue
        p, res, ok = _newton_refine(H, cx, cy, a, b, tol_fp)
        if not ok or not near((float(p[0]), float(p[1])), points, sep):
            unexplained.append((cx, cy))
    zero_orphans = [
        z for z in oracle["zero_nodes"] if not near(tuple(z), points, 2 * cell)
    ]
    ok = (
        not orphan_roots
        and not unexplained
        and not zero_orphans
        and not report.suspicious
    )
    return ok, {
        "orphan_roots": orphan_roots,
        "unexplained_clusters": unexplained[:20],
        "orphan_zero_nodes": zero_orphans[:20],
        "n_suspicious": len(report.suspicious),
    }


# ---------------------------------------------------------------------------
# Closed forms for the two rational families.
# ---------------------------------------------------------------------------


def closed_form_eq7(p: float, q: float, r: float) -> dict:
    """Artificial fixed-point analysis of F(x,y)=(p+qx)/(1+x+ry).

    The off-diagonal solutions of the symmetric system satisfy
    x + y = q - 1 together with the quadratic
    (r-1)x^2 - (r-1)(q-1)x + p = 0.  No artificial fixed point lies in
    the domain when (i) q <= 1, (ii) 0 <= r <= 1, or (iii) r > 1 and
    p > (r-1)(q-1)^2 / 4.
    """
    if not (0 < p <= q):
        raise ParamConstraint("requires 0 < p <= q")
    if not r > 0:
        raise ParamConstraint("requires r > 0")
    # unique positive equilibrium: (1+r)x^2 + (1-q)x - p = 0
    disc = (1 - q) ** 2 + 4 * (1 + r) * p
    x_star = ((q - 1) + np.sqrt(disc)) / (2 * (1 + r))
    regime = None
    if q <= 1:
        regime = "i"
    elif r <= 1:
        regime = "ii"
    elif p > 0.25 * (r - 1) * (q - 1) ** 2:
        regime = "iii"
    out = {
        "p": p,
        "q": q,
        "r": r,
        "equilibrium": float(x_star),
        "regime": regime,
        "artificial_pairs": [],
    }
    if regime is None:
        aq, bq, cq = (r - 1), -(r - 1) * (q - 1), p
        d = bq * bq - 4 * aq * cq
        if d >= 0:
            r1 = (-bq - np.sqrt(d)) / (2 * aq)
            r2 = (-bq + np.sqrt(d)) / (2 * aq)
            for x in sorted({float(r1), float(r2)}):
                y = (q - 1) - x
                if x < y:
                    out["artificial_pairs"].append((x, y))
    return out


def eq8_b3(x_star: float, h: float) -> float:
    """Leading coefficient of the line-family elimination cubic."""
    return (
        h**3
        * (1 - h) ** 2
        * (
            4 * x_star**3
            + 4 * x_star**2
            + (1 - h) * (3 * h + 1) * x_star
            + h * (1 - h - h * h)
        )
    )


def closed_form_eq8_line_family(
    p: float,
    h: float,
    m_probe: float,
    n_samples: int = 32,
) -> dict:
    """No-artificial-fixed-point check for F(x,y)=(p+2px)/(1+x+y)-h.

    Off-domain candidate roots of the extended map lie on lines
    y = m x + x* with slope m above m0 = (c - x*)/x*.  For each slope,
    the second equation F(y, x) = y pins x, leaving a scalar residual
    from the first equation; the analysis shows that residual never
    vanishes for m > m0.  This routine evaluates the residual at
    m_probe and verifies its sign is constant across sampled slopes.
    """
    if not (p > 0 and h > 0):
        raise ParamConstraint("requires p > 0 and h > 0")
    if abs(h - 0.5) < 1e-12:
        raise DegenerateCase(
            "h = 1/2 produces a continuum of artificial fixed points"
        )
    if not h < min(p, 0.5):
        raise ParamConstraint("requires 0 < h < min(p, 1/2)")
    x_star = p - h
    c = x_star * (x_star + p + 1) / h
    m0 = (c - x_star) / x_star

    F = lambda x, y: (p + 2 * p * x) / (1 + x + y) - h

    def residual(m: float) -> float:
        # pin x from F(mx + x*, x) = mx + x*, then test the first
        # equation with the ray-extended value F(x_plus, y)
        g = lambda x: F(m * x + x_star, x) - (m * x + x_star)
        x = brentq(g, 1e-14, x_star, xtol=1e-14)
        y = m * x + x_star
        x_plus = (y - x_star) * x_star / (c - x_star)
        return F(x_plus, y) - x

    res_probe = residual(float(m_probe))
    ms = m0 + np.geomspace(1e-3, 1e3, n_samples)
    samples = [residual(float(m)) for m in ms]
    signs = {np.sign(s) for s in samples}
    return {
        "p": p,
        "h": h,
        "x_star": x_star,
        "c": c,
        "m0": m0,
        "b3": eq8_b3(x_star, h),
        "residual_at_probe": res_probe,
        "sign_constant": len(signs) == 1 and 0.0 not in signs,
        "residual_samples": samples,
    }
