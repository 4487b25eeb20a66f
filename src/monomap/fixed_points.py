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

Equilibria come from a sampled 1-D sweep of F(x, x) - x; every sign
change is narrowed to a bracket of two adjacent floats, in passes that
evaluate all brackets in one call of F.  Artificial fixed points come
from a quadtree over the half y >= x of the box that rests on
monotonicity: on a cell [x0, x1] x [y0, y1] a map increasing in x and
decreasing in y takes exactly the values [F(x0, y1), F(x1, y0)], so
four corner values enclose both components of the clamped residual
(the decomposition function of mixed-monotone systems).  A cell whose
enclosure misses 0 holds no root and is dropped; the cells left at the
finest width are reported, as a pair or as unresolved, never dropped.
Each cell carries its corner values, and its children take half of
theirs from it: a split evaluates ten points per cell.

Both searches close in on a few small regions, so their batches go
through an ``extension.BaseBoxEval``: inside a box where the
extension's ``box_is_base`` holds, the extension is F at the very
point.  Each batch's square hull is tried until one is proved, and
every later batch inside that box calls F itself instead of the
extension's zone engine, with the same bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from .enclosure import METHOD_ENCLOSURE, corner_ranges, refine
from .errors import ContinuumOfFixedPoints, ParamConstraint
from .extension import BaseBoxEval

SCHEMA_VERSION = 4

# refinement stops at cells 2^-_MAX_DEPTH of the box wide, or before a
# level would hold more than _MAX_CELLS cells
_MAX_DEPTH = 40
_MAX_CELLS = 1 << 18
# every enclosure comparison is widened by this many ulps of the box's
# largest coordinate, for the rounding of F and of the differences
_ULPS = 8
# roots closer than this fraction of the box span count as one, and the
# quadtree proves nothing within it of the diagonal
_SEP_MIN = 1e-6
# each narrowing pass cuts every equilibrium bracket into this many parts
_PARTS = 32
# the equal cells of the equilibrium sweep of F(x, x) - x
N_GRID = 256

LIMITS = (
    "the search is only as sound as the monotonicity of the extended map",
    "it proves nothing in the band |x - y| <= diagonal_band; equilibria "
    "there come from a 1-D bracketing of F(x, x) - x",
)

# ((x, y) centre, residual at the centre, (x0, x1, y0, y1) box)
Kept = Tuple[Tuple[float, float], float, Tuple[float, float, float, float]]


def _kept_dict(k: Kept) -> dict:
    (x, y), res, box = k
    return {"x": x, "y": y, "residual": res, "box": list(box)}


@dataclass
class FixedPointReport:
    """Roots of the symmetric system F(x,y)=x, F(y,x)=y on a square box.

    ``artificial`` and ``unresolved`` split the boxes the search kept: a
    box whose centre residual is at most tol_fp is an artificial pair,
    any other box is unresolved.
    """

    equilibria: List[Tuple[float, float]]  # (x*, residual)
    artificial: List[Kept]
    unresolved: List[Kept] = field(default_factory=list)
    search: dict = field(default_factory=dict)
    method: str = METHOD_ENCLOSURE

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
            "artificial": [_kept_dict(k) for k in self.artificial],
            "search": {
                **self.search,
                "unresolved": [_kept_dict(k) for k in self.unresolved],
            },
            "limits": list(LIMITS),
        }


# ---------------------------------------------------------------------------
# Equilibria: 1-D sweep, then narrowing to adjacent floats.
# ---------------------------------------------------------------------------


def _narrow(F, lo, hi, glo, ghi):
    """Narrow the brackets [lo, hi] of sign changes of g(x) = F(x, x) - x,
    with g(lo) = glo and g(hi) = ghi of opposite signs, until the ends of
    each bracket are adjacent floats, or equal at an exact zero of g.

    Each pass cuts every bracket that still holds a float strictly inside
    into _PARTS equal parts, evaluates g at all their inner nodes in one
    call of F, and keeps the first part where g leaves the sign of g(lo).
    The passes' hulls nest, the brackets narrowing inside the last.
    Returns the narrowed (lo, hi, glo, ghi) as arrays.
    """
    brackets = np.column_stack([lo, hi, glo, ghi]).astype(float).tolist()
    t = np.arange(1, _PARTS) / _PARTS
    while True:
        live = [br for br in brackets if math.nextafter(br[0], br[1]) < br[1]]
        if not live:
            return np.array(brackets).reshape(-1, 4).T
        a, b = np.array(live)[:, :2].T[..., None]
        x = np.minimum(a + (b - a) * t, b)
        g = np.asarray(F(x.ravel(), x.ravel()), dtype=float).reshape(x.shape) - x
        for br, xs, gs in zip(live, x.tolist(), g.tolist()):
            for xi, gi in zip(xs, gs):
                if gi == 0.0:
                    br[:] = [xi, xi, 0.0, 0.0]
                    break
                if (gi > 0) != (br[2] > 0):
                    br[1], br[3] = xi, gi
                    break
                br[0], br[2] = xi, gi


def find_equilibria(F, interval: Tuple[float, float]
                    ) -> List[Tuple[float, float]]:
    """Roots of g(x) = F(x, x) - x on [a, b], as (root, residual) pairs,
    for any vectorized callable F, an extension included.  F sees the
    grid first and then each narrowing pass (`_narrow`) as one batch;
    `find_artificial` passes a ``BaseBoxEval`` of its extension, so the
    passes inside the first proved base box call the map itself.

    g is sampled on N_GRID = 256 equal cells.  A node where g is exactly
    0 is a root; every cell where g changes sign is narrowed (`_narrow`)
    until its ends are adjacent floats, and the end with the smaller |g|
    is the root, with |g| there as its residual.  Roots less than 1e-6 of
    b - a apart are merged.
    """
    a, b = float(interval[0]), float(interval[1])
    sep_min = _SEP_MIN * (b - a)
    xs = np.linspace(a, b, N_GRID + 1)
    g = np.asarray(F(xs, xs), dtype=float) - xs
    tiny = 1e-12 * max(1.0, float(np.max(np.abs(g))))
    degenerate = np.count_nonzero(
        (np.abs(g[:-1]) <= tiny) & (np.abs(g[1:]) <= tiny)
    )
    if degenerate > N_GRID / 2:
        raise ContinuumOfFixedPoints(
            f"{degenerate} of {N_GRID} grid cells are identically zero; "
            "the map has a continuum of equilibria"
        )
    i = np.flatnonzero(np.sign(g[:-1]) * np.sign(g[1:]) < 0)
    lo, hi, glo, ghi = _narrow(F, xs[i], xs[i + 1], g[i], g[i + 1])
    right = np.abs(ghi) < np.abs(glo)
    zero = xs[g == 0.0]
    x = np.concatenate([zero, np.where(right, hi, lo)])
    res = np.concatenate([np.zeros_like(zero), np.abs(np.where(right, ghi, glo))])
    out: List[Tuple[float, float]] = []
    for k in np.argsort(x, kind="stable").tolist():
        if not out or x[k] - out[-1][0] > sep_min:
            out.append((float(x[k]), float(res[k])))
    return out


# ---------------------------------------------------------------------------
# Artificial fixed points: monotone enclosures on a quadtree.
# ---------------------------------------------------------------------------


def _square_bounds(rect) -> Tuple[float, float]:
    x0, x1, y0, y1 = rect.as_tuple()
    tol = 1e-9 * max(1.0, abs(x1 - x0))
    if abs(x0 - y0) > tol or abs(x1 - y1) > tol:
        raise ParamConstraint(
            "the symmetric fixed-point system needs a square box"
        )
    return float(x0), float(x1)


def _nodes(k: np.ndarray, n: int, a: float, b: float) -> np.ndarray:
    """Coordinates of grid lines k of n equal cells of [a, b]; k / n is
    exact, so a node shared by two cells has one value, and node n is b."""
    return np.where(k == n, b, a + (b - a) * (k / n))


def _labels(i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Index of the 8-connected group of each grid cell (i, j)."""
    todo = {c: k for k, c in enumerate(zip(i.tolist(), j.tolist()))}
    label = np.empty(len(todo), dtype=np.int64)
    group = 0
    while todo:
        frontier = [todo.popitem()]
        while frontier:
            (ci, cj), k = frontier.pop()
            label[k] = group
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    nb = (ci + di, cj + dj)
                    if nb in todo:
                        frontier.append((nb, todo.pop(nb)))
        group += 1
    return label


def _corner_ranges(ext, lo, hi):
    """Least (row 0) and greatest (row 1) values of F(x, y), then of
    F(y, x), clamped to the box, on the cells [x0, x1] x [y0, y1], from
    one ``ext.eval`` call, of an extension or a ``BaseBoxEval`` of one;
    ``lo`` stacks x0 and y0, ``hi`` x1 and y1.

    F(y, x) on a cell is F on the cell mirrored across the diagonal, so
    both come from the corner enclosure of the base map's signature.
    """
    n = lo.size // 2
    _, _, v = corner_ranges(
        ext.eval, ext.base.signature.as_tuple(), lo, hi,
        np.concatenate([lo[n:], lo[:n]]), np.concatenate([hi[n:], hi[:n]]),
    )
    return np.minimum(np.maximum(v, ext.rect.x0), ext.rect.x1)


# A pair-search cell is a column of _ROWS floats: its grid indices i and
# j (exact in float64), the least values of F(x, y) and F(y, x) on it,
# clamped to the box, their greatest values, then its sides x1, y1, x0,
# y0, so that rows 2-5 less rows 6-9 are the four residual bounds.
_ROWS = 10
# the five nodes (p, q) of a cell's 3 x 3 grid of child corners that are
# no corner of the cell, and its children (a, b) in the order split
# lists them
_INNER = ((0, 1), (1, 0), (1, 1), (1, 2), (2, 1))
_KIDS = ((0, 0), (1, 0), (0, 1), (1, 1))
# the rows of the x and of the y argument, in a split's node table
# [X0, X1, X2, Y0, Y1, Y2], of the ten points it evaluates per cell:
# F(X[p], Y[q]) at the five inner nodes, then F(Y[p], X[q])
_ARGS = np.array([[p for p, _ in _INNER] + [3 + p for p, _ in _INNER],
                  [3 + q for _, q in _INNER] + [q for _, q in _INNER]])
_THIRDS = np.arange(3)[:, None]


def _split_pattern(signature) -> np.ndarray:
    """The rows of a split's table that make each child's column, for a
    map of this signature, as a (_ROWS, 4) array: one column per child,
    in ``_KIDS`` order.

    The table stacks the ten new values (`_ARGS`), the parent's four
    values, its six nodes and its six grid lines.  F(x, y) is least on a
    cell at the corner the signature picks, and F(y, x) at the corner it
    picks for the mirrored cell; a child's least corner is an inner node
    or else the parent's least corner, and likewise for the greatest.
    So no child value is evaluated twice.
    """
    sx, sy = signature
    lo, hi = (int(sx < 0), int(sy < 0)), (int(sx > 0), int(sy > 0))
    parent = {(2 * lo[0], 2 * lo[1]): 10, (2 * hi[0], 2 * hi[1]): 12}

    def value(mirror, p, q):
        # the row of F(X[p], Y[q]), or of F(Y[p], X[q]) when mirrored
        if (p, q) in _INNER:
            return 5 * mirror + _INNER.index((p, q))
        return parent[p, q] + mirror

    return np.array([
        [20 + a, 23 + b,
         value(0, a + lo[0], b + lo[1]), value(1, b + lo[0], a + lo[1]),
         value(0, a + hi[0], b + hi[1]), value(1, b + hi[0], a + hi[1]),
         15 + a, 18 + b, 14 + a, 17 + b]
        for a, b in _KIDS]).T


def find_artificial(ext) -> FixedPointReport:
    """Enclose every solution of F(x,y)=x, F(y,x)=y in the box of ``ext``.

    Equilibria come from `find_equilibria` on the N_GRID = 256 cells of
    the diagonal.  Off the diagonal, a quadtree over the half y >= x
    splits all its cells at once, one evaluation call per level.  A cell is
    dropped when the corner enclosure of F(x,y)-x or of F(y,x)-y (values
    of F clamped to the box) misses 0 by more than a few ulps, or when it
    lies within sep_min = 1e-6 of the box span of the diagonal.  An
    enclosure of their difference from the same four corners is the
    difference of the two enclosures, so it would drop no further cell.

    Each cell carries its corner values (see `_split_pattern`): the root
    evaluates its four corner points, and a split evaluates ten points
    per parent, F(x, y) and F(y, x) at the five nodes of the parent's
    3 x 3 node grid that are no corner of it; the children take the
    other values from the parent.  Every node comes from `_nodes` on the
    children's own grid, so the values are those of the children's own
    corners, bit for bit.  ``evaluations`` in the search record counts
    the points evaluated: 4, 10 per split cell and 2 per kept box.

    The equilibrium sweep, the levels and the kept boxes' centres each
    evaluate through a ``BaseBoxEval`` of ``ext`` (the levels and the
    centres share one): a batch's square hull is tried with
    ``box_is_base`` until one holds, and every later batch inside that
    box calls F itself rather than ``ext.eval``.  The level hulls nest,
    so on the eq8 pentagons every level from the 7th to 17th on calls
    F; the values are those ``ext.eval`` gives, bit for bit.

    The quadtree is refined by `enclosure.refine`.  The cells left when
    a level would exceed the cell budget, else at width 2^-40 of the
    box, are grouped into boxes (cells less than sep_min apart share
    one).  A box whose centre residual is at most
    tol_fp = 1e-9 of the box span is an artificial pair (its mirror image solves the system
    too); any other box is unresolved.
    """
    a, b = _square_bounds(ext.rect)
    tol_fp = 1e-9 * (b - a)
    sep_min = _SEP_MIN * (b - a)
    equilibria = find_equilibria(BaseBoxEval(ext), (a, b))
    eps = _ULPS * np.spacing(max(abs(a), abs(b)))
    pattern = _split_pattern(ext.base.signature.as_tuple())
    # the levels and the kept boxes' centres: every batch's square hull
    # is tried until one is base, and each later batch inside it calls F
    near = BaseBoxEval(ext)
    lo, hi = _nodes(np.array([[0, 0], [1, 1]]), 1, a, b)
    values = _corner_ranges(near, lo, hi)
    root = np.concatenate([[0.0, 0.0], values.ravel(), hi, lo])[:, None]
    evaluations, level = values.size, 0

    def test(cells, _):
        # least - (x1, y1) and most - (x0, y0) of F(x, y) and F(y, x)
        d = cells[2:6] - cells[6:]
        keep = (d[:2] <= eps) & (d[2:] >= -eps)
        return keep[0] & keep[1] & (cells[7] - cells[8] > sep_min), None

    def split(cells):
        nonlocal evaluations, level
        level += 1
        k = cells.shape[1]
        # grid lines 2i + t and 2j + t, t = 0, 1, 2, and their nodes
        lines = (2 * cells[:2, None] + _THIRDS).reshape(6, k)
        nodes = _nodes(lines, 1 << level, a, b)
        v = near.eval(nodes[_ARGS[0]].ravel(), nodes[_ARGS[1]].ravel())
        evaluations += v.size
        table = np.concatenate([
            np.minimum(np.maximum(v, a), b).reshape(10, k), cells[2:6],
            nodes, lines])
        kids = table[pattern].reshape(_ROWS, -1)
        # the children wholly below the diagonal mirror kept ones; only a
        # cell on the diagonal has one, and none is left once the cells
        # are narrower than the diagonal band
        if not np.any(cells[0] == cells[1]):
            return kids
        return np.compress(kids[1] >= kids[0], kids, axis=1)

    def leaf(cells, depth):
        return np.ones(cells.shape[1], bool) if depth == _MAX_DEPTH else None

    run = refine(root, test, split, leaf, _MAX_CELLS)
    i, j = run.leaves[:2].astype(np.int64)

    # cells less than sep_min apart form one box: group them by their
    # ancestors at the last depth whose cells are at least sep_min wide
    n = 1 << run.depth
    shift = max(0, run.depth - int(np.floor(np.log2((b - a) / sep_min))))
    coarse, parent = np.unique(np.stack([i >> shift, j >> shift], axis=1),
                               axis=0, return_inverse=True)
    label = _labels(coarse[:, 0], coarse[:, 1])[parent.ravel()]
    m = int(label.max()) + 1 if label.size else 0
    kb = np.array([[n], [0], [n], [0]]).repeat(m, axis=1)
    np.minimum.at(kb[0], label, i)
    np.maximum.at(kb[1], label, i + 1)
    np.minimum.at(kb[2], label, j)
    np.maximum.at(kb[3], label, j + 1)
    bx0, bx1, by0, by1 = (_nodes(k, n, a, b) for k in kb)
    cx, cy = 0.5 * (bx0 + bx1), 0.5 * (by0 + by1)
    v = np.clip(near.eval(np.concatenate([cx, cy]), np.concatenate([cy, cx])),
                a, b)
    res = np.maximum(np.abs(v[: cx.size] - cx), np.abs(v[cx.size:] - cy))
    artificial: List[Kept] = []
    unresolved: List[Kept] = []
    for k in np.argsort(cx, kind="stable"):
        kept = ((float(cx[k]), float(cy[k])), float(res[k]),
                (float(bx0[k]), float(bx1[k]), float(by0[k]), float(by1[k])))
        (artificial if res[k] <= tol_fp else unresolved).append(kept)
    search = {"box": [a, b], "cells": run.cells, "depth": run.depth,
              "min_width": (b - a) / n, "widest_level": run.widest,
              "stop": run.stop or "exhausted",
              "evaluations": evaluations + v.size,
              "diagonal_band": sep_min, "tol_fp": tol_fp}
    return FixedPointReport(equilibria, artificial, unresolved, search)
