"""Monotone corner enclosures.

A map F that is monotone in each argument takes its least and its
greatest value on a cell [x0, x1] x [y0, y1] at two corners, which its
signature picks: for F increasing in x and decreasing in y they are
(x0, y1) and (x1, y0), so F spans exactly [F(x0, y1), F(x1, y0)] on the
cell (the decomposition function of mixed-monotone systems).  The
artificial fixed-point search and the invariance proof both rest on
this enclosure, and both refine their cells with `refine`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

METHOD_ENCLOSURE = "MonotoneEnclosure"


def corner_ranges(
    F: Callable,
    signature: Tuple[int, int],
    x0: np.ndarray,
    x1: np.ndarray,
    y0: np.ndarray,
    y1: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least and greatest value of F on each cell, from one call of F.

    ``signature`` is the (sign in x, sign in y) pair of F.  Returns the
    corners ``xs``, ``ys`` and the values ``v = F(xs, ys)``, each of
    shape (2, n): row 0 is where F is least on the cell, row 1 where it
    is greatest.
    """
    sx, sy = signature
    xs = np.stack((x0, x1) if sx > 0 else (x1, x0))
    ys = np.stack((y0, y1) if sy > 0 else (y1, y0))
    v = np.asarray(F(xs.ravel(), ys.ravel()), dtype=float)
    return xs, ys, v.reshape(xs.shape)


class Refinement(NamedTuple):
    leaves: np.ndarray  # the cells set aside, one per column
    stop: Optional[str]  # None when every cell was decided
    witness: object
    cells: int  # cells tested
    depth: int  # the deepest level tested
    widest: int  # the most cells a level left undecided


def refine(cells: np.ndarray, test: Callable, split: Callable,
           leaf: Callable, budget: int,
           scan: Optional[Callable] = None) -> Refinement:
    """Refine cells, one per column, level by level until each is decided.

    ``test(cells, depth)`` returns the mask of the cells it leaves
    undecided and its evidence on them.  The undecided cells are all set
    aside when four times their number exceeds ``budget``
    ("cell_budget"), else those that the mask ``leaf(cells, depth)``
    marks, if it returns one ("min_width"); ``split`` makes the next
    level of the others.  The stop is the reason of the last set-aside.

    ``scan(evidence, first)`` returns the first witness in the evidence
    of levels first, first + 1, ... as (level, point), or None; it runs
    after each level that leaves at least twice as many cells undecided
    as the one before, and at the end.  A witness stops the refinement
    ("witness") with the record of the levels up to its own.
    """
    leaves, stop, found = [cells[:, :0]], None, None
    depth = n_cells = widest = 0
    # per level: cells tested through it, widest before it, leaves before it
    record, evidence, first, last = [], [], 0, cells.shape[1]
    while True:
        undecided, seen = test(cells, depth)
        n_cells += cells.shape[1]
        record.append((n_cells, widest, len(leaves)))
        evidence.append(seen)
        cells = np.compress(undecided, cells, axis=1)
        grew, last = cells.shape[1] >= 2 * last, cells.shape[1]
        widest = max(widest, last)
        if 4 * last > budget:
            leaves.append(cells)
            cells, stop = cells[:, :0], "cell_budget"
        left = leaf(cells, depth) if cells.shape[1] else None
        if left is not None and left.any():
            leaves.append(np.compress(left, cells, axis=1))
            cells, stop = np.compress(~left, cells, axis=1), "min_width"
        if scan and (grew or not cells.shape[1]):
            found = scan(evidence, first)
            evidence, first = [], depth + 1
        if found is not None or not cells.shape[1]:
            break
        cells = split(cells)
        depth += 1
    if found is not None:  # cut the record back to the witness's level
        depth, found = found
        n_cells, widest, n_leaves = record[depth]
        leaves, stop = leaves[:n_leaves], "witness"
    return Refinement(np.concatenate(leaves, axis=1), stop, found,
                      n_cells, depth, widest)
