"""Monotone corner enclosures.

A map F that is monotone in each argument takes its least and its
greatest value on a cell [x0, x1] x [y0, y1] at two corners, which its
signature picks: for F increasing in x and decreasing in y they are
(x0, y1) and (x1, y0), so F spans exactly [F(x0, y1), F(x1, y0)] on the
cell (the decomposition function of mixed-monotone systems).  The
artificial fixed-point search and the invariance proof both rest on
this enclosure.
"""

from __future__ import annotations

from typing import Callable, Tuple

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
