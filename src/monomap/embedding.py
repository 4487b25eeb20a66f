"""Symmetric monotone embeddings of the planar dynamics.

A mixed-monotone planar map F (increasing in x, decreasing in y) embeds
into an order-preserving map G on a higher-dimensional box, in two
variants:

* ``Sym2``  G(x, y) = (F(x, y), F(y, x)) on [a, b]^2,
* ``Sym4``  G((x, y), (u, v)) = ((F(x, y), u), (F(u, v), x)) on [a, b]^4.

Each variant preserves a componentwise partial order (a sign pattern of
the coordinates) and has explicit least and greatest elements, so the
iterates of the two extreme corners form monotone chains that converge
to fixed points of G and bracket every orbit in between.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ChainMonotonicityBroken, EmbeddingUnavailable
from .extension import ExtendedMap, clamp_to
from .map_model import INC_DEC

SYM2 = "Sym2"
SYM4 = "Sym4"

# componentwise order sign pattern per variant: state s precedes state t
# exactly when sign * s <= sign * t holds in every coordinate
_ORDER_SIGNS = {
    SYM2: np.array([1, -1], dtype=float),
    SYM4: np.array([1, -1, -1, 1], dtype=float),
}

MIN_CORNER = "MinCorner"
MAX_CORNER = "MaxCorner"

# why run_corner_chains stopped
CONVERGED = "converged"
STALLED = "stalled"
MAX_ITER = "max_iter"


@dataclass
class OrderAudit:
    """Result of sampling comparable state pairs through one step of G."""

    ok: bool
    n_pairs: int
    worst_margin: float
    witness_before: Optional[np.ndarray] = None
    witness_after: Optional[np.ndarray] = None

    def to_dict(self):
        d = {
            "ok": self.ok,
            "n_pairs": self.n_pairs,
            "worst_margin": self.worst_margin,
        }
        if self.witness_before is not None:
            d["witness_before"] = self.witness_before.tolist()
            d["witness_after"] = self.witness_after.tolist()
        return d


@dataclass
class CornerChain:
    """Iterates of G started at one of the two extreme corners."""

    start: str  # MIN_CORNER or MAX_CORNER
    states: np.ndarray  # (n_iter + 1, dim)
    step_norms: np.ndarray  # (n_iter,)

    @property
    def n_iter(self) -> int:
        return len(self.step_norms)

    @property
    def limit(self) -> np.ndarray:
        """The last state, the chain's approximation of its limit."""
        return self.states[-1]

    def to_dict(self):
        return {
            "start": self.start,
            "n_iter": self.n_iter,
            "limit": self.limit.tolist(),
            "final_step_norm": float(self.step_norms[-1]) if self.n_iter else 0.0,
        }


class EmbeddedSystem:
    """One of the symmetric embeddings of an extended planar map."""

    def __init__(self, source: ExtendedMap, variant: str):
        if variant not in _ORDER_SIGNS:
            raise ValueError(f"unknown embedding variant {variant!r}")
        if source.base.signature != INC_DEC:
            raise EmbeddingUnavailable(
                "embedding requires a mixed monotone map that increases in "
                "x and decreases in y; swap the arguments of a map that "
                "decreases in x first"
            )
        r = source.rect
        tol = 1e-9 * max(r.diam, 1.0)
        if abs(r.x0 - r.y0) > tol or abs(r.x1 - r.y1) > tol:
            raise EmbeddingUnavailable(
                "embedding requires a square rectangle [a, b] x [a, b]"
            )
        self.source = source
        self.variant = variant
        self.a = float(r.x0)
        self.b = float(r.x1)
        self.order_signs = _ORDER_SIGNS[variant]
        self.state_dim = self.order_signs.size
        lo, hi = self.a, self.b
        self.min_corner = np.where(self.order_signs > 0, lo, hi).astype(float)
        self.max_corner = np.where(self.order_signs > 0, hi, lo).astype(float)

    # -- order ------------------------------------------------------------

    def precedes(self, s, t, tol: float = 0.0) -> bool:
        """True when s comes before t in the system's componentwise order."""
        s = np.asarray(s, dtype=float)
        t = np.asarray(t, dtype=float)
        return bool(np.all(self.order_signs * (t - s) >= -tol))

    # -- stepping -----------------------------------------------------------

    def _F(self, x, y):
        return self.source.eval(x, y)

    def step(self, state):
        """Apply G once.  Accepts a single state (dim,) or a batch (n, dim)."""
        s = np.asarray(state, dtype=float)
        single = s.ndim == 1
        s = np.atleast_2d(s)
        if s.shape[1] != self.state_dim:
            raise ValueError(
                f"state dimension {s.shape[1]} does not match {self.variant}"
            )
        pad = 1e-9 * (self.b - self.a)
        s = clamp_to(s, self.a, self.b, pad,
                     "embedded state outside the rectangle bounds")
        n = s.shape[0]
        out = np.empty_like(s)
        if self.variant == SYM2:
            x, y = s[:, 0], s[:, 1]
            vals = self._F(np.concatenate([x, y]), np.concatenate([y, x]))
            out[:, 0] = vals[:n]
            out[:, 1] = vals[n:]
        else:
            x, y, u, v = s.T
            vals = self._F(np.concatenate([x, u]), np.concatenate([y, v]))
            out[:, 0] = vals[:n]
            out[:, 1] = u
            out[:, 2] = vals[n:]
            out[:, 3] = x
        # a nice extension keeps values inside the original range up to a
        # small audit tolerance; clamp so chains stay inside the box
        out = clamp_to(out, self.a, self.b, copy=False)
        return out[0] if single else out


def build_embedding(ext: ExtendedMap, variant: str = SYM4) -> EmbeddedSystem:
    """Construct the symmetric embedding of an extended map."""
    return EmbeddedSystem(ext, variant)


def check_order_preserving(
    sys: EmbeddedSystem,
    n_pairs: int = 1000,
    rng: Optional[np.random.Generator] = None,
) -> OrderAudit:
    """Sample comparable state pairs and verify G keeps them comparable,
    up to 1e-9 of the box span."""
    if rng is None:
        rng = np.random.default_rng(0)
    d = sys.state_dim
    lo = rng.uniform(sys.a, sys.b, size=(n_pairs, d))
    bump = rng.uniform(0.0, sys.b - sys.a, size=(n_pairs, d))
    hi = np.clip(lo + sys.order_signs * bump, sys.a, sys.b)
    g_lo = sys.step(lo)
    g_hi = sys.step(hi)
    margins = np.min(sys.order_signs * (g_hi - g_lo), axis=1)
    k = int(np.argmin(margins))
    worst = float(margins[k])
    ok = worst >= -1e-9 * (sys.b - sys.a)
    return OrderAudit(
        ok=ok,
        n_pairs=n_pairs,
        worst_margin=worst,
        witness_before=None if ok else lo[k],
        witness_after=None if ok else hi[k],
    )


def run_corner_chains(
    sys: EmbeddedSystem,
    max_iter: int = 100000,
    tol: Optional[float] = None,
) -> Tuple[CornerChain, CornerChain, str]:
    """Iterate G from the least and greatest corners of the box.

    The two chains are monotone and converge to fixed points a* and b*
    of G with a* preceding b*; every orbit of G lies in the order
    interval between their iterates.  Both corners advance as one
    batched step per iteration until that interval closes: the stop is
    CONVERGED once its width max|s_hi - s_lo| is at most ``tol``
    (default 1e-8 of the box span), STALLED once the width falls by
    less than 0.1% over 1,000 steps, or MAX_ITER.  Each step is checked
    to move its chain in the chain's direction.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    starts = (MIN_CORNER, MAX_CORNER)
    span = sys.b - sys.a
    if tol is None:
        tol = 1e-8 * span
    slack_tol = 1e-10 * span
    # the chain rises from the least element and falls from the greatest
    slopes = np.stack([sys.order_signs, -sys.order_signs])
    s = np.stack([sys.min_corner, sys.max_corner])
    states = [s]
    stop = MAX_ITER
    checkpoint = np.inf
    for k in range(max_iter):
        t = sys.step(s)
        slack = np.min(slopes * (t - s), axis=1)
        bad = np.flatnonzero(slack < -slack_tol)
        if bad.size:
            row = bad[0]
            raise ChainMonotonicityBroken(
                f"{starts[row]} chain lost monotonicity at "
                f"iteration {k + 1} (slack {float(slack[row]):.3e}); the "
                "extension or its declared monotonicity is inconsistent"
            )
        states.append(t)
        s = t
        width = float(np.max(np.abs(t[1] - t[0])))
        if width <= tol:
            stop = CONVERGED
            break
        if (k + 1) % 1000 == 0:
            if width > 0.999 * checkpoint:
                stop = STALLED
                break
            checkpoint = width
    states = np.stack(states, axis=1)  # (2, n_iter + 1, dim)
    norms = np.max(np.abs(np.diff(states, axis=1)), axis=2)
    lo, hi = (CornerChain(start, states[c], norms[c])
              for c, start in enumerate(starts))
    if not sys.precedes(lo.limit, hi.limit, tol=10 * slack_tol):
        raise ChainMonotonicityBroken(
            "the lower corner chain overtook the upper corner chain"
        )
    return lo, hi, stop
