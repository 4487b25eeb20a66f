"""Built-in parametric map families with their analytic facts wired in.

Three families:

* ``RationalPQR``   F(x, y) = (p + q x) / (1 + x + r y) on [0, q]^2,
* ``RationalPQRH``  F(x, y) = (p + 2p x) / (1 + x + y) - h on a
  pentagonal invariant domain inside [0, c]^2,
* ``XfY``           F(x, y) = x f(y) with f decreasing and f(0) > 1.

The two rational families are expressions (``EQ7_EXPR``, ``EQ8_EXPR``)
compiled by ``map_model.compile_expression``, the compiler behind the
CLI's ``expression`` maps.  Each constructor validates its parameter
constraints and returns a map spec plus the invariant domain where one
is known.  The analytic equilibria (``eq7_equilibrium``,
``eq8_x_star``) and the closed-form artificial fixed-point analyses of
the rational families sit next to them and reuse their checks.
"""

from __future__ import annotations

import math
from typing import Callable, Tuple

import numpy as np

from .errors import DegenerateCase, ParamConstraint
from .geometry import DomainSpec
from .map_model import Box, INC_DEC, MapSpec, compile_expression

FAMILY_EQ7 = "RationalPQR"
FAMILY_EQ8 = "RationalPQRH"
FAMILY_XFY = "XfY"

EQ7_EXPR = "(p + q*x) / (1 + x + r*y)"
EQ8_EXPR = "(p + 2*p*x) / (1 + x + y) - h"


# ---------------------------------------------------------------------------
# RationalPQR: F(x, y) = (p + qx) / (1 + x + ry).
# ---------------------------------------------------------------------------


def _check_eq7(p: float, q: float, r: float) -> None:
    if not (0 < p <= q):
        raise ParamConstraint(f"requires 0 < p <= q, got p={p}, q={q}")
    if not r > 0:
        raise ParamConstraint(f"requires r > 0, got r={r}")


def eq7_equilibrium(p: float, q: float, r: float) -> float:
    """Positive root of (1 + r) x^2 + (1 - q) x - p = 0."""
    disc = (1 - q) ** 2 + 4 * (1 + r) * p
    return float(((q - 1) + np.sqrt(disc)) / (2 * (1 + r)))


def make_eq7(p: float, q: float, r: float) -> Tuple[MapSpec, DomainSpec]:
    """F(x, y) = (p + qx) / (1 + x + ry) on the invariant square [0, q]^2."""
    _check_eq7(p, q, r)
    params = {"p": p, "q": q, "r": r}
    spec = MapSpec(
        compile_expression(EQ7_EXPR, params),
        INC_DEC,
        Box(0.0, q, 0.0, q),
        name=FAMILY_EQ7,
        params=params,
    )
    x_star = eq7_equilibrium(p, q, r)
    if not x_star < q:
        raise ParamConstraint(
            f"equilibrium {x_star} is not below q={q}; family fact violated"
        )
    domain = DomainSpec.rectangle(0.0, q, 0.0, q)
    return spec, domain


def closed_form_eq7(p: float, q: float, r: float) -> dict:
    """Artificial fixed-point analysis of F(x,y)=(p+qx)/(1+x+ry).

    The off-diagonal solutions of the symmetric system satisfy
    x + y = q - 1 together with the quadratic
    (r-1)x^2 - (r-1)(q-1)x + p = 0.  No artificial fixed point lies in
    the domain when (i) q <= 1, (ii) 0 <= r <= 1, or (iii) r > 1 and
    p > (r-1)(q-1)^2 / 4.
    """
    _check_eq7(p, q, r)
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
        "equilibrium": eq7_equilibrium(p, q, r),
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


# ---------------------------------------------------------------------------
# RationalPQRH: F(x, y) = (p + 2px) / (1 + x + y) - h.
# ---------------------------------------------------------------------------


def eq8_x_star(p: float, h: float) -> float:
    return p - h


def make_eq8(p: float, h: float) -> Tuple[MapSpec, DomainSpec]:
    """F(x, y) = (p + 2px) / (1 + x + y) - h on its pentagonal domain.

    The invariant domain has vertices (c, c), (x*, c), (0, x*), (0, 0),
    (c, 0) with x* = p - h and c = x*(x* + p + 1)/h, valid for
    0 < h < min(p, 1/2).  The analysis breaks down at h = 1/2, where the
    map acquires a continuum of artificial fixed points.
    """
    if not (p > 0 and h > 0):
        raise ParamConstraint(f"requires p > 0 and h > 0, got p={p}, h={h}")
    if abs(h - 0.5) < 1e-12:
        raise DegenerateCase(
            "h = 1/2: the map has an infinite number of artificial fixed "
            "points and cannot be certified by this method"
        )
    if not h < min(p, 0.5):
        raise ParamConstraint(
            f"requires 0 < h < min(p, 1/2), got p={p}, h={h}"
        )
    x_star = eq8_x_star(p, h)
    c = x_star * (x_star + p + 1) / h
    params = {"p": p, "h": h}
    spec = MapSpec(
        compile_expression(EQ8_EXPR, params),
        INC_DEC,
        Box(0.0, c, 0.0, c),
        name=FAMILY_EQ8,
        params=params,
    )
    # invariant-domain inequality x* + pc/(1+c) < c from the analysis
    if not x_star + p * c / (1 + c) < c:
        raise ParamConstraint(
            "invariant-domain inequality x* + pc/(1+c) < c fails"
        )
    domain = DomainSpec.polygon(
        [(c, 0.0), (c, c), (x_star, c), (0.0, x_star), (0.0, 0.0)],
        name="eq8-pentagon",
    )
    return spec, domain


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


def eq8_line_x(p: float, h: float, m: float) -> float:
    """The x > 0 where F(y, x) = y on the line y = m x + x* (m > 0) for
    F(x, y) = (p + 2px)/(1 + x + y) - h.  With x* = p - h that equation
    is m(m+1)x^2 + (m(1-h) + p)x - p x* = 0, and x is its positive root,
    written without cancellation."""
    a, b, c = m * (m + 1), m * (1 - h) + p, p * eq8_x_star(p, h)
    return 2 * c / (b + math.sqrt(b * b + 4 * a * c))


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
    spec, _ = make_eq8(p, h)
    F = spec.func
    x_star = eq8_x_star(p, h)
    c = spec.box.x1
    m0 = (c - x_star) / x_star

    def residual(m: float) -> float:
        # pin x from the second equation, then test the first equation
        # with the ray-extended value F(x_plus, y)
        x = eq8_line_x(p, h, m)
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


# ---------------------------------------------------------------------------
# XfY: F(x, y) = x f(y).
# ---------------------------------------------------------------------------

# the square [a, b]^2 of the family, and the samples of f on [0, b] that
# check its constraints
_XFY_BOX = (0.01, 3.0)
_XFY_CHECKS = 128


def make_xfy(
    f: Callable[[np.ndarray], np.ndarray],
) -> Tuple[MapSpec, DomainSpec]:
    """F(x, y) = x f(y) on [0.01, 3]^2, with f decreasing and f(0) > 1
    (checked by sampling).

    The equilibrium x* with f(x*) = 1 cannot attract the whole square
    under the 2-dimensional symmetric embedding: the embedded Jacobian
    at (x*, x*) has an eigenvalue 1 - x* f'(x*) > 1, so the embedding's
    corner chains split and artificial fixed points must exist.
    """
    a, b = _XFY_BOX
    ys = np.linspace(0.0, b, _XFY_CHECKS)
    fv = np.asarray(f(ys), dtype=float)
    if not np.all(np.isfinite(fv)):
        raise ParamConstraint("f must be finite on the domain")
    if np.any(np.diff(fv) > 1e-12 * max(1.0, float(np.max(np.abs(fv))))):
        raise ParamConstraint("f must be decreasing")
    if not fv[0] > 1:
        raise ParamConstraint("requires f(0) > 1")

    def F(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return x * np.asarray(f(y), dtype=float)

    spec = MapSpec(F, INC_DEC, Box(a, b, a, b), name=FAMILY_XFY, params={})
    domain = DomainSpec.rectangle(a, b, a, b)
    return spec, domain
