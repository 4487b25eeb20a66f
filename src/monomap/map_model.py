"""Core model types: planar maps F(x, y) and their monotone signatures.

A second-order difference equation x_{n+1} = F(x_n, x_{n-1}) is studied
through the companion planar map T(x, y) = (F(x, y), x).  Everything in
this module is signature bookkeeping and the grid monotonicity audit,
plus the one map representation: an arithmetic expression in x, y and
named parameters, compiled by `compile_expression`.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import ConfigError, NonFiniteValue


class Direction(Enum):
    INCREASING = 1
    DECREASING = -1

    @property
    def sign(self) -> int:
        return self.value


@dataclass(frozen=True)
class MonotoneSignature:
    """Monotonicity of F in each argument, e.g. (INCREASING, DECREASING)."""

    first: Direction
    second: Direction

    @property
    def is_mixed(self) -> bool:
        return self.first != self.second

    def as_tuple(self) -> tuple[int, int]:
        return (self.first.sign, self.second.sign)

    def __str__(self) -> str:
        arrow = {Direction.INCREASING: "inc", Direction.DECREASING: "dec"}
        return f"({arrow[self.first]},{arrow[self.second]})"


INC_DEC = MonotoneSignature(Direction.INCREASING, Direction.DECREASING)
DEC_INC = MonotoneSignature(Direction.DECREASING, Direction.INCREASING)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box [x0, x1] x [y0, y1]."""

    x0: float
    x1: float
    y0: float
    y1: float

    def __post_init__(self):
        if not (self.x0 < self.x1 and self.y0 < self.y1):
            raise ValueError(f"degenerate box {self}")

    @property
    def diam(self) -> float:
        return float(np.hypot(self.x1 - self.x0, self.y1 - self.y0))

    def as_tuple(self):
        return (self.x0, self.x1, self.y0, self.y1)


@dataclass
class MapSpec:
    """A planar scalar map F together with its declared signature and box.

    ``func`` must accept numpy arrays (or scalars) and broadcast.
    ``float_exact`` is read off ``func`` when the spec is built: True for
    an expression that ``compile_expression`` marks, whose value on
    Python floats has numpy's bits.  A ``func`` replaced later (a call
    counter, say) keeps the mark, so that it sees the float calls too.
    """

    func: Callable[["np.ndarray", "np.ndarray"], "np.ndarray"]
    signature: MonotoneSignature
    box: Box
    name: str = "map"
    params: dict = field(default_factory=dict)
    float_exact: bool = field(default=False, init=False, repr=False,
                              compare=False)

    def __post_init__(self):
        self.float_exact = getattr(self.func, "float_exact", False) is True

    def __call__(self, x, y):
        """F on numpy arrays, broadcast to the inputs' broadcast shape (an
        expression that names neither x nor y gives one value)."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        out = np.asarray(self.func(x, y), dtype=float)
        if out.shape != x.shape or x.shape != y.shape:
            shape = np.broadcast_shapes(x.shape, y.shape)
            if out.shape != shape:
                out = np.array(np.broadcast_to(out, shape))
        return out

    def one(self, x: float, y: float) -> float:
        """F at one point of Python floats, with the bits ``__call__``
        gives: a float-exact ``func`` runs on the floats themselves, and
        any other on 0-d arrays.  Where the floats raise on a division
        by zero, which numpy turns into inf or NaN, the point goes to
        numpy as well."""
        if self.float_exact:
            try:
                return self.func(x, y)
            except ZeroDivisionError:
                pass
        return float(self(x, y))

    def eval_checked(self, x, y):
        out = self(x, y)
        if not np.all(np.isfinite(out)):
            raise NonFiniteValue(
                f"map {self.name!r} produced non-finite values"
            )
        return out


# ---------------------------------------------------------------------------
# Expression maps: + - * / **, unary +-, exp log sqrt, x, y, parameters.
# ---------------------------------------------------------------------------

_FUNCTIONS = {"exp": np.exp, "log": np.log, "sqrt": np.sqrt}
_RESERVED = {"x", "y", "__builtins__", *_FUNCTIONS}
_GRAMMAR = (
    ast.Expression, ast.BinOp, ast.UnaryOp, ast.Call, ast.Name, ast.Load,
    ast.Constant, ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow, ast.UAdd,
    ast.USub,
)


# the grammar elements that round alike on Python floats and in numpy:
# + - * / and unary +- are correctly rounded in both, while Python's **
# differs from numpy's in the last bit on some inputs, and the calls are
# numpy's own functions, which a float argument does not make faster
_NOT_FLOAT_EXACT = (ast.Pow, ast.Call)


def compile_expression(expr: str, params: dict) -> Callable:
    """Compile an arithmetic expression in x, y and named float parameters
    into ``lambda x, y: expr``; anything outside the grammar, and a
    parameter the expression never names, is rejected.

    A whitelist pass over the parsed tree admits the grammar only, turns
    number literals into floats, and checks every name; the tree is then
    compiled once and evaluated without builtins.  The lambda's
    ``float_exact`` attribute is True when the tree holds no ``**`` and no
    call: on Python floats it then gives numpy's bits (see
    ``MapSpec.one``).
    """
    clash = sorted(_RESERVED & set(params))
    if clash:
        raise ConfigError(f"reserved name(s) used as parameter: {clash}")
    try:
        tree = ast.parse(expr, mode="eval")
    except SyntaxError as e:
        raise ConfigError(f"cannot parse expression {expr!r}: {e}") from e
    callees, used = set(), set()
    for node in ast.walk(tree):  # a node comes before its children
        if not isinstance(node, _GRAMMAR):
            raise ConfigError(
                f"unsupported expression element {type(node).__name__}"
            )
        if isinstance(node, ast.Call):
            fn = node.func
            if (not isinstance(fn, ast.Name) or fn.id not in _FUNCTIONS
                    or node.keywords or len(node.args) != 1):
                raise ConfigError(
                    "only exp, log, sqrt calls with one argument are allowed, "
                    f"got {ast.unparse(node)!r}"
                )
            callees.add(fn)
        elif isinstance(node, ast.Name):
            if node not in callees and node.id not in ("x", "y", *params):
                raise ConfigError(f"unknown name {node.id!r} in expression")
            used.add(node.id)
        elif isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ConfigError(f"unsupported constant {node.value!r}")
            try:
                node.value = float(node.value)
            except OverflowError as e:
                raise ConfigError("integer constant too large") from e
    unused = sorted(set(params) - used)
    if unused:
        raise ConfigError(f"the expression {expr!r} does not use the "
                          f"parameter(s) {', '.join(unused)}")
    args = ast.arguments(posonlyargs=[], args=[ast.arg("x"), ast.arg("y")],
                         kwonlyargs=[], kw_defaults=[], defaults=[])
    code = compile(ast.fix_missing_locations(
        ast.Expression(ast.Lambda(args, tree.body))), "<expression>", "eval")
    namespace = {k: float(v) for k, v in params.items()}
    namespace.update(_FUNCTIONS, __builtins__={})
    func = eval(code, namespace)
    func.float_exact = not any(isinstance(node, _NOT_FLOAT_EXACT)
                               for node in ast.walk(tree))
    return func


@dataclass
class MonotonicityAudit:
    ok: bool
    n_violations_x: int
    n_violations_y: int
    worst_violation: float
    witness: Optional[tuple] = None


# the monotonicity audit's lattice size and tolerance, relative to the
# sampled range of F so that flat maps do not trip on rounding noise
_MONO_GRID = 256
_MONO_TOL = 1e-9


def lattice_violations(Z: np.ndarray, signature: MonotoneSignature,
                       tol: float):
    """Count the steps of the lattice values Z (x along axis 0) that go
    against the signature by more than tol, along x and along y, and
    give the worst as (i, j, axis, signed step from node (i, j)), or
    None; on a tie, the x step."""
    dx = signature.first.sign * np.diff(Z, axis=0)
    dy = signature.second.sign * np.diff(Z, axis=1)
    n_x = int(np.count_nonzero(dx < -tol))
    n_y = int(np.count_nonzero(dy < -tol))
    if not (n_x or n_y):
        return n_x, n_y, None
    axis, d = ("x", dx) if dx.min() <= dy.min() else ("y", dy)
    i, j = np.unravel_index(np.argmin(d), d.shape)
    return n_x, n_y, (int(i), int(j), axis, float(d[i, j]))


def check_monotonicity(spec: MapSpec, box: Box) -> MonotonicityAudit:
    """Audit the declared signature on a 256 x 256 lattice of ``box``."""
    xs = np.linspace(box.x0, box.x1, _MONO_GRID)
    ys = np.linspace(box.y0, box.y1, _MONO_GRID)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    Z = spec.eval_checked(X, Y)
    spread = float(Z.max() - Z.min())
    n_x, n_y, worst = lattice_violations(
        Z, spec.signature, _MONO_TOL * max(1.0, spread))
    if worst is None:
        return MonotonicityAudit(True, n_x, n_y, 0.0)
    i, j, axis, step = worst
    return MonotonicityAudit(False, n_x, n_y, -step,
                             (float(xs[i]), float(ys[j]), axis))
