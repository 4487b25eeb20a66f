import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monomap.map_model import (
    Box,
    DEC_INC,
    INC_DEC,
    MapSpec,
    NonFiniteValue,
    check_monotonicity,
    compile_expression,
    lattice_violations,
)


def rational(x, y):
    return (1.0 + x) / (1.0 + x + y)


def spec_inc_dec():
    return MapSpec(rational, INC_DEC, Box(0.0, 1.0, 0.0, 1.0), name="rational")


class TestBox:
    def test_diam_and_tuple(self):
        b = Box(0.0, 3.0, 1.0, 5.0)
        assert b.diam == pytest.approx(5.0)
        assert b.as_tuple() == (0.0, 3.0, 1.0, 5.0)


class TestMonotonicityAudit:
    def test_correct_signature_passes(self):
        spec = spec_inc_dec()
        audit = check_monotonicity(spec, spec.box)
        assert audit.ok
        assert audit.n_violations_x == 0
        assert audit.n_violations_y == 0

    def test_wrong_signature_fails_with_witness(self):
        spec = MapSpec(rational, DEC_INC, Box(0.0, 1.0, 0.0, 1.0))
        audit = check_monotonicity(spec, spec.box)
        assert not audit.ok
        assert audit.n_violations_x + audit.n_violations_y > 0
        assert audit.witness is not None
        assert audit.worst_violation > 0

    @pytest.mark.parametrize("func, axis, i, j", [
        # declared inc_dec: y - x falls by exactly 1 along both axes of
        # the integer lattice, a tie the x step wins, from the first node
        (lambda x, y: y - x, "x", 0, 0),
        # falls by 2 along y where x >= 100, by at most 1 along x
        (lambda x, y: y - x + np.where(x >= 100, y, 0.0), "y", 100, 0),
    ])
    def test_worst_step_and_its_node(self, func, axis, i, j):
        # the signature audit and the extension audit's check C3 read
        # one scan; both name the same worst step
        box = Box(0.0, 255.0, 0.0, 255.0)
        audit = check_monotonicity(MapSpec(func, INC_DEC, box), box)
        assert audit.witness == (float(i), float(j), axis)
        assert audit.worst_violation == (1.0 if axis == "x" else 2.0)
        n_x, n_y, worst = lattice_violations(
            func(*np.meshgrid(np.arange(256.0), np.arange(256.0),
                              indexing="ij")), INC_DEC, 1e-9)
        assert (n_x, n_y) == (audit.n_violations_x, audit.n_violations_y)
        assert worst == (i, j, axis, -audit.worst_violation)

    @pytest.mark.parametrize("name", ["eq7", "eq8", "rational", "calls",
                                      "power", "lambda", "only_y"])
    def test_lattice_on_axes_has_the_meshgrid_bits(self, name, monkeypatch):
        # F on the broadcast axes xs[:, None], ys[None, :] gives the bits
        # of F on the full meshgrid; the audit reads no other values
        from monomap import map_model
        from monomap.examples import make_eq7, make_eq8

        exprs = {
            "rational": "(a + b*x)/(1 + x + c*y*y)",
            "calls": "exp(-c*y) * sqrt(1 + x) + log(1 + a*x) - b*y",
            "power": "(a + x) ** b / (1 + y) ** c",
            "only_y": "a*b*c - y",
        }
        if name in exprs:
            params = {"a": 0.7, "b": 1.3, "c": 0.4}
            spec = MapSpec(compile_expression(exprs[name], params), INC_DEC,
                           Box(0.0, 2.0, 0.5, 3.0), params=params)
        elif name == "lambda":
            spec = MapSpec(lambda x, y: np.tanh(x) - np.arctan(y) / 3,
                           INC_DEC, Box(-1.0, 4.0, -2.0, 2.0))
        else:
            spec = (make_eq7(1.0, 2.0, 3.0) if name == "eq7"
                    else make_eq8(1.0, 0.45))[0]
        seen = []
        scan = map_model.lattice_violations
        monkeypatch.setattr(map_model, "lattice_violations",
                            lambda Z, *a: seen.append(Z) or scan(Z, *a))
        b = spec.box
        assert check_monotonicity(spec, b).ok
        xs, ys = np.linspace(b.x0, b.x1, 256), np.linspace(b.y0, b.y1, 256)
        want = spec.eval_checked(*np.meshgrid(xs, ys, indexing="ij"))
        assert seen[0].shape == want.shape == (256, 256)
        assert seen[0].tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore:divide by zero")
    def test_non_finite_raises(self):
        spec = MapSpec(
            lambda x, y: (1.0 + x) / (x + y - x - y),
            INC_DEC,
            Box(0.0, 1.0, 0.0, 1.0),
        )
        with pytest.raises(NonFiniteValue):
            check_monotonicity(spec, spec.box)


@settings(max_examples=50, deadline=None)
@given(
    x=st.floats(0.0, 1.0),
    y=st.floats(0.0, 1.0),
    dx=st.floats(0.0, 0.5),
    dy=st.floats(0.0, 0.5),
)
def test_rational_map_is_mixed_monotone(x, y, dx, dy):
    x2 = min(x + dx, 1.0)
    y2 = min(y + dy, 1.0)
    assert rational(x2, y) >= rational(x, y) - 1e-12
    assert rational(x, y2) <= rational(x, y) + 1e-12


def test_mapspec_is_callable_and_vectorized():
    spec = spec_inc_dec()
    xs = np.array([0.0, 0.5, 1.0])
    ys = np.array([1.0, 0.5, 0.0])
    out = spec(xs, ys)
    assert out.shape == (3,)
    assert out[1] == pytest.approx(rational(0.5, 0.5))


class TestFloatTwin:
    """MapSpec.one on Python floats gives the bits MapSpec.__call__ gives
    on 0-d arrays: a marked expression runs on the floats themselves."""

    # one case per grammar element the mark admits, and the two rational
    # families
    EXACT = ["x + y", "x - y", "x * y", "x / y", "-x", "+y", "p * x - y",
             "x / 3", "2", "p", "(p + q*x) / (1 + x + r*y)",
             "(p + 2*p*x) / (1 + x + y) - h", "-(x - -y) * +p / (y + q)"]
    PARAMS = {"p": 0.7, "q": 1.3, "r": 2.5, "h": 0.3}

    @staticmethod
    def _spec(expr, params=None):
        params = {k: v for k, v in (params or TestFloatTwin.PARAMS).items()
                  if re.search(rf"\b{k}\b", expr)}
        return MapSpec(compile_expression(expr, params), INC_DEC,
                       Box(0.0, 1.0, 0.0, 1.0), params=params)

    @staticmethod
    def _points():
        rng = np.random.default_rng(20261019)
        pts = rng.uniform(-3.0, 3.0, (400, 2)).tolist()
        pts += (rng.uniform(-1.0, 1.0, (100, 2)) * 1e-310).tolist()
        special = [0.0, -0.0, 1.0, -1.0, 5e-324, 1e308, -1e308]
        pts += [[a, b] for a in special for b in special]
        return pts

    @staticmethod
    def _bits(v):
        return np.float64(v).tobytes()

    @pytest.mark.parametrize("expr", EXACT)
    def test_marked_expressions_match_numpy_bitwise(self, expr):
        spec = self._spec(expr)
        assert spec.float_exact
        with np.errstate(all="ignore"):  # 1/0 and overflow, in numpy
            for a, b in self._points():
                got = spec.one(a, b)
                assert self._bits(got) == self._bits(spec(a, b)), (expr, a, b)

    @pytest.mark.parametrize("expr", ["x ** 3 / (1 + y)", "x * exp(-y)",
                                      "log(1 + x) - y", "sqrt(x) / (1 + y)",
                                      "x ** 2.0 - y"])
    def test_powers_and_calls_keep_numpy(self, expr):
        spec = self._spec(expr)
        assert not spec.float_exact
        rng = np.random.default_rng(3)
        for a, b in rng.uniform(0.0, 3.0, (200, 2)).tolist():
            got = spec.one(a, b)
            assert type(got) is float
            assert self._bits(got) == self._bits(spec(a, b))

    def test_hand_written_maps_are_not_marked(self, xfy_problem):
        assert not spec_inc_dec().float_exact
        assert not MapSpec(lambda x, y: x - y, INC_DEC,
                           Box(0.0, 1.0, 0.0, 1.0)).float_exact
        assert not xfy_problem[0].float_exact

    def test_division_by_zero_takes_numpy_values(self):
        # Python floats raise on 1/0 and 0/0; one gives numpy's inf, -inf
        # and NaN (x86 sets its sign bit), with numpy's warning
        spec = self._spec("(x - y) / (x + y)")
        for (a, b), want in (((1.0, -1.0), math.inf),
                             ((-1.0, 1.0), -math.inf),
                             ((0.0, -0.0), math.nan)):
            with pytest.warns(RuntimeWarning):
                got = spec.one(a, b)
            with np.errstate(all="ignore"):
                assert self._bits(got) == self._bits(spec(a, b))
            assert got == want or math.isnan(want) and math.isnan(got)

    def test_overflow_is_inf_as_in_numpy(self):
        spec = self._spec("x * x * 1e300")
        got = spec.one(1e10, 0.0)
        with np.errstate(over="ignore"):
            assert self._bits(got) == self._bits(spec(1e10, 0.0))
        assert got == math.inf

    def test_mark_is_read_when_the_spec_is_built(self):
        # a counter put on func afterwards sees every float call, on the
        # floats; a spec built around the counter has no mark
        spec = self._spec("(p + q*x) / (1 + x + r*y)")
        func, seen = spec.func, []

        def counted(x, y):
            seen.append((type(x), type(y)))
            return func(x, y)

        spec.func = counted
        assert spec.float_exact
        assert spec.one(0.25, 0.5) == func(0.25, 0.5)
        assert seen == [(float, float)]
        assert not MapSpec(counted, INC_DEC, spec.box).float_exact


class TestBroadcast:
    def test_output_takes_the_inputs_broadcast_shape(self):
        const = MapSpec(compile_expression("1.0", {}), INC_DEC,
                        Box(0.0, 1.0, 0.0, 1.0))
        got = const(np.zeros((2, 3)), np.zeros((2, 3)))
        assert got.shape == (2, 3) and np.all(got == 1.0)
        got[0, 0] = 2.0  # a writable array of its own
        assert const(0.5, 0.5).shape == ()
        only_x = MapSpec(compile_expression("x", {}), INC_DEC,
                         Box(0.0, 1.0, 0.0, 1.0))
        got = only_x(np.arange(3.0), np.zeros((2, 1)))
        np.testing.assert_array_equal(got, [[0.0, 1.0, 2.0]] * 2)
