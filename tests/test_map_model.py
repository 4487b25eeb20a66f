import math

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
        audit = check_monotonicity(spec_inc_dec())
        assert audit.ok
        assert audit.n_violations_x == 0
        assert audit.n_violations_y == 0

    def test_wrong_signature_fails_with_witness(self):
        spec = MapSpec(rational, DEC_INC, Box(0.0, 1.0, 0.0, 1.0))
        audit = check_monotonicity(spec)
        assert not audit.ok
        assert audit.n_violations_x + audit.n_violations_y > 0
        assert audit.witness is not None
        assert audit.worst_violation > 0

    def test_non_finite_raises(self):
        spec = MapSpec(
            lambda x, y: (1.0 + x) / (x + y - x - y),
            INC_DEC,
            Box(0.0, 1.0, 0.0, 1.0),
        )
        with pytest.raises(NonFiniteValue):
            check_monotonicity(spec)


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
