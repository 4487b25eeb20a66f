import numpy as np
import pytest

from monomap.errors import DegenerateCase, ParamConstraint
from monomap.examples import (
    eq7_equilibrium,
    eq8_x_star,
    make_eq7,
    make_eq8,
    make_xfy,
)
from monomap.geometry import DomainKind
from monomap.map_model import check_monotonicity


class TestEq7Family:
    def test_domain_is_the_square(self):
        spec, domain = make_eq7(1.0, 2.0, 3.0)
        assert domain.bbox == pytest.approx((0.0, 2.0, 0.0, 2.0))
        assert domain.classify() == DomainKind.RECTANGLE

    def test_map_is_mixed_monotone(self):
        spec, _ = make_eq7(1.0, 2.0, 3.0)
        assert check_monotonicity(spec, spec.box).ok

    def test_equilibrium_closed_form(self):
        # positive root of (1+r) x^2 + (1-q) x - p = 0
        x = eq7_equilibrium(1.0, 1.0, 1.0)
        assert x == pytest.approx(np.sqrt(0.5), abs=1e-12)

    def test_param_constraints(self):
        with pytest.raises(ParamConstraint):
            make_eq7(2.0, 1.0, 1.0)  # p > q
        with pytest.raises(ParamConstraint):
            make_eq7(1.0, 2.0, -1.0)  # r <= 0
        with pytest.raises(ParamConstraint):
            make_eq7(0.0, 2.0, 1.0)  # p <= 0


class TestEq8Family:
    def test_pentagon_domain(self):
        spec, domain = make_eq8(1.0, 0.3)
        assert len(domain.vertices) >= 5
        assert domain.classify() == DomainKind.CONVEX

    def test_equilibrium(self):
        assert eq8_x_star(1.0, 0.3) == pytest.approx(0.7)
        spec, _ = make_eq8(1.0, 0.3)
        assert float(spec(0.7, 0.7)) == pytest.approx(0.7, abs=1e-12)

    def test_degenerate_height(self):
        with pytest.raises(DegenerateCase):
            make_eq8(1.0, 0.5)

    def test_param_constraints(self):
        with pytest.raises(ParamConstraint):
            make_eq8(1.0, 1.2)  # h >= 1/2 and h >= p
        with pytest.raises(ParamConstraint):
            make_eq8(0.3, 0.4)  # h >= p
        with pytest.raises(ParamConstraint):
            make_eq8(-1.0, 0.3)


@pytest.mark.parametrize("make, params, reference", [
    (make_eq7, (0.5, 2.0, 4.0),
     lambda x, y, p, q, r: (p + q * x) / (1 + x + r * y)),
    (make_eq7, (1.0, 1.0, 1.0),
     lambda x, y, p, q, r: (p + q * x) / (1 + x + r * y)),
    (make_eq8, (1.0, 0.49),
     lambda x, y, p, h: (p + 2 * p * x) / (1 + x + y) - h),
    (make_eq8, (2.0, 0.3),
     lambda x, y, p, h: (p + 2 * p * x) / (1 + x + y) - h),
])
def test_compiled_family_matches_its_formula(make, params, reference):
    spec, _ = make(*params)
    assert tuple(spec.params.values()) == params
    b = spec.box
    rng = np.random.default_rng(2024)
    x = rng.uniform(b.x0, b.x1, 10**6)
    y = rng.uniform(b.y0, b.y1, 10**6)
    assert np.array_equal(spec(x, y), reference(x, y, *params))


class TestXfYFamily:
    def test_valid_factor(self):
        spec, domain = make_xfy(lambda y: 2.0 / (1.0 + y))
        assert domain.bbox == pytest.approx((0.01, 3.0, 0.01, 3.0))
        assert check_monotonicity(spec, spec.box).ok

    def test_increasing_factor_rejected(self):
        with pytest.raises(ParamConstraint):
            make_xfy(lambda y: 1.0 + y)

    def test_small_factor_at_zero_rejected(self):
        with pytest.raises(ParamConstraint):
            make_xfy(lambda y: 0.5 / (1.0 + y))
