import numpy as np
import pytest
from hypothesis import settings

from monomap.examples import make_eq7, make_eq8, make_xfy
from monomap.extension import extend, extend_rectangle
from monomap.geometry import DomainSpec
from monomap.map_model import Box

# every run draws the same examples, so a failure reproduces as it is;
# a test's own @settings still sets its max_examples
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def eq8_problem():
    return make_eq8(1.0, 0.3)


@pytest.fixture(scope="session")
def eq8_ext(eq8_problem):
    spec, domain = eq8_problem
    return extend(spec, domain)


@pytest.fixture(scope="session")
def eq7_problem():
    return make_eq7(1.0, 1.0, 1.0)


@pytest.fixture(scope="session")
def eq7_ext(eq7_problem):
    spec, domain = eq7_problem
    x0, x1, y0, y1 = domain.bbox
    return extend_rectangle(spec, Box(x0, x1, y0, y1))


@pytest.fixture(scope="session")
def xfy_problem():
    return make_xfy(lambda y: 2.0 / (1.0 + y))


@pytest.fixture(scope="session")
def xfy_ext(xfy_problem):
    spec, domain = xfy_problem
    x0, x1, y0, y1 = domain.bbox
    return extend_rectangle(spec, Box(x0, x1, y0, y1))


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


# one PASS/FAIL line per acceptance criterion, shown after the test run
CRITERION_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if CRITERION_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_RESULTS:
            terminalreporter.write_line(line)
