import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import monomap.cli
from monomap.examples import make_eq7, make_eq8, make_xfy
from monomap.extension import _Z_BASE, extend, extend_rectangle
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


def src_env():
    """The environment with the tested ``monomap``'s source directory
    first on PYTHONPATH, for a subprocess."""
    src = str(Path(monomap.cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def run_cli(args, cwd, timeout=120):
    """Run ``python -m monomap.cli`` with ``args`` in a subprocess that
    is killed after ``timeout`` seconds, so a command that hangs fails
    the test instead of stalling the run; returns the CompletedProcess
    (text output)."""
    return subprocess.run([sys.executable, "-m", "monomap.cli", *args],
                          cwd=cwd, env=src_env(), capture_output=True,
                          text=True, timeout=timeout)


def engine_base_oracle(engine, x, y):
    """Whether each point (x, y) of the engine's frame is one where its
    eval is F by classify alone: in the base zone and outside every
    sector's x span."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    ok = engine.classify(x, y) == _Z_BASE
    for lo, hi in engine._sector_spans:
        ok &= (x < lo) | (x > hi)
    return ok


def base_oracle(ext, x, y):
    """Whether ``ext.eval`` at each point (x, y) is F at that very
    point, by classify: the point lies in the rectangle (eval clamps one
    outside it) and, with an engine, passes ``engine_base_oracle`` in
    the engine's frame."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    r = ext.rect
    ok = (r.x0 <= x) & (x <= r.x1) & (r.y0 <= y) & (y <= r.y1)
    if ext.engine is None:
        return ok
    if ext.swapped:
        x, y = y, x
    return ok & engine_base_oracle(ext.engine, x, y)
