"""Shared session fixtures: the expensive generator systems and graphs
are built once and reused across test modules.  Wall-clock build times
are recorded so the acceptance report can attribute construction cost
to the criteria that rely on these objects."""

import time

import pytest

from cayplex.cayley import bfs_build
from cayplex.genforge import (
    build_omega,
    build_omega_hat,
    make_params,
    symmetrize,
)

BUILD_TIMES = {}


def _timed(name, build):
    start = time.perf_counter()
    obj = build()
    BUILD_TIMES[name] = time.perf_counter() - start
    return obj


@pytest.fixture(scope="session")
def build_times():
    return BUILD_TIMES


@pytest.fixture(scope="session")
def p35():
    return make_params(3, 5, s=1)


@pytest.fixture(scope="session")
def omega35(p35):
    return build_omega(p35)


@pytest.fixture(scope="session")
def bar35(omega35):
    return symmetrize(omega35)


@pytest.fixture(scope="session")
def hat35(omega35):
    return _timed("hat35", lambda: build_omega_hat(omega35))


@pytest.fixture(scope="session")
def bar35_s2():
    params = make_params(3, 5, s=2)
    return symmetrize(build_omega(params))


@pytest.fixture(scope="session")
def p53():
    return make_params(5, 3, s=1)


@pytest.fixture(scope="session")
def omega53(p53):
    return build_omega(p53)


@pytest.fixture(scope="session")
def bar53(omega53):
    return symmetrize(omega53)


@pytest.fixture(scope="session")
def hat53(omega53):
    return build_omega_hat(omega53)


@pytest.fixture(scope="session")
def hat44():
    return build_omega_hat(build_omega(make_params(4, 4)))


@pytest.fixture(scope="session")
def bar53_s2():
    params = make_params(5, 3, s=2)
    return symmetrize(build_omega(params))


@pytest.fixture(scope="session")
def graph53(bar53):
    return _timed("graph53", lambda: bfs_build(bar53, max_vertices=400_000))


@pytest.fixture(scope="session")
def graph53_s2(bar53_s2):
    return _timed(
        "graph53_s2", lambda: bfs_build(bar53_s2, max_vertices=400_000)
    )


@pytest.fixture(scope="session")
def graph53_hat(hat53):
    return bfs_build(hat53, max_vertices=400_000)


@pytest.fixture(scope="session")
def bar42(omega42):
    return symmetrize(omega42)


@pytest.fixture(scope="session")
def graph42(bar42):
    return bfs_build(bar42, max_vertices=1000)


@pytest.fixture(scope="session")
def p42():
    return make_params(4, 2)


@pytest.fixture(scope="session")
def omega42(p42):
    return build_omega(p42)
