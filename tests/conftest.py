import time

import pytest

from geotits import geometry as geo
from geotits import collection as coll_mod


E1 = geo.Geometry("E", 1)
E2 = geo.Geometry("E", 2)
E3 = geo.Geometry("E", 3)
H2 = geo.Geometry("H", 2)
H3 = geo.Geometry("H", 3)
S0 = geo.Geometry("S", 0)
S1 = geo.Geometry("S", 1)
S2 = geo.Geometry("S", 2)

TRIANGLE_COVS = [(0, 1, 0), (0, 0, 1), (1, -1, -1)]
FOUR_LINES_COVS = TRIANGLE_COVS + [(2, -5, -1)]
COORD_S2_COVS = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
H2_TRIANGLE_COVS = [(1, -3, -2), (1, 3, -2), (1, 0, 4)]
TWO_CUBE_COVS = [
    (1, 2, 0, 0),
    (-1, 8, 0, 0),
    (-3, 4, 0, 0),
    (5, 0, 8, 0),
    (0, 0, 1, 0),
    (5, 0, 0, 16),
    (-5, 0, 0, 16),
]


@pytest.fixture(scope="session")
def triangle():
    return coll_mod.closure_by_hyperplanes(E2, TRIANGLE_COVS)


@pytest.fixture(scope="session")
def four_lines():
    return coll_mod.closure_by_hyperplanes(E2, FOUR_LINES_COVS)


@pytest.fixture(scope="session")
def coord_s2():
    return coll_mod.closure_by_hyperplanes(S2, COORD_S2_COVS)


@pytest.fixture(scope="session")
def coord_s1():
    return coll_mod.closure_by_hyperplanes(S1, [(1, 0), (0, 1)])


@pytest.fixture(scope="session")
def h2_triangle():
    return coll_mod.closure_by_hyperplanes(H2, H2_TRIANGLE_COVS)


@pytest.fixture(scope="session")
def concurrent_e2():
    return coll_mod.closure_by_hyperplanes(E2, [(0, 1, 0), (0, 0, 1)])


class Budget:
    def __init__(self, number, title, seconds):
        self.number = number
        self.title = title
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} [{self.title}]: {status} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"criterion {self.number} exceeded its {self.seconds}s budget ({elapsed:.2f}s)"
            )
        return False
