import time
from fractions import Fraction

import pytest

from geotits import exact
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


def reference_det_sign(rows):
    """Sign of a determinant by Gaussian elimination over ``Fraction``,
    kept as the oracle for ``exact.det_sign``."""
    mat = [list(map(Fraction, r)) for r in rows]
    n = len(mat)
    sign = 1
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if mat[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            return 0
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            sign = -sign
        if mat[c][c] < 0:
            sign = -sign
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] / mat[c][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[c])]
    return sign


def reference_coordinates(sub, v):
    """Coordinates of v in a subspace's basis by solving
    (basis columns) x = v, or None when v lies outside."""
    if not sub.basis:
        return None if any(v) else ()
    sol = exact.solve_affine(list(zip(*sub.basis)), [Fraction(x) for x in v])
    if sol is None:
        return None
    x0, hom = sol
    assert not hom  # the basis rows are independent
    return x0


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
