import re
import sys

import pytest

from gradedaut.grading import DegreeMatrix, GradingGroup
from gradedaut.polynomials import GradedPolyRing, Ideal

# Eight coordinates, grading by Z^3 + Z/2, single quadric relation.
# This configuration exercises every feature at once: torsion, repeated
# component dimensions, a nontrivial finite symmetry group of the weight
# set, and a full-dimensional GIT chamber.
QUADRIC8_ROWS = (
    (1, 1, 0, 0, -1, -1, 2, -2),
    (0, 1, 1, -1, -1, 0, 1, -1),
    (1, 1, 1, 1, 1, 1, 1, 1),
    (1, 0, 1, 0, 1, 0, 1, 0),
)
QUADRIC8_GEN = "T(1)*T(6) + T(2)*T(5) + T(3)*T(4) + T(7)*T(8)"

# the four weight symmetries of that configuration, in display form and
# canonical listing order
QUADRIC8_AUT_MATRICES = (
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((1, -2, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1)),
    ((-1, 2, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 1, 1, 1)),
    ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 1, 1)),
)



def line_col(text, at):
    """The 1-based line and column of offset `at` of text."""
    return text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)


@pytest.fixture(scope="session")
def quadric8_group():
    return GradingGroup(3, (2,))


@pytest.fixture(scope="session")
def quadric8_Q(quadric8_group):
    return DegreeMatrix.from_rows(quadric8_group, QUADRIC8_ROWS)


@pytest.fixture(scope="session")
def quadric8_ring(quadric8_Q):
    return GradedPolyRing.from_degree_matrix(quadric8_Q)


@pytest.fixture(scope="session")
def quadric8_ideal(quadric8_ring):
    return Ideal(quadric8_ring, (quadric8_ring.parse(QUADRIC8_GEN),))


# One visible verdict line per numbered acceptance check, printed past
# the capture machinery so the summary survives any output mode.
@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    match = re.match(r"test_criterion_(\d+)", item.name)
    if match and item.fspath.basename == "test_acceptance.py":
        status = "pass" if rep.passed else "FAIL"
        print(f"criterion {int(match.group(1)):2d}: {status}",
              file=sys.__stderr__)
