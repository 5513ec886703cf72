import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Every run draws the same examples, so a property failure reproduces with
# the same command.
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")

from gkmflag.rootsys import RootSystem


@pytest.fixture(scope="session")
def a1():
    return RootSystem("A", 1)


@pytest.fixture(scope="session")
def a2():
    return RootSystem("A", 2)


@pytest.fixture(scope="session")
def a3():
    return RootSystem("A", 3)


@pytest.fixture(scope="session")
def b2():
    return RootSystem("B", 2)


@pytest.fixture(scope="session")
def b3():
    return RootSystem("B", 3)


@pytest.fixture(scope="session")
def c2():
    return RootSystem("C", 2)


@pytest.fixture(scope="session")
def c3():
    return RootSystem("C", 3)


@pytest.fixture(scope="session")
def d3():
    return RootSystem("D", 3)
