import pytest

from kkweyl.rootsys import build_e_system, build_from_cartan, named_order

# one summary line per acceptance criterion, emitted after the test run
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.line(line)


def path_cartan(n: int) -> list[list[int]]:
    return [[2 if i == j else (-1 if abs(i - j) == 1 else 0)
             for j in range(n)] for i in range(n)]


@pytest.fixture(scope="session")
def a1():
    return build_from_cartan(path_cartan(1))


@pytest.fixture(scope="session")
def a2():
    return build_from_cartan(path_cartan(2))


@pytest.fixture(scope="session")
def a3():
    return build_from_cartan(path_cartan(3))


@pytest.fixture(scope="session")
def a4():
    return build_from_cartan(path_cartan(4))


@pytest.fixture(scope="session")
def e6():
    return build_e_system("E6")


@pytest.fixture(scope="session")
def e7():
    return build_e_system("E7")


@pytest.fixture(scope="session")
def e8():
    return build_e_system("E8")


@pytest.fixture(scope="session")
def e6_natural():
    return named_order("E6", "natural")


@pytest.fixture(scope="session")
def e6_alternate():
    return named_order("E6", "alternate")
