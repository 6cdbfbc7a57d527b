import pytest

from sigbound.moments import build_moment_table


@pytest.fixture(scope="session")
def table_y3_r50():
    return build_moment_table(3, 50)


@pytest.fixture(scope="session")
def table_y31_r200():
    return build_moment_table(31, 200)
