import pytest

from orderkit.generators import enumerate_lattices, enumerate_posets, named


@pytest.fixture(scope="session")
def posets_upto_5():
    return {n: list(enumerate_posets(n)) for n in range(1, 6)}


@pytest.fixture(scope="session")
def posets_upto_6(posets_upto_5):
    out = dict(posets_upto_5)
    out[6] = list(enumerate_posets(6))
    return out


@pytest.fixture(scope="session")
def lattices_upto_6():
    return {n: list(enumerate_lattices(n)) for n in range(1, 7)}


@pytest.fixture(scope="session")
def lattices_upto_7(lattices_upto_6):
    out = dict(lattices_upto_6)
    out[7] = list(enumerate_lattices(7))
    return out


@pytest.fixture(scope="session")
def m3():
    return named("M3")


@pytest.fixture(scope="session")
def n5():
    return named("N5")
