import numpy as np
import pytest

from invclt import rng as rngmod
from invclt.arrays import standardize, validate_and_symmetrize
from invclt.bounds import lower_bound_array
from invclt.involutions import choice_highs, involution_matrix


def rand_symmetric(n: int, seed: int, heavy: bool = False):
    gen = rngmod.derive_stream(seed, 0xBEEF, n)
    raw = gen.standard_normal((n, n))
    if heavy:
        raw = raw * (1.0 + 4.0 * (gen.random((n, n)) < 3.0 / n))
    return validate_and_symmetrize(raw, symmetrize=True)


def rand_centered(n: int, seed: int, heavy: bool = False):
    return standardize(rand_symmetric(n, seed, heavy))


@pytest.fixture(scope="session")
def appendix4():
    return lower_bound_array(4)


@pytest.fixture(scope="session")
def appendix4_std(appendix4):
    return standardize(appendix4)


@pytest.fixture()
def gen():
    return rngmod.derive_stream(20250810, 1, 1)


def assert_involution(images: np.ndarray) -> None:
    n = images.shape[0]
    idx = np.arange(n)
    assert np.all(images != idx)
    assert np.array_equal(images[images], idx)


def canonical_positions(images: np.ndarray) -> np.ndarray:
    """Row index in ``involution_matrix(n)`` of each row of an image matrix.

    Rows are compared through their base-n digit codes.
    """
    n = images.shape[1]
    place = n ** np.arange(n, dtype=np.int64)
    codes = involution_matrix(n) @ place
    order = np.argsort(codes)
    return order[np.searchsorted(codes, images @ place, sorter=order)]


def rank_of(images: np.ndarray) -> int:
    """Canonical rank of one involution (inverse of the choice decoding).

    Walks the row with a Python list, independently of the kernels; the
    mixed-radix value is built in Python ints, so it is exact at every ``n``,
    also where ``(n-1)!!`` overflows int64.
    """
    n = images.shape[0]
    rem = list(range(n))
    rank = 0
    for high in choice_highs(n).tolist():
        i0 = rem.pop(0)
        j = int(images[i0])
        rank = rank * high + rem.index(j)
        rem.remove(j)
    return rank
