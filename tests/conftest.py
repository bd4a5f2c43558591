import argparse

import numpy as np
import pytest

from invclt import cli, coupling, rng as rngmod
from invclt.arrays import standardize, validate_and_symmetrize
from invclt.bounds import lower_bound_array
from invclt.involutions import choice_highs


def rand_raw(n: int, seed: int, heavy: bool = False) -> np.ndarray:
    """Raw normal scores; ``heavy`` scales about 3 entries per row by 5."""
    gen = rngmod.derive_stream(seed, 0xBEEF, n)
    raw = gen.standard_normal((n, n))
    if heavy:
        raw = raw * (1.0 + 4.0 * (gen.random((n, n)) < 3.0 / n))
    return raw


def rand_symmetric(n: int, seed: int, heavy: bool = False):
    return validate_and_symmetrize(rand_raw(n, seed, heavy), symmetrize=True)


def rand_centered(n: int, seed: int, heavy: bool = False):
    return standardize(rand_symmetric(n, seed, heavy))


def cli_options() -> dict[str, set[str]]:
    """Each ``invclt`` subcommand -> its option strings, without ``-h``."""
    (sub,) = (
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in sub.choices.items()
    }


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


# ---------------------------------------------------------------------------
# one matching as an image row: test-side helpers over the batch calls
# ---------------------------------------------------------------------------


def from_cycles(n: int, cycles: list[tuple[int, int]]) -> np.ndarray:
    """Image row of the involution with the given 1-based two-cycles."""
    images = np.full(n, -1, dtype=np.int64)
    for a, b in cycles:
        images[a - 1], images[b - 1] = b - 1, a - 1
    assert_involution(images)
    return images


def y_value(entries: np.ndarray, images: np.ndarray):
    """Y = sum_i e[i, pi(i)] of an image row (or of each row of a matrix),
    entry by entry: the oracle for ``_kernels.y_batch``, which sums pairs."""
    return entries[np.arange(images.shape[-1]), images].sum(axis=-1)


def alpha_compose(images: np.ndarray, i: int, j: int) -> np.ndarray:
    """The swap map on one image row: plant the cycles (i, j) and
    (pi(i), pi(j)), every other cycle unchanged (``pi`` itself when (i, j)
    is a cycle)."""
    out = images.copy()
    pi_i, pi_j = int(images[i]), int(images[j])
    out[i], out[j] = j, i
    out[pi_i], out[pi_j] = pi_j, pi_i
    return out


def classify(images: np.ndarray, quad) -> tuple[int, int, int]:
    """(R1, R2, case) of one image row and quadruple, through ``coupling._cases``;
    raises ``NoCaseMatched`` as ``coupling.zero_bias_draws`` does."""
    q = np.asarray(quad, dtype=np.int64)
    cases = coupling._cases(q[:, None], images[q][:, None])
    coupling._require_cases(*cases)
    r1, r2, case = cases[:3]
    return int(r1[0]), int(r2[0]), int(case[0])


def pi_dagger(images: np.ndarray, quad) -> tuple[np.ndarray, bool]:
    """pi_dag of one image row through ``coupling.rewire``, and its closure flag."""
    dag, _, ok = coupling.rewire(images[None, :], np.asarray([quad], dtype=np.int64))
    return dag[0], bool(ok[0])
