"""Fixed-point-free involutions: enumeration, uniform sampling, statistics.

A fixed-point-free involution of {0..n-1} (n even) is a perfect matching;
there are (n-1)!! of them.  An involution is coded by its per-step choice
sequence (step t pairs the smallest unpaired index with the (1+c_t)-th
smallest of the rest), and its canonical rank is that sequence read as a
mixed-radix number.  Enumeration decodes the ranks 0, 1, 2, ... in order, so
the canonical order is lexicographic in the choice sequence.

A matching is held in one of two forms: a pairing order (``match_pairs``
output, pair t at entries 2t and 2t+1), or a row of an (m, n) int64 image
matrix (pi(x) at column x); ``_kernels.images_of`` and
``_kernels.pairing_order`` convert between them.

Uniform sampling repeatedly matches the smallest unmatched index to a
uniform choice among the remaining unmatched indices; uniformity follows
from |Pi_n| = (n-1) |Pi_{n-2}|.  The choices of consecutive steps are drawn
together (``draw_choices``): one uniform 32-bit integer below the product of
their choice counts, split into its mixed-radix digits, gives them
independent and exactly uniform.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import _kernels, rng as rngmod
from .arrays import CenteredArray
from .errors import InputError

ENUM_CAP = 16  # |Pi_16| ~ 2.03M keeps exact sweeps desk-scale
MATRIX_CAP = 12  # |Pi_12| = 10,395 rows: every materialized involution matrix
ATOM_MERGE_TOL = 1e-12


def double_factorial(n: int) -> int:
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def _check_even(n: int) -> None:
    if n < 2 or n % 2:
        raise InputError(f"n={n}: involutions without fixed points need even n >= 2")


def enumerate_involutions(n: int) -> Iterator[np.ndarray]:
    """Pairing orders of all (n-1)!! involutions, in canonical order, for n <= ENUM_CAP.

    Each rank is split into its choice digits by ``_split_digits``, as in
    ``draw_choices``, and paired by ``match_pairs``, 65536 ranks to a block.
    Parity and the cap are checked at the call; the returned iterator
    decodes the blocks lazily.
    """
    _check_even(n)
    if n > ENUM_CAP:
        raise InputError(f"n={n} exceeds enumeration cap {ENUM_CAP}")
    total = double_factorial(n - 1)  # below 2**32 up to n = 20
    highs = choice_highs(n).tolist()
    block = 65536

    def decode(start: int) -> np.ndarray:
        ranks = np.arange(start, min(start + block, total), dtype=np.uint32)
        digits = np.empty((n // 2, ranks.size), dtype=np.min_scalar_type(n - 1))
        _split_digits(ranks, highs, digits)
        return _kernels.match_pairs(digits.T, n)

    return (decode(start) for start in range(0, total, block))


def involution_matrix(n: int) -> np.ndarray:
    """All involutions as an ((n-1)!!, n) image matrix, canonical order.

    Every oracle that holds all involutions at once goes through here, so
    ``MATRIX_CAP`` is their one limit; it is checked before any decoding.
    """
    if n > MATRIX_CAP:
        raise InputError(f"n={n} exceeds involution matrix cap {MATRIX_CAP}")
    return np.concatenate([_kernels.images_of(block) for block in enumerate_involutions(n)])


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def choice_highs(n: int) -> np.ndarray:
    """Number of partner choices at each pairing step: n-1, n-3, ..., 1."""
    return np.arange(n - 1, 0, -2, dtype=np.int64)


def _split_digits(rest: np.ndarray, highs: list[int], out: np.ndarray) -> None:
    """Write the mixed-radix digits of ``rest`` over ``highs`` into the rows of ``out``.

    ``rest`` is a uint32 array below ``prod(highs)``, divided in place; row
    0 gets the most significant digit, so a canonical rank splits into its
    choice sequence.
    """
    for t in range(len(highs) - 1, 0, -1):
        np.divmod(rest, highs[t], out=(rest, out[t]))
    out[0] = rest


def draw_choices(n: int, count: int, gen: np.random.Generator) -> np.ndarray:
    """``count`` uniform choice sequences as a ``(count, n/2)`` array.

    The digits are drawn in groups: each group is the longest run of
    consecutive highs whose product stays below 2**32 (the highs are odd,
    so it never equals it), and one uniform uint32 below that product is
    split into the group's digits, least significant first.  A uniform
    integer below ``prod(h)`` has independent uniform mixed-radix digits,
    so the law is exact.  For n <= 20 the group is the whole sequence and
    its draw is the canonical rank.  The result is the transposed view of
    an ``(n/2, count)`` array of the smallest unsigned type holding n - 1.
    """
    highs = choice_highs(n).tolist()
    out = np.empty((n // 2, count), dtype=np.min_scalar_type(n - 1))
    start = 0
    while start < len(highs):
        stop, prod = start + 1, highs[start]
        while stop < len(highs) and prod * highs[stop] < 2**32:
            prod *= highs[stop]
            stop += 1
        rest = gen.integers(0, prod, size=count, dtype=np.uint32)
        _split_digits(rest, highs[start:stop], out[start:stop])
        start = stop
    return out.T


def sample_y_values(
    entries: np.ndarray,
    m: int,
    *,
    master_seed: int = rngmod.DEFAULT_SEED,
    stream: int = 0,
    threads: int = 1,
) -> np.ndarray:
    """``m`` Monte Carlo values of Y = sum_i e_{i,pi(i)}, summed off the pairing orders.

    No image matrix is built.  The result is a pure function of
    (master_seed, stream, m); thread count only schedules the chunks.  The
    test reference ``sample_involutions`` (``tests/oracles.py``) draws image
    rows on the same chunk streams, and these values are Y of its rows.
    """
    n = entries.shape[0]
    _check_even(n)

    def worker(count: int, gen: np.random.Generator) -> np.ndarray:
        return _kernels.y_batch(entries, _kernels.match_pairs(draw_choices(n, count, gen), n))

    parts = rngmod.run_chunked(
        m,
        worker,
        master_seed=master_seed,
        purpose=rngmod.PURPOSE_INVOLUTIONS,
        extra_id=stream,
        threads=threads,
    )
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# the statistic and its exact law
# ---------------------------------------------------------------------------


@dataclass
class ExactDistribution:
    """Finite law as sorted atoms with integer multiplicities."""

    values: np.ndarray
    counts: np.ndarray

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def probs(self) -> np.ndarray:
        return self.counts / self.total


def _merge_atoms(values: np.ndarray) -> ExactDistribution:
    vals, counts = np.unique(values, return_counts=True)
    if len(vals) == 0:
        raise InputError("empty value list")
    # an atom starts wherever the step from the previous distinct value exceeds the tolerance
    starts = np.flatnonzero(np.concatenate(([True], np.diff(vals) > ATOM_MERGE_TOL)))
    merged_c = np.add.reduceat(counts, starts)
    return ExactDistribution(
        values=np.add.reduceat(vals * counts, starts) / merged_c,
        counts=merged_c.astype(np.int64),
    )


def exact_w_distribution(D: CenteredArray) -> ExactDistribution:
    """Exact law of W = Y_D over the uniform involution, for n <= ENUM_CAP."""
    values = [_kernels.y_batch(D.entries, block) for block in enumerate_involutions(D.n)]
    return _merge_atoms(np.concatenate(values))
