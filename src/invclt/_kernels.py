"""Hot numeric kernels, vectorized in numpy.

The kernels below are the only implementation of each step.  The tests
check ``case_terms`` and ``exact_gap`` against plain-Python loop references
that live in ``tests/oracles.py``; those loops hold the only copy of the
ten-row table of short cycle sums ``T`` (before) and ``T_dag`` (after the
rewiring).  The rows themselves, as conditions, are in ``coupling._cases``,
which no hot path calls.

Kernel semantics:

* ``match_pairs(choices, n)``: sequential pairing.  Step ``t`` matches the
  smallest remaining index to the ``(1+c)``-th smallest, where
  ``c = choices[:, t]`` lies in ``[0, n - 2t - 1)``.  So the pairing order
  ``(i_0, j_0, i_1, j_1, ...)`` is the permutation with Lehmer code
  ``(0, c_0, 0, c_1, ...)``, and the kernel decodes that code on one
  ``(n, m)`` array, with no allocation per step.  Each entry starts with the
  shifts of the digits 0 at positions 2, 4, ... already added, so a step is
  one comparison and one add over the tail, and the shift of position 0 is
  one add at the end: O(n^2) byte operations per row.  The result is that
  pairing order itself, one ``(m, n)`` row per draw in the smallest unsigned
  dtype, pair ``t`` at entries ``2t, 2t+1``; no image matrix is built.
* ``images_of(order)`` scatters pairing orders into the ``(m, n)`` image
  matrix (``pi(x)`` at column ``x``), for the callers that need whole
  rows: ``involution_matrix`` (uint8) and the audit draws
  (``zero_bias_draws``, int64).  ``pairing_order(images)`` is its inverse:
  per row, each ``i < pi(i)`` in ascending order, followed by ``pi(i)``.
* ``partners(order, points)`` reads ``pi`` at a few points per row straight
  off the pairing order, with no image matrix; the MC gap
  (``zero_bias_gap_samples``) reads its four images this way.
* ``y_batch(d, order)``: Y = sum_i d[i, pi(i)], which for symmetric ``d``
  is twice the sum of ``d`` over the ``n/2`` pairs, gathered by a flat
  ``np.take`` per block of draws, so its scratch is at most
  ``_Y_BLOCK_INDICES`` int64 indices whatever the draw count; each draw
  sums its pairs in order.  The Monte Carlo values (``sample_y_values``)
  and the W of every involution (``exact_w_values``, read by the exact law
  and the zero-bias moments) pass it ``match_pairs`` output (sampled, or
  the blocks of ``enumerate_involutions``) directly.  The callers of
  ``pairing_order`` hold image matrices: the Stein sweep
  (``coupling.stein_sweep``, W of its involution matrix), the planted
  completions of ``coupling._planted_values`` and the audit of the draws
  (``checks.check_zero_bias_draw_invariants``).
* ``case_terms(d, images, quads)``: the coupling integrand of each
  (involution, quadruple) row, from the ``(m, 4)`` images
  ``(pi(I), pi(J), pi(K), pi(L))`` alone, as ``(a, delta)`` with
  ``a = T - T_dag + delta`` and ``delta = 2*(d_ik + d_jl - d_ij - d_kl)``,
  which equals both ``W - W'`` for the swap pair and ``Tdag - Tddag``;
  a draw's gap is ``|W - W*| = |a - u*delta|``.  Every reader of
  ``delta`` takes it from ``quad_pairs``, and ``stein_sweep`` reads
  ``W - W'`` off it at the quadruples ``(i, j, pi(i), pi(j))``.
* ``exact_gap(...)``: average of the closed-form segment integral
  ``int_0^1 |a - u*delta| du`` over every involution and every weighted
  quadruple; this is the exact mean coupling gap E|W - W*|.  It folds the
  quadruples first (``fold_orders``): for symmetric ``d`` the orders
  (i,j,k,l), (j,i,l,k), (k,l,i,j) and (l,k,j,i) name the same three
  candidate pairings {il|jk}, {ij|kl}, {ik|jl}, so they give bit-identical
  ``delta``, ``base`` and ``a`` under every involution, and one row with
  the summed weight stands for all four.  A term reads pi only at the
  row's four points, and relabelling them 0, 1, 2, 3 maps Pi_n onto
  itself, so each row sums its integrand once per distinct restriction
  ``invs[:, :4]`` (``image_restrictions``: 2,019 of 10,395 at ``n = 12``),
  weighted by its count (``restricted_a``).  The integral is
  ``|delta|*(phi(t) - t + 1/2)`` at ``t = a/delta`` (``_phi``), so with
  ``p*|delta|`` and ``p*sign(delta)`` folded into the weights each block
  of rows sums in four matrix-vector products.

One pairing rule (``pairing_rule``) picks, per (involution, quadruple), the
pairing {xy|zw} of the quadruple that pi holds: {il|jk} if pi holds (I,L)
or (J,K) (rows 3, 4, 9), {ij|kl} if it holds (I,J) or (K,L) (rows 5, 6, 8),
and the row's own {ik|jl} otherwise (rows 1, 2, 7, 10).  Two pairs of
different pairings share a point, so pi holds a pair of at most one of
them: the held pairing is the same whatever the row's order, and only
when none is held does the order choose.  Both integrand kernels read
``a`` off the rule: with ``v_x = d[x, pi(x)]`` and
``M(x, y) = 2*(v_x + v_y - d[pi(x), pi(y)])``, which is ``2*d_xy`` when
(x, y) is a cycle of pi, ``a = -2*(d_ij + d_kl) + M(x, y) + M(z, w)``.
``case_terms`` evaluates M per row; ``restricted_a`` tables it once per
pair of each row, on the row's relabelled points, and reads it at the
restrictions.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InputError


def backend() -> str:
    """The kernel implementation in use; the kernels are numpy only."""
    return "numpy"


# ---------------------------------------------------------------------------
# sequential pairing
# ---------------------------------------------------------------------------


def match_pairs(choices: np.ndarray, n: int) -> np.ndarray:
    """Batch pairing order, by decoding the Lehmer code ``(0, c_0, 0, c_1, ...)``.

    Returns an ``(m, n)`` array, one row per draw, in the smallest unsigned
    type that holds ``n - 1``: entries ``2t`` and ``2t + 1`` of a row are
    pair ``t``, the smaller point first.  It is the transposed view of
    ``seq``, which holds one row per position of the pairing order.
    Decoding right to left, every later entry at or above the current digit
    moves up by one, and a digit 0 moves every later entry up.  Row
    ``p >= 1`` of ``seq`` starts with its ``(p - 1) // 2`` shifts from the
    digits 0 at positions 2, 4, ... already added: ``c_t + t`` at ``2t + 1``
    and ``t - 1`` at ``2t``.  At step ``t`` the rows still compared are all
    ``t`` shifts ahead of the plain decode, so no comparison changes, and
    the shift of position 0 is one add at the end.
    """
    choices = np.asarray(choices)
    m = choices.shape[0]
    h = n // 2
    seq = np.zeros((n, m), dtype=np.min_scalar_type(n - 1))
    np.add(choices.T, np.arange(h, dtype=seq.dtype)[:, None], out=seq[1::2], casting="unsafe")
    seq[2::2] = np.arange(h - 1, dtype=seq.dtype)[:, None]
    ge = np.empty((n, m), dtype=bool)
    ge_int = ge.view(np.uint8)
    for t in range(h - 2, -1, -1):
        tail = seq[2 * t + 2 :]
        np.greater_equal(tail, seq[2 * t + 1], out=ge[: len(tail)])
        tail += ge_int[: len(tail)]
    seq[1:] += 1
    return seq.T


def images_of(order: np.ndarray, dtype=np.int64) -> np.ndarray:
    """The ``(m, n)`` image matrix of a batch of pairing orders, in ``dtype``.

    Row ``r`` maps each point ``x`` to its partner ``pi(x)``; the pairs are
    scattered both ways, row by row.
    """
    m, n = order.shape
    images = np.empty((m, n), dtype=dtype)
    flat = images.reshape(-1)
    rows = np.arange(m, dtype=np.int64)[:, None] * n
    idx = np.empty((m, n // 2), dtype=np.int64)
    first, second = order[:, 0::2], order[:, 1::2]
    np.add(first, rows, out=idx)
    flat[idx] = second
    np.add(second, rows, out=idx)
    flat[idx] = first
    return images


def partners(order: np.ndarray, points: np.ndarray) -> np.ndarray:
    """``pi`` at ``points`` (``(m, k)``, one row per pairing order), as ``(m, k)`` int64.

    Per point, three passes over the ``(n, m)`` transposed order in its own
    unsigned dtype: mark the position where the point sits, keep the entry
    paired with it there (``mate`` is the order with the two entries of
    every pair swapped), and OR over positions; exactly one position per
    row is marked.  The result is int64, since callers form ``pi(x) * n``.
    """
    seq = order.T
    mate = np.empty_like(seq)
    mate[0::2], mate[1::2] = seq[1::2], seq[0::2]
    # contiguous rows: a strided point row would keep the compare off SIMD
    pts = np.ascontiguousarray(points.T, dtype=seq.dtype)
    hit = np.empty(seq.shape, dtype=bool)
    out = np.empty(pts.shape, dtype=np.int64)
    for point, row in zip(pts, out):
        np.equal(seq, point, out=hit)
        row[:] = np.bitwise_or.reduce(hit * mate, axis=0)
    return out.T


def pairing_order(images: np.ndarray) -> np.ndarray:
    """Inverse of ``images_of``: per row, each ``i < pi(i)`` in ascending order, then ``pi(i)``.

    This is the order ``match_pairs`` decodes, in the same dtype.
    """
    m, n = images.shape
    lead = np.flatnonzero(images > np.arange(n))  # flat positions of each i < pi(i)
    order = np.empty((m, n), dtype=np.min_scalar_type(n - 1))
    order[:, 0::2] = (lead % n).reshape(m, n // 2)
    order[:, 1::2] = images.reshape(-1)[lead].reshape(m, n // 2)
    return order


# int64 pair indices per column block of y_batch: 3 MiB of scratch per call.
# A smaller block saves more, but glibc returns a freed heap top to the OS
# once it exceeds twice the largest block it has unmapped; at 1 MiB, each
# 8,192-draw chunk of lowerbound at n = 196 (4 MB of choices, pairing order
# and compare mask) was faulted in afresh: about 24,000 page faults per
# call against 2,000 at 3 MiB, and on two threads the call ran about 6%
# slower (its n = 196 row 10-17%).
_Y_BLOCK_INDICES = 393216


def y_batch(d: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Y = sum_i d[i, pi(i)] = 2 * sum_t d[a_t, b_t] over the pairs of each pairing order.

    ``d`` is symmetric and float64.  The draws (columns) are taken in
    blocks of at most ``_Y_BLOCK_INDICES // (n/2)``, so the scratch is
    bounded whatever the draw count.  Per block, one flat ``np.take``
    gathers the ``n/2`` pair entries of each draw, laid out pair by pair,
    and writes each value over its own flat index: ``take`` reads an index
    before it writes that slot, and ``mode="clip"`` (the indices are in
    range) keeps it from buffering the output, so no second buffer is
    built.  Each column is summed over its pairs in order, ``v_0 + v_1 +
    ...``, into its own slice of the result; a block of one column is summed
    by ``cumsum``, since numpy's ``sum`` over a single column is pairwise.
    """
    n = d.shape[0]
    h = n // 2
    cols = order.T
    m = cols.shape[1]
    block = max(1, min(m, _Y_BLOCK_INDICES // h))
    scratch = np.empty(h * block, dtype=np.int64)
    y = np.empty(m, dtype=np.float64)
    for s in range(0, m, block):
        b = min(block, m - s)
        idx = scratch[: h * b].reshape(h, b)
        np.multiply(cols[0::2, s : s + b], n, out=idx, dtype=np.int64)
        idx += cols[1::2, s : s + b]
        vals = idx.view(np.float64)
        np.take(d.ravel(), idx, out=vals, mode="clip")
        if b > 1:
            np.sum(vals, axis=0, out=y[s : s + b])
        else:
            y[s] = np.cumsum(vals)[-1]
    y *= 2.0
    return y


# ---------------------------------------------------------------------------
# pairing rule: a = T - T_dag + delta
# ---------------------------------------------------------------------------

# the six pairs ik, jl, ij, kl, il, jk of a quadruple, as positions in (I, J, K, L)
_PAIRS = ((0, 2), (1, 3), (0, 1), (2, 3), (0, 3), (1, 2))


def quad_pairs(d: np.ndarray, quads: np.ndarray):
    """Quadruple-only pieces of the gap integrand.

    Returns the flat indices into ``d.ravel()`` of the six pairs, keyed by
    their positions as in ``_PAIRS``, ``delta = 2*(d_ik + d_jl - d_ij - d_kl)``
    and ``base = -2*(d_ij + d_kl)``.
    """
    n = d.shape[1]
    flat = d.ravel()
    q = np.asarray(quads, dtype=np.int64).T
    pairs = {(x, y): q[x] * n + q[y] for x, y in _PAIRS}
    ik, jl, ij, kl = (flat[pairs[xy]] for xy in _PAIRS[:4])
    return pairs, 2.0 * (ik + jl - (ij + kl)), -2.0 * (ij + kl)


def pairing_rule(holds, options):
    """Per row, the entry of ``options`` for the pairing {xy|zw} that pi picks.

    ``options`` holds one value for each of {il|jk}, {ij|kl} and {ik|jl}, in
    that order, and ``holds(xy)`` is true where the pair ``xy`` (positions,
    as in ``_PAIRS``) is a cycle of pi.  pi holds a pair of at most one
    pairing, since two pairs of different pairings share a point, so the
    rule picks that held pairing, and the row's own {ik|jl} when none is
    held; the order in which it tests them does not change the pick.
    """
    _, _, ij, kl, il, jk = _PAIRS
    return np.where(
        holds(il) | holds(jk),
        options[0],
        np.where(holds(ij) | holds(kl), options[1], options[2]),
    )


def case_terms(d: np.ndarray, images: np.ndarray, quads: np.ndarray):
    """``(a, delta)`` by the pairing rule, one entry per row of ``images``/``quads``.

    ``images`` is ``(m, 4)``: ``pi(I), pi(J), pi(K), pi(L)`` of each row's
    quadruple, all of the involution that the integrand reads.
    """
    n = d.shape[1]
    flat = d.ravel()
    pairs, delta, base = quad_pairs(d, quads)
    q = quads.T
    p = images.T
    own = q * n + p  # flat index of each point's cycle (x, pi(x))
    v = flat[own]

    def m(xy):
        x, y = xy
        return 2.0 * (v[x] + v[y] - flat[p[x] * n + p[y]])

    ik, jl, ij, kl, il, jk = _PAIRS
    options = [m(il) + m(jk), m(ij) + m(kl), m(ik) + m(jl)]  # M(x, y) + M(z, w) per {xy|zw}
    a = pairing_rule(lambda xy: pairs[xy] == own[xy[0]], options)
    a += base
    return a, delta


# ---------------------------------------------------------------------------
# exact E|W - W*| sweep
# ---------------------------------------------------------------------------


def _phi(t: np.ndarray) -> np.ndarray:
    """``phi(t) = u*(2t - u)`` with ``u = clip(t, 0, 1)``, written into ``t``.

    It is ``0`` for ``t <= 0``, ``t**2`` on ``[0, 1]`` and ``2t - 1`` for
    ``t >= 1``, so ``int_0^1 |t - u| du = phi(t) - t + 1/2`` and, at
    ``t = a/c``, ``int_0^1 |a - u*c| du = |c|*(phi(t) - t + 1/2)``.
    ``t`` is overwritten and returned; ``u`` is the only temporary.
    """
    u = np.clip(t, 0.0, 1.0)
    t *= 2.0
    t -= u
    t *= u
    return t


# The four orders of a quadruple that share delta, base and the pairing
# rule's a; row p is the one that leads with position p.
_ORDERS = np.array([(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)])


def fold_orders(quads: np.ndarray, probs: np.ndarray, n: int):
    """Distinct quadruples up to the four orders, with summed probabilities.

    Each row is replaced by the order of its orbit (``_ORDERS``) that leads
    with its smallest point, then equal rows are merged; the rows come out
    in lexicographic order.  Any list of rows of points in ``[0, n)`` works,
    also one that is not closed under the four orders.
    """
    quads = np.asarray(quads, dtype=np.int64)
    lead = np.argmin(quads, axis=1)
    folded = np.take_along_axis(quads, _ORDERS[lead], axis=1)
    # one base-n key per row: a 1-D unique is an order faster than axis=0
    key = np.ravel_multi_index(folded.T, (n,) * 4)
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return folded[first], np.bincount(inverse, weights=probs, minlength=len(first))


def image_restrictions(invs: np.ndarray):
    """The distinct rows of ``invs[:, :4]`` as ``(R, 4)`` int64, and how many rows share each."""
    n = invs.shape[1]
    key = np.ravel_multi_index(invs[:, :4].T, (n,) * 4)
    _, first, counts = np.unique(key, return_index=True, return_counts=True)
    return invs[first, :4].astype(np.int64), counts


# folded rows per block of restricted_a: (R, b) blocks of 256 KiB at n = 12.
# At 64 rows each block was faulted in afresh (11,000 page faults per call
# against 300, a third slower), and verify's peak RSS rose by 3 MB.
_GAP_ROWS = 16


def restricted_a(d: np.ndarray, quads: np.ndarray, base: np.ndarray, images: np.ndarray):
    """``a`` of every (restriction, row), as ``(R, b)`` blocks of rows.

    Each row (I, J, K, L) of ``quads`` is relabelled: its points become
    0, 1, 2, 3 and the others follow in ascending order.  ``images`` (from
    ``image_restrictions``) hold pi(I), pi(J), pi(K), pi(L) in those labels,
    so the held pairing {xy|zw} is the same for every row, and
    ``a = (M_xy[c_x, c_y] + M_zw[c_z, c_w]) + base`` with per-row tables
    ``M_xy[s, t] = 2*((d[x, s] + d[y, t]) - d[s, t])`` on the relabelled
    ``d``, M's grouping in ``case_terms``: both give ``a`` bit for bit.
    Yields ``(rows, a)``: each block's slice of ``quads``, and its ``a``.
    """
    n = d.shape[0]
    ik, jl, ij, kl, il, jk = _PAIRS

    def at(xy):  # flat index of M_xy[c_x, c_y] into the (6, n, n) tables
        return _PAIRS.index(xy) * n * n + images[:, xy[0]] * n + images[:, xy[1]]

    def holds(xy):
        return images[:, xy[0]] == xy[1]

    first = pairing_rule(holds, [at(il), at(ij), at(ik)])
    second = pairing_rule(holds, [at(jk), at(kl), at(jl)])
    label = np.tile(np.arange(n), (len(quads), 1))
    np.put_along_axis(label, np.asarray(quads, dtype=np.int64), np.arange(-4, 0), axis=1)
    points = np.argsort(label, axis=1).T  # (n, Q): the point of each label, row by row
    x, y = np.array(_PAIRS).T
    for s in range(0, len(quads), _GAP_ROWS):
        p = points[:, s : s + _GAP_ROWS]
        dq = d[p[:, None], p[None]]  # (n, n, b)
        M = dq[x, :, None] + dq[y, None, :]
        M -= dq
        M *= 2.0
        M = M.reshape(-1, p.shape[1])
        a = np.take(M, first, axis=0)
        a += np.take(M, second, axis=0)
        rows = slice(s, s + p.shape[1])
        a += base[rows]
        yield rows, a


def _distinct_involutions(invs: np.ndarray) -> bool:
    """Whether the rows of ``invs`` are distinct fixed-point-free involutions."""
    pts = np.arange(invs.shape[1])
    if ((invs < 0) | (invs >= pts.size) | (invs == pts)).any():
        return False
    # such a row is fixed by its first n - 1 images: one base-n key each
    key = np.sort(invs[:, :-1].astype(np.int64) @ pts.size ** pts[-2::-1])
    return bool((np.take_along_axis(invs, invs, 1) == pts).all() and (np.diff(key) > 0).all())


def exact_gap(d, invs, quads, probs) -> float:
    """Mean coupling gap over the involutions ``invs``, all of Pi_n (``d`` symmetric).

    The quadruples are folded first (``fold_orders``): the four orders of a
    row give bit-identical ``delta``, ``base`` and ``a`` under every
    involution, so one row per orbit carries their summed weight.  Each row
    then sums its integrand once per distinct restriction of ``invs[:, :4]``
    (``image_restrictions``, ``restricted_a``), weighted by its count, as
    ``|delta|*(phi(t) - t + 1/2)`` at ``t = a/delta`` (``_phi``): the mean
    over Pi_n only if ``invs`` holds each of its (n-1)!! rows once, so any
    other ``invs`` raises ``InputError``.
    """
    n = d.shape[0]
    size = math.prod(range(n - 1, 0, -2))  # |Pi_n| = (n-1)!!
    if invs.shape != (size, n) or not _distinct_involutions(invs):
        raise InputError(f"exact_gap needs all {size} involutions of {n} points, each once")
    quads, probs = fold_orders(quads, probs, n)
    _, delta, base = quad_pairs(d, quads)
    images, counts = image_restrictions(invs)
    counts = counts.astype(np.float64)
    w_abs = probs * np.abs(delta)
    w_sign = probs * np.sign(delta)
    total = 0.0
    for rows, a in restricted_a(d, quads, base, images):
        signed = counts @ a
        a /= delta[rows]  # t = a/delta, then phi(t), in a's own buffer
        total += (counts @ _phi(a)) @ w_abs[rows] - signed @ w_sign[rows]
    return float(total / invs.shape[0] + 0.5 * w_abs.sum())


# the perfbench binding test reads this second name of the kernel
case_terms_np = case_terms
