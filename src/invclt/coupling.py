"""Exchangeable-pair and zero-bias couplings for the involution statistic.

Construction summary (all indices 0-based internally):

* Swap map: for distinct ``a, b``, ``swap(pi, a, b)`` returns the involution
  with the cycles ``(a, b)`` and ``(pi(a), pi(b))`` planted and every other
  cycle untouched: on an image row it writes ``b, a, pi(b), pi(a)`` at
  ``a, b, pi(a), pi(b)``.  ``stein_sweep`` applies it to base-n digit codes,
  ``zero_bias_draws`` and ``_planted_values`` to image rows.
* Stein pair: ``pi' = swap(pi, I, J)`` for a uniform ordered pair ``(I, J)``,
  giving ``W - W' = 2(d_{I pi(I)} + d_{J pi(J)} - d_{IJ} - d_{pi(I) pi(J)})``
  and ``E(W - W' | pi) = (4/n) W``.
* Square-bias law on ordered distinct quadruples:
  ``p(i,j,k,l) = c_n [d_ik + d_jl - (d_ij + d_kl)]^2`` with
  ``c_n = 1 / (2 (n-1)^2 (n-3))``.
* Rewiring: given ``(I,J,K,L)`` from ``p`` and an independent uniform
  ``pi``, ``pi_dag`` holds the cycles ``(I,K)`` and ``(J,L)`` while the
  remainder stays uniform.  The paper splits this into ten cases
  (``_kernels.case_rows``); one rule covers them all: take the pairing
  ``{xy|zw}`` of the quadruple that ``pi`` already holds (the pairing rule
  of ``_kernels``), pair ``pi(x)`` with ``pi(y)`` and ``pi(z)`` with
  ``pi(w)``, then plant ``(I,K)`` and ``(J,L)``.  ``pi_ddag = swap(pi_dag,
  I, J)`` then carries the cycles ``(I,J)`` and ``(K,L)``.
* With ``U`` uniform on [0,1), ``W* = U W_dag + (1-U) W_ddag`` has the
  zero-bias law of ``W``: ``E[W f(W)] = Var(W) E[f'(W*)]``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, rng as rngmod
from .arrays import CenteredArray, check_centered
from .errors import InputError, NoCaseMatched
from .involutions import (
    double_factorial,
    draw_choices,
    enumerate_involutions,
    exact_w_distribution,
    involution_matrix,
)

TABLE_CAP = 48  # materialized O(n^4) table above this uses rejection sampling
SWEEP_CAP = 8  # exhaustive (pi x quadruple) sweeps

# expected (R1, R2) per rewiring case; (2,1) and (1,2) cannot occur
CASE_R = {
    1: (1, 0),
    2: (1, 0),
    3: (1, 1),
    4: (1, 1),
    5: (0, 1),
    6: (0, 1),
    7: (2, 0),
    8: (0, 2),
    9: (2, 2),
    10: (0, 0),
}


def _check_sweep(n: int) -> None:
    if n > SWEEP_CAP:
        raise InputError(f"n={n} exceeds sweep cap {SWEEP_CAP}")


def cn(n: int) -> float:
    """Normalizer of the square-bias law, 1 / (2 (n-1)^2 (n-3))."""
    return 1.0 / (2.0 * (n - 1) ** 2 * (n - 3))


def lambda_n(n: int) -> float:
    """Linearity constant of the Stein pair: E(W - W'|W) = (4/n) W."""
    return 4.0 / n


# ---------------------------------------------------------------------------
# square-bias quadruple law
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class QuadrupleTable:
    """Materialized square-bias law over ordered distinct quadruples.

    ``raw_total`` is the plain sum of ``c_n [..]^2`` over the support and
    equals 1 up to rounding (the normalization identity); sampling and exact
    oracles use the weights normalized by the actual sum.
    """

    n: int
    weights: np.ndarray  # flat, length n^4; zero off the support
    raw_total: float

    def __post_init__(self) -> None:
        self._cum = np.cumsum(self.weights)

    def support(self) -> tuple[np.ndarray, np.ndarray]:
        """(quads, probs) for the positive-weight ordered quadruples."""
        idx = np.nonzero(self.weights)[0]
        quads = np.empty((idx.size, 4), dtype=np.int64)
        rest, quads[:, 3] = np.divmod(idx, self.n)
        rest, quads[:, 2] = np.divmod(rest, self.n)
        quads[:, 0], quads[:, 1] = np.divmod(rest, self.n)
        return quads, self.weights[idx] / self._cum[-1]

    def sample(self, us: np.ndarray) -> np.ndarray:
        """Invert the cumulative table at uniforms ``us`` -> (m, 4) quads.

        The keys are inverted in ascending order and the indices scattered
        back, so each search starts where the last one ended and stays in
        cache; row for row the result is the per-key inversion.
        """
        x = np.asarray(us) * self._cum[-1]
        idx = _sorted_search(self._cum, x)
        idx = np.minimum(idx, self.weights.size - 1)
        quads = np.empty((idx.size, 4), dtype=np.int64)
        rest, quads[:, 3] = np.divmod(idx, self.n)
        rest, quads[:, 2] = np.divmod(rest, self.n)
        quads[:, 0], quads[:, 1] = np.divmod(rest, self.n)
        return quads


def square_bias_table(D: CenteredArray) -> QuadrupleTable:
    """Materialize p(i,j,k,l) = c_n [d_ik + d_jl - (d_ij + d_kl)]^2.

    ``D`` must be standardized (``check_centered``): the law is only
    normalized, and supported off repeated indices, for unit variance.
    """
    n = D.n
    if n > TABLE_CAP:
        raise InputError(f"n={n} exceeds quadruple table cap {TABLE_CAP}")
    check_centered(D)
    d = D.entries
    # grouped so the (i,j,k,l) -> (i,k,j,l) swap negates the bracket exactly;
    # two n^4 buffers, the bracket in the first and the weights in the second
    bracket = d[:, None, :, None] + d[None, :, None, :]
    w = d[:, :, None, None] + d[None, None, :, :]
    np.subtract(bracket, w, out=bracket)
    np.multiply(cn(n), bracket, out=w)
    w *= bracket
    del bracket
    ii = np.arange(n)
    w[ii, ii] = 0.0
    w[ii, :, ii] = 0.0
    w[ii, :, :, ii] = 0.0
    w[:, ii, ii] = 0.0
    w[:, ii, :, ii] = 0.0
    w[:, :, ii, ii] = 0.0
    flat = w.ravel()
    return QuadrupleTable(n=n, weights=flat, raw_total=float(flat.sum()))


def _sorted_search(cum: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``searchsorted(cum, x, side="right")``, searched in ascending key order."""
    order = np.argsort(x)
    idx = np.empty(x.shape, dtype=np.intp)
    idx[order] = np.searchsorted(cum, x[order], side="right")
    return idx


def _decode_distinct(i, j, r3, r4):
    """Complete distinct pairs ``(i, j)`` to ordered distinct quadruples.

    ``r3`` below ``n - 2`` and ``r4`` below ``n - 3`` step over the points
    already taken, in ascending order, so uniform integers give uniform
    filler points.  A min/max network orders the three taken points; the
    result is that of stepping over them after a full sort.
    """
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    k = r3 + (r3 >= lo)
    k += k >= hi
    l = r4 + (r4 >= np.minimum(lo, k))
    l += l >= np.maximum(lo, np.minimum(hi, k))
    l += l >= np.maximum(hi, k)
    return np.stack([i, j, k, l], axis=1)


def _square_bias_proposals(
    d: np.ndarray, batch: int, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """``batch`` proposals with law proportional to ``S``, and their accept flags.

    ``S = d_ik^2 + d_jl^2 + d_ij^2 + d_kl^2``.  A proposal picks one of the
    bracket terms ``ik, jl, ij, kl`` uniformly, draws that term's ordered pair
    ``(a, b)`` with probability ``d_ab^2 / sum(d^2)`` and fills the other two
    positions with uniform distinct points from the remaining ``n - 2``; it
    is accepted with probability ``[..]^2 / (4 S)``.  ``d`` must have a zero
    diagonal.  Stream use: term, pair uniform, two point integers, accept
    uniform.  The pair uniforms are inverted in ascending order; the pairs
    are those of the per-key inversion.
    """
    n = d.shape[0]
    cum = np.cumsum(d * d)
    last = np.flatnonzero(d.ravel())[-1]  # the last pair of positive weight
    term = gen.integers(0, 4, size=batch)
    ab = _sorted_search(cum, gen.random(batch) * cum[-1])
    a, b = np.divmod(np.minimum(ab, last), n)
    r = gen.integers(0, [n - 2, n - 3], size=(batch, 2))
    drawn = _decode_distinct(a, b, r[:, 0], r[:, 1])
    # the columns of ``drawn`` (a, b, c, e) placed at the positions of each
    # term: ik -> (a, c, b, e), jl -> (c, a, e, b), ij -> (a, b, c, e),
    # kl -> (c, e, a, b)
    layout = np.array([[0, 2, 1, 3], [2, 0, 3, 1], [0, 1, 2, 3], [2, 3, 0, 1]])
    quads = np.take_along_axis(drawn, layout[term], axis=1)
    i, j, k, l = quads.T
    ik, jl, ij, kl = d[i, k], d[j, l], d[i, j], d[k, l]
    bracket = ik + jl - (ij + kl)
    s = ik * ik + jl * jl + ij * ij + kl * kl
    return quads, gen.random(batch) * (4.0 * s) < bracket * bracket


def sample_quadruples_rejection(
    D: CenteredArray, count: int, gen: np.random.Generator
) -> np.ndarray:
    """Exact square-bias sampling without the O(n^4) table.

    The proposal (``_square_bias_proposals``) has law ``S / (4 (n-2)(n-3)
    sum(d^2))``: each of the four terms carries the same total mass
    ``(n-2)(n-3) sum(d^2)`` over ordered distinct quadruples.  The envelope
    is ``[..]^2 <= 4 S`` (Cauchy-Schwarz), so accepting with probability
    ``[..]^2 / (4 S)`` leaves the law proportional to ``[..]^2``.  For a
    standardized ``D`` (checked first) Lemma 3.3 gives
    ``sum [..]^2 = 2 (n-1)^2 (n-3)`` and ``sum(d^2) = (n-1)(n-3) / (2(n-2))``,
    so every proposal is accepted with probability exactly
    ``(n-1) / (4(n-3))`` and a draw takes ``4(n-3)/(n-1) < 4`` proposals on
    average.  Each batch is sized from that rate.
    """
    check_centered(D)
    d = D.entries
    n = D.n
    out = np.empty((count, 4), dtype=np.int64)
    have = 0
    while have < count:
        batch = math.ceil((count - have) * 4 * (n - 3) / (n - 1))
        quads, accepted = _square_bias_proposals(d, batch, gen)
        take = np.flatnonzero(accepted)[: count - have]
        out[have : have + take.size] = quads[take]
        have += take.size
    return out


# ---------------------------------------------------------------------------
# rewiring: pi_dag from the pairing rule
# ---------------------------------------------------------------------------


def _cases(q, p):
    """(R1, R2, case) arrays for quadruple columns ``q`` and their images ``p``.

    ``q`` and ``p`` are (4, m) arrays, as in ``_kernels.case_rows``.  The
    case is the first row of the table that holds; a row that matches no
    case, or whose (R1, R2) is not the one its case expects, raises
    ``NoCaseMatched``.
    """
    r1, r2 = _kernels.r_counts(q, p)
    rows = np.array(_kernels.case_rows(q, p))
    matched = rows.any(axis=0)
    if not matched.all():
        bad = np.flatnonzero(~matched)[0]
        raise NoCaseMatched(f"(R1,R2)=({r1[bad]},{r2[bad]}) matched no rewiring case")
    case = rows.argmax(axis=0) + 1
    want = np.array([CASE_R[c] for c in range(1, 11)])[case - 1]
    wrong = np.flatnonzero((want != np.stack((r1, r2), axis=1)).any(axis=1))
    if wrong.size:
        bad = wrong[0]
        raise NoCaseMatched(f"case {case[bad]} saw (R1,R2)=({r1[bad]},{r2[bad]})")
    return r1, r2, case


def rewire(images: np.ndarray, quads: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """pi_dag for every row of an (m, n) image matrix and its (m, 4) quadruples.

    The pairing rule of ``_kernels`` picks the pairing {xy|zw} of the
    quadruple that pi already holds; pi_dag pairs pi(x) with pi(y) and pi(z)
    with pi(w), then plants the cycles (I,K) and (J,L).  This realizes every
    row of the ten-case table.  Returns ``(dagger, touched, ok)``:
    ``touched`` marks the quadruple and its images, and ``ok`` is true
    where pi_dag holds (I,K) and (J,L), is a fixed-point-free involution and
    agrees with pi off the touched set.
    """
    m, n = images.shape
    rows = np.arange(m)[:, None]
    p = images[rows, quads]  # pi(I), pi(J), pi(K), pi(L)
    # positions (x, y, z, w) of the pairings {il|jk}, {ij|kl} and {ik|jl}
    pairing = _kernels.pairing_rule(
        lambda xy: (p[:, xy[0]] == quads[:, xy[1]])[:, None],
        np.array([(0, 3, 1, 2), (0, 1, 2, 3), (0, 2, 1, 3)]),
    )
    x, y, z, w = np.take_along_axis(p, pairing, axis=1).T
    out = images.copy()
    r = rows[:, 0]
    out[r, x], out[r, y] = y, x
    out[r, z], out[r, w] = w, z
    out[rows, quads] = quads[:, [2, 3, 0, 1]]
    touched = np.zeros((m, n), dtype=bool)
    touched[rows, quads] = True
    touched[rows, p] = True
    idx = np.arange(n)
    ok = (
        (out[r, quads[:, 0]] == quads[:, 2])
        & (out[r, quads[:, 1]] == quads[:, 3])
        & np.all(out != idx, axis=1)
        & np.all(np.take_along_axis(out, out, axis=1) == idx, axis=1)
        & ~np.any((out != images) & ~touched, axis=1)
    )
    return out, touched, ok


# ---------------------------------------------------------------------------
# zero-bias draws
# ---------------------------------------------------------------------------


def zero_bias_draws(D: CenteredArray, m: int, gen: np.random.Generator) -> dict[str, np.ndarray]:
    """``m`` coupled realizations of (W, W*), drawn as one batch of columns.

    Row ``r`` of every column belongs to draw ``r``; points are 0-based:

    * ``pi``, ``pi_dagger``, ``pi_ddagger``: (m, n) int image rows;
    * ``quad``: (m, 4) int square-bias quadruples (I, J, K, L);
    * ``case_id``, ``r1``, ``r2``: (m,) int rewiring case and (R1, R2);
    * ``u``, ``w``, ``w_dagger``, ``w_ddagger``, ``w_star``, ``s``, ``t``,
      ``t_dagger``, ``t_ddagger``: (m,) float;
    * ``index_set``: (m, n) bool mask of the touched set, the quadruple
      and its images under pi.

    Stream use: the pairing choices of the ``m`` involutions, the ``m``
    quadruples (``sample_quadruples_rejection``, exact at every ``n``), then
    the ``m`` uniforms U.  pi_ddag is pi_dag with the cycles (I,J) and (K,L)
    planted in place of (I,K) and (J,L).  T, T_dag and T_ddag sum
    ``d[x, pi(x)]`` over the touched set, and S over the rest.
    """
    n = D.n
    if n < 6:
        raise InputError("zero-bias construction needs n >= 6")
    if m < 1:
        raise InputError("zero-bias draws need m >= 1")
    d = D.entries
    images = _kernels.images_of(_kernels.match_pairs(draw_choices(n, m, gen), n))
    quads = sample_quadruples_rejection(D, m, gen)
    u = gen.random(m)
    rows = np.arange(m)[:, None]
    r1, r2, case = _cases(quads.T, images[rows, quads].T)
    dag, touched, ok = rewire(images, quads)
    if not ok.all():
        bad = np.flatnonzero(~ok)[0]
        raise NoCaseMatched(f"case {case[bad]}: the rewired involution failed its closure check")
    ddag = dag.copy()
    ddag[rows, quads] = quads[:, [1, 0, 3, 2]]
    i, j, k, l = quads.T
    if np.any(d[i, k] + d[j, l] - (d[i, j] + d[k, l]) == 0.0):
        raise NoCaseMatched("square-bias support produced a zero difference")

    idx = np.arange(n)
    s = np.where(touched, 0.0, d[idx, images]).sum(axis=1)
    t, t_dag, t_ddag = (
        np.where(touched, d[idx, img], 0.0).sum(axis=1) for img in (images, dag, ddag)
    )
    w, w_dag, w_ddag = s + t, s + t_dag, s + t_ddag
    w_star = u * w_dag + (1.0 - u) * w_ddag
    return {
        "pi": images,
        "quad": quads,
        "case_id": case,
        "r1": r1,
        "r2": r2,
        "pi_dagger": dag,
        "pi_ddagger": ddag,
        "u": u,
        "w": w,
        "w_dagger": w_dag,
        "w_ddagger": w_ddag,
        "w_star": w_star,
        "s": s,
        "t": t,
        "t_dagger": t_dag,
        "t_ddagger": t_ddag,
        "index_set": touched,
    }


def draw_json_rows(draws: dict[str, np.ndarray]) -> list[dict]:
    """The ``--dump-draws`` rows of ``zero_bias_draws`` columns.

    Points are 1-based, ``index_set`` lists the touched points in ascending
    order, and every value is a plain Python number.
    """
    cols = {
        key: (col + 1 if key in ("pi", "quad", "pi_dagger", "pi_ddagger") else col).tolist()
        for key, col in draws.items()
        if key != "index_set"
    }
    cols["index_set"] = [(np.flatnonzero(row) + 1).tolist() for row in draws["index_set"]]
    return [dict(zip(cols, row)) for row in zip(*cols.values())]


# ---------------------------------------------------------------------------
# Monte Carlo gap estimation
# ---------------------------------------------------------------------------


def zero_bias_gap_samples(
    D: CenteredArray,
    m: int,
    *,
    master_seed: int = rngmod.DEFAULT_SEED,
    stream: int = 0,
    threads: int = 1,
) -> np.ndarray:
    """|W - W*| for m coupled draws, batched through ``_kernels.case_terms``.

    A draw's gap is ``|a - U*delta|``, with ``a = T - T_dag + delta`` from
    the pairing rule of ``_kernels`` and ``delta = W_dag - W_ddag``.  Per
    chunk the stream is consumed as: pairing choices, the quadruples, then
    the interpolation uniforms U.  Up to ``TABLE_CAP`` the quadruples take one
    table uniform each.  Above it ``sample_quadruples_rejection`` takes, per
    proposal batch: the terms, the pair uniforms, the two point integers,
    then the accept uniforms.
    """
    n = D.n
    if n < 6:
        raise InputError("zero-bias construction needs n >= 6")
    table = square_bias_table(D) if n <= TABLE_CAP else None
    d = D.entries

    def worker(count: int, gen: np.random.Generator) -> np.ndarray:
        images = _kernels.images_of(_kernels.match_pairs(draw_choices(n, count, gen), n))
        if table is not None:
            quads = table.sample(gen.random(count))
        else:
            quads = sample_quadruples_rejection(D, count, gen)
        u = gen.random(count)
        a, delta = _kernels.case_terms(d, images, quads)
        return np.abs(a - u * delta)

    parts = rngmod.run_chunked(
        m,
        worker,
        master_seed=master_seed,
        purpose=rngmod.PURPOSE_ZERO_BIAS,
        extra_id=stream,
        threads=threads,
    )
    return np.concatenate(parts)


def estimate_gap(
    D: CenteredArray,
    m: int,
    *,
    master_seed: int = rngmod.DEFAULT_SEED,
    stream: int = 0,
    threads: int = 1,
) -> tuple[float, float]:
    """(mean, standard error) of |W - W*| over m >= 2 coupled draws."""
    if m < 2:
        raise InputError("a standard error needs at least 2 draws")
    gaps = zero_bias_gap_samples(D, m, master_seed=master_seed, stream=stream, threads=threads)
    return float(gaps.mean()), float(gaps.std(ddof=1) / math.sqrt(m))


# ---------------------------------------------------------------------------
# exact oracles (full enumeration)
# ---------------------------------------------------------------------------


def exact_gap(D: CenteredArray) -> float:
    """Exact E|W - W*| over every involution and weighted quadruple.

    The kernel sums the weights of the four orders (i,j,k,l), (j,i,l,k),
    (k,l,i,j), (l,k,j,i) of each quadruple first and evaluates one of them:
    the array is symmetric, so all four give the same integrand bit for
    bit, and the sweep runs over a quarter of the support.
    """
    invs = involution_matrix(D.n)  # its cap fires before the O(n^4) table
    quads, probs = square_bias_table(D).support()
    return _kernels.exact_gap(D.entries, invs, quads, probs)


def stein_sweep(D: CenteredArray) -> tuple[float, float, int, float]:
    """The Stein-pair identities, exact over every (pi, i, j) with i != j.

    Returns ``(linearity error, E(W - W')^2, exchangeability deviation,
    formula error)``:

    * max over involutions of |avg over ordered pairs of (W - W') - (4/n) W|;
    * the exact second moment of the pair difference, which must equal
      2 * (4/n) * Var(W) = 8/n;
    * max |count(a, b) - count(b, a)| over the exact joint law of (W, W'),
      keyed by the atoms of W, so equal laws give exactly equal counts;
    * max |W - W(swap(pi, i, j)) - 2(d_{i pi(i)} + d_{j pi(j)} -
      d_{ij} - d_{pi(i) pi(j)})|, infinite if a composed code is no
      involution.

    W - W' is the four-term formula value in the first two.  W' is read off
    the composed involution's base-n digit code, which differs from pi's at
    the positions i, j, pi(i) and pi(j), so every array is (n-1)!! x n(n-1).
    """
    n = D.n
    d = D.entries
    invs = involution_matrix(n)
    w = _kernels.y_batch(d, _kernels.pairing_order(invs))
    ii, jj = np.nonzero(~np.eye(n, dtype=bool))
    pi_i, pi_j = invs[:, ii], invs[:, jj]
    delta = 2.0 * (d[ii, pi_i] + d[jj, pi_j] - (d[ii, jj] + d[pi_i, pi_j]))
    lin_err = float(np.abs(delta.mean(axis=1) - lambda_n(n) * w).max())
    m2 = math.fsum((delta * delta).ravel()) / delta.size

    # the swap writes j, i, pi(j), pi(i) at i, j, pi(i), pi(j)
    place = n ** np.arange(n, dtype=np.int64)
    code = invs @ place
    order = np.argsort(code)
    composed = (
        code[:, None]
        + (jj - pi_i) * (place[ii] - place[pi_j])
        + (ii - pi_j) * (place[jj] - place[pi_i])
    )
    pos = np.searchsorted(code, composed, sorter=order)
    target = order[np.minimum(pos, code.size - 1)]  # row of swap(pi, i, j)
    if np.array_equal(code[target], composed):
        formula_err = float(np.abs(w[:, None] - w[target] - delta).max())
    else:
        formula_err = math.inf

    # exchangeability: the (W, W') law keyed by atom indices a * m + b
    atoms, a = np.unique(w, return_inverse=True)
    m = atoms.size
    keys, counts = np.unique(a[:, None] * m + a[target], return_counts=True)
    mirror = keys % m * m + keys // m
    at = np.minimum(np.searchsorted(keys, mirror), keys.size - 1)
    mirror_counts = np.where(keys[at] == mirror, counts[at], 0)
    exch_dev = int(np.abs(counts - mirror_counts).max())
    return lin_err, m2, exch_dev, formula_err


def planted_completions(quads: np.ndarray, n: int) -> np.ndarray:
    """Every involution holding the cycles (I,K) and (J,L), per quadruple.

    Block ``q`` of the (len(quads), (n-5)!!, n) result lists the completions
    of ``quads[q]``: ``involution_matrix(n - 4)`` mapped through the sorted
    points outside the quadruple, so each block is in canonical order.
    """
    m = quads.shape[0]
    sub = involution_matrix(n - 4) if n > 4 else np.zeros((1, 0), dtype=np.int64)
    outside = np.ones((m, n), dtype=bool)
    outside[np.arange(m)[:, None], quads] = False
    rest = np.nonzero(outside)[1].reshape(m, n - 4)
    shape = (m, sub.shape[0], n)
    pos = np.broadcast_to(np.concatenate((quads, rest), axis=1)[:, None, :], shape)
    planted = np.broadcast_to(quads[:, None, [2, 3, 0, 1]], shape[:2] + (4,))
    out = np.empty(shape, dtype=np.int64)
    np.put_along_axis(out, pos, np.concatenate((planted, rest[:, sub]), axis=2), axis=2)
    return out


def _planted_values(D: CenteredArray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(share, W_dag, W_ddag) over every square-bias quadruple and completion.

    ``share`` is the quadruple's probability split evenly over its uniform
    completions; W_ddag is W at ``swap(pi_dag, I, J)``, which trades
    the cycles (I,K), (J,L) for (I,J), (K,L).
    """
    n = D.n
    quads, probs = square_bias_table(D).support()
    dag = planted_completions(quads, n)
    ddag = dag.copy()
    np.put_along_axis(
        ddag,
        np.broadcast_to(quads[:, None, :], dag.shape[:2] + (4,)),
        np.broadcast_to(quads[:, None, [1, 0, 3, 2]], dag.shape[:2] + (4,)),
        axis=2,
    )
    share = np.repeat(probs / dag.shape[1], dag.shape[1])
    return (
        share,
        _kernels.y_batch(D.entries, _kernels.pairing_order(dag.reshape(-1, n))),
        _kernels.y_batch(D.entries, _kernels.pairing_order(ddag.reshape(-1, n))),
    )


@dataclass
class SweepReport:
    """Outcome of the exhaustive (involution x quadruple) sweep."""

    n: int
    quads: int
    involutions: int
    case_counts: dict[int, int]
    impossible_r: int  # occurrences of (R1,R2) in {(2,1),(1,2)}
    multi_match: int  # (pi, quad) pairs matching != 1 table rows
    closure_failures: int
    uniformity_max_dev: int  # vs the exact per-completion count
    expected_completion_count: int
    p2_max_dev: int
    p3_max_dev: int  # worst count deviation, or the number of missing keys


def exhaustive_sweep(D: CenteredArray) -> SweepReport:
    """One pass over every (involution, ordered quadruple) at small n.

    Checks row disjointness/exhaustiveness and the impossibility of
    (R1,R2) in {(2,1),(1,2)}, validates every rewired involution, and
    accumulates the integer counts behind the conditional-uniformity law,
    the (quad, pi(I), pi(J)) law and the (quad, pi(I), pi(J), pi(L)) law.
    Each involution is processed against all quadruples at once.
    """
    n = D.n
    _check_sweep(n)
    check_centered(D)
    d = D.entries
    invs = involution_matrix(n)
    quads = np.array(list(itertools.permutations(range(n), 4)), dtype=np.int64)
    n_inv, n_q = invs.shape[0], quads.shape[0]
    q = quads.T
    i, j, k, l = q
    support = d[i, k] + d[j, l] - (d[i, j] + d[k, l]) != 0.0  # the square-bias support
    sq = quads[support]
    si, sj, _, sl = sq.T
    n_s = sq.shape[0]
    # rewired involutions are compared through their base-n digit codes
    code = n ** np.arange(n, dtype=np.int64)
    completion_codes = planted_completions(sq, n) @ code

    idx = np.arange(n)
    case_counts = np.zeros(11, dtype=np.int64)
    impossible = multi_match = closure_failures = 0
    rewired_codes = np.empty((n_inv, n_s), dtype=np.int64)
    p2_counts = np.zeros((n_s, n, n), dtype=np.int64)
    p3_keys = []
    for r, parr in enumerate(invs):
        p = parr[q]
        rows = np.array(_kernels.case_rows(q, p))
        r1, r2 = _kernels.r_counts(q, p)
        multi_match += int(np.count_nonzero(rows.sum(axis=0) != 1))
        bad_r = (r1 == 2) & (r2 == 1) | (r1 == 1) & (r2 == 2)
        impossible += int(np.count_nonzero(bad_r))
        case = rows.argmax(axis=0) + 1  # first matching row
        case_counts += np.bincount(case, minlength=11)

        img, _, ok = rewire(np.broadcast_to(parr, (n_q, n)), quads)
        closure_failures += int(np.count_nonzero(~ok))

        rewired_codes[r] = img[support] @ code
        pi_i, pi_j, pi_k, pi_l = p[:, support]
        p2_counts[np.arange(n_s), pi_i, pi_j] += 1
        p3_keys.append(((np.arange(n_s) * n + pi_i) * n + pi_j) * n + pi_l)

    # conditional uniformity: every completion of every support quad must be
    # produced by exactly |Pi_n| / |Pi_{n-4}| base involutions
    expected = n_inv // double_factorial(n - 5)
    got = np.count_nonzero(rewired_codes[:, :, None] == completion_codes[None], axis=0)
    uni_dev = int(np.abs(got - expected).max(initial=0))

    # (quad, pi(I), pi(J)) joint law: integer counts against the exact law
    qi, qj = si[:, None, None], sj[:, None, None]
    s, t = idx[None, :, None], idx[None, None, :]
    want2 = np.where(
        (s == qj) & (t == qi),
        n_inv // (n - 1),
        np.where(
            (s == qi) | (s == t) | (s == qj) | (t == qj) | (t == qi),
            0,
            n_inv // ((n - 1) * (n - 3)),
        ),
    )
    p2_dev = int(np.abs(p2_counts - want2).max(initial=0))

    # (quad, pi(I), pi(J), pi(L)) joint law: one of the cycles (I,J), (I,L),
    # (J,L) with the third image off {I, J, L}, or three distinct images off
    # it.  Every key must carry its exact count, and none may be missing.
    keys, got3 = np.unique(np.concatenate(p3_keys), return_counts=True)
    rest, img_j = np.divmod(keys // n, n)
    key_q, img_i = np.divmod(rest, n)
    paired = (img_i == sj[key_q]) | (img_i == sl[key_q]) | (img_j == sl[key_q])
    want3 = np.where(
        paired, n_inv // ((n - 1) * (n - 3)), n_inv // ((n - 1) * (n - 3) * (n - 5))
    )
    missing = n_s * (3 * (n - 3) + (n - 3) * (n - 4) * (n - 5)) - keys.size
    p3_dev = max(int(np.abs(got3 - want3).max(initial=0)), abs(missing))

    return SweepReport(
        n=n,
        quads=n_q,
        involutions=n_inv,
        case_counts={c: int(case_counts[c]) for c in range(1, 11)},
        impossible_r=impossible,
        multi_match=multi_match,
        closure_failures=closure_failures,
        uniformity_max_dev=uni_dev,
        expected_completion_count=expected,
        p2_max_dev=p2_dev,
        p3_max_dev=p3_dev,
    )


def exact_wstar_cdf(D: CenteredArray):
    """Two independent exact routes to the CDF of W*.

    Route one follows the construction: over every square-bias quadruple and
    every uniform completion, W* is uniform on the segment between the two
    rewired values, so the law is a finite mixture of uniform segments.
    Route two uses only the defining identity: the zero-bias law of a mean
    zero variable has density ``E[W 1(W > t)] / Var(W)``, which for an atomic
    W is piecewise constant, making the CDF piecewise linear between atoms.

    Returns ``(grid, construction_cdf, definition_cdf)`` sampled on a grid of
    all atoms and segment endpoints plus midpoints.
    """
    n = D.n
    _check_sweep(n)
    share, w_dag, w_ddag = _planted_values(D)
    seg_lo = np.minimum(w_dag, w_ddag)
    seg_hi = np.maximum(w_dag, w_ddag)

    def construction_cdf(x: np.ndarray) -> np.ndarray:
        frac = (x[:, None] - seg_lo[None, :]) / (seg_hi - seg_lo)[None, :]
        return np.clip(frac, 0.0, 1.0) @ share

    dist = exact_w_distribution(D)
    vals = dist.values
    ps = dist.probs
    sigma2 = float(ps @ vals**2)
    # E[W 1(W > t)] is constant between atoms; integrate it piece by piece
    tail_ev = np.concatenate((np.cumsum((ps * vals)[::-1])[::-1][1:], [0.0]))
    piece = tail_ev[:-1] * np.diff(vals)
    cum_piece = np.concatenate(([0.0], np.cumsum(piece)))

    def definition_cdf(x: np.ndarray) -> np.ndarray:
        idx = np.clip(np.searchsorted(vals, x, side="right") - 1, 0, len(vals) - 1)
        inside = cum_piece[idx] + tail_ev[idx] * (x - vals[idx])
        out = np.where(x <= vals[0], 0.0, np.where(x >= vals[-1], sigma2, inside))
        return out / sigma2

    grid = np.unique(np.concatenate((seg_lo, seg_hi, vals)))
    grid = np.unique(np.concatenate((grid, (grid[:-1] + grid[1:]) / 2.0)))
    return grid, construction_cdf(grid), definition_cdf(grid)


def exact_zero_bias_moments(D: CenteredArray, k_max: int) -> list[tuple[int, float, float]]:
    """(k, E[W^{k+1}], k E[(W*)^{k-1}]) for k = 1..k_max, both sides exact.

    The left side enumerates the involutions.  The right side enumerates the
    square-bias quadruples and, for each, the uniform completions with the
    planted cycles; the interpolation integral is in closed form
    ``int_0^1 (u a + (1-u) b)^m du = (a^{m+1} - b^{m+1}) / ((m+1)(a - b))``.
    """
    n = D.n
    _check_sweep(n)
    ws = np.concatenate([_kernels.y_batch(D.entries, block) for block in enumerate_involutions(n)])
    lhs = {k: math.fsum(ws ** (k + 1)) / ws.size for k in range(1, k_max + 1)}

    share, a, b = _planted_values(D)
    star = {0: math.fsum(share)}
    for m in range(1, k_max):
        star[m] = math.fsum(share * (a ** (m + 1) - b ** (m + 1)) / ((m + 1) * (a - b)))
    return [(k, lhs[k], k * star[k - 1]) for k in range(1, k_max + 1)]
