"""Reference implementations the tests check the package against.

Nothing in the package calls these.  Each is written independently of the
kernel it checks: plain loops, a direct quadrature, or the image-matrix
form of a sampler whose program path never builds one.

* ``_case_terms_loop`` walks the ten-row rewiring table (``_case_term_loop``)
  row by row.  It is the only copy of the short cycle sums ``T`` (before)
  and ``T_dag`` (after the rewiring); the rows themselves, as conditions,
  are ``_kernels.case_rows``.  It checks ``_kernels.case_terms`` and
  ``_kernels.held_pairing_a``.
* ``_exact_gap_loop`` sums the table's integrand through the two-branch
  segment integral ``_seg_abs_integral_loop``; it checks
  ``_kernels.exact_gap``.  ``seg_abs_integral`` is the clip form that
  ``exact_gap`` folds into its weights, written out on its own.
* ``table_sample_per_key``, ``_decode_distinct_sort`` and
  ``_square_bias_proposals_per_key`` are the square-bias samplers key by
  key: one unsorted ``searchsorted`` over the keys in input order, and the
  three taken points fully sorted before the fourth steps over them.  They
  check ``coupling.QuadrupleTable.sample``, ``coupling._decode_distinct``
  and ``coupling._square_bias_proposals``, which search the keys in
  ascending order and order the points with a min/max network.
* ``lp_norm_quadrature`` integrates ``|F - Phi|^p`` by composite Simpson;
  it checks the closed-form ``distances.l1_distance``.
* ``sample_involutions`` draws image rows on the chunk streams of
  ``involutions.sample_y_values``, so the values that function sums are Y
  of these rows.
* ``save_matrix_json`` writes the JSON matrix files that
  ``arrays.load_matrix`` reads.
"""

import json
from pathlib import Path

import numpy as np
from scipy.special import ndtr

from invclt import _kernels, rng as rngmod
from invclt._kernels import _phi
from invclt.arrays import _as_matrix
from invclt.distances import StepCDF
from invclt.errors import InputError
from invclt.involutions import _check_even, draw_choices

QUADRATURE_POINTS = 2000  # Simpson intervals (even) per piece in lp_norm_quadrature


# ---------------------------------------------------------------------------
# ten-row rewiring table and the exact gap
# ---------------------------------------------------------------------------


def _case_term_loop(d, i, j, k, l, pi_i, pi_j, pi_k, pi_l):
    """``(case, T, T_dag, delta)`` of one (involution, quadruple), row by row of the table."""
    d_ik = d[i, k]
    d_jl = d[j, l]
    d_ij = d[i, j]
    d_kl = d[k, l]
    base = d_ik + d_jl
    delta = 2.0 * (base - (d_ij + d_kl))
    a1 = pi_i == k
    a2 = pi_j == l
    b1 = pi_i == l
    b2 = pi_j == k
    c1 = pi_i == j
    c2 = pi_k == l
    if a1 and not a2:
        case = 1
        t = 2.0 * (d_ik + d[j, pi_j] + d[l, pi_l])
        tdag = 2.0 * (base + d[pi_j, pi_l])
    elif (not a1) and a2:
        case = 2
        t = 2.0 * (d_jl + d[i, pi_i] + d[k, pi_k])
        tdag = 2.0 * (base + d[pi_i, pi_k])
    elif b1 and not b2:
        case = 3
        t = 2.0 * (d[i, l] + d[j, pi_j] + d[k, pi_k])
        tdag = 2.0 * (base + d[pi_j, pi_k])
    elif (not b1) and b2:
        case = 4
        t = 2.0 * (d[j, k] + d[i, pi_i] + d[l, pi_l])
        tdag = 2.0 * (base + d[pi_i, pi_l])
    elif c1 and not c2:
        case = 5
        t = 2.0 * (d_ij + d[k, pi_k] + d[l, pi_l])
        tdag = 2.0 * (base + d[pi_k, pi_l])
    elif (not c1) and c2:
        case = 6
        t = 2.0 * (d_kl + d[i, pi_i] + d[j, pi_j])
        tdag = 2.0 * (base + d[pi_i, pi_j])
    elif a1 and a2:
        case = 7
        t = 2.0 * base
        tdag = 2.0 * base
    elif c1 and c2:
        case = 8
        t = 2.0 * (d_ij + d_kl)
        tdag = 2.0 * base
    elif b1 and b2:
        case = 9
        t = 2.0 * (d[i, l] + d[j, k])
        tdag = 2.0 * base
    else:
        case = 10
        t = 2.0 * (d[i, pi_i] + d[j, pi_j] + d[k, pi_k] + d[l, pi_l])
        tdag = 2.0 * (base + d[pi_i, pi_k] + d[pi_j, pi_l])
    return case, t, tdag, delta


def _case_terms_loop(d, images, quads):
    """Loop reference for ``case_terms``: ``(case, T, T_dag, delta)`` per row."""
    terms = [_case_term_loop(d, *q, *images[r, q]) for r, q in enumerate(quads)]
    return tuple(np.array(col) for col in zip(*terms))


def seg_abs_integral(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Vectorized ``int_0^1 |a - u*c| du = |c|*(phi(a/c) - a/c + 1/2)`` (c must be nonzero).

    ``exact_gap`` sums the same identity with ``|c|`` folded into its
    weights; ``_seg_abs_integral_loop`` is the two-branch reference.
    """
    t = a / c
    return np.abs(c) * (_phi(t) - t + 0.5)


def _seg_abs_integral_loop(a: float, c: float) -> float:
    b = a - c
    if a * b >= 0.0:
        return abs(a + b) / 2.0
    return (a * a + b * b) / (2.0 * abs(c))


def _exact_gap_loop(d, invs, quads, probs) -> float:
    """Loop reference for ``exact_gap``, through the ten-row table."""
    total = 0.0
    comp = 0.0  # Kahan compensation: the tests compare the sum to 1e-12
    n_inv = invs.shape[0]
    n_q = quads.shape[0]
    for r in range(n_inv):
        acc = 0.0
        acc_c = 0.0
        for q in range(n_q):
            i, j, k, l = quads[q, 0], quads[q, 1], quads[q, 2], quads[q, 3]
            _, t, tdag, delta = _case_term_loop(
                d, i, j, k, l, invs[r, i], invs[r, j], invs[r, k], invs[r, l]
            )
            val = probs[q] * _seg_abs_integral_loop(t - tdag + delta, delta)
            y = val - acc_c
            s = acc + y
            acc_c = (s - acc) - y
            acc = s
        y = acc - comp
        s = total + y
        comp = (s - total) - y
        total = s
    return total / n_inv


# ---------------------------------------------------------------------------
# square-bias quadruple samplers, key by key
# ---------------------------------------------------------------------------


def table_sample_per_key(table, us: np.ndarray) -> np.ndarray:
    """``table.sample(us)`` with the keys searched in input order."""
    idx = np.searchsorted(table._cum, np.asarray(us) * table._cum[-1], side="right")
    idx = np.minimum(idx, table.weights.size - 1)
    return np.stack(np.unravel_index(idx, (table.n,) * 4), axis=1)


def _decode_distinct_sort(i, j, r3, r4):
    """Complete distinct pairs ``(i, j)`` to ordered distinct quadruples.

    ``r3`` below ``n - 2`` and ``r4`` below ``n - 3`` step over the points
    already taken, so uniform integers give uniform filler points.
    """
    k = r3 + (r3 >= np.minimum(i, j))
    k = k + (k >= np.maximum(i, j))
    l = r4
    for row in np.sort(np.stack([i, j, k], axis=0), axis=0):
        l = l + (l >= row)
    return np.stack([i, j, k, l], axis=1)


def _square_bias_proposals_per_key(d, batch, gen):
    """``coupling._square_bias_proposals`` with per-key search and a sorted decode."""
    n = d.shape[0]
    cum = np.cumsum(d * d)
    last = np.flatnonzero(d.ravel())[-1]
    term = gen.integers(0, 4, size=batch)
    ab = np.searchsorted(cum, gen.random(batch) * cum[-1], side="right")
    a, b = np.divmod(np.minimum(ab, last), n)
    r = gen.integers(0, [n - 2, n - 3], size=(batch, 2))
    drawn = _decode_distinct_sort(a, b, r[:, 0], r[:, 1])
    layout = np.array([[0, 2, 1, 3], [2, 0, 3, 1], [0, 1, 2, 3], [2, 3, 0, 1]])
    quads = np.take_along_axis(drawn, layout[term], axis=1)
    i, j, k, l = quads.T
    ik, jl, ij, kl = d[i, k], d[j, l], d[i, j], d[k, l]
    bracket = ik + jl - (ij + kl)
    s = ik * ik + jl * jl + ij * ij + kl * kl
    return quads, gen.random(batch) * (4.0 * s) < bracket * bracket


# ---------------------------------------------------------------------------
# distances, sampling, I/O
# ---------------------------------------------------------------------------


def lp_norm_quadrature(F: StepCDF, p: float) -> float:
    """Direct composite-Simpson evaluation of ||F - Phi||_p for cross-checks.

    F is constant on each open piece, so the integrand on a piece is
    |level - Phi(t)|^p with the level taken from the piece, not sampled at
    the discontinuities.
    """
    if p < 1.0:
        raise InputError(f"p={p}")
    lo = min(float(F.xs[0]), -8.3)
    hi = max(float(F.xs[-1]), 8.3)
    knots = [lo, *map(float, F.xs), hi]
    levels = [0.0, *map(float, F.cum)]
    total = 0.0
    for a, b, c in zip(knots[:-1], knots[1:], levels):
        if b <= a:
            continue
        t = np.linspace(a, b, QUADRATURE_POINTS + 1)
        g = np.abs(c - ndtr(t)) ** p
        h = (b - a) / QUADRATURE_POINTS
        total += h / 3.0 * float(g[0] + g[-1] + 4.0 * g[1:-1:2].sum() + 2.0 * g[2:-2:2].sum())
    return total ** (1.0 / p)


def sample_involutions(
    n: int,
    m: int,
    *,
    master_seed: int = rngmod.DEFAULT_SEED,
    stream: int = 0,
    threads: int = 1,
) -> np.ndarray:
    """``m`` uniform draws as an (m, n) image matrix.

    The result is a pure function of (master_seed, stream, m); thread count
    only schedules the chunks.
    """
    _check_even(n)

    def worker(count: int, gen: np.random.Generator) -> np.ndarray:
        return _kernels.images_of(_kernels.match_pairs(draw_choices(n, count, gen), n))

    parts = rngmod.run_chunked(
        m,
        worker,
        master_seed=master_seed,
        purpose=rngmod.PURPOSE_INVOLUTIONS,
        extra_id=stream,
        threads=threads,
    )
    return np.concatenate(parts)


def save_matrix_json(arr: np.ndarray, path: str | Path) -> None:
    arr = _as_matrix(arr)
    Path(path).write_text(
        json.dumps({"n": arr.shape[0], "entries": arr.tolist()}, sort_keys=True)
    )
