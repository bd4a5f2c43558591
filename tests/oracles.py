"""Reference implementations the tests check the package against.

Nothing in the package calls these.  Each is written independently of the
kernel it checks: plain loops, a direct quadrature, or the image-matrix
form of a sampler whose program path never builds one.

* ``_case_terms_loop`` walks the ten-row rewiring table (``_case_term_loop``)
  row by row.  It is the only copy of the short cycle sums ``T`` (before)
  and ``T_dag`` (after the rewiring); ``coupling._cases`` holds the rows
  themselves, as conditions.  It checks ``_kernels.case_terms``, and
  through it ``_kernels.restricted_a``.
* ``_exact_gap_loop`` sums the table's integrand through the two-branch
  segment integral ``_seg_abs_integral_loop``, over every involution it is
  given; it checks ``_kernels.exact_gap``, which sums over the distinct
  images of each quadruple's points instead.  ``seg_abs_integral`` is the
  clip form that ``exact_gap`` folds into its weights, written out on its
  own.
* ``table_sample_per_key``, ``_decode_distinct_sort`` and
  ``_square_bias_proposals_per_key`` are the square-bias samplers key by
  key: one unsorted ``searchsorted`` over the keys in input order, and the
  three taken points fully sorted before the fourth steps over them.  They
  check ``coupling.QuadrupleTable.sample``, ``coupling._decode_distinct``
  and ``coupling._square_bias_proposals``, which search the keys in
  ascending order and order the points with a min/max network.
* ``lp_norm_quadrature`` integrates ``|F - Phi|^p`` by composite Simpson,
  with scipy's ``ndtr`` for Phi; it checks the closed-form
  ``distances.l1_distance``.  ``l1_distance_clip`` is that closed form with
  the package's Phi but the quantile clipped into every piece, where
  ``l1_distance`` calls it only on the pieces that Phi crosses.
* ``y_batch_loop`` sums each pairing order's pair entries one pair at a
  time, ``acc = v_0; acc += v_1; ...``, the order in which
  ``_kernels.y_batch`` must sum every column whatever its block layout.
* ``sample_involutions`` draws image rows on the chunk streams of
  ``involutions.sample_y_values``, so the values that function sums are Y
  of these rows.
* ``save_matrix_json`` writes the JSON matrix files that
  ``arrays.load_matrix`` reads.
* ``validate_and_symmetrize_chained``, ``center_hat_chained``,
  ``moments_chained``, ``check_centered_chained`` and ``truncate_chained``
  are the array pipeline as chained numpy expressions, one temporary per
  operation.  The package computes the same operations into reused
  buffers, and the tests require its values to equal these bit for bit.
"""

import json
import math
from pathlib import Path
from statistics import NormalDist

import numpy as np
from scipy.special import ndtr

from invclt import _kernels, rng as rngmod
from invclt._kernels import _phi
from invclt.arrays import (
    DEGENERACY_CUTOFF,
    ROW_SUM_TOL,
    SYMMETRY_TOL,
    VARIANCE_TOL,
    CenteredArray,
    _as_matrix,
)
from invclt.bounds import EPSILON_0, N_0
from invclt.distances import StepCDF, _int_phi, normal_cdf, normal_pdf
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
    """Loop reference for ``case_terms``: ``(case, T, T_dag, delta)`` per row.

    ``images`` is ``(m, 4)``, ``pi`` at each row's quadruple, as in
    ``case_terms``.
    """
    terms = [_case_term_loop(d, *q, *p) for q, p in zip(quads, images)]
    return tuple(np.array(col) for col in zip(*terms))


def seg_abs_integral(a: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Vectorized ``int_0^1 |a - u*c| du = |c|*(phi(a/c) - a/c + 1/2)`` (c must be nonzero).

    ``exact_gap`` sums the same identity with ``|c|`` folded into its
    weights; ``_seg_abs_integral_loop`` is the two-branch reference.
    """
    t = a / c
    return np.abs(c) * (_phi(t.copy()) - t + 0.5)


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


def l1_distance_clip(F: StepCDF) -> float:
    """``distances.l1_distance`` with the crossing of every piece taken from
    the quantile: ``t = clip(Phi^{-1}(c), a, b)`` on each piece ``[a, b]`` at
    level ``c``, with ``statistics.NormalDist().inv_cdf`` as the package
    uses it, and Phi evaluated afresh at ``a``, ``b`` and ``t``.  The same
    Phi and the same sums as the package."""
    xs = F.xs
    a, b, c = xs[:-1], xs[1:], F.cum[:-1]
    t = np.clip(list(map(NormalDist().inv_cdf, c.tolist())), a, b)
    big_a, big_b, big_t = (_int_phi(x, normal_cdf(x)) for x in (a, b, t))
    middle = (c * (t - a) - (big_t - big_a)) + ((big_b - big_t) - c * (b - t))
    lower_tail = _int_phi(xs[0], normal_cdf(xs[0]))
    upper_tail = normal_pdf(xs[-1]) - xs[-1] * (1.0 - normal_cdf(xs[-1]))
    return math.fsum([float(lower_tail), *middle.tolist(), float(upper_tail)])


def y_batch_loop(d: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Y of each pairing order, ``2 * (v_0 + v_1 + ...)`` added pair by pair
    in order, ``v_t = d[a_t, b_t]`` the entry of pair ``t``."""
    cols = np.asarray(order, dtype=np.int64).T
    acc = d[cols[0], cols[1]]
    for t in range(1, cols.shape[0] // 2):
        acc += d[cols[2 * t], cols[2 * t + 1]]
    return 2.0 * acc


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


# ---------------------------------------------------------------------------
# the array pipeline as chained expressions
# ---------------------------------------------------------------------------


def validate_and_symmetrize_chained(raw, symmetrize: bool = False) -> np.ndarray:
    arr = _as_matrix(raw)
    if not np.isfinite(arr).all():
        raise InputError("matrix contains non-finite entries")
    n = arr.shape[0]
    if n % 2:
        raise InputError(f"n={n} is odd; no fixed-point-free involution exists")
    if n < 4:
        raise InputError(f"n={n} < 4")
    scale = float(np.abs(arr).max())
    if symmetrize:
        out = (arr + arr.T) / 2.0
    else:
        bound = SYMMETRY_TOL * max(scale, 1e-300)
        asym = float(np.abs(arr - arr.T).max())
        if asym > bound:
            raise InputError(f"max |e_ij - e_ji| = {asym:.3e} exceeds {bound:.3e}")
        diag = float(np.abs(np.diag(arr)).max())
        if diag > bound:
            raise InputError(f"max |e_ii| = {diag:.3e} exceeds {bound:.3e}")
        out = np.triu(arr, 1)
        out = out + out.T
    np.fill_diagonal(out, 0.0)
    return out


def center_hat_chained(e: np.ndarray) -> np.ndarray:
    n = e.shape[0]
    row = e.sum(axis=1)
    tot = row.sum()
    hat = e - (row[:, None] + row[None, :]) / (n - 2) + tot / ((n - 1) * (n - 2))
    np.fill_diagonal(hat, 0.0)
    return hat


def moments_chained(e: np.ndarray):
    """``(mu, sigma2, beta, d)``; ``beta`` and ``d`` are None when degenerate."""
    n = e.shape[0]
    mu = float(e.sum()) / (n - 1)
    row = e.sum(axis=1)
    tot = row.sum()
    sq = float((e * e).sum())
    sigma2 = (2.0 / ((n - 1) * (n - 3))) * (
        (n - 2) * sq + tot * tot / (n - 1) - 2.0 * float((row * row).sum())
    )
    scale = float(np.abs(e).max())
    if sigma2 <= DEGENERACY_CUTOFF * scale * scale:
        return mu, 0.0, None, None
    d = center_hat_chained(e) / np.sqrt(sigma2)
    return mu, sigma2, float((np.abs(d) ** 3).sum()), d


def check_centered_chained(D: CenteredArray) -> dict:
    d = D.entries
    n = D.n
    if d.shape != (n, n):
        raise InputError("entries shape does not match n")
    if not np.array_equal(d, d.T):
        raise InputError("standardized array lost exact symmetry")
    if np.any(np.diag(d) != 0.0):
        raise InputError("standardized array has nonzero diagonal")
    scale = float(np.abs(d).max())
    row_err = float(np.abs(d.sum(axis=1)).max())
    if row_err > ROW_SUM_TOL * n * max(scale, 1e-300):
        raise InputError(f"row sums fail to vanish: {row_err:.3e}")
    sigma2 = 2.0 * (n - 2) / ((n - 1) * (n - 3)) * float((d * d).sum())
    if abs(sigma2 - 1.0) > VARIANCE_TOL:
        raise InputError(f"variance of standardized array is {sigma2!r}, not 1")
    return {"row_err": row_err, "sigma2": sigma2}


def truncate_chained(D: CenteredArray):
    """``(gamma, deterministic, conditional)`` of ``bounds.truncate``."""
    d = D.entries
    n = D.n
    beta = D.beta
    keep = np.abs(d) <= 0.5
    d_prime = np.where(keep, d, 0.0)
    gi, gj = np.nonzero(~keep)
    gamma = np.stack([gi, gj], axis=1) if gi.size else np.empty((0, 2), dtype=np.int64)
    row_cubes = (np.abs(d) ** 3).sum(axis=1)
    row_sums_prime = d_prime.sum(axis=1)
    total_prime = float(d_prime.sum())
    mu_prime, sigma2_prime, beta_prime, _ = moments_chained(d_prime)
    deterministic = {
        "gamma_row_bound": bool(np.all(np.bincount(gi, minlength=n) <= 8.0 * row_cubes + 1e-12)),
        "gamma_bound": bool(gamma.shape[0] <= 8.0 * beta + 1e-12),
        "total_bound": bool(abs(total_prime) <= 4.0 * beta + 1e-12),
        "row_bound": bool(np.all(np.abs(row_sums_prime) <= 4.0 * row_cubes + 1e-12)),
        "mu_bound": bool(abs(mu_prime) <= 8.0 * beta / n + 1e-12),
    }
    conditional = {"sigma2_bound": None, "beta_bound": None}
    if beta / n <= EPSILON_0 and n >= N_0:
        conditional["sigma2_bound"] = bool(abs(sigma2_prime - 1.0) <= 10.0 * beta / n + 1e-12)
        conditional["beta_bound"] = bool(
            beta_prime is not None and beta_prime <= 22.0 * beta + 1e-12
        )
    return gamma, deterministic, conditional
