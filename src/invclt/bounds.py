"""Explicit constants, truncation diagnostics and the lattice lower bound.

The distance bounds have the form ``K_p * beta / n`` with
``K_p = 379^{1/p} * 61,702,446^{1-1/p}``; the refined L1 coefficient is
``224 + 1344/n + 384/n^2`` and the coupling-gap bound is
``112 beta/n + 672 beta/n^2 + 192 beta/n^3``.  Bounds are reported next to
measured distances but never clamp them: this module verifies, it does not
approximate.

The truncation operator zeroes entries with |d| > 1/2 and reports the
deterministic inequalities that always hold plus the conditional ones that
the theory guarantees only for beta/n <= 1/90 and n >= 1000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import involutions as invmod
from .arrays import CenteredArray, SymmetricArray, moments
from .distances import ecdf, kolmogorov_distance, normal_pdf, p_key
from .errors import InputError

K_L1 = 379.0
K_LINF = 61_702_446.0
EPSILON_0 = 1.0 / 90.0  # beta/n threshold for the conditional truncation claims
N_0 = 1000  # matching dimension threshold
MIN_VALID_N = 9
DKW_DELTA = 0.001  # a correct lower-bound run fails with at most this probability
FLOOR_EPSILON = 0.1  # the rate floor is (1 - eps)/2 * phi(1/sigma) / sigma


def kp(p) -> float:
    """K_p = 379^{1/p} * 61,702,446^{1-1/p} for p in [1, inf]."""
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise InputError(f"p={p} outside [1, inf]")
    if math.isinf(p):
        return K_LINF
    return K_L1 ** (1.0 / p) * K_LINF ** (1.0 - 1.0 / p)


def l1_refined_coefficient(n: int) -> float:
    return 224.0 + 1344.0 / n + 384.0 / (n * n)


def gap_bound(n: int, beta: float) -> float:
    """Upper bound on E|W - W*|: 112 b/n + 672 b/n^2 + 192 b/n^3."""
    return beta * (112.0 / n + 672.0 / n**2 + 192.0 / n**3)


def theorem_bounds(D: CenteredArray, p_list=(1.0, 2.0, math.inf)) -> dict:
    """The theorem's bounds for D as ``analyze`` prints them.

    ``kp`` and ``bound`` (``K_p beta / n``) are keyed by ``p_key(p)``.
    ``valid`` is n >= 9 (the L1 and L^p statements) and ``valid_strict`` is
    n > 9 (the sup-norm statement is quoted with n > 9).
    """
    n = D.n
    beta = D.beta
    kps = {p_key(p): kp(p) for p in p_list}
    return {
        "n": n,
        "beta": beta,
        "kp": kps,
        "bound": {key: v * beta / n for key, v in kps.items()},
        "l1_refined": l1_refined_coefficient(n) * beta / n,
        "gap_bound": gap_bound(n, beta),
        "valid": n >= MIN_VALID_N,
        "valid_strict": n > MIN_VALID_N,
    }


# ---------------------------------------------------------------------------
# truncation
# ---------------------------------------------------------------------------


@dataclass
class TruncationResult:
    gamma: np.ndarray  # (|Gamma|, 2) index pairs with |d| > 1/2
    collision_prob_bound: float
    deterministic: dict  # name -> bool
    conditional: dict  # name -> bool | None


def truncate(D: CenteredArray) -> TruncationResult:
    """Zero out |d| > 1/2 and evaluate the truncation inequalities.

    Deterministic claims (always checked): |Gamma_i| <= 8 sum_j |d_ij|^3,
    |Gamma| <= 8 beta, |d'_{++}| <= 4 beta, |d'_{i+}| <= 4 sum_j |d_ij|^3 and
    |mu_{D'}| <= 8 beta / n.  Conditional claims (|sigma^2 - 1| <= 10 beta/n,
    beta_{D'} <= 22 beta) are reported as None when beta/n > 1/90 or
    n < 1000, where the theory does not promise them, and only otherwise are
    the moments of D' computed.  By Holder every standardized array has
    beta/n >= ((n-1)(n-3)/(2(n-2)))^{3/2} / (n sqrt(n(n-1))) > 1/90 for
    n <= 1007, so the conditional claims are vacuous there.
    """
    d = D.entries
    n = D.n
    beta = D.beta
    # one buffer holds |d| for the mask, then its cubes for the rows, then d_prime
    buf = np.abs(d)
    gi, gj = np.nonzero(buf > 0.5)
    gamma = np.stack([gi, gj], axis=1) if gi.size else np.empty((0, 2), dtype=np.int64)

    row_cubes = np.power(buf, 3, out=buf).sum(axis=1)
    np.copyto(buf, d)
    buf[gi, gj] = 0.0
    d_prime = buf  # d with Gamma zeroed
    row_sums_prime = d_prime.sum(axis=1)
    total_prime = float(d_prime.sum())

    deterministic = {
        "gamma_row_bound": bool(np.all(np.bincount(gi, minlength=n) <= 8.0 * row_cubes + 1e-12)),
        "gamma_bound": bool(gamma.shape[0] <= 8.0 * beta + 1e-12),
        "total_bound": bool(abs(total_prime) <= 4.0 * beta + 1e-12),
        "row_bound": bool(
            np.all(np.abs(row_sums_prime) <= 4.0 * row_cubes + 1e-12)
        ),
        "mu_bound": bool(abs(total_prime / (n - 1)) <= 8.0 * beta / n + 1e-12),
    }
    conditional: dict[str, bool | None] = {"sigma2_bound": None, "beta_bound": None}
    if beta / n <= EPSILON_0 and n >= N_0:
        summary = moments(SymmetricArray(n=n, entries=d_prime))
        conditional["sigma2_bound"] = bool(abs(summary.sigma2 - 1.0) <= 10.0 * beta / n + 1e-12)
        conditional["beta_bound"] = bool(
            summary.beta is not None and summary.beta <= 22.0 * beta + 1e-12
        )

    return TruncationResult(
        gamma=gamma,
        collision_prob_bound=16.0 * beta / n,
        deterministic=deterministic,
        conditional=conditional,
    )


def exact_collision_probability(D: CenteredArray) -> float:
    """Exact P(Y_{D'} != Y_D) = P(pi hits Gamma) over the uniform involution."""
    invs = invmod.involution_matrix(D.n)
    hit = np.abs(D.entries) > 0.5
    hits = hit[np.arange(D.n), invs].any(axis=1)
    return float(hits.mean())


# ---------------------------------------------------------------------------
# lattice lower-bound construction
# ---------------------------------------------------------------------------


def lower_bound_array(n: int) -> SymmetricArray:
    """The +-1 array whose statistic is even-integer valued.

    For j >= i: 0 on the diagonal and on the pairs (odd i, j = i+1); +1 when
    i != j with i - j even; -1 otherwise; mirrored below the diagonal.
    """
    if n < 4 or n % 2:
        raise InputError(f"n={n} must be even and >= 4")
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    upper = np.where((i - j) % 2 == 0, 1.0, -1.0)
    # pairs (2t-1, 2t) in 1-based terms are zeroed; 0-based: (even i, j=i+1)
    paired = (np.minimum(i, j) % 2 == 0) & (np.abs(i - j) == 1)
    entries = np.where(paired | (i == j), 0.0, upper)
    return SymmetricArray(n=n, entries=entries)


def dkw_slack(m: int) -> float:
    """sup_t |F_m - F| <= sqrt(ln(2/delta) / (2m)) with probability 1-delta,
    at delta = DKW_DELTA."""
    return math.sqrt(math.log(2.0 / DKW_DELTA) / (2.0 * m))


def lower_bound_experiment(
    n: int,
    m: int,
    *,
    master_seed: int,
    threads: int = 1,
) -> tuple[dict, np.ndarray]:
    """Monte Carlo check that the n^{-1/2} rate floor is attained.

    Returns the row that ``lowerbound`` prints and the sampled W values (for
    --emit-cdf).  The pass criterion is ``ks >= floor - dkw_slack`` with the
    slack at confidence ``1 - DKW_DELTA``; the floor is
    ``(1-eps)/2 * phi(1/sigma) / sigma`` at eps = ``FLOOR_EPSILON``.
    """
    E = lower_bound_array(n)
    summary = moments(E)
    sigma = math.sqrt(summary.sigma2)
    ys = invmod.sample_y_values(
        E.entries, m, master_seed=master_seed, stream=n, threads=threads
    )
    # each Y within 1e-9 of its nearest even integer 2*rint(Y/2), in one
    # scratch buffer (np.fmod for the parity took 36 ns a value)
    off = np.multiply(ys, 0.5)
    np.rint(off, out=off)
    off *= 2.0
    np.subtract(ys, off, out=off)
    np.abs(off, out=off)
    lattice_ok = bool(np.all(off < 1e-9))
    del off
    w = np.subtract(ys, summary.mu, out=ys)  # (Y - mu) / sigma, in the buffer of Y
    w /= sigma
    ks = kolmogorov_distance(ecdf(w))
    floor = 0.5 * (1.0 - FLOOR_EPSILON) * float(normal_pdf(1.0 / sigma)) / sigma
    slack = dkw_slack(m)
    row = {
        "n": n,
        "m": m,
        "sigma": sigma,
        "ks": ks,
        "floor": floor,
        "dkw_slack": slack,
        "beta_over_n": summary.beta / n,
        "lattice_ok": lattice_ok,
        "pass": bool(ks >= floor - slack and lattice_ok),
    }
    return row, w
