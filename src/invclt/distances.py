"""Finite laws as step CDFs, and their distances from the standard normal.

``StepCDF`` is the one finite-law type and ``ecdf`` its one constructor.
Monte Carlo samples of W and the exact law, which passes the value of W at
every involution once (``exact_w_distribution``), both go through it, so
they share one atom rule (``ATOM_MERGE_TOL``).

Phi is taken from the standard library (``normal_cdf``, through
``math.erfc``), once per step CDF: ``StepCDF.Phi`` holds it at every jump,
and the Kolmogorov distance, the L1 distance and ``cdf_rows`` all read
that array.  The Kolmogorov distance is evaluated exactly at the jump
points (both one-sided gaps).  The L1 distance is integrated piece by piece
in closed form: on each constant piece ``[a, b]`` at level ``c`` the
crossing of Phi with the level is ``a`` where ``Phi(a) >= c``, ``b`` where
``Phi(b) <= c``, and ``Phi^{-1}(c)`` on the few pieces between, taken from
the standard library (``statistics.NormalDist().inv_cdf``, Wichura's
AS241) one piece at a time.  The antiderivative
``int Phi = t Phi(t) + phi(t)`` handles every segment including the
unbounded tails, so no quadrature or truncation enters.
Intermediate L^p values are reported through the interpolation bound
``||f||_p^p <= ||f||_inf^{p-1} ||f||_1``.  The Simpson quadrature that
cross-checks ``l1_distance`` lives with the tests (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

# sorted distinct values within this step of each other are one atom: the
# rounding noise of sums of the same terms in different orders
ATOM_MERGE_TOL = 1e-12

_SQRT2PI = math.sqrt(2.0 * math.pi)
_SQRT1_2 = math.sqrt(0.5)


def normal_pdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT2PI


def normal_cdf(x) -> np.ndarray:
    """Phi(x) = erfc(-x/sqrt(2))/2, the standard normal CDF, elementwise.

    In the lower tail the argument of ``math.erfc`` is large and positive,
    and erfc returns its small value directly, to a few ulps, where
    ``(1 + erf(x/sqrt(2)))/2`` would subtract two numbers near 1 and keep
    no relative accuracy.  What is left is the rounding of ``-x/sqrt(2)``,
    which ``exp(-x^2/2)`` turns into a relative error of about ``x^2`` eps.
    The map reads the flat array lazily: a list of Python floats would
    hold about five times the array's bytes at once.
    """
    x = np.asarray(x, dtype=np.float64)
    s = x.reshape(-1) * -_SQRT1_2
    out = np.fromiter(map(math.erfc, s), np.float64, s.size)
    out *= 0.5
    return out.reshape(x.shape)


@dataclass(eq=False)
class StepCDF:
    """Right-continuous step function: F(t) = cum[i] for xs[i] <= t < xs[i+1].

    ``Phi`` is the normal CDF at every jump, evaluated once here for all the
    distances.
    """

    xs: np.ndarray
    cum: np.ndarray
    Phi: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.xs.size == 0:
            raise InputError("step CDF needs at least one jump")
        if np.any(np.diff(self.xs) <= 0):
            raise InputError("jump points must be strictly increasing")
        if np.any(np.diff(self.cum) < 0) or self.cum[-1] != 1.0:
            raise InputError("cumulative values must be nondecreasing and end at 1")
        self.Phi = normal_cdf(self.xs)


def ecdf(samples) -> StepCDF:
    """The finite law of ``samples``, each of weight 1/m: the one constructor
    of a ``StepCDF`` from values, sampled or enumerated.

    A run of sorted distinct values, each within ``ATOM_MERGE_TOL`` of the
    previous one, is one atom at the count-weighted mean of the run; an atom
    of a single distinct value keeps that value.  Jump heights are integer
    multiples of 1/m.
    """
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise InputError("empty sample")
    vals, counts = np.unique(arr, return_counts=True)
    near = np.diff(vals) <= ATOM_MERGE_TOL
    if near.any():
        starts = np.flatnonzero(np.concatenate(([True], ~near)))
        runs = np.add.reduceat(counts, starts)
        means = np.add.reduceat(vals * counts, starts) / runs
        vals = np.where(np.diff(starts, append=vals.size) > 1, means, vals[starts])
        counts = runs
    cum = np.cumsum(counts) / arr.size
    cum[-1] = 1.0
    return StepCDF(xs=vals, cum=cum)


def kolmogorov_distance(F: StepCDF) -> float:
    """sup_t |F(t) - Phi(t)|, exact: both gaps at every jump point."""
    upper = np.abs(F.cum - F.Phi)
    lower = np.abs(F.Phi - np.concatenate(([0.0], F.cum[:-1])))
    return float(max(upper.max(), lower.max()))


def _int_phi(t, Phi_t):
    """Antiderivative of Phi vanishing at -inf: t Phi(t) + phi(t)."""
    return t * Phi_t + normal_pdf(t)


def l1_distance(F: StepCDF) -> float:
    """int |F(t) - Phi(t)| dt, exact per piece including both tails.

    On a piece [a, b] with level c, Phi crosses c at a if Phi(a) >= c, at b
    if Phi(b) <= c, and else at ``Phi^{-1}(c)``, clipped into [a, b]; that
    point splits the piece into a part below c and a part above it (either
    part may be empty), each integrated through ``_int_phi``.  Phi and
    ``Phi^{-1}`` both come from the standard library: ``math.erfc`` through
    ``normal_cdf``, and ``statistics.NormalDist().inv_cdf``.  Only the
    pieces that Phi crosses, at most a few hundred of the 100k of an MC
    sample, call the scalar ``inv_cdf``; the others read the antiderivative
    at their ends.
    Every term integrates |F - Phi| >= 0, so numpy's pairwise sum is within
    about log2(pieces) * eps of the total, relative.  The measured resolution
    is coarser, about 1e-12 relative (one-ulp moves of 100k samples moved the
    value by up to 9e-13), so no bound across versions can be tighter.
    """
    from statistics import NormalDist  # not at module load: it costs each CLI start ~5 ms
    xs, Phi = F.xs, F.Phi
    big = _int_phi(xs, Phi)
    a, b, c = xs[:-1], xs[1:], F.cum[:-1]
    big_a, big_b = big[:-1], big[1:]
    at_a = Phi[:-1] >= c
    t = np.where(at_a, a, b)
    big_t = np.where(at_a, big_a, big_b)
    cross = ~at_a & (c < Phi[1:])
    tc = np.clip(list(map(NormalDist().inv_cdf, c[cross].tolist())), a[cross], b[cross])
    t[cross] = tc
    big_t[cross] = _int_phi(tc, normal_cdf(tc))
    middle = (c * (t - a) - (big_t - big_a)) + ((big_b - big_t) - c * (b - t))
    # below the first jump F = 0; above the last, int (1 - Phi) = phi - x (1 - Phi)
    upper_tail = normal_pdf(xs[-1]) - xs[-1] * (1.0 - Phi[-1])
    return float(big[0] + middle.sum() + upper_tail)


def lp_upper(linf: float, l1: float, p) -> float:
    """Interpolation bound (linf^{p-1} l1)^{1/p}; exact at p = 1 and p = inf."""
    if not (0.0 <= linf <= 1.0) or l1 < 0.0:
        raise InputError("need linf in [0,1] and l1 >= 0")
    p = float(p)
    if math.isnan(p) or p < 1.0:
        raise InputError(f"p={p} outside [1, inf]")
    if p == 1.0:
        return l1
    if math.isinf(p):
        return linf
    return (linf ** (p - 1.0) * l1) ** (1.0 / p)


def p_key(p) -> str:
    """The JSON key of exponent ``p``: ``"inf"`` or ``repr(float(p))``."""
    p = float(p)
    return "inf" if math.isinf(p) else repr(p)


def distance_report(F: StepCDF, p_list, m_samples: int | None = None) -> dict:
    """The distances of F from the normal as ``analyze`` prints them.

    ``lp_upper`` is keyed by ``p_key(p)``; ``m_samples`` is None for the
    exact law, and the mode follows from it.
    """
    linf = kolmogorov_distance(F)
    l1 = l1_distance(F)
    return {
        "linf": linf,
        "l1": l1,
        "lp_upper": {p_key(p): lp_upper(linf, l1, p) for p in p_list},
        "mode": "exact" if m_samples is None else "mc",
        "m_samples": m_samples,
    }


def cdf_rows(F: StepCDF) -> list[tuple[float, float, float]]:
    """(t, F(t), Phi(t)) at every jump, for external plotting."""
    return list(zip(F.xs.tolist(), F.cum.tolist(), F.Phi.tolist()))
