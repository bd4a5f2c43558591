"""Distances between a step CDF and the standard normal.

The Kolmogorov distance is evaluated exactly at the jump points (both
one-sided gaps).  The L1 distance is integrated piece by piece in closed
form: on each constant piece the crossing of Phi with the level is
``ndtri(level)`` clipped into the piece, and the antiderivative
``int Phi = t Phi(t) + phi(t)`` handles every segment including the
unbounded tails, so no quadrature, iteration or truncation enters.
Intermediate L^p values are reported through the interpolation bound
``||f||_p^p <= ||f||_inf^{p-1} ||f||_1``.  The Simpson quadrature that
cross-checks ``l1_distance`` lives with the tests (``tests/oracles.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import InputError
from .involutions import ExactDistribution

_SQRT2PI = math.sqrt(2.0 * math.pi)


def normal_pdf(x):
    return np.exp(-0.5 * np.square(x)) / _SQRT2PI


@dataclass(eq=False)
class StepCDF:
    """Right-continuous step function: F(t) = cum[i] for xs[i] <= t < xs[i+1]."""

    xs: np.ndarray
    cum: np.ndarray

    def __post_init__(self) -> None:
        if self.xs.size == 0:
            raise InputError("step CDF needs at least one jump")
        if np.any(np.diff(self.xs) <= 0):
            raise InputError("jump points must be strictly increasing")
        if np.any(np.diff(self.cum) < 0) or self.cum[-1] != 1.0:
            raise InputError("cumulative values must be nondecreasing and end at 1")


def ecdf(samples) -> StepCDF:
    """Empirical CDF; jump heights are integer multiples of 1/m."""
    arr = np.asarray(samples, dtype=np.float64)
    if arr.size == 0:
        raise InputError("empty sample")
    vals, counts = np.unique(arr, return_counts=True)
    cum = np.cumsum(counts) / arr.size
    cum[-1] = 1.0
    return StepCDF(xs=vals, cum=cum)


def step_cdf_from_distribution(dist: ExactDistribution) -> StepCDF:
    cum = np.cumsum(dist.counts) / dist.total
    cum[-1] = 1.0
    return StepCDF(xs=dist.values.copy(), cum=cum)


def kolmogorov_distance(F: StepCDF) -> float:
    """sup_t |F(t) - Phi(t)|, exact: both gaps at every jump point."""
    phis = ndtr(F.xs)
    upper = np.abs(F.cum - phis)
    lower = np.abs(phis - np.concatenate(([0.0], F.cum[:-1])))
    return float(max(upper.max(), lower.max()))


def _int_phi(t):
    """Antiderivative of Phi vanishing at -inf: t Phi(t) + phi(t)."""
    return t * ndtr(t) + normal_pdf(t)


def l1_distance(F: StepCDF) -> float:
    """int |F(t) - Phi(t)| dt, exact per piece including both tails.

    On a piece [a, b] with level c, Phi crosses c at ndtri(c); clipped into
    [a, b] that point splits the piece into a part below c and a part above
    it (either part may be empty), each integrated through ``_int_phi``.
    """
    xs = F.xs
    a, b, c = xs[:-1], xs[1:], F.cum[:-1]
    t = np.clip(ndtri(c), a, b)
    big_a, big_b, big_t = _int_phi(a), _int_phi(b), _int_phi(t)
    middle = (c * (t - a) - (big_t - big_a)) + ((big_b - big_t) - c * (b - t))
    # below the first jump F = 0; above the last, int (1 - Phi) = phi - x (1 - Phi)
    lower_tail = _int_phi(xs[0])
    upper_tail = normal_pdf(xs[-1]) - xs[-1] * (1.0 - ndtr(xs[-1]))
    return math.fsum([float(lower_tail), *middle.tolist(), float(upper_tail)])


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


@dataclass
class DistanceReport:
    linf: float
    l1: float
    lp: dict[float, float]
    m_samples: int | None = None  # None for the exact law

    def to_json(self) -> dict:
        return {
            "linf": self.linf,
            "l1": self.l1,
            "lp_upper": {("inf" if math.isinf(p) else repr(p)): v for p, v in self.lp.items()},
            "mode": "exact" if self.m_samples is None else "mc",
            "m_samples": self.m_samples,
        }


def distance_report(F: StepCDF, p_list, m_samples: int | None = None) -> DistanceReport:
    linf = kolmogorov_distance(F)
    l1 = l1_distance(F)
    lp = {float(p): lp_upper(linf, l1, p) for p in p_list}
    return DistanceReport(linf=linf, l1=l1, lp=lp, m_samples=m_samples)


def cdf_rows(F: StepCDF) -> list[tuple[float, float, float]]:
    """(t, F(t), Phi(t)) at every jump, for external plotting."""
    return [
        (float(x), float(c), float(ndtr(x))) for x, c in zip(F.xs, F.cum)
    ]
